//! Differential tests of the device primitives (`racc-prim`): every
//! backend must reproduce the canonical serial reference **bitwise** —
//! for `f64`, `f32`, and `u32` elements, for NaN payloads, for empty
//! extents, and across repeated runs on the stealing threadpool. Every
//! back end runs in every cell of `common::matrix` — plain, under simsan,
//! fused and under chaos — and each configured cell must match its plain
//! cell bit for bit. CI runs this suite again under `--features racecheck`.

mod common;

use common::{across, matrix, matrix_for_case, Cell};
use proptest::prelude::*;
use racc::prelude::*;
use racc::prim::reference;
use racc::SortKey;
use std::cell::RefCell;
use std::sync::atomic::AtomicUsize;

/// The canonical inclusive/exclusive scan, collected on the host.
fn reference_scan_f(data: &[f64], inclusive: bool) -> Vec<f64> {
    let out = RefCell::new(vec![0.0f64; data.len()]);
    reference::scan_canonical(
        data.len(),
        inclusive,
        &|i| data[i],
        &|i, v| out.borrow_mut()[i] = v,
        Sum,
    );
    out.into_inner()
}

fn reference_histogram(keys: &[u32], bins: usize) -> Vec<u64> {
    let out = RefCell::new(vec![0u64; bins]);
    reference::histogram_canonical(keys.len(), bins, &|i| keys[i] as usize, &|b, c| {
        out.borrow_mut()[b] = c
    });
    out.into_inner()
}

fn reference_sort_permutation(keys: &[u32]) -> Vec<u64> {
    let out = RefCell::new(vec![0u64; keys.len()]);
    reference::sort_pairs_canonical(keys.len(), &|i| keys[i] as u64, &|rank, original| {
        out.borrow_mut()[rank] = original as u64
    });
    out.into_inner()
}

/// Few distinct keys, one per radix-digit position plus mixed ones, so
/// every pass of the simulators' LSD radix sort has ties to keep in order.
const DUPLICATE_PALETTE: [u32; 6] = [
    0,
    0x0000_0100,
    0x0001_0000,
    0x0100_0000,
    0x0101_0101,
    u32::MAX,
];

fn assert_histogram_matches_reference(cells: &[Cell], keys: &[u32], bins: usize) {
    let expect = reference_histogram(keys, bins);
    let got = across(cells, |ctx| {
        let k = ctx.array_from(keys).unwrap();
        let h = ctx.histogram(&k, bins).unwrap();
        ctx.to_host(&h).unwrap()
    });
    for (key, got) in got {
        assert_eq!(got, expect, "{key} (n = {}, bins = {bins})", keys.len());
    }
}

fn assert_sort_matches_reference(cells: &[Cell], keys: &[u32]) {
    let perm = reference_sort_permutation(keys);
    let values: Vec<f32> = (0..keys.len()).map(|i| i as f32 * 0.5).collect();
    let sorted = across(cells, |ctx| {
        let k = ctx.array_from(keys).unwrap();
        let v = ctx.array_from(&values).unwrap();
        let (sk, sv) = ctx.sort_by_key(&k, &v).unwrap();
        (ctx.to_host(&sk).unwrap(), ctx.to_host(&sv).unwrap())
    });
    for (key, (hk, hv)) in sorted {
        let n = keys.len();
        for (rank, &orig) in perm.iter().enumerate() {
            assert_eq!(
                hk[rank], keys[orig as usize],
                "{key} n = {n} rank {rank}: key"
            );
            assert_eq!(
                hv[rank].to_bits(),
                values[orig as usize].to_bits(),
                "{key} n = {n} rank {rank}: value"
            );
        }
    }
}

/// The cases of each property below that run in every cell of the
/// matrix; the rest run in the plain cells.
const FULL_CASES: usize = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// f64 inclusive & exclusive scans equal the serial reference bitwise
    /// on every backend.
    #[test]
    fn scan_f64_matches_reference_everywhere(
        data in prop::collection::vec(-1e6f64..1e6, 0..1500),
        inclusive in any::<bool>(),
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let expect = reference_scan_f(&data, inclusive);
        let scans = across(&matrix_for_case(&CASE, FULL_CASES), |ctx| {
            let x = ctx.array_from(&data).unwrap();
            let s = if inclusive {
                ctx.inclusive_scan(&x).unwrap()
            } else {
                ctx.exclusive_scan(&x).unwrap()
            };
            ctx.to_host(&s).unwrap()
        });
        for (key, got) in scans {
            for i in 0..data.len() {
                prop_assert_eq!(
                    got[i].to_bits(), expect[i].to_bits(),
                    "{} differs at {} ({} vs {})", key, i, got[i], expect[i]
                );
            }
        }
    }

    /// f32 scans — where association visibly changes bits — also agree
    /// bitwise everywhere: the fixed-tile combine really is canonical.
    #[test]
    fn scan_f32_matches_reference_everywhere(
        data in prop::collection::vec(-1e4f32..1e4, 0..1500),
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let expect = RefCell::new(vec![0.0f32; data.len()]);
        reference::scan_canonical(
            data.len(), true, &|i| data[i],
            &|i, v| expect.borrow_mut()[i] = v, Sum,
        );
        let expect = expect.into_inner();
        let scans = across(&matrix_for_case(&CASE, FULL_CASES), |ctx| {
            let x = ctx.array_from(&data).unwrap();
            ctx.to_host(&ctx.inclusive_scan(&x).unwrap()).unwrap()
        });
        for (key, got) in scans {
            for i in 0..data.len() {
                prop_assert_eq!(
                    got[i].to_bits(), expect[i].to_bits(),
                    "{} differs at {}", key, i
                );
            }
        }
    }

    /// Histograms over u32 keys equal the reference on every backend, from
    /// empty inputs to several 1024-thread simulator blocks.
    #[test]
    fn histogram_matches_reference_everywhere(
        keys in prop::collection::vec(0u32..64, 0..5000),
        extra_bins in 0usize..8,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        assert_histogram_matches_reference(&matrix_for_case(&CASE, FULL_CASES), &keys, 64 + extra_bins);
    }

    /// sort_by_key (u32 keys, f32 values) applies the reference
    /// permutation on every backend — stability included, since the
    /// permutation is unique. Three key populations: small keys (only the
    /// first radix pass sees more than digit 0), the full `u32` range (all
    /// four passes non-trivial), and a six-value palette whose members
    /// differ in every byte (long runs of equal keys: stability is what
    /// orders them).
    #[test]
    fn sort_by_key_matches_reference_everywhere(
        keys in prop_oneof![
            prop::collection::vec(0u32..32, 0..1200),
            prop::collection::vec(any::<u32>(), 0..5000),
            prop::collection::vec(0usize..DUPLICATE_PALETTE.len(), 0..5000)
                .prop_map(|picks| picks.into_iter().map(|p| DUPLICATE_PALETTE[p]).collect()),
        ],
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        assert_sort_matches_reference(&matrix_for_case(&CASE, FULL_CASES), &keys);
    }

    /// Repeated runs on the work-stealing threadpool are bit-identical:
    /// stealing may move tiles between workers but never changes the
    /// combine order.
    #[test]
    fn threads_prims_are_deterministic_run_to_run(
        data in prop::collection::vec(-1e5f32..1e5, 1..4000),
    ) {
        let ctx = racc::context_for("threads").unwrap();
        let x = ctx.array_from(&data).unwrap();
        let keys = ctx
            .array_from_fn(data.len(), |i| (i as u32).wrapping_mul(2654435761) % 97)
            .unwrap();
        let run = || {
            let s = ctx.to_host(&ctx.inclusive_scan(&x).unwrap()).unwrap();
            let h = ctx.to_host(&ctx.histogram(&keys, 97).unwrap()).unwrap();
            let p = ctx.to_host(&ctx.sort_permutation(&keys).unwrap()).unwrap();
            (s.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), h, p)
        };
        let first = run();
        for _ in 0..3 {
            prop_assert_eq!(&run(), &first);
        }
    }
}

/// The block-boundary sizes of a 1024-thread simulator block — fewer
/// elements than a block, one short, exact, one over, two blocks and one —
/// on every backend: full-range keys for the sort, and both histogram
/// populations (spread, and everything in one bin).
#[test]
fn block_boundary_sizes_match_reference_everywhere() {
    for n in [1usize, 1023, 1024, 1025, 2049] {
        let wide: Vec<u32> = (0..n as u32)
            .map(|i| i.wrapping_mul(2654435761).rotate_left(i % 32))
            .collect();
        assert_sort_matches_reference(&matrix(), &wide);
        let palette: Vec<u32> = (0..n).map(|i| DUPLICATE_PALETTE[(i * 7) % 6]).collect();
        assert_sort_matches_reference(&matrix(), &palette);

        let spread: Vec<u32> = wide.iter().map(|k| k % 97).collect();
        assert_histogram_matches_reference(&matrix(), &spread, 97);
        assert_histogram_matches_reference(&matrix(), &vec![5u32; n], 8);
    }
}

/// The complexity pin: a simulated histogram calls its key closure exactly
/// once per element, however many blocks the elements span (the rescan
/// kernels this replaced called it `n × block` times). A count, not a
/// timing, so it cannot flake.
#[test]
fn simulated_histogram_calls_its_key_once_per_element() {
    use std::sync::atomic::{AtomicU64, Ordering};
    for n in [1000usize, 1024, 5000] {
        let ctx = racc::context_for("cudasim").unwrap();
        let calls = AtomicU64::new(0);
        let h = ctx
            .histogram_by_unchecked(n, 16, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                i % 16
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), n as u64, "n = {n}");
        assert_eq!(ctx.to_host(&h).unwrap().iter().sum::<u64>(), n as u64);
    }
}

/// The complexity pin of the sort: a simulated sort calls its key closure
/// exactly once per element — the kernel that stores the keys also finds
/// the bytes that vary, so no second host sweep over `key` can come back.
#[test]
fn simulated_sort_calls_its_key_once_per_element() {
    use racc::prim::{PrimBackend, SORT_PROFILE};
    use std::sync::atomic::{AtomicU64, Ordering};
    for sanitize in [false, true] {
        let ctx = racc::builder()
            .backend("cudasim")
            .sanitizer(sanitize)
            .build()
            .unwrap();
        for n in [1000usize, 1024, 5000] {
            let calls = AtomicU64::new(0);
            let written = AtomicU64::new(0);
            ctx.backend().prim_sort_pairs(
                n,
                u32::BITS,
                &SORT_PROFILE,
                |i| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    (i as u64 * 2654435761) % 8192
                },
                |_, _| {
                    written.fetch_add(1, Ordering::Relaxed);
                },
            );
            let what = format!("n = {n}, sanitize {sanitize}");
            assert_eq!(calls.load(Ordering::Relaxed), n as u64, "{what}");
            assert_eq!(written.load(Ordering::Relaxed), n as u64, "{what}");
        }
    }
}

/// Sizes around a 1024-thread block, and one past 128 of them.
const SHAPE_SIZES: [usize; 5] = [1, 1023, 1024, 1025, 131_072 + 517];

/// splitmix64 of `i`: the varying part of a key shape.
fn mix(i: usize) -> u64 {
    let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `sort_by_key` with `f32` values on every cell of `cells`, against the
/// reference permutation, checking each cell against its plain one.
fn assert_sorts_match_reference<K>(cells: &[common::Cell], keys: &[K], what: &str)
where
    K: SortKey + common::Bits + std::fmt::Debug + PartialEq,
{
    let out = RefCell::new(vec![usize::MAX; keys.len()]);
    reference::sort_pairs_canonical(keys.len(), &|i| keys[i].sort_bits(), &|rank, i| {
        out.borrow_mut()[rank] = i
    });
    let perm = out.into_inner();
    let values: Vec<f32> = (0..keys.len()).map(|i| i as f32 * 0.5).collect();
    let sorted = across(cells, |ctx| {
        let k = ctx.array_from(keys).unwrap();
        let v = ctx.array_from(&values).unwrap();
        let (sk, sv) = ctx.sort_by_key(&k, &v).unwrap();
        (ctx.to_host(&sk).unwrap(), ctx.to_host(&sv).unwrap())
    });
    let want_keys: Vec<K> = perm.iter().map(|&i| keys[i]).collect();
    let want_values: Vec<u32> = perm.iter().map(|&i| values[i].to_bits()).collect();
    for (key, (hk, hv)) in sorted {
        let n = keys.len();
        assert!(hk == want_keys, "{key}: {what}, n = {n}: keys");
        let hv: Vec<u32> = hv.iter().map(|v| v.to_bits()).collect();
        assert!(hv == want_values, "{key}: {what}, n = {n}: values");
    }
}

/// The simulator cells of the matrix that `keep` admits, fusion left out
/// (it does not reach the primitives).
fn simulator_cells(keep: impl Fn(&Cell) -> bool) -> Vec<Cell> {
    let mut cells = matrix();
    cells.retain(|cell| {
        cell.ctx.is_accelerator() && cell.config != common::Config::Fusion && keep(cell)
    });
    cells
}

/// Key shapes that decide which radix passes a simulator executes — none
/// (all keys equal), one over byte 1 (the result in the second buffer),
/// one over the top byte of a `u32`, two (13-bit keys), all four or all
/// eight — on every simulator cell (plain, simsan, chaos), against the
/// reference. At the largest size, where one sanitized sort costs 1–9 s in
/// a debug build, simsan runs the one-pass shape on `cudasim` only: the
/// other shapes skip and flip buffers there as they do at 1 025 elements.
#[test]
fn simulated_sorts_match_reference_on_every_key_shape() {
    let every_cell = simulator_cells(|_| true);
    let unsanitized = simulator_cells(|cell| cell.config != common::Config::Simsan);
    let one_sanitized =
        simulator_cells(|cell| cell.config != common::Config::Simsan || cell.backend == "cudasim");
    for n in SHAPE_SIZES {
        let cells = |what: &str| match (n > 1025, what) {
            (false, _) => &every_cell,
            (true, "byte 1 varies") => &one_sanitized,
            (true, _) => &unsanitized,
        };
        let shapes: [(&str, Vec<u32>); 5] = [
            ("all equal", vec![0x5A3C_0F81; n]),
            (
                "byte 1 varies",
                (0..n)
                    .map(|i| 0xAB00_00CD | (mix(i) as u32 & 0xFF00))
                    .collect(),
            ),
            (
                "top byte varies",
                (0..n)
                    .map(|i| 0x0012_3456 | (mix(i) as u32 & 0xFF00_0000))
                    .collect(),
            ),
            ("13 bits", (0..n).map(|i| mix(i) as u32 & 0x1FFF).collect()),
            ("32 bits", (0..n).map(|i| mix(i) as u32).collect()),
        ];
        for (what, keys) in shapes {
            assert_sorts_match_reference(cells(what), &keys, what);
        }
        let wide: Vec<u64> = (0..n).map(mix).collect();
        assert_sorts_match_reference(cells("64 bits"), &wide, "64 bits");
    }
}

/// A pass over a byte every key shares is charged as if it ran: at equal
/// `n`, a sort of all-equal keys logs exactly the device operations — kind,
/// bytes, threads and modeled ns — of a sort of full-width keys.
#[test]
fn skipped_passes_are_charged_like_executed_ones() {
    use racc_gpusim::{profiles, Device};
    use std::sync::Arc;
    fn sort_log<K: SortKey>(keys: &[K]) -> Vec<(racc_gpusim::OpKind, u64, u64, u64)> {
        let dev = Arc::new(Device::new(profiles::nvidia_a100()));
        let ctx = racc::builder()
            .backend("cudasim")
            .device(Arc::clone(&dev))
            .build()
            .unwrap();
        let k = ctx.array_from(keys).unwrap();
        let v = ctx.array_from_fn(keys.len(), |i| i as f64).unwrap();
        ctx.sort_by_key(&k, &v).unwrap();
        dev.op_log()
            .iter()
            .map(|r| (r.kind, r.bytes, r.threads, r.modeled_ns))
            .collect()
    }
    for n in [1025usize, 131_072 + 517] {
        let full32 = sort_log(&(0..n).map(|i| mix(i) as u32).collect::<Vec<_>>());
        assert_eq!(sort_log(&vec![7u32; n]), full32, "u32, n = {n}");
        // Init, emit, and count + digit scan + scatter for each of 4 bytes.
        let kernels = full32
            .iter()
            .filter(|r| r.0 == racc_gpusim::OpKind::Kernel)
            .count();
        assert_eq!(kernels, 2 + 3 * 4, "u32, n = {n}");
        let full64 = sort_log(&(0..n).map(mix).collect::<Vec<_>>());
        assert_eq!(sort_log(&vec![u64::MAX; n]), full64, "u64, n = {n}");
    }
}

/// The pinned NaN contract survives the primitives: Max/Min scans drop
/// NaN at its first combine, bit-identically on all five backends.
#[test]
fn nan_scans_bit_identical_everywhere() {
    let mut data: Vec<f64> = (0..1000).map(|i| ((i * 29) % 83) as f64 - 41.0).collect();
    for i in (0..data.len()).step_by(7) {
        data[i] = f64::NAN;
    }
    // Leading NaN: tile 0 starts from a NaN seed.
    data[0] = f64::NAN;
    for (inclusive, op_is_max) in [(true, true), (true, false), (false, true), (false, false)] {
        let expect = RefCell::new(vec![0.0f64; data.len()]);
        if op_is_max {
            reference::scan_canonical(
                data.len(),
                inclusive,
                &|i| data[i],
                &|i, v| expect.borrow_mut()[i] = v,
                Max,
            );
        } else {
            reference::scan_canonical(
                data.len(),
                inclusive,
                &|i| data[i],
                &|i, v| expect.borrow_mut()[i] = v,
                Min,
            );
        }
        let expect = expect.into_inner();
        let scans = across(&matrix(), |ctx| {
            let x = ctx.array_from(&data).unwrap();
            let s = match (inclusive, op_is_max) {
                (true, true) => ctx.inclusive_scan_with(&x, Max),
                (true, false) => ctx.inclusive_scan_with(&x, Min),
                (false, true) => ctx.exclusive_scan_with(&x, Max),
                (false, false) => ctx.exclusive_scan_with(&x, Min),
            }
            .unwrap();
            ctx.to_host(&s).unwrap()
        });
        for (key, got) in scans {
            for i in 0..data.len() {
                assert_eq!(
                    got[i].to_bits(),
                    expect[i].to_bits(),
                    "{key} inclusive={inclusive} max={op_is_max} at {i}: {} vs {}",
                    got[i],
                    expect[i]
                );
            }
        }
    }
}

/// NaN-laden Sum scans propagate NaN the way plain left-to-right float
/// arithmetic does — and still agree bitwise across backends.
#[test]
fn nan_sum_scan_bit_identical_everywhere() {
    let mut data: Vec<f32> = (0..700).map(|i| (i % 13) as f32 * 0.25).collect();
    data[350] = f32::NAN;
    let expect = reference_scan_f32(&data);
    let scans = across(&matrix(), |ctx| {
        let x = ctx.array_from(&data).unwrap();
        ctx.to_host(&ctx.inclusive_scan(&x).unwrap()).unwrap()
    });
    for (key, got) in scans {
        assert!(got[349].is_finite() && got[350].is_nan() && got[699].is_nan());
        for i in 0..data.len() {
            assert_eq!(got[i].to_bits(), expect[i].to_bits(), "{key} at {i}");
        }
    }
}

fn reference_scan_f32(data: &[f32]) -> Vec<f32> {
    let out = RefCell::new(vec![0.0f32; data.len()]);
    reference::scan_canonical(
        data.len(),
        true,
        &|i| data[i],
        &|i, v| out.borrow_mut()[i] = v,
        Sum,
    );
    out.into_inner()
}

/// Empty-extent edges: n == 0 scans/sorts return empty arrays, n == 0
/// histograms still define every bin, and reductions over zero-width
/// Array2/Array3 axes return the operator identity — on all five
/// backends.
#[test]
fn empty_extents_are_identities_everywhere() {
    let edges = across(&matrix(), |ctx| {
        let empty = ctx.array_from(&[] as &[f64]).unwrap();
        let no_keys = ctx.array_from(&[] as &[u32]).unwrap();
        let lengths = [
            ctx.inclusive_scan(&empty).unwrap().len(),
            ctx.exclusive_scan(&empty).unwrap().len(),
            ctx.sort_permutation(&empty).unwrap().len(),
            // Zero bins is legal too: an empty output, not an error.
            ctx.histogram(&no_keys, 0).unwrap().len(),
        ];
        let h = ctx.histogram(&no_keys, 6).unwrap();
        // Zero-width 2D/3D axes: reductions return the identity.
        let reductions = [
            ctx.parallel_reduce_2d((0, 17), &KernelProfile::dot(), |_i, _j| 1.0),
            ctx.parallel_reduce_2d_with((9, 0), &KernelProfile::dot(), racc::Max, |_i, _j| 1.0),
            ctx.parallel_reduce_3d((4, 0, 4), &KernelProfile::dot(), |_i, _j, _k| 1.0),
        ];
        (lengths, ctx.to_host(&h).unwrap(), reductions)
    });
    for (key, (lengths, h, reductions)) in edges {
        assert_eq!(lengths, [0; 4], "{key}");
        assert_eq!(h, vec![0u64; 6], "{key}");
        assert_eq!(
            reductions,
            [0.0, f64::NEG_INFINITY, 0.0],
            "{key}: sum over (0, 17), max over (9, 0), sum over (4, 0, 4)"
        );
    }
}

/// Out-of-range histogram keys are a typed error naming the first
/// offending index — deterministically, on every backend.
#[test]
fn histogram_bounds_error_everywhere() {
    let outcomes = across(&matrix(), |ctx| {
        let keys = ctx.array_from(&[0u32, 1, 7, 2, 9, 7]).unwrap();
        let err = match ctx.histogram(&keys, 4) {
            Err(racc::PrimError::BinOutOfRange { index, bin, bins }) => [index, bin, bins],
            other => panic!("{}: expected BinOutOfRange, got {other:?}", ctx.key()),
        };
        // The same keys with enough bins are fine.
        let h = ctx.histogram(&keys, 10).unwrap();
        (err, ctx.to_host(&h).unwrap()[7])
    });
    for (key, (err, sevens)) in outcomes {
        assert_eq!(err, [2, 7, 4], "{key}");
        assert_eq!(sevens, 2, "{key}");
    }
}

/// The negative test ISSUE asks for: the *unchecked* histogram with an
/// out-of-range key dies in the simulator's device bounds checks (what
/// simsan reports), while the guarded wrapper returns the typed error
/// without ever launching.
#[test]
fn simsan_catches_unchecked_out_of_range_histogram() {
    let ctx = racc::builder()
        .backend("cudasim")
        .sanitizer(true)
        .build()
        .unwrap();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Key 40 into 8 bins: straight past the per-block counters.
        ctx.histogram_by_unchecked(3000, 8, |i| if i == 1234 { 40 } else { i % 8 })
    }));
    let msg = match result {
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
        Ok(_) => panic!("unchecked out-of-range key must trip the device bounds checks"),
    };
    assert!(
        msg.contains("out of bounds"),
        "expected a bounds-check panic, got: {msg}"
    );

    // The guarded path on a fresh context: typed error, no panic.
    let ctx = racc::builder()
        .backend("cudasim")
        .sanitizer(true)
        .build()
        .unwrap();
    let err = ctx
        .histogram_by(3000, 8, |i| if i == 1234 { 40 } else { i % 8 })
        .unwrap_err();
    assert!(matches!(
        err,
        racc::PrimError::BinOutOfRange {
            index: 1234,
            bin: 40,
            bins: 8
        }
    ));
    // And with valid keys the sanitizer stays quiet.
    let h = ctx.histogram_by(3000, 8, |i| i % 8).unwrap();
    assert_eq!(ctx.to_host(&h).unwrap(), vec![375u64; 8]);
}

/// Primitives compose with chaos injection: a fixed-seed fault plan makes
/// launches and allocations fail, the retry layer recovers, and the
/// results are still bit-identical to the reference.
#[test]
fn prims_survive_fixed_seed_chaos() {
    let data: Vec<f32> = (0..5000).map(|i| ((i * 37) % 151) as f32 * 0.125).collect();
    let expect = reference_scan_f32(&data);
    for key in ["cudasim", "hipsim", "oneapisim"] {
        let ctx = racc::builder()
            .backend(key)
            .chaos(racc::FaultPlan::parse("launch:every-7;alloc:every-9").unwrap())
            .retry(racc::RetryPolicy::default())
            .build()
            .unwrap();
        let x = ctx.array_from(&data).unwrap();
        for _ in 0..4 {
            let got = ctx.to_host(&ctx.inclusive_scan(&x).unwrap()).unwrap();
            for i in 0..data.len() {
                assert_eq!(got[i].to_bits(), expect[i].to_bits(), "{key} at {i}");
            }
        }
    }
}

/// `ConstructKind::Prim` spans land on the trace, and `ctx.stats()`
/// reports the primitive counters on every backend.
#[test]
fn prim_spans_and_stats_surface_everywhere() {
    use racc::trace::ConstructKind;
    for key in racc::available_backends() {
        let ctx = racc::builder().backend(key).trace(true).build().unwrap();
        let x = ctx.array_from(&[1.0f64, 2.0, 3.0, 4.0]).unwrap();
        let _ = ctx.inclusive_scan(&x).unwrap();
        let keys = ctx.array_from(&[0u32, 1, 1, 0]).unwrap();
        let _ = ctx.histogram(&keys, 2).unwrap();
        let _ = ctx.sort_permutation(&keys).unwrap();
        let spans = ctx.trace_spans();
        let prim_spans = spans
            .iter()
            .filter(|s| s.kind == ConstructKind::Prim)
            .count();
        assert!(prim_spans >= 3, "{key}: {prim_spans} prim spans");
        let stats = ctx.stats();
        let prim = stats.prim.expect("prim counters");
        assert_eq!(
            (prim.scans, prim.histograms, prim.sorts),
            (1, 1, 1),
            "{key}"
        );
    }
}
