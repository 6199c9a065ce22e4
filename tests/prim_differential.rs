//! Differential tests of the device primitives (`racc-prim`): every
//! backend must reproduce the canonical serial reference **bitwise** —
//! for `f64`, `f32`, and `u32` elements, for NaN payloads, for empty
//! extents, and across repeated runs on the stealing threadpool. CI runs
//! this suite again under `--features racecheck` and `RACC_SANITIZER=1`.

use proptest::prelude::*;
use racc::prelude::*;
use racc::prim::reference;
use racc::Ctx;
use std::cell::RefCell;

fn contexts() -> Vec<Ctx> {
    racc::available_backends()
        .into_iter()
        .map(|key| racc::context_for(key).expect("backend compiled in"))
        .collect()
}

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

fn assert_histogram_matches_reference(keys: &[u32], bins: usize) {
    let expect = reference_histogram(keys, bins);
    for ctx in contexts() {
        let k = ctx.array_from(keys).unwrap();
        let h = ctx.histogram(&k, bins).unwrap();
        assert_eq!(
            ctx.to_host(&h).unwrap(),
            expect,
            "{} (n = {}, bins = {bins})",
            ctx.key(),
            keys.len()
        );
    }
}

fn assert_sort_matches_reference(keys: &[u32]) {
    let perm = reference_sort_permutation(keys);
    let values: Vec<f32> = (0..keys.len()).map(|i| i as f32 * 0.5).collect();
    for ctx in contexts() {
        let k = ctx.array_from(keys).unwrap();
        let v = ctx.array_from(&values).unwrap();
        let (sk, sv) = ctx.sort_by_key(&k, &v).unwrap();
        let (hk, hv) = (ctx.to_host(&sk).unwrap(), ctx.to_host(&sv).unwrap());
        let (key, n) = (ctx.key(), keys.len());
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// f64 inclusive & exclusive scans equal the serial reference bitwise
    /// on every backend.
    #[test]
    fn scan_f64_matches_reference_everywhere(
        data in prop::collection::vec(-1e6f64..1e6, 0..1500),
        inclusive in any::<bool>(),
    ) {
        let expect = reference_scan_f(&data, inclusive);
        for ctx in contexts() {
            let x = ctx.array_from(&data).unwrap();
            let s = if inclusive {
                ctx.inclusive_scan(&x).unwrap()
            } else {
                ctx.exclusive_scan(&x).unwrap()
            };
            let got = ctx.to_host(&s).unwrap();
            for i in 0..data.len() {
                prop_assert_eq!(
                    got[i].to_bits(), expect[i].to_bits(),
                    "{} differs at {} ({} vs {})", ctx.key(), i, got[i], expect[i]
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
        let expect = RefCell::new(vec![0.0f32; data.len()]);
        reference::scan_canonical(
            data.len(), true, &|i| data[i],
            &|i, v| expect.borrow_mut()[i] = v, Sum,
        );
        let expect = expect.into_inner();
        for ctx in contexts() {
            let x = ctx.array_from(&data).unwrap();
            let got = ctx.to_host(&ctx.inclusive_scan(&x).unwrap()).unwrap();
            for i in 0..data.len() {
                prop_assert_eq!(
                    got[i].to_bits(), expect[i].to_bits(),
                    "{} differs at {}", ctx.key(), i
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
        assert_histogram_matches_reference(&keys, 64 + extra_bins);
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
        assert_sort_matches_reference(&keys);
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
        assert_sort_matches_reference(&wide);
        let palette: Vec<u32> = (0..n).map(|i| DUPLICATE_PALETTE[(i * 7) % 6]).collect();
        assert_sort_matches_reference(&palette);

        let spread: Vec<u32> = wide.iter().map(|k| k % 97).collect();
        assert_histogram_matches_reference(&spread, 97);
        assert_histogram_matches_reference(&vec![5u32; n], 8);
    }
}

/// The complexity pin: a simulated histogram calls its key closure exactly
/// once per element, however many blocks the elements span (the rescan
/// kernels this replaced called it `n × block` times). A count, not a
/// timing, so it cannot flake.
#[cfg(feature = "backend-cuda")]
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
        for ctx in contexts() {
            let x = ctx.array_from(&data).unwrap();
            let s = match (inclusive, op_is_max) {
                (true, true) => ctx.inclusive_scan_with(&x, Max),
                (true, false) => ctx.inclusive_scan_with(&x, Min),
                (false, true) => ctx.exclusive_scan_with(&x, Max),
                (false, false) => ctx.exclusive_scan_with(&x, Min),
            }
            .unwrap();
            let got = ctx.to_host(&s).unwrap();
            for i in 0..data.len() {
                assert_eq!(
                    got[i].to_bits(),
                    expect[i].to_bits(),
                    "{} inclusive={inclusive} max={op_is_max} at {i}: {} vs {}",
                    ctx.key(),
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
    for ctx in contexts() {
        let x = ctx.array_from(&data).unwrap();
        let got = ctx.to_host(&ctx.inclusive_scan(&x).unwrap()).unwrap();
        assert!(got[349].is_finite() && got[350].is_nan() && got[699].is_nan());
        for i in 0..data.len() {
            assert_eq!(
                got[i].to_bits(),
                expect[i].to_bits(),
                "{} at {i}",
                ctx.key()
            );
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
    for ctx in contexts() {
        let key = ctx.key().to_string();
        let empty = ctx.array_from(&[] as &[f64]).unwrap();
        assert_eq!(ctx.inclusive_scan(&empty).unwrap().len(), 0, "{key}");
        assert_eq!(ctx.exclusive_scan(&empty).unwrap().len(), 0, "{key}");
        assert_eq!(ctx.sort_permutation(&empty).unwrap().len(), 0, "{key}");

        let no_keys = ctx.array_from(&[] as &[u32]).unwrap();
        let h = ctx.histogram(&no_keys, 6).unwrap();
        assert_eq!(ctx.to_host(&h).unwrap(), vec![0u64; 6], "{key}");
        // Zero bins is legal too: an empty output, not an error.
        assert_eq!(ctx.histogram(&no_keys, 0).unwrap().len(), 0, "{key}");

        // Zero-width 2D/3D axes: reductions return the identity.
        let s2: f64 = ctx.parallel_reduce_2d((0, 17), &KernelProfile::dot(), |_i, _j| 1.0);
        assert_eq!(s2, 0.0, "{key} sum over (0, 17)");
        let m2: f64 =
            ctx.parallel_reduce_2d_with((9, 0), &KernelProfile::dot(), racc::Max, |_i, _j| 1.0);
        assert_eq!(m2, f64::NEG_INFINITY, "{key} max over (9, 0)");
        let s3: f64 = ctx.parallel_reduce_3d((4, 0, 4), &KernelProfile::dot(), |_i, _j, _k| 1.0);
        assert_eq!(s3, 0.0, "{key} sum over (4, 0, 4)");
    }
}

/// Out-of-range histogram keys are a typed error naming the first
/// offending index — deterministically, on every backend.
#[test]
fn histogram_bounds_error_everywhere() {
    for ctx in contexts() {
        let keys = ctx.array_from(&[0u32, 1, 7, 2, 9, 7]).unwrap();
        match ctx.histogram(&keys, 4) {
            Err(racc::PrimError::BinOutOfRange { index, bin, bins }) => {
                assert_eq!((index, bin, bins), (2, 7, 4), "{}", ctx.key());
            }
            other => panic!("{}: expected BinOutOfRange, got {other:?}", ctx.key()),
        }
        // The same keys with enough bins are fine.
        let h = ctx.histogram(&keys, 10).unwrap();
        assert_eq!(ctx.to_host(&h).unwrap()[7], 2, "{}", ctx.key());
    }
}

/// The negative test ISSUE asks for: the *unchecked* histogram with an
/// out-of-range key dies in the simulator's device bounds checks (what
/// simsan reports), while the guarded wrapper returns the typed error
/// without ever launching.
#[cfg(feature = "backend-cuda")]
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
    let simulators = ["cudasim", "hipsim", "oneapisim"];
    for key in simulators
        .into_iter()
        .filter(|key| racc::available_backends().contains(key))
    {
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
#[cfg(feature = "trace")]
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
