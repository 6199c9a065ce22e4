//! The simulator primitives' device op log, pinned record by record.
//!
//! `histogram` → `exclusive_scan` → `sort_by_key` over seeded clustered
//! keys, the pipeline of the `binning` workload, on each stock vendor device
//! at n = 131 072 into 8 192 bins, and on the 4 KiB test device at a small n
//! whose 1 500 counters do not fit its shared memory (the global-scratch
//! histogram). Every record's `(kind, bytes, threads, modeled_ns)` is a
//! literal: how a primitive's kernels run on the host may change, what the
//! model charges for them may not.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use racc_backend_common::{SimBackend, Vendor, CUDA, HIP, ONEAPI};
use racc_core::{Backend, Sum};
use racc_gpusim::{profiles, Device, OpKind, OpKind::Kernel};
use racc_prim::{PrimBackend, HISTOGRAM_PROFILE, SCAN_PROFILE, SORT_PROFILE};

/// One op-log record as pinned: kind, bytes, threads, modeled ns.
type Op = (OpKind, u64, u64, u64);

/// Half uniform over `bins`, half in a narrow bell a third of the way in
/// (a sum of four uniforms, each over 1/64 of the range).
fn clustered_keys(n: usize, bins: usize) -> Vec<u32> {
    let mut state = 0x5EED_B1A5_u64;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let spread = (bins / 64).max(1) as u64;
    (0..n)
        .map(|i| {
            let bin = if i < n / 2 {
                next() % bins as u64
            } else {
                bins as u64 / 3 + (0..4).map(|_| next() % spread).sum::<u64>()
            };
            bin.min(bins as u64 - 1) as u32
        })
        .collect()
}

fn atomics(len: usize) -> Vec<AtomicU64> {
    (0..len).map(|_| AtomicU64::new(u64::MAX)).collect()
}

fn load(cells: &[AtomicU64]) -> Vec<u64> {
    cells.iter().map(|c| c.load(Relaxed)).collect()
}

/// Run the pipeline on `b`, check its outputs, and return the device's op
/// log and the backend's modeled total.
fn pipeline(b: &SimBackend, n: usize, bins: usize) -> (Vec<Op>, u64) {
    let keys = clustered_keys(n, bins);

    let counts = atomics(bins);
    b.prim_histogram(
        n,
        bins,
        &HISTOGRAM_PROFILE,
        |i| keys[i] as usize,
        |bin, c| counts[bin].store(c, Relaxed),
    );
    let counts = load(&counts);
    let mut want = vec![0u64; bins];
    for k in &keys {
        want[*k as usize] += 1;
    }
    assert_eq!(counts, want, "histogram on {}", b.key());

    let offsets = atomics(bins);
    b.prim_scan(
        bins,
        false,
        &SCAN_PROFILE,
        |i| counts[i],
        |i, v: u64| offsets[i].store(v, Relaxed),
        Sum,
    );
    let offsets = load(&offsets);
    let mut run = 0;
    for (bin, off) in offsets.iter().enumerate() {
        assert_eq!(*off, run, "exclusive scan at {bin} on {}", b.key());
        run += counts[bin];
    }

    let perm = atomics(n);
    b.prim_sort_pairs(
        n,
        u32::BITS,
        &SORT_PROFILE,
        |i| u64::from(keys[i]),
        |rank, original| perm[rank].store(original as u64, Relaxed),
    );
    let perm = load(&perm);
    let mut want: Vec<u64> = (0..n as u64).collect();
    want.sort_by_key(|&i| keys[i as usize]);
    assert_eq!(perm, want, "stable sort on {}", b.key());

    let log = b
        .device()
        .op_log()
        .iter()
        .map(|r| (r.kind, r.bytes, r.threads, r.modeled_ns))
        .collect();
    (log, b.timeline().modeled_ns())
}

/// `None` if the pipeline on `b` logs `want` and charges `want_total`, else
/// what it logged, printed in the form of the literals below.
fn mismatch(b: &SimBackend, n: usize, bins: usize, want: &[Op], want_total: u64) -> Option<String> {
    let (log, total) = pipeline(b, n, bins);
    (log != want || total != want_total).then(|| {
        let rows: Vec<String> = log.iter().map(|r| format!("    {r:?},")).collect();
        format!("{}: total {total}, log\n{}", b.key(), rows.join("\n"))
    })
}

#[test]
fn stock_vendor_op_logs_are_pinned() {
    let pins: [(&Vendor, &[Op], u64); 3] = [
        (&CUDA, CUDASIM, CUDASIM_TOTAL),
        (&HIP, HIPSIM, HIPSIM_TOTAL),
        (&ONEAPI, ONEAPISIM, ONEAPISIM_TOTAL),
    ];
    let moved: Vec<String> = pins
        .iter()
        .filter_map(|(vendor, want, total)| {
            mismatch(&SimBackend::stock(vendor), 131_072, 8_192, want, *total)
        })
        .collect();
    assert!(moved.is_empty(), "op logs moved:\n{}", moved.join("\n"));
}

#[test]
fn test_device_op_log_with_global_histogram_is_pinned() {
    let (n, bins) = (3_000, 1_500);
    let dev = Device::new(profiles::test_device());
    assert!(bins * 8 > dev.spec().shared_mem_per_block);
    let b = SimBackend::new(Arc::new(dev), &Vendor::default());
    if let Some(moved) = mismatch(&b, n, bins, TEST_DEVICE, TEST_DEVICE_TOTAL) {
        panic!("op log moved:\n{moved}");
    }
}

// Each log is histogram (count, combine), scan (tile totals, one-thread
// chain, tile write), then sort (init; count, one-thread digit scan,
// scatter for each of the four 8-bit digits; emit).

const CUDASIM_TOTAL: u64 = 30_427_792;
const CUDASIM: &[Op] = &[
    (Kernel, 2147483648, 131072, 1776536),
    (Kernel, 16777216, 8192, 99368),
    (Kernel, 196608, 32, 14105),
    (Kernel, 512, 1, 6021),
    (Kernel, 393216, 32, 22210),
    (Kernel, 4194304, 131072, 9458),
    (Kernel, 4294967296, 131072, 3547073),
    (Kernel, 524288, 1, 27613),
    (Kernel, 4294967296, 131072, 3547073),
    (Kernel, 4294967296, 131072, 3547073),
    (Kernel, 524288, 1, 27613),
    (Kernel, 4294967296, 131072, 3547073),
    (Kernel, 4294967296, 131072, 3547073),
    (Kernel, 524288, 1, 27613),
    (Kernel, 4294967296, 131072, 3547073),
    (Kernel, 4294967296, 131072, 3547073),
    (Kernel, 524288, 1, 27613),
    (Kernel, 4294967296, 131072, 3547073),
    (Kernel, 4194304, 131072, 9458),
];

const HIPSIM_TOTAL: u64 = 44_404_969;
const HIPSIM: &[Op] = &[
    (Kernel, 2147483648, 131072, 2582714),
    (Kernel, 16777216, 8192, 312373),
    (Kernel, 196608, 32, 22772),
    (Kernel, 512, 1, 11031),
    (Kernel, 393216, 32, 34545),
    (Kernel, 4194304, 131072, 16023),
    (Kernel, 4294967296, 131072, 5154427),
    (Kernel, 524288, 1, 42393),
    (Kernel, 4294967296, 131072, 5154427),
    (Kernel, 4294967296, 131072, 5154427),
    (Kernel, 524288, 1, 42393),
    (Kernel, 4294967296, 131072, 5154427),
    (Kernel, 4294967296, 131072, 5154427),
    (Kernel, 524288, 1, 42393),
    (Kernel, 4294967296, 131072, 5154427),
    (Kernel, 4294967296, 131072, 5154427),
    (Kernel, 524288, 1, 42393),
    (Kernel, 4294967296, 131072, 5154427),
    (Kernel, 4194304, 131072, 16023),
];

const ONEAPISIM_TOTAL: u64 = 410_128_249;
const ONEAPISIM: &[Op] = &[
    (Kernel, 2147483648, 131072, 17733351),
    (Kernel, 16777216, 8192, 1128959),
    (Kernel, 196608, 32, 103076),
    (Kernel, 512, 1, 22211),
    (Kernel, 393216, 32, 184152),
    (Kernel, 4194304, 131072, 56592),
    (Kernel, 4294967296, 131072, 35444703),
    (Kernel, 524288, 1, 238203),
    (Kernel, 4294967296, 131072, 35444703),
    (Kernel, 4294967296, 131072, 35444703),
    (Kernel, 524288, 1, 238203),
    (Kernel, 4294967296, 131072, 35444703),
    (Kernel, 4294967296, 131072, 35444703),
    (Kernel, 524288, 1, 238203),
    (Kernel, 4294967296, 131072, 35444703),
    (Kernel, 4294967296, 131072, 35444703),
    (Kernel, 524288, 1, 238203),
    (Kernel, 4294967296, 131072, 35444703),
    (Kernel, 4194304, 131072, 56592),
];

/// 47 blocks of 64 threads; the histogram's count kernel is the two-sweep
/// global-scratch one.
const TEST_DEVICE_TOTAL: u64 = 1_030_881;
const TEST_DEVICE: &[Op] = &[
    (Kernel, 6160384, 3008, 62604),
    (Kernel, 1155072, 1536, 12551),
    (Kernel, 36864, 6, 19432),
    (Kernel, 96, 1, 1048),
    (Kernel, 73728, 6, 37864),
    (Kernel, 96256, 3008, 1963),
    (Kernel, 6160384, 3008, 62604),
    (Kernel, 192512, 1, 97256),
    (Kernel, 6160384, 3008, 62604),
    (Kernel, 6160384, 3008, 62604),
    (Kernel, 192512, 1, 97256),
    (Kernel, 6160384, 3008, 62604),
    (Kernel, 6160384, 3008, 62604),
    (Kernel, 192512, 1, 97256),
    (Kernel, 6160384, 3008, 62604),
    (Kernel, 6160384, 3008, 62604),
    (Kernel, 192512, 1, 97256),
    (Kernel, 6160384, 3008, 62604),
    (Kernel, 96256, 3008, 1963),
];
