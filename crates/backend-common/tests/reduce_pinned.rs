//! The two-kernel reduction's results, pinned bit for bit.
//!
//! The simulator executor skips the threads a tree phase leaves idle
//! (`PhasedKernel::active_threads`); that must never change a value. The
//! expected bits below were produced by the executor that visited every
//! thread of every phase (the commit before the active-prefix change), on
//! each of the three simulated devices, so any drift in association order,
//! partial-block padding or the final fold shows up here as a changed bit.

use std::sync::Arc;

use racc_backend_common::{SimBackend, Vendor};
use racc_core::{Backend, Extent, KernelProfile, Max, Min, Sum};
use racc_gpusim::{profiles, Device, DeviceSpec};

/// Values of wildly different magnitudes and mixed sign: any reassociation
/// of the sum shows in the bits, and max/min are not at an end of the range.
fn value(i: usize) -> f64 {
    // Literals, not `powi`: every operation here is one correctly rounded
    // IEEE multiply, so the inputs are the same bits on every platform.
    const SCALE: [f64; 13] = [
        1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6,
    ];
    let sign = if i.is_multiple_of(3) { -1.0 } else { 1.0 };
    sign * (1.0 + i as f64) * SCALE[i % 13]
}

const SIZES: [usize; 5] = [1, 255, 256, 257, 65_537];

/// `(sum, max, min)` bits per size — the same on all three devices (each
/// vendor back end reduces with 512-thread blocks).
const EXPECT: [(u64, u64, u64); 5] = [
    (0xbeb0c6f7a0b5ed8d, 0xbeb0c6f7a0b5ed8d, 0xbeb0c6f7a0b5ed8d),
    (0x41c68f9f84e8269a, 0x41abe51d00000000, 0xc1ad71d780000000),
    (0x41c68f6d84e8269a, 0x41abe51d00000000, 0xc1ad71d780000000),
    (0x41c6916378e8269a, 0x41abe51d00000000, 0xc1ad71d780000000),
    (0x42cbcea921b3be3c, 0x422e8297b8000000, 0xc22e842472800000),
];

fn sims() -> [(&'static str, DeviceSpec); 3] {
    [
        ("cudasim", profiles::nvidia_a100()),
        ("hipsim", profiles::amd_mi100()),
        ("oneapisim", profiles::intel_max1550()),
    ]
}

fn reduce_bits(b: &SimBackend, n: usize) -> (u64, u64, u64) {
    let (n, p) = (Extent::d1(n), KernelProfile::dot());
    let value = |i, _, _| value(i);
    let sum: f64 = b.parallel_reduce(n, &p, value, Sum);
    let max: f64 = b.parallel_reduce(n, &p, value, Max);
    let min: f64 = b.parallel_reduce(n, &p, value, Min);
    (sum.to_bits(), max.to_bits(), min.to_bits())
}

#[test]
fn parallel_reduce_bits_match_the_full_visit_executor() {
    for (key, spec) in sims() {
        let dev = Arc::new(Device::new(spec));
        let b = SimBackend::new(
            dev,
            &Vendor {
                key,
                ..Vendor::default()
            },
        );
        for (n, want) in SIZES.iter().zip(EXPECT) {
            assert_eq!(reduce_bits(&b, *n), want, "{key} n={n}");
        }
    }
}

/// `BlockReduceMap` and `FinalReduce` declare the tree prefix; under the
/// sanitizer every thread is visited and a declared-idle thread that touched
/// device memory would panic. Partial last block and multi-block sizes.
#[test]
fn tree_kernels_are_clean_under_the_sanitizer() {
    for (key, spec) in sims() {
        let dev = Arc::new(Device::new(spec));
        dev.set_sanitizer(true);
        let b = SimBackend::new(
            Arc::clone(&dev),
            &Vendor {
                key,
                ..Vendor::default()
            },
        );
        for (n, want) in SIZES.iter().zip(EXPECT).take(4) {
            assert_eq!(reduce_bits(&b, *n), want, "{key} n={n} under simsan");
        }
        let report = dev.sanitizer_report().expect("sanitizer on");
        assert!(report.launches_checked >= 24, "{report}");
        assert!(report.live_allocations.is_empty(), "{report}");
    }
}
