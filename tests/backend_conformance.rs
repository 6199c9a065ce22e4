//! The `Backend` contract, checked by one function over every implementor
//! — the three back ends bare, and each again behind its `AnyBackend`
//! variant, where a forwarding slip would otherwise hide.

use std::sync::atomic::{AtomicU32, Ordering};

use racc::prelude::*;
use racc::Extent;
use racc_threadpool::Schedule;

/// Ranks 1 to 3, with a 0 and a 1 on each axis, sizes on both sides of the
/// simulators' block and tile edges, and enough elements for every worker
/// of a pool to get several tiles.
fn extents() -> Vec<Extent> {
    let d1 = [0, 1, 63, 64, 65, 1000, 2049, 10_000].map(Extent::d1);
    let d2 = [
        (0, 5),
        (5, 0),
        (1, 40),
        (40, 1),
        (3, 5),
        (16, 16),
        (37, 23),
        (63, 41),
    ]
    .map(|(m, n)| Extent::d2(m, n));
    let d3 = [
        (0, 3, 4),
        (3, 0, 4),
        (3, 4, 0),
        (1, 6, 7),
        (5, 1, 7),
        (2, 3, 1),
        (8, 8, 4),
        (9, 10, 11),
        (5, 6, 7),
    ]
    .map(|(m, n, l)| Extent::d3(m, n, l));
    d1.into_iter().chain(d2).chain(d3).collect()
}

/// Integers, so that no association of a reduction can change its value.
fn value(linear: usize) -> i64 {
    (linear.wrapping_mul(2_654_435_761) % 2001) as i64 - 1000
}

/// The column-major fold a reduction must equal; the identity when empty.
fn fold<O: ReduceOp<i64>>(extent: Extent, op: O) -> i64 {
    (0..extent.len()).fold(op.identity(), |acc, linear| op.combine(acc, value(linear)))
}

fn conforms<B: Backend>(b: &B) {
    let p = KernelProfile::unknown();
    for extent in extents() {
        let who = format!("{} over {extent:?}", b.key());
        let [m, n, l] = extent.dims();
        // Counts the visit; panics on an index outside the extent.
        let visit = |hits: &[AtomicU32], i: usize, j: usize, k: usize| -> usize {
            assert!(i < m && j < n && k < l, "{who}: ({i}, {j}, {k}) is outside");
            let linear = extent.linear(i, j, k);
            hits[linear].fetch_add(1, Ordering::Relaxed);
            linear
        };
        let visits = |per_index: u32, hits: Vec<AtomicU32>, what: &str| {
            let hits: Vec<u32> = hits.into_iter().map(AtomicU32::into_inner).collect();
            assert_eq!(hits, vec![per_index; extent.len()], "{who}: {what}");
        };
        let counters =
            || -> Vec<AtomicU32> { (0..extent.len()).map(|_| AtomicU32::new(0)).collect() };
        let before = b.timeline().snapshot();

        let hits = counters();
        b.parallel_for(extent, &p, |i, j, k| {
            visit(&hits, i, j, k);
        });
        visits(1, hits, "parallel_for");

        let hits = counters();
        let map = |i, j, k| value(visit(&hits, i, j, k));
        let sum: i64 = b.parallel_reduce(extent, &p, map, Sum);
        let max: i64 = b.parallel_reduce(extent, &p, map, Max);
        let min: i64 = b.parallel_reduce(extent, &p, map, Min);
        assert_eq!(
            (sum, max, min),
            (fold(extent, Sum), fold(extent, Max), fold(extent, Min)),
            "{who}: parallel_reduce"
        );
        visits(3, hits, "three parallel_reduce");

        // One launch, three reductions, whatever the extent: an empty one
        // ran no body above and is charged all the same.
        let after = b.timeline().snapshot();
        assert_eq!(after.launches, before.launches + 1, "{who}");
        assert_eq!(after.reductions, before.reductions + 3, "{who}");
        assert!(after.modeled_ns >= before.modeled_ns, "{who}");
    }
}

#[test]
fn serial_conforms() {
    conforms(&SerialBackend::new());
    conforms(&AnyBackend::Serial(SerialBackend::new()));
}

#[test]
fn threads_conforms_with_one_and_four_workers_static_and_dynamic() {
    for workers in [1, 4] {
        for schedule in [Schedule::Static, Schedule::Dynamic { chunk: 16 }] {
            let make = || ThreadsBackend::with_threads(workers).with_schedule(schedule);
            conforms(&make());
            conforms(&AnyBackend::Threads(make()));
        }
    }
}

#[cfg(any(
    feature = "backend-cuda",
    feature = "backend-hip",
    feature = "backend-oneapi"
))]
#[test]
fn simulators_conform_on_the_test_device_and_the_a100() {
    use racc::{SimBackend, Vendor};
    use racc_gpusim::{profiles, Device};

    // The 64-thread test device with tiles that fit it...
    let small = || {
        SimBackend::stock(&Vendor {
            key: "testsim",
            tile_2d: (8, 8),
            tile_3d: (4, 4, 4),
            ..Vendor::default()
        })
    };
    // ...and the A100 with the paper's.
    let a100 = || {
        let device = std::sync::Arc::new(Device::new(profiles::nvidia_a100()));
        SimBackend::new(device, &Vendor::default())
    };
    for make in [&small as &dyn Fn() -> SimBackend, &a100] {
        conforms(&make());
        conforms(&AnyBackend::Sim(make()));
    }
}
