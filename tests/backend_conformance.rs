//! The `Backend` contract, checked by one function over every implementor
//! — the three back ends bare, and each again behind its `AnyBackend`
//! variant, where a forwarding slip would otherwise hide — and over a toy
//! that writes the nine required methods and nothing else. The device
//! primitives are a second contract, `PrimBackend`, with its own half.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use racc::prelude::*;
use racc::prim::{reference, PrimBackend};
use racc::{DeviceToken, Extent, Instrument, Timeline};
use racc_threadpool::Schedule;

/// Ranks 1 to 3, with a 0 and a 1 on each axis, sizes on both sides of the
/// simulators' block and tile edges, and enough elements for every worker
/// of a pool to get several tiles. The last three 3D extents cut a row, a
/// band or a tile short on each axis in turn: every back end walks the
/// innermost axis by row ranges, and these are their ragged ends.
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
        (5, 3, 7),
        (17, 1, 1),
        (1, 9, 2),
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

/// All a back end has to write: the nine `Backend` methods, here as serial
/// loops over one `Timeline`. No primitive, no hook overridden.
#[derive(Default)]
struct Toy {
    timeline: Timeline,
}

impl Instrument for Toy {}

impl Backend for Toy {
    fn name(&self) -> String {
        "Toy".into()
    }
    fn key(&self) -> &'static str {
        "toy"
    }
    fn is_accelerator(&self) -> bool {
        false
    }
    fn timeline(&self) -> &Timeline {
        &self.timeline
    }
    fn instrument(&self) -> &dyn Instrument {
        self
    }
    fn on_alloc(&self, _bytes: usize, _upload: bool) -> Result<DeviceToken, RaccError> {
        Ok(None)
    }
    fn on_download(&self, _bytes: usize) {}
    fn parallel_for<F>(&self, extent: Extent, _profile: &KernelProfile, f: F)
    where
        F: Fn(usize, usize, usize) + Sync,
    {
        let [m, n, l] = extent.dims();
        for k in 0..l {
            for j in 0..n {
                for i in 0..m {
                    f(i, j, k);
                }
            }
        }
        self.timeline.charge_launch(extent.len() as f64);
    }
    fn parallel_reduce<T, F, O>(&self, extent: Extent, _profile: &KernelProfile, f: F, op: O) -> T
    where
        T: racc::AccScalar,
        F: Fn(usize, usize, usize) -> T + Sync,
        O: ReduceOp<T>,
    {
        let [m, n, l] = extent.dims();
        let mut acc = op.identity();
        for k in 0..l {
            for j in 0..n {
                for i in 0..m {
                    acc = op.combine(acc, f(i, j, k));
                }
            }
        }
        self.timeline.charge_reduction(extent.len() as f64);
        acc
    }
}

#[test]
fn a_back_end_of_nine_methods_conforms_and_runs_the_front_end() {
    conforms(&Toy::default());
    let ctx = Context::new(Toy::default());
    let x = ctx.array_from(&[1.0f64, 2.0, 3.0]).unwrap();
    let xv = x.view();
    let dot: f64 = ctx.parallel_reduce(3, &KernelProfile::dot(), move |i| xv.get(i) * xv.get(i));
    assert_eq!(dot, 14.0);
}

/// `len` output slots a primitive writes through a `Sync` closure, as bits;
/// a slot nobody wrote reads `u64::MAX`.
fn written(len: usize, run: impl FnOnce(&[AtomicU64])) -> Vec<u64> {
    let slots: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(u64::MAX)).collect();
    run(&slots);
    slots.into_iter().map(AtomicU64::into_inner).collect()
}

/// The `PrimBackend` contract: each entry point equals `racc_prim::reference`
/// bit for bit — `f32` sums, so that an association other than the
/// canonical tiling shows — and is charged as one launch, empty or not.
fn prims_conform<B: PrimBackend>(b: &B) {
    let p = KernelProfile::unknown();
    let put = |slots: &[AtomicU64], i: usize, bits: u64| slots[i].store(bits, Ordering::Relaxed);
    for n in [0usize, 1, 255, 256, 257, 1000, 5000] {
        let who = format!("{} over {n}", b.key());
        let before = b.timeline().snapshot().launches;

        let read = |i: usize| ((i as f32) * 0.37).sin() + 1.0e-3;
        for inclusive in [true, false] {
            let expect = written(n, |out| {
                let write = |i, v: f32| put(out, i, v.to_bits() as u64);
                reference::scan_canonical(n, inclusive, &read, &write, Sum)
            });
            let got = written(n, |out| {
                let write = |i, v: f32| put(out, i, v.to_bits() as u64);
                b.prim_scan(n, inclusive, &p, read, write, Sum)
            });
            assert_eq!(got, expect, "{who}: scan, inclusive = {inclusive}");
        }

        let bins = 37;
        let bin = |i: usize| i.wrapping_mul(2_654_435_761) % bins;
        let expect = written(bins, |out| {
            reference::histogram_canonical(n, bins, &bin, &|b, count| put(out, b, count))
        });
        let got = written(bins, |out| {
            b.prim_histogram(n, bins, &p, bin, |b, count| put(out, b, count))
        });
        assert_eq!(got, expect, "{who}: histogram");

        // Many ties, in several radix digits: only the stable order passes.
        let key = |i: usize| ((i * 48_271) % 97) as u64 * 65_536 + ((i * 16_807) % 13) as u64;
        let expect = written(n, |out| {
            reference::sort_pairs_canonical(n, &key, &|rank, i| put(out, rank, i as u64))
        });
        let got = written(n, |out| {
            b.prim_sort_pairs(n, 32, &p, key, |rank, i| put(out, rank, i as u64))
        });
        assert_eq!(got, expect, "{who}: sort");

        assert_eq!(b.timeline().snapshot().launches, before + 4, "{who}");
    }
}

#[test]
fn prims_conform_on_every_back_end_bare_and_wrapped() {
    prims_conform(&SerialBackend::new());
    prims_conform(&AnyBackend::Serial(SerialBackend::new()));
    prims_conform(&ThreadsBackend::with_threads(4));
    prims_conform(&AnyBackend::Threads(ThreadsBackend::with_threads(4)));
    prims_conform(&racc::cuda_backend());
    prims_conform(&AnyBackend::Sim(racc::cuda_backend()));
    prims_conform(&racc::hip_backend());
    prims_conform(&AnyBackend::Sim(racc::hip_backend()));
    prims_conform(&racc::oneapi_backend());
    prims_conform(&AnyBackend::Sim(racc::oneapi_backend()));
}
