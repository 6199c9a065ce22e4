//! Property tests of the simulator: launch coverage, memory round-trips,
//! cooperative reductions, and perf-model monotonicity.

use proptest::prelude::*;
use racc_gpusim::{
    perf, profiles, BlockCtx, Device, DeviceSlice, DeviceSliceMut, Dim3, KernelCost, LaunchConfig,
    PhasedKernel, SharedMem, ThreadCtx, TreeShape, TreeStep,
};
use std::sync::atomic::{AtomicUsize, Ordering};

fn test_device() -> Device {
    Device::new(profiles::test_device())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every thread of an arbitrary valid 3D launch runs exactly once.
    #[test]
    fn launches_execute_every_thread_once(
        gx in 1u32..6, gy in 1u32..5, gz in 1u32..4,
        bx in 1u32..8, by in 1u32..4, bz in 1u32..3,
    ) {
        prop_assume!((bx * by * bz) <= 64 && bz <= 8);
        let dev = test_device();
        let cfg = LaunchConfig::new(Dim3::xyz(gx, gy, gz), Dim3::xyz(bx, by, bz));
        let total = cfg.total_threads();
        let hits: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        dev.launch(cfg, KernelCost::default(), |t| {
            hits[t.global_linear()].fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// Upload/download round-trips arbitrary data exactly.
    #[test]
    fn memory_round_trips(data in prop::collection::vec(any::<f64>(), 0..2000)) {
        let dev = test_device();
        let buf = dev.alloc_from(&data).unwrap();
        let back = dev.read_vec(&buf).unwrap();
        // Bitwise equality (NaN-safe).
        prop_assert_eq!(data.len(), back.len());
        for (a, b) in data.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The cooperative block-tree reduction sums arbitrary data correctly
    /// for arbitrary (power-of-two) block sizes.
    #[test]
    fn phased_tree_reduction_is_exactly_a_sum(
        data in prop::collection::vec(-1e3f64..1e3, 1..1500),
        block_pow in 2u32..6,
    ) {
        struct TreeSum {
            n: usize,
            tree: TreeShape,
            x: DeviceSlice<f64>,
            out: DeviceSliceMut<f64>,
        }
        impl PhasedKernel for TreeSum {
            type State = ();
            fn num_phases(&self) -> usize {
                self.tree.num_phases()
            }
            fn active_threads(&self, phase: usize, _block_threads: usize) -> usize {
                self.tree.active_threads(phase)
            }
            fn phase(&self, phase: usize, ctx: &ThreadCtx, _s: &mut (), sh: &SharedMem) {
                let ti = ctx.thread_linear();
                match self.tree.step(phase) {
                    TreeStep::Map => {
                        let i = ctx.global_id_x();
                        sh.set::<f64>(ti, if i < self.n { self.x.get(i) } else { 0.0 });
                    }
                    TreeStep::Combine { half } => {
                        if ti < half {
                            sh.set::<f64>(ti, sh.get::<f64>(ti) + sh.get::<f64>(ti + half));
                        }
                    }
                    TreeStep::WriteBack => {
                        if ti == 0 {
                            self.out.set(ctx.block_linear(), sh.get::<f64>(0));
                        }
                    }
                }
            }
        }
        let dev = test_device();
        let n = data.len();
        let block = 1usize << block_pow; // 4..=32, within the 64 limit
        let blocks = n.div_ceil(block);
        let x = dev.alloc_from(&data).unwrap();
        let out = dev.alloc::<f64>(blocks).unwrap();
        let kernel = TreeSum {
            n,
            tree: TreeShape::new(block),
            x: dev.slice(&x).unwrap(),
            out: dev.slice_mut(&out).unwrap(),
        };
        let cfg = LaunchConfig::new(blocks as u32, block as u32).with_shared_mem(block * 8);
        dev.launch_phased(cfg, KernelCost::default(), &kernel).unwrap();
        let total: f64 = dev.read_vec(&out).unwrap().iter().sum();
        let expect: f64 = data.iter().sum();
        prop_assert!((total - expect).abs() < 1e-9 * expect.abs().max(1.0));
    }

    /// Kernel time is monotone in thread count and never below the launch
    /// overhead, for every shipped profile.
    #[test]
    fn perf_model_is_monotone_and_floored(threads_pow in 4u32..22) {
        for spec in profiles::all() {
            let cost = KernelCost::new(2.0, 16.0, 8.0, 1.0);
            let t_at = |p: u32| {
                let n = 1usize << p;
                let block = spec.max_threads_per_block.min(256);
                perf::kernel_time_ns(&spec, Dim3::x(n.div_ceil(block as usize) as u32),
                    Dim3::x(block), &cost)
            };
            let small = t_at(threads_pow);
            let large = t_at(threads_pow + 2);
            prop_assert!(large >= small, "{}", spec.name);
            prop_assert!(small >= spec.launch_overhead_ns);
        }
    }

    /// Transfer time is additive-ish: t(2b) <= 2 t(b) (latency amortizes),
    /// and monotone.
    #[test]
    fn transfer_model_is_sane(bytes in 1usize..(1 << 26)) {
        for spec in profiles::all() {
            let t1 = perf::transfer_time_ns(&spec, bytes);
            let t2 = perf::transfer_time_ns(&spec, bytes * 2);
            prop_assert!(t2 >= t1);
            prop_assert!(t2 <= 2.0 * t1 + 1.0);
            prop_assert!(t1 >= spec.link_latency_ns);
        }
    }

    /// Device memory accounting is exact under arbitrary alloc/free orders.
    #[test]
    fn heap_accounting_balances(sizes in prop::collection::vec(0usize..4096, 1..24)) {
        let dev = test_device();
        let mut live = Vec::new();
        let mut expected = 0usize;
        for (i, &s) in sizes.iter().enumerate() {
            let buf = dev.alloc::<u8>(s).unwrap();
            expected += s;
            live.push(buf);
            prop_assert_eq!(dev.used_bytes(), expected);
            if i % 3 == 2 {
                let dropped = live.remove(0);
                expected -= dropped.len();
                drop(dropped);
                prop_assert_eq!(dev.used_bytes(), expected);
            }
        }
        drop(live);
        prop_assert_eq!(dev.used_bytes(), 0);
    }
}

/// Differential tests for the executor hot path: the arena/fast-path
/// executor (`Device::launch_phased` → `execute_grid`) must produce
/// **bit-identical** results to the pre-arena reference executor
/// (`Device::execute_grid_reference`, which allocates a fresh `SharedMem`
/// and state `Vec` per block), across grid/block shapes including partial
/// blocks.
mod arena_vs_reference {
    use super::*;

    /// Non-cooperative AXPY-shaped kernel: single phase, zero-sized state,
    /// no shared memory — exactly the fast-path conditions.
    struct NonCoop {
        n: usize,
        x: DeviceSlice<f64>,
        y: DeviceSlice<f64>,
        out: DeviceSliceMut<f64>,
    }
    impl PhasedKernel for NonCoop {
        type State = ();
        fn num_phases(&self) -> usize {
            1
        }
        fn phase(&self, _p: usize, ctx: &ThreadCtx, _s: &mut (), _sh: &SharedMem) {
            let i = ctx.global_linear();
            if i < self.n {
                self.out.set(i, 2.5 * self.x.get(i) + self.y.get(i));
            }
        }
    }

    /// Cooperative shared-memory tree-reduction DOT (the paper's Fig. 3
    /// shape): multi-phase, per-block shared memory — the arena path. It
    /// declares the tree's active prefix, so the arena executor skips the
    /// idle threads of every step while the reference visits them all; the
    /// block may be 1D, 2D or 3D (the tree runs over `thread_linear`).
    struct TreeDot {
        n: usize,
        tree: TreeShape,
        x: DeviceSlice<f64>,
        y: DeviceSlice<f64>,
        partials: DeviceSliceMut<f64>,
    }
    impl PhasedKernel for TreeDot {
        type State = ();
        fn num_phases(&self) -> usize {
            self.tree.num_phases()
        }
        fn active_threads(&self, phase: usize, _block_threads: usize) -> usize {
            self.tree.active_threads(phase)
        }
        fn phase(&self, phase: usize, ctx: &ThreadCtx, _s: &mut (), sh: &SharedMem) {
            let ti = ctx.thread_linear();
            match self.tree.step(phase) {
                TreeStep::Map => {
                    let i = ctx.global_linear();
                    let v = if i < self.n {
                        self.x.get(i) * self.y.get(i)
                    } else {
                        0.0
                    };
                    sh.set::<f64>(ti, v);
                }
                TreeStep::Combine { half } => {
                    if ti < half {
                        sh.set::<f64>(ti, sh.get::<f64>(ti) + sh.get::<f64>(ti + half));
                    }
                }
                TreeStep::WriteBack => {
                    if ti == 0 {
                        self.partials.set(ctx.block_linear(), sh.get::<f64>(0));
                    }
                }
            }
        }
    }

    /// Non-zero-sized `State` carried across a barrier, no shared memory:
    /// exercises the arena's placement-initialized state slots.
    struct StatefulSquare {
        n: usize,
        x: DeviceSlice<f64>,
        out: DeviceSliceMut<f64>,
    }
    impl PhasedKernel for StatefulSquare {
        type State = f64;
        fn num_phases(&self) -> usize {
            2
        }
        fn phase(&self, phase: usize, ctx: &ThreadCtx, state: &mut f64, _sh: &SharedMem) {
            let i = ctx.global_linear();
            if phase == 0 {
                *state = if i < self.n { self.x.get(i) } else { 0.0 };
            } else if i < self.n {
                self.out.set(i, *state * *state);
            }
        }
    }

    fn bits(dev: &Device, buf: &racc_gpusim::DeviceBuffer<f64>) -> Vec<u64> {
        dev.read_vec(buf)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Fast path vs reference, arbitrary 2D grids and (possibly
        /// non-power-of-two) block shapes, with a partial last block.
        #[test]
        fn non_cooperative_bit_identical(
            data in prop::collection::vec(-1e6f64..1e6, 1..800),
            bx in 1u32..33, by in 1u32..3, gy in 1u32..4,
        ) {
            let dev = test_device();
            let n = data.len();
            let block = Dim3::xy(bx, by);
            prop_assume!(block.count() <= 64);
            let gx = n.div_ceil(block.count() * gy as usize).max(1) as u32;
            let cfg = LaunchConfig::new(Dim3::xy(gx, gy), block);
            let x = dev.alloc_from(&data).unwrap();
            let y = dev.alloc_from(&data).unwrap();
            let out_fast = dev.alloc::<f64>(n).unwrap();
            let out_ref = dev.alloc::<f64>(n).unwrap();
            let mk = |out: &racc_gpusim::DeviceBuffer<f64>| NonCoop {
                n,
                x: dev.slice(&x).unwrap(),
                y: dev.slice(&y).unwrap(),
                out: dev.slice_mut(out).unwrap(),
            };
            dev.launch_phased(cfg, KernelCost::default(), &mk(&out_fast)).unwrap();
            dev.execute_grid_reference(cfg, &mk(&out_ref));
            prop_assert_eq!(bits(&dev, &out_fast), bits(&dev, &out_ref));
        }

        /// Cooperative DOT vs reference: same block partials, bit for bit,
        /// over random power-of-two block sizes laid out as 1D, 2D or 3D
        /// blocks (the declared prefix is in `x`-fastest linear order, so it
        /// ends mid-row and mid-plane) with a partial last block.
        #[test]
        fn cooperative_dot_bit_identical(
            data in prop::collection::vec(-1e3f64..1e3, 1..1200),
            x_pow in 0u32..7, y_pow in 0u32..4, z_pow in 0u32..3,
        ) {
            prop_assume!(x_pow + y_pow + z_pow <= 6); // test device: 64 threads
            let dev = test_device();
            let n = data.len();
            let shape = Dim3::xyz(1 << x_pow, 1 << y_pow, 1 << z_pow);
            let block = shape.count(); // 1..=64, includes partial blocks
            let blocks = n.div_ceil(block);
            let x = dev.alloc_from(&data).unwrap();
            let y = dev.alloc_from(&data).unwrap();
            let out_fast = dev.alloc::<f64>(blocks).unwrap();
            let out_ref = dev.alloc::<f64>(blocks).unwrap();
            let cfg = LaunchConfig::new(Dim3::x(blocks as u32), shape)
                .with_shared_mem(block * 8);
            let mk = |out: &racc_gpusim::DeviceBuffer<f64>| TreeDot {
                n,
                tree: TreeShape::new(block),
                x: dev.slice(&x).unwrap(),
                y: dev.slice(&y).unwrap(),
                partials: dev.slice_mut(out).unwrap(),
            };
            dev.launch_phased(cfg, KernelCost::default(), &mk(&out_fast)).unwrap();
            dev.execute_grid_reference(cfg, &mk(&out_ref));
            prop_assert_eq!(bits(&dev, &out_fast), bits(&dev, &out_ref));
        }

        /// Non-ZST state across a barrier: arena state slots vs per-block Vec.
        #[test]
        fn stateful_kernel_bit_identical(
            data in prop::collection::vec(-1e3f64..1e3, 1..700),
            bx in 1u32..65,
        ) {
            let dev = test_device();
            let n = data.len();
            let gx = n.div_ceil(bx as usize) as u32;
            let cfg = LaunchConfig::new(gx, bx);
            let x = dev.alloc_from(&data).unwrap();
            let out_fast = dev.alloc::<f64>(n).unwrap();
            let out_ref = dev.alloc::<f64>(n).unwrap();
            let mk = |out: &racc_gpusim::DeviceBuffer<f64>| StatefulSquare {
                n,
                x: dev.slice(&x).unwrap(),
                out: dev.slice_mut(out).unwrap(),
            };
            dev.launch_phased(cfg, KernelCost::default(), &mk(&out_fast)).unwrap();
            dev.execute_grid_reference(cfg, &mk(&out_ref));
            prop_assert_eq!(bits(&dev, &out_fast), bits(&dev, &out_ref));
        }
    }
}

/// Differential tests for [`PhasedKernel::run_phase`]: a kernel whose block
/// form is written by hand — counted loops over the thread range, shared
/// memory through [`SharedMem::cells`], no `ThreadCtx` — must leave exactly
/// what its per-thread `phase()` leaves. The plain executor runs the block
/// form; `Device::execute_grid_reference` ignores it and visits every thread
/// through `phase()`, so it is the oracle, and a wrong override shows up as
/// a difference.
mod block_granular {
    use super::*;
    use std::ops::Range;

    /// Phase 0 (whole block): thread `t` keeps its input in its `State` and
    /// stores it, scaled by `t + 1`, in shared memory. Phase 1 (the first
    /// `prefix` threads only): thread `t` writes `shared[t] + shared[next] +
    /// state`, `next` being the thread after it, cyclically. The two forms
    /// are written independently of each other.
    struct Neighbours {
        n: usize,
        prefix: usize,
        /// The deliberately wrong override: phase 1 of the block form skips
        /// the last thread of its range.
        drop_last: bool,
        x: DeviceSlice<f64>,
        out: DeviceSliceMut<f64>,
    }

    impl PhasedKernel for Neighbours {
        type State = f64;

        fn num_phases(&self) -> usize {
            2
        }

        fn active_threads(&self, phase: usize, block_threads: usize) -> usize {
            if phase == 0 {
                block_threads
            } else {
                self.prefix
            }
        }

        fn phase(&self, phase: usize, ctx: &ThreadCtx, state: &mut f64, shared: &SharedMem) {
            let t = ctx.thread_linear();
            let g = ctx.global_linear();
            if phase == 0 {
                *state = if g < self.n { self.x.get(g) } else { 0.0 };
                shared.set::<f64>(t, *state * (t + 1) as f64);
            } else if t < self.prefix && g < self.n {
                let next = (t + 1) % ctx.block_dim.count();
                self.out
                    .set(g, shared.get::<f64>(t) + shared.get::<f64>(next) + *state);
            }
        }

        fn run_phase(
            &self,
            phase: usize,
            block: &BlockCtx,
            threads: Range<usize>,
            states: &mut [f64],
            shared: &SharedMem,
        ) {
            let s = shared.cells::<f64>();
            let block_threads = block.block_dim.count();
            let base = block.block_linear() * block_threads;
            if phase == 0 {
                for (state, t) in states.iter_mut().zip(threads) {
                    let g = base + t;
                    *state = if g < self.n { self.x.get(g) } else { 0.0 };
                    s[t].set(*state * (t + 1) as f64);
                }
            } else {
                let end = threads.end.min(self.prefix) - usize::from(self.drop_last);
                for (state, t) in states.iter().zip(threads.start..end) {
                    let g = base + t;
                    if g < self.n {
                        let next = (t + 1) % block_threads;
                        self.out.set(g, s[t].get() + s[next].get() + *state);
                    }
                }
            }
        }
    }

    /// `(plain launch, reference)` output bits of one `Neighbours` launch.
    fn both_ways(
        data: &[f64],
        grid: Dim3,
        block: Dim3,
        prefix: usize,
        drop_last: bool,
    ) -> (Vec<u64>, Vec<u64>) {
        // A plain device whatever `RACC_SANITIZER` says: a tracked launch
        // never enters the block form this is about.
        let dev = test_device();
        dev.set_sanitizer(false);
        dev.set_racecheck(false);
        let n = data.len();
        let cfg = LaunchConfig::new(grid, block).with_shared_mem(block.count() * 8);
        let x = dev.alloc_from(data).unwrap();
        let (fast, oracle) = (dev.alloc::<f64>(n).unwrap(), dev.alloc::<f64>(n).unwrap());
        let mk = |out: &racc_gpusim::DeviceBuffer<f64>| Neighbours {
            n,
            prefix,
            drop_last,
            x: dev.slice(&x).unwrap(),
            out: dev.slice_mut(out).unwrap(),
        };
        dev.launch_phased(cfg, KernelCost::default(), &mk(&fast))
            .unwrap();
        dev.execute_grid_reference(cfg, &mk(&oracle));
        let bits = |buf| {
            dev.read_vec(buf)
                .unwrap()
                .iter()
                .map(|v: &f64| v.to_bits())
                .collect()
        };
        (bits(&fast), bits(&oracle))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random 1/2/3-D grids and blocks (the launch may cover more or
        /// fewer threads than there are elements), every prefix from one
        /// thread to the whole block — so it ends mid-row and mid-plane.
        #[test]
        fn hand_written_run_phase_is_bit_identical_to_the_reference(
            data in prop::collection::vec(-1e3f64..1e3, 1..600),
            gx in 1u32..5, gy in 1u32..4, gz in 1u32..3,
            bx in 1u32..17, by in 1u32..5, bz in 1u32..4,
            cut in 0usize..64,
        ) {
            let block = Dim3::xyz(bx, by, bz);
            prop_assume!(block.count() <= 64);
            let prefix = 1 + cut % block.count();
            let (fast, oracle) = both_ways(&data, Dim3::xyz(gx, gy, gz), block, prefix, false);
            prop_assert_eq!(fast, oracle);
        }
    }

    #[test]
    fn a_wrong_run_phase_differs_from_the_reference() {
        let data: Vec<f64> = (1..=200).map(f64::from).collect();
        let (grid, block) = (Dim3::xy(2, 2), Dim3::xyz(4, 4, 2));
        let (fast, oracle) = both_ways(&data, grid, block, 19, false);
        assert_eq!(fast, oracle, "the right override first");
        let (fast, oracle) = both_ways(&data, grid, block, 19, true);
        assert_ne!(fast, oracle, "the reference must catch the dropped thread");
        // Exactly thread 18 of each block is missing, nothing else moved.
        let differing: Vec<usize> = (0..data.len()).filter(|&g| fast[g] != oracle[g]).collect();
        assert_eq!(differing, [18, 50, 82, 114]);
    }
}

/// A Hillis–Steele inclusive block scan: each doubling step is split into a
/// read phase and a write phase, with the per-thread value carried across
/// the barrier in the kernel `State` — exercising the simulated register
/// file that survives `__syncthreads`.
mod block_scan {
    use super::*;

    struct InclusiveScan {
        n: usize,
        block: usize,
        x: DeviceSlice<f64>,
        out: DeviceSliceMut<f64>,
    }

    impl PhasedKernel for InclusiveScan {
        /// The value this thread will write in the next write phase.
        type State = f64;

        fn num_phases(&self) -> usize {
            // load + (read, write) per doubling step + store
            2 + 2 * self.block.trailing_zeros() as usize
        }

        fn phase(&self, phase: usize, ctx: &ThreadCtx, carry: &mut f64, sh: &SharedMem) {
            let ti = ctx.thread_linear();
            let steps = self.block.trailing_zeros() as usize;
            if phase == 0 {
                let i = ctx.global_id_x();
                sh.set::<f64>(ti, if i < self.n { self.x.get(i) } else { 0.0 });
            } else if phase <= 2 * steps {
                let step = (phase - 1) / 2;
                let offset = 1usize << step;
                if phase % 2 == 1 {
                    // Read phase: compute into the register, no writes.
                    *carry = if ti >= offset {
                        sh.get::<f64>(ti) + sh.get::<f64>(ti - offset)
                    } else {
                        sh.get::<f64>(ti)
                    };
                } else {
                    // Write phase: publish the carried value.
                    sh.set::<f64>(ti, *carry);
                }
            } else {
                let i = ctx.global_id_x();
                if i < self.n {
                    self.out.set(i, sh.get::<f64>(ti));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn block_scan_matches_prefix_sums(data in prop::collection::vec(-100.0f64..100.0, 1..64)) {
            // One block covering the data (test device limit: 64 threads).
            let dev = test_device();
            let n = data.len();
            let block = n.next_power_of_two().max(2);
            prop_assume!(block <= 64);
            let x = dev.alloc_from(&data).unwrap();
            let out = dev.alloc::<f64>(n).unwrap();
            let kernel = InclusiveScan {
                n,
                block,
                x: dev.slice(&x).unwrap(),
                out: dev.slice_mut(&out).unwrap(),
            };
            let cfg = LaunchConfig::new(1u32, block as u32).with_shared_mem(block * 8);
            dev.launch_phased(cfg, KernelCost::default(), &kernel).unwrap();
            let got = dev.read_vec(&out).unwrap();
            let mut acc = 0.0;
            for (i, v) in data.iter().enumerate() {
                acc += v;
                prop_assert!((got[i] - acc).abs() < 1e-9, "at {i}: {} vs {acc}", got[i]);
            }
        }
    }
}
