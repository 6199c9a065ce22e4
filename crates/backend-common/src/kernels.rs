//! The kernels the portable constructs launch: the covering kernel of
//! `parallel_for` and the two cooperative reduction kernels (the paper's
//! Fig. 3, generalized over element type and reduction operator).
//!
//! All three override [`PhasedKernel::run_phase`] with counted loops over
//! the block's thread range, and their per-thread `phase()` is that same
//! body on the unit range, so the block form the plain executor runs and
//! the per-thread form racecheck, the sanitizer and the reference executor
//! visit cannot drift apart.

use std::cell::Cell;
use std::ops::Range;

use racc_core::{AccScalar, ReduceOp};
use racc_gpusim::{
    BlockCtx, DeviceSlice, DeviceSliceMut, PhasedKernel, SharedMem, ThreadCtx, TreeShape, TreeStep,
};

/// `phase()` of a kernel whose one body is its `run_phase`: the unit range
/// of the thread behind `ctx`.
fn run_thread<K: PhasedKernel>(
    kernel: &K,
    phase: usize,
    ctx: &ThreadCtx,
    state: &mut K::State,
    shared: &SharedMem,
) {
    let t = ctx.thread_linear();
    kernel.run_phase(
        phase,
        &ctx.block(),
        t..t + 1,
        std::slice::from_mut(state),
        shared,
    );
}

/// The covering kernel of `parallel_for`: one simulated thread per point of
/// a grid of thread tiles laid over the index space, the threads past the
/// extent idle. As a block loop that is the block's rows, each clamped to
/// the extent, and a plain counted loop over the global index along each.
pub(crate) struct Cover<F> {
    /// Extent of the index space, padded with 1s past the rank.
    pub extent: [usize; 3],
    /// The loop body, `f(i, j, k)`, held by value all the way down (the
    /// rank adapters in `racc_core::Context` are `move` closures): behind a
    /// reference, the body's own stores would force a reload of everything
    /// it captures on every iteration.
    pub f: F,
}

impl<F: Fn(usize, usize, usize) + Sync> PhasedKernel for Cover<F> {
    type State = ();

    fn num_phases(&self) -> usize {
        1
    }

    fn phase(&self, phase: usize, ctx: &ThreadCtx, state: &mut (), shared: &SharedMem) {
        run_thread(self, phase, ctx, state, shared);
    }

    fn run_phase(
        &self,
        _phase: usize,
        block: &BlockCtx,
        threads: Range<usize>,
        _states: &mut [()],
        _shared: &SharedMem,
    ) {
        let (i0, j0, k0) = block.origin();
        let [m, n, l] = self.extent;
        block.for_each_row(threads, |xs, ty, tz| {
            let (j, k) = (j0 + ty as usize, k0 + tz as usize);
            if j < n && k < l {
                // The global index itself is the counter, clamped by `min`:
                // `i < m` is then plain to the optimizer, which a local
                // index offset by `i0` inside the body was not.
                for i in i0 + xs.start as usize..(i0 + xs.end as usize).min(m) {
                    (self.f)(i, j, k);
                }
            }
        });
    }
}

/// One halving step of the shared-memory tree over `s`: each of the threads
/// `threads` below `half` folds `s[t + half]` into `s[t]` — per element the
/// association order of the per-thread form.
fn combine_step<T: AccScalar, O: ReduceOp<T>>(
    op: &O,
    s: &[Cell<T>],
    half: usize,
    threads: Range<usize>,
) {
    let (lo, hi) = s[..2 * half].split_at(half);
    let active = threads.start.min(half)..threads.end.min(half);
    for (a, b) in lo[active.clone()].iter().zip(&hi[active]) {
        a.set(op.combine(a.get(), b.get()));
    }
}

/// Kernel 1 of the two-kernel reduction: each thread maps one index, the
/// block tree-reduces in shared memory, thread 0 writes the block partial.
/// Launched over 1D blocks, so thread `t` of a block is its `x`.
pub(crate) struct BlockReduceMap<T: AccScalar, F, O> {
    /// Extent of the index space.
    pub n: usize,
    /// The block's reduction tree (block size, a power of two).
    pub tree: TreeShape,
    /// The map function, by value for the reason [`Cover::f`] is (here the
    /// stores are the ones to shared memory).
    pub f: F,
    /// The reduction operator.
    pub op: O,
    /// One partial per block.
    pub partials: DeviceSliceMut<T>,
}

impl<T, F, O> PhasedKernel for BlockReduceMap<T, F, O>
where
    T: AccScalar,
    F: Fn(usize) -> T + Sync,
    O: ReduceOp<T>,
{
    type State = ();

    fn num_phases(&self) -> usize {
        self.tree.num_phases()
    }

    fn active_threads(&self, phase: usize, _block_threads: usize) -> usize {
        self.tree.active_threads(phase)
    }

    fn phase(&self, phase: usize, ctx: &ThreadCtx, state: &mut (), shared: &SharedMem) {
        run_thread(self, phase, ctx, state, shared);
    }

    fn run_phase(
        &self,
        phase: usize,
        block: &BlockCtx,
        threads: Range<usize>,
        _states: &mut [()],
        shared: &SharedMem,
    ) {
        let s = shared.cells::<T>();
        match self.tree.step(phase) {
            TreeStep::Map => {
                let first = block.origin().0 + threads.start;
                // Threads whose index is inside the extent map it; the rest
                // of the (last) block pads the tree with the identity.
                let inside = self.n.saturating_sub(first).min(threads.len());
                let (mapped, padded) = s[threads].split_at(inside);
                for (k, cell) in mapped.iter().enumerate() {
                    cell.set((self.f)(first + k));
                }
                for cell in padded {
                    cell.set(self.op.identity());
                }
            }
            TreeStep::Combine { half } => combine_step(&self.op, s, half, threads),
            TreeStep::WriteBack => {
                if threads.contains(&0) {
                    self.partials.set(block.block_linear(), s[0].get());
                }
            }
        }
    }
}

/// Kernel 2: a single block strides over the partials (the paper's
/// `reduce_kernel` loop `while ii <= SIZE ... ii += 512`), tree-reduces, and
/// writes the scalar result.
pub(crate) struct FinalReduce<T: AccScalar, O> {
    /// Number of partials.
    pub len: usize,
    /// The (single) block's reduction tree (block size, a power of two).
    pub tree: TreeShape,
    /// The reduction operator.
    pub op: O,
    /// The partials from kernel 1.
    pub partials: DeviceSlice<T>,
    /// One-element output buffer.
    pub out: DeviceSliceMut<T>,
}

impl<T, O> PhasedKernel for FinalReduce<T, O>
where
    T: AccScalar,
    O: ReduceOp<T>,
{
    type State = ();

    fn num_phases(&self) -> usize {
        self.tree.num_phases()
    }

    fn active_threads(&self, phase: usize, _block_threads: usize) -> usize {
        self.tree.active_threads(phase)
    }

    fn phase(&self, phase: usize, ctx: &ThreadCtx, state: &mut (), shared: &SharedMem) {
        run_thread(self, phase, ctx, state, shared);
    }

    fn run_phase(
        &self,
        phase: usize,
        _block: &BlockCtx,
        threads: Range<usize>,
        _states: &mut [()],
        shared: &SharedMem,
    ) {
        let s = shared.cells::<T>();
        match self.tree.step(phase) {
            TreeStep::Map => {
                for (cell, t) in s[threads.clone()].iter().zip(threads) {
                    let mut acc = self.op.identity();
                    let mut ii = t;
                    while ii < self.len {
                        // Checked read: `ii < self.len <= partials.len()` holds by
                        // the loop condition, and the checked accessor is what
                        // feeds the sanitizer's read tracking when it is enabled.
                        acc = self.op.combine(acc, self.partials.get(ii));
                        ii += self.tree.block();
                    }
                    cell.set(acc);
                }
            }
            TreeStep::Combine { half } => combine_step(&self.op, s, half, threads),
            TreeStep::WriteBack => {
                if threads.contains(&0) {
                    self.out.set(0, s[0].get());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The block forms against the per-thread forms. Each overriding kernel
    //! is run three ways — the plain executor (one `run_phase` per phase
    //! over the whole prefix), `Device::execute_grid_reference` on the same
    //! kernel (its `phase()`, i.e. `run_phase` on unit ranges, every thread
    //! of every phase) and the reference executor on the per-thread kernel
    //! this file held before the block forms (kept below, verbatim, as the
    //! oracle) — and all three must agree bit for bit.

    use super::*;
    use racc_core::{Max, Min, Sum};
    use racc_gpusim::{
        profiles, Device, DeviceBuffer, DeviceSpec, Dim3, KernelCost, LaunchConfig, SinglePhase,
    };
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

    /// The per-thread `BlockReduceMap` (Fig. 3 as one thread's script).
    struct RefBlockReduceMap<'a, T: AccScalar, F, O> {
        n: usize,
        tree: TreeShape,
        f: &'a F,
        op: O,
        partials: DeviceSliceMut<T>,
    }

    impl<T, F, O> PhasedKernel for RefBlockReduceMap<'_, T, F, O>
    where
        T: AccScalar,
        F: Fn(usize) -> T + Sync,
        O: ReduceOp<T>,
    {
        type State = ();

        fn num_phases(&self) -> usize {
            self.tree.num_phases()
        }

        fn phase(&self, phase: usize, ctx: &ThreadCtx, _state: &mut (), shared: &SharedMem) {
            let ti = ctx.thread_linear();
            match self.tree.step(phase) {
                TreeStep::Map => {
                    let i = ctx.global_id_x();
                    let v = if i < self.n {
                        (self.f)(i)
                    } else {
                        self.op.identity()
                    };
                    shared.set::<T>(ti, v);
                }
                TreeStep::Combine { half } => {
                    if ti < half {
                        let merged = self
                            .op
                            .combine(shared.get::<T>(ti), shared.get::<T>(ti + half));
                        shared.set::<T>(ti, merged);
                    }
                }
                TreeStep::WriteBack => {
                    if ti == 0 {
                        self.partials.set(ctx.block_linear(), shared.get::<T>(0));
                    }
                }
            }
        }
    }

    /// The per-thread `FinalReduce`.
    struct RefFinalReduce<T: AccScalar, O> {
        len: usize,
        tree: TreeShape,
        op: O,
        partials: DeviceSlice<T>,
        out: DeviceSliceMut<T>,
    }

    impl<T: AccScalar, O: ReduceOp<T>> PhasedKernel for RefFinalReduce<T, O> {
        type State = ();

        fn num_phases(&self) -> usize {
            self.tree.num_phases()
        }

        fn phase(&self, phase: usize, ctx: &ThreadCtx, _state: &mut (), shared: &SharedMem) {
            let ti = ctx.thread_linear();
            match self.tree.step(phase) {
                TreeStep::Map => {
                    let mut acc = self.op.identity();
                    let mut ii = ti;
                    while ii < self.len {
                        acc = self.op.combine(acc, self.partials.get(ii));
                        ii += self.tree.block();
                    }
                    shared.set::<T>(ti, acc);
                }
                TreeStep::Combine { half } => {
                    if ti < half {
                        let merged = self
                            .op
                            .combine(shared.get::<T>(ti), shared.get::<T>(ti + half));
                        shared.set::<T>(ti, merged);
                    }
                }
                TreeStep::WriteBack => {
                    if ti == 0 {
                        self.out.set(0, shared.get::<T>(0));
                    }
                }
            }
        }
    }

    /// The test device plus the three vendor devices, each with the tiles
    /// a `Vendor` over it would launch (the paper's 16 × 16 and 8 × 8 × 4
    /// do not fit the test device's 64 threads).
    fn devices() -> [(DeviceSpec, Tiles); 4] {
        let paper = ((16, 16), (8, 8, 4));
        [
            (profiles::test_device(), ((8, 8), (4, 4, 4))),
            (profiles::nvidia_a100(), paper),
            (profiles::amd_mi100(), paper),
            (profiles::intel_max1550(), paper),
        ]
    }

    /// A 2D and a 3D thread tile.
    type Tiles = ((u32, u32), (u32, u32, u32));

    /// A device with neither checker on, whatever `RACC_SANITIZER` says.
    fn plain(spec: DeviceSpec) -> Device {
        let dev = Device::new(spec);
        dev.set_sanitizer(false);
        dev.set_racecheck(false);
        dev
    }

    /// Bit pattern of a test scalar.
    trait Bits: AccScalar {
        fn bits(self) -> u64;
    }
    impl Bits for f32 {
        fn bits(self) -> u64 {
            u64::from(self.to_bits())
        }
    }
    impl Bits for f64 {
        fn bits(self) -> u64 {
            self.to_bits()
        }
    }
    impl Bits for i64 {
        fn bits(self) -> u64 {
            self as u64
        }
    }

    fn bits_of<T: Bits>(dev: &Device, buf: &DeviceBuffer<T>) -> Vec<u64> {
        dev.read_vec(buf)
            .unwrap()
            .into_iter()
            .map(T::bits)
            .collect()
    }

    /// Mixed sign, magnitudes over twelve decades, no two neighbours alike:
    /// any reassociation of a float sum shows in its bits.
    fn value(i: usize) -> f64 {
        const SCALE: [f64; 13] = [
            1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6,
        ];
        let sign = if i.is_multiple_of(3) { -1.0 } else { 1.0 };
        sign * (1.0 + i as f64) * SCALE[i % 13]
    }

    /// Both reduction kernels over `n` mapped values, three ways each.
    fn check_reduce<T: Bits, O: ReduceOp<T>>(dev: &Device, n: usize, f: fn(usize) -> T, op: O) {
        let block = (dev.spec().max_threads_per_block as usize).min(512);
        let tree = TreeShape::new(block);
        let blocks = n.div_ceil(block);
        let shared = block * std::mem::size_of::<T>();
        let what = format!(
            "{} n={n} {} {}",
            dev.spec().name,
            std::any::type_name::<T>(),
            std::any::type_name::<O>()
        );

        let cfg = LaunchConfig::new(blocks as u32, block as u32).with_shared_mem(shared);
        let partials = [(); 3].map(|()| dev.alloc::<T>(blocks).unwrap());
        let block_form = |buf: &DeviceBuffer<T>| BlockReduceMap {
            n,
            tree,
            f,
            op,
            partials: dev.slice_mut(buf).unwrap(),
        };
        dev.launch_phased(cfg, KernelCost::default(), &block_form(&partials[0]))
            .unwrap();
        dev.execute_grid_reference(cfg, &block_form(&partials[1]));
        dev.execute_grid_reference(
            cfg,
            &RefBlockReduceMap {
                n,
                tree,
                f: &f,
                op,
                partials: dev.slice_mut(&partials[2]).unwrap(),
            },
        );
        let oracle = bits_of(dev, &partials[2]);
        assert_eq!(bits_of(dev, &partials[0]), oracle, "{what}: block form");
        assert_eq!(bits_of(dev, &partials[1]), oracle, "{what}: own phase()");

        let cfg = LaunchConfig::new(1u32, block as u32).with_shared_mem(shared);
        let outs = [(); 3].map(|()| dev.alloc::<T>(1).unwrap());
        let block_form = |buf: &DeviceBuffer<T>| FinalReduce {
            len: blocks,
            tree,
            op,
            partials: dev.slice(&partials[2]).unwrap(),
            out: dev.slice_mut(buf).unwrap(),
        };
        dev.launch_phased(cfg, KernelCost::default(), &block_form(&outs[0]))
            .unwrap();
        dev.execute_grid_reference(cfg, &block_form(&outs[1]));
        dev.execute_grid_reference(
            cfg,
            &RefFinalReduce {
                len: blocks,
                tree,
                op,
                partials: dev.slice(&partials[2]).unwrap(),
                out: dev.slice_mut(&outs[2]).unwrap(),
            },
        );
        let oracle = bits_of(dev, &outs[2]);
        assert_eq!(bits_of(dev, &outs[0]), oracle, "{what}: fold, block form");
        assert_eq!(bits_of(dev, &outs[1]), oracle, "{what}: fold, own phase()");
    }

    #[test]
    fn reduce_kernels_equal_the_per_thread_form() {
        for (spec, _) in devices() {
            let dev = plain(spec);
            let block = (dev.spec().max_threads_per_block as usize).min(512);
            // One element; one short of a block, a block, one over; several
            // blocks and a tail (fewer partials than the fold's block);
            // more partials than the fold's block, so it strides twice.
            let sizes = [
                1,
                block - 1,
                block,
                block + 1,
                5 * block + 17,
                block * (block + 3) + 1,
            ];
            for n in sizes {
                check_reduce::<f64, _>(&dev, n, value, Sum);
                check_reduce::<f64, _>(&dev, n, value, Max);
                check_reduce::<f64, _>(&dev, n, value, Min);
                check_reduce::<f32, _>(&dev, n, |i| value(i) as f32, Sum);
                check_reduce::<f32, _>(&dev, n, |i| value(i) as f32, Max);
                check_reduce::<f32, _>(&dev, n, |i| value(i) as f32, Min);
                check_reduce::<i64, _>(&dev, n, |i| value(i) as i64, Sum);
                check_reduce::<i64, _>(&dev, n, |i| value(i) as i64, Max);
                check_reduce::<i64, _>(&dev, n, |i| value(i) as i64, Min);
            }
        }
    }

    /// How often a body was called, in all and per point of an extent.
    struct Hits {
        extent: [usize; 3],
        per_point: Vec<AtomicU32>,
        calls: AtomicUsize,
    }

    impl Hits {
        fn new(extent: [usize; 3]) -> Self {
            Hits {
                extent,
                per_point: (0..extent.iter().product())
                    .map(|_| AtomicU32::new(0))
                    .collect(),
                calls: AtomicUsize::new(0),
            }
        }

        fn record(&self, i: usize, j: usize, k: usize) {
            let [m, n, l] = self.extent;
            self.calls.fetch_add(1, Ordering::Relaxed);
            assert!(
                i < m && j < n && k < l,
                "({i}, {j}, {k}) outside {m} x {n} x {l}"
            );
            self.per_point[(k * n + j) * m + i].fetch_add(1, Ordering::Relaxed);
        }

        /// Panics unless every point was visited exactly once and nothing
        /// else was.
        fn assert_each_once(self, what: &str) {
            let points = self.per_point.len();
            assert_eq!(self.calls.into_inner(), points, "{what}: calls");
            let hits: Vec<u32> = self
                .per_point
                .into_iter()
                .map(AtomicU32::into_inner)
                .collect();
            assert_eq!(hits, vec![1; points], "{what}: visits per point");
        }
    }

    /// The covering kernel three ways over `extent` with `cfg`.
    fn check_cover(dev: &Device, extent: [usize; 3], cfg: LaunchConfig) {
        let [m, n, l] = extent;
        let what = format!("{} {extent:?}", dev.spec().name);

        let hits = Hits::new(extent);
        let cover = Cover {
            extent,
            f: |i, j, k| hits.record(i, j, k),
        };
        dev.launch_phased(cfg, KernelCost::default(), &cover)
            .unwrap();
        hits.assert_each_once(&format!("{what}: block form"));

        let hits = Hits::new(extent);
        let cover = Cover {
            extent,
            f: |i, j, k| hits.record(i, j, k),
        };
        dev.execute_grid_reference(cfg, &cover);
        hits.assert_each_once(&format!("{what}: own phase()"));

        // The closure `parallel_for_3d` launched before the covering kernel.
        let hits = Hits::new(extent);
        let per_thread = SinglePhase(|t: &ThreadCtx| {
            let (i, j, k) = (t.global_id_x(), t.global_id_y(), t.global_id_z());
            if i < m && j < n && k < l {
                hits.record(i, j, k);
            }
        });
        dev.execute_grid_reference(cfg, &per_thread);
        hits.assert_each_once(&format!("{what}: per-thread closure"));
    }

    #[test]
    fn cover_kernel_equals_the_per_thread_form() {
        for (spec, ((tx, ty), (bx, by, bz))) in devices() {
            let dev = plain(spec);
            let block = dev.spec().max_block_dim_x as usize;
            for n in [1, block - 1, block, block + 1, 3 * block + 17] {
                let cfg = LaunchConfig::linear(n, n.min(block) as u32);
                check_cover(&dev, [n, 1, 1], cfg);
            }
            // Smaller than a tile, a tile, ragged on one axis, on both.
            let (sx, sy) = (tx as usize, ty as usize);
            for (m, n) in [
                (sx - 3, sy - 5),
                (sx, sy),
                (2 * sx + 1, sy),
                (sx, 2 * sy + 3),
                (2 * sx + 5, 2 * sy + 9),
                (1, 3 * sy),
            ] {
                check_cover(&dev, [m, n, 1], LaunchConfig::tiled_2d(m, n, tx, ty));
            }
            let (sx, sy, sz) = (bx as usize, by as usize, bz as usize);
            for (m, n, l) in [
                (sx - 1, sy - 2, 1),
                (sx, sy, sz),
                (2 * sx + 1, sy, sz),
                (sx, sy + 3, sz),
                (sx, sy, 2 * sz + 1),
                (sx + 1, sy + 2, sz + 3),
            ] {
                let cfg = LaunchConfig::tiled_3d(m, n, l, bx, by, bz);
                check_cover(&dev, [m, n, l], cfg);
            }
        }
    }

    #[test]
    fn cover_walks_a_block_in_thread_order() {
        // One participant, so blocks — and the calls inside one — come in
        // order: the block form must call the body in the order the
        // per-thread form visits threads, `x` fastest.
        let extent = [5, 3, 2];
        let cfg = LaunchConfig::new(Dim3::xyz(2, 1, 1), Dim3::xyz(4, 4, 2));
        let order = |per_thread: bool| {
            let seen = std::sync::Mutex::new(Vec::new());
            let record = |i, j, k| seen.lock().unwrap().push((i, j, k));
            let kernel = Cover { extent, f: &record };
            let dev = plain(profiles::test_device());
            if per_thread {
                dev.execute_grid_reference(cfg, &kernel);
            } else {
                dev.launch_phased(cfg, KernelCost::default(), &kernel)
                    .unwrap();
            }
            let mut seen = seen.into_inner().unwrap();
            // Blocks may run on either pool participant: order them, keep
            // the order inside each (block 0 holds i < 4).
            seen.sort_by_key(|&(i, ..)| i >= 4);
            seen
        };
        let block_form = order(false);
        assert_eq!(block_form, order(true));
        assert_eq!(
            block_form[..5],
            [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (0, 1, 0)]
        );
        assert_eq!(block_form.len(), 30);
    }

    /// Counts `phase()` entries; the block form is the wrapped kernel's.
    struct CountThreadVisits<K> {
        kernel: K,
        visits: AtomicUsize,
    }

    impl<K: PhasedKernel> PhasedKernel for CountThreadVisits<K> {
        type State = K::State;
        fn num_phases(&self) -> usize {
            self.kernel.num_phases()
        }
        fn active_threads(&self, phase: usize, block_threads: usize) -> usize {
            self.kernel.active_threads(phase, block_threads)
        }
        fn phase(&self, phase: usize, ctx: &ThreadCtx, state: &mut K::State, shared: &SharedMem) {
            self.visits.fetch_add(1, Ordering::Relaxed);
            self.kernel.phase(phase, ctx, state, shared)
        }
        fn run_phase(
            &self,
            phase: usize,
            block: &BlockCtx,
            threads: Range<usize>,
            states: &mut [K::State],
            shared: &SharedMem,
        ) {
            self.kernel.run_phase(phase, block, threads, states, shared)
        }
    }

    #[test]
    fn plain_launches_visit_no_thread_tracked_ones_every_thread() {
        const BLOCK: usize = 64;
        const N: usize = 3 * BLOCK + 8;
        let blocks = N.div_ceil(BLOCK);
        let tree = TreeShape::new(BLOCK);
        type Track = Option<fn(&Device, bool)>;
        let checkers: [(&str, Track); 3] = [
            ("plain", None),
            ("racecheck", Some(Device::set_racecheck)),
            ("simsan", Some(Device::set_sanitizer)),
        ];
        for (name, track) in checkers {
            let dev = plain(profiles::test_device());
            if let Some(track) = track {
                track(&dev, true);
            }
            let every_thread = |blocks: usize| {
                if track.is_some() {
                    blocks * BLOCK * tree.num_phases()
                } else {
                    0
                }
            };

            let partials = dev.alloc::<f64>(blocks).unwrap();
            let k1 = CountThreadVisits {
                kernel: BlockReduceMap {
                    n: N,
                    tree,
                    f: value,
                    op: Sum,
                    partials: dev.slice_mut(&partials).unwrap(),
                },
                visits: AtomicUsize::new(0),
            };
            let cfg = LaunchConfig::new(blocks as u32, BLOCK as u32).with_shared_mem(BLOCK * 8);
            dev.launch_phased(cfg, KernelCost::default(), &k1).unwrap();
            assert_eq!(k1.visits.into_inner(), every_thread(blocks), "{name}: map");

            let out = dev.alloc::<f64>(1).unwrap();
            let k2 = CountThreadVisits {
                kernel: FinalReduce {
                    len: blocks,
                    tree,
                    op: Sum,
                    partials: dev.slice(&partials).unwrap(),
                    out: dev.slice_mut(&out).unwrap(),
                },
                visits: AtomicUsize::new(0),
            };
            let cfg = LaunchConfig::new(1u32, BLOCK as u32).with_shared_mem(BLOCK * 8);
            dev.launch_phased(cfg, KernelCost::default(), &k2).unwrap();
            assert_eq!(k2.visits.into_inner(), every_thread(1), "{name}: fold");

            let cover = CountThreadVisits {
                kernel: Cover {
                    extent: [N, 1, 1],
                    f: |_, _, _| {},
                },
                visits: AtomicUsize::new(0),
            };
            let cfg = LaunchConfig::linear(N, BLOCK as u32);
            dev.launch_phased(cfg, KernelCost::default(), &cover)
                .unwrap();
            let expect = if track.is_some() { blocks * BLOCK } else { 0 };
            assert_eq!(cover.visits.into_inner(), expect, "{name}: cover");

            // Whatever was visited, the sum is the per-thread sum.
            let want: f64 = {
                let oracle = dev.alloc::<f64>(1).unwrap();
                let host: Vec<f64> = dev.read_vec(&partials).unwrap();
                let staged = dev.alloc_from(&host).unwrap();
                dev.execute_grid_reference(
                    LaunchConfig::new(1u32, BLOCK as u32).with_shared_mem(BLOCK * 8),
                    &RefFinalReduce {
                        len: blocks,
                        tree,
                        op: Sum,
                        partials: dev.slice(&staged).unwrap(),
                        out: dev.slice_mut(&oracle).unwrap(),
                    },
                );
                dev.read_scalar(&oracle, 0).unwrap()
            };
            assert_eq!(
                dev.read_scalar(&out, 0).unwrap().to_bits(),
                want.to_bits(),
                "{name}"
            );
        }
    }
}
