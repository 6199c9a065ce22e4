//! The kernels the portable constructs launch: the covering kernel of
//! `parallel_for` and the two cooperative reduction kernels (the paper's
//! Fig. 3, generalized over element type and reduction operator).
//!
//! All three override [`PhasedKernel::run_phase`] with counted loops over
//! the block's thread range, and their per-thread `phase()` is that same
//! body on the unit range, so the block form the plain executor runs and
//! the per-thread form the sanitizer and the reference executor visit
//! cannot drift apart. The covering kernel also overrides
//! [`PhasedKernel::run_band`] — with that same body again, its rows
//! continued through a band of x-adjacent blocks — and the first reduction
//! kernel maps a block's run of linear indices row by row for ranks 2 and 3
//! ([`RowWise`]): both walk memory in rows, not in tiles or by division.

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
/// extent idle. As a loop that is the rows of a tile, each clamped to the
/// extent, and a plain counted loop over the global index along each — and
/// the plain executor hands it a whole *band* of x-adjacent tiles at a time
/// ([`PhasedKernel::run_band`]), so each of those rows runs across all the
/// band's tiles before the next one starts: a 512² plane under 16 × 16
/// tiles is walked as 16 rows of 512 contiguous points per band, not as
/// 32 × 16 fragments of 16.
pub(crate) struct Cover<F> {
    /// Extent of the index space, padded with 1s past the rank.
    pub extent: [usize; 3],
    /// The loop body, `f(i, j, k)`, held by value all the way down (the
    /// rank adapters in `racc_core::Context` are `move` closures): behind a
    /// reference, the body's own stores would force a reload of everything
    /// it captures on every iteration.
    pub f: F,
}

impl<F: Fn(usize, usize, usize) + Sync> Cover<F> {
    /// The one body: the threads `threads` of the block `first`, row by
    /// row, each row's run of `x` continued through the `blocks - 1` blocks
    /// to the right of `first` (`blocks >= 1`, and whole blocks only:
    /// `threads` covers the block whenever `blocks > 1`).
    #[inline]
    fn rows(&self, first: &BlockCtx, blocks: usize, threads: Range<usize>) {
        let (i0, j0, k0) = first.origin();
        let [m, n, l] = self.extent;
        let further = (blocks - 1) * first.block_dim.x as usize;
        first.for_each_row(threads, |xs, ty, tz| {
            let (j, k) = (j0 + ty as usize, k0 + tz as usize);
            if j < n && k < l {
                // The global index itself is the counter, clamped by `min`:
                // `i < m` is then plain to the optimizer, which a local
                // index offset by `i0` inside the body was not.
                for i in i0 + xs.start as usize..(i0 + xs.end as usize + further).min(m) {
                    (self.f)(i, j, k);
                }
            }
        });
    }
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
        self.rows(block, 1, threads);
    }

    fn run_band(&self, first: &BlockCtx, blocks: usize) {
        self.rows(first, blocks, 0..first.block_dim.count());
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

/// How kernel 1's map phase turns a run of linear indices into the values
/// its threads store: thread `t` of the run holds linear index `first + t`.
pub(crate) trait MapRun<T>: Sync {
    /// `cells[t] = value at linear index first + t`, in order.
    fn map_run(&self, first: usize, cells: &[Cell<T>]);
}

/// Rank 1: the linear index is the index, and no arithmetic is done on it.
pub(crate) struct Linear<F>(pub F);

impl<T: AccScalar, F: Fn(usize) -> T + Sync> MapRun<T> for Linear<F> {
    #[inline]
    fn map_run(&self, first: usize, cells: &[Cell<T>]) {
        for (t, cell) in cells.iter().enumerate() {
            cell.set((self.0)(first + t));
        }
    }
}

/// Ranks 2 and 3: the linear index is the column-major position in an
/// `m × n × l` extent, `(k * n + j) * m + i`. One division finds `(i, j, k)`
/// of `first`; from there the run is walked row by row with counters, each
/// row a plain counted loop over `i` at a fixed `(j, k)` — what
/// `idx % m, idx / m` per element kept the optimizer from seeing.
pub(crate) struct RowWise<F> {
    m: usize,
    n: usize,
    f: F,
}

impl<F> RowWise<F> {
    /// The row-wise map of `f(i, j, k)` over `extent` (1s past the rank).
    pub fn new(extent: [usize; 3], f: F) -> Self {
        // At least 1, so the divisions below are total; an empty extent
        // maps nothing anyway.
        RowWise {
            m: extent[0].max(1),
            n: extent[1].max(1),
            f,
        }
    }
}

impl<T: AccScalar, F: Fn(usize, usize, usize) -> T + Sync> MapRun<T> for RowWise<F> {
    #[inline]
    fn map_run(&self, first: usize, mut cells: &[Cell<T>]) {
        let (m, n) = (self.m, self.n);
        let (mut i, row) = (first % m, first / m);
        let (mut j, mut k) = (row % n, row / n);
        while !cells.is_empty() {
            let (run, rest) = cells.split_at((m - i).min(cells.len()));
            for (cell, i) in run.iter().zip(i..) {
                cell.set((self.f)(i, j, k));
            }
            cells = rest;
            i = 0;
            j += 1;
            if j == n {
                (j, k) = (0, k + 1);
            }
        }
    }
}

/// Kernel 1 of the two-kernel reduction: each thread maps one index, the
/// block tree-reduces in shared memory, thread 0 writes the block partial.
/// Launched over 1D blocks, so thread `t` of a block is its `x`.
pub(crate) struct BlockReduceMap<T: AccScalar, M, O> {
    /// Extent of the (linearised) index space.
    pub n: usize,
    /// The block's reduction tree (block size, a power of two).
    pub tree: TreeShape,
    /// The map, by value for the reason [`Cover::f`] is (here the stores
    /// are the ones to shared memory).
    pub map: M,
    /// The reduction operator.
    pub op: O,
    /// One partial per block.
    pub partials: DeviceSliceMut<T>,
}

impl<T, M, O> PhasedKernel for BlockReduceMap<T, M, O>
where
    T: AccScalar,
    M: MapRun<T>,
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
                self.map.map_run(first, mapped);
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
    //! over the whole prefix; for the covering kernel one `run_band` per
    //! band of blocks), `Device::execute_grid_reference` on the same
    //! kernel (its `phase()`, i.e. `run_phase` on unit ranges, every thread
    //! of every phase) and the reference executor on the per-thread kernel
    //! this file held before the block forms (kept below, verbatim, as the
    //! oracle) — and all three must agree bit for bit.

    use super::*;
    use crate::{SimBackend, Vendor};
    use racc_core::{Backend, Extent, KernelProfile, Max, Min, Sum};
    use racc_gpusim::{
        profiles, Device, DeviceBuffer, DeviceSpec, Dim3, KernelCost, LaunchConfig, SinglePhase,
    };
    use racc_threadpool::ThreadPool;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
    use std::sync::Arc;

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

    /// A device over a pool of `threads` participants: how many there are
    /// decides how the executor cuts a row of blocks into bands.
    fn plain_on(spec: DeviceSpec, threads: usize) -> Device {
        Device::with_pool(spec, Arc::new(ThreadPool::new(threads)))
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
            map: Linear(f),
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
            let dev = Device::new(spec);
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

    /// `parallel_reduce` over a rank-2 or rank-3 `extent` — the row-wise map
    /// on the plain executor — against the map it replaced: a division and
    /// a remainder per element, thread by thread through the reference
    /// executor. Partials and result must agree bit for bit.
    fn check_row_wise<T: Bits, O: ReduceOp<T>>(
        backend: &SimBackend,
        extent: Extent,
        f: fn(usize, usize, usize) -> T,
        op: O,
    ) {
        let dev = backend.device();
        let what = format!(
            "{} {:?} {} {}",
            dev.spec().name,
            extent.dims(),
            std::any::type_name::<T>(),
            std::any::type_name::<O>()
        );
        let got: T = backend.parallel_reduce(extent, &KernelProfile::dot(), f, op);
        let total = extent.len();
        if total == 0 {
            assert_eq!(got.bits(), op.identity().bits(), "{what}");
            return;
        }

        let [m, n, _] = extent.dims();
        let mn = m * n;
        let old: Box<dyn Fn(usize) -> T + Sync> = match extent.rank() {
            2 => Box::new(move |idx| f(idx % m, idx / m, 0)),
            _ => Box::new(move |idx| {
                let (k, r) = (idx / mn, idx % mn);
                f(r % m, r / m, k)
            }),
        };
        let block = backend.reduce_block();
        let tree = TreeShape::new(block);
        let blocks = total.div_ceil(block);
        let shared = block * std::mem::size_of::<T>();
        let cfg = LaunchConfig::linear(total, block as u32).with_shared_mem(shared);
        let partials = [(); 2].map(|()| dev.alloc::<T>(blocks).unwrap());
        dev.launch_phased(
            cfg,
            KernelCost::default(),
            &BlockReduceMap {
                n: total,
                tree,
                map: RowWise::new(extent.dims(), f),
                op,
                partials: dev.slice_mut(&partials[0]).unwrap(),
            },
        )
        .unwrap();
        dev.execute_grid_reference(
            cfg,
            &BlockReduceMap {
                n: total,
                tree,
                map: Linear(old),
                op,
                partials: dev.slice_mut(&partials[1]).unwrap(),
            },
        );
        assert_eq!(
            bits_of(dev, &partials[0]),
            bits_of(dev, &partials[1]),
            "{what}: partials"
        );
        let out = dev.alloc::<T>(1).unwrap();
        dev.execute_grid_reference(
            LaunchConfig::new(1u32, block as u32).with_shared_mem(shared),
            &FinalReduce {
                len: blocks,
                tree,
                op,
                partials: dev.slice(&partials[1]).unwrap(),
                out: dev.slice_mut(&out).unwrap(),
            },
        );
        assert_eq!(got.bits(), bits_of(dev, &out)[0], "{what}: result");
    }

    #[test]
    fn row_wise_map_equals_the_division_per_element_it_replaced() {
        // Depends on each of `i`, `j`, `k` by itself, not on their linear
        // combination alone: a row-wise walk that lost its place differs.
        fn at(i: usize, j: usize, k: usize) -> f64 {
            value(i) + 0.5 * value(7 * j + 1) - 0.25 * value(13 * k + 2)
        }
        // Reduce blocks of 64 and of 512.
        for spec in [profiles::test_device(), profiles::nvidia_a100()] {
            let backend = SimBackend::new(Arc::new(Device::new(spec)), &Vendor::default());
            let extents = [
                // Rows of one element, a few, one short of the larger
                // block, the block, one over, four blocks.
                Extent::d2(1, 1300),
                Extent::d2(3, 700),
                Extent::d2(511, 3),
                Extent::d2(512, 3),
                Extent::d2(513, 3),
                Extent::d2(2048, 2),
                // Planes of 35 and of 900 elements: a block's run crosses
                // many `k` boundaries, or one in mid-row.
                Extent::d3(5, 7, 40),
                Extent::d3(300, 3, 3),
                Extent::d3(1, 1, 70),
                Extent::d2(0, 5),
                Extent::d3(4, 0, 3),
            ];
            for extent in extents {
                check_row_wise::<f64, _>(&backend, extent, at, Sum);
                check_row_wise::<f64, _>(&backend, extent, at, Min);
                check_row_wise::<f64, _>(&backend, extent, at, Max);
                check_row_wise::<i64, _>(&backend, extent, |i, j, k| at(i, j, k) as i64, Sum);
                check_row_wise::<i64, _>(&backend, extent, |i, j, k| at(i, j, k) as i64, Min);
                check_row_wise::<i64, _>(&backend, extent, |i, j, k| at(i, j, k) as i64, Max);
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

        /// The per-thread covering closure: records the thread's global
        /// index if it is inside the extent.
        fn per_thread(&self) -> SinglePhase<impl Fn(&ThreadCtx) + Sync + '_> {
            let [m, n, l] = self.extent;
            SinglePhase(move |t: &ThreadCtx| {
                let (i, j, k) = (t.global_id_x(), t.global_id_y(), t.global_id_z());
                if i < m && j < n && k < l {
                    self.record(i, j, k);
                }
            })
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

    /// The covering kernel three ways over `extent` with `cfg` — the plain
    /// executor's is the band walk — and the per-thread closure a fourth
    /// way, banded through the provided `run_band`.
    fn check_cover(dev: &Device, extent: [usize; 3], cfg: LaunchConfig) {
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
        dev.execute_grid_reference(cfg, &hits.per_thread());
        hits.assert_each_once(&format!("{what}: per-thread closure"));

        // And as a native kernel on the plain executor: banded through the
        // provided `run_band`.
        let hits = Hits::new(extent);
        dev.launch_phased(cfg, KernelCost::default(), &hits.per_thread())
            .unwrap();
        hits.assert_each_once(&format!("{what}: per-thread closure, banded"));
    }

    #[test]
    fn cover_kernel_equals_the_per_thread_form() {
        // One participant runs a row of blocks as one band; two and four cut
        // it into segments of `block_chunk`'s blocks per grab.
        for threads in [1, 2, 4] {
            for (spec, ((tx, ty), (bx, by, bz))) in devices() {
                let dev = plain_on(spec, threads);
                let block = dev.spec().max_block_dim_x as usize;
                // The last: eleven blocks, so segments of 4, 4, 3 (or 5, 5,
                // 1; or 2 five times and 1) — a short last one.
                for n in [
                    1,
                    block - 1,
                    block,
                    block + 1,
                    3 * block + 17,
                    11 * block - 17,
                ] {
                    let cfg = LaunchConfig::linear(n, n.min(block) as u32);
                    check_cover(&dev, [n, 1, 1], cfg);
                }
                // Smaller than a tile, a tile, ragged on one axis, on both,
                // one point wide; one row of three tiles (one band on one
                // participant); seventy tiles wide less three points, which
                // every pool but the first cuts into several segments and a
                // short last one.
                let (sx, sy) = (tx as usize, ty as usize);
                for (m, n) in [
                    (sx - 3, sy - 5),
                    (sx, sy),
                    (2 * sx + 1, sy),
                    (sx, 2 * sy + 3),
                    (2 * sx + 5, 2 * sy + 9),
                    (1, 3 * sy),
                    (3 * sx, sy),
                    (70 * sx - 3, 2 * sy + 1),
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
                    (1, sy, 2 * sz),
                    (19 * sx - 3, sy + 1, sz + 1),
                ] {
                    let cfg = LaunchConfig::tiled_3d(m, n, l, bx, by, bz);
                    check_cover(&dev, [m, n, l], cfg);
                }
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
            let dev = Device::new(profiles::test_device());
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
        for (name, sanitize) in [("plain", false), ("simsan", true)] {
            let dev = Device::new(profiles::test_device());
            dev.set_sanitizer(sanitize);
            let every_thread = |blocks: usize| {
                if sanitize {
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
                    map: Linear(value),
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
            let expect = if sanitize { blocks * BLOCK } else { 0 };
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
