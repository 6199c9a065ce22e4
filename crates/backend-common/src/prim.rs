//! `impl PrimBackend for SimBackend`: the simulator implementations of the
//! portable device primitives — scan, histogram and sort-by-key — in the
//! same block-local-phases + cross-block combine shape real GPU primitive
//! libraries use, so the modeled costs are realistic.
//!
//! Determinism: all cross-tile combines follow the canonical association of
//! `racc_prim::reference` — tile boundaries are `PRIM_TILE`-wide (a pure
//! function of `n`, never of device geometry), and the cross-tile fold is
//! one sequential chain executed by a single simulated thread. Block sizes
//! differ per vendor profile, but they only change *which thread* computes
//! a tile, never the combine tree — so every simulator matches the serial
//! reference bitwise, including for `f32`.
//!
//! Leader sweep: every block-local phase of the histogram and the radix
//! sort is **one in-order pass by the block's first thread**
//! ([`LeaderPhases`]) instead of a slice of one writer's work per thread,
//! so the host visits one simulated thread per block and calls a key
//! closure once per element. What each leader writes:
//! * `BlockHistogram` (also the sort's digit count, over 256 bins): counts
//!   its span into shared memory, then copies the counters to its block's
//!   row of the count matrix;
//! * `BlockHistogramGlobal`: zeroes, then counts into, that row directly;
//! * `CombineBins`: adds the count rows, in ascending block order and one
//!   row at a time, into its block of bins, then writes the sums;
//! * `Scatter`: loads its block's 256 bases into a running counter and
//!   writes each key and index to `base[digit]++`.
//!
//! The sort's element-wise kernels are not leader sweeps but block forms:
//! `SortInit` (stores each key and index, and folds the keys' OR and AND)
//! and `Emit` (reports the permutation) each launch as an [`Elementwise`]
//! kernel, whose [`PhasedKernel::run_phase`] and [`PhasedKernel::run_band`]
//! are one counted loop over a block's or a band's elements and whose
//! `phase()` is that loop over one element. The OR
//! and AND name the bytes in which some two keys differ; a pass over any
//! other byte is the identity permutation, so it launches three `Idle`
//! kernels in place of its count, digit scan and scatter — same config,
//! cost and phase count, nothing executed — and leaves the ping-pong
//! buffers where they were.
//!
//! Race-free without atomics: each output cell has one writer per launch
//! (a block's own row or bins, or a destination the bases make unique),
//! and a barrier orders each sweep before the next. Blocks ascend and the
//! sweeps ascend, so the scatter is stable; every owned cell is assigned,
//! never accumulated, so a retried launch rewrites the same values. The
//! `KernelCost` each launch declares is *not* re-derived from the sweep: it
//! stays the calibrated per-thread charge of the cooperative device pass
//! the sweep stands in for, and the model reads only spec, grid, block and
//! cost — so `tests/prim_oplog.rs` and `tests/vendor_pins.rs` hold to the
//! last digit.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use racc_core::trace::{ConstructKind, Span};
use racc_core::{AccScalar, KernelProfile, ReduceOp, Timeline};
use racc_gpusim::perf::KernelCost;
use racc_gpusim::{
    BlockCtx, DeviceSlice, DeviceSliceMut, LaunchConfig, LeaderPhases, PhasedKernel, SharedMem,
    SinglePhase, ThreadCtx,
};

use racc_prim::reference::{self as prim, PRIM_TILE};
use racc_prim::PrimBackend;

use crate::kernels::run_thread;
use crate::SimBackend;

/// Base-2 digit width of the radix sort (one byte per pass): 256 counters
/// of 8 bytes fit the smallest device's shared memory.
const RADIX: usize = 256;

/// The radix digit of `key` for the pass that shifts by `shift` bits.
#[inline]
fn digit(key: u64, shift: u32) -> usize {
    ((key >> shift) & 0xFF) as usize
}

/// One leader phase and nothing else: the combine and the scatter.
const ONE_SWEEP: LeaderPhases = LeaderPhases::new(1);

/// Two leader phases and nothing else: count then copy out, or (large-bins
/// histogram) zero then count.
const TWO_SWEEPS: LeaderPhases = LeaderPhases::new(2);

/// Half-open element span of block `blk` in a 1D launch over `n` elements.
#[inline]
fn block_span(blk: usize, block_size: usize, n: usize) -> std::ops::Range<usize> {
    let start = blk * block_size;
    start..(start + block_size).min(n)
}

/// Per-thread kernel cost scaled by a coarsening factor (each simulated
/// thread owns `factor` elements instead of one).
fn scaled_cost(profile: &KernelProfile, factor: usize) -> KernelCost {
    let f = factor.max(1) as f64;
    KernelCost::new(
        profile.flops_per_iter * f,
        profile.bytes_read_per_iter * f,
        profile.bytes_written_per_iter * f,
        profile.coalescing,
    )
}

/// Scan kernel 1: one thread per `PRIM_TILE` tile folds its tile into
/// shared memory (phase 0), then writes the tile total back coalesced
/// (phase 1).
struct TileTotals<'a, T: AccScalar, F, O> {
    n: usize,
    tiles: usize,
    read: &'a F,
    op: O,
    totals: DeviceSliceMut<T>,
}

impl<T, F, O> PhasedKernel for TileTotals<'_, T, F, O>
where
    T: AccScalar,
    F: Fn(usize) -> T + Sync,
    O: ReduceOp<T>,
{
    type State = ();

    fn num_phases(&self) -> usize {
        2
    }

    fn phase(&self, phase: usize, ctx: &ThreadCtx, _state: &mut (), shared: &SharedMem) {
        let ti = ctx.thread_linear();
        let t = ctx.global_id_x();
        if phase == 0 {
            let v = if t < self.tiles {
                prim::tile_total(t, self.n, self.read, self.op)
            } else {
                self.op.identity()
            };
            shared.set::<T>(ti, v);
        } else if t < self.tiles {
            self.totals.set(t, shared.get::<T>(ti));
        }
    }
}

/// Scan kernel 2: the cross-block combine — a single thread left-folds the
/// tile totals into exclusive tile offsets, in ascending tile order (the
/// one sequential chain the determinism contract requires).
struct ScanTotals<T: AccScalar, O> {
    tiles: usize,
    op: O,
    totals: DeviceSlice<T>,
    offsets: DeviceSliceMut<T>,
}

impl<T, O> PhasedKernel for ScanTotals<T, O>
where
    T: AccScalar,
    O: ReduceOp<T>,
{
    type State = ();

    fn num_phases(&self) -> usize {
        1
    }

    fn phase(&self, _phase: usize, ctx: &ThreadCtx, _state: &mut (), _shared: &SharedMem) {
        if ctx.global_linear() != 0 {
            return;
        }
        let mut running: Option<T> = None;
        for t in 0..self.tiles {
            self.offsets
                .set(t, running.unwrap_or_else(|| self.op.identity()));
            let total = self.totals.get(t);
            running = Some(match running {
                None => total,
                Some(r) => self.op.combine(r, total),
            });
        }
    }
}

/// Scan kernel 3: one thread per tile re-folds its tile and writes the
/// outputs through the `write` closure, combining with its device-read
/// offset (tile 0 ignores it — see `racc_prim::reference::scan_tile_write`).
struct TileWrite<'a, T: AccScalar, F, W, O> {
    n: usize,
    tiles: usize,
    inclusive: bool,
    read: &'a F,
    write: &'a W,
    op: O,
    offsets: DeviceSlice<T>,
}

impl<T, F, W, O> PhasedKernel for TileWrite<'_, T, F, W, O>
where
    T: AccScalar,
    F: Fn(usize) -> T + Sync,
    W: Fn(usize, T) + Sync,
    O: ReduceOp<T>,
{
    type State = ();

    fn num_phases(&self) -> usize {
        1
    }

    fn phase(&self, _phase: usize, ctx: &ThreadCtx, _state: &mut (), _shared: &SharedMem) {
        let t = ctx.global_id_x();
        if t < self.tiles {
            let offset = self.offsets.get(t);
            prim::scan_tile_write(
                t,
                self.n,
                self.inclusive,
                offset,
                self.read,
                self.write,
                self.op,
            );
        }
    }
}

/// Histogram kernel 1 (shared-memory path), and the radix sort's per-block
/// digit count (256 bins): the block privatizes the whole bin range in
/// shared memory (zeroed at block start). The leader sweeps the block's
/// element span once, counting each key's bin (phase 0), then copies every
/// counter to the block's scratch row (phase 1): every cell of the row is
/// assigned, so retried launches and count-buffer reuse across radix passes
/// are safe.
struct BlockHistogram<'a, F> {
    n: usize,
    bins: usize,
    block_size: usize,
    key: &'a F,
    scratch: DeviceSliceMut<u64>,
}

impl<F> PhasedKernel for BlockHistogram<'_, F>
where
    F: Fn(usize) -> usize + Sync,
{
    type State = ();

    fn num_phases(&self) -> usize {
        2
    }

    fn active_threads(&self, phase: usize, block_threads: usize) -> usize {
        TWO_SWEEPS.active_threads(phase, block_threads)
    }

    fn phase(&self, phase: usize, ctx: &ThreadCtx, _state: &mut (), shared: &SharedMem) {
        if !TWO_SWEEPS.runs(phase, ctx) {
            return;
        }
        let blk = ctx.block_linear();
        if phase == 0 {
            for i in block_span(blk, self.block_size, self.n) {
                let bin = (self.key)(i);
                // Shared memory is bounds-asserted: an out-of-range key
                // dies here (the unguarded path simsan must catch).
                shared.set::<u64>(bin, shared.get::<u64>(bin) + 1);
            }
        } else {
            for bin in 0..self.bins {
                self.scratch
                    .set(blk * self.bins + bin, shared.get::<u64>(bin));
            }
        }
    }
}

/// Histogram kernel 1 (large-bins fallback): the bin range does not fit in
/// shared memory, so the leader counts straight into the block's scratch
/// row in device memory, in two sweeps of its span — the first zeroes every
/// cell the block will touch (a faulted-and-retried launch is idempotent;
/// untouched cells keep the allocation's zero), the second counts. One
/// writer per row: race-free without atomics.
struct BlockHistogramGlobal<'a, F> {
    n: usize,
    bins: usize,
    block_size: usize,
    key: &'a F,
    scratch: DeviceSliceMut<u64>,
}

impl<F> PhasedKernel for BlockHistogramGlobal<'_, F>
where
    F: Fn(usize) -> usize + Sync,
{
    type State = ();

    fn num_phases(&self) -> usize {
        2
    }

    fn active_threads(&self, phase: usize, block_threads: usize) -> usize {
        TWO_SWEEPS.active_threads(phase, block_threads)
    }

    fn phase(&self, phase: usize, ctx: &ThreadCtx, _state: &mut (), _shared: &SharedMem) {
        if !TWO_SWEEPS.runs(phase, ctx) {
            return;
        }
        let blk = ctx.block_linear();
        for i in block_span(blk, self.block_size, self.n) {
            let cell = blk * self.bins + (self.key)(i);
            if phase == 0 {
                self.scratch.set(cell, 0);
            } else {
                self.scratch.set(cell, self.scratch.get(cell) + 1);
            }
        }
    }
}

/// Histogram kernel 2: the leader of each block of `block_size` bins adds
/// the scratch rows' cells for its bins, in ascending row order and one row
/// at a time (u64 — exactly associative), and reports each sum through the
/// `write` closure.
struct CombineBins<'a, W> {
    bins: usize,
    block_size: usize,
    rows: usize,
    scratch: DeviceSlice<u64>,
    write: &'a W,
}

impl<W> PhasedKernel for CombineBins<'_, W>
where
    W: Fn(usize, u64) + Sync,
{
    type State = ();

    fn num_phases(&self) -> usize {
        1
    }

    fn active_threads(&self, phase: usize, block_threads: usize) -> usize {
        ONE_SWEEP.active_threads(phase, block_threads)
    }

    fn phase(&self, phase: usize, ctx: &ThreadCtx, _state: &mut (), _shared: &SharedMem) {
        if !ONE_SWEEP.runs(phase, ctx) {
            return;
        }
        let span = block_span(ctx.block_linear(), self.block_size, self.bins);
        let mut sums = vec![0u64; span.len()];
        for row in 0..self.rows {
            for (sum, bin) in sums.iter_mut().zip(span.clone()) {
                *sum += self.scratch.get(row * self.bins + bin);
            }
        }
        for (sum, bin) in sums.into_iter().zip(span) {
            (self.write)(bin, sum);
        }
    }
}

/// The elements of a 1D launch's threads `threads` of the block `first`,
/// continued through the `blocks - 1` blocks to its right (`blocks >= 1`,
/// and whole blocks only when `blocks > 1`), clamped to `n`: thread `t` of
/// block `b` owns element `b * block + t`.
#[inline]
fn elements(first: &BlockCtx, blocks: usize, threads: Range<usize>, n: usize) -> Range<usize> {
    let origin = first.origin().0;
    let further = (blocks - 1) * first.block_dim.x as usize;
    (origin + threads.start).min(n)..(origin + threads.end + further).min(n)
}

/// A one-phase 1D kernel whose threads each own one element of `0..len()`
/// and whose whole body is [`sweep`](ElementSweep::sweep).
trait ElementSweep: Sync {
    /// Elements in the launch.
    fn len(&self) -> usize;

    /// The work of the elements `elements`, in order.
    fn sweep(&self, elements: Range<usize>);
}

/// An [`ElementSweep`] as a kernel: the plain executor hands it a band of
/// blocks or a block's prefix as one counted loop, and `phase()` is that
/// loop over one element.
struct Elementwise<S>(S);

impl<S: ElementSweep> PhasedKernel for Elementwise<S> {
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
        self.0.sweep(elements(block, 1, threads, self.0.len()));
    }

    fn run_band(&self, first: &BlockCtx, blocks: usize) {
        let threads = 0..first.block_dim.count();
        self.0.sweep(elements(first, blocks, threads, self.0.len()));
    }
}

/// Sort kernel 0: materialize `(key_bits, original_index)` into the device
/// ping-pong buffers, and fold every key into the sort call's OR and AND —
/// the bytes where the two differ are the only ones a pass has to reorder.
/// As an [`Elementwise`] kernel it folds once per band on a plain launch
/// and once per element under the sanitizer.
struct SortInit<'a, F> {
    n: usize,
    key: &'a F,
    keys: DeviceSliceMut<u64>,
    idx: DeviceSliceMut<u64>,
    or: &'a AtomicU64,
    and: &'a AtomicU64,
}

impl<F> ElementSweep for SortInit<'_, F>
where
    F: Fn(usize) -> u64 + Sync,
{
    fn len(&self) -> usize {
        self.n
    }

    #[inline]
    fn sweep(&self, elements: Range<usize>) {
        if elements.is_empty() {
            return;
        }
        let (mut or, mut and) = (0, u64::MAX);
        for i in elements {
            let key = (self.key)(i);
            self.keys.set(i, key);
            self.idx.set(i, i as u64);
            or |= key;
            and &= key;
        }
        self.or.fetch_or(or, Ordering::Relaxed);
        self.and.fetch_and(and, Ordering::Relaxed);
    }
}

/// Radix kernel 2: the cross-block combine — one thread exclusive-scans the
/// count matrix in digit-major, block-minor order, producing the base
/// output position of every (block, digit) cell.
struct ScanDigits {
    blocks: usize,
    counts: DeviceSlice<u64>,
    bases: DeviceSliceMut<u64>,
}

impl PhasedKernel for ScanDigits {
    type State = ();

    fn num_phases(&self) -> usize {
        1
    }

    fn phase(&self, _phase: usize, ctx: &ThreadCtx, _state: &mut (), _shared: &SharedMem) {
        if ctx.global_linear() != 0 {
            return;
        }
        let mut running = 0u64;
        for d in 0..RADIX {
            for blk in 0..self.blocks {
                let cell = blk * RADIX + d;
                self.bases.set(cell, running);
                running += self.counts.get(cell);
            }
        }
    }
}

/// Radix kernel 3: scatter. The leader loads its block's 256 bases into a
/// running counter (its registers) and sweeps the block's span once,
/// writing each key and index to `base[digit]++` in the other ping-pong
/// buffer. Blocks ascend and the sweep ascends, so each pass is stable; the
/// destinations depend only on the source buffers, so a retried launch
/// rewrites the same cells.
struct Scatter {
    n: usize,
    block_size: usize,
    shift: u32,
    keys_src: DeviceSlice<u64>,
    idx_src: DeviceSlice<u64>,
    bases: DeviceSlice<u64>,
    keys_dst: DeviceSliceMut<u64>,
    idx_dst: DeviceSliceMut<u64>,
}

impl PhasedKernel for Scatter {
    type State = ();

    fn num_phases(&self) -> usize {
        1
    }

    fn active_threads(&self, phase: usize, block_threads: usize) -> usize {
        ONE_SWEEP.active_threads(phase, block_threads)
    }

    fn phase(&self, phase: usize, ctx: &ThreadCtx, _state: &mut (), _shared: &SharedMem) {
        if !ONE_SWEEP.runs(phase, ctx) {
            return;
        }
        let blk = ctx.block_linear();
        let mut next: [usize; RADIX] =
            std::array::from_fn(|d| self.bases.get(blk * RADIX + d) as usize);
        for i in block_span(blk, self.block_size, self.n) {
            let key = self.keys_src.get(i);
            let dst = &mut next[digit(key, self.shift)];
            self.keys_dst.set(*dst, key);
            self.idx_dst.set(*dst, self.idx_src.get(i));
            *dst += 1;
        }
    }
}

/// Sort kernel 4: report the permutation, rank by rank, from the index
/// buffer the last executed pass wrote.
struct Emit<'a, W> {
    n: usize,
    idx: DeviceSlice<u64>,
    write: &'a W,
}

impl<W> ElementSweep for Emit<'_, W>
where
    W: Fn(usize, usize) + Sync,
{
    fn len(&self) -> usize {
        self.n
    }

    #[inline]
    fn sweep(&self, ranks: Range<usize>) {
        for rank in ranks {
            (self.write)(rank, self.idx.get(rank) as usize);
        }
    }
}

/// What a radix pass over a byte every key shares launches in place of each
/// of its count, digit-scan and scatter kernels: the same phase count under
/// the same config and cost — so validation, fault injection and the charge
/// are the pass's own — and no thread with anything to do. Such a pass is
/// the identity permutation on any device.
struct Idle {
    phases: usize,
}

impl PhasedKernel for Idle {
    type State = ();

    fn num_phases(&self) -> usize {
        self.phases
    }

    fn active_threads(&self, _phase: usize, _block_threads: usize) -> usize {
        0
    }

    fn phase(&self, _phase: usize, _ctx: &ThreadCtx, _state: &mut (), _shared: &SharedMem) {}
}

impl SimBackend {
    /// One primitive kernel launch on the backend's device under the retry
    /// policy; its modeled ns.
    fn launch_prim<K: PhasedKernel>(&self, cfg: LaunchConfig, cost: KernelCost, kernel: &K) -> u64 {
        let device = self.device();
        Self::unwrap_launch(self.with_retry("launch", || device.launch_phased(cfg, cost, kernel)))
    }

    /// Charge one primitive's summed kernel time (scaled by the vendor's
    /// `reduce_time_factor`, plus the portability-layer overhead) and record
    /// its `Prim` span, mirroring `reduce_linear`'s accounting shape.
    fn finish_prim(
        &self,
        profile: &KernelProfile,
        dims: [u64; 3],
        geometry: (u64, u64),
        kernels_ns: f64,
    ) {
        let total = kernels_ns * self.vendor.reduce_time_factor + self.vendor.racc_launch_extra_ns;
        self.timeline.charge_launch(total);
        self.timeline.record_span(|| {
            Span::new(self.vendor.key, ConstructKind::Prim, profile.name)
                .dims(dims[0], dims[1], dims[2])
                .geometry(geometry.0, geometry.1)
                .profile(profile.flops_per_iter, profile.bytes_per_iter())
                .modeled(Timeline::quantize(total))
        });
    }
}

impl PrimBackend for SimBackend {
    fn prim_scan<T, F, W, O>(
        &self,
        n: usize,
        inclusive: bool,
        profile: &KernelProfile,
        read: F,
        write: W,
        op: O,
    ) where
        T: AccScalar,
        F: Fn(usize) -> T + Sync,
        W: Fn(usize, T) + Sync,
        O: ReduceOp<T>,
    {
        if n == 0 {
            self.finish_prim(profile, [0, 1, 1], (0, 0), 0.0);
            return;
        }
        let device = self.device();
        let tiles = prim::scan_tiles(n);
        let elem = std::mem::size_of::<T>();
        // Kernel 1 stages one tile total per thread in shared memory, so
        // shared capacity bounds the block too.
        let block =
            (self.block_1d(tiles) as usize).min((device.spec().shared_mem_per_block / elem).max(1));

        let totals = self
            .with_retry("alloc", || device.alloc::<T>(tiles))
            .expect("scan totals allocation");
        let offsets = self
            .with_retry("alloc", || device.alloc::<T>(tiles))
            .expect("scan offsets allocation");

        // Kernel 1: block-local tile folds.
        let k1 = TileTotals {
            n,
            tiles,
            read: &read,
            op,
            totals: device.slice_mut(&totals).expect("own buffer"),
        };
        let cfg1 = LaunchConfig::linear(tiles, block as u32).with_shared_mem(block * elem);
        let ns1 = self.launch_prim(cfg1, scaled_cost(profile, PRIM_TILE), &k1);

        // Kernel 2: the sequential cross-tile chain (one thread).
        let k2 = ScanTotals {
            tiles,
            op,
            totals: device.slice(&totals).expect("own buffer"),
            offsets: device.slice_mut(&offsets).expect("own buffer"),
        };
        let ns2 = self.launch_prim(
            LaunchConfig::new(1u32, 1u32),
            KernelCost::memory_bound((2 * tiles * elem) as f64, 0.0),
            &k2,
        );

        // Kernel 3: the output pass (re-fold + combine + write).
        let k3 = TileWrite {
            n,
            tiles,
            inclusive,
            read: &read,
            write: &write,
            op,
            offsets: device.slice(&offsets).expect("own buffer"),
        };
        let cfg3 = LaunchConfig::linear(tiles, block as u32);
        let ns3 = self.launch_prim(cfg3, scaled_cost(profile, 2 * PRIM_TILE), &k3);

        self.finish_prim(
            profile,
            [n as u64, 1, 1],
            (cfg1.grid.count() as u64, block as u64),
            (ns1 + ns2 + ns3) as f64,
        );
    }

    fn prim_histogram<F, W>(&self, n: usize, bins: usize, profile: &KernelProfile, key: F, write: W)
    where
        F: Fn(usize) -> usize + Sync,
        W: Fn(usize, u64) + Sync,
    {
        if bins == 0 {
            self.finish_prim(profile, [n as u64, 0, 1], (0, 0), 0.0);
            return;
        }
        let device = self.device();
        if n == 0 {
            // Still define every output bin: one kernel writing zeros.
            let zero = SinglePhase(|t: &ThreadCtx| {
                let bin = t.global_id_x();
                if bin < bins {
                    write(bin, 0);
                }
            });
            let cfg = LaunchConfig::linear(bins, self.block_1d(bins));
            let ns = self.launch_prim(cfg, Self::cost_from_profile(profile), &zero);
            self.finish_prim(
                profile,
                [0, bins as u64, 1],
                (cfg.grid.count() as u64, cfg.block.count() as u64),
                ns as f64,
            );
            return;
        }
        let block = self.block_1d(n) as usize;
        let blocks = n.div_ceil(block);
        let scratch = self
            .with_retry("alloc", || device.alloc::<u64>(blocks * bins))
            .expect("histogram scratch allocation");

        // Kernel 1: per-block privatized counts — in shared memory when the
        // whole bin range fits, else straight into the block's scratch row.
        // The charge per thread (`block` elements, twice that for the
        // two-sweep fallback) is the calibrated one, not the leader sweep's
        // host shape: see the module docs.
        let shared_bytes = bins * std::mem::size_of::<u64>();
        let ns1 = if shared_bytes <= device.spec().shared_mem_per_block {
            let k1 = BlockHistogram {
                n,
                bins,
                block_size: block,
                key: &key,
                scratch: device.slice_mut(&scratch).expect("own buffer"),
            };
            let cfg1 = LaunchConfig::linear(n, block as u32).with_shared_mem(shared_bytes);
            self.launch_prim(cfg1, scaled_cost(profile, block), &k1)
        } else {
            let k1 = BlockHistogramGlobal {
                n,
                bins,
                block_size: block,
                key: &key,
                scratch: device.slice_mut(&scratch).expect("own buffer"),
            };
            let cfg1 = LaunchConfig::linear(n, block as u32);
            self.launch_prim(cfg1, scaled_cost(profile, 2 * block), &k1)
        };

        // Kernel 2: each bin-block's leader adds the rows, in block order.
        let cfg2 = LaunchConfig::linear(bins, self.block_1d(bins));
        let k2 = CombineBins {
            bins,
            block_size: cfg2.block.count(),
            rows: blocks,
            scratch: device.slice(&scratch).expect("own buffer"),
            write: &write,
        };
        let ns2 = self.launch_prim(cfg2, scaled_cost(profile, blocks), &k2);

        self.finish_prim(
            profile,
            [n as u64, bins as u64, 1],
            (blocks as u64, block as u64),
            (ns1 + ns2) as f64,
        );
    }

    fn prim_sort_pairs<F, W>(
        &self,
        n: usize,
        key_bits: u32,
        profile: &KernelProfile,
        key: F,
        write: W,
    ) where
        F: Fn(usize) -> u64 + Sync,
        W: Fn(usize, usize) + Sync,
    {
        if n == 0 {
            self.finish_prim(profile, [0, key_bits as u64, 1], (0, 0), 0.0);
            return;
        }
        let device = self.device();
        let block = self.block_1d(n) as usize;
        let blocks = n.div_ceil(block);
        let passes = (key_bits.div_ceil(8).max(1) as usize).min(8);

        let alloc_u64 = |len: usize, what: &'static str| {
            self.with_retry("alloc", || device.alloc::<u64>(len))
                .unwrap_or_else(|e| panic!("sort {what} allocation: {e}"))
        };
        let keys_a = alloc_u64(n, "keys");
        let keys_b = alloc_u64(n, "keys");
        let idx_a = alloc_u64(n, "index");
        let idx_b = alloc_u64(n, "index");
        let counts = alloc_u64(blocks * RADIX, "counts");
        let bases = alloc_u64(blocks * RADIX, "bases");

        let (or, and) = (AtomicU64::new(0), AtomicU64::new(u64::MAX));
        let k0 = Elementwise(SortInit {
            n,
            key: &key,
            keys: device.slice_mut(&keys_a).expect("own buffer"),
            idx: device.slice_mut(&idx_a).expect("own buffer"),
            or: &or,
            and: &and,
        });
        let cfg_n = LaunchConfig::linear(n, block as u32);
        let mut total_ns = self.launch_prim(cfg_n, Self::cost_from_profile(profile), &k0);
        let (or, and) = (or.into_inner(), and.into_inner());
        debug_assert!(
            key_bits >= u64::BITS || or >> key_bits == 0,
            "a sort key has a bit set at or above key_bits = {key_bits}"
        );

        // Count and scatter keep their calibrated `block`-elements-per-
        // thread charge (module docs), whatever the host sweep costs. The
        // count is the shared-memory histogram over 256 digit bins.
        let cfg_count = cfg_n.with_shared_mem(RADIX * std::mem::size_of::<u64>());
        let pass_cost = scaled_cost(profile, block);
        let cfg_scan = LaunchConfig::new(1u32, 1u32);
        let scan_cost = KernelCost::memory_bound((2 * blocks * RADIX * 8) as f64, 0.0);
        let buffers = [(&keys_a, &idx_a), (&keys_b, &idx_b)];
        // The pair holding the current order: it flips on each pass that runs.
        let mut live = 0;
        for pass in 0..passes {
            let shift = (pass * 8) as u32;
            if digit(or ^ and, shift) == 0 {
                // Every key shares this byte: charged, not run.
                total_ns += self.launch_prim(cfg_count, pass_cost, &Idle { phases: 2 });
                total_ns += self.launch_prim(cfg_scan, scan_cost, &Idle { phases: 1 });
                total_ns += self.launch_prim(cfg_n, pass_cost, &Idle { phases: 1 });
                continue;
            }
            let (src, dst) = (buffers[live], buffers[1 - live]);
            live = 1 - live;
            let keys = device.slice(src.0).expect("own buffer");
            let digit_of = |i: usize| digit(keys.get(i), shift);
            let k1 = BlockHistogram {
                n,
                bins: RADIX,
                block_size: block,
                key: &digit_of,
                scratch: device.slice_mut(&counts).expect("own buffer"),
            };
            total_ns += self.launch_prim(cfg_count, pass_cost, &k1);

            let k2 = ScanDigits {
                blocks,
                counts: device.slice(&counts).expect("own buffer"),
                bases: device.slice_mut(&bases).expect("own buffer"),
            };
            total_ns += self.launch_prim(cfg_scan, scan_cost, &k2);

            let k3 = Scatter {
                n,
                block_size: block,
                shift,
                keys_src: device.slice(src.0).expect("own buffer"),
                idx_src: device.slice(src.1).expect("own buffer"),
                bases: device.slice(&bases).expect("own buffer"),
                keys_dst: device.slice_mut(dst.0).expect("own buffer"),
                idx_dst: device.slice_mut(dst.1).expect("own buffer"),
            };
            total_ns += self.launch_prim(cfg_n, pass_cost, &k3);
        }

        let emit = Elementwise(Emit {
            n,
            idx: device.slice(buffers[live].1).expect("own buffer"),
            write: &write,
        });
        total_ns += self.launch_prim(cfg_n, Self::cost_from_profile(profile), &emit);

        self.finish_prim(
            profile,
            [n as u64, key_bits as u64, 1],
            (blocks as u64, block as u64),
            total_ns as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    //! The leader-sweep kernels, one at a time, on the 64-thread / 4 KiB
    //! test device: outputs against a host loop, idempotence under a
    //! repeated launch (what a retry does), and the visits the executor
    //! makes — one thread per block in every phase on a plain launch, the
    //! whole block under the sanitizer. The sort's element-wise kernels
    //! (`SortInit`, `Emit`) run their block forms on a plain launch, bit for
    //! bit what `Device::execute_grid_reference` gets from their `phase()`.

    use super::*;
    use racc_gpusim::{profiles, Device};
    use racc_threadpool::ThreadPool;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    const N: usize = 200;
    const BLOCK: usize = 64;
    /// Three full blocks and one of 8 elements.
    const BLOCKS: usize = 4;
    const SHIFT: u32 = 8;

    /// A test device with the sanitizer on or off as `sanitize` says, set
    /// before anything is allocated on it.
    fn device(sanitize: bool) -> Device {
        let dev = Device::new(profiles::test_device());
        dev.set_sanitizer(sanitize);
        dev
    }

    /// Counts `phase()` entries per phase around the kernel under test.
    struct Counted<K> {
        kernel: K,
        visits: Vec<AtomicUsize>,
    }

    impl<K: PhasedKernel> PhasedKernel for Counted<K> {
        type State = K::State;
        fn num_phases(&self) -> usize {
            self.kernel.num_phases()
        }
        fn active_threads(&self, phase: usize, block_threads: usize) -> usize {
            self.kernel.active_threads(phase, block_threads)
        }
        fn phase(&self, phase: usize, ctx: &ThreadCtx, state: &mut K::State, shared: &SharedMem) {
            self.visits[phase].fetch_add(1, Ordering::Relaxed);
            self.kernel.phase(phase, ctx, state, shared)
        }
    }

    /// Launch `kernel` over `N` elements twice, asserting after each launch
    /// that every phase — each one a leader sweep — visited one thread per
    /// block (plain) or every thread (sanitized); `check` then reads the
    /// outputs back.
    fn launch_twice<K: PhasedKernel>(
        dev: &Device,
        sanitize: bool,
        shared_bytes: usize,
        kernel: K,
        check: impl Fn(),
    ) {
        let counted = Counted {
            visits: (0..kernel.num_phases())
                .map(|_| AtomicUsize::new(0))
                .collect(),
            kernel,
        };
        let cfg = LaunchConfig::linear(N, BLOCK as u32).with_shared_mem(shared_bytes);
        let per_phase = if sanitize { BLOCKS * BLOCK } else { BLOCKS };
        for launch in 0..2 {
            dev.launch_phased(cfg, KernelCost::default(), &counted)
                .unwrap();
            let visits: Vec<usize> = counted
                .visits
                .iter()
                .map(|v| v.swap(0, Ordering::Relaxed))
                .collect();
            assert_eq!(
                visits,
                vec![per_phase; visits.len()],
                "sanitize {sanitize}, launch {launch}"
            );
            check();
        }
    }

    fn bin_of(i: usize, bins: usize) -> usize {
        (i * 2654435761) % bins
    }

    /// Row `blk` of the scratch matrix: the counts of block `blk`'s span.
    fn block_counts(bins: usize, key: impl Fn(usize) -> usize) -> Vec<u64> {
        let mut rows = vec![0u64; BLOCKS * bins];
        for i in 0..N {
            rows[(i / BLOCK) * bins + key(i)] += 1;
        }
        rows
    }

    #[test]
    fn block_histogram_counts_then_copies_out_from_the_leader() {
        let bins = 37;
        for sanitize in [false, true] {
            let dev = device(sanitize);
            let scratch = dev.alloc::<u64>(BLOCKS * bins).unwrap();
            let key = |i: usize| bin_of(i, bins);
            let kernel = BlockHistogram {
                n: N,
                bins,
                block_size: BLOCK,
                key: &key,
                scratch: dev.slice_mut(&scratch).unwrap(),
            };
            launch_twice(&dev, sanitize, bins * 8, kernel, || {
                assert_eq!(dev.read_vec(&scratch).unwrap(), block_counts(bins, key));
            });
        }
    }

    #[test]
    fn global_histogram_fallback_zeroes_then_counts_from_the_leader() {
        // 1500 bins × 8 B = 12 000 B: past the test device's 4 KiB.
        let bins = 1500;
        for sanitize in [false, true] {
            let dev = device(sanitize);
            assert!(bins * 8 > dev.spec().shared_mem_per_block);
            let scratch = dev.alloc::<u64>(BLOCKS * bins).unwrap();
            let key = |i: usize| bin_of(i, bins);
            let kernel = BlockHistogramGlobal {
                n: N,
                bins,
                block_size: BLOCK,
                key: &key,
                scratch: dev.slice_mut(&scratch).unwrap(),
            };
            launch_twice(&dev, sanitize, 0, kernel, || {
                assert_eq!(dev.read_vec(&scratch).unwrap(), block_counts(bins, key));
            });
        }
    }

    #[test]
    fn combine_bins_adds_the_rows_in_each_bin_blocks_leader() {
        // 200 bins over 64-thread blocks (three full bin-blocks and one of
        // 8), summed over three rows.
        let (bins, rows) = (N, 3);
        let host: Vec<u64> = (0..(rows * bins) as u64).map(|c| c * c % 1009).collect();
        let expect: Vec<u64> = (0..bins)
            .map(|bin| (0..rows).map(|row| host[row * bins + bin]).sum())
            .collect();
        for sanitize in [false, true] {
            let dev = device(sanitize);
            let scratch = dev.alloc_from(&host).unwrap();
            let got: Vec<AtomicU64> = (0..bins).map(|_| AtomicU64::new(u64::MAX)).collect();
            let write = |bin: usize, sum: u64| got[bin].store(sum, Ordering::Relaxed);
            let kernel = CombineBins {
                bins,
                block_size: BLOCK,
                rows,
                scratch: dev.slice(&scratch).unwrap(),
                write: &write,
            };
            launch_twice(&dev, sanitize, 0, kernel, || {
                let sums: Vec<u64> = got
                    .iter()
                    .map(|g| g.swap(u64::MAX, Ordering::Relaxed))
                    .collect();
                assert_eq!(sums, expect);
            });
        }
    }

    /// One scatter pass over `host_keys` from the bases `ScanDigits` leaves
    /// (digit-major, block-minor), against a stable host sort by the digit
    /// at `SHIFT`: ties keep the original index order.
    fn check_scatter(host_keys: &[u64]) {
        let host_idx: Vec<u64> = (0..N as u64).collect();
        let counts = block_counts(RADIX, |i| digit(host_keys[i], SHIFT));
        let mut host_bases = vec![0u64; BLOCKS * RADIX];
        let mut running = 0;
        for d in 0..RADIX {
            for blk in 0..BLOCKS {
                host_bases[blk * RADIX + d] = running;
                running += counts[blk * RADIX + d];
            }
        }
        let mut order: Vec<usize> = (0..N).collect();
        order.sort_by_key(|&i| digit(host_keys[i], SHIFT));
        let expect_keys: Vec<u64> = order.iter().map(|&i| host_keys[i]).collect();
        let expect_idx: Vec<u64> = order.iter().map(|&i| i as u64).collect();

        for sanitize in [false, true] {
            let dev = device(sanitize);
            let keys_src = dev.alloc_from(host_keys).unwrap();
            let idx_src = dev.alloc_from(&host_idx).unwrap();
            let bases = dev.alloc_from(&host_bases).unwrap();
            let keys_dst = dev.alloc::<u64>(N).unwrap();
            let idx_dst = dev.alloc::<u64>(N).unwrap();
            let kernel = Scatter {
                n: N,
                block_size: BLOCK,
                shift: SHIFT,
                keys_src: dev.slice(&keys_src).unwrap(),
                idx_src: dev.slice(&idx_src).unwrap(),
                bases: dev.slice(&bases).unwrap(),
                keys_dst: dev.slice_mut(&keys_dst).unwrap(),
                idx_dst: dev.slice_mut(&idx_dst).unwrap(),
            };
            launch_twice(&dev, sanitize, 0, kernel, || {
                assert_eq!(dev.read_vec(&keys_dst).unwrap(), expect_keys);
                assert_eq!(dev.read_vec(&idx_dst).unwrap(), expect_idx);
            });
        }
    }

    #[test]
    fn scatter_writes_from_one_leader_sweep_and_stays_stable() {
        // 24-bit keys with plenty of equal digits at `SHIFT`.
        let keys: Vec<u64> = (0..N as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) & 0xFF_0FFF)
            .collect();
        check_scatter(&keys);
    }

    #[test]
    fn scatter_handles_single_digit_blocks_and_digits_absent_from_a_block() {
        // Blocks 0 and 2 hold only digit 5, block 1 only 200 and the short
        // block 3 only 0: each block lacks 255 digits, and block 2's run of
        // 5s starts where block 0's ends. The low byte falls with `i`, so a
        // sort by the whole key would reverse what stability keeps.
        let digits = [5u64, 200, 5, 0];
        let keys: Vec<u64> = (0..N)
            .map(|i| (digits[i / BLOCK] << SHIFT) | (255 - i as u64 % 256))
            .collect();
        check_scatter(&keys);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn an_unchecked_key_past_the_bins_dies_in_shared_memory() {
        let dev = device(false);
        let bins = 8;
        let scratch = dev.alloc::<u64>(BLOCKS * bins).unwrap();
        let key = |i: usize| if i == 130 { 40 } else { i % bins };
        let kernel = BlockHistogram {
            n: N,
            bins,
            block_size: BLOCK,
            key: &key,
            scratch: dev.slice_mut(&scratch).unwrap(),
        };
        let cfg = LaunchConfig::linear(N, BLOCK as u32).with_shared_mem(bins * 8);
        let _ = dev.launch_phased(cfg, KernelCost::default(), &kernel);
    }

    /// Sizes around the test device's 64-thread block, and eleven blocks
    /// less 17 — which a two-participant pool cuts into several bands and a
    /// short last one.
    const RAGGED: [usize; 7] = [1, 63, 64, 65, N, 640, 11 * BLOCK - 17];

    /// A plain test device whose pool has `threads` participants: how many
    /// there are decides how the executor cuts a row of blocks into bands.
    fn plain_on(threads: usize) -> Device {
        Device::with_pool(profiles::test_device(), Arc::new(ThreadPool::new(threads)))
    }

    fn init_key(i: usize) -> u64 {
        (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20
    }

    /// Launch `kernel` over `n` elements on `dev` by the plain executor, or
    /// by the reference one if `reference`.
    fn launch_over<K: PhasedKernel>(dev: &Device, n: usize, kernel: &K, reference: bool) {
        let cfg = LaunchConfig::linear(n, n.min(BLOCK) as u32);
        if reference {
            dev.execute_grid_reference(cfg, kernel);
        } else {
            dev.launch_phased(cfg, KernelCost::default(), kernel)
                .unwrap();
        }
    }

    /// `SortInit` over `n` elements on `dev`, by the plain executor or the
    /// reference one: the key and index buffers, the OR and the AND.
    fn run_sort_init(dev: &Device, n: usize, reference: bool) -> (Vec<u64>, Vec<u64>, u64, u64) {
        let keys = dev.alloc::<u64>(n).unwrap();
        let idx = dev.alloc::<u64>(n).unwrap();
        let (or, and) = (AtomicU64::new(0), AtomicU64::new(u64::MAX));
        let kernel = Elementwise(SortInit {
            n,
            key: &init_key,
            keys: dev.slice_mut(&keys).unwrap(),
            idx: dev.slice_mut(&idx).unwrap(),
            or: &or,
            and: &and,
        });
        launch_over(dev, n, &kernel, reference);
        (
            dev.read_vec(&keys).unwrap(),
            dev.read_vec(&idx).unwrap(),
            or.into_inner(),
            and.into_inner(),
        )
    }

    /// `Emit` over `n` ranks on `dev`, by the plain executor or the
    /// reference one: what `write` received per rank, and how often.
    fn run_emit(dev: &Device, n: usize, reference: bool) -> Vec<(u64, usize)> {
        let host: Vec<u64> = (0..n as u64).map(|r| (r * 7 + 3) % n as u64).collect();
        let idx = dev.alloc_from(&host).unwrap();
        let got: Vec<(AtomicU64, AtomicUsize)> = (0..n)
            .map(|_| (AtomicU64::new(u64::MAX), AtomicUsize::new(0)))
            .collect();
        let write = |rank: usize, i: usize| {
            got[rank].0.store(i as u64, Ordering::Relaxed);
            got[rank].1.fetch_add(1, Ordering::Relaxed);
        };
        let kernel = Elementwise(Emit {
            n,
            idx: dev.slice(&idx).unwrap(),
            write: &write,
        });
        launch_over(dev, n, &kernel, reference);
        got.into_iter()
            .map(|(i, calls)| (i.into_inner(), calls.into_inner()))
            .collect()
    }

    #[test]
    fn sort_init_and_emit_block_forms_equal_the_reference_executor() {
        for threads in [1, 2] {
            let dev = plain_on(threads);
            for n in RAGGED {
                let what = format!("n = {n}, {threads} participants");
                let init = run_sort_init(&dev, n, false);
                assert_eq!(init, run_sort_init(&dev, n, true), "SortInit, {what}");
                let keys: Vec<u64> = (0..n).map(init_key).collect();
                assert_eq!(init.0, keys, "SortInit keys, {what}");
                assert_eq!(init.1, (0..n as u64).collect::<Vec<_>>(), "{what}");
                assert_eq!(init.2, keys.iter().fold(0, |a, k| a | k), "OR, {what}");
                assert_eq!(init.3, keys.iter().fold(!0, |a, k| a & k), "AND, {what}");

                let emitted = run_emit(&dev, n, false);
                assert_eq!(emitted, run_emit(&dev, n, true), "Emit, {what}");
                assert!(emitted.iter().all(|&(_, calls)| calls == 1), "{what}");
            }
        }
    }

    /// Counts `phase()` entries; the block forms are the wrapped kernel's.
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
        fn run_band(&self, first: &BlockCtx, blocks: usize) {
            self.kernel.run_band(first, blocks)
        }
    }

    /// How many `phase()` calls a launch of `kernel` over `N` elements made.
    fn thread_visits<K: PhasedKernel>(dev: &Device, shared_bytes: usize, kernel: K) -> usize {
        let counted = CountThreadVisits {
            kernel,
            visits: AtomicUsize::new(0),
        };
        let cfg = LaunchConfig::linear(N, BLOCK as u32).with_shared_mem(shared_bytes);
        dev.launch_phased(cfg, KernelCost::default(), &counted)
            .unwrap();
        counted.visits.into_inner()
    }

    #[test]
    fn sort_init_emit_and_idle_visit_no_thread_plain_every_thread_sanitized() {
        for sanitize in [false, true] {
            let dev = device(sanitize);
            let every_thread = |phases: usize| {
                if sanitize {
                    phases * BLOCKS * BLOCK
                } else {
                    0
                }
            };
            let keys = dev.alloc::<u64>(N).unwrap();
            let idx = dev.alloc::<u64>(N).unwrap();
            let (or, and) = (AtomicU64::new(0), AtomicU64::new(u64::MAX));
            let init = Elementwise(SortInit {
                n: N,
                key: &init_key,
                keys: dev.slice_mut(&keys).unwrap(),
                idx: dev.slice_mut(&idx).unwrap(),
                or: &or,
                and: &and,
            });
            assert_eq!(thread_visits(&dev, 0, init), every_thread(1), "SortInit");
            assert_ne!(or.into_inner() ^ and.into_inner(), 0, "the keys vary");

            let write = |_: usize, _: usize| {};
            let emit = Elementwise(Emit {
                n: N,
                idx: dev.slice(&idx).unwrap(),
                write: &write,
            });
            assert_eq!(thread_visits(&dev, 0, emit), every_thread(1), "Emit");

            // The stand-ins for a skipped pass: the count's shape (two
            // phases, shared memory) and the scatter's.
            let count = Idle { phases: 2 };
            assert_eq!(
                thread_visits(&dev, RADIX * 8, count),
                every_thread(2),
                "Idle count"
            );
            let scatter = Idle { phases: 1 };
            assert_eq!(
                thread_visits(&dev, 0, scatter),
                every_thread(1),
                "Idle scatter"
            );
        }
    }

    /// The `cudasim` twin of `racc-prim`'s `keys_wider_than_key_bits_are_caught`
    /// (that crate sits below the simulator): a key with a bit at or above
    /// `key_bits` would be missorted by passes sized from `key_bits`, so
    /// debug builds stop on it with the CPU paths' message.
    #[cfg(debug_assertions)]
    #[test]
    fn simulated_keys_wider_than_key_bits_are_caught() {
        let keys = [3u64, 1 << 13, 5];
        let result = std::panic::catch_unwind(|| {
            let dev = Arc::new(Device::new(profiles::nvidia_a100()));
            let backend = SimBackend::new(dev, &crate::CUDA);
            backend.prim_sort_pairs(3, 13, &racc_prim::SORT_PROFILE, |i| keys[i], |_, _| {});
        });
        let payload = result.expect_err("a 14-bit key under key_bits = 13 must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("key_bits = 13"), "cudasim: {msg}");
    }
}
