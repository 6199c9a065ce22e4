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
//! Leader sweep: the block-local counting kernels (`BlockHistogram`,
//! `BlockHistogramGlobal`, `DigitCount`, `Scatter`) get their counts and
//! ranks from **one pass over the block's span by the block's first
//! thread** ([`LeaderPhases`]), so the host does O(n) work per launch and
//! calls a key closure once per element. It is race-free without atomics
//! because each leader phase has exactly one writer per block — to its own
//! shared memory or its own row of the scratch buffer — and the barrier
//! that ends the phase orders it before the block-wide phase that reads;
//! blocks ascend and the sweep ascends, so ranks are the stable order. The
//! `KernelCost` each launch declares is *not* re-derived from the sweep:
//! it stays the calibrated per-thread charge of the cooperative device
//! pass the sweep stands in for, and the model reads only spec, grid, block
//! and cost — so `results/baselines/BENCH_prim.json` and
//! `tests/vendor_pins.rs` hold to the last digit.

use racc_core::{AccScalar, KernelProfile, ReduceOp};
use racc_gpusim::perf::KernelCost;
use racc_gpusim::{
    DeviceSlice, DeviceSliceMut, LaunchConfig, LeaderPhases, PhasedKernel, SharedMem, SinglePhase,
    ThreadCtx,
};

#[cfg(feature = "trace")]
use racc_core::trace::{ConstructKind, Span};
#[cfg(feature = "trace")]
use racc_core::Timeline;

use racc_prim::reference::{self as prim, PRIM_TILE};
use racc_prim::PrimBackend;

use crate::SimBackend;

/// Base-2 digit width of the radix sort (one byte per pass): 256 counters
/// of 8 bytes fit the smallest device's shared memory.
const RADIX: usize = 256;

/// The radix digit of `key` for the pass that shifts by `shift` bits.
#[inline]
fn digit(key: u64, shift: u32) -> usize {
    ((key >> shift) & 0xFF) as usize
}

/// One leader phase (thread 0 sweeps the block's span), then whole-block
/// phases that consume what it left.
const SWEEP_THEN_BLOCK: LeaderPhases = LeaderPhases::new(1);

/// Two leader phases and nothing else: the large-bins histogram's zeroing
/// sweep and its counting sweep.
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

/// Histogram kernel 1 (shared-memory path): the block privatizes the whole
/// bin range in shared memory (zeroed at block start). Leader phase: thread
/// 0 sweeps the block's element span once, counting each key's bin — one
/// writer, so no atomics. Block phase: thread `ti` copies bins `ti`,
/// `ti + block`, … to the block's scratch row; every cell of the row is
/// assigned, so a retried launch is idempotent.
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
        SWEEP_THEN_BLOCK.active_threads(phase, block_threads)
    }

    fn phase(&self, phase: usize, ctx: &ThreadCtx, _state: &mut (), shared: &SharedMem) {
        if !SWEEP_THEN_BLOCK.runs(phase, ctx) {
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
            let mut bin = ctx.thread_linear();
            while bin < self.bins {
                self.scratch
                    .set(blk * self.bins + bin, shared.get::<u64>(bin));
                bin += self.block_size;
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

/// Histogram kernel 2: one thread per bin sums its column of the scratch
/// matrix in ascending block order (u64 — exactly associative) and reports
/// it through the `write` closure.
struct CombineBins<'a, W> {
    bins: usize,
    blocks: usize,
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

    fn phase(&self, _phase: usize, ctx: &ThreadCtx, _state: &mut (), _shared: &SharedMem) {
        let bin = ctx.global_id_x();
        if bin < self.bins {
            let mut sum = 0u64;
            for blk in 0..self.blocks {
                sum += self.scratch.get(blk * self.bins + bin);
            }
            (self.write)(bin, sum);
        }
    }
}

/// Sort kernel 0: materialize `(key_bits, original_index)` into the device
/// ping-pong buffers.
struct SortInit<'a, F> {
    n: usize,
    key: &'a F,
    keys: DeviceSliceMut<u64>,
    idx: DeviceSliceMut<u64>,
}

impl<F> PhasedKernel for SortInit<'_, F>
where
    F: Fn(usize) -> u64 + Sync,
{
    type State = ();

    fn num_phases(&self) -> usize {
        1
    }

    fn phase(&self, _phase: usize, ctx: &ThreadCtx, _state: &mut (), _shared: &SharedMem) {
        let i = ctx.global_id_x();
        if i < self.n {
            self.keys.set(i, (self.key)(i));
            self.idx.set(i, i as u64);
        }
    }
}

/// Radix kernel 1: per-block digit counts. Leader phase: thread 0 sweeps
/// the block's span once, counting digits into shared memory (zeroed at
/// block start; one writer, no atomics). Block phase: thread `ti` writes
/// cells `ti`, `ti + block`, … of the block's count row — assignment to
/// every cell, so retried launches and count-buffer reuse across passes are
/// safe.
struct DigitCount {
    n: usize,
    block_size: usize,
    shift: u32,
    keys: DeviceSlice<u64>,
    counts: DeviceSliceMut<u64>,
}

impl PhasedKernel for DigitCount {
    type State = ();

    fn num_phases(&self) -> usize {
        2
    }

    fn active_threads(&self, phase: usize, block_threads: usize) -> usize {
        SWEEP_THEN_BLOCK.active_threads(phase, block_threads)
    }

    fn phase(&self, phase: usize, ctx: &ThreadCtx, _state: &mut (), shared: &SharedMem) {
        if !SWEEP_THEN_BLOCK.runs(phase, ctx) {
            return;
        }
        let blk = ctx.block_linear();
        if phase == 0 {
            for i in block_span(blk, self.block_size, self.n) {
                let d = digit(self.keys.get(i), self.shift);
                shared.set::<u64>(d, shared.get::<u64>(d) + 1);
            }
        } else {
            let mut d = ctx.thread_linear();
            while d < RADIX {
                self.counts.set(blk * RADIX + d, shared.get::<u64>(d));
                d += self.block_size;
            }
        }
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

/// Radix kernel 3: scatter. Leader phase: thread 0 sweeps the block's span
/// once and leaves, at `shared[ti]`, element `ti`'s rank among the
/// same-digit elements before it in the block (a 256-entry running counter
/// in the leader's registers). Block phase: every thread reads its own rank
/// and writes key+index to their unique destination in the other ping-pong
/// buffer. Blocks ascend and in-block ranks ascend, so each pass is stable;
/// the destinations depend only on the source buffers, so a retried launch
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
        2
    }

    fn active_threads(&self, phase: usize, block_threads: usize) -> usize {
        SWEEP_THEN_BLOCK.active_threads(phase, block_threads)
    }

    fn phase(&self, phase: usize, ctx: &ThreadCtx, _state: &mut (), shared: &SharedMem) {
        if !SWEEP_THEN_BLOCK.runs(phase, ctx) {
            return;
        }
        let blk = ctx.block_linear();
        if phase == 0 {
            let mut seen = [0u64; RADIX];
            for (ti, i) in block_span(blk, self.block_size, self.n).enumerate() {
                let d = digit(self.keys_src.get(i), self.shift);
                shared.set::<u64>(ti, seen[d]);
                seen[d] += 1;
            }
            return;
        }
        let i = ctx.global_id_x();
        if i >= self.n {
            return;
        }
        let key = self.keys_src.get(i);
        let rank = shared.get::<u64>(ctx.thread_linear());
        let dst = (self.bases.get(blk * RADIX + digit(key, self.shift)) + rank) as usize;
        self.keys_dst.set(dst, key);
        self.idx_dst.set(dst, self.idx_src.get(i));
    }
}

impl SimBackend {
    /// Charge one primitive's summed kernel time (scaled by the vendor's
    /// `reduce_time_factor`, plus the portability-layer overhead) and record
    /// its `Prim` span, mirroring `reduce_linear`'s accounting shape.
    fn finish_prim(
        &self,
        _profile: &KernelProfile,
        _dims: [u64; 3],
        _geometry: (u64, u64),
        kernels_ns: f64,
    ) {
        let total = kernels_ns * self.vendor.reduce_time_factor + self.vendor.racc_launch_extra_ns;
        self.timeline.charge_launch(total);
        #[cfg(feature = "trace")]
        self.timeline.record_span(|| {
            Span::new(self.vendor.key, ConstructKind::Prim, _profile.name)
                .dims(_dims[0], _dims[1], _dims[2])
                .geometry(_geometry.0, _geometry.1)
                .profile(_profile.flops_per_iter, _profile.bytes_per_iter())
                .modeled(Timeline::quantize(total))
        });
    }

    /// [`block_1d`](Self::block_1d) bounded by shared capacity too, for
    /// kernels that stage `bytes_per_thread` of shared memory per thread.
    fn block_1d_staging(&self, n: usize, bytes_per_thread: usize) -> usize {
        let max_for_shared = self.device().spec().shared_mem_per_block / bytes_per_thread;
        (self.block_1d(n) as usize).min(max_for_shared.max(1))
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
        // Kernel 1 stages one tile total per thread in shared memory.
        let block = self.block_1d_staging(tiles, elem);

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
        let ns1 = Self::unwrap_launch(self.with_retry("launch", || {
            device.launch_phased(cfg1, scaled_cost(profile, PRIM_TILE), &k1)
        }));

        // Kernel 2: the sequential cross-tile chain (one thread).
        let k2 = ScanTotals {
            tiles,
            op,
            totals: device.slice(&totals).expect("own buffer"),
            offsets: device.slice_mut(&offsets).expect("own buffer"),
        };
        let ns2 = Self::unwrap_launch(self.with_retry("launch", || {
            device.launch_phased(
                LaunchConfig::new(1u32, 1u32),
                KernelCost::memory_bound((2 * tiles * elem) as f64, 0.0),
                &k2,
            )
        }));

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
        let ns3 = Self::unwrap_launch(self.with_retry("launch", || {
            device.launch_phased(cfg3, scaled_cost(profile, 2 * PRIM_TILE), &k3)
        }));

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
            let ns = Self::unwrap_launch(self.with_retry("launch", || {
                device.launch_phased(cfg, Self::cost_from_profile(profile), &zero)
            }));
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
            Self::unwrap_launch(self.with_retry("launch", || {
                device.launch_phased(cfg1, scaled_cost(profile, block), &k1)
            }))
        } else {
            let k1 = BlockHistogramGlobal {
                n,
                bins,
                block_size: block,
                key: &key,
                scratch: device.slice_mut(&scratch).expect("own buffer"),
            };
            let cfg1 = LaunchConfig::linear(n, block as u32);
            Self::unwrap_launch(self.with_retry("launch", || {
                device.launch_phased(cfg1, scaled_cost(profile, 2 * block), &k1)
            }))
        };

        // Kernel 2: sum each bin's column across blocks, in block order.
        let k2 = CombineBins {
            bins,
            blocks,
            scratch: device.slice(&scratch).expect("own buffer"),
            write: &write,
        };
        let cfg2 = LaunchConfig::linear(bins, self.block_1d(bins));
        let ns2 = Self::unwrap_launch(self.with_retry("launch", || {
            device.launch_phased(cfg2, scaled_cost(profile, blocks), &k2)
        }));

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
        // The scatter stages one 8-byte rank per thread in shared memory (a
        // no-op clamp on every stock profile: capacity covers a full block).
        let rank_bytes = std::mem::size_of::<u64>();
        let block = self.block_1d_staging(n, rank_bytes);
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

        let mut total_ns = 0u64;
        let k0 = SortInit {
            n,
            key: &key,
            keys: device.slice_mut(&keys_a).expect("own buffer"),
            idx: device.slice_mut(&idx_a).expect("own buffer"),
        };
        let cfg_n = LaunchConfig::linear(n, block as u32);
        total_ns += Self::unwrap_launch(self.with_retry("launch", || {
            device.launch_phased(cfg_n, Self::cost_from_profile(profile), &k0)
        }));

        let shared_bytes = RADIX * std::mem::size_of::<u64>();
        let buffers = [(&keys_a, &idx_a), (&keys_b, &idx_b)];
        for pass in 0..passes {
            let (src, dst) = (buffers[pass % 2], buffers[(pass + 1) % 2]);
            let shift = (pass * 8) as u32;
            // Count and scatter keep their calibrated `block`-elements-per-
            // thread charge (module docs), whatever the host sweep costs.

            let k1 = DigitCount {
                n,
                block_size: block,
                shift,
                keys: device.slice(src.0).expect("own buffer"),
                counts: device.slice_mut(&counts).expect("own buffer"),
            };
            let cfg1 = LaunchConfig::linear(n, block as u32).with_shared_mem(shared_bytes);
            total_ns += Self::unwrap_launch(self.with_retry("launch", || {
                device.launch_phased(cfg1, scaled_cost(profile, block), &k1)
            }));

            let k2 = ScanDigits {
                blocks,
                counts: device.slice(&counts).expect("own buffer"),
                bases: device.slice_mut(&bases).expect("own buffer"),
            };
            total_ns += Self::unwrap_launch(self.with_retry("launch", || {
                device.launch_phased(
                    LaunchConfig::new(1u32, 1u32),
                    KernelCost::memory_bound((2 * blocks * RADIX * 8) as f64, 0.0),
                    &k2,
                )
            }));

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
            let cfg3 = cfg_n.with_shared_mem(block * rank_bytes);
            total_ns += Self::unwrap_launch(self.with_retry("launch", || {
                device.launch_phased(cfg3, scaled_cost(profile, block), &k3)
            }));
        }

        // The sorted run lives in whichever buffer the last pass wrote.
        let final_idx = buffers[passes % 2].1;
        let idx = device.slice(final_idx).expect("own buffer");
        let emit = SinglePhase(|t: &ThreadCtx| {
            let rank = t.global_id_x();
            if rank < n {
                write(rank, idx.get(rank) as usize);
            }
        });
        total_ns += Self::unwrap_launch(self.with_retry("launch", || {
            device.launch_phased(cfg_n, Self::cost_from_profile(profile), &emit)
        }));

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
    //! The four leader-sweep kernels, one at a time, on the 64-thread /
    //! 4 KiB test device: outputs against a host loop, idempotence under a
    //! repeated launch (what a retry does), and the visits the executor
    //! makes — one thread per block in a leader phase on a plain launch,
    //! the whole block under racecheck or the sanitizer.

    use super::*;
    use racc_gpusim::{profiles, Device};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const N: usize = 200;
    const BLOCK: usize = 64;
    /// Three full blocks and one of 8 elements.
    const BLOCKS: usize = 4;
    const SHIFT: u32 = 8;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Checker {
        Plain,
        Racecheck,
        Sanitizer,
    }

    const CHECKERS: [Checker; 3] = [Checker::Plain, Checker::Racecheck, Checker::Sanitizer];

    /// A test device with exactly `checker` on (whatever `RACC_SANITIZER`
    /// says), set before anything is allocated on it.
    fn device(checker: Checker) -> Device {
        let dev = Device::new(profiles::test_device());
        dev.set_sanitizer(checker == Checker::Sanitizer);
        dev.set_racecheck(checker == Checker::Racecheck);
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
    /// that its first `leader_phases` phases visited one thread per block
    /// (plain) or every thread (tracked), and every other phase the whole
    /// block; `check` then reads the outputs back.
    fn launch_twice<K: PhasedKernel>(
        dev: &Device,
        checker: Checker,
        shared_bytes: usize,
        leader_phases: usize,
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
        for launch in 0..2 {
            dev.launch_phased(cfg, KernelCost::default(), &counted)
                .unwrap();
            let visits: Vec<usize> = counted
                .visits
                .iter()
                .map(|v| v.swap(0, Ordering::Relaxed))
                .collect();
            let expect: Vec<usize> = (0..visits.len())
                .map(|p| {
                    if checker == Checker::Plain && p < leader_phases {
                        BLOCKS
                    } else {
                        BLOCKS * BLOCK
                    }
                })
                .collect();
            assert_eq!(visits, expect, "{checker:?}, launch {launch}");
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
    fn block_histogram_counts_its_span_in_one_leader_sweep() {
        let bins = 37;
        for checker in CHECKERS {
            let dev = device(checker);
            let scratch = dev.alloc::<u64>(BLOCKS * bins).unwrap();
            let key = |i: usize| bin_of(i, bins);
            let kernel = BlockHistogram {
                n: N,
                bins,
                block_size: BLOCK,
                key: &key,
                scratch: dev.slice_mut(&scratch).unwrap(),
            };
            launch_twice(&dev, checker, bins * 8, 1, kernel, || {
                assert_eq!(dev.read_vec(&scratch).unwrap(), block_counts(bins, key));
            });
        }
    }

    #[test]
    fn global_histogram_fallback_zeroes_then_counts_from_the_leader() {
        // 1500 bins × 8 B = 12 000 B: past the test device's 4 KiB.
        let bins = 1500;
        for checker in CHECKERS {
            let dev = device(checker);
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
            launch_twice(&dev, checker, 0, 2, kernel, || {
                assert_eq!(dev.read_vec(&scratch).unwrap(), block_counts(bins, key));
            });
        }
    }

    /// 24-bit keys with plenty of equal digits at `SHIFT`.
    fn sort_keys() -> Vec<u64> {
        (0..N as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) & 0xFF_0FFF)
            .collect()
    }

    #[test]
    fn digit_count_counts_its_span_in_one_leader_sweep() {
        let host_keys = sort_keys();
        let expect = block_counts(RADIX, |i| digit(host_keys[i], SHIFT));
        for checker in CHECKERS {
            let dev = device(checker);
            let keys = dev.alloc_from(&host_keys).unwrap();
            let counts = dev.alloc::<u64>(BLOCKS * RADIX).unwrap();
            let kernel = DigitCount {
                n: N,
                block_size: BLOCK,
                shift: SHIFT,
                keys: dev.slice(&keys).unwrap(),
                counts: dev.slice_mut(&counts).unwrap(),
            };
            launch_twice(&dev, checker, RADIX * 8, 1, kernel, || {
                assert_eq!(dev.read_vec(&counts).unwrap(), expect);
            });
        }
    }

    #[test]
    fn scatter_ranks_from_one_leader_sweep_and_stays_stable() {
        let host_keys = sort_keys();
        let host_idx: Vec<u64> = (0..N as u64).collect();
        // Bases as `ScanDigits` leaves them: digit-major, block-minor.
        let counts = block_counts(RADIX, |i| digit(host_keys[i], SHIFT));
        let mut host_bases = vec![0u64; BLOCKS * RADIX];
        let mut running = 0;
        for d in 0..RADIX {
            for blk in 0..BLOCKS {
                host_bases[blk * RADIX + d] = running;
                running += counts[blk * RADIX + d];
            }
        }
        // One stable pass: order by this digit, ties by original index.
        let mut order: Vec<usize> = (0..N).collect();
        order.sort_by_key(|&i| digit(host_keys[i], SHIFT));
        let expect_keys: Vec<u64> = order.iter().map(|&i| host_keys[i]).collect();
        let expect_idx: Vec<u64> = order.iter().map(|&i| i as u64).collect();

        for checker in CHECKERS {
            let dev = device(checker);
            let keys_src = dev.alloc_from(&host_keys).unwrap();
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
            launch_twice(&dev, checker, BLOCK * 8, 1, kernel, || {
                assert_eq!(dev.read_vec(&keys_dst).unwrap(), expect_keys);
                assert_eq!(dev.read_vec(&idx_dst).unwrap(), expect_idx);
            });
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn an_unchecked_key_past_the_bins_dies_in_shared_memory() {
        let dev = device(Checker::Plain);
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
}
