//! Simulator implementations of the portable device primitives: scan,
//! histogram and sort-by-key, in the same block-local-phases + cross-block
//! combine shape real GPU primitive libraries use, so the modeled costs are
//! realistic.
//!
//! Determinism: all cross-tile combines follow the canonical association of
//! `racc_core::prim` — tile boundaries are `PRIM_TILE`-wide (a pure
//! function of `n`, never of device geometry), and the cross-tile fold is
//! one sequential chain executed by a single simulated thread. Block sizes
//! differ per vendor profile, but they only change *which thread* computes
//! a tile, never the combine tree — so every simulator matches the serial
//! reference bitwise, including for `f32`.

use racc_core::prim::{self, PRIM_TILE};
use racc_core::{AccScalar, KernelProfile, ReduceOp};
use racc_gpusim::perf::KernelCost;
use racc_gpusim::{
    DeviceSlice, DeviceSliceMut, LaunchConfig, PhasedKernel, SharedMem, SinglePhase, ThreadCtx,
};

#[cfg(feature = "trace")]
use racc_core::trace::{ConstructKind, Span};
#[cfg(feature = "trace")]
use racc_core::Timeline;

use crate::SimBackend;

/// Base-2 digit width of the radix sort (one byte per pass): 256 counters
/// of 8 bytes fit the smallest device's shared memory.
const RADIX: usize = 256;

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
/// offset (tile 0 ignores it — see `racc_core::prim::scan_tile_write`).
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
/// bin range in shared memory. Thread `ti` owns every bin `b` with
/// `b % block == ti`, scans the block's element span counting its owned
/// bins (race-free without atomics), then writes them back to the block's
/// scratch row.
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

    fn phase(&self, phase: usize, ctx: &ThreadCtx, _state: &mut (), shared: &SharedMem) {
        let ti = ctx.thread_linear();
        let blk = ctx.block_linear();
        let start = blk * self.block_size;
        let end = (start + self.block_size).min(self.n);
        if phase == 0 {
            for i in start..end {
                let bin = (self.key)(i);
                if bin % self.block_size == ti {
                    // Shared memory is bounds-asserted: an out-of-range key
                    // dies here (the unguarded path simsan must catch).
                    shared.set::<u64>(bin, shared.get::<u64>(bin) + 1);
                }
            }
        } else {
            let mut bin = ti;
            while bin < self.bins {
                self.scratch
                    .set(blk * self.bins + bin, shared.get::<u64>(bin));
                bin += self.block_size;
            }
        }
    }
}

/// Histogram kernel 1 (large-bins fallback): same ownership striding, but
/// counts go straight to the block's scratch row in device memory. The
/// zeroing phase makes a faulted-and-retried launch idempotent.
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

    fn phase(&self, phase: usize, ctx: &ThreadCtx, _state: &mut (), _shared: &SharedMem) {
        let ti = ctx.thread_linear();
        let blk = ctx.block_linear();
        let start = blk * self.block_size;
        let end = (start + self.block_size).min(self.n);
        for i in start..end {
            let bin = (self.key)(i);
            if bin % self.block_size == ti {
                let cell = blk * self.bins + bin;
                if phase == 0 {
                    self.scratch.set(cell, 0);
                } else {
                    self.scratch.set(cell, self.scratch.get(cell) + 1);
                }
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

/// Radix kernel 1: per-block digit counts. Thread `ti` owns digits `d`
/// with `d % block == ti`, counts them over the block span in shared
/// memory (phase 0), and writes all owned cells of the block's count row
/// (phase 1) — assignment, so retried launches and count-buffer reuse
/// across passes are safe.
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

    fn phase(&self, phase: usize, ctx: &ThreadCtx, _state: &mut (), shared: &SharedMem) {
        let ti = ctx.thread_linear();
        let blk = ctx.block_linear();
        let start = blk * self.block_size;
        let end = (start + self.block_size).min(self.n);
        if phase == 0 {
            for i in start..end {
                let d = ((self.keys.get(i) >> self.shift) & 0xFF) as usize;
                if d % self.block_size == ti {
                    shared.set::<u64>(d, shared.get::<u64>(d) + 1);
                }
            }
        } else {
            let mut d = ti;
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

/// Radix kernel 3: scatter. Each thread recomputes its element's rank among
/// same-digit elements earlier in its block (an O(block) rescan — the cost
/// of atomics-free determinism) and writes key+index to their unique
/// destination in the other ping-pong buffer. Blocks ascend and in-block
/// ranks ascend, so each pass is stable.
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

    fn phase(&self, _phase: usize, ctx: &ThreadCtx, _state: &mut (), _shared: &SharedMem) {
        let i = ctx.global_id_x();
        if i >= self.n {
            return;
        }
        let blk = ctx.block_linear();
        let d = ((self.keys_src.get(i) >> self.shift) & 0xFF) as usize;
        let mut rank = 0u64;
        for j in blk * self.block_size..i {
            if ((self.keys_src.get(j) >> self.shift) & 0xFF) as usize == d {
                rank += 1;
            }
        }
        let dst = (self.bases.get(blk * RADIX + d) + rank) as usize;
        self.keys_dst.set(dst, self.keys_src.get(i));
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

    pub(crate) fn sim_prim_scan<T, F, W, O>(
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
        // Block size bounded by shared capacity too: kernel 1 stages one
        // tile total per thread in shared memory.
        let max_for_shared = (device.spec().shared_mem_per_block / elem).max(1);
        let block = (self.block_1d(tiles) as usize).min(max_for_shared);

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

    pub(crate) fn sim_prim_histogram<F, W>(
        &self,
        n: usize,
        bins: usize,
        profile: &KernelProfile,
        key: F,
        write: W,
    ) where
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
        // whole bin range fits, else striped straight into the scratch row.
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

    pub(crate) fn sim_prim_sort_pairs<F, W>(
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
            total_ns += Self::unwrap_launch(self.with_retry("launch", || {
                device.launch_phased(cfg_n, scaled_cost(profile, block), &k3)
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
