//! The primitives on the two CPU back ends, each inside the construct
//! bracket `racc-core` runs its own constructs in ([`racc_core::host`]):
//! one modeled launch and one span per primitive, however many pool
//! launches it takes.
//!
//! `SerialBackend` runs the [`reference`] itself — it *is* what the other
//! back ends are pinned against. `ThreadsBackend` runs the same fixed tiles
//! on its pool.

use racc_core::host::{tag, Host, Open};
use racc_core::{AccScalar, KernelProfile, ReduceOp, SerialBackend, ThreadsBackend};

use crate::reference::{self, PRIM_TILE};
use crate::PrimBackend;

/// CPU tile width for histogram/sort: at least `PRIM_TILE`, growing so no
/// more than `MAX_TILES` exist and per-tile scratch stays bounded on huge
/// inputs (mirrors the threadpool's `REDUCE_MAX_TILES`). Pure function of `n`.
#[inline]
fn cpu_tile_width(n: usize) -> usize {
    const MAX_TILES: usize = 1024;
    PRIM_TILE.max(n.div_ceil(MAX_TILES))
}

/// A fixed-size slot vector writable from many threads, where the caller
/// guarantees each index is written by exactly one task (disjoint tiles).
struct SlotVec<T> {
    slots: Vec<std::cell::UnsafeCell<T>>,
}

// SAFETY: the contract above — disjoint indices per task — makes concurrent
// `set` calls race-free; reads only happen after the parallel phase joins.
unsafe impl<T: Send> Sync for SlotVec<T> {}

impl<T: Copy> SlotVec<T> {
    fn new(len: usize, fill: T) -> Self {
        SlotVec {
            slots: (0..len).map(|_| std::cell::UnsafeCell::new(fill)).collect(),
        }
    }

    /// Store `v` at `i`. Caller guarantees no other task touches `i`
    /// during the parallel phase.
    #[inline]
    fn set(&self, i: usize, v: T) {
        unsafe { *self.slots[i].get() = v }
    }

    #[inline]
    fn get(&self, i: usize) -> T {
        unsafe { *self.slots[i].get() }
    }

    /// Exclusive view of the half-open slot range `[start, end)`. Caller
    /// guarantees no other task overlaps the range during the parallel
    /// phase.
    ///
    /// # Safety
    /// Ranges handed out concurrently must be disjoint.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, start: usize, end: usize) -> &mut [T] {
        assert!(start <= end && end <= self.slots.len());
        // UnsafeCell<T> is layout-identical to T.
        let base = self.slots.as_ptr() as *mut T;
        std::slice::from_raw_parts_mut(base.add(start), end - start)
    }

    fn into_vec(self) -> Vec<T> {
        self.slots.into_iter().map(|c| c.into_inner()).collect()
    }
}

/// `f`, telling the race checker first which element it is about to read.
#[inline]
fn tagged<R>(f: impl Fn(usize) -> R) -> impl Fn(usize) -> R {
    move |i| {
        tag(i as u64);
        f(i)
    }
}

/// One modeled launch over `visits` element visits, on the `Prim` lane.
#[inline]
fn close(host: &Host, open: Open, visits: usize, dims: [usize; 3], profile: &KernelProfile) {
    #[cfg(feature = "trace")]
    host.close_launch_as(
        open,
        racc_core::trace::ConstructKind::Prim,
        visits,
        dims,
        profile,
    );
    #[cfg(not(feature = "trace"))]
    host.close_launch(open, visits, dims, profile);
}

/// A scan sweeps the data twice: tile totals, then the output pass.
#[inline]
fn close_scan(host: &Host, open: Open, n: usize, profile: &KernelProfile) {
    close(host, open, 2 * n, [n, 1, 1], profile);
}

/// A histogram visits every element and writes every bin.
#[inline]
fn close_histogram(host: &Host, open: Open, n: usize, bins: usize, profile: &KernelProfile) {
    close(host, open, n + bins, [n, bins, 1], profile);
}

/// A comparison sort: `n log2 n` element visits.
#[inline]
fn close_sort(host: &Host, open: Open, n: usize, key_bits: u32, profile: &KernelProfile) {
    let log_n = (usize::BITS - n.max(1).leading_zeros()) as usize;
    close(
        host,
        open,
        n * log_n.max(1),
        [n, key_bits as usize, 1],
        profile,
    );
}

impl PrimBackend for SerialBackend {
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
        let open = self.host().open();
        // The canonical two-level association *is* the reference the other
        // backends are pinned against (see `reference`).
        reference::scan_canonical(n, inclusive, &tagged(&read), &write, op);
        close_scan(self.host(), open, n, profile);
    }

    fn prim_histogram<F, W>(&self, n: usize, bins: usize, profile: &KernelProfile, key: F, write: W)
    where
        F: Fn(usize) -> usize + Sync,
        W: Fn(usize, u64) + Sync,
    {
        let open = self.host().open();
        reference::histogram_canonical(n, bins, &tagged(&key), &write);
        close_histogram(self.host(), open, n, bins, profile);
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
        let open = self.host().open();
        reference::sort_pairs_canonical(n, &tagged(&key), &write);
        close_sort(self.host(), open, n, key_bits, profile);
    }
}

impl PrimBackend for ThreadsBackend {
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
        let open = self.host().open();
        // Same fixed PRIM_TILE tiling as the serial reference: tile totals
        // in parallel (each tile owns its slot), one sequential fold over
        // the totals, then the output pass in parallel. Tile boundaries are
        // a pure function of n, so stealing cannot change any combine.
        let tiles = reference::scan_tiles(n);
        let totals = SlotVec::new(tiles, op.identity());
        self.pool().parallel_for(tiles, self.schedule(), |t| {
            let total = reference::tile_total(t, n, &tagged(&read), op);
            totals.set(t, total);
        });
        let offsets = reference::tile_offsets(&totals.into_vec(), op);
        self.pool().parallel_for(tiles, self.schedule(), |t| {
            reference::scan_tile_write(t, n, inclusive, offsets[t], &tagged(&read), &write, op);
        });
        close_scan(self.host(), open, n, profile);
    }

    fn prim_histogram<F, W>(&self, n: usize, bins: usize, profile: &KernelProfile, key: F, write: W)
    where
        F: Fn(usize) -> usize + Sync,
        W: Fn(usize, u64) + Sync,
    {
        let open = self.host().open();
        // Privatized histogram: each tile counts into its own row of the
        // scratch matrix, then bins are summed across rows in ascending
        // tile order. Counts are u64, so any order would do — the fixed
        // order keeps the discipline uniform with the float primitives.
        // A tile is at least `bins` wide, so the scratch matrix (allocated,
        // zeroed and re-summed per call) is O(n) cells, never
        // O(n / PRIM_TILE × bins); exact counts make any width bit-identical.
        let w = cpu_tile_width(n).max(bins);
        let tiles = n.div_ceil(w);
        let counts = SlotVec::new(tiles * bins, 0u64);
        self.pool().parallel_for(tiles, self.schedule(), |t| {
            let row = unsafe { counts.slice_mut(t * bins, (t + 1) * bins) };
            let (start, end) = (t * w, ((t + 1) * w).min(n));
            for i in start..end {
                tag(i as u64);
                row[key(i)] += 1;
            }
        });
        self.pool().parallel_for(bins, self.schedule(), |bin| {
            tag(bin as u64);
            let mut sum = 0u64;
            for t in 0..tiles {
                sum += counts.get(t * bins + bin);
            }
            write(bin, sum);
        });
        close_histogram(self.host(), open, n, bins, profile);
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
        let open = self.host().open();
        // Tiled merge sort over (bits, index) pairs: tile-local sorts in
        // parallel, then deterministic pairwise merge rounds with fixed run
        // boundaries. Ties break toward the smaller original index, so the
        // result is the unique stable order — identical to the canonical
        // reference regardless of thread count or stealing.
        let w = cpu_tile_width(n);
        let tiles = n.div_ceil(w);
        let a = SlotVec::new(n, (0u64, 0u64));
        let b = SlotVec::new(n, (0u64, 0u64));
        self.pool().parallel_for(tiles, self.schedule(), |t| {
            let (start, end) = (t * w, ((t + 1) * w).min(n));
            let run = unsafe { a.slice_mut(start, end) };
            for (off, slot) in run.iter_mut().enumerate() {
                let i = start + off;
                tag(i as u64);
                *slot = (key(i), i as u64);
            }
            run.sort_unstable();
        });
        let (mut src, mut dst) = (&a, &b);
        let mut width = w;
        while width < n {
            let pairs = n.div_ceil(2 * width);
            self.pool().parallel_for(pairs, self.schedule(), |p| {
                let lo = p * 2 * width;
                let mid = (lo + width).min(n);
                let hi = (lo + 2 * width).min(n);
                let out = unsafe { dst.slice_mut(lo, hi) };
                let (mut i, mut j) = (lo, mid);
                for slot in out.iter_mut() {
                    let take_left = j >= hi || (i < mid && src.get(i) <= src.get(j));
                    if take_left {
                        *slot = src.get(i);
                        i += 1;
                    } else {
                        *slot = src.get(j);
                        j += 1;
                    }
                }
            });
            std::mem::swap(&mut src, &mut dst);
            width *= 2;
        }
        self.pool().parallel_for(n, self.schedule(), |rank| {
            tag(rank as u64);
            write(rank, src.get(rank).1 as usize);
        });
        close_sort(self.host(), open, n, key_bits, profile);
    }
}
