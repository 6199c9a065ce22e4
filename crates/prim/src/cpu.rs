//! The primitives on the two CPU back ends, each inside the construct
//! bracket `racc-core` runs its own constructs in ([`racc_core::host`]):
//! one modeled launch and one span per primitive, however many pool
//! launches it takes.
//!
//! `SerialBackend` runs the [`reference`] scan and histogram itself — they
//! *are* what the other back ends are pinned against. `ThreadsBackend` runs
//! the same fixed tiles on its pool. Both sort with one stable LSD radix
//! ([`radix_sort_pairs`]), `serial` as one tile and `threads` over tiles on
//! its pool; the reference's comparison sort is its specification.

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

/// Radix-sort tile width on `threads`: sixteen `cpu_tile_width` tiles. A
/// radix tile owns 256 digit counters per pass, so at `PRIM_TILE` wide the
/// count matrix would hold one cell per key and cost as much as the keys.
#[inline]
fn radix_tile_width(n: usize) -> usize {
    16 * cpu_tile_width(n)
}

/// Element range of tile `t` of `w`-wide tiles over `n` elements.
#[inline]
fn tile_range(t: usize, w: usize, n: usize) -> std::ops::Range<usize> {
    t * w..((t + 1) * w).min(n)
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

/// `write`, telling the race checker first which output it is about to
/// write.
#[inline]
fn tagged_write<T>(write: impl Fn(usize, T)) -> impl Fn(usize, T) {
    move |i, v| {
        tag(i as u64);
        write(i, v)
    }
}

/// How a CPU back end runs the tiles of one phase: in order on the caller,
/// or spread over its pool.
trait RunTiles {
    fn run_tiles(&self, tiles: usize, f: impl Fn(usize) + Sync);
}

impl RunTiles for SerialBackend {
    #[inline]
    fn run_tiles(&self, tiles: usize, f: impl Fn(usize) + Sync) {
        (0..tiles).for_each(f)
    }
}

impl RunTiles for ThreadsBackend {
    #[inline]
    fn run_tiles(&self, tiles: usize, f: impl Fn(usize) + Sync) {
        self.pool().parallel_for(tiles, self.schedule(), f)
    }
}

/// Digits of the radix sort: one byte per pass.
const RADIX: usize = 256;

/// Index type of the radix sort's scratch: `u32` while `n` fits, so the
/// keys and the two index buffers take 16 B per element. Only values up to
/// `n` are stored, so `new` never truncates.
trait RadixIndex: Copy + Send + Sync {
    fn new(i: usize) -> Self;
    fn index(self) -> usize;
}

impl RadixIndex for u32 {
    #[inline]
    fn new(i: usize) -> Self {
        i as u32
    }
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

impl RadixIndex for usize {
    #[inline]
    fn new(i: usize) -> Self {
        i
    }
    #[inline]
    fn index(self) -> usize {
        self
    }
}

/// The sort both CPU back ends run: a stable LSD radix-256 sort of
/// `key(0..n)` over `w`-wide tiles, which reports the permutation through
/// `write(rank, original_index)`. Every key is read once; a byte in which no
/// two keys differ costs no pass, so 13-bit keys take two passes and equal
/// keys none. A pass counts digits per tile, scans the counts to bases
/// ordered by digit then tile, and scatters each tile's indices stably; the
/// last pass scatters straight into `write`. The stable permutation is
/// unique, so tile width and worker count cannot change it.
fn radix_sort_pairs<R, F, W>(n: usize, key_bits: u32, w: usize, run: &R, key: &F, write: &W)
where
    R: RunTiles,
    F: Fn(usize) -> u64 + Sync,
    W: Fn(usize, usize) + Sync,
{
    if u32::try_from(n).is_ok() {
        radix_sort::<u32, _, _, _>(n, key_bits, w, run, key, write)
    } else {
        radix_sort::<usize, _, _, _>(n, key_bits, w, run, key, write)
    }
}

fn radix_sort<I, R, F, W>(n: usize, key_bits: u32, w: usize, run: &R, key: &F, write: &W)
where
    I: RadixIndex,
    R: RunTiles,
    F: Fn(usize) -> u64 + Sync,
    W: Fn(usize, usize) + Sync,
{
    if n == 0 {
        return;
    }
    let tiles = n.div_ceil(w);
    // Read every key once, OR-ing and AND-ing each tile's keys together.
    let keys = SlotVec::new(n, 0u64);
    let masks = SlotVec::new(tiles, (0u64, 0u64));
    run.run_tiles(tiles, |t| {
        let range = tile_range(t, w, n);
        // SAFETY: tiles are disjoint ranges, and each tile runs once.
        let slots = unsafe { keys.slice_mut(range.start, range.end) };
        let (mut or, mut and) = (0, u64::MAX);
        for (slot, i) in slots.iter_mut().zip(range) {
            tag(i as u64);
            let k = key(i);
            *slot = k;
            or |= k;
            and &= k;
        }
        masks.set(t, (or, and));
    });
    let (or, and) = masks
        .into_vec()
        .into_iter()
        .fold((0, u64::MAX), |(or, and), (o, a)| (or | o, and & a));
    debug_assert!(
        key_bits >= u64::BITS || or >> key_bits == 0,
        "a sort key has a bit set at or above key_bits = {key_bits}"
    );
    let keys = keys.into_vec();
    // A byte is sorted on only if some two keys differ in it.
    let varying = or ^ and;
    let shifts: Vec<u32> = (0..u64::BITS)
        .step_by(8)
        .filter(|&s| (varying >> s) & 0xFF != 0)
        .collect();
    let emit = |rank: usize, i: usize| {
        tag(rank as u64);
        write(rank, i)
    };
    let Some((&last, rest)) = shifts.split_last() else {
        // Every key is equal: the identity is the stable order.
        run.run_tiles(tiles, |t| tile_range(t, w, n).for_each(|i| emit(i, i)));
        return;
    };
    let pass = Pass {
        keys: &keys,
        w,
        tiles,
        counts: SlotVec::new(RADIX * tiles, I::new(0)),
    };
    // Ping-pong index buffers, allocated only for the passes that need them.
    let bufs = [1, 2].map(|p| SlotVec::new(if rest.len() >= p { n } else { 0 }, I::new(0)));
    for (p, &shift) in rest.iter().enumerate() {
        let dst = &bufs[p % 2];
        let put = |rank: usize, i: usize| dst.set(rank, I::new(i));
        match p {
            0 => pass.run(run, shift, |j| j, put),
            _ => pass.run(run, shift, |j| bufs[(p - 1) % 2].get(j).index(), put),
        }
    }
    match rest.len() {
        0 => pass.run(run, last, |j| j, emit),
        p => pass.run(run, last, |j| bufs[(p - 1) % 2].get(j).index(), emit),
    }
}

/// What every pass of one radix sort shares: the keys in input order and
/// the digit-major count matrix (`counts[digit * tiles + tile]`).
struct Pass<'a, I> {
    keys: &'a [u64],
    w: usize,
    tiles: usize,
    counts: SlotVec<I>,
}

impl<I: RadixIndex> Pass<'_, I> {
    /// One stable pass on the byte at `shift`: element `src(j)` sits at
    /// position `j` before the pass and goes to `put(rank, src(j))`.
    fn run<R: RunTiles>(
        &self,
        run: &R,
        shift: u32,
        src: impl Fn(usize) -> usize + Sync,
        put: impl Fn(usize, usize) + Sync,
    ) {
        let (n, w, tiles) = (self.keys.len(), self.w, self.tiles);
        let digit = |i: usize| (self.keys[i] >> shift) as usize & (RADIX - 1);
        run.run_tiles(tiles, |t| {
            let mut count = [0usize; RADIX];
            tile_range(t, w, n).for_each(|j| count[digit(src(j))] += 1);
            for (d, &c) in count.iter().enumerate() {
                self.counts.set(d * tiles + t, I::new(c));
            }
        });
        let mut base = 0;
        for cell in 0..RADIX * tiles {
            let c = self.counts.get(cell).index();
            self.counts.set(cell, I::new(base));
            base += c;
        }
        run.run_tiles(tiles, |t| {
            let mut next: [usize; RADIX] =
                std::array::from_fn(|d| self.counts.get(d * tiles + t).index());
            for j in tile_range(t, w, n) {
                let i = src(j);
                let d = digit(i);
                put(next[d], i);
                next[d] += 1;
            }
        });
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

/// Charged as a comparison sort, `n log2 n` element visits, though both
/// CPU back ends run a radix sort: the charge is kept so that modeled times
/// stay where they are pinned (EXPERIMENTS.md "Known deviations").
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
        reference::histogram_canonical(n, bins, &tagged(&key), &tagged_write(&write));
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
        radix_sort_pairs(n, key_bits, n.max(1), self, &key, &write);
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
            for i in tile_range(t, w, n) {
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
        radix_sort_pairs(n, key_bits, radix_tile_width(n), self, &key, &write);
        close_sort(self.host(), open, n, key_bits, profile);
    }
}
