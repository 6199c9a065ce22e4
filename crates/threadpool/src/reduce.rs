//! Parallel reductions over the pool.
//!
//! Every tile of the launch (see `schedule.rs::Tiling`) folds into its own
//! 128-byte-aligned partial slot, and the caller combines the slots **in
//! ascending tile order** after the join. Tile boundaries depend only on
//! `(n, schedule, participants)` — never on which participant executed which
//! tile — so the combine tree is fixed no matter how tasks are split or
//! stolen: reductions are bit-reproducible run to run for a fixed pool size
//! and schedule, under both `Static` and `Dynamic`.

use std::cell::UnsafeCell;

use crate::pool::ThreadPool;
use crate::schedule::{Schedule, Tiling};
use crate::scratch;

/// One tile's reduction partial, padded to its own pair of cache lines so
/// neighboring accumulators never share a line (false sharing).
#[repr(align(128))]
struct PaddedPartial<T>(UnsafeCell<Option<T>>);

/// Upper bound on reduction tiles: each tile owns a 128-byte slot in the
/// caller's reusable scratch, so a `chunk: 1` reduction over millions of
/// elements must not allocate millions of slots. Grains are raised just
/// enough to respect the cap; boundaries stay a pure function of the inputs,
/// so determinism is unaffected.
const REDUCE_MAX_TILES: usize = 1024;

/// Shared view of the per-tile partial slots handed to the tile executors.
///
/// Safety contract: tile `t` is executed by exactly one task executor (tasks
/// partition the tile space), so slot `t` is never touched concurrently; the
/// launch's `tiles_left` release/acquire protocol orders every slot write
/// before the caller's combine loop. That exclusivity is what lets the slots
/// drop the `Mutex` the original implementation paid for on every access.
struct PartialSlots<T> {
    ptr: *const PaddedPartial<T>,
    len: usize,
}

// Manual impls: derived Clone/Copy would add a spurious `T: Clone` bound.
impl<T> Clone for PartialSlots<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for PartialSlots<T> {}

// SAFETY: per the contract above, no slot is ever accessed from two threads
// concurrently; `T: Send` (enforced at the public entry points) lets the
// value itself cross threads.
unsafe impl<T> Sync for PartialSlots<T> {}
unsafe impl<T> Send for PartialSlots<T> {}

impl<T> PartialSlots<T> {
    /// Move slot `t`'s value out.
    ///
    /// # Safety
    /// The caller must hold exclusive logical access to slot `t` (the
    /// executor of tile `t` during the launch, or the caller after the join).
    unsafe fn take(&self, t: usize) -> Option<T> {
        debug_assert!(t < self.len);
        (*(*self.ptr.add(t)).0.get()).take()
    }

    /// Store `value` into slot `t`. Same safety contract as [`Self::take`].
    unsafe fn put(&self, t: usize, value: T) {
        debug_assert!(t < self.len);
        *(*self.ptr.add(t)).0.get() = Some(value);
    }
}

/// Tile width of [`ordered_tiled_fold`]: big enough to amortize the tile
/// loop and let a heavy `map` vectorize, small enough that a tile of
/// partials (256 B for `f64`) stays in registers/L1.
const FOLD_TILE: usize = 32;

/// Fold `map(i)` for `i in start..end` into `acc` **in ascending index
/// order**, tile by tile: each tile first evaluates `map` into a stack
/// buffer, then folds the buffer in order.
///
/// The combine association is *identical* to the naive
/// `for i { acc = combine(acc, map(i)) }` loop — `map` and `combine` are
/// pure, so only the interleaving changes, never the operand order — which
/// keeps every reduction bit-reproducible. The point of the tiling is
/// optimizer robustness: a heavy `map` (a fused matvec+dot row, say) sits
/// in its own loop with no loop-carried dependence, so it can vectorize,
/// instead of being serialized by the scalar `acc` chain. Whether the
/// straight-line fold vectorizes such a body is codegen-unit luck — with
/// the tile split it no longer has to.
///
/// On panic inside `map`/`combine`, already-mapped buffer elements leak
/// (never double-dropped); reductions here are over plain scalars.
pub fn ordered_tiled_fold<T, F, C>(mut acc: T, start: usize, end: usize, map: &F, combine: &C) -> T
where
    F: Fn(usize) -> T,
    C: Fn(T, T) -> T,
{
    let mut buf: [std::mem::MaybeUninit<T>; FOLD_TILE] =
        // SAFETY: an array of `MaybeUninit` needs no initialization.
        unsafe { std::mem::MaybeUninit::uninit().assume_init() };
    let mut i = start;
    while i < end {
        let t = FOLD_TILE.min(end - i);
        for (j, slot) in buf[..t].iter_mut().enumerate() {
            slot.write(map(i + j));
        }
        for slot in &buf[..t] {
            // SAFETY: slots 0..t were just written; each is read exactly once.
            acc = combine(acc, unsafe { slot.assume_init_read() });
        }
        i += t;
    }
    acc
}

/// Clean single-thread fold. Kept out of `parallel_reduce`'s body: there
/// the erased executor borrows `map`/`combine`, which takes their address
/// and blocks loop optimization of the serial path.
#[inline(never)]
fn serial_fold<T, F, C>(n: usize, identity: T, map: F, combine: C) -> T
where
    F: Fn(usize) -> T,
    C: Fn(T, T) -> T,
{
    ordered_tiled_fold(identity, 0, n, &map, &combine)
}

/// Type-erased payload of a `parallel_reduce` launch.
struct ReduceData<T, F, C> {
    map: *const F,
    combine: *const C,
    tiling: Tiling,
    partials: PartialSlots<T>,
}

/// Tile-range executor for `parallel_reduce`: folds each tile in `[t0, t1)`
/// from its seeded slot value, in ascending index order, back into its slot.
///
/// # Safety
/// `data` must point to a live `ReduceData<T, F, C>` whose referents outlive
/// the call, and tiles `[t0, t1)` must be executed by no other task.
unsafe fn exec_reduce<T, F, C>(data: *const (), t0: usize, t1: usize)
where
    F: Fn(usize) -> T,
    C: Fn(T, T) -> T,
{
    let d = &*(data as *const ReduceData<T, F, C>);
    let map = &*d.map;
    let combine = &*d.combine;
    for t in t0..t1 {
        let (s, e) = d.tiling.tile_range(t);
        // SAFETY: this executor owns tile `t` exclusively (see contract).
        let acc = d.partials.take(t).expect("tile partial seeded");
        let acc = ordered_tiled_fold(acc, s, e, map, combine);
        d.partials.put(t, acc);
    }
}

impl ThreadPool {
    /// Reduce `map(i)` for `i in 0..n` with the binary operator `combine`,
    /// starting each partial from `identity`.
    ///
    /// `combine` must be associative. The combine tree is a pure function of
    /// `(n, schedule, participants)`: each tile folds into its own slot and
    /// the slots combine in tile order, so results are deterministic run to
    /// run for both schedules regardless of how work is stolen. (Floating
    /// point results still differ from the serial association, as any
    /// parallel partition must.)
    pub fn parallel_reduce<T, F, C>(
        &self,
        n: usize,
        schedule: Schedule,
        identity: T,
        map: F,
        combine: C,
    ) -> T
    where
        T: Send + Clone,
        F: Fn(usize) -> T + Sync,
        C: Fn(T, T) -> T + Sync,
    {
        if n == 0 {
            return identity;
        }
        let p = self.num_threads();
        if p == 1 {
            // Separate frame: see `serial_fold` for why.
            return serial_fold(n, identity, map, combine);
        }
        let tiling = Tiling::with_max_tiles(schedule, n, p, REDUCE_MAX_TILES);
        let tiles = tiling.tiles();
        if tiles <= 1 {
            return serial_fold(n, identity, map, combine);
        }
        // Pre-seed one identity per tile so the executors never touch
        // `identity` itself (avoiding a `T: Sync` requirement). The padded
        // slots live in this thread's reusable scratch buffer, so
        // steady-state reductions perform zero heap allocations.
        scratch::with_thread_scratch(|buf| {
            scratch::with_slots(
                buf,
                tiles,
                || PaddedPartial(UnsafeCell::new(Some(identity.clone()))),
                |slots| {
                    let partials = PartialSlots {
                        ptr: slots.as_ptr(),
                        len: tiles,
                    };
                    let data = ReduceData {
                        map: &map as *const F,
                        combine: &combine as *const C,
                        tiling,
                        partials,
                    };
                    // SAFETY: run_tiled is fully synchronous, so every raw
                    // pointer in `data` outlives the launch; exec_reduce's
                    // per-tile slot accesses are exclusive by construction.
                    unsafe {
                        self.run_tiled(
                            tiling,
                            exec_reduce::<T, F, C>,
                            &data as *const ReduceData<T, F, C> as *const (),
                        );
                    }
                    let mut acc = identity.clone();
                    for t in 0..tiles {
                        // SAFETY: the launch has joined, so the caller holds
                        // exclusive access to every slot.
                        if let Some(part) = unsafe { partials.take(t) } {
                            acc = combine(acc, part);
                        }
                    }
                    acc
                },
            )
        })
    }

    /// 2D reduction over `0..m × 0..n`, distributed column-wise: the `j`
    /// (column) loop is distributed, each column folds inside one task —
    /// the coarse-grain column-major decomposition the paper describes for
    /// the Base.Threads back end.
    pub fn parallel_reduce_2d<T, F, C>(
        &self,
        m: usize,
        n: usize,
        schedule: Schedule,
        identity: T,
        map: F,
        combine: C,
    ) -> T
    where
        T: Send + Sync + Clone,
        F: Fn(usize, usize) -> T + Sync,
        C: Fn(T, T) -> T + Sync,
    {
        if m == 0 {
            return identity;
        }
        self.parallel_reduce(
            n,
            schedule,
            identity.clone(),
            |j| {
                let mut acc = identity.clone();
                for i in 0..m {
                    acc = combine(acc, map(i, j));
                }
                acc
            },
            &combine,
        )
    }

    /// 3D reduction over `0..m × 0..n × 0..l`, distributed over the
    /// outermost `k` (plane) loop.
    #[allow(clippy::too_many_arguments)]
    pub fn parallel_reduce_3d<T, F, C>(
        &self,
        m: usize,
        n: usize,
        l: usize,
        schedule: Schedule,
        identity: T,
        map: F,
        combine: C,
    ) -> T
    where
        T: Send + Sync + Clone,
        F: Fn(usize, usize, usize) -> T + Sync,
        C: Fn(T, T) -> T + Sync,
    {
        if m == 0 || n == 0 {
            return identity;
        }
        self.parallel_reduce(
            l,
            schedule,
            identity.clone(),
            |k| {
                let mut acc = identity.clone();
                for j in 0..n {
                    for i in 0..m {
                        acc = combine(acc, map(i, j, k));
                    }
                }
                acc
            },
            &combine,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_matches_closed_form() {
        let pool = ThreadPool::new(4);
        for n in [0usize, 1, 2, 17, 1000, 100_000] {
            let s = pool.parallel_reduce(n, Schedule::Static, 0u64, |i| i as u64, |a, b| a + b);
            assert_eq!(s, (n as u64 * n.saturating_sub(1) as u64) / 2, "n={n}");
        }
    }

    #[test]
    fn dynamic_schedule_same_total() {
        let pool = ThreadPool::new(4);
        let n = 54_321;
        let expected = (n as u64 * (n as u64 - 1)) / 2;
        for chunk in [0usize, 1, 13, 4096] {
            let s = pool.parallel_reduce(
                n,
                Schedule::Dynamic { chunk },
                0u64,
                |i| i as u64,
                |a, b| a + b,
            );
            assert_eq!(s, expected, "chunk={chunk}");
        }
    }

    #[test]
    fn max_reduction() {
        let pool = ThreadPool::new(3);
        let data: Vec<i64> = (0..10_000)
            .map(|i| ((i * 2654435761u64 as usize) % 99991) as i64)
            .collect();
        let expected = *data.iter().max().unwrap();
        let got = pool.parallel_reduce(
            data.len(),
            Schedule::Static,
            i64::MIN,
            |i| data[i],
            |a, b| a.max(b),
        );
        assert_eq!(got, expected);
    }

    #[test]
    fn static_reduce_is_deterministic_for_floats() {
        let pool = ThreadPool::new(4);
        let data: Vec<f64> = (0..100_000).map(|i| (i as f64).sin()).collect();
        let r1 = pool.parallel_reduce(data.len(), Schedule::Static, 0.0, |i| data[i], |a, b| a + b);
        let r2 = pool.parallel_reduce(data.len(), Schedule::Static, 0.0, |i| data[i], |a, b| a + b);
        assert_eq!(r1.to_bits(), r2.to_bits());
    }

    #[test]
    fn dynamic_reduce_is_deterministic_for_floats() {
        // New with the work-stealing core: dynamic tiles own fixed slots
        // combined in tile order, so even Dynamic reductions are
        // bit-reproducible run to run (the counter-based core was not).
        let pool = ThreadPool::new(4);
        let data: Vec<f64> = (0..50_000).map(|i| (i as f64).cos()).collect();
        for chunk in [0usize, 13, 1024] {
            let sched = Schedule::Dynamic { chunk };
            let r1 = pool.parallel_reduce(data.len(), sched, 0.0, |i| data[i], |a, b| a + b);
            let r2 = pool.parallel_reduce(data.len(), sched, 0.0, |i| data[i], |a, b| a + b);
            assert_eq!(r1.to_bits(), r2.to_bits(), "chunk={chunk}");
        }
    }

    #[test]
    fn reduce_2d_matches_serial() {
        let pool = ThreadPool::new(4);
        let (m, n) = (33, 47);
        let serial: u64 = (0..m * n).map(|x| x as u64).sum();
        let par = pool.parallel_reduce_2d(
            m,
            n,
            Schedule::Static,
            0u64,
            |i, j| (j * m + i) as u64,
            |a, b| a + b,
        );
        assert_eq!(par, serial);
    }

    #[test]
    fn reduce_3d_matches_serial() {
        let pool = ThreadPool::new(4);
        let (m, n, l) = (9, 11, 13);
        let serial: u64 = (0..m * n * l).map(|x| x as u64).sum();
        let par = pool.parallel_reduce_3d(
            m,
            n,
            l,
            Schedule::Static,
            0u64,
            |i, j, k| ((k * n + j) * m + i) as u64,
            |a, b| a + b,
        );
        assert_eq!(par, serial);
    }

    #[test]
    fn degenerate_dimensions() {
        let pool = ThreadPool::new(4);
        assert_eq!(
            pool.parallel_reduce_2d(0, 5, Schedule::Static, 7u64, |_, _| 1, |a, b| a + b),
            7
        );
        assert_eq!(
            pool.parallel_reduce_2d(5, 0, Schedule::Static, 7u64, |_, _| 1, |a, b| a + b),
            7
        );
        assert_eq!(
            pool.parallel_reduce_3d(0, 1, 1, Schedule::Static, 3u64, |_, _, _| 1, |a, b| a + b),
            3
        );
    }

    #[test]
    fn single_thread_reduce() {
        let pool = ThreadPool::new(1);
        let s = pool.parallel_reduce(100, Schedule::Static, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(s, 4950);
    }

    #[test]
    fn reduce_with_panic_leaves_pool_usable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_reduce(
                10_000,
                Schedule::Dynamic { chunk: 16 },
                0u64,
                |i| {
                    if i == 5_000 {
                        panic!("reduce boom");
                    }
                    i as u64
                },
                |a, b| a + b,
            )
        }));
        assert!(result.is_err());
        let s = pool.parallel_reduce(100, Schedule::Static, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(s, 4950);
    }
}
