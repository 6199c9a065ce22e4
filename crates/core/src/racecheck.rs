//! Dynamic verification of the disjoint-writes contract: one phase-aware
//! [`RaceTracker`] for every back end.
//!
//! Every tracked access is recorded as `(allocation, element)` together with
//! the location it came from: a thread, the block it belongs to, and the
//! phase (barrier epoch) it ran in. Two accesses **race** when they come from
//! different threads, at least one of them writes, and no barrier orders
//! them. Within one block, accesses in *different* phases are separated by
//! the block-wide barrier and therefore ordered — a thread may legally
//! overwrite or read a value another thread of its block produced in an
//! earlier phase (the `__syncthreads` exchange pattern). Accesses from
//! different blocks are never synchronized within a launch, so any
//! cross-block overlap races regardless of phase. A thread may rewrite and
//! re-read its own element freely.
//!
//! Reads use a compressed per-element summary (block, latest phase, one/many
//! reader threads), so tracking stays bounded by elements touched, not total
//! accesses; per-block phase monotonicity makes discarding earlier-phase
//! same-block readers sound.
//!
//! Two users share the tracker:
//!
//! * the simulator (`racc-gpusim`) keeps one per device and tracks the
//!   launches its sanitizer checks: each simulated thread runs at its own
//!   `(thread, block, phase)`;
//! * the CPU back ends share one process-global instance, compiled in with
//!   the `racecheck` cargo feature and switched by `set_enabled`.
//!   Iteration `i` of a construct runs at `(i, i, 0)`: every iteration is a
//!   block of its own, so two iterations race on any element one of them
//!   writes and the other reads or writes. Iterations of a `parallel_for`
//!   have no order, so such an exchange is nondeterministic.
//!
//! The tracker is heavyweight (hash tables behind mutexes) and is meant for
//! tests and debugging, never for benchmarking.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Where a tracked access happened: which thread, in which block, during
/// which phase. `thread == u64::MAX` means "outside a tracked launch".
#[derive(Debug, Clone, Copy)]
struct Location {
    thread: u64,
    block: u64,
    phase: u32,
}

const UNTRACKED: Location = Location {
    thread: u64::MAX,
    block: 0,
    phase: 0,
};

thread_local! {
    /// The location currently executing on this host thread.
    static CURRENT: Cell<Location> = const { Cell::new(UNTRACKED) };
}

/// Install the location (thread, block, phase) the calling host thread
/// executes at while a tracked body runs.
#[inline]
pub fn set_location(thread: u64, block: u64, phase: u32) {
    CURRENT.with(|c| {
        c.set(Location {
            thread,
            block,
            phase,
        })
    });
}

/// Clear the location after a tracked body: accesses from here on are
/// host-side and not subject to the contract.
#[inline]
pub fn clear_location() {
    CURRENT.with(|c| c.set(UNTRACKED));
}

/// Compressed per-element read summary. Per-block phase monotonicity lets
/// same-block earlier-phase readers be forgotten when a later phase reads
/// (they can no longer race with any future same-block write), while a
/// cross-block read poisons the element for every future writer.
#[derive(Debug, Clone, Copy)]
struct ReadSet {
    /// Block of the readers (meaningful while `!multi_block`).
    block: u64,
    /// Latest phase a read happened in (same-block reads only).
    phase: u32,
    /// One reader thread at the latest phase.
    first: u64,
    /// More than one distinct reader thread at the latest phase.
    multi: bool,
    /// Readers from more than one block.
    multi_block: bool,
}

/// Two accesses race when they come from different threads and are not
/// ordered by a block barrier: either they are in different blocks (never
/// synchronized within a launch) or in the same block and the same phase.
#[inline]
fn races(a: Location, b: Location) -> bool {
    a.thread != b.thread && (a.block != b.block || a.phase == b.phase)
}

/// The access records of one launch epoch at a time (RACC's model is
/// synchronous, so launches never overlap).
#[derive(Debug, Default)]
pub struct RaceTracker {
    /// Map from (allocation base address, element index) to the **latest**
    /// legal writer in the current epoch. Legal overwrites (same thread, or
    /// same block in a later phase) replace the record, so the stored
    /// writer is always the one unordered accesses would race with.
    writes: Mutex<HashMap<(usize, usize), Location>>,
    /// Read summaries per element.
    reads: Mutex<HashMap<(usize, usize), ReadSet>>,
    reads_tracked: AtomicU64,
    writes_tracked: AtomicU64,
}

impl RaceTracker {
    /// Create an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin a new launch epoch, clearing previous access records.
    pub fn begin_epoch(&self) {
        self.writes.lock().clear();
        self.reads.lock().clear();
    }

    /// Record a write from the calling thread's location; panics on an
    /// unsynchronized overlap with another thread's write or read. Ignored
    /// outside a tracked launch (a host-side upload, say).
    pub fn record_write(&self, alloc_base: usize, index: usize) {
        let loc = CURRENT.with(|c| c.get());
        if loc.thread == UNTRACKED.thread {
            return;
        }
        self.writes_tracked.fetch_add(1, Ordering::Relaxed);
        match self.writes.lock().entry((alloc_base, index)) {
            Entry::Occupied(mut e) => {
                let prev = *e.get();
                if races(prev, loc) {
                    panic!(
                        "racecheck: threads {} and {} both wrote element {index} of \
                         allocation {alloc_base:#x} in one launch",
                        prev.thread, loc.thread
                    );
                }
                // Legal overwrite (same thread, or barrier-ordered): future
                // accesses race against the newer write.
                e.insert(loc);
            }
            Entry::Vacant(e) => {
                e.insert(loc);
            }
        }
        let Some(r) = self.reads.lock().get(&(alloc_base, index)).copied() else {
            return;
        };
        let reader_races = r.multi_block
            || r.block != loc.block
            || (r.phase == loc.phase && (r.multi || r.first != loc.thread));
        if reader_races {
            let reader = if r.first != loc.thread {
                format!("thread {}", r.first)
            } else {
                "another thread".to_string()
            };
            panic!(
                "racecheck: read-write race on element {index} of allocation \
                 {alloc_base:#x}: {reader} read it and thread {} wrote it without an \
                 intervening barrier",
                loc.thread
            );
        }
    }

    /// Record a read from the calling thread's location; panics when it is
    /// unsynchronized with a prior write by another thread. Ignored outside
    /// a tracked launch.
    pub fn record_read(&self, alloc_base: usize, index: usize) {
        let loc = CURRENT.with(|c| c.get());
        if loc.thread == UNTRACKED.thread {
            return;
        }
        self.reads_tracked.fetch_add(1, Ordering::Relaxed);
        match self.reads.lock().entry((alloc_base, index)) {
            Entry::Occupied(mut e) => {
                let r = e.get_mut();
                if !r.multi_block {
                    if r.block != loc.block {
                        r.multi_block = true;
                    } else if loc.phase > r.phase {
                        // Barrier passed: earlier-phase readers can no
                        // longer race with same-block future writes.
                        r.phase = loc.phase;
                        r.first = loc.thread;
                        r.multi = false;
                    } else if r.first != loc.thread {
                        r.multi = true;
                    }
                }
            }
            Entry::Vacant(e) => {
                e.insert(ReadSet {
                    block: loc.block,
                    phase: loc.phase,
                    first: loc.thread,
                    multi: false,
                    multi_block: false,
                });
            }
        }
        if let Some(w) = self.writes.lock().get(&(alloc_base, index)).copied() {
            if races(w, loc) {
                panic!(
                    "racecheck: read-write race on element {index} of allocation \
                     {alloc_base:#x}: thread {} wrote it and thread {} read it without \
                     an intervening barrier",
                    w.thread, loc.thread
                );
            }
        }
    }

    /// Total reads recorded (sanitizer report).
    pub fn reads_tracked(&self) -> u64 {
        self.reads_tracked.load(Ordering::Relaxed)
    }

    /// Total writes recorded (sanitizer report).
    pub fn writes_tracked(&self) -> u64 {
        self.writes_tracked.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// The CPU back ends' checker: the `racecheck` cargo feature. Without it, the
// construct bracket calls no-ops and the views record nothing.
// ---------------------------------------------------------------------------

#[cfg(feature = "racecheck")]
static ENABLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// The one tracker the CPU back ends share.
#[cfg(feature = "racecheck")]
fn cpu() -> &'static RaceTracker {
    static CPU: std::sync::OnceLock<RaceTracker> = std::sync::OnceLock::new();
    CPU.get_or_init(RaceTracker::new)
}

/// Switch the CPU back ends' checker on or off (process-global): while on,
/// every view read and write inside a construct is recorded, and a
/// write/write or read-write overlap between two iterations panics.
#[cfg(feature = "racecheck")]
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
    if enabled {
        cpu().begin_epoch();
    }
}

/// Whether the CPU back ends' checker is on.
#[cfg(feature = "racecheck")]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The CPU back ends' `Instrument::set_sanitizer`: the checker, where it is
/// compiled in. Returns whether it is.
pub(crate) fn set_sanitizer(_enabled: bool) -> bool {
    #[cfg(feature = "racecheck")]
    set_enabled(_enabled);
    cfg!(feature = "racecheck")
}

/// Forget the previous construct's accesses.
#[inline(always)]
pub(crate) fn begin_launch() {
    #[cfg(feature = "racecheck")]
    if enabled() {
        cpu().begin_epoch();
    }
}

/// The calling thread is host-side again.
#[inline(always)]
pub(crate) fn end_launch() {
    #[cfg(feature = "racecheck")]
    clear_location();
}

/// Run the calling thread's next accesses as iteration `iter`.
#[inline(always)]
pub(crate) fn set_current_iteration(_iter: u64) {
    #[cfg(feature = "racecheck")]
    if enabled() {
        set_location(_iter, _iter, 0);
    }
}

/// Record a view write to `element` of the storage at `base`.
#[cfg(feature = "racecheck")]
#[inline]
pub(crate) fn record_write(base: usize, element: usize) {
    if enabled() {
        cpu().record_write(base, element);
    }
}

/// Record a view read of `element` of the storage at `base`.
#[cfg(feature = "racecheck")]
#[inline]
pub(crate) fn record_read(base: usize, element: usize) {
    if enabled() {
        cpu().record_read(base, element);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Loc = (u64, u64, u32);
    /// Two threads of one simulated block in one phase, and iterations 1
    /// and 2 of a CPU construct.
    const PAIRS: [[Loc; 2]; 2] = [[(1, 0, 0), (2, 0, 0)], [(1, 1, 0), (2, 2, 0)]];
    const R: bool = false;
    const W: bool = true;

    /// Make `accesses` — `(location, write?, element)` of one allocation —
    /// in order on `t`: the panic message of the one that raced, if any.
    fn run(t: &RaceTracker, accesses: &[(Loc, bool, usize)]) -> Option<String> {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for &((thread, block, phase), write, i) in accesses {
                set_location(thread, block, phase);
                if write {
                    t.record_write(0x1000, i);
                } else {
                    t.record_read(0x1000, i);
                }
            }
        }));
        clear_location();
        let err = result.err()?;
        Some(err.downcast_ref::<String>().cloned().unwrap_or_default())
    }

    fn race(accesses: &[(Loc, bool, usize)]) -> Option<String> {
        run(&RaceTracker::new(), accesses)
    }

    #[test]
    fn untracked_accesses_are_ignored() {
        let t = RaceTracker::new();
        clear_location();
        t.record_write(0x1000, 3);
        t.record_read(0x1000, 3);
        assert_eq!((t.writes_tracked(), t.reads_tracked()), (0, 0));
    }

    #[test]
    fn same_thread_may_rewrite_and_reread() {
        // A simulated thread, and iteration 5 on the CPU.
        for a in [(7, 0, 0), (5, 5, 0)] {
            let t = RaceTracker::new();
            assert_eq!(run(&t, &[(a, W, 3), (a, W, 3), (a, R, 3)]), None);
            assert_eq!(t.writes.lock().len(), 1);
            assert_eq!(run(&t, &[(a, R, 7), (a, W, 7), (a, R, 7)]), None);
        }
    }

    #[test]
    fn distinct_elements_are_fine() {
        for [a, b] in PAIRS {
            let t = RaceTracker::new();
            assert_eq!(run(&t, &[(a, W, 0), (b, W, 1)]), None);
            // Same index on a different allocation is also fine.
            set_location(b.0, b.1, b.2);
            t.record_write(0x2000, 0);
            clear_location();
            assert_eq!(t.writes.lock().len(), 3);
        }
    }

    #[test]
    fn cross_thread_overlap_panics() {
        for [a, b] in PAIRS {
            let msg = race(&[(a, W, 5), (b, W, 5)]).unwrap();
            assert!(
                msg.contains("racecheck: threads 1 and 2 both wrote"),
                "{msg}"
            );
        }
    }

    #[test]
    fn epoch_reset_forgets_writes() {
        let t = RaceTracker::new();
        assert_eq!(run(&t, &[((1, 0, 0), W, 5)]), None);
        t.begin_epoch();
        // Would race without the reset.
        assert_eq!(run(&t, &[((2, 0, 0), W, 5)]), None);
        assert_eq!(t.writes.lock().len(), 1);
    }

    #[test]
    fn barrier_ordered_writes_are_legal() {
        // Thread 1 writes in phase 0; thread 2 (same block) overwrites in
        // phase 1 — ordered by the block barrier.
        assert_eq!(race(&[((1, 0, 0), W, 5), ((2, 0, 1), W, 5)]), None);
    }

    #[test]
    fn cross_block_writes_race_even_across_phases() {
        // Another block: never synchronized.
        let msg = race(&[((1, 0, 0), W, 5), ((65, 1, 1), W, 5)]).unwrap();
        assert!(msg.contains("both wrote"), "{msg}");
    }

    #[test]
    fn unsynchronized_read_after_write_panics() {
        for [a, b] in PAIRS {
            let msg = race(&[(a, W, 4), (b, R, 4)]).unwrap();
            assert!(
                msg.contains("thread 1 wrote it and thread 2 read it"),
                "{msg}"
            );
        }
    }

    #[test]
    fn unsynchronized_write_after_read_panics() {
        for [a, b] in PAIRS {
            let msg = race(&[(a, R, 4), (b, W, 4)]).unwrap();
            assert!(
                msg.contains("thread 1 read it and thread 2 wrote it"),
                "{msg}"
            );
        }
    }

    #[test]
    fn barrier_separated_read_write_is_legal() {
        // Phase 0: thread 1 writes; phase 1: thread 2 of the same block
        // reads — the canonical shared-memory exchange, made legal by the
        // barrier between phases. And the symmetric case: read in phase 1,
        // overwrite in phase 2.
        let exchange = [((1, 0, 0), W, 2), ((2, 0, 1), R, 2), ((1, 0, 2), W, 2)];
        assert_eq!(race(&exchange), None);
    }

    #[test]
    fn cross_block_read_write_races_across_phases() {
        // Other block: phases don't order it.
        let msg = race(&[((1, 0, 0), R, 9), ((70, 1, 3), W, 9)]).unwrap();
        assert!(msg.contains("read-write race"), "{msg}");
    }

    #[test]
    fn multiple_same_phase_readers_then_writer_race() {
        for [a, b] in PAIRS {
            // The first reader writing now races with the second's read
            // even though it also read the element itself.
            let msg = race(&[(a, R, 0), (b, R, 0), (a, W, 0)]).unwrap();
            assert!(msg.contains("another thread read it"), "{msg}");
        }
    }
}
