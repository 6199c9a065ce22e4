//! A dynamic checker for the SIMT disjoint-writes contract.
//!
//! When enabled on a device, every bounds-checked write through a
//! [`crate::DeviceSliceMut`] records `(allocation, element)` together with
//! the identity of the simulated thread performing it. Two *different*
//! simulated threads writing the same element within one launch is a data
//! race under the model's contract and panics with a diagnostic. A single
//! thread may rewrite its own element freely (as real SIMT threads do).
//!
//! The tracker is **phase-aware**: each access carries the simulated
//! thread's block and the phase (barrier epoch) it executed in. Within one
//! block, accesses in *different* phases are separated by the block-wide
//! barrier and therefore ordered — a thread may legally overwrite or read a
//! value another thread of its block produced in an earlier phase (the
//! `__syncthreads` exchange pattern). Accesses from different blocks are
//! never synchronized within a launch, so any cross-block overlap races
//! regardless of phase.
//!
//! Under the sanitizer ([`crate::Device::set_sanitizer`]) the tracker also
//! records **reads**, catching read-write races with the same phase rules.
//! Reads use a compressed per-element summary (block, latest phase, one/many
//! reader threads) so tracking stays bounded by elements touched, not total
//! accesses; per-block phase monotonicity makes discarding earlier-phase
//! same-block readers sound.
//!
//! The checker is heavyweight (a global hash table behind a mutex) and is
//! meant for tests and debugging, never for benchmarking.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

/// Where a tracked access happened: which simulated thread, in which block,
/// during which phase. `thread == u64::MAX` means "outside a tracked launch".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SimLoc {
    thread: u64,
    block: u64,
    phase: u32,
}

const UNTRACKED: SimLoc = SimLoc {
    thread: u64::MAX,
    block: 0,
    phase: 0,
};

thread_local! {
    /// The simulated location currently executing on this host thread.
    static CURRENT: Cell<SimLoc> = const { Cell::new(UNTRACKED) };
}

/// Install the simulated thread id for the current host thread while a
/// tracked kernel body runs (legacy entry point: block 0, phase 0).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn set_current_sim_thread(id: u64) {
    set_sim_location(id, 0, 0);
}

/// Install the full simulated location (thread, block, phase) for the
/// current host thread while a tracked kernel body runs.
pub(crate) fn set_sim_location(thread: u64, block: u64, phase: u32) {
    CURRENT.with(|c| {
        c.set(SimLoc {
            thread,
            block,
            phase,
        })
    });
}

/// Clear the simulated location after a tracked kernel body.
pub(crate) fn clear_current_sim_thread() {
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
fn races(a: SimLoc, b: SimLoc) -> bool {
    a.thread != b.thread && (a.block != b.block || a.phase == b.phase)
}

/// Per-device access tracker. One logical "launch epoch" is active at a time
/// (RACC's model is synchronous, so launches never overlap).
#[derive(Debug, Default)]
pub struct RaceTracker {
    /// Map from (allocation base address, element index) to the **latest**
    /// legal writer in the current epoch. Legal overwrites (same thread, or
    /// same block in a later phase) replace the record, so the stored
    /// writer is always the one unordered accesses would race with.
    writes: Mutex<HashMap<(usize, usize), SimLoc>>,
    /// Read summaries per element; populated only when `track_reads` is on.
    reads: Mutex<HashMap<(usize, usize), ReadSet>>,
    /// Whether reads are recorded (sanitizer mode).
    track_reads: AtomicBool,
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

    /// Enable or disable read tracking (the sanitizer's read-write check).
    pub fn set_track_reads(&self, on: bool) {
        self.track_reads.store(on, Ordering::Relaxed);
    }

    /// Record a write; panics on an unsynchronized overlap with another
    /// simulated thread's write or (when read tracking is on) read.
    pub fn record_write(&self, alloc_base: usize, index: usize) {
        let loc = CURRENT.with(|c| c.get());
        if loc.thread == u64::MAX {
            // Write performed outside a tracked launch (e.g. host-side
            // upload); not subject to the SIMT contract.
            return;
        }
        crate::sanitizer::check_declared_active("wrote device memory");
        self.writes_tracked.fetch_add(1, Ordering::Relaxed);
        {
            let mut writes = self.writes.lock();
            match writes.entry((alloc_base, index)) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let prev = *e.get();
                    if races(prev, loc) {
                        panic!(
                            "racecheck: simulated threads {} and {} both wrote \
                             element {index} of allocation {alloc_base:#x} in one launch",
                            prev.thread, loc.thread
                        );
                    }
                    // Legal overwrite (same thread, or barrier-ordered):
                    // future accesses race against the newer write.
                    e.insert(loc);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(loc);
                }
            }
        }
        if self.track_reads.load(Ordering::Relaxed) {
            if let Some(r) = self.reads.lock().get(&(alloc_base, index)).copied() {
                let reader_races = r.multi_block
                    || r.block != loc.block
                    || (r.phase == loc.phase && (r.multi || r.first != loc.thread));
                if reader_races {
                    let reader = if r.first != loc.thread {
                        format!("simulated thread {}", r.first)
                    } else {
                        "another simulated thread".to_string()
                    };
                    panic!(
                        "simsan: read-write race on element {index} of allocation \
                         {alloc_base:#x}: {reader} read it and simulated thread {} \
                         wrote it without an intervening barrier",
                        loc.thread
                    );
                }
            }
        }
    }

    /// Record a read; panics when it is unsynchronized with a prior write by
    /// another simulated thread. No-op unless read tracking is enabled.
    pub fn record_read(&self, alloc_base: usize, index: usize) {
        if !self.track_reads.load(Ordering::Relaxed) {
            return;
        }
        let loc = CURRENT.with(|c| c.get());
        if loc.thread == u64::MAX {
            return;
        }
        crate::sanitizer::check_declared_active("read device memory");
        self.reads_tracked.fetch_add(1, Ordering::Relaxed);
        {
            let mut reads = self.reads.lock();
            match reads.entry((alloc_base, index)) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
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
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(ReadSet {
                        block: loc.block,
                        phase: loc.phase,
                        first: loc.thread,
                        multi: false,
                        multi_block: false,
                    });
                }
            }
        }
        if let Some(w) = self.writes.lock().get(&(alloc_base, index)).copied() {
            if races(w, loc) {
                panic!(
                    "simsan: read-write race on element {index} of allocation \
                     {alloc_base:#x}: simulated thread {} wrote it and simulated \
                     thread {} read it without an intervening barrier",
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

    /// Number of distinct elements written this epoch (for tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn writes_recorded(&self) -> usize {
        self.writes.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untracked_writes_are_ignored() {
        let t = RaceTracker::new();
        clear_current_sim_thread();
        t.record_write(0x1000, 3);
        assert_eq!(t.writes_recorded(), 0);
    }

    #[test]
    fn same_thread_may_rewrite() {
        let t = RaceTracker::new();
        set_current_sim_thread(7);
        t.record_write(0x1000, 3);
        t.record_write(0x1000, 3);
        assert_eq!(t.writes_recorded(), 1);
        clear_current_sim_thread();
    }

    #[test]
    fn distinct_elements_are_fine() {
        let t = RaceTracker::new();
        set_current_sim_thread(1);
        t.record_write(0x1000, 0);
        set_current_sim_thread(2);
        t.record_write(0x1000, 1);
        // Same index on a different allocation is also fine.
        t.record_write(0x2000, 0);
        assert_eq!(t.writes_recorded(), 3);
        clear_current_sim_thread();
    }

    #[test]
    #[should_panic(expected = "racecheck")]
    fn cross_thread_overlap_panics() {
        let t = RaceTracker::new();
        set_current_sim_thread(1);
        t.record_write(0x1000, 5);
        set_current_sim_thread(2);
        t.record_write(0x1000, 5);
    }

    #[test]
    fn epoch_reset_forgets_writes() {
        let t = RaceTracker::new();
        set_current_sim_thread(1);
        t.record_write(0x1000, 5);
        t.begin_epoch();
        set_current_sim_thread(2);
        t.record_write(0x1000, 5); // would panic without the reset
        assert_eq!(t.writes_recorded(), 1);
        clear_current_sim_thread();
    }

    #[test]
    fn barrier_ordered_writes_are_legal() {
        let t = RaceTracker::new();
        // Thread 1 writes in phase 0; thread 2 (same block) overwrites in
        // phase 1 — ordered by the block barrier.
        set_sim_location(1, 0, 0);
        t.record_write(0x1000, 5);
        set_sim_location(2, 0, 1);
        t.record_write(0x1000, 5);
        clear_current_sim_thread();
    }

    #[test]
    #[should_panic(expected = "racecheck")]
    fn cross_block_writes_race_even_across_phases() {
        let t = RaceTracker::new();
        set_sim_location(1, 0, 0);
        t.record_write(0x1000, 5);
        set_sim_location(65, 1, 1); // another block: never synchronized
        t.record_write(0x1000, 5);
    }

    #[test]
    fn reads_are_ignored_without_tracking() {
        let t = RaceTracker::new();
        set_sim_location(1, 0, 0);
        t.record_read(0x1000, 0);
        assert_eq!(t.reads_tracked(), 0);
        clear_current_sim_thread();
    }

    #[test]
    fn same_thread_read_write_is_fine() {
        let t = RaceTracker::new();
        t.set_track_reads(true);
        set_sim_location(3, 0, 0);
        t.record_read(0x1000, 7);
        t.record_write(0x1000, 7);
        t.record_read(0x1000, 7);
        assert_eq!(t.reads_tracked(), 2);
        clear_current_sim_thread();
    }

    #[test]
    #[should_panic(expected = "read-write race")]
    fn unsynchronized_read_after_write_panics() {
        let t = RaceTracker::new();
        t.set_track_reads(true);
        set_sim_location(1, 0, 0);
        t.record_write(0x1000, 4);
        set_sim_location(2, 0, 0); // same block, same phase, other thread
        t.record_read(0x1000, 4);
    }

    #[test]
    #[should_panic(expected = "read-write race")]
    fn unsynchronized_write_after_read_panics() {
        let t = RaceTracker::new();
        t.set_track_reads(true);
        set_sim_location(1, 0, 0);
        t.record_read(0x1000, 4);
        set_sim_location(2, 0, 0);
        t.record_write(0x1000, 4);
    }

    #[test]
    fn barrier_separated_read_write_is_legal() {
        let t = RaceTracker::new();
        t.set_track_reads(true);
        // Phase 0: thread 1 writes; phase 1: thread 2 of the same block
        // reads — the canonical shared-memory exchange, made legal by the
        // barrier between phases.
        set_sim_location(1, 0, 0);
        t.record_write(0x1000, 2);
        set_sim_location(2, 0, 1);
        t.record_read(0x1000, 2);
        // And the symmetric case: read in phase 1, overwrite in phase 2.
        set_sim_location(1, 0, 2);
        t.record_write(0x1000, 2);
        clear_current_sim_thread();
    }

    #[test]
    #[should_panic(expected = "read-write race")]
    fn cross_block_read_write_races_across_phases() {
        let t = RaceTracker::new();
        t.set_track_reads(true);
        set_sim_location(1, 0, 0);
        t.record_read(0x1000, 9);
        set_sim_location(70, 1, 3); // other block: phases don't order it
        t.record_write(0x1000, 9);
    }

    #[test]
    fn multiple_same_phase_readers_then_writer_race() {
        let t = RaceTracker::new();
        t.set_track_reads(true);
        set_sim_location(1, 0, 0);
        t.record_read(0x1000, 0);
        set_sim_location(2, 0, 0);
        t.record_read(0x1000, 0);
        // Thread 1 writing now races with thread 2's read even though
        // thread 1 itself also read the element.
        set_sim_location(1, 0, 0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.record_write(0x1000, 0);
        }));
        assert!(result.is_err(), "reader set must remember both threads");
        clear_current_sim_thread();
    }
}
