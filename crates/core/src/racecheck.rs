//! Dynamic verification of the disjoint-writes kernel contract
//! (compiled in only with the `racecheck` cargo feature).
//!
//! `ViewMut*::set` records `(storage, element)` writes keyed by the logical
//! iteration currently executing; two *different* iterations writing the
//! same element within one construct invocation violate the contract and
//! panic. Backends bracket each construct with [`begin_launch`] /
//! [`end_launch`] and tag each iteration with [`set_current_iteration`].
//!
//! With read tracking additionally switched on ([`set_track_reads`], the
//! CPU half of the `simsan` sanitizer), `View*::get` records reads too, and
//! a read and a write of the same element by *different* iterations of one
//! construct is reported as a read-write race — iterations of a
//! `parallel_for` have no ordering, so such an exchange is nondeterministic.
//!
//! The checker is process-global and heavyweight; enable it in tests via
//! [`set_enabled`], never in benchmarks.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACK_READS: AtomicBool = AtomicBool::new(false);

fn table() -> &'static Mutex<HashMap<(usize, usize), u64>> {
    static TABLE: OnceLock<Mutex<HashMap<(usize, usize), u64>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// First reader iteration per element, plus whether a second, different
/// iteration also read it.
type ReadTable = HashMap<(usize, usize), (u64, bool)>;

fn read_table() -> &'static Mutex<ReadTable> {
    static TABLE: OnceLock<Mutex<ReadTable>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

thread_local! {
    static CURRENT_ITER: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Globally enable or disable write tracking.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
    if enabled {
        table().lock().clear();
        read_table().lock().clear();
    }
}

/// Whether tracking is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Additionally track reads (requires [`set_enabled`]`(true)` to take
/// effect). This is the sanitizer's read-write race detection; it roughly
/// doubles the checker's overhead.
pub fn set_track_reads(enabled: bool) {
    TRACK_READS.store(enabled, Ordering::Relaxed);
    if enabled {
        read_table().lock().clear();
    }
}

/// Whether read tracking is on.
pub fn track_reads() -> bool {
    TRACK_READS.load(Ordering::Relaxed)
}

/// The CPU half of the `simsan` sanitizer: this checker with read tracking
/// on. Returns `true` — with the feature compiled in, the CPU back ends
/// support sanitizing.
pub(crate) fn set_sanitizer(enabled: bool) -> bool {
    set_enabled(enabled);
    set_track_reads(enabled);
    true
}

/// Clear state at the start of a construct invocation.
pub fn begin_launch() {
    if enabled() {
        table().lock().clear();
        if track_reads() {
            read_table().lock().clear();
        }
    }
}

/// Clear the per-thread iteration tag at the end of a construct.
pub fn end_launch() {
    CURRENT_ITER.with(|c| c.set(u64::MAX));
}

/// Tag the host thread with the logical iteration it is executing.
#[inline]
pub fn set_current_iteration(iter: u64) {
    if enabled() {
        CURRENT_ITER.with(|c| c.set(iter));
    }
}

/// Record a write to `element` of the storage at `base`. Called by
/// `ViewMut*::set`.
#[inline]
pub fn record_write(base: usize, element: usize) {
    if !enabled() {
        return;
    }
    let iter = CURRENT_ITER.with(|c| c.get());
    if iter == u64::MAX {
        return; // host-side write outside a construct
    }
    let mut writes = table().lock();
    match writes.entry((base, element)) {
        std::collections::hash_map::Entry::Occupied(e) => {
            let first = *e.get();
            if first != iter {
                panic!(
                    "racecheck: iterations {first} and {iter} both wrote element \
                     {element} of array storage {base:#x} in one construct"
                );
            }
        }
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(iter);
        }
    }
    drop(writes);
    if track_reads() {
        if let Some(&(reader, multi)) = read_table().lock().get(&(base, element)) {
            if multi || reader != iter {
                let reader = if multi && reader == iter {
                    "another iteration".to_string()
                } else {
                    format!("iteration {reader}")
                };
                panic!(
                    "simsan: read-write race on element {element} of array storage \
                     {base:#x}: {reader} read it and iteration {iter} wrote it in \
                     one construct"
                );
            }
        }
    }
}

/// Record a read of `element` of the storage at `base`. Called by
/// `View*::get` when read tracking is on.
#[inline]
pub fn record_read(base: usize, element: usize) {
    if !enabled() || !track_reads() {
        return;
    }
    let iter = CURRENT_ITER.with(|c| c.get());
    if iter == u64::MAX {
        return; // host-side read outside a construct
    }
    match read_table().lock().entry((base, element)) {
        std::collections::hash_map::Entry::Occupied(mut e) => {
            let (first, multi) = *e.get();
            if first != iter && !multi {
                *e.get_mut() = (first, true);
            }
        }
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert((iter, false));
        }
    }
    if let Some(&writer) = table().lock().get(&(base, element)) {
        if writer != iter {
            panic!(
                "simsan: read-write race on element {element} of array storage \
                 {base:#x}: iteration {writer} wrote it and iteration {iter} read \
                 it in one construct"
            );
        }
    }
}
