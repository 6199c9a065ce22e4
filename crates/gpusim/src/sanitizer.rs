//! **simsan** — a `compute-sanitizer`/`cudaMemcheck`-style dynamic checker
//! for the simulated device.
//!
//! Enabled per device via [`crate::Device::set_sanitizer`] (or the
//! `RACC_SANITIZER=1` environment variable at device creation), the sanitizer
//! layers five checks on top of the plain write-race checker:
//!
//! * **read-write races** — reads through device slices are tracked alongside
//!   writes, phase-aware: values exchanged across a phase boundary (the
//!   block-wide barrier of a cooperative kernel) are legal, unsynchronized
//!   ones panic with both simulated-thread ids;
//! * **barrier divergence** — kernels declare barrier arrival via
//!   [`crate::ThreadCtx::barrier`]; if only a subset of a block's threads
//!   reaches a phase boundary, the launch panics with block/thread
//!   coordinates;
//! * **active-prefix declarations** — a sanitized launch visits every thread
//!   of every phase whatever [`crate::PhasedKernel::active_threads`] says,
//!   and panics when a thread the kernel declared idle performs a tracked
//!   device-memory access or arrives at a barrier;
//! * **heap instrumentation** — every allocation carries live/freed state and
//!   64-byte `0xC5` canary regions on both sides of the payload. Bounds
//!   failures and use-after-free through stale slices name the allocation;
//!   canaries are swept after every sanitized launch (and on deallocation)
//!   to catch wild writes through unchecked accessors;
//! * **leak reporting** — a [`SanitizerReport`] lists still-live allocations
//!   (with their creation backtraces) and bytes outstanding; a device that
//!   drops with buffers live prints the table to stderr.
//!
//! The sanitizer is heavyweight (global hash tables, per-access bookkeeping)
//! and meant for tests and debugging — never benchmarking. When disabled it
//! costs the launch path nothing (the non-cooperative fast path is gated on
//! it exactly like racecheck; see `tests/alloc_count.rs`).

use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;

use crate::dim::Dim3;
use crate::heap::Allocation;
use crate::racecheck::RaceTracker;

/// Canary bytes on each side of a sanitized allocation's payload. 64 keeps
/// the payload's 64-byte alignment intact.
pub(crate) const CANARY_BYTES: usize = 64;

/// Fill pattern for canary regions.
pub(crate) const CANARY_PATTERN: u8 = 0xC5;

/// Whether `RACC_SANITIZER` asks for the sanitizer at device creation
/// (shared truthy semantics with `RACC_FUSION` and `RACC_CHAOS`).
pub(crate) fn env_enabled() -> bool {
    racc_chaos::env_flag("RACC_SANITIZER")
}

/// Per-allocation sanitizer metadata, shared between the allocation, the
/// slices viewing it, and the device registry.
pub(crate) struct AllocMeta {
    /// Sequential id, unique per device.
    pub(crate) id: u64,
    /// Payload bytes.
    pub(crate) bytes: usize,
    /// Element count.
    pub(crate) len: usize,
    /// Element type name.
    pub(crate) elem: &'static str,
    /// Set when the owning `DeviceBuffer` drops; accesses through stale
    /// slices after that are use-after-free under the driver model.
    pub(crate) freed: AtomicBool,
    /// Where the allocation was made (rendered lazily in reports).
    pub(crate) backtrace: Backtrace,
    /// Back-pointer to the allocation, installed right after construction;
    /// the canary sweep upgrades it so it never races a concurrent drop.
    pub(crate) alloc: OnceLock<Weak<Allocation>>,
}

impl AllocMeta {
    /// Short label used in diagnostics: `allocation #3 (1024 x f64, 8192 B)`.
    pub(crate) fn label(&self) -> String {
        format!(
            "allocation #{} ({} x {}, {} B)",
            self.id, self.len, self.elem, self.bytes
        )
    }
}

thread_local! {
    /// Whether the current host thread is executing a sanitized launch
    /// (makes `ThreadCtx::barrier` free when the sanitizer is off).
    static SAN_ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// Linear thread ids that declared barrier arrival in the current
    /// block/phase of a sanitized launch.
    static ARRIVALS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// Set while a sanitized launch runs a simulated thread that its kernel
    /// declared idle for the phase.
    static DECLARED_IDLE: Cell<Option<DeclaredIdle>> = const { Cell::new(None) };
}

/// Mark the current host thread as running (or done running) a sanitized
/// block, resetting any stale arrivals or idle declaration from an unwound
/// launch.
pub(crate) fn set_active(on: bool) {
    SAN_ACTIVE.with(|c| c.set(on));
    ARRIVALS.with(|a| a.borrow_mut().clear());
    set_declared_idle(None);
}

/// Record a barrier arrival (called by [`crate::ThreadCtx::barrier`]).
#[inline]
pub(crate) fn barrier_arrive(thread_linear: usize) {
    if SAN_ACTIVE.with(|c| c.get()) {
        check_declared_active("reached ctx.barrier()");
        ARRIVALS.with(|a| a.borrow_mut().push(thread_linear));
    }
}

/// A simulated thread its kernel declared idle for the current phase
/// ([`crate::PhasedKernel::active_threads`] returned `declared`, and the
/// thread's linear index is at or beyond it).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeclaredIdle {
    pub(crate) block_idx: (u32, u32, u32),
    pub(crate) thread_idx: (u32, u32, u32),
    pub(crate) phase: usize,
    pub(crate) declared: usize,
}

/// Install (or clear) the idle declaration covering the simulated thread
/// about to run on this host thread. Only sanitized launches set it.
pub(crate) fn set_declared_idle(idle: Option<DeclaredIdle>) {
    DECLARED_IDLE.with(|c| c.set(idle));
}

/// Panic if the current simulated thread was declared idle: called where an
/// observable action happens (a tracked device-memory access, a barrier
/// arrival), which the no-op guarantee of `active_threads` forbids.
#[inline]
pub(crate) fn check_declared_active(action: &str) {
    if let Some(idle) = DECLARED_IDLE.with(|c| c.get()) {
        // Clear first: the panic unwinds past the executor's own reset, and
        // a stale declaration must not fail this host thread's later accesses.
        set_declared_idle(None);
        let (bx, by, bz) = idle.block_idx;
        let (tx, ty, tz) = idle.thread_idx;
        panic!(
            "simsan: active_threads under-declared: thread ({tx},{ty},{tz}) of block \
             ({bx},{by},{bz}) {action} in phase {}, but the kernel declared only the first \
             {} thread(s) of that phase active",
            idle.phase, idle.declared
        );
    }
}

/// Per-device sanitizer state: the on/off switch, the allocation registry,
/// and the check counters that feed [`SanitizerReport`].
pub(crate) struct Sanitizer {
    enabled: AtomicBool,
    next_id: AtomicU64,
    registry: Mutex<HashMap<u64, Arc<AllocMeta>>>,
    launches_checked: AtomicU64,
    barriers_checked: AtomicU64,
    canaries_verified: AtomicU64,
}

impl Sanitizer {
    pub(crate) fn new(enabled: bool) -> Self {
        Sanitizer {
            enabled: AtomicBool::new(enabled),
            next_id: AtomicU64::new(1),
            registry: Mutex::new(HashMap::new()),
            launches_checked: AtomicU64::new(0),
            barriers_checked: AtomicU64::new(0),
            canaries_verified: AtomicU64::new(0),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub(crate) fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Mint metadata for a new sanitized allocation.
    pub(crate) fn new_meta<T>(&self, len: usize, bytes: usize) -> Arc<AllocMeta> {
        let backtrace = if cfg!(miri) {
            Backtrace::disabled()
        } else {
            Backtrace::force_capture()
        };
        Arc::new(AllocMeta {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            bytes,
            len,
            elem: std::any::type_name::<T>(),
            freed: AtomicBool::new(false),
            backtrace,
            alloc: OnceLock::new(),
        })
    }

    /// Track a live allocation.
    pub(crate) fn register(&self, meta: Arc<AllocMeta>) {
        self.registry.lock().insert(meta.id, meta);
    }

    /// Count one checked launch.
    pub(crate) fn count_launch(&self) {
        self.launches_checked.fetch_add(1, Ordering::Relaxed);
    }

    /// Live (registered, not-yet-freed) metadata, pruning entries whose
    /// buffer handle has dropped.
    fn live_metas(&self) -> Vec<Arc<AllocMeta>> {
        let mut registry = self.registry.lock();
        registry.retain(|_, m| !m.freed.load(Ordering::Acquire));
        registry.values().cloned().collect()
    }

    /// Verify the canary regions of every live allocation; panics with the
    /// allocation's identity on corruption. Called after each sanitized
    /// launch. Upgrading the `Weak` first makes the sweep safe against
    /// slices dropping the allocation concurrently.
    pub(crate) fn sweep_canaries(&self) {
        for meta in self.live_metas() {
            let Some(alloc) = meta.alloc.get().and_then(Weak::upgrade) else {
                continue;
            };
            if let Some(desc) = alloc.verify_canaries() {
                panic!("simsan: heap corruption: {desc}");
            }
            self.canaries_verified.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// After a block finishes a phase, verify that barrier arrivals (if any)
    /// came from **every** thread of the block; clears the arrival set.
    pub(crate) fn check_block_phase(&self, block_idx: (u32, u32, u32), block: Dim3, phase: usize) {
        ARRIVALS.with(|a| {
            let mut arrivals = a.borrow_mut();
            if arrivals.is_empty() {
                return;
            }
            arrivals.sort_unstable();
            arrivals.dedup();
            let total = block.count();
            let arrived = arrivals.len();
            self.barriers_checked.fetch_add(1, Ordering::Relaxed);
            if arrived != total {
                let missing = (0..total)
                    .find(|t| arrivals.binary_search(t).is_err())
                    .unwrap_or(0);
                arrivals.clear();
                let (tx, ty, tz) = block.unflatten(missing);
                let (bx, by, bz) = block_idx;
                panic!(
                    "simsan: barrier divergence in block ({bx},{by},{bz}) at phase {phase}: \
                     {arrived} of {total} threads reached the barrier \
                     (first missing: thread ({tx},{ty},{tz}))"
                );
            }
            arrivals.clear();
        });
    }

    /// Snapshot the sanitizer's state into a structured report.
    pub(crate) fn report(&self, device_id: u64, tracker: &RaceTracker) -> SanitizerReport {
        let live: Vec<LeakRecord> = self
            .live_metas()
            .iter()
            .map(|m| LeakRecord {
                id: m.id,
                bytes: m.bytes,
                len: m.len,
                elem: m.elem,
                backtrace: format!("{}", m.backtrace),
            })
            .collect();
        let bytes_outstanding = live.iter().map(|r| r.bytes).sum();
        SanitizerReport {
            device_id,
            allocations_tracked: self.next_id.load(Ordering::Relaxed) - 1,
            bytes_outstanding,
            live_allocations: live,
            launches_checked: self.launches_checked.load(Ordering::Relaxed),
            barriers_checked: self.barriers_checked.load(Ordering::Relaxed),
            canaries_verified: self.canaries_verified.load(Ordering::Relaxed),
            reads_tracked: tracker.reads_tracked(),
            writes_tracked: tracker.writes_tracked(),
        }
    }
}

/// One still-live allocation in a [`SanitizerReport`] — a leak candidate
/// when the report is taken at device teardown.
#[derive(Debug, Clone)]
pub struct LeakRecord {
    /// Per-device allocation id.
    pub id: u64,
    /// Payload bytes.
    pub bytes: usize,
    /// Element count.
    pub len: usize,
    /// Element type name.
    pub elem: &'static str,
    /// Backtrace of the allocation site (empty unless backtraces are
    /// available on the platform).
    pub backtrace: String,
}

/// Structured result of a sanitized session, from
/// [`crate::Device::sanitizer_report`]: check counters plus the table of
/// allocations still outstanding.
#[derive(Debug, Clone)]
pub struct SanitizerReport {
    /// The device the report describes.
    pub device_id: u64,
    /// Total sanitized allocations made over the device's lifetime.
    pub allocations_tracked: u64,
    /// Allocations still live (leaks, when taken at teardown).
    pub live_allocations: Vec<LeakRecord>,
    /// Sum of live allocation payload bytes.
    pub bytes_outstanding: usize,
    /// Launches executed under the sanitizer.
    pub launches_checked: u64,
    /// Block/phase barrier boundaries verified for full arrival.
    pub barriers_checked: u64,
    /// Canary verifications performed (allocations x sweeps).
    pub canaries_verified: u64,
    /// Reads recorded by the race tracker.
    pub reads_tracked: u64,
    /// Writes recorded by the race tracker.
    pub writes_tracked: u64,
}

impl std::fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "simsan report (device {})", self.device_id)?;
        writeln!(
            f,
            "  launches checked: {}  barriers checked: {}  canaries verified: {}",
            self.launches_checked, self.barriers_checked, self.canaries_verified
        )?;
        writeln!(
            f,
            "  reads tracked: {}  writes tracked: {}  allocations tracked: {}",
            self.reads_tracked, self.writes_tracked, self.allocations_tracked
        )?;
        if self.live_allocations.is_empty() {
            write!(f, "  no leaks: all sanitized allocations freed")?;
        } else {
            writeln!(
                f,
                "  LEAK: {} allocation(s) still live, {} B outstanding:",
                self.live_allocations.len(),
                self.bytes_outstanding
            )?;
            for rec in &self.live_allocations {
                writeln!(
                    f,
                    "    allocation #{} ({} x {}, {} B)",
                    rec.id, rec.len, rec.elem, rec.bytes
                )?;
                for line in rec.backtrace.lines() {
                    writeln!(f, "      {line}")?;
                }
            }
            write!(f, "  (drop every DeviceBuffer before the device)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_accepts_truthy_values() {
        // Not set in the test environment by default; exercised indirectly.
        let _ = env_enabled();
    }

    #[test]
    fn arrivals_are_ignored_when_inactive() {
        set_active(false);
        barrier_arrive(3);
        let san = Sanitizer::new(true);
        // No arrivals recorded, so any block/phase passes vacuously.
        san.check_block_phase((0, 0, 0), Dim3::x(4), 0);
        assert_eq!(san.report(0, &RaceTracker::new()).barriers_checked, 0);
    }

    #[test]
    fn full_arrival_passes_and_counts() {
        set_active(true);
        for t in 0..4 {
            barrier_arrive(t);
        }
        let san = Sanitizer::new(true);
        san.check_block_phase((0, 0, 0), Dim3::x(4), 0);
        assert_eq!(san.report(0, &RaceTracker::new()).barriers_checked, 1);
        set_active(false);
    }

    #[test]
    #[should_panic(expected = "barrier divergence")]
    fn partial_arrival_panics() {
        set_active(true);
        barrier_arrive(0);
        barrier_arrive(2);
        let san = Sanitizer::new(true);
        san.check_block_phase((1, 0, 0), Dim3::x(4), 2);
    }

    #[test]
    fn report_lists_live_allocations() {
        let san = Sanitizer::new(true);
        let meta = san.new_meta::<f64>(16, 128);
        san.register(Arc::clone(&meta));
        let report = san.report(7, &RaceTracker::new());
        assert_eq!(report.device_id, 7);
        assert_eq!(report.live_allocations.len(), 1);
        assert_eq!(report.bytes_outstanding, 128);
        assert!(format!("{report}").contains("LEAK"));
        meta.freed.store(true, Ordering::Release);
        let report = san.report(7, &RaceTracker::new());
        assert!(report.live_allocations.is_empty());
        assert!(format!("{report}").contains("no leaks"));
    }
}
