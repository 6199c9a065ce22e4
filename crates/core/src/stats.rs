//! Uniform runtime introspection: [`Context::stats`](crate::Context::stats).
//!
//! One [`RuntimeStats`] struct gathers what previously took three
//! per-subsystem probes — the fused-plan cache counters, the chaos fault
//! log, and the sanitizer report — so harnesses print one snapshot
//! instead of stitching getters.
//!
//! The plan cache itself lives in `racc-fuse` (the core crate knows
//! nothing about expression graphs), but its *counters* live here, in a
//! [`PlanCacheSlot`] owned by every context: the fusion layer parks its
//! cache in the slot's type-erased cell and bumps the shared counters, and
//! `ctx.stats()` reads them without a dependency edge from core to fuse.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Shared hit/miss/evict counters of one context's plan cache. The fusion
/// layer increments; [`Context::stats`](crate::Context::stats) reads.
#[derive(Debug, Default)]
pub struct PlanCacheCounters {
    /// Evaluations served by a cached compiled program.
    pub hits: AtomicU64,
    /// Evaluations that had to plan + compile.
    pub misses: AtomicU64,
    /// Cached programs dropped to make room at capacity.
    pub evictions: AtomicU64,
    /// Programs currently cached.
    pub entries: AtomicU64,
}

/// Per-context home of the fused-plan cache: the counters `ctx.stats()`
/// reports, and a type-erased cell the fusion layer lazily parks its cache
/// structure in.
#[derive(Debug, Default)]
pub struct PlanCacheSlot {
    counters: Arc<PlanCacheCounters>,
    cell: OnceLock<Box<dyn Any + Send + Sync>>,
}

impl PlanCacheSlot {
    /// The counters this slot's cache reports through.
    pub fn counters(&self) -> &Arc<PlanCacheCounters> {
        &self.counters
    }

    /// Get or lazily create the cache structure parked in this slot.
    /// Called by `racc-fuse` with its `PlanCache` type; panics if two
    /// different types ever race for one slot (a wiring bug, not a user
    /// error).
    #[doc(hidden)]
    pub fn get_or_init<T, F>(&self, init: F) -> &T
    where
        T: Any + Send + Sync,
        F: FnOnce() -> T,
    {
        self.cell
            .get_or_init(|| Box::new(init()))
            .downcast_ref::<T>()
            .expect("plan-cache slot holds a different type")
    }
}

/// Plan-cache snapshot inside [`RuntimeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Programs currently cached.
    pub entries: usize,
    /// Evaluations served from the cache.
    pub hits: u64,
    /// Evaluations that planned + compiled.
    pub misses: u64,
    /// Programs evicted at capacity.
    pub evictions: u64,
}

impl PlanCacheStats {
    /// Hits over total lookups (0.0 before any evaluation).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Fault-injection summary inside [`RuntimeStats`], folded from the
/// backend's [`fault_log`](crate::Instrument::fault_log).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Every fault injected so far.
    pub injected: u64,
    /// Faults that failed their operation (the retryable kind).
    pub failed: u64,
    /// Faults that only delayed their operation (latency spikes).
    pub delayed: u64,
}

/// Device-primitive counters (`racc-prim`), bumped through
/// [`Context::prim_counters`](crate::Context::prim_counters) by the
/// primitives layer. Lives in core so [`RuntimeStats`] can report it
/// without a dependency on the outer crate.
#[derive(Debug, Default)]
pub struct PrimCounters {
    /// Scan invocations (inclusive + exclusive).
    pub scans: AtomicU64,
    /// Histogram invocations (validated + unchecked).
    pub histograms: AtomicU64,
    /// `sort_by_key` / sort-permutation invocations.
    pub sorts: AtomicU64,
    /// Elements processed across all primitive invocations.
    pub elements: AtomicU64,
}

/// Device-primitive snapshot inside [`RuntimeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrimStats {
    /// Scan invocations.
    pub scans: u64,
    /// Histogram invocations.
    pub histograms: u64,
    /// Sort invocations.
    pub sorts: u64,
    /// Elements processed across all primitive invocations.
    pub elements: u64,
}

impl PrimStats {
    /// True when the context never ran a device primitive.
    pub fn is_empty(&self) -> bool {
        *self == PrimStats::default()
    }
}

/// One uniform snapshot of a context's runtime machinery — plan cache,
/// chaos, sanitizer, work-stealing dispatch — returned by
/// [`Context::stats`](crate::Context::stats).
#[derive(Debug, Clone)]
pub struct RuntimeStats {
    /// Fused-plan cache counters.
    pub plan_cache: PlanCacheStats,
    /// Injected-fault counts (all zero when chaos is disarmed).
    pub faults: FaultStats,
    /// The backend's sanitizer report, when one is active.
    pub sanitizer: Option<String>,
    /// Work-stealing dispatch counters of the backend's thread pool
    /// (tasks executed/stolen/injected, splits, wakes, parks). `None` on
    /// back ends without a work-stealing engine.
    pub steal: Option<racc_threadpool::StealStats>,
    /// Device-primitive counters (`racc-prim`): scans, histograms, sorts.
    /// `None` when this context never ran a primitive.
    pub prim: Option<PrimStats>,
}

impl std::fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pc = &self.plan_cache;
        write!(
            f,
            "plan-cache {} entries, {} hits / {} misses ({:.0}% hit), {} evicted",
            pc.entries,
            pc.hits,
            pc.misses,
            pc.hit_rate() * 100.0,
            pc.evictions
        )?;
        write!(
            f,
            "; faults {} ({} failed, {} delayed)",
            self.faults.injected, self.faults.failed, self.faults.delayed
        )?;
        match &self.sanitizer {
            Some(report) => write!(f, "; sanitizer: {}", report.lines().next().unwrap_or(""))?,
            None => write!(f, "; sanitizer off")?,
        }
        if let Some(steal) = &self.steal {
            write!(f, "; {steal}")?;
        }
        if let Some(pr) = &self.prim {
            write!(
                f,
                "; prim: {} scans, {} histograms, {} sorts ({} elems)",
                pr.scans, pr.histograms, pr.sorts, pr.elements
            )?;
        }
        Ok(())
    }
}

pub(crate) fn snapshot_plan_cache(slot: &PlanCacheSlot) -> PlanCacheStats {
    let c = slot.counters();
    PlanCacheStats {
        entries: c.entries.load(Ordering::Relaxed) as usize,
        hits: c.hits.load(Ordering::Relaxed),
        misses: c.misses.load(Ordering::Relaxed),
        evictions: c.evictions.load(Ordering::Relaxed),
    }
}

pub(crate) fn snapshot_prim(counters: &PrimCounters) -> Option<PrimStats> {
    let snap = PrimStats {
        scans: counters.scans.load(Ordering::Relaxed),
        histograms: counters.histograms.load(Ordering::Relaxed),
        sorts: counters.sorts.load(Ordering::Relaxed),
        elements: counters.elements.load(Ordering::Relaxed),
    };
    if snap.is_empty() {
        None
    } else {
        Some(snap)
    }
}

pub(crate) fn fold_faults(log: &[racc_chaos::FaultEvent]) -> FaultStats {
    let mut stats = FaultStats {
        injected: log.len() as u64,
        ..FaultStats::default()
    };
    for ev in log {
        match ev.action {
            racc_chaos::FaultAction::Fail => stats.failed += 1,
            racc_chaos::FaultAction::Delay(_) => stats.delayed += 1,
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use racc_chaos::{FaultAction, FaultEvent, FaultSite};

    #[test]
    fn hit_rate_handles_empty_and_mixed() {
        let mut s = PlanCacheStats {
            entries: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        };
        assert_eq!(s.hit_rate(), 0.0);
        s.hits = 9;
        s.misses = 1;
        assert!((s.hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn faults_fold_by_action() {
        let log = vec![
            FaultEvent {
                site: FaultSite::Alloc,
                occurrence: 1,
                action: FaultAction::Fail,
            },
            FaultEvent {
                site: FaultSite::Launch,
                occurrence: 3,
                action: FaultAction::Delay(100),
            },
            FaultEvent {
                site: FaultSite::D2h,
                occurrence: 2,
                action: FaultAction::Fail,
            },
        ];
        let f = fold_faults(&log);
        assert_eq!(f.injected, 3);
        assert_eq!(f.failed, 2);
        assert_eq!(f.delayed, 1);
    }

    #[test]
    fn display_is_one_line() {
        let stats = RuntimeStats {
            plan_cache: PlanCacheStats {
                entries: 2,
                hits: 18,
                misses: 2,
                evictions: 0,
            },
            faults: FaultStats::default(),
            sanitizer: None,
            steal: None,
            prim: None,
        };
        let line = stats.to_string();
        assert!(line.contains("90% hit"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn display_appends_steal_counters_when_present() {
        let stats = RuntimeStats {
            plan_cache: PlanCacheStats {
                entries: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            },
            faults: FaultStats::default(),
            sanitizer: None,
            steal: Some(racc_threadpool::StealStats {
                participants: vec![racc_threadpool::StealCounters {
                    executed: 10,
                    stolen: 3,
                    injected: 1,
                    splits: 4,
                    wakes: 2,
                    parks: 2,
                }],
            }),
            prim: Some(PrimStats {
                scans: 4,
                histograms: 2,
                sorts: 1,
                elements: 7000,
            }),
        };
        let line = stats.to_string();
        assert!(line.contains("steal: executed 10 stolen 3"), "{line}");
        assert!(
            line.contains("prim: 4 scans, 2 histograms, 1 sorts (7000 elems)"),
            "{line}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn prim_snapshot_is_none_until_any_counter_moves() {
        let counters = PrimCounters::default();
        assert!(snapshot_prim(&counters).is_none());
        counters.scans.fetch_add(2, Ordering::Relaxed);
        counters.elements.fetch_add(512, Ordering::Relaxed);
        let snap = snapshot_prim(&counters).expect("counters moved");
        assert_eq!(snap.scans, 2);
        assert_eq!(snap.elements, 512);
        assert!(!snap.is_empty());
    }
}
