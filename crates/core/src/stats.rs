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

/// Shared counters of the sharded multi-device runner (`racc-shard`).
/// The shard runner increments the counters of the per-rank context it
/// drives; [`Context::stats`](crate::Context::stats) reads them. Lives in
/// core for the same reason as [`PlanCacheCounters`]: `ctx.stats()` must
/// report them without a dependency edge from core to the shard layer.
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Completed sharded steps (committed, not counting replays).
    pub steps: AtomicU64,
    /// Halo exchanges completed (both sides of one step count once).
    pub halo_exchanges: AtomicU64,
    /// Ghost bytes moved by halo exchanges, both directions.
    pub halo_bytes: AtomicU64,
    /// Interior-phase kernel launches.
    pub interior_launches: AtomicU64,
    /// Boundary-phase kernel launches.
    pub boundary_launches: AtomicU64,
    /// Replicated checkpoints taken.
    pub checkpoints: AtomicU64,
    /// Reshard events survived (a peer died; the domain was re-split).
    pub reshards: AtomicU64,
    /// Steps replayed from a checkpoint after a reshard.
    pub replayed_steps: AtomicU64,
    /// Status heartbeats sent to ring neighbours (2 per step per rank at
    /// N >= 3 ranks, vs the N-1 of the old all-to-all exchange).
    pub heartbeats: AtomicU64,
}

/// Sharded-execution snapshot inside [`RuntimeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Committed sharded steps.
    pub steps: u64,
    /// Completed halo exchanges.
    pub halo_exchanges: u64,
    /// Ghost bytes moved, both directions.
    pub halo_bytes: u64,
    /// Interior-phase launches.
    pub interior_launches: u64,
    /// Boundary-phase launches.
    pub boundary_launches: u64,
    /// Replicated checkpoints taken.
    pub checkpoints: u64,
    /// Reshard events survived.
    pub reshards: u64,
    /// Steps replayed after reshards.
    pub replayed_steps: u64,
    /// Ring-heartbeat status messages sent.
    pub heartbeats: u64,
}

impl ShardStats {
    /// True when the context never ran under the shard runner.
    pub fn is_empty(&self) -> bool {
        *self == ShardStats::default()
    }
}

/// Shared counters of the multi-tenant serving layer (`racc-serve`). The
/// server bumps the counters of every pool context it dispatches onto (and
/// a pool-wide aggregate of its own); [`Context::stats`](crate::Context::stats)
/// reads them. Lives in core for the same reason as [`ShardCounters`]:
/// `ctx.stats()` must report them without a dependency edge from core to
/// the serving layer.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Jobs accepted past admission control.
    pub admitted: AtomicU64,
    /// Jobs shed at admission (tenant or global queue full).
    pub rejected: AtomicU64,
    /// Jobs that ran to completion and resolved their handle with `Ok`.
    pub completed: AtomicU64,
    /// Jobs that exhausted the degradation ladder and resolved with `Err`.
    pub failed: AtomicU64,
    /// Dispatch groups launched (a batch of 1 still counts).
    pub batches: AtomicU64,
    /// Jobs that rode a batch of size >= 2.
    pub batched_jobs: AtomicU64,
    /// Extra attempts spent retrying faulted jobs on their primary context.
    pub retried: AtomicU64,
    /// Jobs that had to fall back to the spare context to complete.
    pub fallbacks: AtomicU64,
    /// Scheduler passes that skipped an otherwise-ready tenant because its
    /// modeled in-flight cap was reached (weighted fairness held it back).
    pub preempted: AtomicU64,
}

/// Serving-layer snapshot inside [`RuntimeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs accepted past admission control.
    pub admitted: u64,
    /// Jobs shed at admission.
    pub rejected: u64,
    /// Jobs completed with `Ok`.
    pub completed: u64,
    /// Jobs failed after the full degradation ladder.
    pub failed: u64,
    /// Dispatch groups launched.
    pub batches: u64,
    /// Jobs that rode a batch of size >= 2.
    pub batched_jobs: u64,
    /// Extra retry attempts.
    pub retried: u64,
    /// Jobs completed on the fallback context.
    pub fallbacks: u64,
    /// Tenant-cap scheduler skips.
    pub preempted: u64,
}

impl ServeStats {
    /// True when the context never served under `racc-serve`.
    pub fn is_empty(&self) -> bool {
        *self == ServeStats::default()
    }
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
    /// Sharded multi-device counters (`racc-shard`): steps, halo traffic,
    /// checkpoints, reshards. `None` when this context never ran under the
    /// shard runner.
    pub shard: Option<ShardStats>,
    /// Multi-tenant serving counters (`racc-serve`): admission, batching,
    /// retries, fallbacks. `None` when this context never served jobs.
    pub serve: Option<ServeStats>,
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
        if let Some(sh) = &self.shard {
            write!(
                f,
                "; shard: {} steps, {} halos ({} B), {} ckpts, {} reshards ({} replayed)",
                sh.steps,
                sh.halo_exchanges,
                sh.halo_bytes,
                sh.checkpoints,
                sh.reshards,
                sh.replayed_steps
            )?;
        }
        if let Some(sv) = &self.serve {
            write!(
                f,
                "; serve: {} admitted ({} rejected), {} done / {} failed, {} batches ({} co-batched), {} retried, {} fell back, {} preempted",
                sv.admitted,
                sv.rejected,
                sv.completed,
                sv.failed,
                sv.batches,
                sv.batched_jobs,
                sv.retried,
                sv.fallbacks,
                sv.preempted
            )?;
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

pub(crate) fn snapshot_shard(counters: &ShardCounters) -> Option<ShardStats> {
    let snap = ShardStats {
        steps: counters.steps.load(Ordering::Relaxed),
        halo_exchanges: counters.halo_exchanges.load(Ordering::Relaxed),
        halo_bytes: counters.halo_bytes.load(Ordering::Relaxed),
        interior_launches: counters.interior_launches.load(Ordering::Relaxed),
        boundary_launches: counters.boundary_launches.load(Ordering::Relaxed),
        checkpoints: counters.checkpoints.load(Ordering::Relaxed),
        reshards: counters.reshards.load(Ordering::Relaxed),
        replayed_steps: counters.replayed_steps.load(Ordering::Relaxed),
        heartbeats: counters.heartbeats.load(Ordering::Relaxed),
    };
    if snap.is_empty() {
        None
    } else {
        Some(snap)
    }
}

pub(crate) fn snapshot_serve(counters: &ServeCounters) -> Option<ServeStats> {
    let snap = ServeStats {
        admitted: counters.admitted.load(Ordering::Relaxed),
        rejected: counters.rejected.load(Ordering::Relaxed),
        completed: counters.completed.load(Ordering::Relaxed),
        failed: counters.failed.load(Ordering::Relaxed),
        batches: counters.batches.load(Ordering::Relaxed),
        batched_jobs: counters.batched_jobs.load(Ordering::Relaxed),
        retried: counters.retried.load(Ordering::Relaxed),
        fallbacks: counters.fallbacks.load(Ordering::Relaxed),
        preempted: counters.preempted.load(Ordering::Relaxed),
    };
    if snap.is_empty() {
        None
    } else {
        Some(snap)
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
            shard: None,
            serve: None,
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
            shard: Some(ShardStats {
                steps: 12,
                halo_exchanges: 24,
                halo_bytes: 4096,
                interior_launches: 12,
                boundary_launches: 12,
                checkpoints: 3,
                reshards: 1,
                replayed_steps: 4,
                heartbeats: 24,
            }),
            serve: Some(ServeStats {
                admitted: 40,
                rejected: 2,
                completed: 39,
                failed: 1,
                batches: 11,
                batched_jobs: 30,
                retried: 3,
                fallbacks: 1,
                preempted: 5,
            }),
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
        assert!(
            line.contains("shard: 12 steps, 24 halos (4096 B), 3 ckpts, 1 reshards (4 replayed)"),
            "{line}"
        );
        assert!(
            line.contains("serve: 40 admitted (2 rejected), 39 done / 1 failed"),
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

    #[test]
    fn serve_snapshot_is_none_until_any_counter_moves() {
        let counters = ServeCounters::default();
        assert!(snapshot_serve(&counters).is_none());
        counters.admitted.fetch_add(5, Ordering::Relaxed);
        counters.rejected.fetch_add(1, Ordering::Relaxed);
        let snap = snapshot_serve(&counters).expect("counters moved");
        assert_eq!(snap.admitted, 5);
        assert_eq!(snap.rejected, 1);
        assert!(!snap.is_empty());
    }

    #[test]
    fn shard_snapshot_is_none_until_any_counter_moves() {
        let counters = ShardCounters::default();
        assert!(snapshot_shard(&counters).is_none());
        counters.steps.fetch_add(2, Ordering::Relaxed);
        counters.halo_bytes.fetch_add(128, Ordering::Relaxed);
        let snap = snapshot_shard(&counters).expect("counters moved");
        assert_eq!(snap.steps, 2);
        assert_eq!(snap.halo_bytes, 128);
        assert!(!snap.is_empty());
    }
}
