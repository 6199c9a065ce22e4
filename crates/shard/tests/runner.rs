//! Runner integration tests: bit-identity of the sharded execution against
//! a single device, overlap accounting on the modeled clock, and
//! reshard-and-replay recovery when a rank's device dies mid-run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use racc_backend_common::cuda_backend;
use racc_core::{
    Backend, Context, FaultPlan, KernelProfile, RetryPolicy, SerialBackend, ThreadsBackend,
};
use racc_shard::{run_sharded, ShardApp, ShardError, ShardHandle, ShardOptions, Topology};

const PROFILE: KernelProfile = KernelProfile::new("diffuse", 3.0, 24.0, 8.0);

/// Toy 1D diffusion with Dirichlet ends: the canonical snapshot is one
/// value per slab, and every global cell `g` in `1..E-1` steps to
/// `0.5*c[g] + 0.25*(c[g-1] + c[g+1])` — the same expression whether the
/// interior kernel (on the device) or the boundary pass computes it, so
/// the field is bit-identical at any shard count.
struct Diffuse {
    extent: usize,
    steps: u64,
}

struct DiffState {
    /// Local field including ghosts.
    cur: Vec<f64>,
}

impl<B: Backend> ShardApp<B> for Diffuse {
    type State = DiffState;

    fn extent(&self) -> usize {
        self.extent
    }
    fn slab_len(&self) -> usize {
        1
    }
    fn radius(&self) -> usize {
        1
    }
    fn total_steps(&self) -> u64 {
        self.steps
    }
    fn initial(&self) -> Vec<f64> {
        (0..self.extent)
            .map(|i| ((i * 7919) % 101) as f64 * 0.013 + 1.0)
            .collect()
    }
    fn init(&self, _ctx: &Context<B>, shard: racc_shard::Shard, snapshot: &[f64]) -> DiffState {
        let cur = (0..shard.local_extent())
            .map(|i| snapshot[shard.global_of(i)])
            .collect();
        DiffState { cur }
    }

    fn step(
        &self,
        h: &mut ShardHandle<'_, B>,
        state: &mut DiffState,
        _step: u64,
    ) -> Result<(), ShardError> {
        let sh = h.shard();
        let (os, owned, n, r) = (sh.owned_start(), sh.owned(), sh.local_extent(), sh.radius);

        // Phase 1: post the owned edge slabs.
        let to_lo = (sh.ghosts_lo() > 0).then(|| state.cur[os..os + r].to_vec());
        let to_hi = (sh.ghosts_hi() > 0).then(|| state.cur[os + owned - r..os + owned].to_vec());
        h.post_halos(to_lo, to_hi)?;

        // Phase 2: interior kernel over owned cells whose stencil support
        // is local (global-edge cells are Dirichlet-fixed; ghost-adjacent
        // cells wait for phase 4).
        let lo_int = if sh.ghosts_lo() > 0 { os + r } else { 1 };
        let hi_int = if sh.ghosts_hi() > 0 {
            os + owned - r
        } else {
            os + owned - 1
        };
        let cur = &state.cur;
        let mut next = h.interior(|ctx| {
            let src = ctx.array_from(cur).unwrap();
            let dst = ctx.array_from(cur).unwrap();
            {
                let sv = src.view();
                let dv = dst.view_mut();
                ctx.parallel_for(n, &PROFILE, move |i| {
                    if i >= lo_int && i < hi_int {
                        dv.set(i, 0.5 * sv.get(i) + 0.25 * (sv.get(i - 1) + sv.get(i + 1)));
                    }
                });
            }
            ctx.to_host(&dst).unwrap()
        });

        // Phase 3: complete the exchange into the ghost slots.
        let (from_lo, from_hi) = h.recv_halos()?;
        if let Some(d) = from_lo {
            state.cur[..r].copy_from_slice(&d);
        }
        if let Some(d) = from_hi {
            state.cur[n - r..].copy_from_slice(&d);
        }

        // Phase 4: boundary cells read the fresh ghosts.
        h.boundary(|_ctx| {
            let c = &state.cur;
            if sh.ghosts_lo() > 0 {
                for i in os..os + r {
                    next[i] = 0.5 * c[i] + 0.25 * (c[i - 1] + c[i + 1]);
                }
            }
            if sh.ghosts_hi() > 0 {
                for i in os + owned - r..os + owned {
                    next[i] = 0.5 * c[i] + 0.25 * (c[i - 1] + c[i + 1]);
                }
            }
        });
        state.cur = next;
        Ok(())
    }

    fn dump(&self, _ctx: &Context<B>, shard: racc_shard::Shard, state: &DiffState) -> Vec<f64> {
        state.cur[shard.owned_start()..shard.owned_start() + shard.owned()].to_vec()
    }
}

fn run_serial(devices: usize, overlap: bool) -> racc_shard::ShardOutcome {
    run_sharded(
        Arc::new(Diffuse {
            extent: 24,
            steps: 10,
        }),
        ShardOptions::devices(devices)
            .overlap(overlap)
            .checkpoint_every(3),
        |_rank| Context::new(SerialBackend::new()),
    )
}

#[test]
fn sharded_runs_are_bit_identical_to_a_single_device() {
    let one = run_serial(1, true);
    for devices in [2, 3, 4] {
        let many = run_serial(devices, true);
        assert_eq!(many.devices, devices);
        assert_eq!(
            one.field, many.field,
            "sharding must never change values ({devices} devices)"
        );
    }
    // Overlap is a clock policy, never a value policy.
    let off = run_serial(3, false);
    assert_eq!(one.field, off.field);
}

#[test]
fn sharded_runs_are_bit_identical_across_backends() {
    let serial = run_serial(3, true);
    let threads = run_sharded(
        Arc::new(Diffuse {
            extent: 24,
            steps: 10,
        }),
        ShardOptions::devices(3).checkpoint_every(3),
        |_rank| Context::new(ThreadsBackend::with_threads(2)),
    );
    let cuda = run_sharded(
        Arc::new(Diffuse {
            extent: 24,
            steps: 10,
        }),
        ShardOptions::devices(3).checkpoint_every(3),
        |_rank| Context::new(cuda_backend()),
    );
    assert_eq!(serial.field, threads.field);
    assert_eq!(serial.field, cuda.field);
}

#[test]
fn devices_are_clamped_to_the_radius_cap() {
    // extent 24, radius 1: the cap is 24, but asking for more shards than
    // slabs must clamp rather than panic.
    let out = run_serial(64, true);
    assert_eq!(out.devices, 24);
    assert_eq!(out.field, run_serial(1, true).field);
}

#[test]
fn overlap_shortens_the_modeled_makespan_but_not_the_values() {
    let app = || {
        Arc::new(Diffuse {
            extent: 32,
            steps: 8,
        })
    };
    let factory = |_rank: usize| Context::new(cuda_backend());
    let on = run_sharded(app(), ShardOptions::devices(4).overlap(true), factory);
    let off = run_sharded(app(), ShardOptions::devices(4).overlap(false), factory);
    assert_eq!(on.field, off.field);
    assert!(on.makespan_ns() > 0, "modeled clock must move");
    assert!(
        on.makespan_ns() <= off.makespan_ns(),
        "overlap can only hide exchange time: {} vs {}",
        on.makespan_ns(),
        off.makespan_ns()
    );
    // Counters: every rank stepped and exchanged.
    for report in on.reports.iter().flatten() {
        assert_eq!(report.stats.steps, 8);
        assert_eq!(report.stats.halo_exchanges, 8);
        assert!(report.stats.halo_bytes > 0);
        assert_eq!(report.stats.reshards, 0);
        assert!(report.shard_clock_ns <= report.modeled_ns);
    }
}

#[test]
fn rank_death_reshards_replays_and_stays_bit_identical() {
    let app = || {
        Arc::new(Diffuse {
            extent: 24,
            steps: 10,
        })
    };
    let fault_free = run_sharded(
        app(),
        ShardOptions::devices(4).checkpoint_every(3),
        |_rank| Context::new(cuda_backend()),
    );

    // Rank 2's device dies at its 6th kernel launch (step 5, past the
    // step-3 checkpoint) with no retry budget: the launch panics, the rank
    // drops off the world, and the survivors reshard.
    let doomed = 2usize;
    let chaotic = run_sharded(
        app(),
        ShardOptions::devices(4).checkpoint_every(3),
        move |rank| {
            if rank == doomed {
                Context::builder(cuda_backend())
                    .chaos(FaultPlan::parse("launch:nth-6").unwrap())
                    .retry(RetryPolicy::none())
                    .build()
            } else {
                Context::new(cuda_backend())
            }
        },
    );

    assert_eq!(
        fault_free.field, chaotic.field,
        "recovery must be bit-identical to the fault-free run"
    );
    assert_eq!(chaotic.survivors(), 3);
    assert!(
        chaotic.reports[doomed].is_none(),
        "the dead rank reports nothing"
    );
    for report in chaotic.reports.iter().flatten() {
        assert!(report.epochs >= 1, "survivors must have resharded");
        assert_eq!(report.stats.reshards, report.epochs as u64);
        assert!(
            report.stats.replayed_steps >= 1,
            "death past a checkpoint must replay at least one step"
        );
    }
}

#[test]
fn death_before_any_checkpoint_replays_from_the_initial_state() {
    let app = || {
        Arc::new(Diffuse {
            extent: 16,
            steps: 6,
        })
    };
    let fault_free = run_sharded(
        app(),
        ShardOptions::devices(3).checkpoint_every(0),
        |_rank| Context::new(cuda_backend()),
    );
    let chaotic = run_sharded(
        app(),
        ShardOptions::devices(3).checkpoint_every(0),
        move |rank| {
            if rank == 0 {
                Context::builder(cuda_backend())
                    .chaos(FaultPlan::parse("launch:nth-4").unwrap())
                    .retry(RetryPolicy::none())
                    .build()
            } else {
                Context::new(cuda_backend())
            }
        },
    );
    assert_eq!(fault_free.field, chaotic.field);
    assert_eq!(chaotic.survivors(), 2);
    let report = chaotic.reports.iter().flatten().next().unwrap();
    assert!(
        report.stats.replayed_steps >= 3,
        "everything replays from step 0"
    );
}

/// [`Diffuse`], counting how often the runner asks for the initial snapshot.
struct CountedInitial {
    inner: Diffuse,
    initials: AtomicUsize,
}

impl<B: Backend> ShardApp<B> for CountedInitial {
    type State = DiffState;

    fn extent(&self) -> usize {
        self.inner.extent
    }
    fn slab_len(&self) -> usize {
        1
    }
    fn radius(&self) -> usize {
        1
    }
    fn total_steps(&self) -> u64 {
        self.inner.steps
    }
    fn initial(&self) -> Vec<f64> {
        self.initials.fetch_add(1, Ordering::Relaxed);
        <Diffuse as ShardApp<B>>::initial(&self.inner)
    }
    fn init(&self, ctx: &Context<B>, shard: racc_shard::Shard, snapshot: &[f64]) -> DiffState {
        self.inner.init(ctx, shard, snapshot)
    }
    fn step(
        &self,
        h: &mut ShardHandle<'_, B>,
        state: &mut DiffState,
        step: u64,
    ) -> Result<(), ShardError> {
        self.inner.step(h, state, step)
    }
    fn dump(&self, ctx: &Context<B>, shard: racc_shard::Shard, state: &DiffState) -> Vec<f64> {
        self.inner.dump(ctx, shard, state)
    }
}

#[test]
fn the_initial_snapshot_is_built_once_per_run() {
    let counted = || {
        Arc::new(CountedInitial {
            inner: Diffuse {
                extent: 24,
                steps: 10,
            },
            initials: AtomicUsize::new(0),
        })
    };
    let app = counted();
    let clean = run_sharded(Arc::clone(&app), ShardOptions::devices(4), |_rank| {
        Context::new(cuda_backend())
    });
    assert_eq!(clean.devices, 4);
    assert_eq!(
        app.initials.load(Ordering::Relaxed),
        1,
        "4 ranks, one snapshot"
    );

    // A rank death and a reshard, before any checkpoint (the survivors
    // replay from the shared initial snapshot) and after one.
    for every in [0, 3] {
        let app = counted();
        let chaotic = run_sharded(
            Arc::clone(&app),
            ShardOptions::devices(4).checkpoint_every(every),
            |rank| {
                if rank == 2 {
                    Context::builder(cuda_backend())
                        .chaos(FaultPlan::parse("launch:nth-6").unwrap())
                        .retry(RetryPolicy::none())
                        .build()
                } else {
                    Context::new(cuda_backend())
                }
            },
        );
        assert_eq!(chaotic.survivors(), 3);
        assert!(chaotic
            .reports
            .iter()
            .flatten()
            .all(|r| r.stats.reshards >= 1));
        assert_eq!(chaotic.field, clean.field);
        assert_eq!(
            app.initials.load(Ordering::Relaxed),
            1,
            "a reshard reuses the run's snapshot (checkpoint every {every})"
        );
    }
}

/// A tiny app exercising the app-level allgather: each shard contributes
/// its own lower bound, and every rank must see every contribution in
/// shard-index order.
struct GatherProbe;

impl ShardApp<SerialBackend> for GatherProbe {
    type State = Vec<f64>;

    fn extent(&self) -> usize {
        9
    }
    fn slab_len(&self) -> usize {
        1
    }
    fn radius(&self) -> usize {
        1
    }
    fn total_steps(&self) -> u64 {
        2
    }
    fn topology(&self) -> Topology {
        Topology::Periodic
    }
    fn initial(&self) -> Vec<f64> {
        vec![0.0; 9]
    }
    fn init(
        &self,
        _ctx: &Context<SerialBackend>,
        shard: racc_shard::Shard,
        _s: &[f64],
    ) -> Vec<f64> {
        vec![shard.lo as f64; shard.owned()]
    }
    fn step(
        &self,
        h: &mut ShardHandle<'_, SerialBackend>,
        state: &mut Vec<f64>,
        _step: u64,
    ) -> Result<(), ShardError> {
        let sh = h.shard();
        // Periodic: both sides always have a neighbor.
        let to_lo = Some(state[..sh.radius].to_vec());
        let to_hi = Some(state[state.len() - sh.radius..].to_vec());
        h.post_halos(to_lo, to_hi)?;
        let parts = h.allgather(vec![sh.lo as f64])?;
        let bounds: Vec<f64> = parts.into_iter().map(|p| p[0]).collect();
        let mut sorted = bounds.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(bounds, sorted, "allgather must return shard-index order");
        let _ = h.recv_halos()?;
        Ok(())
    }
    fn dump(
        &self,
        _ctx: &Context<SerialBackend>,
        _shard: racc_shard::Shard,
        state: &Vec<f64>,
    ) -> Vec<f64> {
        state.clone()
    }
}

#[test]
fn allgather_and_periodic_halos_work_at_any_shard_count() {
    for devices in [1, 2, 3] {
        let out = run_sharded(
            Arc::new(GatherProbe),
            ShardOptions::devices(devices),
            |_rank| Context::new(SerialBackend::new()),
        );
        assert_eq!(out.devices, devices);
        assert_eq!(out.field.len(), 9);
    }
}

#[test]
fn status_heartbeats_cost_o_n_on_the_ring_not_all_to_all() {
    // 10 steps with checkpoints every 4 -> 2 checkpoint steps (which sync
    // all-to-all and skip the ping) and 8 heartbeat steps. On the ring
    // each rank pings exactly its two index neighbours — one at N = 2,
    // where both directions collapse onto the same peer — independent of
    // world size; the old all-to-all sent N - 1 per rank per step.
    for devices in [2usize, 3, 4, 6] {
        let out = run_sharded(
            Arc::new(Diffuse {
                extent: 24,
                steps: 10,
            }),
            ShardOptions::devices(devices).checkpoint_every(4),
            |_rank| Context::new(SerialBackend::new()),
        );
        let per_rank = if devices == 2 { 8 } else { 16 };
        for report in out.reports.iter().flatten() {
            assert_eq!(report.stats.steps, 10);
            assert_eq!(report.stats.checkpoints, 2);
            assert_eq!(
                report.stats.heartbeats, per_rank,
                "ring heartbeat must send 2 per status step per rank ({devices} devices)"
            );
        }
        let total: u64 = out
            .reports
            .iter()
            .flatten()
            .map(|r| r.stats.heartbeats)
            .sum();
        assert_eq!(total, per_rank * devices as u64);
    }
}
