//! The sharded step driver: overlapped halo exchange, lockstep status,
//! replicated checkpoints, and reshard-and-replay recovery.
//!
//! # Step protocol
//!
//! Every rank drives one shard through the same four-phase step:
//!
//! 1. **post halo sends** — pack the owned edge slabs and send them to the
//!    neighbors (buffered, non-blocking);
//! 2. **interior launch** — the kernel over every site whose full stencil
//!    support is owned, on the device stream, while the halos are in
//!    flight;
//! 3. **complete halo recv** — receive the neighbors' edge slabs into the
//!    ghost regions (timeout-guarded);
//! 4. **boundary launch** — the kernel over the remaining sites, which
//!    read the freshly received ghosts.
//!
//! On the modeled clock this is exactly the stream-overlap rule of
//! `examples/stream_overlap.rs`: the exchange (pack/unpack kernels and
//! transfers) and the interior launch proceed concurrently, so the step
//! costs `max(interior, exchange) + boundary` — the serialized cost with
//! overlap disabled is `interior + exchange + boundary`. The comm
//! substrate itself is functional (unclocked, like `racc-comm`), so the
//! exchange side of the clock is the device-visible work: packing,
//! unpacking, and the staging transfers.
//!
//! # Failure detection and recovery
//!
//! After every non-checkpoint step each rank runs a **ring heartbeat**: a
//! bidirectional status exchange with its two neighbors on the
//! shard-index ring (`owners[(i ± 1) mod N]`). That is O(N) messages per
//! step world-wide — 2 per rank at N ≥ 3 (the `heartbeats` counter) —
//! where the previous all-to-all status cost O(N²). The exchange still
//! enforces lockstep: a rank only finishes step `s` after its ring
//! neighbors reach the end of step `s`, so adjacent skew is bounded at
//! one step and every message pair that actually communicates (halos
//! between grid neighbors, which are ring-adjacent by construction)
//! stays exact-step matched. Replicated checkpoints remain all-to-all —
//! they double as the global barrier that re-zeros skew across the ring.
//!
//! Detection is now two-phase but still bounded by one step plus one ring
//! hop per rank: a rank that died mid-step (its device exhausted the
//! chaos retry budget) stops sending, its ring neighbors see
//! `Disconnected`/`Timeout` at their next receive, and each survivor
//! entering recovery broadcasts `Recover` to *every* live peer. A rank
//! waiting on a heartbeat that will never come instead pops that
//! neighbor's `Recover` from the same per-pair FIFO queue, joins the
//! recovery, and re-broadcasts — so the signal chains around the ring
//! without any rank polling non-neighbors in the steady state. Every
//! receive anywhere in the protocol is timeout-guarded; the runner never
//! calls the world barrier, which panics once a rank has died.
//!
//! Recovery is reshard-and-replay: survivors exchange `Recover` messages
//! (which also flush stale in-flight traffic, thanks to per-pair FIFO
//! order), agree on the surviving set and the last replicated checkpoint,
//! re-split the domain over the survivors, rebuild their local state from
//! the checkpoint, and replay. Because every kernel is deterministic and
//! elementwise over the same global sites, the final field is
//! bit-identical to the fault-free run.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use racc_comm::{CommError, Rank, World};
use racc_core::trace::{ConstructKind, Span};
use racc_core::{Backend, Context, ShardCounters, ShardStats};

use crate::plan::{Shard, ShardPlan, Topology};

/// A canonical snapshot, or one shard's owned range of it. Shared, never
/// copied: the initial snapshot by every rank, a checkpoint contribution by
/// every peer it is sent to.
type Part = Arc<Vec<f64>>;

/// Concatenate shard contributions in index order into one snapshot,
/// allocated at its exact length.
fn assemble(parts: &[Part]) -> Vec<f64> {
    let mut snapshot = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    for part in parts {
        snapshot.extend_from_slice(part);
    }
    snapshot
}

/// Errors surfaced to a sharded app's `step`. Apps propagate them (`?`);
/// the runner reacts by entering recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A communication failure: a peer died (`Disconnected`) or went
    /// silent past a deadline (`Timeout`).
    Comm(CommError),
    /// A surviving peer detected a death first and requested recovery.
    RecoveryRequested,
}

impl From<CommError> for ShardError {
    fn from(e: CommError) -> Self {
        ShardError::Comm(e)
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Comm(e) => write!(f, "shard communication failed: {e}"),
            ShardError::RecoveryRequested => write!(f, "a peer requested recovery"),
        }
    }
}

impl std::error::Error for ShardError {}

/// Every message of the shard protocol. One enum so every receive can
/// dispatch on whatever arrives — in particular, a `Recover` can show up
/// wherever a halo/status/gather was expected.
enum Msg {
    /// A neighbor's packed edge slabs for one step. `hi_edge` says which
    /// of the *sender's* edges this is — necessary because both of a
    /// rank's halos can come from the same peer (two shards on a periodic
    /// axis), where arrival order alone cannot say which ghost side a
    /// message fills.
    Halo {
        epoch: u32,
        step: u64,
        hi_edge: bool,
        data: Vec<f64>,
    },
    /// End-of-step liveness + lockstep marker.
    Status { epoch: u32, step: u64 },
    /// One shard's contribution to a replicated checkpoint, shared with
    /// every peer rather than copied per peer.
    Ckpt {
        epoch: u32,
        step: u64,
        index: usize,
        data: Part,
    },
    /// One shard's contribution to an app-level allgather (CG dots).
    Gather {
        epoch: u32,
        step: u64,
        seq: u32,
        index: usize,
        data: Vec<f64>,
    },
    /// Recovery announcement: "I observed a death; reshard at `epoch`,
    /// replaying from my checkpoint at `ckpt_step`."
    Recover {
        epoch: u32,
        rank: usize,
        ckpt_step: u64,
    },
}

/// Options of one sharded run.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Simulated devices (= ranks = shards). Clamped to
    /// [`ShardPlan::max_count`] for the app's extent/radius.
    pub devices: usize,
    /// Overlap halo exchange with interior compute on the modeled clock
    /// (the A/B switch of the scaling tables). Values never change.
    pub overlap: bool,
    /// Steps between replicated checkpoints (0 = only the initial state,
    /// so recovery replays from step 0).
    pub checkpoint_every: u64,
    /// Deadline for each halo/status/gather receive. Generous by default:
    /// rank threads time-slice on small hosts.
    pub step_timeout: Duration,
    /// Deadline for each receive inside the recovery drain.
    pub recover_timeout: Duration,
}

impl Default for ShardOptions {
    /// Two devices, overlap on, a checkpoint every four steps.
    fn default() -> Self {
        ShardOptions {
            devices: 2,
            overlap: true,
            checkpoint_every: 4,
            step_timeout: Duration::from_secs(60),
            recover_timeout: Duration::from_secs(30),
        }
    }
}

impl ShardOptions {
    /// Options for `devices` shards, everything else default.
    pub fn devices(devices: usize) -> Self {
        ShardOptions {
            devices,
            ..ShardOptions::default()
        }
    }

    /// Toggle modeled overlap of exchange and interior compute.
    pub fn overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// Set the replicated-checkpoint interval.
    pub fn checkpoint_every(mut self, steps: u64) -> Self {
        self.checkpoint_every = steps;
        self
    }
}

/// A domain-decomposed application the runner can drive: it declares the
/// split geometry, (re)builds per-shard state from a canonical global
/// snapshot, and advances one step through the [`ShardHandle`] phases.
///
/// The canonical snapshot is `extent * slab_len` values in slab-major
/// order; `dump` returns exactly the owned `owned() * slab_len` range, so
/// concatenating all shards' dumps in index order reproduces the global
/// snapshot — re-partitionable at *any* shard count, which is what makes
/// reshard-and-replay possible.
pub trait ShardApp<B: Backend>: Send + Sync + 'static {
    /// Per-shard device state.
    type State;

    /// Global extent of the split (outermost) axis, in slabs.
    fn extent(&self) -> usize;
    /// Snapshot values per slab.
    fn slab_len(&self) -> usize;
    /// Stencil radius = halo width in slabs.
    fn radius(&self) -> usize;
    /// Steps to run.
    fn total_steps(&self) -> u64;
    /// End behavior of the split axis.
    fn topology(&self) -> Topology {
        Topology::Open
    }
    /// The canonical global snapshot at step 0.
    fn initial(&self) -> Vec<f64>;
    /// Build this shard's device state from a canonical global snapshot
    /// (used at step 0 and again after every reshard).
    fn init(&self, ctx: &Context<B>, shard: Shard, snapshot: &[f64]) -> Self::State;
    /// Advance one step through the handle's phases (post → interior →
    /// recv → boundary).
    fn step(
        &self,
        h: &mut ShardHandle<'_, B>,
        state: &mut Self::State,
        step: u64,
    ) -> Result<(), ShardError>;
    /// The owned range of the canonical snapshot for this shard's state.
    fn dump(&self, ctx: &Context<B>, shard: Shard, state: &Self::State) -> Vec<f64>;
}

/// The per-rank driver handle: the device context, the comm endpoint, the
/// current shard geometry, and the overlap-accounted shard clock. Apps use
/// it inside `step` for the four phases and for app-level allgathers.
pub struct ShardHandle<'a, B: Backend> {
    ctx: &'a Context<B>,
    comm: &'a Rank,
    plan: ShardPlan,
    my_index: usize,
    /// `owners[shard index] -> world rank` for the current epoch.
    owners: Vec<usize>,
    epoch: u32,
    step: u64,
    gather_seq: u32,
    overlap: bool,
    step_timeout: Duration,
    recover_timeout: Duration,
    counters: Arc<ShardCounters>,
    /// `Recover` messages consumed while expecting something else:
    /// `world rank -> (epoch, ckpt_step)`. An entry implies that peer's
    /// queue is drained up to (and including) its `Recover`.
    recover_seen: BTreeMap<usize, (u32, u64)>,
    /// Halos posted to self (periodic topology with a self-neighbor).
    self_halo_lo: Option<Vec<f64>>,
    self_halo_hi: Option<Vec<f64>>,
    /// Current-step halos that arrived while expecting something else
    /// (e.g. the app allgathers before completing the halo receive):
    /// `(peer world rank, sender hi edge?, data)`. Consulted by
    /// `recv_halos` before touching the channels.
    pending_halos: Vec<(usize, bool, Vec<f64>)>,
    // Modeled-clock accounting for the current step.
    step_base_ns: u64,
    interior_ns: u64,
    boundary_ns: u64,
    shard_clock_ns: u64,
    step_halo_bytes: u64,
}

impl<'a, B: Backend> ShardHandle<'a, B> {
    /// The per-rank device context.
    pub fn ctx(&self) -> &'a Context<B> {
        self.ctx
    }

    /// This rank's shard in the current epoch's plan.
    pub fn shard(&self) -> Shard {
        self.plan.shard(self.my_index)
    }

    /// Shards in the current epoch (survivors after reshards).
    pub fn devices(&self) -> usize {
        self.plan.count()
    }

    /// The recovery epoch (0 until a reshard happens).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The overlap-accounted modeled clock of this shard so far.
    pub fn shard_clock_ns(&self) -> u64 {
        self.shard_clock_ns
    }

    fn world_rank_of(&self, shard_index: usize) -> usize {
        self.owners[shard_index]
    }

    fn my_world_rank(&self) -> usize {
        self.comm.rank()
    }

    /// Post the packed edge slabs to the neighbors (phase 1). `to_lo` goes
    /// to the lower neighbor, `to_hi` to the upper one; pass `None` for a
    /// side without a neighbor.
    pub fn post_halos(
        &mut self,
        to_lo: Option<Vec<f64>>,
        to_hi: Option<Vec<f64>>,
    ) -> Result<(), ShardError> {
        let shard = self.shard();
        let sides = [
            (shard.lo_neighbor(), to_lo, false),
            (shard.hi_neighbor(), to_hi, true),
        ];
        for (neighbor, payload, hi_edge) in sides {
            let Some(data) = payload else {
                debug_assert!(neighbor.is_none(), "payload for a missing neighbor side");
                continue;
            };
            let neighbor = neighbor.expect("halo posted to a missing neighbor");
            self.step_halo_bytes += (data.len() * std::mem::size_of::<f64>()) as u64;
            if neighbor == self.my_index {
                // Periodic with one shard: the neighbor is this shard.
                // Deliver locally; recv_halos picks it up.
                if hi_edge {
                    self.self_halo_hi = Some(data);
                } else {
                    self.self_halo_lo = Some(data);
                }
                continue;
            }
            let msg = Msg::Halo {
                epoch: self.epoch,
                step: self.step,
                hi_edge,
                data,
            };
            self.comm.send(self.world_rank_of(neighbor), msg)?;
        }
        Ok(())
    }

    /// Run the interior phase (phase 2): the closure's modeled cost can
    /// overlap the exchange on the shard clock.
    pub fn interior<R>(&mut self, f: impl FnOnce(&Context<B>) -> R) -> R {
        let t0 = self.ctx.modeled_ns();
        let out = f(self.ctx);
        self.interior_ns += self.ctx.modeled_ns() - t0;
        self.counters
            .interior_launches
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        out
    }

    /// Complete the halo receive (phase 3): returns `(from_lo, from_hi)`
    /// edge slabs from the respective neighbors (`None` for a side without
    /// one). Timeout-guarded; a dead neighbor or a peer's recovery request
    /// surfaces as `Err` and sends this rank into recovery.
    #[allow(clippy::type_complexity)]
    pub fn recv_halos(&mut self) -> Result<(Option<Vec<f64>>, Option<Vec<f64>>), ShardError> {
        let shard = self.shard();
        let mut out: [Option<Vec<f64>>; 2] = [None, None];
        // What to wait for: my lo ghost is my lower neighbor's *hi* edge,
        // my hi ghost is my upper neighbor's *lo* edge. Both can come from
        // the same peer (two shards, periodic axis) — the `hi_edge` tag
        // disambiguates, not arrival order.
        let mut wants: Vec<(usize, bool, usize)> = Vec::new();
        if let Some(nb) = shard.lo_neighbor() {
            if nb == self.my_index {
                out[0] = self.self_halo_hi.take();
            } else {
                wants.push((self.world_rank_of(nb), true, 0));
            }
        }
        if let Some(nb) = shard.hi_neighbor() {
            if nb == self.my_index {
                out[1] = self.self_halo_lo.take();
            } else {
                wants.push((self.world_rank_of(nb), false, 1));
            }
        }
        // Drain anything an earlier expect loop stashed for this step.
        wants.retain(|&(peer, hi_edge, slot)| {
            if let Some(pos) = self
                .pending_halos
                .iter()
                .position(|&(p, h, _)| p == peer && h == hi_edge)
            {
                let (_, _, data) = self.pending_halos.remove(pos);
                self.step_halo_bytes += (data.len() * std::mem::size_of::<f64>()) as u64;
                out[slot] = Some(data);
                false
            } else {
                true
            }
        });
        while let Some(&(peer, _, _)) = wants.first() {
            match self.recv_msg(peer, self.step_timeout)? {
                Msg::Halo {
                    epoch,
                    step,
                    hi_edge,
                    data,
                } if epoch == self.epoch && step == self.step => {
                    let pos = wants
                        .iter()
                        .position(|&(p, h, _)| p == peer && h == hi_edge)
                        .expect("duplicate halo for one step/side");
                    let (_, _, slot) = wants.remove(pos);
                    self.step_halo_bytes += (data.len() * std::mem::size_of::<f64>()) as u64;
                    out[slot] = Some(data);
                }
                Msg::Halo { epoch, step, .. }
                | Msg::Status { epoch, step }
                | Msg::Ckpt { epoch, step, .. }
                | Msg::Gather { epoch, step, .. } => {
                    debug_assert!(self.is_stale(epoch, step));
                }
                Msg::Recover {
                    epoch,
                    rank,
                    ckpt_step,
                } => {
                    self.note_recover(rank, epoch, ckpt_step);
                    return Err(ShardError::RecoveryRequested);
                }
            }
        }
        if shard.lo_neighbor().is_some() || shard.hi_neighbor().is_some() {
            self.counters
                .halo_exchanges
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.counters
                .halo_bytes
                .fetch_add(self.step_halo_bytes, std::sync::atomic::Ordering::Relaxed);
        }
        let [lo, hi] = out;
        Ok((lo, hi))
    }

    /// Run the boundary phase (phase 4): charged after the exchange joins
    /// the shard clock, like a launch behind a stream event.
    pub fn boundary<R>(&mut self, f: impl FnOnce(&Context<B>) -> R) -> R {
        let t0 = self.ctx.modeled_ns();
        let out = f(self.ctx);
        self.boundary_ns += self.ctx.modeled_ns() - t0;
        self.counters
            .boundary_launches
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        out
    }

    /// App-level allgather (for distributed dot products): every shard
    /// contributes `data` and receives all contributions in shard-index
    /// order. Functional comm — contributes nothing to the modeled clock.
    pub fn allgather(&mut self, data: Vec<f64>) -> Result<Vec<Vec<f64>>, ShardError> {
        let seq = self.gather_seq;
        self.gather_seq += 1;
        let mut parts: Vec<Option<Vec<f64>>> = vec![None; self.plan.count()];
        for index in 0..self.plan.count() {
            if index == self.my_index {
                continue;
            }
            let msg = Msg::Gather {
                epoch: self.epoch,
                step: self.step,
                seq,
                index: self.my_index,
                data: data.clone(),
            };
            self.comm.send(self.world_rank_of(index), msg)?;
        }
        parts[self.my_index] = Some(data);
        for index in 0..self.plan.count() {
            if index == self.my_index {
                continue;
            }
            let (from_index, part) = self.expect_gather(self.world_rank_of(index), seq)?;
            debug_assert_eq!(from_index, index);
            parts[from_index] = Some(part);
        }
        Ok(parts.into_iter().map(|p| p.expect("all parts")).collect())
    }

    // ------------------------------------------------------------------
    // Receive dispatch
    // ------------------------------------------------------------------

    /// Receive the next protocol message from `peer` (world rank), bounded
    /// by `timeout`.
    fn recv_msg(&self, peer: usize, timeout: Duration) -> Result<Msg, ShardError> {
        Ok(self.comm.recv_timeout::<Msg>(peer, timeout)?)
    }

    /// True when `msg` is from a past epoch (stale pre-reshard traffic the
    /// sender emitted before it learned of the death) — safe to drop.
    fn is_stale(&self, epoch: u32, step: u64) -> bool {
        debug_assert!(
            epoch < self.epoch || (epoch == self.epoch && step <= self.step),
            "a peer ran ahead of lockstep (msg epoch {epoch} step {step}, \
             ours {} / {})",
            self.epoch,
            self.step
        );
        epoch < self.epoch || step < self.step
    }

    fn note_recover(&mut self, peer: usize, epoch: u32, ckpt_step: u64) {
        self.recover_seen.insert(peer, (epoch, ckpt_step));
    }

    fn expect_status(&mut self, peer: usize) -> Result<(), ShardError> {
        loop {
            match self.recv_msg(peer, self.step_timeout)? {
                Msg::Status { epoch, step } if epoch == self.epoch && step == self.step => {
                    return Ok(())
                }
                Msg::Halo {
                    epoch,
                    step,
                    hi_edge,
                    data,
                } if epoch == self.epoch && step == self.step => {
                    self.pending_halos.push((peer, hi_edge, data));
                }
                Msg::Halo { epoch, step, .. }
                | Msg::Status { epoch, step }
                | Msg::Ckpt { epoch, step, .. }
                | Msg::Gather { epoch, step, .. } => {
                    debug_assert!(self.is_stale(epoch, step));
                }
                Msg::Recover {
                    epoch,
                    rank,
                    ckpt_step,
                } => {
                    self.note_recover(rank, epoch, ckpt_step);
                    return Err(ShardError::RecoveryRequested);
                }
            }
        }
    }

    fn expect_ckpt(&mut self, peer: usize) -> Result<(usize, Part), ShardError> {
        loop {
            match self.recv_msg(peer, self.step_timeout)? {
                Msg::Ckpt {
                    epoch,
                    step,
                    index,
                    data,
                } if epoch == self.epoch && step == self.step => return Ok((index, data)),
                Msg::Halo {
                    epoch,
                    step,
                    hi_edge,
                    data,
                } if epoch == self.epoch && step == self.step => {
                    self.pending_halos.push((peer, hi_edge, data));
                }
                Msg::Halo { epoch, step, .. }
                | Msg::Status { epoch, step }
                | Msg::Ckpt { epoch, step, .. }
                | Msg::Gather { epoch, step, .. } => {
                    debug_assert!(self.is_stale(epoch, step));
                }
                Msg::Recover {
                    epoch,
                    rank,
                    ckpt_step,
                } => {
                    self.note_recover(rank, epoch, ckpt_step);
                    return Err(ShardError::RecoveryRequested);
                }
            }
        }
    }

    fn expect_gather(&mut self, peer: usize, seq: u32) -> Result<(usize, Vec<f64>), ShardError> {
        loop {
            match self.recv_msg(peer, self.step_timeout)? {
                Msg::Gather {
                    epoch,
                    step,
                    seq: s,
                    index,
                    data,
                } if epoch == self.epoch && step == self.step && s == seq => {
                    return Ok((index, data))
                }
                Msg::Halo {
                    epoch,
                    step,
                    hi_edge,
                    data,
                } if epoch == self.epoch && step == self.step => {
                    self.pending_halos.push((peer, hi_edge, data));
                }
                Msg::Halo { epoch, step, .. }
                | Msg::Status { epoch, step }
                | Msg::Ckpt { epoch, step, .. }
                | Msg::Gather { epoch, step, .. } => {
                    debug_assert!(self.is_stale(epoch, step));
                }
                Msg::Recover {
                    epoch,
                    rank,
                    ckpt_step,
                } => {
                    self.note_recover(rank, epoch, ckpt_step);
                    return Err(ShardError::RecoveryRequested);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Driver internals
    // ------------------------------------------------------------------

    fn begin_step(&mut self, step: u64) {
        self.step = step;
        self.gather_seq = 0;
        // Anything still pending belongs to a finished step whose ghosts
        // the app never consumed; lockstep guarantees nothing here can be
        // for the step that is only now beginning.
        self.pending_halos.clear();
        self.step_base_ns = self.ctx.modeled_ns();
        self.interior_ns = 0;
        self.boundary_ns = 0;
        self.step_halo_bytes = 0;
    }

    /// Close the step: charge the overlap-accounted cost to the shard
    /// clock, then run the lockstep exchange — a status ping, or a
    /// replicated checkpoint when `dump` is provided (the checkpoint
    /// doubles as the status). Returns the assembled global snapshot when
    /// a checkpoint was taken.
    fn end_step(&mut self, dump: Option<Vec<f64>>) -> Result<Option<Part>, ShardError> {
        let total_ns = self.ctx.modeled_ns() - self.step_base_ns;
        let exchange_ns = total_ns.saturating_sub(self.interior_ns + self.boundary_ns);
        let charged = if self.overlap {
            self.interior_ns.max(exchange_ns) + self.boundary_ns
        } else {
            total_ns
        };
        self.shard_clock_ns += charged;
        self.counters
            .steps
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.record_step_spans(charged, exchange_ns);

        let result = if let Some(data) = dump {
            let parts = self.exchange_ckpt(data)?;
            self.counters
                .checkpoints
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Some(Arc::new(assemble(&parts)))
        } else {
            self.exchange_status()?;
            None
        };
        Ok(result)
    }

    fn record_step_spans(&self, charged_ns: u64, exchange_ns: u64) {
        if let Some(recorder) = self.ctx.tracer() {
            if recorder.is_enabled() {
                recorder.record(
                    Span::new(self.ctx.key(), ConstructKind::Shard, "step")
                        .dims(self.step, self.my_index as u64, self.epoch as u64)
                        .geometry(self.my_world_rank() as u64, self.plan.count() as u64)
                        .modeled(charged_ns),
                );
                if self.step_halo_bytes > 0 {
                    recorder.record(
                        Span::new(self.ctx.key(), ConstructKind::Halo, "exchange")
                            .dims(self.step, self.my_index as u64, self.epoch as u64)
                            .geometry(self.my_world_rank() as u64, self.plan.count() as u64)
                            .payload(self.step_halo_bytes)
                            .modeled(exchange_ns),
                    );
                }
            }
        }
    }

    fn record_reshard_span(&self) {
        if let Some(recorder) = self.ctx.tracer() {
            if recorder.is_enabled() {
                recorder.record(
                    Span::new(self.ctx.key(), ConstructKind::Shard, "reshard")
                        .dims(self.step, self.my_index as u64, self.epoch as u64)
                        .geometry(self.my_world_rank() as u64, self.plan.count() as u64),
                );
            }
        }
    }

    fn live_peers(&self) -> Vec<usize> {
        self.owners
            .iter()
            .copied()
            .filter(|&r| r != self.my_world_rank())
            .collect()
    }

    /// World ranks adjacent to this rank on the shard-index ring — the
    /// heartbeat peers. Deduped at N = 2 (both directions are the same
    /// rank); empty when running alone.
    fn ring_peers(&self) -> Vec<usize> {
        let count = self.owners.len();
        if count <= 1 {
            return Vec::new();
        }
        let prev = self.owners[(self.my_index + count - 1) % count];
        let next = self.owners[(self.my_index + 1) % count];
        if prev == next {
            vec![prev]
        } else {
            vec![prev, next]
        }
    }

    /// The ring heartbeat: O(N) status messages world-wide per step where
    /// the old all-to-all cost O(N²). Lockstep with both ring neighbors
    /// transitively bounds skew everywhere it matters; death detection
    /// chains around the ring via the `Recover` broadcast (module docs).
    fn exchange_status(&mut self) -> Result<(), ShardError> {
        let peers = self.ring_peers();
        for &peer in &peers {
            self.comm.send(
                peer,
                Msg::Status {
                    epoch: self.epoch,
                    step: self.step,
                },
            )?;
        }
        self.counters
            .heartbeats
            .fetch_add(peers.len() as u64, std::sync::atomic::Ordering::Relaxed);
        for &peer in &peers {
            self.expect_status(peer)?;
        }
        Ok(())
    }

    /// Replicated checkpoint: everyone sends their owned dump to everyone
    /// (one shared `Arc`, no copy per peer), and every rank ends up holding
    /// the identical contributions in shard-index order.
    fn exchange_ckpt(&mut self, data: Vec<f64>) -> Result<Vec<Part>, ShardError> {
        let data = Arc::new(data);
        let mut parts: Vec<Option<Part>> = vec![None; self.plan.count()];
        for peer in self.live_peers() {
            self.comm.send(
                peer,
                Msg::Ckpt {
                    epoch: self.epoch,
                    step: self.step,
                    index: self.my_index,
                    data: Arc::clone(&data),
                },
            )?;
        }
        parts[self.my_index] = Some(data);
        for peer in self.live_peers() {
            let (index, part) = self.expect_ckpt(peer)?;
            parts[index] = Some(part);
        }
        Ok(parts
            .into_iter()
            .map(|part| part.expect("every shard contributed"))
            .collect())
    }

    /// Reshard after an observed failure. Announces `Recover` to every
    /// current peer, drains each peer's queue up to its own `Recover`
    /// (per-pair FIFO makes that the stale-message flush), marks peers
    /// that disconnect or stay silent as dead, re-splits the domain over
    /// the sorted survivors, and returns the agreed replay step (the
    /// minimum announced checkpoint — identical everywhere, since
    /// checkpoints are replicated in lockstep).
    fn recover(&mut self, my_ckpt_step: u64) -> u64 {
        let target_epoch = self.epoch + 1;
        let me = self.my_world_rank();
        for peer in self.live_peers() {
            // Dead peers fail the send; that is how we learn.
            let _ = self.comm.send(
                peer,
                Msg::Recover {
                    epoch: target_epoch,
                    rank: me,
                    ckpt_step: my_ckpt_step,
                },
            );
        }
        let mut alive = vec![me];
        let mut replay_step = my_ckpt_step;
        for peer in self.live_peers() {
            if let Some((epoch, ckpt)) = self.recover_seen.remove(&peer) {
                if epoch >= target_epoch {
                    alive.push(peer);
                    replay_step = replay_step.min(ckpt);
                }
                continue;
            }
            loop {
                match self.recv_msg(peer, self.recover_timeout) {
                    Ok(Msg::Recover {
                        epoch, ckpt_step, ..
                    }) if epoch >= target_epoch => {
                        alive.push(peer);
                        replay_step = replay_step.min(ckpt_step);
                        break;
                    }
                    // Anything older than the peer's `Recover` is stale
                    // traffic from before it observed the death; FIFO
                    // order means consuming up to the `Recover` IS the
                    // flush.
                    Ok(_) => continue,
                    // Disconnected: dead. Timeout: wedged past the
                    // deadline — treated as dead (single-failure scope).
                    Err(_) => break,
                }
            }
        }
        alive.sort_unstable();
        let shard = self.shard();
        let count = alive
            .len()
            .min(ShardPlan::max_count(shard.extent, shard.radius));
        self.epoch = target_epoch;
        self.owners = alive;
        self.my_index = self
            .owners
            .iter()
            .position(|&r| r == me)
            .expect("self is a survivor");
        // More survivors than the radius cap can host shards never happens
        // in practice (the initial clamp already enforced it).
        debug_assert_eq!(count, self.owners.len());
        self.plan = ShardPlan::split(shard.extent, count, shard.radius, shard.topology);
        self.recover_seen.clear();
        self.self_halo_lo = None;
        self.self_halo_hi = None;
        self.pending_halos.clear();
        self.counters
            .reshards
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.record_reshard_span();
        replay_step
    }
}

/// What one rank reports after a sharded run.
#[derive(Debug, Clone)]
pub struct RankReport {
    /// World rank.
    pub rank: usize,
    /// Overlap-accounted modeled clock of this shard (the run's modeled
    /// makespan is the max over ranks).
    pub shard_clock_ns: u64,
    /// Raw serialized modeled time of the rank's context (every launch
    /// and transfer, no overlap credit).
    pub modeled_ns: u64,
    /// Shard counters of the rank's context (`ctx.stats().shard`).
    pub stats: ShardStats,
    /// Recovery epoch the rank finished in (0 = no reshard happened).
    pub epochs: u32,
}

/// The result of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The final canonical global snapshot (assembled from the surviving
    /// shards' dumps).
    pub field: Vec<f64>,
    /// Per-world-rank reports; `None` for ranks that died mid-run.
    pub reports: Vec<Option<RankReport>>,
    /// Devices the run launched with (after the radius clamp).
    pub devices: usize,
}

impl ShardOutcome {
    /// The run's modeled makespan: the max shard clock over survivors.
    pub fn makespan_ns(&self) -> u64 {
        self.reports
            .iter()
            .flatten()
            .map(|r| r.shard_clock_ns)
            .max()
            .unwrap_or(0)
    }

    /// Ranks that finished.
    pub fn survivors(&self) -> usize {
        self.reports.iter().flatten().count()
    }
}

enum RankResult {
    /// The rank finished: every shard's final contribution, in index order
    /// (identical on every survivor), and its report.
    Done {
        parts: Vec<Part>,
        report: RankReport,
    },
    /// The rank's device died (exhausted retries panic inside a launch);
    /// the panic is caught at the rank body so the world keeps running.
    Died,
}

/// Run `app` sharded over `opts.devices` simulated devices, one rank (OS
/// thread) per device, each with its own context from `factory(rank)`.
///
/// Returns the final global field (bit-identical to a single-device run of
/// the same app — sharding never changes values, only the split) plus
/// per-rank reports. A rank whose device dies mid-run (e.g. under
/// `racc-chaos` injection with retries exhausted) is dropped; the
/// survivors reshard and replay from the last replicated checkpoint, and
/// the field is still bit-identical to the fault-free run.
pub fn run_sharded<B, A>(
    app: Arc<A>,
    opts: ShardOptions,
    factory: impl Fn(usize) -> Context<B> + Send + Sync + 'static,
) -> ShardOutcome
where
    B: Backend,
    A: ShardApp<B>,
{
    let devices = opts
        .devices
        .clamp(1, ShardPlan::max_count(app.extent(), app.radius()))
        .min(app.extent());
    let opts = ShardOptions { devices, ..opts };
    // One canonical initial snapshot for the whole run, shared by every
    // rank's checkpoint history.
    let initial = Arc::new(app.initial());
    let run_app = Arc::clone(&app);
    let results: Vec<RankResult> = World::run(devices, move |rank| {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            rank_main(&*run_app, &opts, &factory, &initial, rank)
        }));
        // A panic here is the simulated device dying (injected faults
        // exhausted the retry policy). Returning normally drops this
        // rank's channel endpoints, which is exactly how the survivors
        // detect the death.
        outcome.unwrap_or(RankResult::Died)
    });
    let mut final_parts = None;
    let mut reports = Vec::with_capacity(results.len());
    for result in results {
        match result {
            RankResult::Done { parts, report } => {
                // Survivors hold identical contributions; assemble one.
                final_parts.get_or_insert(parts);
                reports.push(Some(report));
            }
            RankResult::Died => reports.push(None),
        }
    }
    ShardOutcome {
        field: assemble(&final_parts.expect("at least one rank survives")),
        reports,
        devices,
    }
}

fn rank_main<B, A>(
    app: &A,
    opts: &ShardOptions,
    factory: &(impl Fn(usize) -> Context<B> + Send + Sync),
    initial: &Part,
    rank: &Rank,
) -> RankResult
where
    B: Backend,
    A: ShardApp<B>,
{
    let ctx = factory(rank.rank());
    let plan = ShardPlan::split(app.extent(), rank.size(), app.radius(), app.topology());
    let mut handle = ShardHandle {
        ctx: &ctx,
        comm: rank,
        my_index: rank.rank(),
        owners: (0..rank.size()).collect(),
        plan,
        epoch: 0,
        step: 0,
        gather_seq: 0,
        overlap: opts.overlap,
        step_timeout: opts.step_timeout,
        recover_timeout: opts.recover_timeout,
        counters: Arc::clone(ctx.shard_counters()),
        recover_seen: BTreeMap::new(),
        self_halo_lo: None,
        self_halo_hi: None,
        pending_halos: Vec::new(),
        step_base_ns: 0,
        interior_ns: 0,
        boundary_ns: 0,
        shard_clock_ns: 0,
        step_halo_bytes: 0,
    };

    // Checkpoint history, newest last. Two entries suffice: a death during
    // a checkpoint exchange can leave ranks one checkpoint apart (a rank
    // that already collected every contribution advances; one still
    // waiting does not), and recovery agrees on the *minimum* announced
    // step — which the advanced rank only still holds via its previous
    // entry. Lockstep bounds the divergence to exactly one boundary.
    let mut ckpts: Vec<(u64, Part)> = vec![(0, Arc::clone(initial))];
    let mut state = app.init(&ctx, handle.shard(), &ckpts[0].1);
    let mut step: u64 = 0;
    let total = app.total_steps();

    loop {
        if step >= total {
            // Final gather: collect every shard's dump (`run_sharded`
            // assembles the field once, from one survivor's parts). A death
            // here goes through the same recovery (replaying any steps past
            // the last checkpoint).
            handle.begin_step(step);
            let dump = app.dump(&ctx, handle.shard(), &state);
            match handle.exchange_ckpt(dump) {
                Ok(parts) => {
                    let report = RankReport {
                        rank: rank.rank(),
                        shard_clock_ns: handle.shard_clock_ns,
                        modeled_ns: ctx.modeled_ns(),
                        stats: ctx.stats().shard.unwrap_or_default(),
                        epochs: handle.epoch,
                    };
                    return RankResult::Done { parts, report };
                }
                Err(_) => {
                    step = replay_from(&mut handle, app, &ctx, &mut ckpts, step, &mut state);
                    continue;
                }
            }
        }

        handle.begin_step(step);
        let due = opts.checkpoint_every > 0 && (step + 1).is_multiple_of(opts.checkpoint_every);
        let result = app.step(&mut handle, &mut state, step).and_then(|()| {
            let dump = due.then(|| app.dump(&ctx, handle.shard(), &state));
            handle.end_step(dump)
        });
        match result {
            Ok(Some(snapshot)) => {
                ckpts.push((step + 1, snapshot));
                if ckpts.len() > 2 {
                    ckpts.remove(0);
                }
                step += 1;
            }
            Ok(None) => step += 1,
            Err(_) => {
                step = replay_from(&mut handle, app, &ctx, &mut ckpts, step, &mut state);
            }
        }
    }
}

/// Shared recovery tail: reshard, rebuild state from the agreed
/// checkpoint, and return the step to resume from.
fn replay_from<B, A>(
    handle: &mut ShardHandle<'_, B>,
    app: &A,
    ctx: &Context<B>,
    ckpts: &mut Vec<(u64, Part)>,
    current_step: u64,
    state: &mut A::State,
) -> u64
where
    B: Backend,
    A: ShardApp<B>,
{
    let newest = ckpts.last().expect("history is never empty").0;
    let replay_step = handle.recover(newest);
    // Drop any checkpoint newer than the agreed step (it would be
    // recomputed identically, but keeping it would desync the history).
    ckpts.retain(|(s, _)| *s <= replay_step);
    let (step, snapshot) = ckpts.last().expect("agreed step is in the history");
    assert_eq!(
        *step, replay_step,
        "survivors agreed on a checkpoint this rank no longer holds"
    );
    handle.counters.replayed_steps.fetch_add(
        current_step.saturating_sub(replay_step),
        std::sync::atomic::Ordering::Relaxed,
    );
    *state = app.init(ctx, handle.shard(), snapshot);
    replay_step
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_two_overlapped_devices() {
        let o = ShardOptions::default();
        assert_eq!((o.devices, o.overlap), (2, true));
        assert!(ShardOptions::devices(4).overlap);
    }
}
