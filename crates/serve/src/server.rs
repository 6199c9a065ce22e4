//! The server: a background dispatcher thread multiplexing jobs from many
//! tenants across a pool of backend contexts.
//!
//! # Scheduling model
//!
//! The dispatcher runs a deterministic discrete-event loop over **modeled
//! time** (the same clock every backend's `Timeline` keeps). Two event
//! kinds exist: *arrivals* (a staged job reaches its admission instant)
//! and *dispatches* (some device's pipeline can accept its next job).
//! Events are processed in modeled-time order, arrivals first on ties, so
//! a given submission schedule produces one schedule of decisions — which
//! is what lets the bench harness and the chaos soak assert reproducible
//! throughput and bit-identical results.
//!
//! Jobs execute inline on the dispatcher thread, one at a time, against
//! the pool context the scheduler assigned; device parallelism and
//! H2D/compute/D2H overlap are captured by each device's three-engine
//! pipeline model ([`crate::engine`]). This mirrors the trade the shard
//! runner makes: real threads where the protocol needs them, modeled
//! accounting where the machine being modeled (N devices) is wider than
//! the machine running the test suite.
//!
//! # Fairness
//!
//! Per-tenant weighted fair queueing: every tenant carries a virtual time,
//! advanced by `modeled cost / weight` on each dispatch; the scheduler
//! picks the eligible tenant with the smallest virtual time. A tenant
//! whose modeled in-flight jobs reached its `max_in_flight` cap is held
//! back (counted as `preempted`); a tenant going from idle to backlogged
//! rejoins at the current virtual-time floor so idling banks no credit.

use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crossbeam::channel::{unbounded, Receiver, SendError, Sender};
use racc_core::trace::{ConstructKind, Span};
use racc_core::{Backend, Context, RaccError, RetryPolicy, ServeStats};
use racc_prefs::{Preferences, TenantPrefs};

use crate::engine::Engine;
use crate::error::ServeError;
use crate::job::{Completed, ErasedOutput, JobCtx, JobHandle, JobReport, Phases, ServeJob};

/// Weighted-fair virtual time is charged in units of `modeled_ns << WFQ_SHIFT
/// / weight` so integer division by small weights keeps precision.
const WFQ_SHIFT: u32 = 10;

/// One tenant's admission and fairness knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Weighted-fair share relative to other tenants (>= 1; 0 is clamped).
    pub weight: u32,
    /// Cap on modeled in-flight jobs (dispatched, not yet completed on the
    /// modeled clock). `usize::MAX` = unlimited.
    pub max_in_flight: usize,
    /// Per-tenant admission bound: queued jobs beyond this are shed with
    /// [`ServeError::TenantQueueFull`].
    pub queue_depth: usize,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            weight: 1,
            max_in_flight: usize::MAX,
            queue_depth: 64,
        }
    }
}

impl TenantConfig {
    /// Overlay `[tenant.<name>]` preferences on top of this config.
    pub fn with_prefs(mut self, prefs: &TenantPrefs) -> Self {
        if let Some(w) = prefs.weight {
            self.weight = w;
        }
        if let Some(m) = prefs.max_in_flight {
            self.max_in_flight = m;
        }
        if let Some(d) = prefs.queue_depth {
            self.queue_depth = d;
        }
        self
    }
}

/// Server construction knobs. `Default` is one device, a 256-deep global
/// queue and batches of up to 8; the builder methods and
/// [`ServerOptions::with_prefs`] configure a deployment.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Pool width: how many contexts the factory is asked for.
    pub devices: usize,
    /// Server-wide admission bound across all tenant queues.
    pub global_queue_depth: usize,
    /// Cross-tenant batching cap: at most this many queued same-shape jobs
    /// dispatch to one device as a group (1 disables batching).
    pub batch_limit: usize,
    /// Model H2D/compute/D2H overlap per device (the A/B lever).
    pub overlap: bool,
    /// Server-level retry budget per job before backend fallback.
    pub retry: RetryPolicy,
    /// Whether the factory is asked for one extra, last-resort context
    /// (index `devices`) that jobs fall back to after exhausting retries.
    pub fallback: bool,
    /// Config for tenants not named in [`ServerOptions::tenants`].
    pub default_tenant: TenantConfig,
    /// Pre-registered tenants (others auto-register on first submit).
    pub tenants: Vec<(String, TenantConfig)>,
    /// Start held: stage submissions but process nothing until
    /// [`Server::release`] (or shutdown). An open-loop load generator
    /// stages its whole arrival schedule under hold, so admission and
    /// dispatch replay in pure modeled-time order — a function of the
    /// load, not of how fast the submitting thread ran.
    pub hold: bool,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            devices: 1,
            global_queue_depth: 256,
            batch_limit: 8,
            overlap: true,
            retry: RetryPolicy::none(),
            fallback: false,
            default_tenant: TenantConfig::default(),
            tenants: Vec::new(),
            hold: false,
        }
    }
}

impl ServerOptions {
    /// Set the pool width.
    pub fn devices(mut self, n: usize) -> Self {
        self.devices = n.max(1);
        self
    }

    /// Set the server-wide admission bound.
    pub fn global_queue_depth(mut self, n: usize) -> Self {
        self.global_queue_depth = n.max(1);
        self
    }

    /// Set the same-shape batching cap.
    pub fn batch_limit(mut self, n: usize) -> Self {
        self.batch_limit = n.max(1);
        self
    }

    /// Toggle modeled H2D/compute/D2H overlap.
    pub fn overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// Set the server-level retry budget.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Ask for a last-resort fallback context.
    pub fn fallback(mut self, on: bool) -> Self {
        self.fallback = on;
        self
    }

    /// Set the config applied to tenants not explicitly registered.
    pub fn tenant_defaults(mut self, cfg: TenantConfig) -> Self {
        self.default_tenant = cfg;
        self
    }

    /// Pre-register one tenant.
    pub fn tenant(mut self, name: &str, cfg: TenantConfig) -> Self {
        match self.tenants.iter_mut().find(|(n, _)| n == name) {
            Some((_, existing)) => *existing = cfg,
            None => self.tenants.push((name.to_string(), cfg)),
        }
        self
    }

    /// Start the server held (see the `hold` field).
    pub fn hold(mut self, on: bool) -> Self {
        self.hold = on;
        self
    }

    /// Register every `[tenant.<name>]` table from a preferences store,
    /// each overlaying the default tenant config.
    pub fn with_prefs(mut self, prefs: &Preferences) -> Self {
        for (name, tp) in prefs.tenants() {
            let cfg = self.default_tenant.with_prefs(&tp);
            self = self.tenant(&name, cfg);
        }
        self
    }
}

/// Per-tenant counters shared between the dispatcher and `stats()` readers.
#[derive(Debug, Default)]
struct TenantShared {
    queued: AtomicUsize,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
}

struct TenantEntry {
    name: String,
    cfg: TenantConfig,
    shared: Arc<TenantShared>,
}

/// State shared between the client-side [`Server`] handle and the
/// dispatcher thread.
struct Shared {
    counters: racc_core::ServeCounters,
    tenants: Mutex<Vec<TenantEntry>>,
    makespan_ns: AtomicU64,
}

impl Shared {
    fn tenant_index(&self, name: &str, default_cfg: &TenantConfig) -> usize {
        let mut reg = self.tenants.lock().unwrap();
        if let Some(i) = reg.iter().position(|e| e.name == name) {
            return i;
        }
        reg.push(TenantEntry {
            name: name.to_string(),
            cfg: *default_cfg,
            shared: Arc::new(TenantShared::default()),
        });
        reg.len() - 1
    }
}

/// One tenant's scheduling state in a [`ServerSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Tenant name.
    pub name: String,
    /// Weighted-fair share.
    pub weight: u32,
    /// Jobs currently queued (admitted, not yet dispatched).
    pub queued: usize,
    /// Jobs admitted so far.
    pub admitted: u64,
    /// Jobs shed at admission.
    pub rejected: u64,
    /// Jobs completed with `Ok`.
    pub completed: u64,
    /// Jobs failed after the degradation ladder.
    pub failed: u64,
}

/// A point-in-time view of the server: pool-wide [`ServeStats`] totals plus
/// per-tenant queue depths — the `ctx.stats()`-style snapshot of the
/// serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerSnapshot {
    /// Pool-wide totals (the same shape `ctx.stats().serve` reports per
    /// pool context).
    pub totals: ServeStats,
    /// Per-tenant registration order view.
    pub tenants: Vec<TenantSnapshot>,
    /// Modeled time at which the busiest device pipeline drains — the
    /// denominator of modeled throughput.
    pub makespan_ns: u64,
}

type RunFn<B> = Box<dyn Fn(&JobCtx<'_, B>) -> Result<ErasedOutput, RaccError> + Send>;
type ResolveFn = Box<dyn FnOnce(Result<(ErasedOutput, JobReport), ServeError>) + Send>;

struct QueuedJob<B: Backend> {
    id: u64,
    tenant: usize,
    arrival_ns: u64,
    shape: Option<&'static str>,
    run: RunFn<B>,
    resolve: ResolveFn,
}

struct Staged<B: Backend> {
    time: u64,
    seq: u64,
    job: QueuedJob<B>,
}

impl<B: Backend> PartialEq for Staged<B> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<B: Backend> Eq for Staged<B> {}
impl<B: Backend> PartialOrd for Staged<B> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<B: Backend> Ord for Staged<B> {
    /// Reversed so the `BinaryHeap` pops the *earliest* (time, seq) first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

enum Ctl<B: Backend> {
    Submit {
        arrival: Option<u64>,
        job: QueuedJob<B>,
    },
    Release,
    Shutdown,
}

/// The client handle: submit jobs, read stats, shut down. Cheap to share
/// by reference across submitting threads (`submit` takes `&self`).
pub struct Server<B: Backend> {
    tx: Sender<Ctl<B>>,
    join: Option<std::thread::JoinHandle<()>>,
    shared: Arc<Shared>,
    default_tenant: TenantConfig,
    devices: usize,
    next_id: AtomicU64,
}

impl<B: Backend> Server<B> {
    /// Build the pool and start the dispatcher. The factory is called with
    /// each device index `0..options.devices` (and once more with index
    /// `devices` for the fallback context when `options.fallback` is set);
    /// it decides the backend construction, chaos arming, tracing, etc.
    /// per pool member.
    pub fn start<F>(options: ServerOptions, mut factory: F) -> Server<B>
    where
        F: FnMut(usize) -> Context<B>,
    {
        let devices = options.devices.max(1);
        let ctxs: Vec<Context<B>> = (0..devices).map(&mut factory).collect();
        let fallback = options.fallback.then(|| factory(devices));
        let shared = Arc::new(Shared {
            counters: racc_core::ServeCounters::default(),
            tenants: Mutex::new(
                options
                    .tenants
                    .iter()
                    .map(|(name, cfg)| TenantEntry {
                        name: name.clone(),
                        cfg: *cfg,
                        shared: Arc::new(TenantShared::default()),
                    })
                    .collect(),
            ),
            makespan_ns: AtomicU64::new(0),
        });
        let (tx, rx) = unbounded();
        let dispatcher = Dispatcher {
            rx,
            ctxs,
            fallback,
            engines: vec![Engine::default(); devices],
            tenants: Vec::new(),
            staged: BinaryHeap::new(),
            shared: Arc::clone(&shared),
            now: 0,
            vfloor: 0,
            seq: 0,
            global_depth: options.global_queue_depth.max(1),
            batch_limit: options.batch_limit.max(1),
            overlap: options.overlap,
            retry: options.retry,
            held: options.hold,
        };
        let join = std::thread::Builder::new()
            .name("racc-serve".into())
            .spawn(move || dispatcher.run())
            .expect("spawn racc-serve dispatcher");
        Server {
            tx,
            join: Some(join),
            shared,
            default_tenant: options.default_tenant,
            devices,
            next_id: AtomicU64::new(1),
        }
    }

    /// Pool width.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Submit a job arriving *now* (at the server's current modeled
    /// frontier). Returns immediately; the handle resolves when the job
    /// completes, fails, or is shed.
    pub fn submit<J: ServeJob<B>>(&self, tenant: &str, job: J) -> JobHandle<J::Output> {
        self.submit_inner(tenant, None, job)
    }

    /// Submit a job with an explicit modeled arrival time — the open-loop
    /// load-generator path: stage a whole arrival schedule up front and
    /// the dispatcher admits each job at its instant, in time order,
    /// deterministically.
    pub fn submit_at<J: ServeJob<B>>(
        &self,
        tenant: &str,
        arrival_ns: u64,
        job: J,
    ) -> JobHandle<J::Output> {
        self.submit_inner(tenant, Some(arrival_ns), job)
    }

    fn submit_inner<J: ServeJob<B>>(
        &self,
        tenant: &str,
        arrival: Option<u64>,
        job: J,
    ) -> JobHandle<J::Output> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let tenant_idx = self.shared.tenant_index(tenant, &self.default_tenant);
        let shape = job.shape();
        let (tx, rx) = unbounded();
        let run: RunFn<B> = Box::new(move |jc: &JobCtx<'_, B>| {
            job.run(jc).map(|out| Box::new(out) as ErasedOutput)
        });
        let resolve: ResolveFn = Box::new(move |res| {
            let _ = tx.send(res.map(|(out, report)| {
                Completed {
                    output: *out
                        .downcast::<J::Output>()
                        .expect("job output type matches its handle"),
                    report,
                }
            }));
        });
        let queued = QueuedJob {
            id,
            tenant: tenant_idx,
            arrival_ns: 0,
            shape,
            run,
            resolve,
        };
        if let Err(SendError(Ctl::Submit { job, .. })) = self.tx.send(Ctl::Submit {
            arrival,
            job: queued,
        }) {
            (job.resolve)(Err(ServeError::Shutdown));
        }
        JobHandle { id, rx }
    }

    /// Release a server started with [`ServerOptions::hold`]: dispatch
    /// begins once every submission sent before this call is staged.
    pub fn release(&self) {
        let _ = self.tx.send(Ctl::Release);
    }

    /// Pool-wide totals plus per-tenant queue depths.
    pub fn stats(&self) -> ServerSnapshot {
        let c = &self.shared.counters;
        let totals = ServeStats {
            admitted: c.admitted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            batched_jobs: c.batched_jobs.load(Ordering::Relaxed),
            retried: c.retried.load(Ordering::Relaxed),
            fallbacks: c.fallbacks.load(Ordering::Relaxed),
            preempted: c.preempted.load(Ordering::Relaxed),
        };
        let tenants = self
            .shared
            .tenants
            .lock()
            .unwrap()
            .iter()
            .map(|e| TenantSnapshot {
                name: e.name.clone(),
                weight: e.cfg.weight.max(1),
                queued: e.shared.queued.load(Ordering::Relaxed),
                admitted: e.shared.admitted.load(Ordering::Relaxed),
                rejected: e.shared.rejected.load(Ordering::Relaxed),
                completed: e.shared.completed.load(Ordering::Relaxed),
                failed: e.shared.failed.load(Ordering::Relaxed),
            })
            .collect();
        ServerSnapshot {
            totals,
            tenants,
            makespan_ns: self.shared.makespan_ns.load(Ordering::Relaxed),
        }
    }

    /// Drain every staged and queued job, stop the dispatcher, and return
    /// the final snapshot.
    pub fn shutdown(mut self) -> ServerSnapshot {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        let _ = self.tx.send(Ctl::Shutdown);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl<B: Backend> Drop for Server<B> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

struct TenantState<B: Backend> {
    name: String,
    cfg: TenantConfig,
    shared: Arc<TenantShared>,
    queue: VecDeque<QueuedJob<B>>,
    vtime: u128,
    /// Modeled completion times of dispatched-but-not-yet-drained jobs.
    inflight: Vec<u64>,
}

impl<B: Backend> TenantState<B> {
    fn inflight_at(&self, t: u64) -> usize {
        self.inflight.iter().filter(|&&c| c > t).count()
    }

    fn eligible_at(&self, t: u64) -> bool {
        !self.queue.is_empty() && self.inflight_at(t) < self.cfg.max_in_flight
    }
}

struct Dispatcher<B: Backend> {
    rx: Receiver<Ctl<B>>,
    ctxs: Vec<Context<B>>,
    fallback: Option<Context<B>>,
    engines: Vec<Engine>,
    tenants: Vec<TenantState<B>>,
    staged: BinaryHeap<Staged<B>>,
    shared: Arc<Shared>,
    /// Modeled time of the last processed event.
    now: u64,
    /// Virtual-time floor newly-backlogged tenants rejoin at.
    vfloor: u128,
    seq: u64,
    global_depth: usize,
    batch_limit: usize,
    overlap: bool,
    retry: RetryPolicy,
    /// While held, arrivals are admitted but nothing dispatches.
    held: bool,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

impl<B: Backend> Dispatcher<B> {
    fn run(mut self) {
        let mut shutdown = false;
        loop {
            while let Ok(msg) = self.rx.try_recv() {
                self.stage(msg, &mut shutdown);
            }
            // While held, events only stage: on release the loop replays
            // arrivals and dispatches in pure modeled-time order, so both
            // admission and scheduling are functions of the load alone.
            let (next_arrival, next_dispatch) = if self.held {
                (None, None)
            } else {
                (
                    self.staged.peek().map(|s| s.time),
                    self.next_dispatch_time(),
                )
            };
            match (next_arrival, next_dispatch) {
                (Some(a), Some(t)) if a <= t => self.process_next_arrival(),
                (_, Some(t)) => self.dispatch_at(t),
                (Some(_), None) => self.process_next_arrival(),
                (None, None) => {
                    if shutdown {
                        break;
                    }
                    match self.rx.recv() {
                        Ok(msg) => self.stage(msg, &mut shutdown),
                        Err(_) => break,
                    }
                }
            }
        }
    }

    fn stage(&mut self, msg: Ctl<B>, shutdown: &mut bool) {
        match msg {
            Ctl::Submit { arrival, mut job } => {
                let time = arrival.unwrap_or(self.now);
                job.arrival_ns = time;
                self.seq += 1;
                self.staged.push(Staged {
                    time,
                    seq: self.seq,
                    job,
                });
            }
            Ctl::Release => self.held = false,
            Ctl::Shutdown => {
                // Shutdown drains everything, held or not.
                self.held = false;
                *shutdown = true;
            }
        }
    }

    /// Lazily mirror tenants auto-registered by the client side.
    fn sync_tenants(&mut self) {
        let reg = self.shared.tenants.lock().unwrap();
        for entry in reg.iter().skip(self.tenants.len()) {
            self.tenants.push(TenantState {
                name: entry.name.clone(),
                cfg: TenantConfig {
                    weight: entry.cfg.weight.max(1),
                    ..entry.cfg
                },
                shared: Arc::clone(&entry.shared),
                queue: VecDeque::new(),
                vtime: self.vfloor,
                inflight: Vec::new(),
            });
        }
    }

    fn process_next_arrival(&mut self) {
        let staged = self.staged.pop().expect("arrival peeked");
        self.now = self.now.max(staged.time);
        self.sync_tenants();
        let job = staged.job;
        let total_queued: usize = self.tenants.iter().map(|t| t.queue.len()).sum();
        let ts = &mut self.tenants[job.tenant];
        if total_queued >= self.global_depth {
            bump(&self.shared.counters.rejected);
            bump(&ts.shared.rejected);
            (job.resolve)(Err(ServeError::Saturated {
                depth: self.global_depth,
            }));
        } else if ts.queue.len() >= ts.cfg.queue_depth {
            bump(&self.shared.counters.rejected);
            bump(&ts.shared.rejected);
            (job.resolve)(Err(ServeError::TenantQueueFull {
                tenant: ts.name.clone(),
                depth: ts.cfg.queue_depth,
            }));
        } else {
            bump(&self.shared.counters.admitted);
            bump(&ts.shared.admitted);
            if ts.queue.is_empty() {
                ts.vtime = ts.vtime.max(self.vfloor);
            }
            ts.shared.queued.fetch_add(1, Ordering::Relaxed);
            ts.queue.push_back(job);
        }
    }

    /// Modeled time of the next dispatch decision, or `None` when no job
    /// is queued. Advances past in-flight completions when every
    /// backlogged tenant sits at its cap.
    fn next_dispatch_time(&self) -> Option<u64> {
        if self.tenants.iter().all(|t| t.queue.is_empty()) {
            return None;
        }
        let dev_ready = self.engines.iter().map(|e| e.ready()).min().unwrap_or(0);
        let mut t = self.now.max(dev_ready);
        loop {
            if self.tenants.iter().any(|ts| ts.eligible_at(t)) {
                return Some(t);
            }
            let next_drain = self
                .tenants
                .iter()
                .filter(|ts| !ts.queue.is_empty())
                .flat_map(|ts| ts.inflight.iter().copied())
                .filter(|&c| c > t)
                .min();
            match next_drain {
                Some(c) => t = c,
                // Unreachable (capped implies in-flight work), but never
                // deadlock on an inconsistency.
                None => return Some(t),
            }
        }
    }

    fn dispatch_at(&mut self, t: u64) {
        self.now = t;
        for ts in &mut self.tenants {
            ts.inflight.retain(|&c| c > t);
        }
        // Weighted-fair pick; tenants held back purely by their in-flight
        // cap count as preempted.
        let mut pick = None;
        for (i, ts) in self.tenants.iter().enumerate() {
            if ts.queue.is_empty() {
                continue;
            }
            if ts.inflight_at(t) >= ts.cfg.max_in_flight {
                bump(&self.shared.counters.preempted);
                continue;
            }
            match pick {
                None => pick = Some(i),
                Some(p) if ts.vtime < self.tenants[p].vtime => pick = Some(i),
                _ => {}
            }
        }
        let Some(lead_tenant) = pick else { return };
        self.vfloor = self.vfloor.max(self.tenants[lead_tenant].vtime);
        let device = self
            .engines
            .iter()
            .enumerate()
            .min_by_key(|(i, e)| (e.ready(), *i))
            .map(|(i, _)| i)
            .expect("pool has at least one device");

        // Collect the dispatch group: the lead job, plus queued jobs of
        // the same shape from any tenant (weighted-fair order, caps
        // respected) up to the batch limit.
        let mut taken = vec![0usize; self.tenants.len()];
        let lead = self.tenants[lead_tenant].queue.pop_front().expect("queued");
        taken[lead_tenant] = 1;
        let shape = lead.shape;
        let mut batch = vec![lead];
        if shape.is_some() {
            while batch.len() < self.batch_limit {
                let cand = self
                    .tenants
                    .iter()
                    .enumerate()
                    .filter(|(i, ts)| {
                        ts.queue.front().map(|j| j.shape) == Some(shape)
                            && ts.inflight_at(t) + taken[*i] < ts.cfg.max_in_flight
                    })
                    .min_by_key(|(i, ts)| (ts.vtime, *i))
                    .map(|(i, _)| i);
                match cand {
                    Some(i) => {
                        batch.push(self.tenants[i].queue.pop_front().expect("matched head"));
                        taken[i] += 1;
                    }
                    None => break,
                }
            }
        }

        let batch_size = batch.len();
        bump(&self.shared.counters.batches);
        bump(&self.ctxs[device].serve_counters().batches);
        if batch_size >= 2 {
            add(&self.shared.counters.batched_jobs, batch_size as u64);
            add(
                &self.ctxs[device].serve_counters().batched_jobs,
                batch_size as u64,
            );
        }

        for job in batch {
            self.run_and_resolve(device, t, batch_size, job);
        }
        let makespan = self.engines.iter().map(|e| e.drained()).max().unwrap_or(0);
        self.shared
            .makespan_ns
            .fetch_max(makespan, Ordering::Relaxed);
    }

    fn run_and_resolve(&mut self, device: usize, t: u64, batch: usize, job: QueuedJob<B>) {
        let (outcome, phases, attempts, fell_back) = self.run_ladder(device, &job);
        let (start, completion) = self.engines[device].admit(t, &phases, self.overlap);
        let _ = start;
        let ndev = self.ctxs.len();
        let ts = &mut self.tenants[job.tenant];
        ts.vtime += ((phases.total().max(1) as u128) << WFQ_SHIFT) / ts.cfg.weight.max(1) as u128;
        ts.inflight.push(completion);
        ts.shared.queued.fetch_sub(1, Ordering::Relaxed);
        let report = JobReport {
            id: job.id,
            tenant: ts.name.clone(),
            device,
            arrival_ns: job.arrival_ns,
            dispatched_ns: t,
            completion_ns: completion,
            attempts,
            fell_back,
            batch,
        };
        self.record_span(device, ndev, job.tenant, &report);
        match outcome {
            Ok(out) => {
                bump(&self.shared.counters.completed);
                bump(&self.tenants[job.tenant].shared.completed);
                bump(&self.ctxs[device].serve_counters().completed);
                (job.resolve)(Ok((out, report)));
            }
            Err(error) => {
                bump(&self.shared.counters.failed);
                bump(&self.tenants[job.tenant].shared.failed);
                bump(&self.ctxs[device].serve_counters().failed);
                let tenant = self.tenants[job.tenant].name.clone();
                (job.resolve)(Err(ServeError::JobFailed {
                    tenant,
                    attempts,
                    error,
                }));
            }
        }
    }

    /// The degradation ladder: run on the assigned context, retry per the
    /// server's [`RetryPolicy`] (modeled backoff charged to the compute
    /// engine), then try the fallback context once, then fail just this
    /// job. Panics are caught so a poisoned job can never take the pool
    /// down.
    fn run_ladder(
        &self,
        device: usize,
        job: &QueuedJob<B>,
    ) -> (Result<ErasedOutput, String>, Phases, u32, bool) {
        let ctx = &self.ctxs[device];
        let mut attempts = 0u32;
        // Failed attempts and retry backoff are charged to the compute
        // engine on top of the successful attempt's measured phases.
        let mut extra_ns = 0u64;
        let mut last_err = String::new();
        while attempts < self.retry.max_attempts.max(1) {
            attempts += 1;
            let jc = JobCtx::new(ctx);
            match catch_unwind(AssertUnwindSafe(|| (job.run)(&jc))) {
                Ok(Ok(out)) => {
                    let mut phases = jc.phases();
                    phases.compute += extra_ns;
                    return (Ok(out), phases, attempts, false);
                }
                Ok(Err(e)) => {
                    extra_ns += jc.phases().total();
                    last_err = e.to_string();
                }
                Err(panic) => {
                    extra_ns += jc.phases().total();
                    last_err = render_panic(panic);
                }
            }
            if attempts < self.retry.max_attempts {
                extra_ns += self.retry.backoff_ns(attempts);
                bump(&self.shared.counters.retried);
                bump(&ctx.serve_counters().retried);
            }
        }
        if let Some(fb) = &self.fallback {
            attempts += 1;
            let jc = JobCtx::new(fb);
            match catch_unwind(AssertUnwindSafe(|| (job.run)(&jc))) {
                Ok(Ok(out)) => {
                    let mut phases = jc.phases();
                    phases.compute += extra_ns;
                    bump(&self.shared.counters.fallbacks);
                    bump(&ctx.serve_counters().fallbacks);
                    return (Ok(out), phases, attempts, true);
                }
                Ok(Err(e)) => {
                    extra_ns += jc.phases().total();
                    last_err = e.to_string();
                }
                Err(panic) => {
                    extra_ns += jc.phases().total();
                    last_err = render_panic(panic);
                }
            }
        }
        (
            Err(last_err),
            Phases {
                h2d: 0,
                compute: extra_ns,
                d2h: 0,
            },
            attempts,
            false,
        )
    }

    fn record_span(&self, device: usize, ndev: usize, tenant: usize, report: &JobReport) {
        let ctx = &self.ctxs[device];
        if let Some(recorder) = ctx.tracer() {
            if recorder.is_enabled() {
                recorder.record(
                    Span::new(ctx.key(), ConstructKind::Serve, "job")
                        .dims(report.id, tenant as u64, report.batch as u64)
                        .geometry(device as u64, ndev as u64)
                        .payload(report.queue_delay_ns())
                        .modeled(report.latency_ns()),
                );
            }
        }
    }
}

fn render_panic(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_one_device_a_256_queue_and_batches_of_8() {
        let o = ServerOptions::default();
        assert_eq!(
            (o.devices, o.batch_limit, o.global_queue_depth),
            (1, 8, 256)
        );
    }
}
