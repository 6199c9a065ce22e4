//! The persistent worker pool.
//!
//! A `ThreadPool` with `P` participants owns `P - 1` OS worker threads; the
//! calling thread is always participant 0. All entry points are synchronous:
//! they return only after every participant has finished, which is also what
//! makes it sound to run borrowing closures on the workers (the borrowed
//! stack frame cannot die while workers still hold the closure).
//!
//! # Work-stealing dispatch
//!
//! `parallel_for`/`parallel_reduce` launches are task-granular: the index
//! space is lowered to tiles (see [`Tiling`]), and a launch starts as one
//! root task covering every tile. Executors split tasks in half (lazy binary
//! splitting), pushing the upper half onto their own Chase–Lev deque — LIFO
//! for the owner (locality), FIFO for thieves (they take the oldest, largest
//! range). A thread with no deque (a nested launch, or a second concurrent
//! caller) pushes to the bounded global injector instead, and if both are
//! full simply runs the range inline, so overflow degrades to less
//! parallelism, never to an error.
//!
//! Workers are woken lazily, not broadcast: a successful push wakes at most
//! one *idle* worker (claimed by a state CAS, so a busy worker is never a
//! wake target), and woken workers wake further idle workers as they split
//! work in turn. Each wake increments the launch latch before the message is
//! sent and the worker decrements it when it goes back to sleep, so the
//! caller's join (`tiles_left == 0`, then `latch.wait()`) observes every
//! side effect of every stolen task. On an idle pool a small launch costs
//! one channel send instead of `P - 1`.
//!
//! Because an unexecuted task keeps its launch's `tiles_left` above zero and
//! the caller cannot return before that count drains, a task may execute on
//! *any* participant — including one woken for a different launch — without
//! ever dangling. That also makes nested launches on the same pool safe:
//! the nested caller finds the caller deque claimed, submits through the
//! injector, and helps execute whatever it finds (its own tiles or the outer
//! launch's) until its tiles drain.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use racc_trace::{ConstructKind, Span, TraceRecorder};

use crate::latch::CountLatch;
use crate::schedule::{static_block, Schedule, Tiling};
use crate::steal::{Deque, Injector, Steal, StealStats, TaskWords, VictimRng, WorkerCounters};

/// Bounded-spin receive: polls `try_recv` before falling back to the
/// blocking `recv`. Returns `None` when every sender is gone.
///
/// The spin budget matches the latch's ([`crate::latch::spin_iters`]):
/// back-to-back constructs are microseconds apart, so staying on-core
/// between them pays for itself, while an idle pool still sleeps — and on
/// a single-hardware-thread host the budget is zero, because a polling
/// worker there starves the caller that would send it work.
fn recv_spinning<T>(rx: &Receiver<T>) -> Option<T> {
    for _ in 0..crate::latch::spin_iters() {
        match rx.try_recv() {
            Ok(msg) => return Some(msg),
            Err(TryRecvError::Empty) => std::hint::spin_loop(),
            Err(TryRecvError::Disconnected) => return None,
        }
    }
    rx.recv().ok()
}

/// Errors from pool construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A pool must have at least one participant.
    ZeroThreads,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::ZeroThreads => write!(f, "thread pool needs at least one thread"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Shared state of one in-flight broadcast.
struct JobState {
    latch: CountLatch,
    panicked: AtomicBool,
    payload: Mutex<Option<Box<dyn Any + Send>>>,
}

impl JobState {
    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        self.panicked.store(true, Ordering::Release);
        let mut slot = self.payload.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// A type-erased reference to a borrowed job closure plus its state, shipped
/// to a worker. Soundness: the pointers reference the caller's stack frame,
/// and the caller blocks on the latch until every worker has decremented it,
/// which happens strictly after the worker's last dereference.
struct JobRef {
    fun: *const (dyn Fn(usize) + Sync),
    state: *const JobState,
    participant: usize,
}

// SAFETY: the raw pointers are only dereferenced while the issuing call
// keeps the referents alive (enforced by the latch protocol above).
unsafe impl Send for JobRef {}

impl JobRef {
    /// Run the job as this worker's participant, recording panics and always
    /// decrementing the latch.
    ///
    /// # Safety
    /// Must only be called while the issuing broadcast is still blocked on
    /// the latch (the pool protocol guarantees this).
    unsafe fn execute(self) {
        let state = &*self.state;
        let fun = &*self.fun;
        let result = catch_unwind(AssertUnwindSafe(|| fun(self.participant)));
        if let Err(payload) = result {
            state.record_panic(payload);
        }
        state.latch.count_down();
    }
}

/// Worker wake states. `Idle` = parked at `recv`, claimable by a wake CAS;
/// `Woken` = claimed, a steal message is in flight; `Active` = processing.
const STATE_IDLE: u8 = 0;
const STATE_WOKEN: u8 = 1;
const STATE_ACTIVE: u8 = 2;

/// A pointer to an in-flight launch header, shipped inside a wake message.
struct HeaderRef(*const LaunchHeader);

// SAFETY: the header lives on the issuing caller's stack, and the caller
// cannot return while the wake it paid for (latch.add before send) has not
// been counted down — which the receiving worker does only after its last
// dereference.
unsafe impl Send for HeaderRef {}

enum Message {
    Run(JobRef),
    Steal(HeaderRef),
    Shutdown,
}

/// Everything workers share with the pool handle.
struct PoolShared {
    senders: Vec<Sender<Message>>,
    /// One deque per participant; index 0 is the caller slot, claimed per
    /// launch via `caller_slot`, indices `1..P` belong to the workers.
    deques: Vec<Deque>,
    injector: Injector,
    caller_slot: AtomicBool,
    /// Wake state per worker (index `w - 1` for worker `w`).
    worker_states: Vec<AtomicU8>,
    /// Heuristic count of parked workers; maintained only by the workers
    /// themselves (increment before parking, decrement after waking), so
    /// wake claims can never unbalance it. Gates the wake scan.
    idle_workers: AtomicUsize,
    /// Workers claimed by a wake but not yet past their first successful
    /// task grab ("searchers"). Pushes skip waking while one is
    /// outstanding: the searcher is obligated to sweep every deque and the
    /// injector before parking, so fresh work will be seen, and the chain
    /// re-arms (searchers back to 0) the moment it converts to execution.
    /// This is the steal-then-signal ramp-up: one wake per demand edge
    /// instead of one per split, which keeps small launches from paying
    /// `P - 1` worker round trips when the caller alone finishes first.
    /// The gate is heuristic — two pushers racing it wake two workers,
    /// and a searcher parking just as work is pushed delays pickup until
    /// the owning caller's own drain loop reaches it — never a liveness
    /// issue, because every caller drains its own launch to completion.
    searchers: AtomicUsize,
    /// Steal telemetry, one padded slot per participant.
    counters: Vec<WorkerCounters>,
    participants: usize,
}

/// A persistent pool of worker threads; see the crate docs for the model.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Optional span recorder; when installed and enabled, launches deposit
    /// one `WorkerChunk` span per executed leaf range and one `Steal` span
    /// per successful steal.
    recorder: OnceLock<Arc<TraceRecorder>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("participants", &self.shared.participants)
            .finish()
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

impl ThreadPool {
    /// Create a pool with `threads` participants (the calling thread plus
    /// `threads - 1` workers).
    ///
    /// # Panics
    /// Panics if `threads == 0`; use [`ThreadPool::try_new`] to handle that
    /// as an error.
    pub fn new(threads: usize) -> Self {
        Self::try_new(threads).expect("invalid thread pool size")
    }

    /// Fallible constructor.
    pub fn try_new(threads: usize) -> Result<Self, PoolError> {
        if threads == 0 {
            return Err(PoolError::ZeroThreads);
        }
        let mut senders = Vec::with_capacity(threads - 1);
        let mut receivers = Vec::with_capacity(threads - 1);
        for _ in 1..threads {
            let (tx, rx) = unbounded::<Message>();
            senders.push(tx);
            receivers.push(rx);
        }
        let shared = Arc::new(PoolShared {
            senders,
            deques: (0..threads).map(|_| Deque::new()).collect(),
            injector: Injector::new(),
            caller_slot: AtomicBool::new(false),
            worker_states: (1..threads).map(|_| AtomicU8::new(STATE_IDLE)).collect(),
            idle_workers: AtomicUsize::new(threads - 1),
            searchers: AtomicUsize::new(0),
            counters: (0..threads).map(|_| WorkerCounters::default()).collect(),
            participants: threads,
        });
        let mut handles = Vec::with_capacity(threads - 1);
        for (i, rx) in receivers.into_iter().enumerate() {
            let w = i + 1;
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("racc-worker-{w}"))
                .spawn(move || worker_main(&shared, w, &rx))
                .expect("failed to spawn pool worker");
            handles.push(handle);
        }
        Ok(ThreadPool {
            shared,
            handles,
            recorder: OnceLock::new(),
        })
    }

    /// Install a span recorder (first installer wins). Subsequent launches
    /// emit one `WorkerChunk` span per executed leaf range plus one `Steal`
    /// span per successful steal while the recorder is enabled.
    pub fn install_tracer(&self, recorder: Arc<TraceRecorder>) {
        let _ = self.recorder.set(recorder);
    }

    /// The process-wide pool, sized from `RACC_NUM_THREADS` or the machine's
    /// available parallelism.
    pub fn global() -> &'static ThreadPool {
        GLOBAL.get_or_init(|| ThreadPool::new(default_thread_count()))
    }

    /// Number of participants (calling thread included).
    pub fn num_threads(&self) -> usize {
        self.shared.participants
    }

    /// Snapshot the cumulative work-stealing telemetry: per-participant
    /// executed/stolen/injected/split/wake/park counts since pool creation.
    pub fn steal_stats(&self) -> StealStats {
        StealStats {
            participants: self.shared.counters.iter().map(|c| c.snapshot()).collect(),
        }
    }

    /// Run `f(participant)` once on every participant (0 = calling thread)
    /// and return when all are done. Panics in any participant propagate to
    /// the caller after all participants have finished.
    pub fn broadcast<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let state = JobState {
            latch: CountLatch::new(self.shared.senders.len()),
            panicked: AtomicBool::new(false),
            payload: Mutex::new(None),
        };
        let fun: &(dyn Fn(usize) + Sync) = &f;
        // Erase the lifetime: see JobRef safety comment. The transmute only
        // extends the lifetime of the trait-object pointee to 'static; the
        // latch protocol guarantees no dereference outlives this call.
        let fun: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const (dyn Fn(usize) + Sync)>(
                fun as *const _,
            )
        };
        for (i, tx) in self.shared.senders.iter().enumerate() {
            let job = JobRef {
                fun,
                state: &state as *const _,
                participant: i + 1,
            };
            tx.send(Message::Run(job))
                .expect("pool worker disconnected");
        }
        // The caller participates as participant 0. Catch its panic so we
        // still join the workers before unwinding past `state`.
        let caller_result = catch_unwind(AssertUnwindSafe(|| f(0)));
        state.latch.wait();
        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        if state.panicked.load(Ordering::Acquire) {
            let payload = state
                .payload
                .lock()
                .take()
                .unwrap_or_else(|| Box::new("pool task panicked"));
            resume_unwind(payload);
        }
    }

    /// Parallel loop over `0..n` under the given schedule. `f` must tolerate
    /// concurrent invocation on distinct indices; every index is invoked
    /// exactly once.
    pub fn parallel_for<F>(&self, n: usize, schedule: Schedule, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.parallel_for_ranges(n, schedule, |is| is.for_each(&f));
    }

    /// [`ThreadPool::parallel_for`] by ranges: `f(range)` runs for disjoint
    /// ranges that together cover `0..n` exactly once — the whole space on
    /// one participant or one tile, else the elements of each executed
    /// task's run of tiles. A caller that walks multi-dimensional spaces
    /// hands the pool its slowest axis and loops the faster ones inside
    /// `f`, one body call site for every rank.
    pub fn parallel_for_ranges<F>(&self, n: usize, schedule: Schedule, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if n == 0 {
            return;
        }
        if self.shared.participants == 1 {
            // A dedicated frame: sharing a body with the erased executors
            // below (which take the closure's address) measurably blocks
            // loop optimization.
            return serial_for(n, f);
        }
        let tiling = Tiling::new(schedule, n, self.shared.participants);
        if tiling.tiles() <= 1 {
            // A single tile: running it here beats waking anyone.
            return serial_for(n, f);
        }
        let data = ForData {
            f: &f as *const F,
            tiling,
        };
        // SAFETY: run_tiled is fully synchronous, so `data` (and the `f` it
        // points to) outlive every dereference; exec_for::<F> matches the
        // erased payload type.
        unsafe {
            self.run_tiled(
                tiling,
                exec_for::<F>,
                &data as *const ForData<F> as *const (),
            );
        }
    }

    /// Execute a tiled launch on the work-stealing core: one root task over
    /// all tiles, lazy binary splitting, synchronous join, panic
    /// propagation after the join.
    ///
    /// # Safety
    /// `exec(data, t0, t1)` must be sound for any partition of the tile
    /// space into disjoint `[t0, t1)` ranges executed concurrently, and
    /// `data` must stay valid for the duration of the call (guaranteed by
    /// the synchronous join). `tiling.tiles()` must be at least 1.
    pub(crate) unsafe fn run_tiled(
        &self,
        tiling: Tiling,
        exec: unsafe fn(*const (), usize, usize),
        data: *const (),
    ) {
        let tiles = tiling.tiles();
        debug_assert!(tiles > 0);
        debug_assert!(self.shared.participants > 1);
        let rec: *const TraceRecorder = self
            .recorder
            .get()
            .filter(|r| r.is_enabled())
            .map_or(std::ptr::null(), Arc::as_ptr);
        let header = LaunchHeader {
            exec,
            data,
            tiling,
            tiles_left: AtomicUsize::new(tiles),
            latch: CountLatch::new(0),
            poisoned: AtomicBool::new(false),
            payload: Mutex::new(None),
            rec,
        };
        let shared = &*self.shared;
        // Claim the caller deque if free; a nested or concurrent caller
        // falls back to injector-only submission.
        let claimed = shared
            .caller_slot
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        let me = claimed.then_some(0usize);
        run_task(
            shared,
            me,
            0,
            Task {
                header: &header,
                t0: 0,
                t1: tiles,
            },
        );
        // Keep executing tasks — ours or any concurrent launch's — until
        // every tile of THIS launch has drained. Helping other launches here
        // is what makes same-pool nesting deadlock-free.
        let mut rng = VictimRng::new(usize::MAX);
        let mut idle = 0u32;
        while header.tiles_left.load(Ordering::Acquire) != 0 {
            if let Some(task) = find_task(shared, me, 0, &mut rng) {
                idle = 0;
                run_task(shared, me, 0, task);
            } else if idle < 128 {
                idle += 1;
                std::hint::spin_loop();
            } else {
                // Let workers (or, single-core, anyone) run; cheap because
                // this path only triggers when we found nothing to do.
                std::thread::yield_now();
            }
        }
        // Wait for every woken worker to leave the launch before the header
        // (and the closures it points to) go out of scope.
        header.latch.wait();
        if claimed {
            shared.caller_slot.store(false, Ordering::Release);
        }
        if header.poisoned.load(Ordering::Acquire) {
            let payload = header
                .payload
                .lock()
                .take()
                .unwrap_or_else(|| Box::new("pool task panicked"));
            resume_unwind(payload);
        }
    }

    /// Split a mutable slice into one contiguous block per participant and
    /// hand each block to `f(global_offset, block)` in parallel.
    pub fn parallel_for_slices<T, F>(&self, data: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let n = data.len();
        if n == 0 {
            return;
        }
        let p = self.shared.participants;
        let base = SendPtr(data.as_mut_ptr());
        self.broadcast(|who| {
            let (start, end) = static_block(n, p, who);
            if start == end {
                return;
            }
            // SAFETY: static blocks are disjoint and within bounds, and the
            // underlying slice outlives the broadcast.
            let block =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
            f(start, block);
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        for tx in &self.shared.senders {
            // Workers may already be gone if a panic tore things down.
            let _ = tx.send(Message::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One in-flight tiled launch, living on the issuing caller's stack. A task
/// is `(header, tile range)`; `tiles_left` counts tiles not yet executed (or
/// drained), and the caller cannot return while it is nonzero, which is the
/// liveness guarantee behind every raw pointer here.
struct LaunchHeader {
    exec: unsafe fn(*const (), usize, usize),
    data: *const (),
    /// Read only by the trace path (element spans of executed tile ranges).
    tiling: Tiling,
    tiles_left: AtomicUsize,
    /// Counts outstanding woken workers, *not* tasks: incremented before
    /// each wake message, decremented when the woken worker leaves the
    /// launch.
    latch: CountLatch,
    /// Set on the first panic; remaining tasks drain without executing.
    poisoned: AtomicBool,
    payload: Mutex<Option<Box<dyn Any + Send>>>,
    rec: *const TraceRecorder,
}

impl LaunchHeader {
    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        self.poisoned.store(true, Ordering::Release);
        let mut slot = self.payload.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// A contiguous range of tiles of one launch.
#[derive(Clone, Copy)]
struct Task {
    header: *const LaunchHeader,
    t0: usize,
    t1: usize,
}

impl Task {
    fn to_words(self) -> TaskWords {
        [self.header as usize, self.t0, self.t1]
    }

    fn from_words(w: TaskWords) -> Task {
        Task {
            header: w[0] as *const LaunchHeader,
            t0: w[1],
            t1: w[2],
        }
    }
}

/// The worker main loop: park at `recv`, mark active on any message, run
/// it, and go back to idle. The idle count is maintained exclusively here
/// (balanced increment/decrement around each park) so wake-side claims can
/// never drift it.
fn worker_main(shared: &PoolShared, w: usize, rx: &Receiver<Message>) {
    while let Some(msg) = recv_spinning(rx) {
        shared.worker_states[w - 1].store(STATE_ACTIVE, Ordering::Release);
        shared.idle_workers.fetch_sub(1, Ordering::AcqRel);
        match msg {
            // SAFETY: the broadcasting call is blocked on the job latch
            // until we count it down inside `execute`, keeping the
            // referents alive.
            Message::Run(job) => unsafe { job.execute() },
            Message::Steal(href) => {
                // SAFETY: the issuing launch added our wake to its latch
                // before sending, so it cannot return (and drop the header)
                // until the count_down below.
                let header = unsafe { &*href.0 };
                worker_drain(shared, w, header);
                header.latch.count_down();
            }
            Message::Shutdown => break,
        }
        shared.worker_states[w - 1].store(STATE_IDLE, Ordering::Release);
        shared.idle_workers.fetch_add(1, Ordering::AcqRel);
        shared.counters[w].parks.fetch_add(1, Ordering::Relaxed);
    }
}

/// A woken worker's steal loop: execute tasks (any launch's) until the
/// waking launch completes or nothing is stealable for a spin budget.
fn worker_drain(shared: &PoolShared, w: usize, header: &LaunchHeader) {
    let me = Some(w);
    let mut rng = VictimRng::new(w);
    // Early exit after a bounded idle sweep: a parked worker costs nothing
    // and is re-woken by the next successful push. Zero on single-core
    // hosts, where spinning would starve the thread that has the work.
    let budget: u32 = if crate::latch::spin_iters() == 0 {
        0
    } else {
        512
    };
    let mut idle = 0u32;
    // We entered as the claimed searcher (counted in maybe_wake). The
    // first successful grab converts us to an executor and re-arms the
    // wake gate, so the next push ramps up another worker.
    let mut searching = true;
    while header.tiles_left.load(Ordering::Acquire) != 0 {
        if let Some(task) = find_task(shared, me, w, &mut rng) {
            idle = 0;
            if searching {
                searching = false;
                shared.searchers.fetch_sub(1, Ordering::AcqRel);
            }
            run_task(shared, me, w, task);
        } else if idle < budget {
            idle += 1;
            std::hint::spin_loop();
        } else {
            break;
        }
    }
    if searching {
        shared.searchers.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Find the next task: own deque (LIFO), then the injector, then a steal
/// sweep over victims in seeded-rotation order. `Retry` results re-run the
/// sweep (someone is mid-operation; progress is being made).
fn find_task(
    shared: &PoolShared,
    me: Option<usize>,
    stat: usize,
    rng: &mut VictimRng,
) -> Option<Task> {
    if let Some(d) = me {
        if let Some(w) = shared.deques[d].pop() {
            return Some(Task::from_words(w));
        }
    }
    if let Some(w) = shared.injector.pop() {
        shared.counters[stat]
            .injected
            .fetch_add(1, Ordering::Relaxed);
        return Some(Task::from_words(w));
    }
    let p = shared.deques.len();
    let start = rng.next();
    loop {
        let mut retry = false;
        for k in 0..p {
            let v = (start + k) % p;
            if Some(v) == me {
                continue;
            }
            match shared.deques[v].steal() {
                Steal::Success(w) => {
                    let task = Task::from_words(w);
                    shared.counters[stat].stolen.fetch_add(1, Ordering::Relaxed);
                    record_steal(&task, stat, v);
                    return Some(task);
                }
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
        }
        if !retry {
            return None;
        }
        std::hint::spin_loop();
    }
}

/// Execute one task: drain it if the launch is poisoned, otherwise split
/// down to single tiles (pushing upper halves), run the leaf, record any
/// panic, and retire the executed tiles.
fn run_task(shared: &PoolShared, me: Option<usize>, stat: usize, task: Task) {
    // SAFETY: a task only exists while its launch has outstanding tiles,
    // and the launch cannot return before this function's `tiles_left`
    // decrement (see LaunchHeader docs).
    let header = unsafe { &*task.header };
    let (lo, mut hi) = (task.t0, task.t1);
    if header.poisoned.load(Ordering::Acquire) {
        header.tiles_left.fetch_sub(hi - lo, Ordering::Release);
        return;
    }
    let counters = &shared.counters[stat];
    let mut pushed = false;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let words = Task {
            header: task.header,
            t0: mid,
            t1: hi,
        }
        .to_words();
        let ok = match me {
            Some(d) => shared.deques[d].push(words) || shared.injector.push(words),
            None => shared.injector.push(words),
        };
        if !ok {
            // Both queues full: keep the whole range and run it inline.
            break;
        }
        counters.splits.fetch_add(1, Ordering::Relaxed);
        pushed = true;
        hi = mid;
    }
    if pushed {
        maybe_wake(shared, header, stat);
    }
    let t_start = (!header.rec.is_null()).then(std::time::Instant::now);
    // SAFETY: exec's contract (run_tiled) covers any disjoint tile range.
    let result = catch_unwind(AssertUnwindSafe(|| unsafe {
        (header.exec)(header.data, lo, hi)
    }));
    counters.executed.fetch_add(1, Ordering::Relaxed);
    if !header.rec.is_null() {
        let (s, e) = header.tiling.elem_span(lo, hi);
        // SAFETY: the recorder Arc is owned by the pool, which outlives the
        // launch.
        unsafe { &*header.rec }.record(chunk_span(stat, s, e).real_since(t_start));
    }
    if let Err(payload) = result {
        header.record_panic(payload);
    }
    header.tiles_left.fetch_sub(hi - lo, Ordering::Release);
}

/// Upper bound on workers awake at once: the machine's spare hardware
/// threads (one core is the caller's), floored at 1 so stealing is still
/// exercised on single-core hosts. Waking past this bound cannot add
/// parallelism — the extra worker only time-slices against threads that
/// already have work queued.
fn wake_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .saturating_sub(1)
            .max(1)
    })
}

/// Wake at most one idle worker for `header`. A worker is claimable only
/// while parked at `recv` (state CAS Idle → Woken), so messages never pile
/// onto busy workers and a launch never waits on a worker that another
/// launch is still using. The latch increment *precedes* the send — and
/// happens while the waker still owes a `tiles_left` decrement — so the
/// caller can neither miss the wake nor return before it drains.
fn maybe_wake(shared: &PoolShared, header: &LaunchHeader, stat: usize) {
    if shared.idle_workers.load(Ordering::Relaxed) == 0 {
        return;
    }
    // Steal-then-signal: while a claimed worker is still searching, it will
    // find this push in its sweep — don't wake a second one yet (see the
    // `searchers` field docs).
    if shared.searchers.load(Ordering::Relaxed) != 0 {
        return;
    }
    // Don't wake more workers than the machine has spare cores: beyond
    // that, an extra awake worker displaces a thread that already has work
    // (the degenerate case is a 1-core host, where every wake past the
    // first is a pure scheduling round trip). The caller occupies one
    // core; at least one worker may always be woken so stealing stays
    // exercised even on 1-core hosts.
    let awake = shared
        .worker_states
        .len()
        .saturating_sub(shared.idle_workers.load(Ordering::Relaxed));
    if awake >= wake_cap() {
        return;
    }
    for (wi, state) in shared.worker_states.iter().enumerate() {
        if state.load(Ordering::Relaxed) == STATE_IDLE
            && state
                .compare_exchange(STATE_IDLE, STATE_WOKEN, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            shared.searchers.fetch_add(1, Ordering::AcqRel);
            header.latch.add(1);
            shared.counters[stat].wakes.fetch_add(1, Ordering::Relaxed);
            let msg = Message::Steal(HeaderRef(header as *const LaunchHeader));
            if shared.senders[wi].send(msg).is_err() {
                // Worker already torn down (pool drop racing a launch can
                // only happen in tests); undo the latch charge.
                header.latch.count_down();
            }
            return;
        }
    }
}

/// One `Steal` span: dims = stolen tile count, geometry = (thief, victim).
/// Zero duration — it marks the handoff, not the execution (the executed
/// range gets its own `WorkerChunk` span).
fn record_steal(task: &Task, thief: usize, victim: usize) {
    // SAFETY: the task was just taken from a live deque, so its launch still
    // has outstanding tiles and the header is alive.
    let header = unsafe { &*task.header };
    if header.rec.is_null() {
        return;
    }
    let tiles = (task.t1 - task.t0) as u64;
    // SAFETY: recorder outlives the launch (owned by the pool).
    unsafe { &*header.rec }.record(
        Span::new("threadpool", ConstructKind::Steal, "steal")
            .dims(tiles, 1, 1)
            .geometry(thief as u64, victim as u64),
    );
}

/// Type-erased payload of a `parallel_for` launch.
struct ForData<F> {
    f: *const F,
    tiling: Tiling,
}

/// Tile-range executor for `parallel_for_ranges`: runs `f` once over the
/// elements of tiles `[t0, t1)`, which are contiguous.
///
/// # Safety
/// `data` must point to a live `ForData<F>` whose closure outlives the call.
unsafe fn exec_for<F: Fn(Range<usize>) + Sync>(data: *const (), t0: usize, t1: usize) {
    let d = &*(data as *const ForData<F>);
    let (s, e) = d.tiling.elem_span(t0, t1);
    (*d.f)(s..e);
}

/// The single-participant or single-tile launch: the whole space as one
/// range, in a frame of its own (see the call site). `f` is called here and
/// in [`exec_for`] only; a caller that runs a kernel body inside `f` keeps
/// that body's one call site below both (`racc_core::run_row`), so the
/// body is inlined once and not into each executor.
#[inline(never)]
fn serial_for<F: Fn(Range<usize>)>(n: usize, f: F) {
    f(0..n);
}

/// One per-worker chunk span: grid = participant index, dims/block = chunk
/// length. Modeled time stays 0 — the owning backend's construct span carries
/// the modeled charge; these only expose real load balance.
fn chunk_span(who: usize, start: usize, end: usize) -> Span {
    let len = (end - start) as u64;
    Span::new("threadpool", ConstructKind::WorkerChunk, "chunk")
        .dims(len, 1, 1)
        .geometry(who as u64, len)
}

/// Raw pointer wrapper that may cross threads; all dereferences are guarded
/// by the disjoint-block argument at the use site.
struct SendPtr<T>(*mut T);

// Manual impls: derived Clone/Copy would add a spurious `T: Copy` bound.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor taking the whole struct so edition-2021 closures capture the
    /// `SendPtr` (which is `Sync`) rather than the raw pointer field (which
    /// is not).
    fn get(self) -> *mut T {
        self.0
    }
}

/// Thread count for the global pool: `RACC_NUM_THREADS` if set and valid,
/// otherwise the machine's available parallelism.
pub(crate) fn default_thread_count() -> usize {
    thread_count_from(std::env::var("RACC_NUM_THREADS").ok().as_deref())
}

/// The testable core of [`default_thread_count`]: a positive integer
/// (surrounding whitespace allowed) is the width; unset, zero or garbage
/// falls back to `available_parallelism()` — a bad knob must never panic a
/// working program.
fn thread_count_from(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn try_new_rejects_zero() {
        assert_eq!(ThreadPool::try_new(0).unwrap_err(), PoolError::ZeroThreads);
    }

    #[test]
    fn thread_count_knob_takes_positive_integers_only() {
        let fallback = thread_count_from(None);
        assert!(fallback >= 1);
        assert_eq!(thread_count_from(Some("4")), 4);
        assert_eq!(thread_count_from(Some(" 4 ")), 4);
        for bad in ["0", "-3", "", "lots"] {
            assert_eq!(thread_count_from(Some(bad)), fallback, "{bad:?}");
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let count = AtomicUsize::new(0);
        pool.parallel_for(100, Schedule::Static, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn broadcast_reaches_every_participant() {
        let pool = ThreadPool::new(4);
        let seen = Mutex::new(HashSet::new());
        pool.broadcast(|who| {
            seen.lock().insert(who);
        });
        assert_eq!(*seen.lock(), HashSet::from([0, 1, 2, 3]));
    }

    #[test]
    fn parallel_for_visits_each_index_once() {
        for sched in [
            Schedule::Static,
            Schedule::Dynamic { chunk: 0 },
            Schedule::Dynamic { chunk: 7 },
        ] {
            let pool = ThreadPool::new(4);
            let n = 10_000;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_for(n, sched, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "schedule {sched:?}"
            );
        }
    }

    #[test]
    fn parallel_for_borrows_stack_data() {
        let pool = ThreadPool::new(3);
        let input = vec![2u64; 1000];
        let total = AtomicU64::new(0);
        pool.parallel_for(input.len(), Schedule::Static, |i| {
            total.fetch_add(input[i], Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 2000);
    }

    #[test]
    fn parallel_for_ranges_covers_once_in_whole_tiles() {
        for (threads, sched) in [
            (1, Schedule::Static),
            (4, Schedule::Static),
            (4, Schedule::Dynamic { chunk: 0 }),
            (4, Schedule::Dynamic { chunk: 7 }),
        ] {
            let pool = ThreadPool::new(threads);
            let n = 1000;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let calls = AtomicUsize::new(0);
            pool.parallel_for_ranges(n, sched, |is| {
                calls.fetch_add(1, Ordering::Relaxed);
                is.for_each(|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            // One call per executed task, never one per element.
            let tiles = Tiling::new(sched, n, threads).tiles();
            assert!(calls.load(Ordering::Relaxed) <= tiles, "{sched:?}");
        }
    }

    #[test]
    fn parallel_for_2d_covers_grid_column_major() {
        let pool = ThreadPool::new(4);
        let (m, n) = (37, 53);
        let hits: Vec<AtomicUsize> = (0..m * n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for_ranges(n, Schedule::Static, |js| {
            for j in js {
                for i in 0..m {
                    hits[j * m + i].fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_3d_covers_volume() {
        let pool = ThreadPool::new(4);
        let (m, n, l) = (5, 7, 11);
        let hits: Vec<AtomicUsize> = (0..m * n * l).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for_ranges(l, Schedule::Static, |ks| {
            for k in ks {
                for j in 0..n {
                    for i in 0..m {
                        hits[(k * n + j) * m + i].fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_slices_writes_disjoint_blocks() {
        let pool = ThreadPool::new(5);
        let mut data = vec![0usize; 1234];
        pool.parallel_for_slices(&mut data, |offset, block| {
            for (i, x) in block.iter_mut().enumerate() {
                *x = offset + i;
            }
        });
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, i);
        }
    }

    #[test]
    fn empty_ranges_are_noops() {
        let pool = ThreadPool::new(4);
        pool.parallel_for(0, Schedule::Static, |_| panic!("must not run"));
        pool.parallel_for_ranges(0, Schedule::Static, |_| panic!("must not run"));
        let mut empty: Vec<u8> = Vec::new();
        pool.parallel_for_slices(&mut empty, |_, _| panic!("must not run"));
    }

    #[test]
    fn more_threads_than_work() {
        let pool = ThreadPool::new(8);
        let count = AtomicUsize::new(0);
        pool.parallel_for(3, Schedule::Static, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(100, Schedule::Static, |i| {
                if i == 99 {
                    panic!("boom at {i}");
                }
            });
        }));
        let payload = result.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom"), "payload: {msg:?}");
        // The pool must still be usable afterwards.
        let count = AtomicUsize::new(0);
        pool.parallel_for(10, Schedule::Static, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn panic_in_dynamic_launch_poisons_and_drains() {
        // Many small tiles: some are queued when the panic lands, and must
        // drain (not execute) without wedging the launch.
        let pool = ThreadPool::new(4);
        let executed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(4096, Schedule::Dynamic { chunk: 1 }, |i| {
                executed.fetch_add(1, Ordering::Relaxed);
                if i == 7 {
                    panic!("stolen boom");
                }
            });
        }));
        let payload = result.unwrap_err();
        let msg = payload
            .downcast_ref::<&'static str>()
            .copied()
            .unwrap_or_default();
        assert_eq!(msg, "stolen boom");
        // Reusable, and every index of a fresh launch still runs once.
        let count = AtomicUsize::new(0);
        pool.parallel_for(100, Schedule::Dynamic { chunk: 1 }, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn caller_panic_still_joins_workers() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(|who| {
                if who == 0 {
                    panic!("caller boom");
                }
            });
        }));
        assert!(result.is_err());
        // Reusable afterwards.
        pool.broadcast(|_| {});
    }

    #[test]
    fn global_pool_is_singleton() {
        let a = ThreadPool::global() as *const _;
        let b = ThreadPool::global() as *const _;
        assert_eq!(a, b);
        assert!(ThreadPool::global().num_threads() >= 1);
    }

    #[test]
    fn nested_parallel_for_from_worker_is_serial_safe() {
        // Nesting over a *different* pool has always been supported.
        let outer = ThreadPool::new(2);
        let total = AtomicUsize::new(0);
        outer.parallel_for(4, Schedule::Static, |_| {
            let inner = ThreadPool::new(2);
            inner.parallel_for(25, Schedule::Static, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn nested_parallel_for_on_same_pool_completes() {
        // New with the work-stealing core: a nested launch on the SAME pool
        // (which deadlocked the broadcast design) submits via the injector
        // and helps drain, so it completes.
        let pool = ThreadPool::new(4);
        let total = AtomicUsize::new(0);
        pool.parallel_for(8, Schedule::Dynamic { chunk: 1 }, |_| {
            pool.parallel_for(50, Schedule::Dynamic { chunk: 5 }, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn concurrent_launches_from_two_threads_share_the_pool() {
        let pool = std::sync::Arc::new(ThreadPool::new(4));
        let total = std::sync::Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let pool = std::sync::Arc::clone(&pool);
            let total = std::sync::Arc::clone(&total);
            handles.push(std::thread::spawn(move || {
                for _ in 0..20 {
                    pool.parallel_for(500, Schedule::Dynamic { chunk: 7 }, |_| {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 2 * 20 * 500);
    }

    #[test]
    fn steal_stats_count_executed_tasks() {
        let pool = ThreadPool::new(2);
        let before = pool.steal_stats().total();
        pool.parallel_for(1000, Schedule::Dynamic { chunk: 10 }, |_| {});
        let after = pool.steal_stats().total();
        assert!(
            after.executed > before.executed,
            "before {before:?} after {after:?}"
        );
        assert_eq!(pool.steal_stats().participants.len(), 2);
    }
}
