//! # racc-trace
//!
//! Launch-level observability for RACC. Every backend construct — each
//! `parallel_for`, each two-kernel reduction, each allocation and transfer —
//! deposits one fixed-size [`Span`] into a lock-free ring buffer
//! ([`TraceRecorder`]). Sinks then turn the recorded spans into:
//!
//! * a chrome://tracing JSON timeline ([`chrome::chrome_trace`]),
//! * a per-kernel text summary with achieved GB/s / GFLOP/s against the
//!   device's peaks — a mini roofline ([`summary::kernel_summary`]).
//!
//! ## Cost model
//!
//! Recording is wait-free for writers: one `fetch_add` to claim a slot plus
//! two release stores around a plain 96-byte write. There is **no**
//! allocation, locking, or formatting on the hot path; all rendering happens
//! in the sinks. When a recorder is present but disabled
//! ([`TraceRecorder::set_enabled`]), `record` is a single relaxed load and a
//! branch. When the `trace` cargo feature of `racc-core` is off, the
//! emission call sites compile out entirely.
//!
//! ## Consistency
//!
//! The buffer is a ring: once more than `capacity` spans have been recorded,
//! the oldest are overwritten (see [`TraceRecorder::dropped`]). Each slot is
//! protected by a per-slot sequence stamp (seqlock), so a concurrent reader
//! can never observe a torn span; it either gets a complete span or skips
//! the slot. Readers are intended to run after the traced region quiesces.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

pub mod chrome;
pub mod json;
pub mod summary;

pub use summary::RooflinePeaks;

/// What kind of construct a [`Span`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConstructKind {
    /// 1D `parallel_for`.
    For1d,
    /// 2D `parallel_for`.
    For2d,
    /// 3D `parallel_for`.
    For3d,
    /// 1D `parallel_reduce` (on GPUs: the whole two-kernel sequence).
    Reduce1d,
    /// 2D `parallel_reduce`.
    Reduce2d,
    /// 3D `parallel_reduce`.
    Reduce3d,
    /// Array allocation (`bytes` is the allocation size).
    Alloc,
    /// Host-to-device transfer (`bytes` is the payload).
    H2d,
    /// Device-to-host transfer (`bytes` is the payload).
    D2h,
    /// One worker's chunk of a CPU `parallel_for` (threadpool detail lane).
    WorkerChunk,
    /// A sanitizer (`simsan`) report snapshot: `dims.0` is allocations
    /// tracked, `bytes` is bytes outstanding (leaked) at snapshot time.
    Sanitizer,
    /// A fused expression group (`racc-fuse`): one launch standing in for a
    /// whole chain of elementwise statements, optionally ending in a
    /// reduction. Carries the *summed* profile of the fused statements.
    Fused,
    /// An injected fault (`racc-chaos`) or a recovery action taken for
    /// one: the name is the fault-site label (`h2d`, `launch`, …) or
    /// `fallback`; `modeled_ns` is the retry backoff charged, if any.
    Fault,
    /// A fused-plan compilation (`racc-fuse`): planning + lowering one
    /// lazy program into its cached executable form on a plan-cache miss.
    /// Host-side work — `real_ns` is the measured compile time and
    /// `modeled_ns` is 0, so the modeled timeline stays untouched;
    /// `dims.0` is the number of fused groups produced.
    Compile,
    /// One successful work-steal in the threadpool's deque core: `dims.0`
    /// is the number of tiles taken, `geometry` is `(thief, victim)`
    /// participant indices. Zero-duration marker — the stolen range's
    /// execution gets its own `WorkerChunk` span.
    Steal,
    /// One sharded step (or reshard event) in `racc-shard`: `dims` is
    /// `(step, shard index, epoch)`, `geometry` is `(rank, shard count)`,
    /// `modeled_ns` the overlap-accounted step cost on this shard's clock.
    Shard,
    /// One completed halo exchange for a sharded step: `payload` is the
    /// total ghost bytes moved both ways, `modeled_ns` the exchange-side
    /// (pack/unpack/transfer) cost the step could overlap with interior
    /// compute.
    Halo,
    /// One job dispatched by the multi-tenant server (`racc-serve`):
    /// `dims` is `(job id, tenant index, batch size)`, `geometry` is
    /// `(device index, pool width)`, `payload` the modeled queueing delay
    /// and `modeled_ns` the admission-to-completion latency on the
    /// server's modeled clock.
    Serve,
    /// One portable device primitive (`racc-prim`): a whole `scan`,
    /// `histogram` or `sort_by_key` invocation — block-local phases plus
    /// the cross-block combine — recorded as a single span. `dims.0` is
    /// the element count, `dims.1` the bins / radix passes where that
    /// applies, and `modeled_ns` the summed cost of the internal launches.
    Prim,
}

impl ConstructKind {
    /// Number of construct kinds. Sinks that size per-kind state (e.g. the
    /// chrome exporter's lane arrays) must derive it from here so adding a
    /// kind cannot silently go out of bounds again.
    pub const COUNT: usize = ConstructKind::ALL.len();

    /// Every kind, in declaration order. Kept next to the enum; the
    /// `all_kinds_listed_exactly_once` test below pins exhaustiveness.
    pub const ALL: [ConstructKind; 19] = [
        ConstructKind::For1d,
        ConstructKind::For2d,
        ConstructKind::For3d,
        ConstructKind::Reduce1d,
        ConstructKind::Reduce2d,
        ConstructKind::Reduce3d,
        ConstructKind::Alloc,
        ConstructKind::H2d,
        ConstructKind::D2h,
        ConstructKind::WorkerChunk,
        ConstructKind::Sanitizer,
        ConstructKind::Fused,
        ConstructKind::Fault,
        ConstructKind::Compile,
        ConstructKind::Steal,
        ConstructKind::Shard,
        ConstructKind::Halo,
        ConstructKind::Serve,
        ConstructKind::Prim,
    ];
    /// The lowercase label used in sinks (`for1d`, `reduce2d`, `h2d`, ...).
    pub fn label(self) -> &'static str {
        match self {
            ConstructKind::For1d => "for1d",
            ConstructKind::For2d => "for2d",
            ConstructKind::For3d => "for3d",
            ConstructKind::Reduce1d => "reduce1d",
            ConstructKind::Reduce2d => "reduce2d",
            ConstructKind::Reduce3d => "reduce3d",
            ConstructKind::Alloc => "alloc",
            ConstructKind::H2d => "h2d",
            ConstructKind::D2h => "d2h",
            ConstructKind::WorkerChunk => "chunk",
            ConstructKind::Sanitizer => "sanitizer",
            ConstructKind::Fused => "fused",
            ConstructKind::Fault => "fault",
            ConstructKind::Compile => "compile",
            ConstructKind::Steal => "steal",
            ConstructKind::Shard => "shard",
            ConstructKind::Halo => "halo",
            ConstructKind::Serve => "serve",
            ConstructKind::Prim => "prim",
        }
    }

    /// The `parallel_for` kind of the given rank (1, 2 or 3).
    pub fn for_rank(rank: usize) -> Self {
        match rank {
            1 => ConstructKind::For1d,
            2 => ConstructKind::For2d,
            _ => ConstructKind::For3d,
        }
    }

    /// The `parallel_reduce` kind of the given rank (1, 2 or 3).
    pub fn reduce_rank(rank: usize) -> Self {
        match rank {
            1 => ConstructKind::Reduce1d,
            2 => ConstructKind::Reduce2d,
            _ => ConstructKind::Reduce3d,
        }
    }
}

/// One recorded construct. Fixed-size and `Copy` so ring-buffer writes are
/// plain stores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Global record index (assigned by the recorder; dense, increasing).
    pub seq: u64,
    /// Backend key that executed the construct (`"serial"`, `"cudasim"`,
    /// ...; `"threadpool"` for worker chunks).
    pub backend: &'static str,
    /// Construct kind.
    pub kind: ConstructKind,
    /// Kernel/profile name (`"axpy"`, `"dot"`, ...) or operation label.
    pub name: &'static str,
    /// Iteration-space dimensions (unused trailing dims are 1; transfers
    /// and allocations use `[0, 0, 0]`).
    pub dims: [u64; 3],
    /// Launch geometry: blocks on GPUs, participating workers on CPUs.
    pub grid: u64,
    /// Launch geometry: threads per block on GPUs, iterations per worker on
    /// CPUs.
    pub block: u64,
    /// `KernelProfile::flops_per_iter` of the construct (0 for transfers).
    pub flops_per_iter: f64,
    /// Total profile bytes per iteration (read + written).
    pub bytes_per_iter: f64,
    /// Payload bytes for `Alloc`/`H2d`/`D2h` spans.
    pub bytes: u64,
    /// Modeled duration, quantized exactly like the backend `Timeline`
    /// charge, so per-span sums reconcile with `TimelineSnapshot`.
    pub modeled_ns: u64,
    /// Measured wall-clock duration where real execution happens (CPU
    /// backends, worker chunks); 0 on simulated-GPU spans.
    pub real_ns: u64,
}

impl Default for Span {
    fn default() -> Self {
        Span::new("", ConstructKind::For1d, "")
    }
}

impl Span {
    /// A span with the identifying fields set and everything else zeroed.
    pub const fn new(backend: &'static str, kind: ConstructKind, name: &'static str) -> Self {
        Span {
            seq: 0,
            backend,
            kind,
            name,
            dims: [1, 1, 1],
            grid: 0,
            block: 0,
            flops_per_iter: 0.0,
            bytes_per_iter: 0.0,
            bytes: 0,
            modeled_ns: 0,
            real_ns: 0,
        }
    }

    /// Sets the iteration-space dimensions.
    pub fn dims(mut self, m: u64, n: u64, l: u64) -> Self {
        self.dims = [m, n, l];
        self
    }

    /// Sets the launch geometry.
    pub fn geometry(mut self, grid: u64, block: u64) -> Self {
        self.grid = grid;
        self.block = block;
        self
    }

    /// Sets the per-iteration cost profile.
    pub fn profile(mut self, flops_per_iter: f64, bytes_per_iter: f64) -> Self {
        self.flops_per_iter = flops_per_iter;
        self.bytes_per_iter = bytes_per_iter;
        self
    }

    /// Sets the transfer payload size.
    pub fn payload(mut self, bytes: u64) -> Self {
        self.bytes = bytes;
        self
    }

    /// Sets the modeled duration (already quantized to whole ns).
    pub fn modeled(mut self, ns: u64) -> Self {
        self.modeled_ns = ns;
        self
    }

    /// Sets the measured duration from an optional start instant (the
    /// `None` case is the tracing-inactive fast path).
    pub fn real_since(mut self, start: Option<Instant>) -> Self {
        if let Some(t0) = start {
            self.real_ns = t0.elapsed().as_nanos() as u64;
        }
        self
    }

    /// Total iterations of the span's index space.
    pub fn iterations(&self) -> u64 {
        self.dims[0] * self.dims[1] * self.dims[2]
    }
}

struct Slot {
    /// 0 = never written; odd = write in progress; even `2·seq+2` = span
    /// with index `seq` committed.
    stamp: AtomicU64,
    span: UnsafeCell<Span>,
}

/// Lock-free multi-producer span ring buffer. See the crate docs for the
/// cost and consistency model.
pub struct TraceRecorder {
    enabled: AtomicBool,
    head: AtomicU64,
    mask: u64,
    slots: Box<[Slot]>,
}

// SAFETY: the UnsafeCell in each slot is published through the seqlock
// stamp; readers validate the stamp around every copy and discard torn data.
unsafe impl Sync for TraceRecorder {}
unsafe impl Send for TraceRecorder {}

/// Default ring capacity: 16 Ki spans (~1.8 MiB), comfortably above the
/// span count of any single paper-figure experiment.
pub const DEFAULT_CAPACITY: usize = 16 * 1024;

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new(DEFAULT_CAPACITY)
    }
}

impl TraceRecorder {
    /// A recorder holding the most recent `capacity` spans (rounded up to a
    /// power of two). Starts enabled.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        let slots = (0..capacity)
            .map(|_| Slot {
                stamp: AtomicU64::new(0),
                span: UnsafeCell::new(Span::default()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        TraceRecorder {
            enabled: AtomicBool::new(true),
            head: AtomicU64::new(0),
            mask: capacity as u64 - 1,
            slots,
        }
    }

    /// Runtime switch; a disabled recorder makes `record` a load + branch.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether spans are currently being accepted.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Deposits one span. Wait-free; never allocates.
    #[inline]
    pub fn record(&self, mut span: Span) {
        if !self.is_enabled() {
            return;
        }
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        span.seq = seq;
        let slot = &self.slots[(seq & self.mask) as usize];
        slot.stamp.store(2 * seq + 1, Ordering::Release);
        // SAFETY: the odd stamp marks the write in progress; readers skip
        // the slot until the matching even stamp is published below.
        unsafe {
            *slot.span.get() = span;
        }
        slot.stamp.store(2 * seq + 2, Ordering::Release);
    }

    /// Total spans ever recorded (including any overwritten in the ring).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Spans lost to ring wrap-around so far.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Copies out the retained spans, ordered by sequence number. Intended
    /// to run after the traced region quiesces; concurrent writes are
    /// tolerated (torn slots are skipped) but the result is then only a
    /// sample.
    pub fn spans(&self) -> Vec<Span> {
        let head = self.recorded();
        let mut out = Vec::with_capacity(self.slots.len().min(head as usize));
        for slot in self.slots.iter() {
            for _attempt in 0..8 {
                let before = slot.stamp.load(Ordering::Acquire);
                if before == 0 || before % 2 == 1 {
                    break; // empty or mid-write
                }
                // SAFETY: stamp re-validation below rejects torn copies.
                let span = unsafe { *slot.span.get() };
                if slot.stamp.load(Ordering::Acquire) == before {
                    if span.seq < head {
                        out.push(span);
                    }
                    break;
                }
            }
        }
        out.sort_by_key(|s| s.seq);
        out
    }

    /// Forgets all recorded spans (counters and slots); keeps the enabled
    /// state. Call only while no construct is executing.
    pub fn reset(&self) {
        for slot in self.slots.iter() {
            slot.stamp.store(0, Ordering::Relaxed);
        }
        self.head.store(0, Ordering::Release);
    }
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("enabled", &self.is_enabled())
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Sums the modeled nanoseconds over spans — the quantity that must equal
/// `TimelineSnapshot::modeled_ns` when nothing was dropped.
pub fn total_modeled_ns(spans: &[Span]) -> u64 {
    spans.iter().map(|s| s.modeled_ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn span(i: u64) -> Span {
        Span::new("serial", ConstructKind::For1d, "axpy")
            .dims(i, 1, 1)
            .modeled(i)
    }

    #[test]
    fn records_in_order() {
        let rec = TraceRecorder::new(64);
        for i in 0..10 {
            rec.record(span(i));
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 10);
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.dropped(), 0);
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.seq, i as u64);
            assert_eq!(s.dims[0], i as u64);
        }
        assert_eq!(total_modeled_ns(&spans), 45);
    }

    #[test]
    fn ring_keeps_most_recent() {
        let rec = TraceRecorder::new(8);
        for i in 0..20 {
            rec.record(span(i));
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 8);
        assert_eq!(rec.dropped(), 12);
        assert_eq!(spans.first().unwrap().seq, 12);
        assert_eq!(spans.last().unwrap().seq, 19);
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let rec = TraceRecorder::new(8);
        rec.set_enabled(false);
        rec.record(span(1));
        assert_eq!(rec.recorded(), 0);
        assert!(rec.spans().is_empty());
        rec.set_enabled(true);
        rec.record(span(2));
        assert_eq!(rec.recorded(), 1);
    }

    #[test]
    fn concurrent_producers_lose_nothing_within_capacity() {
        let rec = Arc::new(TraceRecorder::new(4096));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..256 {
                        rec.record(span((t * 1000 + i) as u64));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 8 * 256);
        // Dense, unique sequence numbers.
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.seq, i as u64);
        }
    }

    #[test]
    fn reset_clears_but_keeps_enabled_state() {
        let rec = TraceRecorder::new(8);
        rec.record(span(1));
        rec.reset();
        assert_eq!(rec.recorded(), 0);
        assert!(rec.spans().is_empty());
        assert!(rec.is_enabled());
    }

    #[test]
    fn kind_labels_and_ranks() {
        assert_eq!(ConstructKind::for_rank(2), ConstructKind::For2d);
        assert_eq!(ConstructKind::reduce_rank(3), ConstructKind::Reduce3d);
        assert_eq!(ConstructKind::H2d.label(), "h2d");
        assert_eq!(ConstructKind::Fused.label(), "fused");
    }

    #[test]
    fn all_kinds_listed_exactly_once() {
        // `ALL` (and hence `COUNT`) must stay in sync with the enum. Labels
        // are unique per kind, so a duplicated or missing entry shows up as
        // a duplicate/missing label here; a brand-new variant that was not
        // added to `ALL` fails the non-exhaustive-match lint at the `label`
        // match instead.
        let mut labels: Vec<&str> = ConstructKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ConstructKind::COUNT);
        assert_eq!(ConstructKind::ALL.len(), ConstructKind::COUNT);
    }
}
