//! Modeled-time accounting per backend.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use racc_trace::{Span, TraceRecorder};

/// Accumulates the modeled nanoseconds and operation counts of a backend.
/// This is the clock the paper-reproduction figures read: real wall-clock
/// time of the simulation is meaningless for cross-architecture comparisons,
/// the modeled clock is the measurement.
#[derive(Debug, Default)]
pub struct Timeline {
    modeled_ns: AtomicU64,
    launches: AtomicU64,
    reductions: AtomicU64,
    h2d_bytes: AtomicU64,
    d2h_bytes: AtomicU64,
    /// Span recorder, installed at most once per backend instance
    /// (by the context, when it is built with tracing on).
    tracer: OnceLock<Arc<TraceRecorder>>,
}

/// A point-in-time copy of a [`Timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimelineSnapshot {
    /// Total modeled nanoseconds.
    pub modeled_ns: u64,
    /// Number of `parallel_for` launches.
    pub launches: u64,
    /// Number of `parallel_reduce` invocations.
    pub reductions: u64,
    /// Bytes uploaded host-to-device.
    pub h2d_bytes: u64,
    /// Bytes downloaded device-to-host.
    pub d2h_bytes: u64,
}

impl Timeline {
    /// A fresh, zeroed timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add modeled kernel time for one `parallel_for`.
    pub fn charge_launch(&self, ns: f64) {
        self.launches.fetch_add(1, Ordering::Relaxed);
        self.add_ns(ns);
    }

    /// Add modeled time for one `parallel_reduce`.
    pub fn charge_reduction(&self, ns: f64) {
        self.reductions.fetch_add(1, Ordering::Relaxed);
        self.add_ns(ns);
    }

    /// Add modeled host-to-device transfer time.
    pub fn charge_h2d(&self, bytes: u64, ns: f64) {
        self.h2d_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.add_ns(ns);
    }

    /// Add modeled device-to-host transfer time.
    pub fn charge_d2h(&self, bytes: u64, ns: f64) {
        self.d2h_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.add_ns(ns);
    }

    /// Add raw modeled time (backend-internal extras).
    pub fn add_ns(&self, ns: f64) {
        self.modeled_ns
            .fetch_add(Self::quantize(ns), Ordering::Relaxed);
    }

    /// The quantization every charge applies to a modeled duration. Span
    /// emission uses the same function, so per-span `modeled_ns` sums
    /// reconcile exactly with [`TimelineSnapshot::modeled_ns`].
    pub fn quantize(ns: f64) -> u64 {
        ns.max(0.0).round() as u64
    }

    /// Total modeled nanoseconds so far.
    pub fn modeled_ns(&self) -> u64 {
        self.modeled_ns.load(Ordering::Relaxed)
    }

    /// Copy out all counters.
    pub fn snapshot(&self) -> TimelineSnapshot {
        TimelineSnapshot {
            modeled_ns: self.modeled_ns.load(Ordering::Relaxed),
            launches: self.launches.load(Ordering::Relaxed),
            reductions: self.reductions.load(Ordering::Relaxed),
            h2d_bytes: self.h2d_bytes.load(Ordering::Relaxed),
            d2h_bytes: self.d2h_bytes.load(Ordering::Relaxed),
        }
    }

    /// Zero all counters (between benchmark series). An installed span
    /// recorder stays installed; call [`TraceRecorder::reset`] separately
    /// to also drop recorded spans.
    pub fn reset(&self) {
        self.modeled_ns.store(0, Ordering::Relaxed);
        self.launches.store(0, Ordering::Relaxed);
        self.reductions.store(0, Ordering::Relaxed);
        self.h2d_bytes.store(0, Ordering::Relaxed);
        self.d2h_bytes.store(0, Ordering::Relaxed);
    }
}

/// Span recording. Every build has it; a context built without
/// [`ContextBuilder::trace`](crate::ContextBuilder::trace) installs no
/// recorder, and then each emission site costs one load and a branch.
impl Timeline {
    /// Install the span recorder. At most one recorder per timeline; later
    /// calls are ignored (first installer wins).
    pub fn install_tracer(&self, recorder: Arc<TraceRecorder>) {
        let _ = self.tracer.set(recorder);
    }

    /// The installed recorder, if any.
    pub fn tracer(&self) -> Option<&Arc<TraceRecorder>> {
        self.tracer.get()
    }

    /// Whether a recorder is installed and currently accepting spans.
    #[inline]
    pub fn tracing_active(&self) -> bool {
        self.tracer.get().is_some_and(|r| r.is_enabled())
    }

    /// Start a wall-clock measurement if tracing is active. The `None`
    /// result is the inactive fast path: no clock read happens.
    #[inline]
    pub fn trace_start(&self) -> Option<Instant> {
        if self.tracing_active() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Deposit one span; `make` runs only when tracing is active, so the
    /// inactive cost is one relaxed load and a branch.
    #[inline]
    pub fn record_span(&self, make: impl FnOnce() -> Span) {
        if let Some(rec) = self.tracer.get() {
            if rec.is_enabled() {
                rec.record(make());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let t = Timeline::new();
        t.charge_launch(100.4);
        t.charge_launch(0.6);
        t.charge_reduction(50.0);
        t.charge_h2d(1024, 10.0);
        t.charge_d2h(8, 5.0);
        t.add_ns(1.0);
        let s = t.snapshot();
        assert_eq!(s.modeled_ns, 100 + 1 + 50 + 10 + 5 + 1);
        assert_eq!(s.launches, 2);
        assert_eq!(s.reductions, 1);
        assert_eq!(s.h2d_bytes, 1024);
        assert_eq!(s.d2h_bytes, 8);
    }

    #[test]
    fn negative_charges_clamp_to_zero() {
        let t = Timeline::new();
        t.add_ns(-5.0);
        assert_eq!(t.modeled_ns(), 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let t = Timeline::new();
        t.charge_launch(10.0);
        t.charge_h2d(4, 2.0);
        t.reset();
        assert_eq!(t.snapshot(), TimelineSnapshot::default());
    }
}
