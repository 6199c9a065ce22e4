//! The Threads backend — RACC's analog of JACC's default `Base.Threads`
//! back end.
//!
//! Execution really is parallel (on `racc-threadpool`), with the coarse-
//! grain, column-wise decomposition the paper describes (§IV): the 2D
//! construct distributes columns across threads and streams rows
//! sequentially, matching Julia's column-major storage. Modeled time comes
//! from the CPU machine model, so figure generation is deterministic; real
//! wall-clock time of this backend is additionally meaningful and is what
//! the benchmark's `racc_over_native_wall` row measures
//! (`examples/benchmark`).

use std::sync::Arc;

use racc_threadpool::{Schedule, ThreadPool};

use crate::backend::{run_row, Backend, DeviceToken, Extent, Instrument};
use crate::cpumodel::CpuSpec;
use crate::error::RaccError;
use crate::host::{Construct, Host};
use crate::profile::KernelProfile;
use crate::racecheck::{self, set_current_iteration as tag};
use crate::scalar::{AccScalar, ReduceOp};
use crate::timeline::Timeline;

/// Multithreaded CPU backend over a persistent worker pool.
pub struct ThreadsBackend {
    pool: Arc<ThreadPool>,
    schedule: Schedule,
    host: Host,
}

impl Default for ThreadsBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadsBackend {
    /// A backend using all available cores and the EPYC 7742 machine model.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(threads)
    }

    /// A backend with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        Self::with_pool(
            Arc::new(ThreadPool::new(threads)),
            CpuSpec::epyc_7742_rome(),
        )
    }

    /// Full control: existing pool + CPU model.
    pub fn with_pool(pool: Arc<ThreadPool>, cpu: CpuSpec) -> Self {
        ThreadsBackend {
            host: Host::new("threads", pool.num_threads(), cpu),
            pool,
            schedule: Schedule::Static,
        }
    }

    /// Select the loop schedule (static by default, like `Threads.@threads`).
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// The executing pool.
    #[inline]
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// The loop schedule in use.
    #[inline]
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// The CPU model in use.
    pub fn cpu(&self) -> &CpuSpec {
        &self.host.cpu
    }

    /// The construct bracket (see [`crate::host`]).
    #[inline]
    pub fn host(&self) -> &Host {
        &self.host
    }
}

impl Instrument for ThreadsBackend {
    /// Per-worker chunk spans come from inside the pool.
    #[cfg(feature = "trace")]
    fn attach_tracer(&self, recorder: &Arc<racc_trace::TraceRecorder>) {
        self.pool.install_tracer(Arc::clone(recorder));
    }

    fn set_sanitizer(&self, enabled: bool) -> bool {
        racecheck::set_sanitizer(enabled)
    }

    fn steal_stats(&self) -> Option<racc_threadpool::StealStats> {
        Some(self.pool.steal_stats())
    }
}

impl Backend for ThreadsBackend {
    fn name(&self) -> String {
        format!(
            "RACC Threads ({} threads, {})",
            self.pool.num_threads(),
            self.host.cpu.name
        )
    }

    fn key(&self) -> &'static str {
        self.host.key
    }

    fn is_accelerator(&self) -> bool {
        false
    }

    fn timeline(&self) -> &Timeline {
        &self.host.timeline
    }

    fn instrument(&self) -> &dyn Instrument {
        self
    }

    fn on_alloc(&self, bytes: usize, _upload: bool) -> Result<DeviceToken, RaccError> {
        self.host.on_alloc(bytes)
    }

    fn on_download(&self, _bytes: usize) {}

    #[inline(always)]
    fn parallel_for<F>(&self, extent: Extent, profile: &KernelProfile, f: F)
    where
        F: Fn(usize, usize, usize) + Sync,
    {
        let open = self.host.open();
        // The pool distributes the slowest axis of the rank — elements,
        // columns (the paper's coarse column-wise decomposition, §IV) or
        // planes — and streams the faster ones inside each task, row by
        // row over the task's whole range.
        let [m, n, l] = extent.dims();
        let row = |j, k| run_row(&f, 0..m, j, k, Some(extent.linear(0, j, k)));
        let (pool, schedule) = (&self.pool, self.schedule);
        match extent.rank() {
            1 => pool.parallel_for_ranges(m, schedule, |is| run_row(&f, is, 0, 0, Some(0))),
            2 => pool.parallel_for_ranges(n, schedule, |js| js.for_each(|j| row(j, 0))),
            _ => pool.parallel_for_ranges(l, schedule, |ks| {
                ks.for_each(|k| (0..n).for_each(|j| row(j, k)))
            }),
        }
        self.host.close(open, Construct::For(extent), profile);
    }

    #[inline(always)]
    fn parallel_reduce<T, F, O>(&self, extent: Extent, profile: &KernelProfile, f: F, op: O) -> T
    where
        T: AccScalar,
        F: Fn(usize, usize, usize) -> T + Sync,
        O: ReduceOp<T>,
    {
        let open = self.host.open();
        // Distributed like `parallel_for`: whole columns or planes fold
        // inside one task, their partials combine in tile order.
        let [m, n, l] = extent.dims();
        let (identity, combine) = (op.identity(), |a, b| op.combine(a, b));
        let acc = match extent.rank() {
            1 => self.pool.parallel_reduce(
                m,
                self.schedule,
                identity,
                |i| {
                    tag(i as u64);
                    f(i, 0, 0)
                },
                combine,
            ),
            2 => self.pool.parallel_reduce_2d(
                m,
                n,
                self.schedule,
                identity,
                |i, j| {
                    tag(extent.linear(i, j, 0) as u64);
                    f(i, j, 0)
                },
                combine,
            ),
            _ => self.pool.parallel_reduce_3d(
                m,
                n,
                l,
                self.schedule,
                identity,
                |i, j, k| {
                    tag(extent.linear(i, j, k) as u64);
                    f(i, j, k)
                },
                combine,
            ),
        };
        self.host.close(open, Construct::Reduce(extent), profile);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::{Min, Sum};

    fn backend() -> ThreadsBackend {
        ThreadsBackend::with_threads(4)
    }

    #[test]
    fn reductions_match_serial_backend() {
        let t = backend();
        let s = crate::SerialBackend::new();
        let data: Vec<f64> = (0..10_000).map(|i| ((i * 37) % 101) as f64).collect();
        let (n, p) = (Extent::d1(data.len()), KernelProfile::dot());
        let square = |i: usize, _, _| data[i] * data[i];
        let from_threads: f64 = t.parallel_reduce(n, &p, square, Sum);
        let from_serial: f64 = s.parallel_reduce(n, &p, square, Sum);
        assert!((from_threads - from_serial).abs() < 1e-6);

        let cos = |i: usize, j: usize, _| ((i * 100 + j) as f64).cos();
        let min_t: f64 = t.parallel_reduce(Extent::d2(100, 100), &p, cos, Min);
        let min_s: f64 = s.parallel_reduce(Extent::d2(100, 100), &p, cos, Min);
        assert_eq!(min_t, min_s);
    }

    #[test]
    fn modeled_time_beats_serial_model() {
        // The whole-socket model must be faster than the single-core model
        // for large streaming loops.
        let t = backend();
        let s = crate::SerialBackend::new();
        let n = 50_000_000;
        t.parallel_for(Extent::d1(n), &KernelProfile::axpy(), |_, _, _| {});
        let t_ns = t.timeline().modeled_ns();
        let s_ns = s.cpu().kernel_time_ns(n, &KernelProfile::axpy()) as u64;
        assert!(t_ns < s_ns, "threads {t_ns} vs serial {s_ns}");
    }

    #[test]
    fn key_and_metadata() {
        let b = backend();
        assert_eq!(b.key(), "threads");
        assert!(!b.is_accelerator());
        assert!(b.name().contains("4 threads"));
        assert!(b.on_alloc(8, true).unwrap().is_none());
        assert_eq!(b.pool().num_threads(), 4);
    }
}
