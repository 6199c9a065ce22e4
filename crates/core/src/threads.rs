//! The Threads backend — RACC's analog of JACC's default `Base.Threads`
//! back end.
//!
//! Execution really is parallel (on `racc-threadpool`), with the coarse-
//! grain, column-wise decomposition the paper describes (§IV): the 2D
//! construct distributes columns across threads and streams rows
//! sequentially, matching Julia's column-major storage. Modeled time comes
//! from the CPU machine model, so figure generation is deterministic; real
//! wall-clock time of this backend is additionally meaningful and is what
//! the `overhead_cpu` criterion bench measures.

use std::sync::Arc;

use racc_threadpool::{Schedule, ThreadPool};

use crate::backend::{Backend, DeviceToken};
use crate::cpumodel::CpuSpec;
use crate::error::RaccError;
use crate::profile::KernelProfile;
use crate::scalar::{AccScalar, ReduceOp};
use crate::timeline::Timeline;

/// Multithreaded CPU backend over a persistent worker pool.
pub struct ThreadsBackend {
    pool: Arc<ThreadPool>,
    cpu: CpuSpec,
    schedule: Schedule,
    timeline: Timeline,
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
            pool,
            cpu,
            schedule: Schedule::Static,
            timeline: Timeline::new(),
        }
    }

    /// Select the loop schedule (static by default, like `Threads.@threads`).
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// The executing pool.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// The CPU model in use.
    pub fn cpu(&self) -> &CpuSpec {
        &self.cpu
    }
}

#[cfg(feature = "racecheck")]
#[inline]
fn tag(iter: u64) {
    crate::racecheck::set_current_iteration(iter);
}

#[cfg(not(feature = "racecheck"))]
#[inline]
fn tag(_iter: u64) {}

impl ThreadsBackend {
    /// Racecheck bookkeeping around a construct (straight-line, not a
    /// closure wrapper — see `SerialBackend::begin_bracket`).
    #[inline]
    fn begin_bracket(&self) {
        #[cfg(feature = "racecheck")]
        crate::racecheck::begin_launch();
    }

    #[inline]
    fn end_bracket(&self) {
        #[cfg(feature = "racecheck")]
        crate::racecheck::end_launch();
    }
}

impl Backend for ThreadsBackend {
    fn name(&self) -> String {
        format!(
            "RACC Threads ({} threads, {})",
            self.pool.num_threads(),
            self.cpu.name
        )
    }

    fn key(&self) -> &'static str {
        "threads"
    }

    fn is_accelerator(&self) -> bool {
        false
    }

    fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    #[cfg(feature = "trace")]
    fn attach_tracer(&self, recorder: &Arc<racc_trace::TraceRecorder>) {
        self.timeline.install_tracer(Arc::clone(recorder));
        // Per-worker chunk spans come from inside the pool.
        self.pool.install_tracer(Arc::clone(recorder));
    }

    fn steal_stats(&self) -> Option<racc_threadpool::StealStats> {
        Some(self.pool.steal_stats())
    }

    fn set_sanitizer(&self, _enabled: bool) -> bool {
        // The CPU half of simsan is the racecheck machinery with read
        // tracking switched on; it needs the `racecheck` feature compiled in.
        #[cfg(feature = "racecheck")]
        {
            crate::racecheck::set_enabled(_enabled);
            crate::racecheck::set_track_reads(_enabled);
            true
        }
        #[cfg(not(feature = "racecheck"))]
        false
    }

    fn on_alloc(&self, _bytes: usize, _upload: bool) -> Result<DeviceToken, RaccError> {
        // The paper: "when using Base.Threads as the back end, using
        // JACC.Array is not necessary" — host memory, no transfer.
        #[cfg(feature = "trace")]
        self.timeline.record_span(|| {
            racc_trace::Span::new("threads", racc_trace::ConstructKind::Alloc, "alloc")
                .dims(0, 0, 0)
                .payload(_bytes as u64)
        });
        Ok(None)
    }

    fn on_download(&self, _bytes: usize) {}

    fn parallel_for_1d<F>(&self, n: usize, profile: &KernelProfile, f: F)
    where
        F: Fn(usize) + Sync,
    {
        #[cfg(feature = "trace")]
        let t0 = self.timeline.trace_start();
        self.begin_bracket();
        self.pool.parallel_for(n, self.schedule, |i| {
            tag(i as u64);
            f(i);
        });
        self.end_bracket();
        let ns = self.cpu.kernel_time_ns(n, profile);
        self.timeline.charge_launch(ns);
        #[cfg(feature = "trace")]
        self.timeline.record_cpu_construct(
            "threads",
            racc_trace::ConstructKind::For1d,
            profile,
            [n as u64, 1, 1],
            self.pool.num_threads() as u64,
            t0,
            ns,
        );
    }

    fn parallel_for_2d<F>(&self, m: usize, n: usize, profile: &KernelProfile, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        #[cfg(feature = "trace")]
        let t0 = self.timeline.trace_start();
        self.begin_bracket();
        // Column-wise coarse decomposition (paper §IV).
        self.pool.parallel_for_2d(m, n, self.schedule, |i, j| {
            tag((j * m + i) as u64);
            f(i, j);
        });
        self.end_bracket();
        let ns = self.cpu.kernel_time_ns(m * n, profile);
        self.timeline.charge_launch(ns);
        #[cfg(feature = "trace")]
        self.timeline.record_cpu_construct(
            "threads",
            racc_trace::ConstructKind::For2d,
            profile,
            [m as u64, n as u64, 1],
            self.pool.num_threads() as u64,
            t0,
            ns,
        );
    }

    fn parallel_for_3d<F>(&self, m: usize, n: usize, l: usize, profile: &KernelProfile, f: F)
    where
        F: Fn(usize, usize, usize) + Sync,
    {
        #[cfg(feature = "trace")]
        let t0 = self.timeline.trace_start();
        self.begin_bracket();
        self.pool
            .parallel_for_3d(m, n, l, self.schedule, |i, j, k| {
                tag(((k * n + j) * m + i) as u64);
                f(i, j, k);
            });
        self.end_bracket();
        let ns = self.cpu.kernel_time_ns(m * n * l, profile);
        self.timeline.charge_launch(ns);
        #[cfg(feature = "trace")]
        self.timeline.record_cpu_construct(
            "threads",
            racc_trace::ConstructKind::For3d,
            profile,
            [m as u64, n as u64, l as u64],
            self.pool.num_threads() as u64,
            t0,
            ns,
        );
    }

    fn parallel_reduce_1d<T, F, O>(&self, n: usize, profile: &KernelProfile, f: F, op: O) -> T
    where
        T: AccScalar,
        F: Fn(usize) -> T + Sync,
        O: ReduceOp<T>,
    {
        #[cfg(feature = "trace")]
        let t0 = self.timeline.trace_start();
        self.begin_bracket();
        let acc = self.pool.parallel_reduce(
            n,
            self.schedule,
            op.identity(),
            |i| {
                tag(i as u64);
                f(i)
            },
            |a, b| op.combine(a, b),
        );
        self.end_bracket();
        let ns = self.cpu.reduce_time_ns(n, profile);
        self.timeline.charge_reduction(ns);
        #[cfg(feature = "trace")]
        self.timeline.record_cpu_construct(
            "threads",
            racc_trace::ConstructKind::Reduce1d,
            profile,
            [n as u64, 1, 1],
            self.pool.num_threads() as u64,
            t0,
            ns,
        );
        acc
    }

    fn parallel_reduce_2d<T, F, O>(
        &self,
        m: usize,
        n: usize,
        profile: &KernelProfile,
        f: F,
        op: O,
    ) -> T
    where
        T: AccScalar,
        F: Fn(usize, usize) -> T + Sync,
        O: ReduceOp<T>,
    {
        // Column-wise: reduce whole columns per task, then across columns.
        #[cfg(feature = "trace")]
        let t0 = self.timeline.trace_start();
        self.begin_bracket();
        let acc = self.pool.parallel_reduce(
            n,
            self.schedule,
            op.identity(),
            |j| {
                let mut col = op.identity();
                for i in 0..m {
                    tag((j * m + i) as u64);
                    col = op.combine(col, f(i, j));
                }
                col
            },
            |a, b| op.combine(a, b),
        );
        self.end_bracket();
        let ns = self.cpu.reduce_time_ns(m * n, profile);
        self.timeline.charge_reduction(ns);
        #[cfg(feature = "trace")]
        self.timeline.record_cpu_construct(
            "threads",
            racc_trace::ConstructKind::Reduce2d,
            profile,
            [m as u64, n as u64, 1],
            self.pool.num_threads() as u64,
            t0,
            ns,
        );
        acc
    }

    fn parallel_reduce_3d<T, F, O>(
        &self,
        m: usize,
        n: usize,
        l: usize,
        profile: &KernelProfile,
        f: F,
        op: O,
    ) -> T
    where
        T: AccScalar,
        F: Fn(usize, usize, usize) -> T + Sync,
        O: ReduceOp<T>,
    {
        #[cfg(feature = "trace")]
        let t0 = self.timeline.trace_start();
        self.begin_bracket();
        let acc = self.pool.parallel_reduce(
            l,
            self.schedule,
            op.identity(),
            |k| {
                let mut plane = op.identity();
                for j in 0..n {
                    for i in 0..m {
                        tag(((k * n + j) * m + i) as u64);
                        plane = op.combine(plane, f(i, j, k));
                    }
                }
                plane
            },
            |a, b| op.combine(a, b),
        );
        self.end_bracket();
        let ns = self.cpu.reduce_time_ns(m * n * l, profile);
        self.timeline.charge_reduction(ns);
        #[cfg(feature = "trace")]
        self.timeline.record_cpu_construct(
            "threads",
            racc_trace::ConstructKind::Reduce3d,
            profile,
            [m as u64, n as u64, l as u64],
            self.pool.num_threads() as u64,
            t0,
            ns,
        );
        acc
    }

    fn prim_scan_1d<T, F, W, O>(
        &self,
        n: usize,
        inclusive: bool,
        profile: &KernelProfile,
        read: F,
        write: W,
        op: O,
    ) where
        T: AccScalar,
        F: Fn(usize) -> T + Sync,
        W: Fn(usize, T) + Sync,
        O: ReduceOp<T>,
    {
        use crate::prim::{self, SlotVec};
        #[cfg(feature = "trace")]
        let t0 = self.timeline.trace_start();
        self.begin_bracket();
        // Same fixed PRIM_TILE tiling as the serial reference: tile totals
        // in parallel (each tile owns its slot), one sequential fold over
        // the totals, then the output pass in parallel. Tile boundaries are
        // a pure function of n, so stealing cannot change any combine.
        let tiles = prim::scan_tiles(n);
        let totals = SlotVec::new(tiles, op.identity());
        self.pool.parallel_for(tiles, self.schedule, |t| {
            let total = prim::tile_total(
                t,
                n,
                &|i| {
                    tag(i as u64);
                    read(i)
                },
                op,
            );
            totals.set(t, total);
        });
        let offsets = prim::tile_offsets(&totals.into_vec(), op);
        self.pool.parallel_for(tiles, self.schedule, |t| {
            prim::scan_tile_write(
                t,
                n,
                inclusive,
                offsets[t],
                &|i| {
                    tag(i as u64);
                    read(i)
                },
                &write,
                op,
            );
        });
        self.end_bracket();
        let ns = self.cpu.kernel_time_ns(2 * n, profile);
        self.timeline.charge_launch(ns);
        #[cfg(feature = "trace")]
        self.timeline.record_cpu_construct(
            "threads",
            racc_trace::ConstructKind::Prim,
            profile,
            [n as u64, 1, 1],
            self.pool.num_threads() as u64,
            t0,
            ns,
        );
    }

    fn prim_histogram_1d<F, W>(
        &self,
        n: usize,
        bins: usize,
        profile: &KernelProfile,
        key: F,
        write: W,
    ) where
        F: Fn(usize) -> usize + Sync,
        W: Fn(usize, u64) + Sync,
    {
        use crate::prim::{self, SlotVec};
        #[cfg(feature = "trace")]
        let t0 = self.timeline.trace_start();
        self.begin_bracket();
        // Privatized histogram: each tile counts into its own row of the
        // scratch matrix, then bins are summed across rows in ascending
        // tile order. Counts are u64, so any order would do — the fixed
        // order keeps the discipline uniform with the float primitives.
        // A tile is at least `bins` wide, so the scratch matrix (allocated,
        // zeroed and re-summed per call) is O(n) cells, never
        // O(n / PRIM_TILE × bins); exact counts make any width bit-identical.
        let w = prim::cpu_tile_width(n).max(bins);
        let tiles = n.div_ceil(w);
        let counts = SlotVec::new(tiles * bins, 0u64);
        self.pool.parallel_for(tiles, self.schedule, |t| {
            let row = unsafe { counts.slice_mut(t * bins, (t + 1) * bins) };
            let (start, end) = (t * w, ((t + 1) * w).min(n));
            for i in start..end {
                tag(i as u64);
                row[key(i)] += 1;
            }
        });
        self.pool.parallel_for(bins, self.schedule, |bin| {
            tag(bin as u64);
            let mut sum = 0u64;
            for t in 0..tiles {
                sum += counts.get(t * bins + bin);
            }
            write(bin, sum);
        });
        self.end_bracket();
        let ns = self.cpu.kernel_time_ns(n + bins, profile);
        self.timeline.charge_launch(ns);
        #[cfg(feature = "trace")]
        self.timeline.record_cpu_construct(
            "threads",
            racc_trace::ConstructKind::Prim,
            profile,
            [n as u64, bins as u64, 1],
            self.pool.num_threads() as u64,
            t0,
            ns,
        );
    }

    fn prim_sort_pairs_1d<F, W>(
        &self,
        n: usize,
        key_bits: u32,
        profile: &KernelProfile,
        key: F,
        write: W,
    ) where
        F: Fn(usize) -> u64 + Sync,
        W: Fn(usize, usize) + Sync,
    {
        use crate::prim::{self, SlotVec};
        #[cfg(not(feature = "trace"))]
        let _ = key_bits;
        #[cfg(feature = "trace")]
        let t0 = self.timeline.trace_start();
        self.begin_bracket();
        // Tiled merge sort over (bits, index) pairs: tile-local sorts in
        // parallel, then deterministic pairwise merge rounds with fixed run
        // boundaries. Ties break toward the smaller original index, so the
        // result is the unique stable order — identical to the canonical
        // reference regardless of thread count or stealing.
        let w = prim::cpu_tile_width(n);
        let tiles = n.div_ceil(w);
        let a = SlotVec::new(n, (0u64, 0u64));
        let b = SlotVec::new(n, (0u64, 0u64));
        self.pool.parallel_for(tiles, self.schedule, |t| {
            let (start, end) = (t * w, ((t + 1) * w).min(n));
            let run = unsafe { a.slice_mut(start, end) };
            for (off, slot) in run.iter_mut().enumerate() {
                let i = start + off;
                tag(i as u64);
                *slot = (key(i), i as u64);
            }
            run.sort_unstable();
        });
        let (mut src, mut dst) = (&a, &b);
        let mut width = w;
        while width < n {
            let pairs = n.div_ceil(2 * width);
            self.pool.parallel_for(pairs, self.schedule, |p| {
                let lo = p * 2 * width;
                let mid = (lo + width).min(n);
                let hi = (lo + 2 * width).min(n);
                let out = unsafe { dst.slice_mut(lo, hi) };
                let (mut i, mut j) = (lo, mid);
                for slot in out.iter_mut() {
                    let take_left = j >= hi || (i < mid && src.get(i) <= src.get(j));
                    if take_left {
                        *slot = src.get(i);
                        i += 1;
                    } else {
                        *slot = src.get(j);
                        j += 1;
                    }
                }
            });
            std::mem::swap(&mut src, &mut dst);
            width *= 2;
        }
        self.pool.parallel_for(n, self.schedule, |rank| {
            tag(rank as u64);
            write(rank, src.get(rank).1 as usize);
        });
        self.end_bracket();
        let log_n = usize::BITS - n.max(1).leading_zeros();
        let ns = self
            .cpu
            .kernel_time_ns(n * (log_n as usize).max(1), profile);
        self.timeline.charge_launch(ns);
        #[cfg(feature = "trace")]
        self.timeline.record_cpu_construct(
            "threads",
            racc_trace::ConstructKind::Prim,
            profile,
            [n as u64, key_bits as u64, 1],
            self.pool.num_threads() as u64,
            t0,
            ns,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::{Min, Sum};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn backend() -> ThreadsBackend {
        ThreadsBackend::with_threads(4)
    }

    #[test]
    fn every_index_once_1d() {
        let b = backend();
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        b.parallel_for_1d(n, &KernelProfile::unknown(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn every_index_once_2d_and_3d() {
        let b = backend();
        let (m, n) = (63, 41);
        let hits: Vec<AtomicUsize> = (0..m * n).map(|_| AtomicUsize::new(0)).collect();
        b.parallel_for_2d(m, n, &KernelProfile::unknown(), |i, j| {
            hits[j * m + i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));

        let (m, n, l) = (7, 8, 9);
        let hits: Vec<AtomicUsize> = (0..m * n * l).map(|_| AtomicUsize::new(0)).collect();
        b.parallel_for_3d(m, n, l, &KernelProfile::unknown(), |i, j, k| {
            hits[(k * n + j) * m + i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn reductions_match_serial_backend() {
        let t = backend();
        let s = crate::SerialBackend::new();
        let data: Vec<f64> = (0..10_000).map(|i| ((i * 37) % 101) as f64).collect();
        let dr = |b: &dyn Fn() -> f64| b();
        let from_threads = dr(&|| {
            t.parallel_reduce_1d(
                data.len(),
                &KernelProfile::dot(),
                |i| data[i] * data[i],
                Sum,
            )
        });
        let from_serial = dr(&|| {
            s.parallel_reduce_1d(
                data.len(),
                &KernelProfile::dot(),
                |i| data[i] * data[i],
                Sum,
            )
        });
        assert!((from_threads - from_serial).abs() < 1e-6);

        let min_t: f64 = t.parallel_reduce_2d(
            100,
            100,
            &KernelProfile::dot(),
            |i, j| ((i * 100 + j) as f64).cos(),
            Min,
        );
        let min_s: f64 = s.parallel_reduce_2d(
            100,
            100,
            &KernelProfile::dot(),
            |i, j| ((i * 100 + j) as f64).cos(),
            Min,
        );
        assert_eq!(min_t, min_s);
    }

    #[test]
    fn modeled_time_beats_serial_model() {
        // The whole-socket model must be faster than the single-core model
        // for large streaming loops.
        let t = backend();
        let s = crate::SerialBackend::new();
        let n = 50_000_000;
        t.parallel_for_1d(n, &KernelProfile::axpy(), |_| {});
        s.parallel_for_1d(0, &KernelProfile::axpy(), |_| {}); // warm zero
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

    #[test]
    fn dynamic_schedule_also_covers() {
        let b = ThreadsBackend::with_threads(4).with_schedule(Schedule::Dynamic { chunk: 16 });
        let n = 5000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        b.parallel_for_1d(n, &KernelProfile::unknown(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
