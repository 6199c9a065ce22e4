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

use crate::backend::{Backend, DeviceToken, Extent, Instrument};
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
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// The CPU model in use.
    pub fn cpu(&self) -> &CpuSpec {
        &self.host.cpu
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
        // planes — and streams the faster ones inside each task.
        let [m, n, l] = extent.dims();
        match extent.rank() {
            1 => self.pool.parallel_for(m, self.schedule, |i| {
                tag(i as u64);
                f(i, 0, 0);
            }),
            2 => self.pool.parallel_for_2d(m, n, self.schedule, |i, j| {
                tag(extent.linear(i, j, 0) as u64);
                f(i, j, 0);
            }),
            _ => self
                .pool
                .parallel_for_3d(m, n, l, self.schedule, |i, j, k| {
                    tag(extent.linear(i, j, k) as u64);
                    f(i, j, k);
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

    fn prim_scan<T, F, W, O>(
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
        let open = self.host.open();
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
        self.host.close(open, Construct::scan(n), profile);
    }

    fn prim_histogram<F, W>(&self, n: usize, bins: usize, profile: &KernelProfile, key: F, write: W)
    where
        F: Fn(usize) -> usize + Sync,
        W: Fn(usize, u64) + Sync,
    {
        use crate::prim::{self, SlotVec};
        let open = self.host.open();
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
        self.host
            .close(open, Construct::histogram(n, bins), profile);
    }

    fn prim_sort_pairs<F, W>(
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
        let open = self.host.open();
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
        self.host.close(open, Construct::sort(n, key_bits), profile);
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
