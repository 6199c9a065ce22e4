//! # racc-backend-common
//!
//! The one implementation of [`racc_core::Backend`] (and of
//! [`racc_prim::PrimBackend`], in `prim.rs`) over the [`racc_gpusim`]
//! simulator. A vendor is a value, not a type: [`CUDA`], [`HIP`] and
//! [`ONEAPI`] are each a `const` [`Vendor`] — stock device profile, launch
//! geometry, two modeled overheads, the pieces that genuinely differ
//! between the paper's CUDA.jl / AMDGPU.jl / oneAPI.jl back ends (Figs. 6
//! and 7) — and [`SimBackend`] reads it once per launch. Nothing branches on the vendor
//! at compile time, so there is no type parameter and every kernel closure
//! is instantiated once whichever vendor runs it.
//!
//! Faithfulness notes:
//!
//! * `parallel_for(n, ..)` launches `ceil(n / B)` blocks of
//!   `B = min(n, max_block_dim_x)` threads, exactly the paper's Fig. 6.
//! * `parallel_for((m, n), ..)` uses the 16×16 thread tiles of the paper.
//! * `parallel_reduce` is the **two-kernel** structure of the paper's Fig. 3:
//!   a per-block shared-memory tree reduction producing one partial per
//!   block, a second single-block kernel folding the partials, then a scalar
//!   device-to-host readback. Its extra cost relative to `parallel_for` is
//!   what makes small GPU DOTs lose to the CPU in Fig. 8.
//! * The portability layer charges a small per-construct overhead
//!   ([`Vendor::racc_launch_extra_ns`]) modeling JACC's extra
//!   allocations/argument packing, and a vendor-specific reduction factor
//!   (`reduce_time_factor`, 1.35 on the Intel back end per the paper's
//!   observed ≈35% DOT overhead).

mod kernels;
mod prim;
mod vendors;

use std::sync::Arc;

use racc_core::{
    AccScalar, Backend, DeviceToken, Extent, Instrument, KernelProfile, RaccError, ReduceOp,
    Timeline,
};
use racc_gpusim::perf::{self, KernelCost};
use racc_gpusim::{
    Device, DeviceSpec, FaultEvent, FaultPlan, FaultSite, LaunchConfig, RetryPolicy, SimError,
    SinglePhase, ThreadCtx, TreeShape,
};

#[cfg(feature = "trace")]
use racc_core::trace::{ConstructKind, Span};

use kernels::{BlockReduceMap, Cover, FinalReduce, Linear, MapRun, RowWise};
pub use vendors::{cuda_backend, hip_backend, oneapi_backend, CUDA, HIP, ONEAPI};

/// What distinguishes one vendor back end from another: its stock device,
/// launch parameters and overheads. Plain data, read once per launch.
#[derive(Debug, Clone, Copy)]
pub struct Vendor {
    /// Backend key exposed through [`Backend::key`] (e.g. `"cudasim"`).
    pub key: &'static str,
    /// The device profile [`SimBackend::stock`] simulates (e.g.
    /// `racc_gpusim::profiles::nvidia_a100`).
    pub stock_device: fn() -> DeviceSpec,
    /// Thread tile for 2D `parallel_for` (the paper uses 16×16 everywhere).
    pub tile_2d: (u32, u32),
    /// Thread tile for 3D `parallel_for`.
    pub tile_3d: (u32, u32, u32),
    /// Block size for the two-kernel reduction (the paper uses 512);
    /// clamped to the device limit and rounded down to a power of two.
    pub reduce_block: u32,
    /// Modeled per-construct overhead of the portability layer, ns.
    pub racc_launch_extra_ns: f64,
    /// Multiplier on modeled reduction kernel time (1.35 for the oneAPI
    /// back end, per the paper's §V-A observation; 1.0 elsewhere).
    pub reduce_time_factor: f64,
}

impl Default for Vendor {
    /// The paper's launch geometry over the small test device, for tests
    /// and custom devices that belong to no vendor.
    fn default() -> Self {
        Vendor {
            key: "gpusim",
            stock_device: racc_gpusim::profiles::test_device,
            tile_2d: (16, 16),
            tile_3d: (8, 8, 4),
            reduce_block: 512,
            racc_launch_extra_ns: 1_200.0,
            reduce_time_factor: 1.0,
        }
    }
}

/// A [`racc_core::Backend`] running on one simulated GPU.
pub struct SimBackend {
    device: Arc<Device>,
    vendor: Vendor,
    timeline: Timeline,
    /// Recovery policy for transient device faults (injected faults, OOM).
    /// Only read on the error path: a successful first attempt never locks,
    /// keeping the launch hot path overhead-free.
    retry: std::sync::Mutex<RetryPolicy>,
}

impl SimBackend {
    /// A backend over `device` (possibly shared with device-specific code,
    /// so both accumulate on one clock) launching the way `vendor` does.
    pub fn new(device: Arc<Device>, vendor: &Vendor) -> Self {
        SimBackend {
            device,
            vendor: *vendor,
            timeline: Timeline::new(),
            retry: std::sync::Mutex::new(RetryPolicy::none()),
        }
    }

    /// A backend on a fresh instance of the vendor's stock device.
    pub fn stock(vendor: &Vendor) -> Self {
        Self::new(Arc::new(Device::new((vendor.stock_device)())), vendor)
    }

    /// The simulator device (vendor clock, op log, sanitizer toggle).
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// The vendor description.
    pub fn vendor(&self) -> &Vendor {
        &self.vendor
    }

    fn cost_from_profile(profile: &KernelProfile) -> KernelCost {
        KernelCost::new(
            profile.flops_per_iter,
            profile.bytes_read_per_iter,
            profile.bytes_written_per_iter,
            profile.coalescing,
        )
    }

    /// 1D block size per the paper's Fig. 6:
    /// `min(N, maxPossibleThreads)`.
    fn block_1d(&self, n: usize) -> u32 {
        let max = self.device.spec().max_block_dim_x as usize;
        n.clamp(1, max) as u32
    }

    /// Reduction block size: configured value, clamped to the device and
    /// rounded down to a power of two (the tree requires it).
    fn reduce_block(&self) -> usize {
        let max = self.device.spec().max_threads_per_block;
        let b = self.vendor.reduce_block.min(max).max(1);
        1usize << (31 - b.leading_zeros())
    }

    fn unwrap_launch(result: Result<u64, SimError>) -> u64 {
        // Launch geometry is computed by this backend from device limits, so
        // a failure here is either an internal invariant violation or an
        // injected fault that outlived the retry budget (see
        // `ContextBuilder::retry`), not user error.
        result.expect(
            "simulated launch failed (bad geometry, or injected faults exhausted the retry policy)",
        )
    }

    /// Run a fallible device operation under the retry policy. The success
    /// path costs nothing extra (no lock, no branch beyond the `Result`
    /// match); on a transient error the policy is consulted, each retry
    /// charging its backoff to the timeline as a `Fault` span before
    /// re-running the operation — which re-consults the fault schedule, so
    /// attempts advance through the plan deterministically.
    fn with_retry<R>(
        &self,
        site: &'static str,
        attempt: impl Fn() -> Result<R, SimError>,
    ) -> Result<R, SimError> {
        match attempt() {
            Ok(r) => Ok(r),
            Err(first) => self.retry_slow(site, first, attempt),
        }
    }

    #[cold]
    fn retry_slow<R>(
        &self,
        _site: &'static str,
        mut err: SimError,
        attempt: impl Fn() -> Result<R, SimError>,
    ) -> Result<R, SimError> {
        let policy = *self.retry.lock().unwrap_or_else(|e| e.into_inner());
        let mut retry_no = 0u32;
        while err.is_transient() && retry_no + 1 < policy.max_attempts {
            retry_no += 1;
            let backoff = policy.backoff_ns(retry_no) as f64;
            // Backoff is modeled time, not a host sleep; the paired Fault
            // span carries the identical quantized charge so per-span sums
            // still reconcile with the timeline.
            self.timeline.add_ns(backoff);
            #[cfg(feature = "trace")]
            self.timeline.record_span(|| {
                Span::new(self.vendor.key, ConstructKind::Fault, _site)
                    .dims(retry_no as u64, 0, 0)
                    .modeled(Timeline::quantize(backoff))
            });
            match attempt() {
                Ok(r) => return Ok(r),
                Err(e) => err = e,
            }
        }
        Err(err)
    }

    /// One `parallel_for` span, mirroring the adjacent `charge_launch` so
    /// per-span modeled sums reconcile with the timeline. `real_ns` stays 0:
    /// wall time of the simulation is meaningless here.
    #[cfg(feature = "trace")]
    fn record_for_span(
        &self,
        rank: usize,
        profile: &KernelProfile,
        dims: [u64; 3],
        cfg: Option<LaunchConfig>,
        ns: f64,
    ) {
        self.timeline.record_span(|| {
            let kind = if profile.fused {
                ConstructKind::Fused
            } else {
                ConstructKind::for_rank(rank)
            };
            let mut span = Span::new(self.vendor.key, kind, profile.name)
                .dims(dims[0], dims[1], dims[2])
                .profile(profile.flops_per_iter, profile.bytes_per_iter())
                .modeled(Timeline::quantize(ns));
            if let Some(cfg) = cfg {
                span = span.geometry(cfg.grid.count() as u64, cfg.block.count() as u64);
            }
            span
        });
    }

    /// The two-kernel reduction over the column-major linearisation of
    /// `extent`: `map` fills each block's run of linear indices. The extent
    /// itself is what the span reports.
    fn reduce_linear<T, M, O>(&self, extent: Extent, profile: &KernelProfile, map: M, op: O) -> T
    where
        T: AccScalar,
        M: MapRun<T>,
        O: ReduceOp<T>,
    {
        let total = extent.len();
        #[cfg(feature = "trace")]
        let (reduce_kind, dims) = (
            if profile.fused {
                ConstructKind::Fused
            } else {
                ConstructKind::reduce_rank(extent.rank())
            },
            extent.dims().map(|d| d as u64),
        );
        if total == 0 {
            self.timeline
                .charge_reduction(self.vendor.racc_launch_extra_ns);
            #[cfg(feature = "trace")]
            self.timeline.record_span(|| {
                Span::new(self.vendor.key, reduce_kind, profile.name)
                    .dims(dims[0], dims[1], dims[2])
                    .profile(profile.flops_per_iter, profile.bytes_per_iter())
                    .modeled(Timeline::quantize(self.vendor.racc_launch_extra_ns))
            });
            return op.identity();
        }
        let block = self.reduce_block();
        let tree = TreeShape::new(block);
        let blocks = total.div_ceil(block);
        let elem = std::mem::size_of::<T>();

        // Kernel 1: one partial per block (paper Fig. 3, dot_cuda_kernel).
        let partials = self
            .with_retry("alloc", || self.device.alloc::<T>(blocks))
            .expect("partials allocation");
        let k1 = BlockReduceMap {
            n: total,
            tree,
            map,
            op,
            partials: self.device.slice_mut(&partials).expect("own buffer"),
        };
        // `linear` saturates where a cast would wrap: a `total` needing more
        // blocks than a grid axis holds fails validation, not coverage.
        let cfg1 = LaunchConfig::linear(total, block as u32).with_shared_mem(block * elem);
        let ns1 = Self::unwrap_launch(self.with_retry("launch", || {
            self.device
                .launch_phased(cfg1, Self::cost_from_profile(profile), &k1)
        }));

        // Kernel 2: fold the partials in one block (reduce_kernel).
        let out = self
            .with_retry("alloc", || self.device.alloc::<T>(1))
            .expect("result allocation");
        let k2 = FinalReduce {
            len: blocks,
            tree,
            op,
            partials: self.device.slice(&partials).expect("own buffer"),
            out: self.device.slice_mut(&out).expect("own buffer"),
        };
        let cfg2 = LaunchConfig::new(1u32, block as u32).with_shared_mem(block * elem);
        let bytes_per_thread = (blocks * elem) as f64 / block as f64;
        let ns2 = Self::unwrap_launch(self.with_retry("launch", || {
            self.device
                .launch_phased(cfg2, KernelCost::memory_bound(bytes_per_thread, 0.0), &k2)
        }));

        // Scalar readback + driver synchronization.
        let result = self
            .with_retry("d2h", || self.device.read_scalar(&out, 0))
            .expect("scalar readback");
        let spec = self.device.spec();
        let sync_ns =
            spec.link_latency_ns * spec.reduce_sync_penalty + perf::transfer_time_ns(spec, elem);
        let reduce_ns = (ns1 + ns2) as f64 * self.vendor.reduce_time_factor
            + sync_ns
            + self.vendor.racc_launch_extra_ns;
        self.timeline.charge_reduction(reduce_ns);
        self.timeline.charge_d2h(elem as u64, 0.0);
        #[cfg(feature = "trace")]
        {
            // One span for the whole two-kernel sequence, one for the scalar
            // readback — matching the two timeline charges above.
            self.timeline.record_span(|| {
                Span::new(self.vendor.key, reduce_kind, profile.name)
                    .dims(dims[0], dims[1], dims[2])
                    .geometry(blocks as u64, block as u64)
                    .profile(profile.flops_per_iter, profile.bytes_per_iter())
                    .modeled(Timeline::quantize(reduce_ns))
            });
            self.timeline.record_span(|| {
                Span::new(self.vendor.key, ConstructKind::D2h, "reduce_result")
                    .dims(0, 0, 0)
                    .payload(elem as u64)
            });
        }
        result
    }
}

impl Instrument for SimBackend {
    fn set_sanitizer(&self, enabled: bool) -> bool {
        self.device.set_sanitizer(enabled);
        true
    }

    fn sanitizer_report(&self) -> Option<String> {
        let report = self.device.sanitizer_report()?;
        #[cfg(feature = "trace")]
        self.timeline.record_span(|| {
            Span::new(self.vendor.key, ConstructKind::Sanitizer, "sancheck")
                .dims(report.allocations_tracked, 0, 0)
                .payload(report.bytes_outstanding as u64)
        });
        Some(report.to_string())
    }

    fn steal_stats(&self) -> Option<racc_core::StealStats> {
        Some(self.device.steal_stats())
    }

    fn set_chaos(&self, plan: FaultPlan) -> bool {
        self.device.set_chaos(plan);
        true
    }

    fn set_retry(&self, policy: RetryPolicy) -> bool {
        *self.retry.lock().unwrap_or_else(|e| e.into_inner()) = policy;
        true
    }

    fn fault_log(&self) -> Vec<FaultEvent> {
        self.device.fault_log()
    }

    fn self_check(&self) -> Result<(), RaccError> {
        // A minimal alloc → launch → readback round trip, run through the
        // active fault schedule and retry policy — the probe behind the
        // graceful-degradation decision in `racc::builder().fallback(true)`.
        let buf = self.with_retry("alloc", || self.device.alloc::<f64>(1))?;
        let probe = SinglePhase(|_t: &ThreadCtx| {});
        self.with_retry("launch", || {
            self.device
                .launch_phased(LaunchConfig::new(1u32, 1u32), KernelCost::default(), &probe)
        })?;
        self.with_retry("d2h", || self.device.read_scalar(&buf, 0))?;
        Ok(())
    }
}

impl Backend for SimBackend {
    fn name(&self) -> String {
        format!("RACC {} ({})", self.vendor.key, self.device.spec().name)
    }

    fn key(&self) -> &'static str {
        self.vendor.key
    }

    fn is_accelerator(&self) -> bool {
        true
    }

    fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    fn instrument(&self) -> &dyn Instrument {
        self
    }

    fn on_alloc(&self, bytes: usize, upload: bool) -> Result<DeviceToken, RaccError> {
        // Model device-memory pressure with a device reservation held by
        // the array for its lifetime: the heap accounting, the alloc fault
        // schedule and simsan's leak table see a buffer of `bytes`, but no
        // host block backs it — the array's data lives in its own storage.
        let token = self
            .with_retry("alloc", || self.device.reserve(bytes))
            .map_err(|e| RaccError::Allocation(e.to_string()))?;
        #[cfg(feature = "trace")]
        self.timeline.record_span(|| {
            Span::new(self.vendor.key, ConstructKind::Alloc, "alloc")
                .dims(0, 0, 0)
                .payload(bytes as u64)
        });
        if upload {
            // The upload is modeled (array data stays host-side), but it
            // still runs through the fault schedule like a real transfer.
            let spike = self
                .with_retry("h2d", || self.device.inject_fault(FaultSite::H2d))
                .map_err(RaccError::from)?;
            let ns = perf::transfer_time_ns(self.device.spec(), bytes) + spike as f64;
            self.device
                .charge(racc_gpusim::OpKind::H2D, bytes as u64, 0, ns);
            self.timeline.charge_h2d(bytes as u64, ns);
            #[cfg(feature = "trace")]
            self.timeline.record_span(|| {
                Span::new(self.vendor.key, ConstructKind::H2d, "upload")
                    .dims(0, 0, 0)
                    .payload(bytes as u64)
                    .modeled(Timeline::quantize(ns))
            });
        }
        Ok(Some(Arc::new(token)))
    }

    fn on_download(&self, bytes: usize) {
        // Modeled transfer, same schedule as a real one. The construct
        // returns `()`, so a download whose faults outlive the retry
        // budget has nowhere to surface but a panic.
        let spike = self
            .with_retry("d2h", || self.device.inject_fault(FaultSite::D2h))
            .unwrap_or_else(|e| {
                panic!("download failed: {e} (injected faults exhausted the retry policy)")
            });
        let ns = perf::transfer_time_ns(self.device.spec(), bytes) + spike as f64;
        self.device
            .charge(racc_gpusim::OpKind::D2H, bytes as u64, 0, ns);
        self.timeline.charge_d2h(bytes as u64, ns);
        #[cfg(feature = "trace")]
        self.timeline.record_span(|| {
            Span::new(self.vendor.key, ConstructKind::D2h, "download")
                .dims(0, 0, 0)
                .payload(bytes as u64)
                .modeled(Timeline::quantize(ns))
        });
    }

    fn parallel_for<F>(&self, extent: Extent, profile: &KernelProfile, f: F)
    where
        F: Fn(usize, usize, usize) + Sync,
    {
        let extra_ns = self.vendor.racc_launch_extra_ns;
        // An empty index space is charged the portability overhead alone.
        if extent.is_empty() {
            self.timeline.charge_launch(extra_ns);
            #[cfg(feature = "trace")]
            self.record_for_span(extent.rank(), profile, [0, 0, 0], None, extra_ns);
            return;
        }
        // The paper's geometry per rank (Fig. 6): a line of blocks, or the
        // vendor's thread tiles laid over the index space.
        let [m, n, l] = extent.dims();
        let cfg = match extent.rank() {
            1 => LaunchConfig::linear(m, self.block_1d(m)),
            2 => {
                let (tx, ty) = self.vendor.tile_2d;
                LaunchConfig::tiled_2d(m, n, tx, ty)
            }
            _ => {
                let (tx, ty, tz) = self.vendor.tile_3d;
                LaunchConfig::tiled_3d(m, n, l, tx, ty, tz)
            }
        };
        // Launched by reference so the retry path can re-run the kernel.
        let kernel = Cover {
            extent: extent.dims(),
            f,
        };
        let ns = Self::unwrap_launch(self.with_retry("launch", || {
            self.device
                .launch_phased(cfg, Self::cost_from_profile(profile), &kernel)
        }));
        let total_ns = ns as f64 + extra_ns;
        self.timeline.charge_launch(total_ns);
        #[cfg(feature = "trace")]
        self.record_for_span(
            extent.rank(),
            profile,
            extent.dims().map(|d| d as u64),
            Some(cfg),
            total_ns,
        );
    }

    /// The two-kernel tree reduction over the column-major linearisation
    /// of `extent`. The tree is the same for every rank; what differs is how
    /// a block's run of linear indices is mapped: as is for rank 1, row by
    /// row for ranks 2 and 3 — `(i, j, k)` of the run's first index found
    /// once per block, then counters — so `f` is called with the indices a
    /// `%` and a `/` per element used to recover, in the same order, and
    /// every partial and result bit is what it was.
    #[inline(always)]
    fn parallel_reduce<T, F, O>(&self, extent: Extent, profile: &KernelProfile, f: F, op: O) -> T
    where
        T: AccScalar,
        F: Fn(usize, usize, usize) -> T + Sync,
        O: ReduceOp<T>,
    {
        // Fine-grain mapping: one simulated thread per element, linearized
        // column-major so the fast thread index follows the fast array
        // axis. Rank 1 is already linear and pays no index arithmetic;
        // ranks 2 and 3 find `(i, j, k)` once per block of the tree and
        // count from there, row by row.
        match extent.rank() {
            1 => self.reduce_linear(extent, profile, Linear(move |idx| f(idx, 0, 0)), op),
            _ => self.reduce_linear(extent, profile, RowWise::new(extent.dims(), f), op),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racc_core::{Context, Max, Sum};
    use racc_gpusim::profiles;
    use racc_prim::PrimBackend;

    fn backend() -> SimBackend {
        SimBackend::stock(&Vendor {
            key: "testsim",
            ..Vendor::default()
        })
    }

    fn a100_backend() -> SimBackend {
        SimBackend::new(
            Arc::new(Device::new(profiles::nvidia_a100())),
            &Vendor::default(),
        )
    }

    #[test]
    fn parallel_for_covers_exactly() {
        let b = backend();
        let n = 1000;
        let hits: Vec<std::sync::atomic::AtomicUsize> = (0..n)
            .map(|_| std::sync::atomic::AtomicUsize::new(0))
            .collect();
        b.parallel_for(Extent::d1(n), &KernelProfile::unknown(), |i, _, _| {
            hits[i].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert!(hits
            .iter()
            .all(|h| h.load(std::sync::atomic::Ordering::Relaxed) == 1));
        assert_eq!(b.timeline().snapshot().launches, 1);
        assert!(b.timeline().modeled_ns() > 0);
    }

    /// The test device with tiles that fit its 64 threads, and the A100
    /// with the paper's.
    fn tiled_backends() -> [SimBackend; 2] {
        let small = SimBackend::stock(&Vendor {
            key: "testsim",
            tile_2d: (8, 8),
            tile_3d: (4, 4, 4),
            ..Vendor::default()
        });
        [small, a100_backend()]
    }

    #[test]
    fn user_panics_surface_unchanged_on_plain_and_tracked_launches() {
        fn message(run: impl FnOnce()) -> String {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("the launch must panic");
            err.downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        }
        for sanitize in [false, true] {
            let [small, _] = tiled_backends();
            let ctx = Context::builder(small).sanitizer(sanitize).build();
            let p = KernelProfile::unknown();
            // A map and a body that panic, one index each, in the second
            // block and the first.
            let map = |i: usize| {
                if i == 70 {
                    panic!("map failed at {i}");
                }
                1.0f64
            };
            assert_eq!(
                message(|| {
                    let _: f64 = ctx.parallel_reduce(200, &p, map);
                }),
                "map failed at 70"
            );
            assert_eq!(
                message(|| ctx.parallel_for(200, &p, |i| assert!(i != 3, "body failed at {i}"))),
                "body failed at 3"
            );
            assert_eq!(
                message(|| ctx
                    .parallel_for_2d((9, 9), &p, |i, j| assert!((i, j) != (8, 2), "no {i} {j}"))),
                "no 8 2"
            );
            // An index space larger than the array under it: the view's own
            // bounds check, at the first index past the end.
            let a = ctx.array_from(&[0.0f64; 100]).unwrap();
            let v = a.view_mut();
            assert_eq!(
                message(|| ctx.parallel_for(128, &p, move |i| v.set(i, 1.0))),
                "access 100 out of bounds (len 100)"
            );
            let v = a.view();
            assert_eq!(
                message(|| {
                    let _: f64 = ctx.parallel_reduce(128, &p, move |i| v.get(i));
                }),
                "access 100 out of bounds (len 100)"
            );
        }
    }

    #[test]
    fn two_kernel_reduce_matches_serial() {
        let b = backend();
        for n in [1usize, 63, 64, 65, 1000, 10_000] {
            let sqrt = |i: usize, _, _| (i as f64).sqrt();
            let s: f64 = b.parallel_reduce(Extent::d1(n), &KernelProfile::dot(), sqrt, Sum);
            let expect: f64 = (0..n).map(|i| (i as f64).sqrt()).sum();
            assert!(
                (s - expect).abs() < 1e-9 * expect.max(1.0),
                "n={n}: {s} vs {expect}"
            );
        }
    }

    #[test]
    fn reduce_handles_non_sum_ops() {
        let b = backend();
        let data: Vec<i64> = (0..5000).map(|i| (i * 7919) % 10007).collect();
        let n = Extent::d1(data.len());
        let m: i64 = b.parallel_reduce(n, &KernelProfile::dot(), |i, _, _| data[i], Max);
        assert_eq!(m, *data.iter().max().unwrap());
    }

    #[test]
    fn reduce_2d_and_3d_match_serial() {
        let b = backend();
        let (m, n) = (37usize, 23usize);
        let s2: f64 = b.parallel_reduce(
            Extent::d2(m, n),
            &KernelProfile::dot(),
            |i, j, _| (i * n + j) as f64,
            Sum,
        );
        let expect2: f64 = (0..m)
            .flat_map(|i| (0..n).map(move |j| (i * n + j) as f64))
            .sum();
        assert_eq!(s2, expect2);

        let (m, n, l) = (5usize, 6usize, 7usize);
        let s3: u64 = b.parallel_reduce(
            Extent::d3(m, n, l),
            &KernelProfile::dot(),
            |i, j, k| ((k * n + j) * m + i) as u64,
            Sum,
        );
        let total = (m * n * l) as u64;
        assert_eq!(s3, total * (total - 1) / 2);
    }

    #[test]
    fn reduction_costs_more_than_for() {
        // The two-kernel structure plus sync must make a small reduce more
        // expensive than a small parallel_for — the paper's DOT-vs-AXPY gap.
        let b = a100_backend();
        b.parallel_for(Extent::d1(1024), &KernelProfile::axpy(), |_, _, _| {});
        let t_for = b.timeline().modeled_ns();
        b.timeline().reset();
        let _: f64 = b.parallel_reduce(Extent::d1(1024), &KernelProfile::dot(), |_, _, _| 1.0, Sum);
        let t_red = b.timeline().modeled_ns();
        assert!(t_red > 2 * t_for, "reduce {t_red} vs for {t_for}");
    }

    #[test]
    fn transfers_are_modeled_through_context() {
        let ctx = Context::new(a100_backend());
        let n = 1 << 20;
        let data = vec![1.0f64; n];
        let before = ctx.modeled_ns();
        let arr = ctx.array_from(&data).unwrap();
        let after_upload = ctx.modeled_ns();
        assert!(after_upload > before, "H2D must cost modeled time");
        let _ = ctx.to_host(&arr).unwrap();
        assert!(
            ctx.modeled_ns() > after_upload,
            "D2H must cost modeled time"
        );
        let s = ctx.timeline();
        assert_eq!(s.h2d_bytes, (n * 8) as u64);
        assert_eq!(s.d2h_bytes, (n * 8) as u64);
    }

    #[test]
    fn device_oom_surfaces_as_racc_error() {
        let b = backend(); // test device: 16 MiB
        let ctx = Context::new(b);
        let err = ctx.zeros::<f64>(10 << 20).unwrap_err();
        assert!(matches!(err, RaccError::Allocation(_)));
    }

    #[test]
    fn array_drop_releases_modeled_device_memory() {
        let b = backend();
        let dev = Arc::clone(b.device());
        let ctx = Context::new(b);
        let arr = ctx.zeros::<f64>(1 << 20).unwrap(); // 8 MiB
        assert!(dev.used_bytes() >= 8 << 20);
        drop(arr);
        assert_eq!(dev.used_bytes(), 0);
    }

    #[test]
    fn full_frontend_on_simulated_gpu() {
        let ctx = Context::new(a100_backend());
        let n = 100_000usize;
        let x = ctx.array_from_fn(n, |i| (i % 10) as f64).unwrap();
        let y = ctx.array_from_fn(n, |i| ((i + 5) % 10) as f64).unwrap();
        let alpha = 0.5f64;
        let (xv, yv) = (x.view_mut(), y.view());
        ctx.parallel_for(n, &KernelProfile::axpy(), move |i| {
            xv.set(i, xv.get(i) + alpha * yv.get(i));
        });
        let (xv, yv) = (x.view(), y.view());
        let dot: f64 =
            ctx.parallel_reduce(n, &KernelProfile::dot(), move |i| xv.get(i) * yv.get(i));
        let mut expect = 0.0;
        for i in 0..n {
            let xi = (i % 10) as f64 + alpha * ((i + 5) % 10) as f64;
            expect += xi * ((i + 5) % 10) as f64;
        }
        assert!((dot - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn reduce_block_rounds_to_power_of_two() {
        let b = backend(); // test device limit: 64 threads
        assert_eq!(b.reduce_block(), 64);
        let b2 = SimBackend::new(
            Arc::new(Device::new(profiles::nvidia_a100())),
            &Vendor {
                reduce_block: 500, // not a power of two
                ..Vendor::default()
            },
        );
        assert_eq!(b2.reduce_block(), 256);
    }

    #[test]
    fn retries_recover_from_scripted_faults() {
        let b = backend();
        assert!(b.set_chaos(FaultPlan::parse("launch:nth-1;d2h:nth-1;alloc:nth-2").unwrap()));
        assert!(b.set_retry(RetryPolicy::default()));
        // The reduction's first kernel launch, its result allocation, and
        // its scalar readback each hit one injected fault; the retry policy
        // absorbs all three and the result is exact.
        let n = 1000usize;
        let s: f64 = b.parallel_reduce(
            Extent::d1(n),
            &KernelProfile::dot(),
            |i, _, _| i as f64,
            Sum,
        );
        assert_eq!(s, (n * (n - 1) / 2) as f64);
        let log = b.fault_log();
        assert_eq!(log.len(), 3, "{log:?}");
        // Each retry charged its backoff to the timeline.
        let policy = RetryPolicy::default();
        assert!(b.timeline().modeled_ns() >= 3 * policy.backoff_ns(1));
    }

    #[test]
    fn self_check_probes_through_the_fault_schedule() {
        let healthy = backend();
        assert!(healthy.self_check().is_ok());
        let dying = backend();
        dying.set_chaos(FaultPlan::parse("launch:always").unwrap());
        dying.set_retry(RetryPolicy::default());
        assert!(
            dying.self_check().is_err(),
            "a hard (permanent) launch failure must outlive any retry budget"
        );
    }

    #[test]
    fn sim_scan_matches_serial_reference_bitwise() {
        for b in [backend(), a100_backend()] {
            for n in [1usize, 7, 255, 256, 257, 1000, 5000] {
                let read = |i: usize| ((i as f32) * 0.37).sin() + 1.0e-3;
                let expect = std::cell::RefCell::new(vec![0.0f32; n]);
                racc_prim::reference::scan_canonical(
                    n,
                    true,
                    &read,
                    &|i, v| expect.borrow_mut()[i] = v,
                    racc_core::Sum,
                );
                let expect = expect.into_inner();
                let got: Vec<std::sync::atomic::AtomicU32> = (0..n)
                    .map(|_| std::sync::atomic::AtomicU32::new(0))
                    .collect();
                b.prim_scan(
                    n,
                    true,
                    &KernelProfile::unknown(),
                    read,
                    |i, v: f32| got[i].store(v.to_bits(), std::sync::atomic::Ordering::Relaxed),
                    racc_core::Sum,
                );
                for i in 0..n {
                    assert_eq!(
                        got[i].load(std::sync::atomic::Ordering::Relaxed),
                        expect[i].to_bits(),
                        "n={n} i={i} on {}",
                        b.key()
                    );
                }
            }
        }
    }

    #[test]
    fn sim_exclusive_scan_shifts_inclusive() {
        let b = backend();
        let n = 777usize;
        let read = |i: usize| i as u64 + 1;
        let got: Vec<std::sync::atomic::AtomicU64> = (0..n)
            .map(|_| std::sync::atomic::AtomicU64::new(u64::MAX))
            .collect();
        b.prim_scan(
            n,
            false,
            &KernelProfile::unknown(),
            read,
            |i, v: u64| got[i].store(v, std::sync::atomic::Ordering::Relaxed),
            Sum,
        );
        let mut run = 0u64;
        for (i, g) in got.iter().enumerate() {
            assert_eq!(g.load(std::sync::atomic::Ordering::Relaxed), run, "i={i}");
            run += read(i);
        }
    }

    #[test]
    fn sim_histogram_matches_serial_reference() {
        for (b, n, bins) in [
            (backend(), 10_000usize, 37usize),
            (a100_backend(), 10_000, 37),
            // Too many bins for the test device's 4 KiB shared memory:
            // exercises the global-scratch fallback path.
            (backend(), 3000, 1500),
        ] {
            let key = |i: usize| (i * 2654435761) % bins;
            let expect = std::cell::RefCell::new(vec![u64::MAX; bins]);
            racc_prim::reference::histogram_canonical(n, bins, &key, &|b, c| {
                expect.borrow_mut()[b] = c
            });
            let expect = expect.into_inner();
            let got: Vec<std::sync::atomic::AtomicU64> = (0..bins)
                .map(|_| std::sync::atomic::AtomicU64::new(u64::MAX))
                .collect();
            b.prim_histogram(n, bins, &KernelProfile::unknown(), key, |bin, c| {
                got[bin].store(c, std::sync::atomic::Ordering::Relaxed)
            });
            for bin in 0..bins {
                assert_eq!(
                    got[bin].load(std::sync::atomic::Ordering::Relaxed),
                    expect[bin],
                    "bin={bin} on {} (n={n}, bins={bins})",
                    b.key()
                );
            }
        }
    }

    #[test]
    fn sim_histogram_with_no_elements_still_writes_zero_bins() {
        let b = backend();
        let bins = 19usize;
        let got: Vec<std::sync::atomic::AtomicU64> = (0..bins)
            .map(|_| std::sync::atomic::AtomicU64::new(u64::MAX))
            .collect();
        b.prim_histogram(
            0,
            bins,
            &KernelProfile::unknown(),
            |_| 0,
            |bin, c| got[bin].store(c, std::sync::atomic::Ordering::Relaxed),
        );
        assert!(got
            .iter()
            .all(|g| g.load(std::sync::atomic::Ordering::Relaxed) == 0));
    }

    #[test]
    fn sim_sort_matches_serial_reference() {
        for b in [backend(), a100_backend()] {
            // Lots of duplicate keys so stability (ties toward the smaller
            // index) is load-bearing, across multiple radix passes.
            let n = 4000usize;
            let key = |i: usize| ((i * 48271) % 97) as u64 * 65536 + ((i * 16807) % 13) as u64;
            let expect = std::cell::RefCell::new(vec![usize::MAX; n]);
            racc_prim::reference::sort_pairs_canonical(n, &key, &|r, i| expect.borrow_mut()[r] = i);
            let expect = expect.into_inner();
            let got: Vec<std::sync::atomic::AtomicUsize> = (0..n)
                .map(|_| std::sync::atomic::AtomicUsize::new(usize::MAX))
                .collect();
            b.prim_sort_pairs(n, 32, &KernelProfile::unknown(), key, |r, i| {
                got[r].store(i, std::sync::atomic::Ordering::Relaxed)
            });
            for r in 0..n {
                assert_eq!(
                    got[r].load(std::sync::atomic::Ordering::Relaxed),
                    expect[r],
                    "rank={r} on {}",
                    b.key()
                );
            }
        }
    }

    #[test]
    fn prims_charge_modeled_time_and_recover_from_faults() {
        let b = backend();
        assert!(b.set_chaos(FaultPlan::parse("launch:nth-2;alloc:nth-1").unwrap()));
        assert!(b.set_retry(RetryPolicy::default()));
        let n = 2000usize;
        let got: Vec<std::sync::atomic::AtomicU64> = (0..n)
            .map(|_| std::sync::atomic::AtomicU64::new(0))
            .collect();
        b.prim_scan(
            n,
            true,
            &KernelProfile::unknown(),
            |i| i as u64,
            |i, v: u64| got[i].store(v, std::sync::atomic::Ordering::Relaxed),
            Sum,
        );
        let mut run = 0u64;
        for (i, g) in got.iter().enumerate() {
            run += i as u64;
            assert_eq!(g.load(std::sync::atomic::Ordering::Relaxed), run);
        }
        assert_eq!(b.fault_log().len(), 2, "{:?}", b.fault_log());
        assert!(b.timeline().modeled_ns() > 0);
    }

    #[test]
    fn empty_prims_are_cheap_noops() {
        let b = backend();
        b.prim_scan(
            0,
            true,
            &KernelProfile::unknown(),
            |_| 0.0f64,
            |_, _| panic!("no output"),
            Sum,
        );
        b.prim_sort_pairs(
            0,
            64,
            &KernelProfile::unknown(),
            |_| 0,
            |_, _| panic!("no output"),
        );
        b.prim_histogram(
            3,
            0,
            &KernelProfile::unknown(),
            |_| 0,
            |_, _| panic!("no bins"),
        );
        assert!(b.timeline().modeled_ns() > 0, "overhead still charged");
    }
}
