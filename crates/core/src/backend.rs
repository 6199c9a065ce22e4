//! The back-end abstraction.
//!
//! A [`Backend`] supplies the execution and memory-modeling strategy behind
//! the front-end constructs. Implementations in this workspace:
//!
//! | backend | crate | JACC analog |
//! |---|---|---|
//! | [`crate::SerialBackend`]  | racc-core | (baseline) |
//! | [`crate::ThreadsBackend`] | racc-core | `Base.Threads` |
//! | `SimBackend` by `CUDA`    | racc-backend-common, described by racc-backend-cuda | `CUDA.jl` |
//! | `SimBackend` by `HIP`     | racc-backend-common, described by racc-backend-hip | `AMDGPU.jl` |
//! | `SimBackend` by `ONEAPI`  | racc-backend-common, described by racc-backend-oneapi | `oneAPI.jl` |
//!
//! The three simulated-GPU rows are one type: a vendor is a value the
//! simulator back end reads per launch, not a `Backend` implementation.
//!
//! The trait's kernel methods are generic (monomorphized per kernel), so the
//! portability layer adds no virtual dispatch on the hot path — the property
//! the paper's overhead study is about. Runtime backend selection happens by
//! enum dispatch in the `racc` crate.

use std::any::Any;
use std::sync::Arc;

use crate::error::RaccError;
use crate::profile::KernelProfile;
use crate::scalar::{AccScalar, ReduceOp};
use crate::timeline::Timeline;

/// Opaque residency marker a backend attaches to an array. Accelerator back
/// ends use it to hold (and release, on drop) modeled device memory; CPU
/// back ends return `None`.
pub type DeviceToken = Option<Arc<dyn Any + Send + Sync>>;

/// A RACC execution back end. See the module docs.
///
/// Contract for the kernel methods:
/// * every index in the range is invoked **exactly once**;
/// * the call is **synchronous** — all invocations complete before return;
/// * `f` may be invoked concurrently for different indices;
/// * the backend charges its [`Timeline`] with the modeled duration.
pub trait Backend: Send + Sync + 'static {
    /// Human-readable name, e.g. `"RACC Threads (64 cores)"`.
    fn name(&self) -> String;

    /// Short key used in preferences and tables: `"serial"`, `"threads"`,
    /// `"cudasim"`, `"hipsim"`, `"oneapisim"`.
    fn key(&self) -> &'static str;

    /// True for (simulated) accelerator back ends, which have a distinct
    /// memory space.
    fn is_accelerator(&self) -> bool;

    /// The modeled-time accounting for this backend instance.
    fn timeline(&self) -> &Timeline;

    /// Attach a span recorder; every subsequent construct deposits one
    /// `racc-trace` span. The default installs it into the backend's
    /// [`Timeline`]; backends with internal execution engines (the thread
    /// pool) override this to propagate the recorder further.
    #[cfg(feature = "trace")]
    fn attach_tracer(&self, recorder: &Arc<racc_trace::TraceRecorder>) {
        self.timeline().install_tracer(Arc::clone(recorder));
    }

    /// Enable or disable the backend's dynamic sanitizer (`simsan`):
    /// out-of-bounds, use-after-free, read-write race, barrier-divergence,
    /// and leak checking, in the spirit of `compute-sanitizer`. Returns
    /// `true` when the backend supports sanitizing; the default
    /// implementation is an unsupported no-op.
    fn set_sanitizer(&self, _enabled: bool) -> bool {
        false
    }

    /// Human-readable sanitizer findings (leaks outstanding, checks
    /// performed). `None` when the sanitizer is unsupported or disabled.
    fn sanitizer_report(&self) -> Option<String> {
        None
    }

    /// Work-stealing dispatch counters (tasks executed/stolen/injected,
    /// splits, wakes, parks) of the backend's execution engine. `None` on
    /// back ends without a work-stealing pool — the default; the Threads
    /// backend (and the simulated accelerators, whose worker grids run on
    /// the same pool) return a snapshot.
    fn steal_stats(&self) -> Option<racc_threadpool::StealStats> {
        None
    }

    /// Arm deterministic fault injection (`racc-chaos`) on the backend's
    /// device with a fresh engine for `plan`. Returns `true` when the
    /// backend supports injection (the simulated accelerators); the
    /// default is an unsupported no-op — CPU backends have no driver
    /// surface to fault.
    fn set_chaos(&self, _plan: racc_chaos::FaultPlan) -> bool {
        false
    }

    /// Set the retry policy applied to transient device faults (injected
    /// faults, out-of-memory). Returns `true` when the backend honors it.
    fn set_retry(&self, _policy: racc_chaos::RetryPolicy) -> bool {
        false
    }

    /// Every fault injected on this backend so far, in injection order.
    /// Empty when chaos is unsupported or disarmed.
    fn fault_log(&self) -> Vec<racc_chaos::FaultEvent> {
        Vec::new()
    }

    /// Probe that the backend can do real work right now: a tiny
    /// alloc + launch + readback round trip on accelerators (which runs
    /// through the active fault schedule and retry policy). The
    /// graceful-degradation path uses this to decide whether to fall back
    /// to a CPU backend. CPU backends trivially pass.
    fn self_check(&self) -> Result<(), RaccError> {
        Ok(())
    }

    /// Model an array allocation of `bytes` (with an upload of the initial
    /// contents when `upload`), returning a residency token the array holds.
    fn on_alloc(&self, bytes: usize, upload: bool) -> Result<DeviceToken, RaccError>;

    /// Model a download of `bytes` back to the host (`to_host`).
    fn on_download(&self, bytes: usize);

    /// `parallel_for(n, f)` over `i in 0..n`.
    fn parallel_for_1d<F>(&self, n: usize, profile: &KernelProfile, f: F)
    where
        F: Fn(usize) + Sync;

    /// `parallel_for((m, n), f)` over `0..m × 0..n` (i fast, column-major).
    fn parallel_for_2d<F>(&self, m: usize, n: usize, profile: &KernelProfile, f: F)
    where
        F: Fn(usize, usize) + Sync;

    /// `parallel_for((m, n, l), f)` over a 3D range.
    fn parallel_for_3d<F>(&self, m: usize, n: usize, l: usize, profile: &KernelProfile, f: F)
    where
        F: Fn(usize, usize, usize) + Sync;

    /// `parallel_reduce(n, f)` with reduction operator `op`.
    fn parallel_reduce_1d<T, F, O>(&self, n: usize, profile: &KernelProfile, f: F, op: O) -> T
    where
        T: AccScalar,
        F: Fn(usize) -> T + Sync,
        O: ReduceOp<T>;

    /// 2D reduction.
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
        O: ReduceOp<T>;

    /// 3D reduction.
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
        O: ReduceOp<T>;

    /// Portable scan primitive: writes the inclusive (or exclusive) scan of
    /// `read(0..n)` under `op` through `write(i, value)`, following the
    /// canonical two-level tiling of [`crate::prim`] exactly — results are
    /// bit-identical across backends and run-to-run. `n == 0` writes
    /// nothing. The default implementation runs the canonical sequential
    /// reference (correct on any backend, no modeled-cost realism);
    /// shipped backends override it with parallel implementations of the
    /// same association.
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
        #[cfg(not(feature = "trace"))]
        let _ = profile;
        #[cfg(feature = "trace")]
        let t0 = self.timeline().trace_start();
        crate::prim::scan_canonical(n, inclusive, &read, &write, op);
        #[cfg(feature = "trace")]
        self.timeline().record_cpu_construct(
            self.key(),
            racc_trace::ConstructKind::Prim,
            profile,
            [n as u64, 1, 1],
            1,
            t0,
            0.0,
        );
    }

    /// Portable histogram primitive: counts `key(i)` for `i in 0..n` into
    /// `bins` buckets and writes **every** bin's `u64` count (zeros
    /// included) through `write(bin, count)`. The caller guarantees
    /// `key(i) < bins`; out-of-range keys are library-level UB that the
    /// simulators' bounds checks / simsan turn into a panic (the validated
    /// `racc-prim` wrapper reports them as a typed error first).
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
        #[cfg(not(feature = "trace"))]
        let _ = profile;
        #[cfg(feature = "trace")]
        let t0 = self.timeline().trace_start();
        crate::prim::histogram_canonical(n, bins, &key, &write);
        #[cfg(feature = "trace")]
        self.timeline().record_cpu_construct(
            self.key(),
            racc_trace::ConstructKind::Prim,
            profile,
            [n as u64, bins as u64, 1],
            1,
            t0,
            0.0,
        );
    }

    /// Portable sort primitive: stable ascending sort of the order-encoded
    /// `key(i)` bits (ties toward the smaller index), reporting the
    /// permutation through `write(rank, original_index)` for `rank in
    /// 0..n`. `key_bits` bounds the significant low bits of every key (the
    /// simulators size their radix passes from it). The output permutation
    /// is unique, so every backend agrees exactly.
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
        #[cfg(not(feature = "trace"))]
        let _ = (profile, key_bits);
        #[cfg(feature = "trace")]
        let t0 = self.timeline().trace_start();
        crate::prim::sort_pairs_canonical(n, &key, &write);
        #[cfg(feature = "trace")]
        self.timeline().record_cpu_construct(
            self.key(),
            racc_trace::ConstructKind::Prim,
            profile,
            [n as u64, key_bits as u64, 1],
            1,
            t0,
            0.0,
        );
    }
}
