//! The back-end abstraction.
//!
//! A [`Backend`] supplies the execution and memory-modeling strategy behind
//! the front-end constructs. Implementations in this workspace:
//!
//! | backend | crate | JACC analog |
//! |---|---|---|
//! | [`crate::SerialBackend`]  | racc-core | (baseline) |
//! | [`crate::ThreadsBackend`] | racc-core | `Base.Threads` |
//! | `SimBackend` by `CUDA`    | racc-backend-common | `CUDA.jl` |
//! | `SimBackend` by `HIP`     | racc-backend-common | `AMDGPU.jl` |
//! | `SimBackend` by `ONEAPI`  | racc-backend-common | `oneAPI.jl` |
//!
//! The three simulated-GPU rows are one type: a vendor is a value the
//! simulator back end reads per launch, not a `Backend` implementation.
//!
//! The trait's kernel methods are generic (monomorphized per kernel), so the
//! portability layer adds no virtual dispatch on the hot path — the property
//! the paper's overhead study is about. Runtime backend selection happens by
//! enum dispatch in the `racc` crate.

use std::any::Any;
use std::ops::Range;
use std::sync::Arc;

use crate::error::RaccError;
use crate::profile::KernelProfile;
use crate::scalar::{AccScalar, ReduceOp};
use crate::timeline::Timeline;

/// Opaque residency marker a backend attaches to an array. Accelerator back
/// ends use it to hold (and release, on drop) modeled device memory; CPU
/// back ends return `None`.
pub type DeviceToken = Option<Arc<dyn Any + Send + Sync>>;

/// The index space of one construct: its rank (1 to 3) and its extent along
/// each axis, padded with 1s past the rank. JACC selects the method of
/// `parallel_for` by the type of its extent argument (`N` or `(M, N)`);
/// here the rank is data, so a back end has one entry point per construct.
///
/// Axis 0 is the fast one (column-major, like the arrays); see
/// [`Extent::linear`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    rank: usize,
    dims: [usize; 3],
}

impl Extent {
    /// `0..n`.
    pub const fn d1(n: usize) -> Self {
        Extent {
            rank: 1,
            dims: [n, 1, 1],
        }
    }

    /// `0..m × 0..n`.
    pub const fn d2(m: usize, n: usize) -> Self {
        Extent {
            rank: 2,
            dims: [m, n, 1],
        }
    }

    /// `0..m × 0..n × 0..l`.
    pub const fn d3(m: usize, n: usize, l: usize) -> Self {
        Extent {
            rank: 3,
            dims: [m, n, l],
        }
    }

    /// 1, 2 or 3.
    pub const fn rank(&self) -> usize {
        self.rank
    }

    /// The extent along each axis; 1 past the rank.
    pub const fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// The column-major linear index of `(i, j, k)`, axis 0 fastest.
    #[inline]
    pub const fn linear(&self, i: usize, j: usize, k: usize) -> usize {
        (k * self.dims[1] + j) * self.dims[0] + i
    }

    /// Number of indices in the space.
    pub const fn len(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// True when some axis is empty, so no index exists.
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Run `f(i, j, k)` for every `i` in `is` at fixed `(j, k)`: the one place
/// a `parallel_for` body is called. Every back end walks the innermost axis
/// of its construct through here — the serial loop once per `(j, k)`, the
/// thread pool once per tile, column or `(j, plane)`, the simulator once
/// per band row — so a body closure has a single call site, and LLVM's
/// single-call-site bonus inlines it into this loop. With a call site in
/// each back end's loop, the body stayed out of line and was called once
/// per index. Never inlined itself, so the body is instantiated once,
/// however many loops reach it.
///
/// `tag` is the linear index of `(0, j, k)` when the iterations run as the
/// `racecheck` feature's CPU iterations (iteration `(i, j, k)` then runs at
/// `tag + i`); `None` keeps the location the caller installed, as the
/// simulator's executor sets one per simulated thread.
#[inline(never)]
pub fn run_row<F>(f: &F, is: Range<usize>, j: usize, k: usize, tag: Option<usize>)
where
    F: Fn(usize, usize, usize),
{
    for i in is {
        if let Some(base) = tag {
            crate::host::tag((base + i) as u64);
        }
        f(i, j, k);
    }
}

/// The cold side of a back end: observability and fault-injection hooks,
/// reached through [`Backend::instrument`]. Object-safe and never called
/// inside a construct, so the virtual call costs the hot path nothing, and
/// a wrapper such as `racc::AnyBackend` forwards all of them by forwarding
/// the one accessor. A back end overrides the hooks it supports; the
/// provided bodies are the documented "unsupported" answers.
pub trait Instrument {
    /// Hand the span recorder to execution engines below the back end (the
    /// thread pool's per-worker chunk spans). The context has already
    /// installs it into the back end's [`Timeline`].
    fn attach_tracer(&self, _recorder: &Arc<racc_trace::TraceRecorder>) {}

    /// Enable or disable the backend's dynamic sanitizer (`simsan`):
    /// out-of-bounds, use-after-free, read-write race, barrier-divergence,
    /// and leak checking, in the spirit of `compute-sanitizer`. Returns
    /// `true` when the backend supports sanitizing.
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
    /// back ends without a work-stealing pool; the Threads backend (and the
    /// simulated accelerators, whose worker grids run on the same pool)
    /// return a snapshot.
    fn steal_stats(&self) -> Option<racc_threadpool::StealStats> {
        None
    }

    /// Arm deterministic fault injection (`racc-chaos`) on the backend's
    /// device with a fresh engine for `plan`. Returns `true` when the
    /// backend supports injection (the simulated accelerators); CPU
    /// backends have no driver surface to fault.
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
}

/// A RACC execution back end. See the module docs.
///
/// The contract of the two constructs, for every rank:
/// * `f` is invoked **exactly once** for every index of `extent` and for
///   nothing outside it, as `f(i, j, k)` with the axes past the rank at 0;
///   an empty extent runs no body (and a reduction returns the identity);
/// * the call is **synchronous** — all invocations complete before return;
/// * `f` may be invoked concurrently for different indices, in any order;
///   a reduction combines in an order that is a pure function of the
///   extent and the back end's configuration, so results repeat run to run
///   (the serial back end folds column-major: axis 0 fastest);
/// * the back end charges its [`Timeline`] with the modeled duration, one
///   launch or one reduction per call, empty extents included.
///
/// [`crate::Context`] is the only rank adapter: it turns the paper's
/// `f(i)` / `f(i, j)` bodies into `f(i, j, k)` and holds them by value all
/// the way down. The rank it passes is a constant at each of its call
/// sites, so an implementation that branches on rank marks the construct
/// `#[inline(always)]` — as all in this workspace do — and every call
/// compiles to its one arm; left to the inliner's judgement, each body
/// closure would instantiate the traversals of all three ranks.
///
/// These nine methods are all a back end provides. A library that wants
/// more from one — a device-wide algorithm with a kernel per engine —
/// declares a `trait X: Backend` in its own crate; this trait does not grow.
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

    /// The observability and fault-injection hooks of this back end.
    fn instrument(&self) -> &dyn Instrument;

    /// Model an array allocation of `bytes` (with an upload of the initial
    /// contents when `upload`), returning a residency token the array holds.
    /// The array's data lives in its own host storage; the token only
    /// accounts for the device memory it stands for (a simulator charges
    /// its heap without a block behind it), so nothing reads or writes
    /// through it.
    fn on_alloc(&self, bytes: usize, upload: bool) -> Result<DeviceToken, RaccError>;

    /// Model a download of `bytes` back to the host (`to_host`).
    fn on_download(&self, bytes: usize);

    /// `parallel_for(extent, f)`: run `f` over every index of `extent`. The
    /// back ends of this workspace call `f` only through [`run_row`] (see
    /// there for why).
    fn parallel_for<F>(&self, extent: Extent, profile: &KernelProfile, f: F)
    where
        F: Fn(usize, usize, usize) + Sync;

    /// `parallel_reduce(extent, f)`: combine `f` over every index of
    /// `extent` with the reduction operator `op`.
    fn parallel_reduce<T, F, O>(&self, extent: Extent, profile: &KernelProfile, f: F, op: O) -> T
    where
        T: AccScalar,
        F: Fn(usize, usize, usize) -> T + Sync,
        O: ReduceOp<T>;
}
