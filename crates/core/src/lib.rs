//! # racc-core
//!
//! The core of **RACC** (Rust for ACCelerators) — a Rust reproduction of the
//! JACC programming model from the SC'24 paper *"JACC: Leveraging HPC
//! Meta-Programming and Performance Portability with the Just-in-Time and
//! LLVM-based Julia Language"*.
//!
//! Like JACC, the model has two components (paper §III):
//!
//! * **memory** — unified arrays ([`Array1`], [`Array2`], [`Array3`]) that
//!   abstract over where data lives (`JACC.Array`); column-major like Julia;
//! * **compute** — two constructs, [`Context::parallel_for`] and
//!   [`Context::parallel_reduce`], in one-, two- and three-dimensional
//!   variants, dispatching to the selected back end.
//!
//! A back end implements the [`Backend`] trait. This crate ships the two CPU
//! back ends ([`SerialBackend`] and [`ThreadsBackend`], the latter being the
//! `Base.Threads` analog built on `racc-threadpool`); the GPU back end over
//! the simulator lives in its own crate (`racc-backend-common`, one vendor
//! description each for CUDA, HIP and oneAPI), mirroring JACC's
//! weak-dependency structure, and the `racc` crate ties them together
//! behind preferences-driven selection.
//!
//! All constructs are **synchronous**: when a call returns, the computation
//! (and, on accelerators, its modeled completion) has happened.
//!
//! Besides executing kernels functionally, every backend maintains a
//! [`Timeline`] of *modeled* nanoseconds derived from its machine model —
//! the clock the paper-reproduction figures are generated from (see
//! `DESIGN.md` §1 for why).
//!
//! ```
//! use racc_core::{Context, KernelProfile, ThreadsBackend};
//!
//! let ctx = Context::new(ThreadsBackend::with_threads(2));
//! let x = ctx.array_from(&vec![1.0f64; 1000]).unwrap();
//! let y = ctx.array_from(&vec![2.0f64; 1000]).unwrap();
//! let alpha = 2.5;
//!
//! // JACC.parallel_for(SIZE, axpy, alpha, x, y)
//! let (xs, ys) = (x.view_mut(), y.view());
//! ctx.parallel_for(x.len(), &KernelProfile::axpy(), move |i| {
//!     xs.set(i, xs.get(i) + alpha * ys.get(i));
//! });
//!
//! // res = JACC.parallel_reduce(SIZE, dot, x, y)
//! let (xs, ys) = (x.view(), y.view());
//! let dot = ctx.parallel_reduce(x.len(), &KernelProfile::dot(), move |i| xs.get(i) * ys.get(i));
//! assert_eq!(dot, 6.0 * 2.0 * 1000.0);
//! ```

mod array;
mod backend;
pub mod buffer;
mod context;
pub mod cpumodel;
mod error;
pub mod host;
mod profile;
pub mod racecheck;
mod scalar;
mod serial;
pub mod stats;
mod threads;
mod timeline;
mod views;

pub use array::{Array1, Array2, Array3};
pub use backend::{run_row, Backend, DeviceToken, Extent, Instrument};
// Fault-injection vocabulary, re-exported so the portability layer and
// applications can arm chaos without naming the substrate crate.
pub use context::{Context, ContextBuilder, ContextOptions};
pub use cpumodel::CpuSpec;
pub use error::RaccError;
pub use profile::KernelProfile;
pub use racc_chaos as chaos;
pub use racc_chaos::{FaultAction, FaultEvent, FaultPlan, FaultSite, RetryPolicy};
// The execution substrate, re-exported so backend crates can name
// work-stealing types (`Instrument::steal_stats`) without a direct dependency.
pub use racc_threadpool as threadpool;
pub use racc_threadpool::{StealCounters, StealStats};
pub use scalar::{AccScalar, Max, Min, Numeric, Prod, ReduceOp, Sum};
pub use serial::SerialBackend;
pub use stats::{
    FaultStats, PlanCacheStats, PrimCounters, PrimStats, RuntimeStats, ServeCounters, ServeStats,
    ShardCounters, ShardStats,
};
pub use threads::ThreadsBackend;
pub use timeline::{Timeline, TimelineSnapshot};
pub use views::{View1, View2, View3, ViewMut1, ViewMut2, ViewMut3};

/// The span-recording crate, re-exported so backends and applications built
/// on `racc-core` use one coherent `racc-trace` version (enable the `trace`
/// feature).
#[cfg(feature = "trace")]
pub use racc_trace as trace;

/// Convenience glob import for application code.
///
/// Introspection rides along: [`Context::stats`] returns one
/// [`RuntimeStats`] snapshot (plan-cache hits/misses/evictions, injected
/// faults, sanitizer report) instead of per-subsystem getters.
pub mod prelude {
    pub use crate::{
        Array1, Array2, Array3, Backend, Context, KernelProfile, Max, Min, Prod, RaccError,
        ReduceOp, RuntimeStats, SerialBackend, Sum, ThreadsBackend,
    };
}
