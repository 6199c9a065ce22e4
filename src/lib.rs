//! # RACC — Rust for ACCelerators
//!
//! A performance-portable parallel programming front end for CPUs and
//! (simulated) GPUs: a from-scratch Rust reproduction of **JACC**, the
//! high-level meta-programming model for Julia presented at SC'24
//! (*"JACC: Leveraging HPC Meta-Programming and Performance Portability
//! with the Just-in-Time and LLVM-based Julia Language"*, Valero-Lara et
//! al.).
//!
//! The same RACC code runs unchanged on every back end:
//!
//! | key | backend | JACC analog | target |
//! |---|---|---|---|
//! | `serial`    | [`SerialBackend`]  | — | reference |
//! | `threads`   | [`ThreadsBackend`] | `Base.Threads` | CPU (default) |
//! | `cudasim`   | [`SimBackend`] by `CUDA`   | `CUDA.jl` | simulated NVIDIA A100 |
//! | `hipsim`    | [`SimBackend`] by `HIP`    | `AMDGPU.jl` | simulated AMD MI100 |
//! | `oneapisim` | [`SimBackend`] by `ONEAPI` | `oneAPI.jl` | simulated Intel Max 1550 |
//!
//! The three GPU rows are one type, [`SimBackend`]: a vendor is a
//! [`Vendor`] value (`CUDA`, `HIP`, `ONEAPI`) the simulator back end reads
//! per launch.
//!
//! Back-end selection mirrors JACC's `Preferences.jl` flow: the default
//! context consults the `RACC_BACKEND` environment variable, then the
//! `[racc] backend = "..."` preference in `RaccPreferences.toml` (current
//! directory), and falls back to `threads`. The GPU back ends are optional
//! cargo features (all on by default), mirroring JACC's Julia v1.9 weak
//! dependencies.
//!
//! ```
//! use racc::prelude::*;
//!
//! let ctx = racc::context_for("threads").unwrap();
//! let size = 1_000usize;
//! let x = ctx.array_from(&vec![1.0f64; size]).unwrap();
//! let y = ctx.array_from(&vec![2.0f64; size]).unwrap();
//! let alpha = 2.5;
//!
//! let (xv, yv) = (x.view_mut(), y.view());
//! ctx.parallel_for(size, &KernelProfile::axpy(), move |i| {
//!     xv.set(i, xv.get(i) + alpha * yv.get(i));
//! });
//!
//! let (xv, yv) = (x.view(), y.view());
//! let dot: f64 = ctx.parallel_reduce(size, &KernelProfile::dot(), move |i| {
//!     xv.get(i) * yv.get(i)
//! });
//! assert_eq!(dot, 6.0 * 2.0 * size as f64);
//! ```

use std::sync::OnceLock;

use racc_prim::PrimBackend;

pub use racc_core::{
    cpumodel, AccScalar, Array1, Array2, Array3, Backend, Context, CpuSpec, DeviceToken, Extent,
    Instrument, KernelProfile, Max, Min, Numeric, Prod, RaccError, ReduceOp, SerialBackend, Sum,
    ThreadsBackend, Timeline, TimelineSnapshot, View1, View2, View3, ViewMut1, ViewMut2, ViewMut3,
};

/// The deterministic fault-injection vocabulary (`racc-chaos`),
/// re-exported so applications can arm chaos through
/// [`ContextBuilder::chaos`] without naming the substrate crate. The
/// module re-export [`chaos`] carries the rest (parse errors, rule
/// types, seeded-rate constants).
pub use racc_core::{FaultAction, FaultEvent, FaultPlan, FaultSite, RetryPolicy};

/// The fault-injection substrate crate (`racc-chaos`), re-exported
/// whole. See [`ContextBuilder::chaos`] / [`ContextBuilder::fallback`]
/// for how contexts consume it, and [`FaultPlan::parse`] for the script
/// grammar (`<seed>` or `site:selector[:action];...`).
pub use racc_core::chaos;
pub use racc_prefs::{Preferences, Value, PREFS_FILE_NAME};

/// The crate's error type — an alias for [`RaccError`]. Simulator errors
/// (`racc_gpusim::SimError` and the vendor wrappers) convert into it with
/// `?`.
pub use racc_core::RaccError as Error;

/// The span-recording crate (`racc-trace`), re-exported for sink access
/// (chrome traces, kernel summaries). See [`ContextBuilder::trace`].
pub use racc_core::trace;

/// The lazy expression-graph and kernel-fusion engine (`racc-fuse`):
/// open a scope with `ctx.lazy()`, build elementwise expressions over
/// arrays, and `eval()` compiles each maximal same-extent chain (plus an
/// optional trailing reduction) into one launch, caching the compiled
/// plan by shape so steady-state loops skip planning entirely. See
/// [`ContextBuilder::fusion`] for the knob libraries consult and
/// `Context::stats` for the cache counters.
pub use racc_fuse as fuse;

/// Sharded multi-device execution (`racc-shard`): block domain
/// decomposition across N simulated devices (one comm rank + one context
/// each), halo exchange overlapped with interior compute on the modeled
/// clock, and reshard-and-replay recovery when a rank dies under chaos
/// injection. See [`shard::run_sharded`] and the `ShardApp`
/// implementations in `racc-stencil`, `racc-lbm`, and `racc-cg`.
pub use racc_shard as shard;
pub use racc_shard::{run_sharded, ShardApp, ShardOptions, ShardOutcome};

/// Multi-tenant job serving (`racc-serve`): a background dispatcher
/// multiplexes concurrently submitted jobs (kernel DAGs, solver runs,
/// sharded apps) across a pool of backend contexts, with bounded
/// admission, weighted-fair scheduling per tenant, cross-tenant batching
/// of same-shape launches over the shared plan cache, modeled
/// H2D/compute/D2H overlap per device, and a chaos-hardened degradation
/// ladder (retry → fallback context → fail the one job). See
/// [`serve::Server::start`] and `examples/serve.rs`.
pub use racc_serve as serve;
pub use racc_serve::{ServeJob, Server, ServerOptions, TenantConfig};

/// Portable device primitives (`racc-prim`): inclusive/exclusive scan,
/// histogram, and stable sort-by-key, bit-identical across every backend
/// (including `f32` under work stealing) via the canonical fixed-tile
/// combine in `racc_prim::reference`. Import [`PrimExt`] (in the prelude) to
/// call them as `ctx.inclusive_scan(..)` / `ctx.histogram(..)` /
/// `ctx.sort_by_key(..)`.
pub use racc_prim as prim;
pub use racc_prim::{PrimError, PrimExt, SortKey};

#[cfg(feature = "backend-cuda")]
pub use racc_backend_common::{cuda_backend, CUDA};
#[cfg(feature = "backend-hip")]
pub use racc_backend_common::{hip_backend, HIP};
#[cfg(feature = "backend-oneapi")]
pub use racc_backend_common::{oneapi_backend, ONEAPI};
/// The simulated-GPU back end and the vendor description it launches by;
/// one type for all three vendors. Present when any `backend-*` feature is.
#[cfg(any(
    feature = "backend-cuda",
    feature = "backend-hip",
    feature = "backend-oneapi"
))]
pub use racc_backend_common::{SimBackend, Vendor};

/// Convenience prelude: the curated surface application code typically
/// needs, and nothing else.
///
/// | item | purpose |
/// |---|---|
/// | [`Context`], [`Ctx`] | the front-end API (generic / runtime-selected) |
/// | [`ContextBuilder`], [`builder`] | key-based context construction |
/// | [`default_context`], [`context_for`], [`available_backends`] | selection helpers |
/// | [`Array1`]–[`Array3`] | the `JACC.Array` analogs |
/// | [`KernelProfile`] | per-kernel cost annotations |
/// | `load`, `lit`, `Expr`, `Lazy`, `LazyExt`, `ReduceKind` | lazy fused expressions ([`fuse`]) |
/// | `RuntimeStats` | `ctx.stats()`: plan-cache and fault counters |
/// | [`Sum`], [`Max`], [`Min`], [`Prod`], [`ReduceOp`] | reduction operators |
/// | [`Backend`], [`AnyBackend`], [`SerialBackend`], [`ThreadsBackend`] | back ends |
/// | [`RaccError`] / [`Error`] | the unified error type |
/// | [`TimelineSnapshot`] | modeled-clock counters |
/// | `TraceRecorder`, `Span` | span recording ([`ContextBuilder::trace`]) |
///
/// [`builder`]: crate::builder
/// [`default_context`]: crate::default_context
/// [`context_for`]: crate::context_for
/// [`available_backends`]: crate::available_backends
/// [`Error`]: crate::Error
pub mod prelude {
    pub use racc_core::{
        Array1, Array2, Array3, Backend, Context, KernelProfile, Max, Min, Prod, RaccError,
        ReduceOp, RuntimeStats, SerialBackend, Sum, ThreadsBackend, TimelineSnapshot,
    };

    pub use crate::{
        available_backends, builder, context_for, default_context, AnyBackend, ContextBuilder, Ctx,
        Error, FaultPlan, RetryPolicy,
    };

    pub use racc_fuse::{lit, load, Expr, Lazy, LazyExt, ReduceKind};
    pub use racc_prim::{PrimError, PrimExt, SortKey};

    pub use racc_core::trace::{Span, TraceRecorder};
}

/// Environment variable overriding the preferred backend key.
pub const BACKEND_ENV: &str = "RACC_BACKEND";

/// The runtime-selected backend: enum dispatch over every compiled-in
/// back end (the generic [`Backend`] methods stay monomorphized; only one
/// `match` separates the front end from the chosen implementation).
pub enum AnyBackend {
    /// Single-core reference backend.
    Serial(SerialBackend),
    /// `Base.Threads`-analog CPU backend (the default).
    Threads(ThreadsBackend),
    /// Simulated GPU back end of whichever vendor the key named: `cudasim`,
    /// `hipsim` and `oneapisim` differ in the [`Vendor`] the value carries,
    /// not in type, so a kernel closure is instantiated once for all three.
    #[cfg(any(
        feature = "backend-cuda",
        feature = "backend-hip",
        feature = "backend-oneapi"
    ))]
    Sim(SimBackend),
}

macro_rules! dispatch {
    ($self:expr, $b:ident => $e:expr) => {
        match $self {
            AnyBackend::Serial($b) => $e,
            AnyBackend::Threads($b) => $e,
            #[cfg(any(
                feature = "backend-cuda",
                feature = "backend-hip",
                feature = "backend-oneapi"
            ))]
            AnyBackend::Sim($b) => $e,
        }
    };
}

impl Backend for AnyBackend {
    fn name(&self) -> String {
        dispatch!(self, b => b.name())
    }
    fn key(&self) -> &'static str {
        dispatch!(self, b => b.key())
    }
    fn is_accelerator(&self) -> bool {
        dispatch!(self, b => b.is_accelerator())
    }
    fn timeline(&self) -> &Timeline {
        dispatch!(self, b => b.timeline())
    }
    fn instrument(&self) -> &dyn Instrument {
        dispatch!(self, b => b.instrument())
    }
    fn on_alloc(&self, bytes: usize, upload: bool) -> Result<DeviceToken, RaccError> {
        dispatch!(self, b => b.on_alloc(bytes, upload))
    }
    fn on_download(&self, bytes: usize) {
        dispatch!(self, b => b.on_download(bytes))
    }
    #[inline(always)]
    fn parallel_for<F>(&self, extent: Extent, p: &KernelProfile, f: F)
    where
        F: Fn(usize, usize, usize) + Sync,
    {
        dispatch!(self, b => b.parallel_for(extent, p, f))
    }
    #[inline(always)]
    fn parallel_reduce<T, F, O>(&self, extent: Extent, p: &KernelProfile, f: F, op: O) -> T
    where
        T: AccScalar,
        F: Fn(usize, usize, usize) -> T + Sync,
        O: ReduceOp<T>,
    {
        dispatch!(self, b => b.parallel_reduce(extent, p, f, op))
    }
}

impl PrimBackend for AnyBackend {
    fn prim_scan<T, F, W, O>(
        &self,
        n: usize,
        inclusive: bool,
        p: &KernelProfile,
        read: F,
        write: W,
        op: O,
    ) where
        T: AccScalar,
        F: Fn(usize) -> T + Sync,
        W: Fn(usize, T) + Sync,
        O: ReduceOp<T>,
    {
        dispatch!(self, b => b.prim_scan(n, inclusive, p, read, write, op))
    }
    fn prim_histogram<F, W>(&self, n: usize, bins: usize, p: &KernelProfile, key: F, write: W)
    where
        F: Fn(usize) -> usize + Sync,
        W: Fn(usize, u64) + Sync,
    {
        dispatch!(self, b => b.prim_histogram(n, bins, p, key, write))
    }
    fn prim_sort_pairs<F, W>(&self, n: usize, key_bits: u32, p: &KernelProfile, key: F, write: W)
    where
        F: Fn(usize) -> u64 + Sync,
        W: Fn(usize, usize) + Sync,
    {
        dispatch!(self, b => b.prim_sort_pairs(n, key_bits, p, key, write))
    }
}

/// The runtime-selected context type.
pub type Ctx = Context<AnyBackend>;

/// What a backend key constructs.
#[derive(Clone, Copy)]
enum BackendKind {
    Serial,
    Threads,
    #[cfg(any(
        feature = "backend-cuda",
        feature = "backend-hip",
        feature = "backend-oneapi"
    ))]
    Sim(&'static Vendor),
}

/// One row of the backend table.
struct BackendEntry {
    /// The canonical key ([`Backend::key`] of what it builds).
    key: &'static str,
    /// Other accepted spellings.
    aliases: &'static [&'static str],
    kind: BackendKind,
}

/// Every back end compiled into this build — the one place a key is
/// mapped to an implementation.
const BACKENDS: &[BackendEntry] = &[
    BackendEntry {
        key: "serial",
        aliases: &[],
        kind: BackendKind::Serial,
    },
    BackendEntry {
        key: "threads",
        aliases: &["cpu"],
        kind: BackendKind::Threads,
    },
    #[cfg(feature = "backend-cuda")]
    BackendEntry {
        key: CUDA.key,
        aliases: &["cuda", "nvidia"],
        kind: BackendKind::Sim(&CUDA),
    },
    #[cfg(feature = "backend-hip")]
    BackendEntry {
        key: HIP.key,
        aliases: &["hip", "amdgpu", "amd"],
        kind: BackendKind::Sim(&HIP),
    },
    #[cfg(feature = "backend-oneapi")]
    BackendEntry {
        key: ONEAPI.key,
        aliases: &["oneapi", "intel"],
        kind: BackendKind::Sim(&ONEAPI),
    },
];

/// Look a key or alias up in the table, ignoring ASCII case. Builds
/// nothing: validating a key costs a string comparison per row.
fn resolve(key: &str) -> Result<&'static BackendEntry, RaccError> {
    BACKENDS
        .iter()
        .find(|entry| {
            std::iter::once(&entry.key)
                .chain(entry.aliases)
                .any(|known| known.eq_ignore_ascii_case(key))
        })
        .ok_or_else(|| RaccError::BackendUnavailable(key.to_ascii_lowercase()))
}

/// Keys of all back ends compiled into this build.
pub fn available_backends() -> Vec<&'static str> {
    BACKENDS.iter().map(|entry| entry.key).collect()
}

/// Build a context for the given backend key. Vendor aliases are accepted
/// (`cuda`/`nvidia` → `cudasim`, `hip`/`amdgpu` → `hipsim`,
/// `oneapi`/`intel` → `oneapisim`). Shorthand for
/// [`builder()`]`.backend(key).build()`.
pub fn context_for(key: &str) -> Result<Ctx, RaccError> {
    builder().backend(key).build()
}

/// Start building a runtime-selected context. See [`ContextBuilder`].
pub fn builder() -> ContextBuilder {
    ContextBuilder::new()
}

/// The primary way to construct a [`Ctx`]: backend key, optional knobs,
/// one fallible [`build`](ContextBuilder::build).
///
/// ```
/// let ctx = racc::builder()
///     .backend("threads")
///     .threads(2)
///     .build()
///     .unwrap();
/// assert_eq!(ctx.key(), "threads");
/// ```
///
/// Without [`backend`](ContextBuilder::backend) the key is resolved the
/// same way as [`default_context`]: `RACC_BACKEND`, then
/// `RaccPreferences.toml`, then `"threads"` — but unlike
/// [`default_context`] an unavailable key is an error, not a fallback.
///
/// Knobs that do not apply to the selected backend
/// ([`threads`](ContextBuilder::threads) off the CPU,
/// [`device`](ContextBuilder::device) off the simulators) fail `build`
/// with [`RaccError::InvalidConfig`] rather than being silently ignored.
#[derive(Default)]
pub struct ContextBuilder {
    key: Option<String>,
    threads: Option<usize>,
    #[cfg(any(
        feature = "backend-cuda",
        feature = "backend-hip",
        feature = "backend-oneapi"
    ))]
    device: Option<std::sync::Arc<racc_gpusim::Device>>,
    /// The knobs `racc_core::ContextBuilder` owns, handed over whole.
    options: racc_core::ContextOptions,
    fallback: bool,
}

impl ContextBuilder {
    /// Start from defaults: preference-selected backend, no tracing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the backend by key (same keys and vendor aliases as
    /// [`context_for`]).
    pub fn backend(mut self, key: impl Into<String>) -> Self {
        self.key = Some(key.into());
        self
    }

    /// Worker count for the `threads` backend. Selecting any other
    /// backend alongside this makes `build` fail.
    pub fn threads(mut self, workers: usize) -> Self {
        self.threads = Some(workers);
        self
    }

    /// Override the simulated device profile for a GPU backend (e.g. a
    /// custom `racc_gpusim::Device` instead of the stock A100/MI100/Max
    /// 1550). Selecting a CPU backend alongside this makes `build` fail.
    #[cfg(any(
        feature = "backend-cuda",
        feature = "backend-hip",
        feature = "backend-oneapi"
    ))]
    pub fn device(mut self, device: std::sync::Arc<racc_gpusim::Device>) -> Self {
        self.device = Some(device);
        self
    }

    /// Record one span per construct into a `TraceRecorder`, retrievable
    /// via `Context::tracer()` / `Context::trace_spans()`. Off by default;
    /// while off, each construct pays one load and a branch for it.
    pub fn trace(mut self, enabled: bool) -> Self {
        self.options.trace = enabled;
        self
    }

    /// Ring-buffer capacity (in spans) for tracing; rounded up to a power
    /// of two. Implies nothing unless [`trace`](Self::trace) is on.
    pub fn trace_capacity(mut self, spans: usize) -> Self {
        self.options.trace_capacity = Some(spans);
        self
    }

    /// Toggle the backend's dynamic sanitizer (`simsan`): out-of-bounds,
    /// use-after-free, write-write and read-write race, barrier-divergence,
    /// and leak checking. On the CPU back ends it is the process-global
    /// race checker of `racc_core::racecheck`, and takes effect only with
    /// the `racecheck` feature.
    pub fn sanitizer(mut self, enabled: bool) -> Self {
        self.options.sanitizer = Some(enabled);
        self
    }

    /// Toggle kernel fusion for libraries that consult the context's
    /// fusion knob (the CG solver, whose fused iteration runs `racc-blas`'
    /// fused chains). Off by default. Fused execution is bit-identical to
    /// eager; the knob only changes how many constructs are launched. See
    /// [`fuse`] for the expression-graph engine itself.
    pub fn fusion(mut self, enabled: bool) -> Self {
        self.options.fusion = enabled;
        self
    }

    /// Arm deterministic fault injection (`racc-chaos`) on the selected
    /// backend: a seeded plan ([`FaultPlan::seeded`]) or an explicit
    /// script (`FaultPlan::parse("alloc:nth-3;h2d:every-100")`). Only the
    /// simulated GPU back ends have a driver surface to fault; on CPU
    /// back ends the plan is ignored.
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.options.chaos = Some(plan);
        self
    }

    /// Retry policy for transient device faults (injected faults,
    /// simulated out-of-memory): bounded attempts with exponential
    /// modeled backoff. Defaults to [`RetryPolicy::none`].
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.options.retry = Some(policy);
        self
    }

    /// Graceful degradation: before handing back an accelerator context,
    /// probe the backend with a tiny alloc + launch + readback round trip
    /// (run through the active fault schedule and retry policy). If the
    /// probe fails, fall back to the always-available `threads` backend
    /// instead of failing every construct later; the observed faults and
    /// a `fallback` marker are recorded as [`trace`] spans (kind
    /// `Fault`) in the replacement context, plus a diagnostic on stderr.
    pub fn fallback(mut self, enabled: bool) -> Self {
        self.fallback = enabled;
        self
    }

    /// Resolve the key, construct the backend, and build the context.
    pub fn build(self) -> Result<Ctx, RaccError> {
        let backend = self.construct()?;
        let (backend, degraded) = self.probe_or_fall_back(backend);
        let ctx = self.options.build(backend);
        if let Some(faults) = degraded {
            report_degradation(&ctx, &faults);
        }
        Ok(ctx)
    }

    /// Resolve the key and construct the backend value it names, rejecting
    /// knobs that do not apply to it.
    fn construct(&self) -> Result<AnyBackend, RaccError> {
        let entry = match &self.key {
            Some(key) => resolve(key)?,
            None => resolve(&preferred_backend_key())?,
        };
        if self.threads.is_some() && !matches!(entry.kind, BackendKind::Threads) {
            return Err(RaccError::InvalidConfig(format!(
                "thread count only applies to the \"threads\" backend, not {:?}",
                entry.key
            )));
        }
        #[cfg(any(
            feature = "backend-cuda",
            feature = "backend-hip",
            feature = "backend-oneapi"
        ))]
        if self.device.is_some() && !matches!(entry.kind, BackendKind::Sim(_)) {
            return Err(RaccError::InvalidConfig(format!(
                "device profile override only applies to simulated GPU back ends, not {:?}",
                entry.key
            )));
        }
        Ok(match entry.kind {
            BackendKind::Serial => AnyBackend::Serial(SerialBackend::new()),
            BackendKind::Threads => AnyBackend::Threads(match self.threads {
                Some(n) => ThreadsBackend::with_threads(n),
                None => ThreadsBackend::new(),
            }),
            #[cfg(any(
                feature = "backend-cuda",
                feature = "backend-hip",
                feature = "backend-oneapi"
            ))]
            BackendKind::Sim(vendor) => AnyBackend::Sim(match &self.device {
                Some(device) => SimBackend::new(device.clone(), vendor),
                None => SimBackend::stock(vendor),
            }),
        })
    }

    /// The graceful-degradation probe. Does nothing unless
    /// [`fallback`](Self::fallback) was requested and the selected
    /// backend is an accelerator. Arms the same fault schedule the final
    /// context will run under so the probe exercises the real fault
    /// path; on probe failure returns the `threads` backend plus the
    /// faults observed during the probe.
    fn probe_or_fall_back(&self, backend: AnyBackend) -> (AnyBackend, Option<Vec<FaultEvent>>) {
        if !self.fallback || !backend.is_accelerator() {
            return (backend, None);
        }
        let hooks = backend.instrument();
        if let Some(plan) = self.options.chaos.clone() {
            if hooks.set_chaos(plan) {
                hooks.set_retry(self.options.retry.unwrap_or_default());
            }
        }
        match hooks.self_check() {
            Ok(()) => (backend, None),
            Err(err) => {
                let faults = hooks.fault_log();
                eprintln!(
                    "racc: backend {:?} failed its self-check ({err}); falling back to \
                     \"threads\" after {} injected fault(s)",
                    backend.key(),
                    faults.len()
                );
                (AnyBackend::Threads(ThreadsBackend::new()), Some(faults))
            }
        }
    }
}

/// Surface a fallback decision inside the replacement context's trace:
/// one `Fault` span per fault observed during the failed probe, then a
/// `fallback` marker span (all with zero modeled time, so timeline/span
/// reconciliation is unaffected). On a context built without tracing the
/// stderr diagnostic printed by the probe is the only report.
fn report_degradation(ctx: &Ctx, faults: &[FaultEvent]) {
    if let Some(rec) = ctx.tracer() {
        for ev in faults {
            rec.record(
                trace::Span::new(ctx.key(), trace::ConstructKind::Fault, ev.site.label()).dims(
                    ev.occurrence,
                    0,
                    0,
                ),
            );
        }
        rec.record(trace::Span::new(
            ctx.key(),
            trace::ConstructKind::Fault,
            "fallback",
        ));
    }
}

/// Build a backend value for the given key.
pub fn backend_for(key: &str) -> Result<AnyBackend, RaccError> {
    builder().backend(key).construct()
}

/// Resolve the preferred backend key without building it: `RACC_BACKEND`
/// env var, then the `[racc] backend` preference in `RaccPreferences.toml`
/// (current directory), then `"threads"` — mirroring JACC's
/// `Preferences.jl` selection with `Base.Threads` as the default back end.
pub fn preferred_backend_key() -> String {
    if let Ok(key) = std::env::var(BACKEND_ENV) {
        if !key.trim().is_empty() {
            return key.trim().to_owned();
        }
    }
    if let Ok(prefs) = Preferences::load(PREFS_FILE_NAME) {
        if let Some(key) = prefs.get_str("racc", "backend") {
            return key.to_owned();
        }
    }
    "threads".to_owned()
}

/// Build the preference-selected context. Falls back to `threads` (with a
/// diagnostic on stderr) when the preferred key is not compiled in.
pub fn default_context() -> Ctx {
    let key = preferred_backend_key();
    match builder().backend(key.as_str()).build() {
        Ok(ctx) => ctx,
        Err(_) => {
            eprintln!("racc: backend {key:?} unavailable, falling back to \"threads\"");
            context_for("threads").expect("threads backend always available")
        }
    }
}

/// The process-wide shared context (lazy; selected once from preferences).
/// Prefer explicit [`context_for`] contexts in libraries.
pub fn global() -> &'static Ctx {
    static GLOBAL: OnceLock<Ctx> = OnceLock::new();
    GLOBAL.get_or_init(default_context)
}

/// Persist a backend preference to `RaccPreferences.toml` in `dir` — the
/// analog of `Preferences.set_preferences!(JACC, "backend" => ...)`.
pub fn set_preferred_backend(dir: impl AsRef<std::path::Path>, key: &str) -> Result<(), RaccError> {
    // Validate before persisting so a typo fails loudly now, not at startup.
    resolve(key)?;
    let mut prefs =
        Preferences::load_dir(dir.as_ref()).map_err(|e| RaccError::InvalidConfig(e.to_string()))?;
    prefs.set("racc", "backend", key);
    prefs
        .save()
        .map_err(|e| RaccError::InvalidConfig(e.to_string()))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_compiled_backends_construct() {
        for key in available_backends() {
            let ctx = context_for(key).unwrap();
            assert_eq!(ctx.key(), key);
        }
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!(context_for("cpu").unwrap().key(), "threads");
        #[cfg(feature = "backend-cuda")]
        assert_eq!(context_for("CUDA").unwrap().key(), "cudasim");
        #[cfg(feature = "backend-hip")]
        assert_eq!(context_for("amdgpu").unwrap().key(), "hipsim");
        #[cfg(feature = "backend-oneapi")]
        assert_eq!(context_for("intel").unwrap().key(), "oneapisim");
    }

    #[test]
    fn every_alias_in_the_table_resolves_to_its_canonical_key() {
        // The spellings the docs promise, in table order.
        let promised: &[(&str, &[&str])] = &[
            ("serial", &[]),
            ("threads", &["cpu"]),
            #[cfg(feature = "backend-cuda")]
            ("cudasim", &["cuda", "nvidia"]),
            #[cfg(feature = "backend-hip")]
            ("hipsim", &["hip", "amdgpu", "amd"]),
            #[cfg(feature = "backend-oneapi")]
            ("oneapisim", &["oneapi", "intel"]),
        ];
        assert_eq!(BACKENDS.len(), promised.len());
        for (entry, (key, aliases)) in BACKENDS.iter().zip(promised) {
            assert_eq!((entry.key, entry.aliases), (*key, *aliases));
            for spelling in std::iter::once(key).chain(*aliases) {
                let mixed: String = spelling
                    .chars()
                    .enumerate()
                    .map(|(i, c)| {
                        if i % 2 == 0 {
                            c.to_ascii_uppercase()
                        } else {
                            c
                        }
                    })
                    .collect();
                for typed in [spelling.to_string(), spelling.to_ascii_uppercase(), mixed] {
                    assert_eq!(resolve(&typed).map(|e| e.key).ok(), Some(*key), "{typed}");
                }
            }
        }
    }

    #[test]
    fn unknown_backend_is_an_error() {
        assert!(matches!(
            context_for("fpga"),
            Err(RaccError::BackendUnavailable(_))
        ));
        // Resolution alone says so too, and names the key as typed, lowercased.
        match resolve("Quantum") {
            Err(RaccError::BackendUnavailable(key)) => assert_eq!(key, "quantum"),
            _ => panic!("\"Quantum\" is no backend"),
        }
        assert!(matches!(
            backend_for("quantum"),
            Err(RaccError::BackendUnavailable(_))
        ));
    }

    #[test]
    fn same_code_every_backend() {
        // The portability claim in miniature: identical closure, all
        // back ends, identical results.
        let n = 4096usize;
        let mut results = Vec::new();
        for key in available_backends() {
            let ctx = context_for(key).unwrap();
            let x = ctx.array_from_fn(n, |i| (i % 17) as f64).unwrap();
            let y = ctx.array_from_fn(n, |i| ((i + 3) % 13) as f64).unwrap();
            let (xv, yv) = (x.view_mut(), y.view());
            ctx.parallel_for(n, &KernelProfile::axpy(), move |i| {
                xv.set(i, xv.get(i) + 2.5 * yv.get(i));
            });
            let (xv, yv) = (x.view(), y.view());
            let dot: f64 =
                ctx.parallel_reduce(n, &KernelProfile::dot(), move |i| xv.get(i) * yv.get(i));
            results.push((key, dot));
        }
        let first = results[0].1;
        for (key, dot) in &results {
            assert!(
                (dot - first).abs() < 1e-9 * first.abs(),
                "{key}: {dot} vs {first}"
            );
        }
    }

    /// Which hooks each key supports, checked through the enum: a hook that
    /// `AnyBackend` failed to forward would read as unsupported here.
    #[test]
    fn every_hook_reaches_every_backend_that_supports_it() {
        for key in available_backends() {
            let sim = !matches!(key, "serial" | "threads");
            let mut b = builder()
                .backend(key)
                // Off on the CPU: there it is the process-global race checker.
                .sanitizer(sim)
                .chaos(FaultPlan::parse("launch:nth-1").unwrap())
                .retry(RetryPolicy::default())
                .trace(true);
            if key == "threads" {
                b = b.threads(4);
            }
            let ctx = b.build().unwrap();
            ctx.parallel_for(4096, &KernelProfile::axpy(), |_| {});

            let stats = ctx.stats();
            assert_eq!(stats.sanitizer.is_some(), sim, "{key}: sanitizer report");
            assert_eq!(!ctx.fault_log().is_empty(), sim, "{key}: fault log");
            assert_eq!(stats.faults.injected > 0, sim, "{key}: fault stats");
            assert_eq!(stats.steal.is_some(), key != "serial", "{key}: steal stats");
            // The pool below `threads` received the recorder.
            assert_eq!(
                ctx.trace_spans()
                    .iter()
                    .any(|s| s.kind == trace::ConstructKind::WorkerChunk),
                key == "threads",
                "{key}: worker-chunk spans"
            );
        }
    }

    #[test]
    fn fusion_knob_and_prelude_wire_through() {
        use crate::prelude::{load, LazyExt};

        let ctx = builder().backend("serial").fusion(true).build().unwrap();
        assert!(ctx.fusion_enabled());
        let ctx = builder().backend("serial").fusion(false).build().unwrap();
        assert!(!ctx.fusion_enabled());

        // The expression engine works through the enum-dispatched Ctx.
        let x = ctx.array_from_fn(64, |i| i as f64).unwrap();
        let y = ctx.array_from_fn(64, |i| (i % 5) as f64).unwrap();
        let mut l = ctx.lazy();
        let xv = l.assign(&x, load(&x) + 2.0 * load(&y));
        let dot = l.sum(xv * load(&y));
        assert_eq!(l.count_launches(), 1);
        let want: f64 = (0..64)
            .map(|i| (i as f64 + 2.0 * (i % 5) as f64) * (i % 5) as f64)
            .sum();
        assert_eq!(dot, want);

        // The chain went through the compiled-plan path, and `stats()`
        // reports it through the enum-dispatched context too.
        let stats = ctx.stats();
        assert_eq!(stats.plan_cache.misses, 1, "{stats}");
    }

    #[test]
    fn global_context_is_singleton() {
        let a = global() as *const _;
        let b = global() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn preference_file_round_trip() {
        let dir = std::env::temp_dir().join(format!("racc-root-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        set_preferred_backend(&dir, "serial").unwrap();
        let prefs = Preferences::load_dir(&dir).unwrap();
        assert_eq!(prefs.get_str("racc", "backend"), Some("serial"));
        // invalid key refuses to persist
        assert!(matches!(
            set_preferred_backend(&dir, "quantum"),
            Err(RaccError::BackendUnavailable(_))
        ));
        let prefs = Preferences::load_dir(&dir).unwrap();
        assert_eq!(prefs.get_str("racc", "backend"), Some("serial"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
