//! The front-end context: array creation + the two constructs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::array::{Array1, Array2, Array3};
use crate::backend::{Backend, DeviceToken, Extent};
use crate::buffer::RawStorage;
use crate::error::RaccError;
use crate::profile::KernelProfile;
use crate::scalar::{AccScalar, Numeric, ReduceOp, Sum};
use crate::stats::{
    fold_faults, snapshot_plan_cache, snapshot_prim, snapshot_serve, snapshot_shard, PlanCacheSlot,
    PrimCounters, RuntimeStats, ServeCounters, ShardCounters,
};
use crate::timeline::TimelineSnapshot;

static NEXT_CTX_ID: AtomicU64 = AtomicU64::new(1);

/// Element count of an array of shape `dims`; a product that does not fit
/// a `usize` is an allocation nobody can serve, not a number to wrap.
fn shape_len(dims: &[usize]) -> Result<usize, RaccError> {
    dims.iter()
        .try_fold(1usize, |len, &d| len.checked_mul(d))
        .ok_or_else(|| RaccError::Allocation(format!("shape {dims:?} overflows the address space")))
}

/// A RACC context: one backend plus the front-end API. The JACC analog is
/// the module-level `JACC.*` API after a back end has been selected through
/// preferences; RACC makes the selection explicit and value-like so several
/// backends can coexist in one process (how the benchmark harness sweeps
/// the four architectures).
pub struct Context<B: Backend> {
    backend: B,
    id: u64,
    /// Whether higher layers (`racc-fuse`, `racc-blas`, the CG solver)
    /// should take their fused fast paths. Purely advisory: the core
    /// constructs behave identically either way.
    fusion: bool,
    /// Home of the fused-plan cache: counters and the type-erased
    /// cell `racc-fuse` parks its cache in (see [`crate::stats`]).
    plan_cache: PlanCacheSlot,
    /// Counters the sharded multi-device runner (`racc-shard`) bumps when
    /// it drives this context; all zero (and hidden from `stats()`)
    /// otherwise.
    shard: std::sync::Arc<ShardCounters>,
    /// Counters the multi-tenant serving layer (`racc-serve`) bumps when
    /// this context is a member of a server's device pool; all zero (and
    /// hidden from `stats()`) otherwise.
    serve: std::sync::Arc<ServeCounters>,
    /// Counters the device-primitives layer (`racc-prim`) bumps when its
    /// scans/histograms/sorts run on this context; all zero (and hidden
    /// from `stats()`) otherwise.
    prim: std::sync::Arc<PrimCounters>,
}

impl<B: Backend> std::fmt::Debug for Context<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("id", &self.id)
            .field("backend", &self.backend.name())
            .finish()
    }
}

impl<B: Backend> Context<B> {
    /// Wrap a backend in a context (no tracing, no sanitizer changes). Use
    /// [`Context::builder`] to configure observability at construction.
    pub fn new(backend: B) -> Self {
        Context {
            backend,
            id: NEXT_CTX_ID.fetch_add(1, Ordering::Relaxed),
            fusion: false,
            plan_cache: PlanCacheSlot::default(),
            shard: std::sync::Arc::new(ShardCounters::default()),
            serve: std::sync::Arc::new(ServeCounters::default()),
            prim: std::sync::Arc::new(PrimCounters::default()),
        }
    }

    /// Start building a context over `backend` with explicit observability
    /// options — the main construction path:
    ///
    /// ```
    /// use racc_core::{Context, SerialBackend};
    ///
    /// let ctx = Context::builder(SerialBackend::new()).build();
    /// assert_eq!(ctx.key(), "serial");
    /// ```
    pub fn builder(backend: B) -> ContextBuilder<B> {
        ContextBuilder::new(backend)
    }

    /// The unique id of this context (arrays remember it).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The underlying backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Human-readable backend name.
    pub fn name(&self) -> String {
        self.backend.name()
    }

    /// Backend key (`"serial"`, `"threads"`, `"cudasim"`, ...).
    pub fn key(&self) -> &'static str {
        self.backend.key()
    }

    /// True when the backend models a discrete accelerator.
    pub fn is_accelerator(&self) -> bool {
        self.backend.is_accelerator()
    }

    // ------------------------------------------------------------------
    // Memory: the JACC.Array analog
    // ------------------------------------------------------------------

    /// `JACC.Array(host_vector)`: create a 1D array from host data
    /// (modeling the host-to-device transfer on accelerator back ends).
    pub fn array_from<T: AccScalar>(&self, data: &[T]) -> Result<Array1<T>, RaccError> {
        let (storage, token) = self.upload(RawStorage::from_slice(data)?)?;
        Ok(Array1::new(storage, token, self.id))
    }

    /// A zero-initialized 1D array of `n` elements.
    pub fn zeros<T: AccScalar>(&self, n: usize) -> Result<Array1<T>, RaccError> {
        let (storage, token) = self.zeroed_storage(&[n])?;
        Ok(Array1::new(storage, token, self.id))
    }

    /// A 1D array built from a function of the index, called once per
    /// index in ascending order. Charged as an upload, like
    /// [`Context::array_from`]; the elements are written straight into the
    /// array, with no host copy.
    pub fn array_from_fn<T: AccScalar>(
        &self,
        n: usize,
        f: impl FnMut(usize) -> T,
    ) -> Result<Array1<T>, RaccError> {
        let (storage, token) = self.upload(RawStorage::from_fn(n, f)?)?;
        Ok(Array1::new(storage, token, self.id))
    }

    /// `JACC.Array(host_matrix)`: create an `m × n` column-major 2D array
    /// from host data laid out column-major.
    pub fn array2_from<T: AccScalar>(
        &self,
        m: usize,
        n: usize,
        data: &[T],
    ) -> Result<Array2<T>, RaccError> {
        if shape_len(&[m, n]).ok() != Some(data.len()) {
            return Err(RaccError::ShapeMismatch(format!(
                "{} elements for a {m} x {n} array",
                data.len()
            )));
        }
        let (storage, token) = self.upload(RawStorage::from_slice(data)?)?;
        Ok(Array2::new(storage, token, self.id, m, n))
    }

    /// A zero-initialized `m × n` 2D array.
    pub fn zeros2<T: AccScalar>(&self, m: usize, n: usize) -> Result<Array2<T>, RaccError> {
        let (storage, token) = self.zeroed_storage(&[m, n])?;
        Ok(Array2::new(storage, token, self.id, m, n))
    }

    /// A 2D array built from a function of `(i, j)`, called once per
    /// element in column-major order and written straight into the array
    /// (charged as an upload, like [`Context::array2_from`]).
    pub fn array2_from_fn<T: AccScalar>(
        &self,
        m: usize,
        n: usize,
        mut f: impl FnMut(usize, usize) -> T,
    ) -> Result<Array2<T>, RaccError> {
        // `m > 0` whenever the closure runs.
        let storage = RawStorage::from_fn(shape_len(&[m, n])?, |at| f(at % m, at / m))?;
        let (storage, token) = self.upload(storage)?;
        Ok(Array2::new(storage, token, self.id, m, n))
    }

    /// A 3D `m × n × l` column-major array from host data.
    pub fn array3_from<T: AccScalar>(
        &self,
        m: usize,
        n: usize,
        l: usize,
        data: &[T],
    ) -> Result<Array3<T>, RaccError> {
        if shape_len(&[m, n, l]).ok() != Some(data.len()) {
            return Err(RaccError::ShapeMismatch(format!(
                "{} elements for a {m} x {n} x {l} array",
                data.len()
            )));
        }
        let (storage, token) = self.upload(RawStorage::from_slice(data)?)?;
        Ok(Array3::new(storage, token, self.id, m, n, l))
    }

    /// A zero-initialized 3D array.
    pub fn zeros3<T: AccScalar>(
        &self,
        m: usize,
        n: usize,
        l: usize,
    ) -> Result<Array3<T>, RaccError> {
        let (storage, token) = self.zeroed_storage(&[m, n, l])?;
        Ok(Array3::new(storage, token, self.id, m, n, l))
    }

    /// Zeroed storage for an array of shape `dims`, and the back end's
    /// token for it.
    fn zeroed_storage<T: AccScalar>(
        &self,
        dims: &[usize],
    ) -> Result<(RawStorage<T>, DeviceToken), RaccError> {
        let storage = RawStorage::zeroed(shape_len(dims)?)?;
        let token = self.backend.on_alloc(storage.size_bytes(), false)?;
        Ok((storage, token))
    }

    /// `storage`, filled on the host, and the back end's token for it
    /// (charged as an upload of the whole array).
    fn upload<T: AccScalar>(
        &self,
        storage: RawStorage<T>,
    ) -> Result<(RawStorage<T>, DeviceToken), RaccError> {
        let token = self.backend.on_alloc(storage.size_bytes(), true)?;
        Ok((storage, token))
    }

    /// Copy a 1D array back to host memory (modeling the device-to-host
    /// transfer on accelerator back ends).
    pub fn to_host<T: AccScalar>(&self, arr: &Array1<T>) -> Result<Vec<T>, RaccError> {
        self.check_ctx(arr.ctx_id())?;
        self.backend.on_download(arr.size_bytes());
        Ok(arr.storage().to_vec())
    }

    /// Copy a 2D array back to host memory (column-major order).
    pub fn to_host2<T: AccScalar>(&self, arr: &Array2<T>) -> Result<Vec<T>, RaccError> {
        self.check_ctx(arr.ctx_id())?;
        self.backend.on_download(arr.size_bytes());
        Ok(arr.storage().to_vec())
    }

    /// Copy a 3D array back to host memory (column-major order).
    pub fn to_host3<T: AccScalar>(&self, arr: &Array3<T>) -> Result<Vec<T>, RaccError> {
        self.check_ctx(arr.ctx_id())?;
        self.backend.on_download(arr.size_bytes());
        Ok(arr.storage().to_vec())
    }

    /// Overwrite an array's contents from host data (counts as an upload on
    /// accelerator back ends).
    pub fn copy_to<T: AccScalar>(&self, arr: &Array1<T>, data: &[T]) -> Result<(), RaccError> {
        self.check_ctx(arr.ctx_id())?;
        if data.len() != arr.len() {
            return Err(RaccError::ShapeMismatch(format!(
                "{} elements into array of length {}",
                data.len(),
                arr.len()
            )));
        }
        let _ = self.backend.on_alloc(0, true); // charge the upload path
        arr.storage().copy_from_slice(data);
        Ok(())
    }

    /// Fill a 1D array with a constant (device-side, one `parallel_for`).
    pub fn fill<T: AccScalar>(&self, arr: &Array1<T>, value: T) -> Result<(), RaccError> {
        self.check_ctx(arr.ctx_id())?;
        let v = arr.view_mut();
        self.parallel_for(
            arr.len(),
            &KernelProfile::new("fill", 0.0, 0.0, 8.0),
            move |i| {
                v.set(i, value);
            },
        );
        Ok(())
    }

    /// Fill a 2D array with a constant.
    pub fn fill2<T: AccScalar>(&self, arr: &Array2<T>, value: T) -> Result<(), RaccError> {
        self.check_ctx(arr.ctx_id())?;
        let v = arr.view_mut();
        self.parallel_for_2d(
            arr.dims(),
            &KernelProfile::new("fill", 0.0, 0.0, 8.0),
            move |i, j| {
                v.set(i, j, value);
            },
        );
        Ok(())
    }

    /// Fill a 3D array with a constant.
    pub fn fill3<T: AccScalar>(&self, arr: &Array3<T>, value: T) -> Result<(), RaccError> {
        self.check_ctx(arr.ctx_id())?;
        let v = arr.view_mut();
        self.parallel_for_3d(
            arr.dims(),
            &KernelProfile::new("fill", 0.0, 0.0, 8.0),
            move |i, j, k| {
                v.set(i, j, k, value);
            },
        );
        Ok(())
    }

    /// Device-side copy of one array's contents into another (the `copy(r)`
    /// steps in the paper's CG listing).
    pub fn copy_array<T: AccScalar>(
        &self,
        src: &Array1<T>,
        dst: &Array1<T>,
    ) -> Result<(), RaccError> {
        self.check_ctx(src.ctx_id())?;
        self.check_ctx(dst.ctx_id())?;
        if src.len() != dst.len() {
            return Err(RaccError::ShapeMismatch(format!(
                "copy between arrays of length {} and {}",
                src.len(),
                dst.len()
            )));
        }
        let (s, d) = (src.view(), dst.view_mut());
        self.parallel_for(src.len(), &KernelProfile::copy(), move |i| {
            d.set(i, s.get(i));
        });
        Ok(())
    }

    fn check_ctx(&self, array_ctx: u64) -> Result<(), RaccError> {
        if array_ctx != self.id {
            return Err(RaccError::WrongContext {
                array_ctx,
                this_ctx: self.id,
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Compute: the two constructs
    // ------------------------------------------------------------------

    /// `JACC.parallel_for(n, f, args...)`: run `f(i)` for `i in 0..n`.
    /// Synchronous; `f` runs concurrently for different `i`.
    pub fn parallel_for<F>(&self, n: usize, profile: &KernelProfile, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.backend
            .parallel_for(Extent::d1(n), profile, move |i, _, _| f(i));
    }

    /// `JACC.parallel_for((m, n), f, args...)`.
    pub fn parallel_for_2d<F>(&self, (m, n): (usize, usize), profile: &KernelProfile, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        self.backend
            .parallel_for(Extent::d2(m, n), profile, move |i, j, _| f(i, j));
    }

    /// `JACC.parallel_for((m, n, l), f, args...)`.
    pub fn parallel_for_3d<F>(
        &self,
        (m, n, l): (usize, usize, usize),
        profile: &KernelProfile,
        f: F,
    ) where
        F: Fn(usize, usize, usize) + Sync,
    {
        self.backend.parallel_for(Extent::d3(m, n, l), profile, f);
    }

    /// `JACC.parallel_reduce(n, f, args...)`: sum `f(i)` over `i in 0..n`
    /// (JACC's reduction is a sum).
    pub fn parallel_reduce<T, F>(&self, n: usize, profile: &KernelProfile, f: F) -> T
    where
        T: Numeric,
        F: Fn(usize) -> T + Sync,
    {
        self.parallel_reduce_with(n, profile, Sum, f)
    }

    /// Reduction with an explicit operator ([`Sum`], [`crate::Max`], ...).
    pub fn parallel_reduce_with<T, F, O>(&self, n: usize, profile: &KernelProfile, op: O, f: F) -> T
    where
        T: AccScalar,
        F: Fn(usize) -> T + Sync,
        O: ReduceOp<T>,
    {
        self.backend
            .parallel_reduce(Extent::d1(n), profile, move |i, _, _| f(i), op)
    }

    /// `JACC.parallel_reduce((m, n), f, args...)`.
    pub fn parallel_reduce_2d<T, F>(
        &self,
        (m, n): (usize, usize),
        profile: &KernelProfile,
        f: F,
    ) -> T
    where
        T: Numeric,
        F: Fn(usize, usize) -> T + Sync,
    {
        self.parallel_reduce_2d_with((m, n), profile, Sum, f)
    }

    /// 2D reduction with an explicit operator.
    pub fn parallel_reduce_2d_with<T, F, O>(
        &self,
        (m, n): (usize, usize),
        profile: &KernelProfile,
        op: O,
        f: F,
    ) -> T
    where
        T: AccScalar,
        F: Fn(usize, usize) -> T + Sync,
        O: ReduceOp<T>,
    {
        self.backend
            .parallel_reduce(Extent::d2(m, n), profile, move |i, j, _| f(i, j), op)
    }

    /// 3D sum reduction.
    pub fn parallel_reduce_3d<T, F>(
        &self,
        (m, n, l): (usize, usize, usize),
        profile: &KernelProfile,
        f: F,
    ) -> T
    where
        T: Numeric,
        F: Fn(usize, usize, usize) -> T + Sync,
    {
        self.parallel_reduce_3d_with((m, n, l), profile, Sum, f)
    }

    /// 3D reduction with an explicit operator.
    pub fn parallel_reduce_3d_with<T, F, O>(
        &self,
        (m, n, l): (usize, usize, usize),
        profile: &KernelProfile,
        op: O,
        f: F,
    ) -> T
    where
        T: AccScalar,
        F: Fn(usize, usize, usize) -> T + Sync,
        O: ReduceOp<T>,
    {
        self.backend
            .parallel_reduce(Extent::d3(m, n, l), profile, f, op)
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Total modeled nanoseconds accumulated by this context's backend.
    pub fn modeled_ns(&self) -> u64 {
        self.backend.timeline().modeled_ns()
    }

    /// Full timeline snapshot.
    pub fn timeline(&self) -> TimelineSnapshot {
        self.backend.timeline().snapshot()
    }

    /// Reset the modeled clock (between benchmark series).
    pub fn reset_timeline(&self) {
        self.backend.timeline().reset();
    }

    /// The span recorder attached at build time, if any: the one installed
    /// in the backend's [`Timeline`](crate::Timeline).
    pub fn tracer(&self) -> Option<&Arc<racc_trace::TraceRecorder>> {
        self.backend.timeline().tracer()
    }

    /// All spans recorded so far (empty when no recorder is attached).
    pub fn trace_spans(&self) -> Vec<racc_trace::Span> {
        self.tracer().map(|r| r.spans()).unwrap_or_default()
    }

    /// Whether fused fast paths are requested for this context (set by
    /// [`ContextBuilder::fusion`]). Advisory: consulted by the CG solver;
    /// the core constructs never change behavior.
    pub fn fusion_enabled(&self) -> bool {
        self.fusion
    }

    /// Every fault injected on this context's backend so far, in injection
    /// order (see [`ContextBuilder::chaos`]). Empty when chaos is
    /// unsupported or disarmed.
    pub fn fault_log(&self) -> Vec<racc_chaos::FaultEvent> {
        self.backend.instrument().fault_log()
    }

    /// One uniform snapshot of this context's runtime machinery: fused
    /// plan-cache hits/misses/evictions, injected-fault counts from
    /// `racc-chaos`, the backend's sanitizer report, and the thread pool's
    /// work-stealing counters (when the backend runs on one). Replaces
    /// stitching `fault_log()` + `sanitizer_report()` + per-subsystem
    /// counters by hand.
    pub fn stats(&self) -> RuntimeStats {
        let hooks = self.backend.instrument();
        RuntimeStats {
            plan_cache: snapshot_plan_cache(&self.plan_cache),
            faults: fold_faults(&hooks.fault_log()),
            sanitizer: hooks.sanitizer_report(),
            steal: hooks.steal_stats(),
            shard: snapshot_shard(&self.shard),
            serve: snapshot_serve(&self.serve),
            prim: snapshot_prim(&self.prim),
        }
    }

    /// The shard-runner counters of this context. Public for `racc-shard`,
    /// which bumps them while driving the context as one device of a
    /// sharded run; application code wants [`Context::stats`] instead.
    #[doc(hidden)]
    pub fn shard_counters(&self) -> &std::sync::Arc<ShardCounters> {
        &self.shard
    }

    /// The serving-layer counters of this context. Public for
    /// `racc-serve`, which bumps them while dispatching jobs onto this
    /// context as one device of a server pool; application code wants
    /// [`Context::stats`] instead.
    #[doc(hidden)]
    pub fn serve_counters(&self) -> &std::sync::Arc<ServeCounters> {
        &self.serve
    }

    /// The device-primitive counters of this context. Public for
    /// `racc-prim`, which bumps them as its scans/histograms/sorts run;
    /// application code wants [`Context::stats`] instead.
    #[doc(hidden)]
    pub fn prim_counters(&self) -> &std::sync::Arc<PrimCounters> {
        &self.prim
    }

    /// The per-context home of the fused-plan cache. Public for the
    /// fusion layer (`racc-fuse`), which parks its cache here; application
    /// code wants [`Context::stats`] instead.
    #[doc(hidden)]
    pub fn plan_cache_slot(&self) -> &PlanCacheSlot {
        &self.plan_cache
    }
}

/// Everything [`ContextBuilder`] can set, as plain data: front ends that
/// choose the backend at run time (`racc::ContextBuilder`) collect these
/// before a backend exists and hand them over whole with
/// [`ContextOptions::build`]. A `None` leaves the backend's default in
/// place; see the builder method of the same name for what each field
/// does.
#[derive(Debug, Clone, Default)]
pub struct ContextOptions {
    /// [`ContextBuilder::trace`].
    pub trace: bool,
    /// [`ContextBuilder::trace_capacity`]; `None` is
    /// `racc_trace::DEFAULT_CAPACITY`.
    pub trace_capacity: Option<usize>,
    /// [`ContextBuilder::sanitizer`].
    pub sanitizer: Option<bool>,
    /// [`ContextBuilder::fusion`].
    pub fusion: bool,
    /// [`ContextBuilder::chaos`].
    pub chaos: Option<racc_chaos::FaultPlan>,
    /// [`ContextBuilder::retry`].
    pub retry: Option<racc_chaos::RetryPolicy>,
}

impl ContextOptions {
    /// Build a context over `backend`, applying the selected options.
    pub fn build<B: Backend>(self, backend: B) -> Context<B> {
        if let Some(enabled) = self.sanitizer {
            backend.instrument().set_sanitizer(enabled);
        }
        if let Some(plan) = self.chaos {
            backend.instrument().set_chaos(plan);
        }
        if let Some(policy) = self.retry {
            backend.instrument().set_retry(policy);
        }
        if self.trace {
            let capacity = self.trace_capacity.unwrap_or(racc_trace::DEFAULT_CAPACITY);
            let recorder = Arc::new(racc_trace::TraceRecorder::new(capacity));
            // One span per construct from the timeline, and whatever the
            // engines below the back end add (the pool's worker chunks).
            backend.instrument().attach_tracer(&recorder);
            backend.timeline().install_tracer(recorder);
        }
        let mut ctx = Context::new(backend);
        ctx.fusion = self.fusion;
        ctx
    }
}

/// Builder for a [`Context`] with construction-time observability options.
/// Obtained from [`Context::builder`]; `build()` is infallible. Every
/// option is a run-time choice: none depends on a cargo feature.
pub struct ContextBuilder<B: Backend> {
    backend: B,
    options: ContextOptions,
}

impl<B: Backend> ContextBuilder<B> {
    fn new(backend: B) -> Self {
        ContextBuilder {
            backend,
            options: ContextOptions::default(),
        }
    }

    /// Attach a span recorder to the backend so every construct deposits
    /// one `racc-trace` span. Off by default; while off, each construct
    /// pays one load and a branch for it.
    pub fn trace(mut self, enabled: bool) -> Self {
        self.options.trace = enabled;
        self
    }

    /// Ring capacity (spans retained) of the recorder created by
    /// [`ContextBuilder::trace`]. Implies nothing on its own; the default
    /// is `racc_trace::DEFAULT_CAPACITY`.
    pub fn trace_capacity(mut self, spans: usize) -> Self {
        self.options.trace_capacity = Some(spans);
        self
    }

    /// Switch the backend's dynamic sanitizer (`simsan`) on or off:
    /// out-of-bounds, use-after-free, read-write race, barrier-divergence,
    /// and leak checking. Leaving it unset keeps the backend's default
    /// (off on a fresh simulator device). A documented no-op on back ends
    /// without sanitizer support — see
    /// [`Instrument::set_sanitizer`](crate::Instrument::set_sanitizer).
    pub fn sanitizer(mut self, enabled: bool) -> Self {
        self.options.sanitizer = Some(enabled);
        self
    }

    /// Request (or veto) the fused fast paths of the expression layer
    /// (`racc-fuse`) and its users; off by default.
    pub fn fusion(mut self, enabled: bool) -> Self {
        self.options.fusion = enabled;
        self
    }

    /// Arm deterministic fault injection (`racc-chaos`) on the backend
    /// with `plan`: a fresh engine with a fresh fault log. It does **not**
    /// imply a retry policy — pair it with [`ContextBuilder::retry`] for
    /// recovery. A documented no-op on back ends without injection support — see
    /// [`Instrument::set_chaos`](crate::Instrument::set_chaos).
    pub fn chaos(mut self, plan: racc_chaos::FaultPlan) -> Self {
        self.options.chaos = Some(plan);
        self
    }

    /// Set the retry policy the backend applies to transient device faults
    /// (injected faults, out-of-memory): bounded attempts with exponential
    /// *modeled* backoff. Leaving it unset keeps the backend's default
    /// (no retries). No-op on back ends without retry support.
    pub fn retry(mut self, policy: racc_chaos::RetryPolicy) -> Self {
        self.options.retry = Some(policy);
        self
    }

    /// Build the context, applying the selected options.
    pub fn build(self) -> Context<B> {
        self.options.build(self.backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialBackend;
    use crate::threads::ThreadsBackend;
    use crate::Max;

    fn ctx() -> Context<ThreadsBackend> {
        Context::new(ThreadsBackend::with_threads(4))
    }

    #[test]
    fn axpy_and_dot_match_paper_frontend_shape() {
        // The paper's Fig. 2 example, sizes reduced.
        let ctx = ctx();
        let size = 10_000usize;
        let x: Vec<f64> = (0..size).map(|i| (i % 100) as f64).collect();
        let y: Vec<f64> = (0..size).map(|i| ((i + 1) % 100) as f64).collect();
        let alpha = 2.5f64;
        let dx = ctx.array_from(&x).unwrap();
        let dy = ctx.array_from(&y).unwrap();

        let (xv, yv) = (dx.view_mut(), dy.view());
        ctx.parallel_for(size, &KernelProfile::axpy(), move |i| {
            xv.set(i, xv.get(i) + alpha * yv.get(i));
        });
        let (xv, yv) = (dx.view(), dy.view());
        let res: f64 =
            ctx.parallel_reduce(size, &KernelProfile::dot(), move |i| xv.get(i) * yv.get(i));

        let mut expect_x = x.clone();
        for i in 0..size {
            expect_x[i] += alpha * y[i];
        }
        let expect: f64 = expect_x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((res - expect).abs() / expect.abs() < 1e-12);
        assert_eq!(ctx.to_host(&dx).unwrap(), expect_x);
    }

    #[test]
    fn multidimensional_frontend() {
        let ctx = ctx();
        let size = 64usize;
        let dx = ctx
            .array2_from_fn(size, size, |i, j| (i + j) as f64)
            .unwrap();
        let dy = ctx.array2_from_fn(size, size, |_, _| 1.0f64).unwrap();
        let alpha = 2.0f64;
        let (xv, yv) = (dx.view_mut(), dy.view());
        ctx.parallel_for_2d((size, size), &KernelProfile::axpy(), move |i, j| {
            xv.set(i, j, xv.get(i, j) + alpha * yv.get(i, j));
        });
        let (xv, yv) = (dx.view(), dy.view());
        let res: f64 = ctx.parallel_reduce_2d((size, size), &KernelProfile::dot(), move |i, j| {
            xv.get(i, j) * yv.get(i, j)
        });
        let expect: f64 = (0..size)
            .flat_map(|j| (0..size).map(move |i| (i + j) as f64 + 2.0))
            .sum();
        assert!((res - expect).abs() < 1e-9);
    }

    #[test]
    fn from_fn_arrays_are_built_in_storage_order() {
        let ctx = ctx();
        let mut calls = Vec::new();
        let a = ctx
            .array2_from_fn(3, 2, |i, j| {
                calls.push((i, j));
                (10 * i + j) as f64
            })
            .unwrap();
        assert_eq!(calls, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]);
        assert_eq!(
            ctx.to_host2(&a).unwrap(),
            [0.0, 10.0, 20.0, 1.0, 11.0, 21.0]
        );
        assert_eq!(a.view().get(2, 1), 21.0);
        let b = ctx.array_from_fn(5, |i| (i * i) as u32).unwrap();
        assert_eq!(ctx.to_host(&b).unwrap(), [0, 1, 4, 9, 16]);
        assert!(ctx
            .array2_from_fn(0, 4, |_, _| -> f64 { unreachable!() })
            .is_ok());
    }

    #[test]
    fn three_d_constructs() {
        let ctx = ctx();
        let dims = (8usize, 9usize, 10usize);
        let a = ctx.zeros3::<f64>(dims.0, dims.1, dims.2).unwrap();
        let av = a.view_mut();
        ctx.parallel_for_3d(dims, &KernelProfile::unknown(), move |i, j, k| {
            av.set(i, j, k, (i + j + k) as f64);
        });
        let av = a.view();
        let total: f64 = ctx.parallel_reduce_3d(dims, &KernelProfile::unknown(), move |i, j, k| {
            av.get(i, j, k)
        });
        let expect: f64 = (0..10)
            .flat_map(|k| (0..9).flat_map(move |j| (0..8).map(move |i| (i + j + k) as f64)))
            .sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn reduce_3d_with_custom_op() {
        let ctx = ctx();
        let m: i64 =
            ctx.parallel_reduce_3d_with((4, 5, 6), &KernelProfile::unknown(), Max, |i, j, k| {
                (i * j * k) as i64
            });
        assert_eq!(m, (3 * 4 * 5) as i64);
    }

    #[test]
    fn wrong_context_is_detected() {
        let a = Context::new(SerialBackend::new());
        let b = Context::new(SerialBackend::new());
        let arr = a.array_from(&[1.0f64, 2.0]).unwrap();
        match b.to_host(&arr) {
            Err(RaccError::WrongContext { .. }) => {}
            other => panic!("expected WrongContext, got {other:?}"),
        }
    }

    #[test]
    fn shape_mismatches_are_detected() {
        let ctx = ctx();
        assert!(matches!(
            ctx.array2_from(3, 3, &[0.0f64; 8]),
            Err(RaccError::ShapeMismatch(_))
        ));
        assert!(matches!(
            ctx.array3_from(2, 2, 2, &[0.0f64; 9]),
            Err(RaccError::ShapeMismatch(_))
        ));
        let a = ctx.zeros::<f64>(4).unwrap();
        assert!(ctx.copy_to(&a, &[1.0; 3]).is_err());
        let b = ctx.zeros::<f64>(5).unwrap();
        assert!(ctx.copy_array(&a, &b).is_err());
    }

    #[test]
    fn fills_set_every_element() {
        let ctx = ctx();
        let a = ctx.zeros::<f64>(100).unwrap();
        ctx.fill(&a, 2.5).unwrap();
        assert!(ctx.to_host(&a).unwrap().iter().all(|&v| v == 2.5));
        let b = ctx.zeros2::<i32>(7, 9).unwrap();
        ctx.fill2(&b, -3).unwrap();
        assert!(ctx.to_host2(&b).unwrap().iter().all(|&v| v == -3));
        let c = ctx.zeros3::<u8>(3, 4, 5).unwrap();
        ctx.fill3(&c, 9).unwrap();
        assert!(ctx.to_host3(&c).unwrap().iter().all(|&v| v == 9));
        // Wrong-context fills are rejected.
        let other = Context::new(ThreadsBackend::with_threads(1));
        assert!(other.fill(&a, 0.0).is_err());
    }

    #[test]
    fn copy_array_copies() {
        let ctx = ctx();
        let src = ctx.array_from(&[1.0f64, 2.0, 3.0]).unwrap();
        let dst = ctx.zeros::<f64>(3).unwrap();
        ctx.copy_array(&src, &dst).unwrap();
        assert_eq!(ctx.to_host(&dst).unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn copy_to_overwrites() {
        let ctx = ctx();
        let a = ctx.zeros::<f64>(3).unwrap();
        ctx.copy_to(&a, &[7.0, 8.0, 9.0]).unwrap();
        assert_eq!(ctx.to_host(&a).unwrap(), vec![7.0, 8.0, 9.0]);
    }

    #[test]
    fn reduce_with_custom_op() {
        let ctx = ctx();
        let data: Vec<i64> = (0..1000).map(|i| (i * 7919) % 4409).collect();
        let arr = ctx.array_from(&data).unwrap();
        let v = arr.view();
        let m: i64 =
            ctx.parallel_reduce_with(data.len(), &KernelProfile::dot(), Max, move |i| v.get(i));
        assert_eq!(m, *data.iter().max().unwrap());
    }

    #[test]
    fn timeline_visible_through_context() {
        let ctx = ctx();
        assert_eq!(ctx.modeled_ns(), 0);
        ctx.parallel_for(1000, &KernelProfile::axpy(), |_| {});
        assert!(ctx.modeled_ns() > 0);
        assert_eq!(ctx.timeline().launches, 1);
        ctx.reset_timeline();
        assert_eq!(ctx.modeled_ns(), 0);
    }

    #[test]
    fn metadata_accessors() {
        let ctx = ctx();
        assert_eq!(ctx.key(), "threads");
        assert!(!ctx.is_accelerator());
        assert!(ctx.name().contains("Threads"));
        assert!(ctx.id() > 0);
        let dbg = format!("{ctx:?}");
        assert!(dbg.contains("Context"));
    }

    #[test]
    fn stats_surface_steal_counters_on_threads() {
        let ctx = ctx();
        ctx.parallel_for(10_000, &KernelProfile::axpy(), |_| {});
        let stats = ctx.stats();
        let steal = stats.steal.as_ref().expect("threads backend has a pool");
        assert_eq!(steal.participants.len(), 4);
        assert!(steal.total().executed > 0, "{stats}");
        // Serial backend has no pool to report on.
        let serial = Context::new(SerialBackend::new());
        assert!(serial.stats().steal.is_none());
    }

    #[test]
    fn empty_arrays_and_ranges() {
        let ctx = ctx();
        let a = ctx.array_from::<f64>(&[]).unwrap();
        assert!(a.is_empty());
        assert!(ctx.to_host(&a).unwrap().is_empty());
        ctx.parallel_for(0, &KernelProfile::unknown(), |_| panic!("no iterations"));
        let z: f64 = ctx.parallel_reduce(0, &KernelProfile::unknown(), |_| 1.0);
        assert_eq!(z, 0.0);
    }
}
