//! # racc-fuse
//!
//! A lazy array-expression layer and kernel-fusion engine over
//! `racc_core` — the Rust analog of the meta-programming story in the
//! JACC paper: the front end stays one high-level expression API while
//! the engine regroups the work into fewer, fatter device launches.
//!
//! Elementwise operations (`axpy`-style maps, scalar broadcasts, zips)
//! and trailing reductions build a small expression DAG ([`Expr`])
//! instead of launching. A fusion planner coalesces each maximal chain of
//! same-extent elementwise statements — plus an optional terminal
//! reduction — into **one** `parallel_for` / `parallel_reduce_with`
//! launch carrying the *summed* [`racc_core::KernelProfile`] of its
//! statements, so the analytic perf model, the `Timeline`, and trace
//! reconciliation stay exact. Unfusable boundaries (extent change,
//! explicit [`Lazy::barrier`], a reload of a buffer stored earlier in
//! the group, the [`MAX_NODES`] budget) force a materialize.
//!
//! ## Compiled plans and the plan cache
//!
//! By default every evaluation goes through a **compiled plan**: the
//! program's canonical shape (ops, extent classes, aliasing and sharing
//! pattern — never array identities or scalar values) keys a per-context
//! cache of lowered programs, so steady-state loops like CG plan and
//! lower **once** and then re-execute specialized tape or template
//! executors against fresh bindings with zero allocation. Cache traffic
//! is visible through `ctx.stats()`; the cache keeps the 32 most recently
//! used programs. [`Lazy::interpreted`] keeps the
//! walk-the-DAG-each-time path (for A/B measurement), and
//! [`Lazy::eager`] forces one launch per statement — the reference
//! semantics both other modes must reproduce bit-identically.
//!
//! ```
//! use racc_core::{Context, SerialBackend};
//! use racc_fuse::{load, LazyExt};
//!
//! let ctx = Context::new(SerialBackend::new());
//! let x = ctx.array_from_fn(1024, |i| i as f64).unwrap();
//! let y = ctx.array_from_fn(1024, |i| 2.0 * i as f64).unwrap();
//!
//! // x += 0.5 * y, then dot(x, y) — ONE launch instead of three.
//! let mut l = ctx.lazy();
//! let xv = l.assign(&x, load(&x) + 0.5 * load(&y));
//! let dot = l.sum(xv * load(&y));
//! assert!(dot > 0.0);
//! // The second evaluation of the same chain hits the plan cache.
//! assert!(ctx.stats().plan_cache.misses >= 1);
//! ```
//!
//! The engine interprets in `f64` — the element type of every workload in
//! the reproduced paper.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use racc_core::{Array1, Backend, Context, RaccError};

mod cache;
mod compile;
mod exec;
mod graph;
mod plan;

pub use graph::{BinOp, Extent, Fusable, UnOp};
pub use plan::MAX_NODES;

use cache::PlanCache;
use compile::EvalScratch;
use graph::ENode;
use plan::Stmt;

/// Reduction operator of a terminal [`Lazy::reduce`]-style evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceKind {
    /// `Σ f(i)` — JACC's `parallel_reduce`.
    Sum,
    /// `min f(i)`.
    Min,
    /// `max f(i)`.
    Max,
}

/// A lazy elementwise expression: a node of the DAG. Cheap to clone
/// (`Rc`); cloned subexpressions share one compiled node per group (CSE).
#[derive(Clone)]
pub struct Expr {
    pub(crate) node: Rc<ENode>,
}

impl Expr {
    fn wrap(node: ENode) -> Self {
        Expr {
            node: Rc::new(node),
        }
    }

    fn unary(op: UnOp, a: Expr) -> Expr {
        Expr::wrap(ENode::Unary(op, a))
    }

    fn binary(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::wrap(ENode::Binary(op, a, b))
    }

    /// Elementwise absolute value.
    pub fn abs(self) -> Expr {
        Expr::unary(UnOp::Abs, self)
    }

    /// Elementwise square root.
    pub fn sqrt(self) -> Expr {
        Expr::unary(UnOp::Sqrt, self)
    }

    /// Elementwise minimum with another expression.
    pub fn min(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Min, self, other)
    }

    /// Elementwise maximum with another expression.
    pub fn max(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Max, self, other)
    }

    /// Evaluates this 1D expression into a fresh array: one compiled
    /// fused launch (cached by program shape).
    pub fn eval<B: Backend>(&self, ctx: &Context<B>) -> Result<Array1<f64>, RaccError> {
        let n = match plan::expr_extent(self) {
            Some(Extent::D1(n)) => n,
            Some(e) => panic!("Expr::eval allocates 1D results; expression has extent {e:?}"),
            None => panic!("Expr::eval needs at least one array in the expression"),
        };
        let out = ctx.zeros::<f64>(n)?;
        let mut l = Lazy::new(ctx);
        l.store(&out, self.clone());
        l.eval();
        Ok(out)
    }

    /// Evaluates this expression into an existing array: one compiled
    /// fused launch (cached by program shape).
    pub fn eval_into<B: Backend, A: Fusable>(&self, ctx: &Context<B>, dst: &A) {
        let mut l = Lazy::new(ctx);
        l.store(dst, self.clone());
        l.eval();
    }

    /// Sum-reduces this expression in one compiled fused launch.
    pub fn eval_sum<B: Backend>(&self, ctx: &Context<B>) -> f64 {
        Lazy::new(ctx).sum(self.clone())
    }
}

/// A lazy load of an array's elements.
pub fn load<A: Fusable>(a: &A) -> Expr {
    Expr::wrap(ENode::Load(a.load_ref()))
}

/// A scalar broadcast. Plain `f64` literals coerce through the operator
/// overloads, so this is rarely needed explicitly.
pub fn lit(v: f64) -> Expr {
    Expr::wrap(ENode::Scalar(v))
}

macro_rules! impl_bin_op {
    ($trait:ident, $method:ident, $op:expr) => {
        impl std::ops::$trait for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::binary($op, self, rhs)
            }
        }

        impl std::ops::$trait<f64> for Expr {
            type Output = Expr;
            fn $method(self, rhs: f64) -> Expr {
                Expr::binary($op, self, lit(rhs))
            }
        }

        impl std::ops::$trait<Expr> for f64 {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::binary($op, lit(self), rhs)
            }
        }
    };
}

impl_bin_op!(Add, add, BinOp::Add);
impl_bin_op!(Sub, sub, BinOp::Sub);
impl_bin_op!(Mul, mul, BinOp::Mul);
impl_bin_op!(Div, div, BinOp::Div);

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::unary(UnOp::Neg, self)
    }
}

/// How a [`Lazy`] program evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Plan once per program shape, cache the lowered program, execute
    /// specialized tape/template kernels (the default).
    Compiled,
    /// Plan and walk the DAG every evaluation (the pre-cache engine);
    /// kept callable for A/B measurement.
    Interpreted,
    /// One launch per statement — the reference semantics.
    Eager,
}

thread_local! {
    /// One pooled [`EvalScratch`] per thread, so back-to-back `Lazy`
    /// evaluations (the steady-state loop) allocate nothing. Nested
    /// programs fall back to a fresh allocation; the last one dropped
    /// refills the pool.
    static SCRATCH: Cell<Option<Box<EvalScratch>>> = const { Cell::new(None) };
}

/// A lazy expression scope: an ordered list of array assignments,
/// optionally closed by one reduction. Obtained from [`LazyExt::lazy`]
/// (`ctx.lazy()`).
///
/// Semantics are *defined* by the eager reading — each `assign` is a full
/// pass, in order, and the terminal reduction runs last. Fusion only
/// regroups the passes; [`Lazy::eager`] forces the reference grouping
/// (one launch per statement), which the differential tests hold both the
/// interpreter and the compiled plans to, bit for bit.
pub struct Lazy<'c, B: Backend> {
    ctx: &'c Context<B>,
    /// Pooled program + binding storage; `Some` until drop.
    scratch: Option<Box<EvalScratch>>,
    mode: Mode,
    /// Profile (and compile-span) name of this program's launches.
    name: &'static str,
    /// Constructs launched by `eval`/`sum` (for tests and benches).
    launches: Cell<usize>,
}

impl<'c, B: Backend> Lazy<'c, B> {
    /// An empty program over `ctx`.
    pub fn new(ctx: &'c Context<B>) -> Self {
        Lazy {
            ctx,
            scratch: Some(SCRATCH.with(|c| c.take()).unwrap_or_default()),
            mode: Mode::Compiled,
            name: "fused",
            launches: Cell::new(0),
        }
    }

    /// Force one launch per statement — the reference semantics that both
    /// fused execution modes must reproduce bit-identically.
    pub fn eager(mut self) -> Self {
        self.mode = Mode::Eager;
        self
    }

    /// Fuse, but interpret the expression DAG each evaluation instead of
    /// consulting the plan cache — the pre-compilation engine, kept as the
    /// reference grouping the compiled plans must reproduce
    /// (`tests/differential.rs`).
    pub fn interpreted(mut self) -> Self {
        self.mode = Mode::Interpreted;
        self
    }

    /// Names this program's kernel profile (and compile span); defaults
    /// to `"fused"`. Programs with different names cache separately.
    pub fn named(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    fn s(&mut self) -> &mut EvalScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }

    /// Appends `dst[i] = expr[i]` and returns the stored value as an
    /// expression. Using the returned `Expr` in later statements forwards
    /// the value through registers inside a fusion group; re-`load`ing
    /// `dst` instead forces a materialize boundary.
    pub fn assign<A: Fusable>(&mut self, dst: &A, expr: Expr) -> Expr {
        let dst_ref = dst.store_ref();
        let reload = dst.load_ref();
        let s = self.s();
        let stmt_idx = s.stmts.len();
        s.stmts.push(Stmt { dst: dst_ref, expr });
        Expr::wrap(ENode::Forward {
            stmt: stmt_idx,
            reload,
        })
    }

    /// Appends `dst[i] = expr[i]` without returning a forwarding handle —
    /// use [`Lazy::assign`] when a later statement consumes the stored
    /// value. (Unlike `assign` this allocates no forward node, which
    /// keeps pre-built steady-state programs fully allocation-free.)
    pub fn store<A: Fusable>(&mut self, dst: &A, expr: Expr) {
        let dst_ref = dst.store_ref();
        self.s().stmts.push(Stmt { dst: dst_ref, expr });
    }

    /// Forces every destination assigned so far to materialize before any
    /// later statement runs (an explicit fusion boundary).
    pub fn barrier(&mut self) {
        let s = self.s();
        let at = s.stmts.len();
        s.barriers.push(at);
    }

    /// Evaluates the program (no terminal reduction).
    pub fn eval(&mut self) {
        self.finish(None);
    }

    /// Evaluates the program, then reduces `expr` with `kind`. The
    /// reduction fuses into the last group when legal.
    pub fn reduce(&mut self, expr: Expr, kind: ReduceKind) -> f64 {
        self.finish(Some((expr, kind)))
            .expect("terminal reduction returns a value")
    }

    /// Evaluates the program and sum-reduces `expr` (`Σ expr[i]`).
    pub fn sum(&mut self, expr: Expr) -> f64 {
        self.reduce(expr, ReduceKind::Sum)
    }

    /// Evaluates the program and computes `Σ a[i]·b[i]`.
    pub fn dot(&mut self, a: Expr, b: Expr) -> f64 {
        self.sum(a * b)
    }

    /// Number of backend constructs the last evaluation issued — fused
    /// launches per program (for tests and benches).
    pub fn count_launches(&self) -> usize {
        self.launches.get()
    }

    fn finish(&mut self, terminal: Option<(Expr, ReduceKind)>) -> Option<f64> {
        match self.mode {
            Mode::Compiled => self.finish_compiled(terminal),
            Mode::Interpreted => self.finish_interpreted(terminal, false),
            Mode::Eager => self.finish_interpreted(terminal, true),
        }
    }

    /// The pre-cache engine: plan, flatten, and interpret the DAG.
    fn finish_interpreted(
        &mut self,
        terminal: Option<(Expr, ReduceKind)>,
        eager: bool,
    ) -> Option<f64> {
        let ctx = self.ctx;
        let s = self.s();
        let groups = plan::plan(&s.stmts, &s.barriers, terminal, eager);
        let mut result = None;
        for group in &groups {
            let compiled = plan::compile(&s.stmts, group, eager);
            if let Some(v) = exec::run_group(ctx, &compiled) {
                result = Some(v);
            }
        }
        self.launches.set(groups.len());
        result
    }

    /// The compiled engine: canonicalize, consult the per-context plan
    /// cache, lower on miss, execute the cached program against this
    /// evaluation's bindings.
    fn finish_compiled(&mut self, terminal: Option<(Expr, ReduceKind)>) -> Option<f64> {
        let ctx = self.ctx;
        let name = self.name;
        let slot = ctx.plan_cache_slot();
        let cache: &PlanCache =
            slot.get_or_init(|| PlanCache::new(cache::CAPACITY, Arc::clone(slot.counters())));
        let s = self.scratch.as_mut().expect("scratch present until drop");
        compile::ingest(s, ctx.id(), terminal.as_ref().map(|(e, k)| (e, *k)));
        let hash = cache::hash_key(&s.key, name);
        let program = match cache.lookup(hash, &s.key, name) {
            Some(program) => program,
            None => {
                #[cfg(feature = "trace")]
                let t0 = ctx.tracer().map(|_| std::time::Instant::now());
                let groups = plan::plan(&s.stmts, &s.barriers, terminal, false);
                let program = Arc::new(compile::compile_program(s, &groups, name));
                #[cfg(feature = "trace")]
                if let Some(recorder) = ctx.tracer() {
                    use racc_core::trace::{ConstructKind, Span};
                    recorder.record(
                        Span::new(ctx.key(), ConstructKind::Compile, name)
                            .dims(program.groups.len() as u64, 1, 1)
                            .real_since(t0),
                    );
                }
                cache.insert(hash, &s.key, name, Arc::clone(&program));
                program
            }
        };
        self.launches.set(program.groups.len());
        compile::execute(ctx, &program, s)
    }
}

impl<B: Backend> Drop for Lazy<'_, B> {
    fn drop(&mut self) {
        if let Some(mut scratch) = self.scratch.take() {
            scratch.clear();
            SCRATCH.with(|c| c.set(Some(scratch)));
        }
    }
}

/// Extension hanging the lazy-expression front end off any [`Context`]:
/// `ctx.lazy()`.
pub trait LazyExt<B: Backend> {
    /// Starts an empty lazy expression scope over this context.
    fn lazy(&self) -> Lazy<'_, B>;
}

impl<B: Backend> LazyExt<B> for Context<B> {
    fn lazy(&self) -> Lazy<'_, B> {
        Lazy::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racc_core::SerialBackend;

    fn ctx() -> Context<SerialBackend> {
        Context::new(SerialBackend::new())
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn axpy_chain_fuses_to_one_launch() {
        let ctx = ctx();
        let n = 1000;
        let x = ctx.array_from_fn(n, |i| i as f64).unwrap();
        let y = ctx.array_from_fn(n, |i| (i % 7) as f64).unwrap();
        let z = ctx.zeros::<f64>(n).unwrap();
        let before = ctx.timeline();

        let mut l = ctx.lazy();
        let xv = l.assign(&x, load(&x) + 2.0 * load(&y));
        l.assign(&z, xv * 0.5);
        l.eval();

        assert_eq!(l.count_launches(), 1);
        let after = ctx.timeline();
        assert_eq!(after.launches - before.launches, 1);
        let xs = ctx.to_host(&x).unwrap();
        let zs = ctx.to_host(&z).unwrap();
        for i in 0..n {
            assert_eq!(xs[i], i as f64 + 2.0 * (i % 7) as f64);
            assert_eq!(zs[i], xs[i] * 0.5);
        }
    }

    #[test]
    fn map_reduce_fuses_to_one_reduction() {
        let ctx = ctx();
        let n = 513;
        let x = ctx.array_from_fn(n, |i| i as f64).unwrap();
        let y = ctx.array_from_fn(n, |i| 1.0 + (i % 3) as f64).unwrap();
        let before = ctx.timeline();

        let mut l = ctx.lazy();
        let xv = l.assign(&x, load(&x) + 0.5 * load(&y));
        let dot = l.sum(xv * load(&y));

        assert_eq!(l.count_launches(), 1);
        let after = ctx.timeline();
        assert_eq!(after.launches, before.launches, "no separate parallel_for");
        assert_eq!(after.reductions - before.reductions, 1);
        let expect: f64 = (0..n)
            .map(|i| {
                let yv = 1.0 + (i % 3) as f64;
                (i as f64 + 0.5 * yv) * yv
            })
            .sum();
        assert_eq!(dot.to_bits(), expect.to_bits(), "serial fold order");
    }

    #[test]
    fn compiled_interpreted_and_eager_match_bitwise() {
        let ctx = ctx();
        let n = 777;
        let mk = || {
            (
                ctx.array_from_fn(n, |i| (i as f64).sin()).unwrap(),
                ctx.array_from_fn(n, |i| (i as f64 * 0.1).cos()).unwrap(),
                ctx.zeros::<f64>(n).unwrap(),
            )
        };
        let run = |mode: u8| -> (Vec<u64>, Vec<u64>, u64) {
            let (x, y, z) = mk();
            let mut l = ctx.lazy();
            l = match mode {
                0 => l,
                1 => l.interpreted(),
                _ => l.eager(),
            };
            let xv = l.assign(&x, load(&x) * 1.5 - load(&y));
            let zv = l.assign(&z, xv.clone().abs().sqrt() + load(&y));
            let s = l.sum(zv.max(xv));
            (
                bits(&ctx.to_host(&x).unwrap()),
                bits(&ctx.to_host(&z).unwrap()),
                s.to_bits(),
            )
        };
        let compiled = run(0);
        assert_eq!(compiled, run(1), "compiled vs interpreted");
        assert_eq!(compiled, run(2), "compiled vs eager");
        // And again, so the second compiled evaluation is a cache hit.
        assert_eq!(compiled, run(0), "cache-hit evaluation");
        assert!(ctx.stats().plan_cache.hits >= 1);
    }

    #[test]
    fn barrier_and_reload_split_groups() {
        let ctx = ctx();
        let n = 100;
        let x = ctx.zeros::<f64>(n).unwrap();
        let y = ctx.zeros::<f64>(n).unwrap();

        // Explicit barrier: 2 launches.
        let mut l = ctx.lazy();
        l.assign(&x, lit(1.0) + load(&y));
        l.barrier();
        l.assign(&y, lit(2.0) * load(&x).min(lit(8.0)));
        l.eval();
        assert_eq!(l.count_launches(), 2);

        // Raw reload of a stored buffer: planner splits on the hazard.
        let mut l = ctx.lazy();
        l.assign(&x, load(&y) + 1.0);
        l.assign(&y, load(&x) * 2.0); // reload of x, not the forward
        l.eval();
        assert_eq!(l.count_launches(), 2);
        let xs = ctx.to_host(&x).unwrap();
        let ys = ctx.to_host(&y).unwrap();
        assert_eq!(xs[0], 3.0);
        assert_eq!(ys[0], 6.0);
    }

    #[test]
    fn extent_change_splits_groups() {
        let ctx = ctx();
        let a = ctx.zeros::<f64>(64).unwrap();
        let b = ctx.zeros::<f64>(128).unwrap();
        let mut l = ctx.lazy();
        l.assign(&a, lit(1.0) + load(&a));
        l.assign(&b, lit(2.0) + load(&b));
        l.eval();
        assert_eq!(l.count_launches(), 2);
    }

    #[test]
    fn fused_2d_and_3d_assignments() {
        let ctx = ctx();
        let a = ctx.zeros2::<f64>(5, 7).unwrap();
        let b = ctx.zeros2::<f64>(5, 7).unwrap();
        let mut l = ctx.lazy();
        let av = l.assign(&a, load(&a) + 3.0);
        let bv = l.assign(&b, av * 2.0);
        let s = l.sum(bv);
        assert_eq!(l.count_launches(), 1);
        assert_eq!(s, 5.0 * 7.0 * 6.0);

        let c = ctx.zeros3::<f64>(3, 4, 5).unwrap();
        let mut l = ctx.lazy();
        let cv = l.assign(&c, load(&c) + 1.0);
        let s = l.sum(cv.clone() * cv);
        assert_eq!(l.count_launches(), 1);
        assert_eq!(s, 60.0);
    }

    #[test]
    fn eval_entry_points() {
        let ctx = ctx();
        let n = 50;
        let x = ctx.array_from_fn(n, |i| i as f64).unwrap();
        let z = (load(&x) * 2.0).eval(&ctx).unwrap();
        assert_eq!(ctx.to_host(&z).unwrap()[10], 20.0);
        (load(&x) + 1.0).eval_into(&ctx, &z);
        assert_eq!(ctx.to_host(&z).unwrap()[10], 11.0);
        let s = load(&x).eval_sum(&ctx);
        assert_eq!(s, (n * (n - 1) / 2) as f64);
    }

    #[test]
    fn min_max_reductions() {
        let ctx = ctx();
        let x = ctx
            .array_from_fn(101, |i| ((i as f64) - 50.0) * ((i % 13) as f64))
            .unwrap();
        let lo = ctx.lazy().reduce(load(&x), ReduceKind::Min);
        let hi = ctx.lazy().reduce(load(&x), ReduceKind::Max);
        let host = ctx.to_host(&x).unwrap();
        assert_eq!(lo, host.iter().cloned().fold(f64::INFINITY, f64::min));
        assert_eq!(hi, host.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn shared_subexpressions_compile_once() {
        let ctx = ctx();
        let n = 10;
        let x = ctx.array_from_fn(n, |i| i as f64).unwrap();
        let y = ctx.zeros::<f64>(n).unwrap();
        let e = load(&x) * 2.0;
        let mut l = ctx.lazy();
        // `e` appears twice through the same Rc: CSE keeps the fused group
        // inside the node budget and reads x only once per index.
        l.assign(&y, e.clone() + e.clone() * e);
        l.eval();
        assert_eq!(l.count_launches(), 1);
        let ys = ctx.to_host(&y).unwrap();
        assert_eq!(ys[3], 6.0 + 36.0);
    }

    #[test]
    #[should_panic(expected = "different extents")]
    fn zip_extent_mismatch_panics() {
        let ctx = ctx();
        let a = ctx.zeros::<f64>(4).unwrap();
        let b = ctx.zeros::<f64>(5).unwrap();
        let mut l = ctx.lazy();
        l.assign(&a, load(&a) + load(&b));
        l.eval();
    }

    #[test]
    #[should_panic(expected = "another context")]
    fn cross_context_panics() {
        let c1 = ctx();
        let c2 = ctx();
        let a = c1.zeros::<f64>(4).unwrap();
        let mut l = c2.lazy();
        l.assign(&a, load(&a) + 1.0);
        l.eval();
    }

    #[test]
    fn node_budget_splits() {
        let ctx = ctx();
        let n = 16;
        let x = ctx.array_from_fn(n, |i| i as f64 + 1.0).unwrap();
        let y = ctx.zeros::<f64>(n).unwrap();
        let mut l = ctx.lazy();
        // Each statement ~21 nodes; three of them exceed MAX_NODES = 64,
        // so the planner must split at least once — and results stay right.
        for _ in 0..3 {
            let mut e = load(&x);
            for _ in 0..10 {
                e = e * 1.0 + 0.0;
            }
            l.assign(&y, e);
        }
        l.eval();
        assert!(l.count_launches() >= 2, "{}", l.count_launches());
        let ys = ctx.to_host(&y).unwrap();
        assert_eq!(ys[3], 4.0);
    }

    #[test]
    fn steady_state_loop_hits_the_cache() {
        let ctx = ctx();
        let n = 64;
        let x = ctx.array_from_fn(n, |i| i as f64).unwrap();
        let y = ctx.array_from_fn(n, |i| (i % 5) as f64).unwrap();
        for iter in 0..10 {
            // Changing the scalar must not change the cached shape.
            let alpha = 0.25 + iter as f64;
            let mut l = ctx.lazy();
            let xv = l.assign(&x, load(&x) + lit(alpha) * load(&y));
            l.sum(xv.clone() * xv);
        }
        let pc = ctx.stats().plan_cache;
        assert_eq!(pc.misses, 1, "{pc:?}");
        assert_eq!(pc.hits, 9, "{pc:?}");
        assert_eq!(pc.entries, 1);
    }

    #[test]
    fn named_programs_cache_separately() {
        let ctx = ctx();
        let x = ctx.array_from_fn(8, |i| i as f64).unwrap();
        let a = ctx.lazy().sum(load(&x));
        let b = ctx.lazy().named("other").sum(load(&x));
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(ctx.stats().plan_cache.misses, 2);
    }

    #[test]
    fn a_full_cache_evicts_one_program_per_new_shape() {
        // CAPACITY + 1 distinct shapes: sums over 0..=CAPACITY chained `abs`
        // calls differ in their op sequence.
        let ctx = ctx();
        let x = ctx.array_from_fn(8, |i| i as f64).unwrap();
        for depth in 0..=cache::CAPACITY {
            let e = (0..depth).fold(load(&x), |e, _| e.abs());
            ctx.lazy().sum(e);
        }
        let pc = ctx.stats().plan_cache;
        assert_eq!(pc.misses, cache::CAPACITY as u64 + 1, "{pc:?}");
        assert_eq!(pc.evictions, 1, "{pc:?}");
        assert_eq!(pc.entries, cache::CAPACITY, "{pc:?}");
    }
}
