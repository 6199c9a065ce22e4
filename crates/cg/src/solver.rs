//! The portable RACC conjugate-gradient solver (the paper's Fig. 12).

use racc_blas::portable as blas;
use racc_core::{Array1, Backend, Context, RaccError};

use crate::csr::DeviceCsr;
use crate::tridiag::DeviceTridiag;
use crate::CgResult;

/// Anything CG can invert: a square operator applied through the RACC
/// constructs.
pub trait LinearOperator<B: Backend> {
    /// Dimension of the (square) operator.
    fn n(&self) -> usize;
    /// `y = A x`.
    fn apply(&self, x: &Array1<f64>, y: &Array1<f64>);
    /// `y = A x`, returning `x·y` — the matvec-then-dot pair at the top
    /// of every CG iteration. The default runs them as two constructs;
    /// operators that can fold the dot's map into the matvec body
    /// override this with a single fused reduction (bit-identical to the
    /// pair, since the same per-row value feeds the same reduce order).
    fn apply_dot(&self, ctx: &Context<B>, x: &Array1<f64>, y: &Array1<f64>) -> f64 {
        self.apply(x, y);
        blas::dot(ctx, x, y)
    }
}

impl<B: Backend> LinearOperator<B> for DeviceTridiag<'_, B> {
    fn n(&self) -> usize {
        self.n()
    }
    fn apply(&self, x: &Array1<f64>, y: &Array1<f64>) {
        self.matvec(x, y)
    }
    fn apply_dot(&self, _ctx: &Context<B>, x: &Array1<f64>, y: &Array1<f64>) -> f64 {
        self.matvec_dot(x, y)
    }
}

impl<B: Backend> LinearOperator<B> for DeviceCsr<'_, B> {
    fn n(&self) -> usize {
        self.nrows()
    }
    fn apply(&self, x: &Array1<f64>, y: &Array1<f64>) {
        self.matvec(x, y)
    }
    fn apply_dot(&self, _ctx: &Context<B>, x: &Array1<f64>, y: &Array1<f64>) -> f64 {
        self.matvec_dot(x, y)
    }
}

/// Device workspace for CG: the vectors of the paper's Fig. 12 (`r`, `p`,
/// `s`, plus the solution), pre-allocated so iteration benchmarks measure
/// compute, not allocation.
pub struct CgWorkspace<B: Backend> {
    /// Residual.
    pub r: Array1<f64>,
    /// Search direction.
    pub p: Array1<f64>,
    /// Matvec output (`s = A p`).
    pub s: Array1<f64>,
    /// Current iterate.
    pub x: Array1<f64>,
    rr: f64,
    _backend: std::marker::PhantomData<B>,
}

impl<B: Backend> CgWorkspace<B> {
    /// Initialize for `A x = b` from the zero initial guess:
    /// `r = p = b`, `x = 0`.
    pub fn new(ctx: &Context<B>, b: &Array1<f64>) -> Result<Self, RaccError> {
        let n = b.len();
        let r = ctx.zeros::<f64>(n)?;
        let p = ctx.zeros::<f64>(n)?;
        let s = ctx.zeros::<f64>(n)?;
        let x = ctx.zeros::<f64>(n)?;
        ctx.copy_array(b, &r)?;
        ctx.copy_array(b, &p)?;
        let rr = blas::dot(ctx, &r, &r);
        Ok(CgWorkspace {
            r,
            p,
            s,
            x,
            rr,
            _backend: std::marker::PhantomData,
        })
    }

    /// Current squared residual norm `r·r`.
    pub fn rr(&self) -> f64 {
        self.rr
    }

    /// One CG iteration — the paper's measured unit (Fig. 13): one matvec,
    /// two reductions, three vector updates, one copy-shaped update.
    /// Returns the updated residual norm.
    ///
    /// When the context's fusion knob is on (`ContextBuilder::fusion`) the
    /// same iteration runs as three constructs instead of six —
    /// [`LinearOperator::apply_dot`] folds the dot into the matvec,
    /// [`racc_blas::fused::cg_update`] folds both AXPYs into the second
    /// dot — with a bit-identical residual history.
    pub fn iterate<Op: LinearOperator<B>>(&mut self, ctx: &Context<B>, op: &Op) -> f64 {
        if ctx.fusion_enabled() {
            return self.iterate_fused(ctx, op);
        }
        // s = A p
        op.apply(&self.p, &self.s);
        // alpha = (r·r) / (p·s)
        let ps = blas::dot(ctx, &self.p, &self.s);
        let alpha = self.rr / ps;
        // x += alpha p ; r -= alpha s
        blas::axpy(ctx, alpha, &self.x, &self.p);
        blas::axpy(ctx, -alpha, &self.r, &self.s);
        // beta = (r·r)_new / (r·r)_old ; p = r + beta p
        let rr_new = blas::dot(ctx, &self.r, &self.r);
        let beta = rr_new / self.rr;
        blas::axpby(ctx, 1.0, &self.r, beta, &self.p);
        self.rr = rr_new;
        rr_new.sqrt()
    }

    /// The fused iteration: `{s = A p, p·s}` in one reduction, the
    /// α-update `{x += αp, r -= αs, r·r}` in one reduction, and the eager
    /// β-update (it reads the scalar the second reduction just produced,
    /// and its stencil neighbors forbid folding it into the next matvec).
    fn iterate_fused<Op: LinearOperator<B>>(&mut self, ctx: &Context<B>, op: &Op) -> f64 {
        let ps = op.apply_dot(ctx, &self.p, &self.s);
        let alpha = self.rr / ps;
        let rr_new = racc_blas::fused::cg_update(ctx, alpha, &self.x, &self.p, &self.r, &self.s);
        let beta = rr_new / self.rr;
        blas::axpby(ctx, 1.0, &self.r, beta, &self.p);
        self.rr = rr_new;
        rr_new.sqrt()
    }
}

/// Solve `A x = b` from the zero initial guess. Returns the result record;
/// the solution is left in the returned workspace's `x`.
pub fn solve<B: Backend, Op: LinearOperator<B>>(
    ctx: &Context<B>,
    op: &Op,
    b: &Array1<f64>,
    tol: f64,
    max_iters: usize,
) -> Result<(CgResult, CgWorkspace<B>), RaccError> {
    assert_eq!(op.n(), b.len(), "operator/rhs dimension mismatch");
    let mut ws = CgWorkspace::new(ctx, b)?;
    let mut residual = ws.rr().sqrt();
    if residual <= tol {
        return Ok((
            CgResult {
                iterations: 0,
                residual,
                converged: true,
            },
            ws,
        ));
    }
    for iter in 1..=max_iters {
        residual = ws.iterate(ctx, op);
        if residual <= tol {
            return Ok((
                CgResult {
                    iterations: iter,
                    residual,
                    converged: true,
                },
                ws,
            ));
        }
    }
    Ok((
        CgResult {
            iterations: max_iters,
            residual,
            converged: false,
        },
        ws,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;
    use crate::tridiag::Tridiag;
    use racc_core::{SerialBackend, ThreadsBackend};

    #[test]
    fn solves_tridiagonal_system_to_thomas_accuracy() {
        let ctx = Context::new(ThreadsBackend::with_threads(4));
        let n = 2000;
        let a = Tridiag::diagonally_dominant(n);
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let mut b_host = vec![0.0; n];
        a.matvec_ref(&x_true, &mut b_host);

        let da = DeviceTridiag::upload(&ctx, &a).unwrap();
        let b = ctx.array_from(&b_host).unwrap();
        let (result, ws) = solve(&ctx, &da, &b, 1e-10, 500).unwrap();
        assert!(result.converged, "residual {}", result.residual);
        assert!(
            result.iterations < 100,
            "well-conditioned: {}",
            result.iterations
        );

        let x = ctx.to_host(&ws.x).unwrap();
        let direct = a.thomas_solve(&b_host);
        for (got, want) in x.iter().zip(&direct) {
            assert!((got - want).abs() < 1e-7, "{got} vs {want}");
        }
    }

    #[test]
    fn solves_laplacian_system() {
        let ctx = Context::new(ThreadsBackend::with_threads(4));
        let m = Csr::laplacian_2d(20, 20);
        let n = m.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) * 0.2).collect();
        let mut b_host = vec![0.0; n];
        m.matvec_ref(&x_true, &mut b_host);
        let dm = DeviceCsr::upload(&ctx, &m).unwrap();
        let b = ctx.array_from(&b_host).unwrap();
        let (result, ws) = solve(&ctx, &dm, &b, 1e-9, 2000).unwrap();
        assert!(result.converged);
        let x = ctx.to_host(&ws.x).unwrap();
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-6);
        }
    }

    #[test]
    fn residual_decreases_monotonically_on_spd_system() {
        let ctx = Context::new(SerialBackend::new());
        let n = 500;
        let a = Tridiag::diagonally_dominant(n);
        let da = DeviceTridiag::upload(&ctx, &a).unwrap();
        let b = ctx.array_from_fn(n, |i| ((i % 9) as f64) - 4.0).unwrap();
        let mut ws = CgWorkspace::new(&ctx, &b).unwrap();
        let mut last = ws.rr().sqrt();
        for _ in 0..20 {
            let r = ws.iterate(&ctx, &da);
            assert!(r <= last * (1.0 + 1e-12), "{r} vs {last}");
            last = r;
        }
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let ctx = Context::new(SerialBackend::new());
        let a = Tridiag::diagonally_dominant(100);
        let da = DeviceTridiag::upload(&ctx, &a).unwrap();
        let b = ctx.zeros::<f64>(100).unwrap();
        let (result, ws) = solve(&ctx, &da, &b, 1e-12, 10).unwrap();
        assert!(result.converged);
        assert_eq!(result.iterations, 0);
        assert!(ctx.to_host(&ws.x).unwrap().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn iteration_budget_is_respected() {
        let ctx = Context::new(SerialBackend::new());
        let a = Tridiag::diagonally_dominant(1000);
        let da = DeviceTridiag::upload(&ctx, &a).unwrap();
        let b = ctx.array_from_fn(1000, |i| (i as f64).sin()).unwrap();
        let (result, _) = solve(&ctx, &da, &b, 0.0, 3).unwrap();
        assert!(!result.converged);
        assert_eq!(result.iterations, 3);
    }

    /// Residual history (as bits) of `iters` iterations plus the
    /// per-iteration construct counts `(parallel_fors, reductions)`.
    fn residual_history<B: racc_core::Backend, Op: LinearOperator<B>>(
        ctx: &Context<B>,
        op: &Op,
        b: &Array1<f64>,
        iters: u64,
    ) -> (Vec<u64>, u64, u64) {
        let mut ws = CgWorkspace::new(ctx, b).unwrap();
        let before = ctx.timeline();
        let mut history = Vec::new();
        for _ in 0..iters {
            history.push(ws.iterate(ctx, op).to_bits());
        }
        let after = ctx.timeline();
        (
            history,
            (after.launches - before.launches) / iters,
            (after.reductions - before.reductions) / iters,
        )
    }

    /// Fusion on vs off: the residual history must agree bit for bit, the
    /// fused iteration must run as 3 constructs (1 for + 2 fused
    /// reductions) against the eager 6 (4 fors + 2 reductions), and the
    /// fused loop must replay its plans from the cache (hit rate ≥ 0.9).
    fn check_fused_iteration_bitwise<B: racc_core::Backend>(make: impl Fn() -> B) {
        let n = 400;
        let iters = 25;
        for use_csr in [false, true] {
            let eager_ctx = Context::builder(make()).fusion(false).build();
            let fused_ctx = Context::builder(make()).fusion(true).build();
            assert!(!eager_ctx.fusion_enabled() && fused_ctx.fusion_enabled());
            let run = |ctx: &Context<B>| {
                let b = ctx.array_from_fn(n, |i| ((i % 11) as f64) - 5.0).unwrap();
                if use_csr {
                    let m = crate::csr::Csr::laplacian_2d(20, 20);
                    let op = DeviceCsr::upload(ctx, &m).unwrap();
                    residual_history(ctx, &op, &b, iters)
                } else {
                    let a = Tridiag::diagonally_dominant(n);
                    let op = DeviceTridiag::upload(ctx, &a).unwrap();
                    residual_history(ctx, &op, &b, iters)
                }
            };
            let (eager_hist, eager_fors, eager_reds) = run(&eager_ctx);
            let (fused_hist, fused_fors, fused_reds) = run(&fused_ctx);
            assert_eq!(fused_hist, eager_hist, "residual history diverged");
            assert_eq!((eager_fors, eager_reds), (4, 2));
            assert_eq!((fused_fors, fused_reds), (1, 2));
            let pc = fused_ctx.stats().plan_cache;
            assert!(pc.hit_rate() >= 0.9, "fused CG missed the cache: {pc:?}");
        }
    }

    #[test]
    fn fused_iteration_is_bit_identical_and_three_constructs() {
        check_fused_iteration_bitwise(SerialBackend::new);
        check_fused_iteration_bitwise(|| ThreadsBackend::with_threads(4));
    }

    #[test]
    fn fused_iteration_is_bit_identical_and_three_constructs_on_cudasim() {
        check_fused_iteration_bitwise(racc_backend_common::cuda_backend);
    }

    #[test]
    fn fused_iteration_is_bit_identical_and_three_constructs_on_hipsim() {
        check_fused_iteration_bitwise(racc_backend_common::hip_backend);
    }

    #[test]
    fn fused_iteration_is_bit_identical_and_three_constructs_on_oneapisim() {
        check_fused_iteration_bitwise(racc_backend_common::oneapi_backend);
    }

    /// The CG loop re-issues the same fused update shape every iteration,
    /// so after the first (compiling) call the plan cache must serve every
    /// later one: steady-state hit rate ≥ 90% over a real solve.
    #[test]
    fn fused_solve_runs_hot_from_the_plan_cache() {
        let n = 400;
        let ctx = Context::builder(SerialBackend::new()).fusion(true).build();
        let da = DeviceTridiag::upload(&ctx, &Tridiag::diagonally_dominant(n)).unwrap();
        let b = ctx.array_from_fn(n, |i| ((i % 11) as f64) - 5.0).unwrap();
        let (result, _) = solve(&ctx, &da, &b, 1e-30, 25).unwrap();
        assert!(result.iterations >= 10, "want a real loop, got {result:?}");
        let pc = ctx.stats().plan_cache;
        assert!(pc.misses >= 1 && pc.hits >= 9, "{pc:?}");
        assert!(
            pc.hit_rate() >= 0.9,
            "steady-state CG should hit the cache: {pc:?}"
        );
    }

    #[test]
    fn exact_convergence_in_n_steps_for_tiny_system() {
        // CG converges in at most n iterations in exact arithmetic.
        let ctx = Context::new(SerialBackend::new());
        let a = Tridiag::new(
            vec![0.0, 1.0, 2.0],
            vec![10.0, 9.0, 8.0],
            vec![1.0, 2.0, 0.0],
        );
        let da = DeviceTridiag::upload(&ctx, &a).unwrap();
        let b = ctx.array_from(&[1.0, 2.0, 3.0]).unwrap();
        let (result, _) = solve(&ctx, &da, &b, 1e-12, 4).unwrap();
        assert!(result.converged);
        assert!(result.iterations <= 3 + 1);
    }
}
