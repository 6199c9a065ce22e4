//! `cg_latency` — the small end of the paper's Fig. 13: tridiagonal CG at
//! n = 16384, a fixed 200 iterations, solved once eagerly and once with
//! `.fusion(true)`. Six (eager) or three (fused) small constructs per
//! iteration, 1806 per rep: the workload on which the per-construct costs
//! (front-end dispatch, the `backend-common` wrapper, pool wake/join,
//! simulator launch set-up, the `fuse` plan cache) weigh most.

use std::time::Instant;

use racc::Array1;
use racc_cg::solver::CgWorkspace;
use racc_cg::tridiag::{DeviceTridiag, Tridiag};

use crate::cell::{
    digest, hash_bits, racc_trace_begin, racc_trace_totals, Cell, Env, RepOutcome, Runner,
};
use crate::rng::Rng;
use crate::spans::span;

pub const N: usize = 16_384;
pub const ITERATIONS: usize = 200;

/// A seeded SPD system: off-diagonals −1, diagonal in [2.05, 2.10), so the
/// condition number is near 80 and 200 iterations end close to — not
/// beyond — double-precision convergence (no 0/0 after breakdown).
pub fn system(seed: u64) -> (Tridiag, Vec<f64>) {
    let mut r = Rng::stream(seed, "cg_latency");
    let diag = r.vec_uniform(N, 2.05, 2.10);
    let b = r.vec_uniform(N, -1.0, 1.0);
    (Tridiag::new(vec![-1.0; N], diag, vec![-1.0; N]), b)
}

/// The residual history of one solve (bit patterns) and its solution.
pub struct Solve {
    pub history: Vec<u64>,
    pub x: Vec<f64>,
    pub wall_s: f64,
}

/// `ITERATIONS` CG steps from a fresh workspace: the loop of
/// `racc_cg::solver::solve` with tol 0, one span per iteration.
pub fn solve(
    ctx: &racc::Ctx,
    a: &DeviceTridiag<'_, racc::AnyBackend>,
    b: &Array1<f64>,
) -> Result<Solve, String> {
    let t = Instant::now();
    let mut ws = span("cg.workspace", || CgWorkspace::new(ctx, b)).map_err(|e| e.to_string())?;
    let mut history = Vec::with_capacity(ITERATIONS);
    for _ in 0..ITERATIONS {
        history.push(span("cg.iterate", || ws.iterate(ctx, a)).to_bits());
    }
    let wall_s = t.elapsed().as_secs_f64();
    let x = ctx.to_host(&ws.x).map_err(|e| e.to_string())?;
    Ok(Solve { history, x, wall_s })
}

pub struct CgLatency;

pub struct State<'c> {
    eager: &'c racc::Ctx,
    fused: &'c racc::Ctx,
    a_eager: DeviceTridiag<'c, racc::AnyBackend>,
    b_eager: Array1<f64>,
    a_fused: DeviceTridiag<'c, racc::AnyBackend>,
    b_fused: Array1<f64>,
    /// `thomas_solve` of the same system.
    direct: Vec<f64>,
    /// The serial twin's eager solution.
    twin_x: Vec<f64>,
    b_norm: f64,
}

impl Cell for CgLatency {
    type State<'c> = State<'c>;
    const FUSED: bool = true;

    fn build<'c>(env: &'c Env, seed: u64) -> Result<State<'c>, String> {
        let e = |e: racc::Error| e.to_string();
        let (host_a, b_host) = span("bench.generate", || system(seed));
        let direct = host_a.thomas_solve(&b_host);
        let a_eager = span("core.array_from", || {
            DeviceTridiag::upload(&env.ctx, &host_a)
        })
        .map_err(e)?;
        let b_eager = span("core.array_from", || env.ctx.array_from(&b_host)).map_err(e)?;
        // Arrays belong to the context that made them, so the fused
        // context gets its own copy of the system.
        let fused = env.fused.as_ref().expect("Env built with FUSED");
        let a_fused =
            span("core.array_from", || DeviceTridiag::upload(fused, &host_a)).map_err(e)?;
        let b_fused = span("core.array_from", || fused.array_from(&b_host)).map_err(e)?;
        let twin_a = DeviceTridiag::upload(&env.twin, &host_a).map_err(e)?;
        let twin_b = env.twin.array_from(&b_host).map_err(e)?;
        let twin_x = solve(&env.twin, &twin_a, &twin_b)?.x;
        let b_norm = b_host.iter().map(|v| v * v).sum::<f64>().sqrt();
        Ok(State {
            eager: &env.ctx,
            fused,
            a_eager,
            b_eager,
            a_fused,
            b_fused,
            direct,
            twin_x,
            b_norm,
        })
    }
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0, f64::max)
}

impl Runner for State<'_> {
    fn rep(&mut self) -> RepOutcome {
        racc_trace_begin(&[self.eager, self.fused]);
        let before = (self.eager.timeline(), self.fused.timeline());
        let steal0 = self.eager.stats().steal.map(|s| s.total());
        let eager = match solve(self.eager, &self.a_eager, &self.b_eager) {
            Ok(s) => s,
            Err(e) => return failed(e),
        };
        let steal1 = self.eager.stats().steal.map(|s| s.total());
        let fused = match solve(self.fused, &self.a_fused, &self.b_fused) {
            Ok(s) => s,
            Err(e) => return failed(e),
        };
        let after = (self.eager.timeline(), self.fused.timeline());

        let mut out = RepOutcome::new(eager.wall_s + fused.wall_s);
        racc_trace_totals(&mut out, &[self.eager, self.fused]);
        out.push("digest", digest(eager.history.iter().copied()));
        out.push("eager_s", eager.wall_s);
        out.push("fused_s", fused.wall_s);
        out.push("iterations", 2.0 * ITERATIONS as f64);
        out.push(
            "modeled_ns",
            ((after.0.modeled_ns - before.0.modeled_ns)
                + (after.1.modeled_ns - before.1.modeled_ns)) as f64,
        );
        let constructs = |a: &racc::TimelineSnapshot, b: &racc::TimelineSnapshot| {
            ((a.launches - b.launches) + (a.reductions - b.reductions)) as f64
        };
        out.push("constructs_eager", constructs(&after.0, &before.0));
        out.push("constructs_fused", constructs(&after.1, &before.1));
        out.push("launches", (after.0.launches - before.0.launches) as f64);
        out.push(
            "reductions",
            (after.0.reductions - before.0.reductions) as f64,
        );
        if let (Some(s0), Some(s1)) = (steal0, steal1) {
            out.push("wakes", (s1.wakes - s0.wakes) as f64);
            out.push("parks", (s1.parks - s0.parks) as f64);
            out.push("stolen", (s1.stolen - s0.stolen) as f64);
            out.push("executed", (s1.executed - s0.executed) as f64);
        }
        let residual = f64::from_bits(*eager.history.last().expect("200 iterations"));
        out.push("final_residual", residual);

        // Fused execution is pinned bit-identical to eager on one backend.
        out.check(
            hash_bits(eager.history.iter().copied()) == hash_bits(fused.history.iter().copied()),
            || "fused residual history differs from eager".into(),
        );
        out.check(
            residual.is_finite() && residual <= 1e-9 * self.b_norm,
            || format!("final residual {residual} after {ITERATIONS} iterations"),
        );
        let scale = self.direct.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let err = max_abs_diff(&eager.x, &self.direct);
        out.check(err <= 1e-8 * scale, || {
            format!("x off thomas_solve by {err}")
        });
        let drift = max_abs_diff(&eager.x, &self.twin_x);
        out.check(drift <= 1e-10 * scale, || {
            format!("x off the serial twin by {drift}")
        });
        out
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let faults = self.eager.stats().faults.injected + self.fused.stats().faults.injected;
        vec![("retries", faults as f64)]
    }
}

fn failed(why: String) -> RepOutcome {
    let mut out = RepOutcome::new(f64::NAN);
    out.fail(why);
    out
}
