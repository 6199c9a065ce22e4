//! `serve_mix` — a `racc::Server` over 2 devices, three tenants with
//! weights 4/2/1, and 240 jobs of three shapes (a 4-step AXPY chain at
//! n = 4096, a DOT at n = 16384, a 20-iteration CG at n = 4096). The whole
//! arrival schedule is staged under `hold` with `submit_at` — seeded
//! Poisson arrivals at the one-device service rate — and then released:
//! an open loop in *modeled* time, deterministic, generator lateness 0 by
//! construction. The wall metrics are the closed-loop wall to drain the
//! batch (the jobs' own small launches); the scheduler, admission and
//! batching decide the modeled latencies.

use std::sync::Arc;
use std::time::Instant;

use racc::serve::{job_fn, JobCtx};
use racc::{RaccError, Server, ServerOptions, TenantConfig};
use racc_blas::portable as blas;
use racc_cg::solver::CgWorkspace;
use racc_cg::tridiag::{DeviceTridiag, Tridiag};

use crate::cell::{digest, hash_bits, make_ctx, Cell, Env, RepOutcome, Runner};
use crate::rng::Rng;
use crate::spans::span;
use crate::stats;

pub const JOBS: usize = 240;
pub const DEVICES: usize = 2;
/// Distinct input sets per shape; jobs cycle through them.
pub const VARIANTS: usize = 8;
pub const TENANTS: [(&str, u32); 3] = [("interactive", 4), ("batch", 2), ("best-effort", 1)];

pub const AXPY_N: usize = 4_096;
pub const AXPY_STEPS: usize = 4;
pub const DOT_N: usize = 16_384;
pub const CG_N: usize = 4_096;
pub const CG_ITERATIONS: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    AxpyChain = 0,
    Dot = 1,
    Cg = 2,
}

impl Shape {
    fn key(self) -> &'static str {
        match self {
            Shape::AxpyChain => "axpy-chain-4096",
            Shape::Dot => "dot-16384",
            Shape::Cg => "cg20-4096",
        }
    }
}

/// Host inputs of one (shape, variant).
pub struct JobInput {
    shape: Shape,
    x: Vec<f64>,
    y: Vec<f64>,
}

/// One staged submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub tenant: usize,
    pub shape: Shape,
    pub variant: usize,
    pub at_ns: u64,
}

pub fn inputs(seed: u64) -> Vec<Arc<JobInput>> {
    let mut r = Rng::stream(seed, "serve_mix.inputs");
    let mut all = Vec::new();
    for shape in [Shape::AxpyChain, Shape::Dot, Shape::Cg] {
        for _ in 0..VARIANTS {
            let (x, y) = match shape {
                Shape::AxpyChain => (
                    r.vec_uniform(AXPY_N, -1.0, 1.0),
                    r.vec_uniform(AXPY_N, -1.0, 1.0),
                ),
                Shape::Dot => (
                    r.vec_uniform(DOT_N, -1.0, 1.0),
                    r.vec_uniform(DOT_N, -1.0, 1.0),
                ),
                // x is the diagonal (SPD with off-diagonals -1), y the rhs.
                Shape::Cg => (
                    r.vec_uniform(CG_N, 2.5, 3.0),
                    r.vec_uniform(CG_N, -1.0, 1.0),
                ),
            };
            all.push(Arc::new(JobInput { shape, x, y }));
        }
    }
    all
}

/// Jobs per (tenant, shape): interactive and best-effort share the AXPY
/// shape — the cross-tenant batching case; batch is mostly CG. The counts
/// are fixed so that every seed offers the same work; the seed decides the
/// order, the inputs and the arrival times.
const MIX: [(usize, Shape, usize); 6] = [
    (0, Shape::AxpyChain, 84),
    (0, Shape::Dot, 36),
    (1, Shape::Cg, 58),
    (1, Shape::Dot, 14),
    (2, Shape::AxpyChain, 24),
    (2, Shape::Dot, 24),
];

/// Who submits what, in submission order: `(tenant, shape, variant)`.
pub fn job_mix(seed: u64) -> Vec<(usize, Shape, usize)> {
    let mut jobs: Vec<(usize, Shape, usize)> = MIX
        .iter()
        .flat_map(|&(tenant, shape, count)| (0..count).map(move |i| (tenant, shape, i % VARIANTS)))
        .collect();
    debug_assert_eq!(jobs.len(), JOBS);
    // Fisher–Yates with the seeded stream.
    let mut r = Rng::stream(seed, "serve_mix.mix");
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, r.below(i as u64 + 1) as usize);
    }
    jobs
}

/// Poisson arrival times with the given mean gap.
pub fn schedule(seed: u64, mix: &[(usize, Shape, usize)], mean_gap_ns: f64) -> Vec<Arrival> {
    let mut r = Rng::stream(seed, "serve_mix.arrivals");
    let mut at = 0.0f64;
    mix.iter()
        .map(|&(tenant, shape, variant)| {
            at += r.exponential(mean_gap_ns);
            Arrival {
                tenant,
                shape,
                variant,
                at_ns: at as u64,
            }
        })
        .collect()
}

/// The job body: fresh arrays every run, so a served execution must be
/// bit-identical to running alone on a fresh context. Returns a hash of
/// the output bits.
pub fn run_job(
    ctx: &racc::Ctx,
    marks: Option<&JobCtx<'_, racc::AnyBackend>>,
    input: &JobInput,
) -> Result<u64, RaccError> {
    let uploaded = || {
        if let Some(m) = marks {
            m.uploaded();
        }
    };
    let computed = || {
        if let Some(m) = marks {
            m.computed();
        }
    };
    match input.shape {
        Shape::AxpyChain => {
            let (x, y) = (ctx.array_from(&input.x)?, ctx.array_from(&input.y)?);
            uploaded();
            for step in 0..AXPY_STEPS {
                blas::axpy(ctx, 0.25 * (step + 1) as f64, &x, &y);
            }
            computed();
            Ok(hash_bits(ctx.to_host(&x)?.iter().map(|v| v.to_bits())))
        }
        Shape::Dot => {
            let (x, y) = (ctx.array_from(&input.x)?, ctx.array_from(&input.y)?);
            uploaded();
            let d = blas::dot(ctx, &x, &y);
            computed();
            Ok(d.to_bits())
        }
        Shape::Cg => {
            let n = input.x.len();
            let host = Tridiag::new(vec![-1.0; n], input.x.clone(), vec![-1.0; n]);
            let a = DeviceTridiag::upload(ctx, &host)?;
            let b = ctx.array_from(&input.y)?;
            uploaded();
            let mut ws = CgWorkspace::new(ctx, &b)?;
            let mut residual = 0.0;
            for _ in 0..CG_ITERATIONS {
                residual = ws.iterate(ctx, &a);
            }
            computed();
            let x = ctx.to_host(&ws.x)?;
            Ok(hash_bits(
                x.iter().map(|v| v.to_bits()).chain([residual.to_bits()]),
            ))
        }
    }
}

/// What one drained batch reported.
pub struct Drained {
    pub wall_s: f64,
    pub outputs: Vec<Result<u64, String>>,
    pub latencies_ns: Vec<f64>,
    pub queue_delays_ns: Vec<f64>,
    pub snapshot: racc::serve::ServerSnapshot,
    /// Median wall of one `submit_at` call.
    pub submit_ns: f64,
}

/// Stage `arrivals` on a held server, release, wait for every handle.
pub fn serve(backend: &str, inputs: &[Arc<JobInput>], arrivals: &[Arrival]) -> Drained {
    let mut options = ServerOptions::default()
        .devices(DEVICES)
        .batch_limit(8)
        .overlap(true)
        .global_queue_depth(4 * JOBS)
        .hold(true);
    for (name, weight) in TENANTS {
        options = options.tenant(
            name,
            TenantConfig {
                weight,
                queue_depth: JOBS,
                ..TenantConfig::default()
            },
        );
    }
    let key = backend.to_owned();
    let server = span("serve.start", || {
        Server::start(options, move |_device| make_ctx(&key, false))
    });
    let mut submit_ns = Vec::with_capacity(arrivals.len());
    let handles: Vec<_> = arrivals
        .iter()
        .map(|a| {
            let input = Arc::clone(&inputs[a.shape as usize * VARIANTS + a.variant]);
            let job = job_fn(move |job: &JobCtx<'_, racc::AnyBackend>| {
                run_job(job.ctx(), Some(job), &input)
            })
            .with_shape(a.shape.key());
            let t = Instant::now();
            let h = span("serve.submit_at", || {
                server.submit_at(TENANTS[a.tenant].0, a.at_ns, job)
            });
            submit_ns.push(t.elapsed().as_nanos() as f64);
            h
        })
        .collect();
    let t = Instant::now();
    server.release();
    let mut outputs = Vec::with_capacity(handles.len());
    let (mut latencies_ns, mut queue_delays_ns) = (Vec::new(), Vec::new());
    for h in handles {
        match span("serve.wait", || h.wait()) {
            Ok(done) => {
                latencies_ns.push(done.report.latency_ns() as f64);
                queue_delays_ns.push(done.report.queue_delay_ns() as f64);
                outputs.push(Ok(done.output));
            }
            Err(e) => outputs.push(Err(e.to_string())),
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    let snapshot = span("serve.shutdown", || server.shutdown());
    Drained {
        wall_s,
        outputs,
        latencies_ns,
        queue_delays_ns,
        snapshot,
        submit_ns: stats::median(&submit_ns).unwrap_or(f64::NAN),
    }
}

/// Solo references: each distinct job alone on a fresh context of
/// `backend`. Returns the output hashes and the modeled ns of each.
pub fn solo(backend: &str, inputs: &[Arc<JobInput>]) -> Result<(Vec<u64>, Vec<u64>), String> {
    let mut hashes = Vec::new();
    let mut service_ns = Vec::new();
    for input in inputs {
        let ctx = make_ctx(backend, false);
        hashes.push(run_job(&ctx, None, input).map_err(|e| e.to_string())?);
        service_ns.push(ctx.modeled_ns());
    }
    Ok((hashes, service_ns))
}

/// Mean modeled service time of the job mix on one device.
pub fn mean_service_ns(mix: &[(usize, Shape, usize)], service_ns: &[u64]) -> f64 {
    mix.iter()
        .map(|&(_, shape, variant)| service_ns[shape as usize * VARIANTS + variant] as f64)
        .sum::<f64>()
        / mix.len() as f64
}

/// Verify a drained batch against the solo references.
pub fn verify(out: &mut RepOutcome, drained: &Drained, arrivals: &[Arrival], want: &[u64]) {
    for (a, got) in arrivals.iter().zip(&drained.outputs) {
        match got {
            Ok(h) => out.check(*h == want[a.shape as usize * VARIANTS + a.variant], || {
                format!("{:?} job output differs from its solo run", a.shape)
            }),
            Err(e) => out.fail(format!("job failed: {e}")),
        }
    }
    let totals = drained.snapshot.totals;
    out.check(
        totals.completed == arrivals.len() as u64 && totals.rejected == 0,
        || {
            format!(
                "{} completed, {} rejected of {}",
                totals.completed,
                totals.rejected,
                arrivals.len()
            )
        },
    );
}

/// The exact (modeled) figures of one drained batch.
pub fn modeled_extras(out: &mut RepOutcome, d: &Drained) {
    let tail = stats::tail_percentile(d.latencies_ns.len()).unwrap_or(50.0);
    let pct = |v: &[f64], p: f64| stats::percentile(v, p).unwrap_or(f64::NAN);
    out.push("latency_tail_pct", tail);
    out.push("latency_tail_ns", pct(&d.latencies_ns, tail));
    out.push("latency_p50_ns", pct(&d.latencies_ns, 50.0));
    out.push("queue_delay_p50_ns", pct(&d.queue_delays_ns, 50.0));
    out.push("queue_delay_tail_ns", pct(&d.queue_delays_ns, tail));
    out.push("makespan_ns", d.snapshot.makespan_ns as f64);
    out.push("modeled_ns", d.snapshot.makespan_ns as f64);
    let t = d.snapshot.totals;
    out.push("batched_jobs", t.batched_jobs as f64);
    out.push("batches", t.batches as f64);
    out.push("rejected", t.rejected as f64);
    out.push("retried", t.retried as f64);
    out.push("fallbacks", t.fallbacks as f64);
    out.push("submit_ns", d.submit_ns);
}

pub struct ServeMix;

pub struct State<'c> {
    env: &'c Env,
    inputs: Vec<Arc<JobInput>>,
    arrivals: Vec<Arrival>,
    want: Vec<u64>,
}

impl Cell for ServeMix {
    type State<'c> = State<'c>;

    fn build<'c>(env: &'c Env, seed: u64) -> Result<State<'c>, String> {
        let inputs = span("bench.generate", || inputs(seed));
        let (want, service_ns) = span("bench.solo_references", || solo(&env.backend, &inputs))?;
        let mix = job_mix(seed);
        // Offered rate = the service rate of one device; the server has two.
        let arrivals = schedule(seed, &mix, mean_service_ns(&mix, &service_ns));
        Ok(State {
            env,
            inputs,
            arrivals,
            want,
        })
    }
}

impl Runner for State<'_> {
    fn rep(&mut self) -> RepOutcome {
        let drained = serve(&self.env.backend, &self.inputs, &self.arrivals);
        let mut out = RepOutcome::new(drained.wall_s);
        modeled_extras(&mut out, &drained);
        out.push(
            "digest",
            digest(drained.outputs.iter().map(|o| *o.as_ref().unwrap_or(&0))),
        );
        verify(&mut out, &drained, &self.arrivals, &self.want);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let mix = job_mix(5);
        assert_eq!(mix, job_mix(5));
        assert_ne!(mix, job_mix(6));
        let a = schedule(5, &mix, 1000.0);
        assert_eq!(a, schedule(5, &mix, 1000.0));
        assert_eq!(a.len(), JOBS);
        assert!(
            a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
            "arrivals ordered"
        );
        // Mean gap near the requested one.
        let mean = a.last().unwrap().at_ns as f64 / JOBS as f64;
        assert!((700.0..1300.0).contains(&mean), "mean gap {mean}");
        // Every seed offers the same jobs, in another order.
        let count = |mix: &[(usize, Shape, usize)], t: usize, s: Shape| {
            mix.iter().filter(|j| j.0 == t && j.1 == s).count()
        };
        let other = job_mix(6);
        assert_eq!(MIX.iter().map(|m| m.2).sum::<usize>(), JOBS);
        for (tenant, shape, n) in MIX {
            assert_eq!(count(&mix, tenant, shape), n);
            assert_eq!(count(&other, tenant, shape), n);
        }
    }
}
