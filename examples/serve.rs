//! Serving many tenants from one process: a `racc_serve::Server` pools
//! four simulated GPU contexts and multiplexes three tenants' jobs across
//! them — weighted fairness, cross-tenant batching over the shared plan
//! cache, and a last-resort fallback context, all on the modeled clock.
//!
//! ```text
//! cargo run --release --example serve
//! ```

use racc::serve::{job_fn, JobCtx, Server, ServerOptions, TenantConfig};
use racc::{cuda_backend, fuse::lit, fuse::load, fuse::LazyExt, Context, RaccError, SimBackend};

fn cg_update(job: &JobCtx<'_, SimBackend>, n: usize, alpha: f64) -> Result<f64, RaccError> {
    let ctx = job.ctx();
    let mk = |k: usize| ctx.array_from_fn(n, move |i| ((i * k) % 13) as f64 * 0.5 - 3.0);
    let (x, p, r, s) = (mk(3)?, mk(5)?, mk(7)?, mk(11)?);
    job.uploaded();
    let mut l = ctx.lazy();
    l.store(&x, load(&x) + lit(alpha) * load(&p));
    let rv = l.assign(&r, load(&r) + lit(-alpha) * load(&s));
    let v = l.sum(rv.clone() * rv);
    job.computed();
    let _ = ctx.to_host(&x)?;
    Ok(v)
}

fn main() {
    let options = ServerOptions::default()
        .devices(4)
        .batch_limit(8)
        .fallback(true)
        .hold(true)
        .tenant(
            "interactive",
            TenantConfig {
                weight: 4,
                ..TenantConfig::default()
            },
        )
        .tenant("batch", TenantConfig::default())
        .tenant(
            "best-effort",
            TenantConfig {
                queue_depth: 8,
                ..TenantConfig::default()
            },
        );
    let server = Server::start(options, |_device| Context::new(cuda_backend()));

    // An open-loop schedule: tenants submit at their own modeled rates;
    // same-shape jobs (keyed "cg-64k") may batch onto one device.
    let mut handles = Vec::new();
    for i in 0..24u64 {
        handles.push(server.submit_at(
            "interactive",
            i * 40_000,
            job_fn(|job: &JobCtx<SimBackend>| cg_update(job, 1 << 16, 0.8125)).with_shape("cg-64k"),
        ));
    }
    for i in 0..12u64 {
        handles.push(server.submit_at(
            "batch",
            i * 80_000,
            job_fn(|job: &JobCtx<SimBackend>| cg_update(job, 1 << 18, 0.5)),
        ));
    }
    for i in 0..12u64 {
        handles.push(server.submit_at(
            "best-effort",
            i * 80_000,
            job_fn(|job: &JobCtx<SimBackend>| cg_update(job, 1 << 16, 0.25)).with_shape("cg-64k"),
        ));
    }
    server.release();

    let mut latencies: Vec<u64> = Vec::new();
    for h in handles {
        match h.wait() {
            Ok(done) => latencies.push(done.report.latency_ns()),
            Err(err) => println!("shed/failed: {err}"),
        }
    }
    latencies.sort_unstable();
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];

    let snap = server.shutdown();
    println!(
        "pool of 4 simulated devices, makespan {} us",
        snap.makespan_ns / 1_000
    );
    println!(
        "jobs: {} admitted, {} completed, {} shed, {} co-batched",
        snap.totals.admitted, snap.totals.completed, snap.totals.rejected, snap.totals.batched_jobs
    );
    println!(
        "latency p50 {} us, p99 {} us",
        pct(0.5) / 1_000,
        pct(0.99) / 1_000
    );
    for t in &snap.tenants {
        println!(
            "  tenant {:<12} weight {} -> {} completed, {} rejected",
            t.name, t.weight, t.completed, t.rejected
        );
    }
}
