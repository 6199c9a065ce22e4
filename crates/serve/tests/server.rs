//! End-to-end serving-layer tests: bit-identity vs solo contexts, weighted
//! fairness, admission shed, cross-tenant batching over one cached plan,
//! the chaos degradation ladder, and modeled multi-device speedup.

use racc_backend_common::{cuda_backend, SimBackend};
use racc_core::{
    Backend, Context, FaultPlan, KernelProfile, RaccError, RetryPolicy, SerialBackend,
};
use racc_fuse::{lit, load, LazyExt};
use racc_serve::{job_fn, JobCtx, ServeError, Server, ServerOptions, TenantConfig};

/// The canonical job: fresh arrays, a fused CG-like update, a scalar out.
/// Allocating inside `run` makes every execution independent, so the
/// serve-layer result must be bit-identical to a solo fresh context.
fn cg_step<B: Backend>(job: &JobCtx<'_, B>, n: usize, alpha: f64) -> Result<f64, RaccError> {
    let ctx = job.ctx();
    let [x, p, r, s] = mk_arrays(ctx, n)?;
    job.uploaded();
    let mut l = ctx.lazy();
    l.store(&x, load(&x) + lit(alpha) * load(&p));
    let rv = l.assign(&r, load(&r) + lit(-alpha) * load(&s));
    let v = l.sum(rv.clone() * rv);
    job.computed();
    let _ = ctx.to_host(&x)?;
    Ok(v)
}

fn mk_arrays<B: Backend>(
    ctx: &Context<B>,
    n: usize,
) -> Result<[racc_core::Array1<f64>; 4], RaccError> {
    let mk = |k: usize| ctx.array_from_fn(n, move |i| ((i * k) % 13) as f64 * 0.5 - 3.0);
    Ok([mk(3)?, mk(5)?, mk(7)?, mk(11)?])
}

/// `cg_step`'s value on a fresh context of its own.
fn solo_value<B: Backend>(ctx: &Context<B>, n: usize, alpha: f64) -> f64 {
    let [x, p, r, s] = mk_arrays(ctx, n).unwrap();
    let mut l = ctx.lazy();
    l.store(&x, load(&x) + lit(alpha) * load(&p));
    let rv = l.assign(&r, load(&r) + lit(-alpha) * load(&s));
    l.sum(rv.clone() * rv)
}

fn solo_reference(n: usize, alpha: f64) -> f64 {
    solo_value(&Context::new(SerialBackend::new()), n, alpha)
}

#[test]
fn results_are_bit_identical_to_running_alone() {
    let server = Server::start(ServerOptions::default().devices(3), |_d| {
        Context::new(SerialBackend::new())
    });
    let want = solo_reference(257, 0.8125);
    let handles: Vec<_> = (0..12)
        .map(|i| {
            let tenant = if i % 2 == 0 { "alice" } else { "bob" };
            server.submit_at(
                tenant,
                (i as u64) * 100,
                job_fn(move |job: &JobCtx<SerialBackend>| cg_step(job, 257, 0.8125)),
            )
        })
        .collect();
    for h in handles {
        let done = h.wait().expect("job completes");
        assert_eq!(done.output.to_bits(), want.to_bits());
        assert!(done.report.device < 3);
        assert!(done.report.dispatched_ns >= done.report.arrival_ns);
        assert!(done.report.completion_ns >= done.report.dispatched_ns);
        assert_eq!(done.report.attempts, 1);
        assert!(!done.report.fell_back);
    }
    let snap = server.shutdown();
    assert_eq!(snap.totals.admitted, 12);
    assert_eq!(snap.totals.completed, 12);
    assert_eq!(snap.totals.rejected, 0);
    assert_eq!(snap.totals.failed, 0);
}

#[test]
fn weighted_fairness_splits_dispatch_order_by_weight() {
    let server = Server::start(
        ServerOptions::default()
            .devices(1)
            .hold(true)
            .tenant("light", TenantConfig::default())
            .tenant(
                "heavy",
                TenantConfig {
                    weight: 3,
                    ..TenantConfig::default()
                },
            ),
        |_d| Context::new(SerialBackend::new()),
    );
    let submit = |tenant: &str| {
        server.submit_at(
            tenant,
            0,
            job_fn(move |job: &JobCtx<SerialBackend>| {
                let ctx = job.ctx();
                let x = ctx.array_from_fn(512, |i| i as f64)?;
                let xs = x.view();
                Ok(ctx.parallel_reduce(512, &KernelProfile::dot(), move |i| xs.get(i)))
            }),
        )
    };
    let light: Vec<_> = (0..24).map(|_| submit("light")).collect();
    let heavy: Vec<_> = (0..24).map(|_| submit("heavy")).collect();
    server.release();

    let mut order: Vec<(u64, bool)> = Vec::new();
    for h in light {
        order.push((h.wait().unwrap().report.dispatched_ns, false));
    }
    for h in heavy {
        order.push((h.wait().unwrap().report.dispatched_ns, true));
    }
    order.sort_unstable();
    let heavy_in_first_16 = order[..16].iter().filter(|(_, heavy)| *heavy).count();
    // Equal-cost jobs, weights 1:3 -> the contended prefix should dispatch
    // roughly 3 heavy jobs per light one (12 of 16), modulo startup.
    assert!(
        (10..=14).contains(&heavy_in_first_16),
        "weight-3 tenant got {heavy_in_first_16}/16 of the contended prefix"
    );
    server.shutdown();
}

#[test]
fn admission_sheds_beyond_tenant_and_global_depths() {
    // Tenant bound first: depth 2, five simultaneous arrivals.
    let server = Server::start(
        ServerOptions::default().devices(1).hold(true).tenant(
            "bursty",
            TenantConfig {
                queue_depth: 2,
                ..TenantConfig::default()
            },
        ),
        |_d| Context::new(SerialBackend::new()),
    );
    let handles: Vec<_> = (0..5)
        .map(|_| server.submit_at("bursty", 0, job_fn(|_job: &JobCtx<SerialBackend>| Ok(1u32))))
        .collect();
    server.release();
    let mut ok = 0;
    let mut shed = 0;
    for h in handles {
        match h.wait() {
            Ok(_) => ok += 1,
            Err(ServeError::TenantQueueFull { tenant, depth }) => {
                assert_eq!(tenant, "bursty");
                assert_eq!(depth, 2);
                shed += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!((ok, shed), (2, 3));
    let snap = server.shutdown();
    assert_eq!(snap.totals.rejected, 3);
    assert_eq!(snap.tenants[0].rejected, 3);
    assert_eq!(snap.tenants[0].queued, 0);

    // Server-wide bound: global depth 3 across two tenants.
    let server = Server::start(
        ServerOptions::default()
            .devices(1)
            .global_queue_depth(3)
            .hold(true),
        |_d| Context::new(SerialBackend::new()),
    );
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let tenant = if i % 2 == 0 { "a" } else { "b" };
            server.submit_at(tenant, 0, job_fn(|_job: &JobCtx<SerialBackend>| Ok(1u32)))
        })
        .collect();
    server.release();
    let saturated = handles
        .into_iter()
        .filter(|h| {
            matches!(
                h.wait_timeout(std::time::Duration::from_secs(30)),
                Some(Err(ServeError::Saturated { depth: 3 }))
            )
        })
        .count();
    assert_eq!(saturated, 3);
    let snap = server.shutdown();
    assert_eq!(snap.totals.admitted, 3);
    assert_eq!(snap.totals.rejected, 3);
}

#[test]
fn same_shape_jobs_batch_across_tenants_onto_one_cached_plan() {
    let server = Server::start(
        ServerOptions::default()
            .devices(1)
            .batch_limit(16)
            .hold(true),
        |_d| Context::new(SerialBackend::new()),
    );
    let want = solo_reference(257, 0.8125);
    let handles: Vec<_> = (0..16)
        .map(|i| {
            let tenant = if i < 8 { "alice" } else { "bob" };
            server.submit_at(
                tenant,
                0,
                job_fn(move |job: &JobCtx<SerialBackend>| cg_step(job, 257, 0.8125))
                    .with_shape("cg-257"),
            )
        })
        .collect();
    // A probe job staged far in the future runs after the wave drains and
    // reads the pool context's plan cache.
    let probe = server.submit_at(
        "alice",
        1 << 40,
        job_fn(|job: &JobCtx<SerialBackend>| {
            let pc = job.ctx().stats().plan_cache;
            Ok((pc.hits, pc.misses, pc.entries))
        }),
    );
    server.release();
    for h in handles {
        let done = h.wait().expect("batched job completes");
        assert_eq!(done.output.to_bits(), want.to_bits());
        assert_eq!(done.report.batch, 16, "the whole wave rides one dispatch");
        assert_eq!(done.report.device, 0);
    }
    let (hits, misses, entries) = probe.wait().unwrap().output;
    assert_eq!(misses, 1, "first job compiles the plan");
    assert_eq!(hits, 15, "the other fifteen share it");
    assert_eq!(entries, 1);
    let snap = server.shutdown();
    assert_eq!(snap.totals.batched_jobs, 16);
    assert!(snap.totals.batches >= 2, "the wave plus the probe dispatch");
}

#[test]
fn retry_rescues_a_transient_fault_bit_identically() {
    // The first kernel launch on the pool context faults (and panics:
    // no backend-level retry); the server's ladder retries the whole job
    // and the second attempt runs clean.
    let server = Server::start(
        ServerOptions::default().devices(1).retry(RetryPolicy {
            max_attempts: 2,
            base_backoff_ns: 1_000,
            multiplier: 2,
        }),
        |_d| {
            Context::builder(cuda_backend())
                .chaos(FaultPlan::parse("launch:nth-1").unwrap())
                .retry(RetryPolicy::none())
                .build()
        },
    );
    let clean = {
        let ctx = Context::new(cuda_backend());
        let x = ctx.array_from_fn(256, |i| (i % 7) as f64).unwrap();
        let xs = x.view();
        ctx.parallel_reduce(256, &KernelProfile::dot(), move |i| xs.get(i) * 2.0)
    };
    let done = server
        .submit(
            "alice",
            job_fn(|job: &JobCtx<SimBackend>| {
                let ctx = job.ctx();
                let x = ctx.array_from_fn(256, |i| (i % 7) as f64)?;
                job.uploaded();
                let xs = x.view();
                Ok(ctx.parallel_reduce(256, &KernelProfile::dot(), move |i| xs.get(i) * 2.0))
            }),
        )
        .wait()
        .expect("retry rescues the job");
    assert_eq!(done.output.to_bits(), clean.to_bits());
    assert_eq!(done.report.attempts, 2);
    assert!(!done.report.fell_back);
    let snap = server.shutdown();
    assert_eq!(snap.totals.retried, 1);
    assert_eq!(snap.totals.completed, 1);
    assert_eq!(snap.totals.failed, 0);
}

#[test]
fn fallback_context_rescues_a_persistently_faulting_device() {
    // Device 0 faults every launch; the extra factory call (index ==
    // devices) builds the clean last-resort context.
    let server = Server::start(
        ServerOptions::default()
            .devices(1)
            .retry(RetryPolicy {
                max_attempts: 2,
                base_backoff_ns: 1_000,
                multiplier: 2,
            })
            .fallback(true),
        |device| {
            if device == 0 {
                Context::builder(cuda_backend())
                    .chaos(FaultPlan::parse("launch:always").unwrap())
                    .retry(RetryPolicy::none())
                    .build()
            } else {
                Context::new(cuda_backend())
            }
        },
    );
    let done = server
        .submit(
            "alice",
            job_fn(|job: &JobCtx<SimBackend>| {
                let ctx = job.ctx();
                let x = ctx.array_from_fn(128, |i| i as f64)?;
                let xs = x.view();
                Ok(ctx.parallel_reduce(128, &KernelProfile::dot(), move |i| xs.get(i)))
            }),
        )
        .wait()
        .expect("fallback context completes the job");
    assert_eq!(done.output, (0..128).sum::<i32>() as f64);
    assert!(done.report.fell_back);
    assert_eq!(done.report.attempts, 3, "two primary attempts + fallback");
    let snap = server.shutdown();
    assert_eq!(snap.totals.fallbacks, 1);
    assert_eq!(snap.totals.retried, 1);
    assert_eq!(snap.totals.completed, 1);
}

#[test]
fn a_failing_job_resolves_alone_and_never_poisons_the_pool() {
    let server = Server::start(ServerOptions::default().devices(1), |_d| {
        Context::new(SerialBackend::new())
    });
    let poison = server.submit(
        "mallory",
        job_fn(|_job: &JobCtx<SerialBackend>| -> Result<u32, RaccError> {
            panic!("synthetic job bug")
        }),
    );
    match poison.wait() {
        Err(ServeError::JobFailed {
            tenant,
            attempts,
            error,
        }) => {
            assert_eq!(tenant, "mallory");
            assert_eq!(attempts, 1);
            assert!(error.contains("synthetic job bug"), "{error}");
        }
        other => panic!("expected JobFailed, got {other:?}"),
    }
    // The pool keeps serving other tenants afterwards.
    let done = server
        .submit("alice", job_fn(|_job: &JobCtx<SerialBackend>| Ok(7u32)))
        .wait()
        .expect("pool survives a panicking job");
    assert_eq!(done.output, 7);
    let snap = server.shutdown();
    assert_eq!(snap.totals.failed, 1);
    assert_eq!(snap.totals.completed, 1);
    let mallory = snap.tenants.iter().find(|t| t.name == "mallory").unwrap();
    assert_eq!(mallory.failed, 1);
}

#[test]
fn four_devices_beat_one_on_modeled_makespan() {
    let run = |devices: usize| {
        let server = Server::start(ServerOptions::default().devices(devices).hold(true), |_d| {
            Context::new(cuda_backend())
        });
        let handles: Vec<_> = (0..32)
            .map(|_| {
                server.submit_at(
                    "alice",
                    0,
                    job_fn(move |job: &JobCtx<SimBackend>| cg_step(job, 1024, 0.5)),
                )
            })
            .collect();
        server.release();
        for h in handles {
            h.wait().expect("job completes");
        }
        server.shutdown().makespan_ns
    };
    let one = run(1);
    let four = run(4);
    assert!(one > 0 && four > 0);
    let speedup = one as f64 / four as f64;
    assert!(
        speedup >= 2.5,
        "4 modeled devices should cut the makespan ~4x, got {speedup:.2}x ({one} vs {four})"
    );
}

/// One tenant of the reference mix.
struct Tenant {
    name: &'static str,
    weight: u32,
    /// `cg_step`'s length and coefficient.
    n: usize,
    alpha: f64,
    /// The batching shape (`None`: never batched).
    shape: Option<&'static str>,
    jobs: u64,
    /// Modeled time between two arrivals.
    gap_ns: u64,
}

/// The reference three-tenant open-loop mix: an interactive tenant (heavy
/// weight, small jobs, the fastest arrivals), a batch tenant (unit weight,
/// 4× the work per job), and a best-effort tenant whose jobs share the
/// interactive shape — the cross-tenant batching case.
const MIX: [Tenant; 3] = [
    Tenant {
        name: "interactive",
        weight: 4,
        n: 1 << 14,
        alpha: 0.8125,
        shape: Some("cg-small"),
        jobs: 48,
        gap_ns: 20_000,
    },
    Tenant {
        name: "batch",
        weight: 1,
        n: 1 << 16,
        alpha: 0.5,
        shape: None,
        jobs: 24,
        gap_ns: 50_000,
    },
    Tenant {
        name: "best-effort",
        weight: 1,
        n: 1 << 14,
        alpha: 0.25,
        shape: Some("cg-small"),
        jobs: 24,
        gap_ns: 40_000,
    },
];

/// Serve [`MIX`] on `devices` pool contexts built by `factory`, staged with
/// `hold` so the schedule is a function of the load alone. Every job must
/// complete bit-identical to `want[tenant]`; returns the modeled makespan
/// and the jobs' modeled latencies, ascending.
fn serve_mix(
    devices: usize,
    want: &[u64],
    factory: impl FnMut(usize) -> Context<SimBackend>,
) -> (u64, Vec<u64>) {
    let mut options = ServerOptions::default()
        .devices(devices)
        .batch_limit(8)
        .overlap(true)
        .fallback(true)
        .retry(RetryPolicy {
            max_attempts: 3,
            base_backoff_ns: 1_000,
            multiplier: 2,
        })
        .hold(true);
    for tenant in &MIX {
        options = options.tenant(
            tenant.name,
            TenantConfig {
                weight: tenant.weight,
                ..TenantConfig::default()
            },
        );
    }
    let server = Server::start(options, factory);
    let mut handles = Vec::new();
    for (kind, tenant) in MIX.iter().enumerate() {
        let (n, alpha) = (tenant.n, tenant.alpha);
        for i in 0..tenant.jobs {
            let mut job = job_fn(move |job: &JobCtx<SimBackend>| cg_step(job, n, alpha));
            if let Some(shape) = tenant.shape {
                job = job.with_shape(shape);
            }
            handles.push((kind, server.submit_at(tenant.name, i * tenant.gap_ns, job)));
        }
    }
    server.release();

    let mut latencies: Vec<u64> = handles
        .into_iter()
        .map(|(kind, handle)| {
            let done = handle.wait().expect("the mix fits every queue");
            assert_eq!(
                done.output.to_bits(),
                want[kind],
                "{} job on {devices} device(s) differs from a solo context",
                MIX[kind].name
            );
            done.report.latency_ns()
        })
        .collect();
    let jobs: u64 = MIX.iter().map(|tenant| tenant.jobs).sum();
    let snap = server.shutdown();
    assert_eq!((snap.totals.admitted, snap.totals.completed), (jobs, jobs));
    latencies.sort_unstable();
    (snap.makespan_ns, latencies)
}

/// The serving layer's reference load on 1, 2 and 4 simulated A100s:
/// every job bit-identical to a solo fresh context, the 4-device pool at
/// least 1.5× faster than one device with p99 ≤ 1 ms (it reads 3.17× and
/// 136 µs) — and, under the seeded fault plan of the chaos soak with the
/// default retry policy, still bit-identical. The plan does fire: its
/// faults move the modeled latencies.
#[test]
fn the_reference_mix_scales_and_stays_bit_identical_under_chaos() {
    let want: Vec<u64> = MIX
        .iter()
        .map(|tenant| {
            let ctx = Context::new(cuda_backend());
            solo_value(&ctx, tenant.n, tenant.alpha).to_bits()
        })
        .collect();
    let clean = |_device: usize| Context::new(cuda_backend());

    let (one, _) = serve_mix(1, &want, clean);
    serve_mix(2, &want, clean);
    let (four, latencies) = serve_mix(4, &want, clean);
    let speedup = one as f64 / four as f64;
    let p99 = latencies[(latencies.len() - 1) * 99 / 100];
    assert!(
        speedup >= 1.5,
        "4 devices must serve the mix >= 1.5x faster, got {speedup:.2}x ({one} vs {four} ns)"
    );
    assert!(p99 <= 1_000_000, "p99 latency {p99} ns exceeds 1 ms");

    let (_, faulted) = serve_mix(4, &want, |_device| {
        Context::builder(cuda_backend())
            .chaos(FaultPlan::seeded(20240809))
            .retry(RetryPolicy::default())
            .build()
    });
    assert_ne!(faulted, latencies, "the seeded plan injected no fault");
}

#[test]
fn overlap_shortens_the_modeled_makespan_on_one_device() {
    let run = |overlap: bool| {
        let server = Server::start(
            ServerOptions::default()
                .devices(1)
                .overlap(overlap)
                .hold(true),
            |_d| Context::new(cuda_backend()),
        );
        let handles: Vec<_> = (0..16)
            .map(|_| {
                server.submit_at(
                    "alice",
                    0,
                    job_fn(move |job: &JobCtx<SimBackend>| cg_step(job, 4096, 0.5)),
                )
            })
            .collect();
        server.release();
        for h in handles {
            h.wait().expect("job completes");
        }
        server.shutdown().makespan_ns
    };
    let pipelined = run(true);
    let serial = run(false);
    assert!(
        pipelined < serial,
        "overlapping H2D/compute/D2H must shorten the pipeline: {pipelined} vs {serial}"
    );
}

#[test]
fn identical_loads_replay_identical_schedules() {
    let run = || {
        let server = Server::start(ServerOptions::default().devices(2).hold(true), |_d| {
            Context::new(SerialBackend::new())
        });
        let handles: Vec<_> = (0..10)
            .map(|i| {
                let tenant = if i % 3 == 0 { "a" } else { "b" };
                server.submit_at(
                    tenant,
                    (i as u64) * 37,
                    job_fn(move |job: &JobCtx<SerialBackend>| cg_step(job, 128 + i, 0.25)),
                )
            })
            .collect();
        server.release();
        let schedule: Vec<_> = handles
            .into_iter()
            .map(|h| {
                let done = h.wait().unwrap();
                (
                    done.report.id,
                    done.report.device,
                    done.report.dispatched_ns,
                    done.report.completion_ns,
                    done.output.to_bits(),
                )
            })
            .collect();
        (schedule, server.shutdown())
    };
    let (s1, snap1) = run();
    let (s2, snap2) = run();
    assert_eq!(s1, s2, "same load, same modeled schedule, same bits");
    assert_eq!(snap1.totals, snap2.totals);
}

#[test]
fn tenant_prefs_tables_configure_the_scheduler() {
    let mut prefs = racc_prefs::Preferences::new();
    prefs.set_tenant(
        "alice",
        &racc_prefs::TenantPrefs {
            weight: Some(5),
            max_in_flight: Some(2),
            queue_depth: Some(3),
        },
    );
    let options = ServerOptions::default().with_prefs(&prefs);
    let (name, cfg) = &options.tenants[0];
    assert_eq!(name, "alice");
    assert_eq!(
        *cfg,
        TenantConfig {
            weight: 5,
            max_in_flight: 2,
            queue_depth: 3,
        }
    );

    // And the depth actually gates admission.
    let server = Server::start(options.devices(1).hold(true), |_d| {
        Context::new(SerialBackend::new())
    });
    let handles: Vec<_> = (0..5)
        .map(|_| server.submit_at("alice", 0, job_fn(|_j: &JobCtx<SerialBackend>| Ok(0u8))))
        .collect();
    server.release();
    let shed = handles
        .into_iter()
        .filter(|h| {
            matches!(
                h.wait_timeout(std::time::Duration::from_secs(30)),
                Some(Err(ServeError::TenantQueueFull { depth: 3, .. }))
            )
        })
        .count();
    assert_eq!(shed, 2);
    server.shutdown();
}

#[test]
fn max_in_flight_caps_count_as_preemptions() {
    // A capped tenant shares one device with an uncapped one: while the
    // capped tenant's single modeled in-flight job drains, the scheduler
    // passes it over (counted as preempted) and serves the other tenant.
    let server = Server::start(
        ServerOptions::default().devices(1).hold(true).tenant(
            "capped",
            TenantConfig {
                weight: 8,
                max_in_flight: 1,
                ..TenantConfig::default()
            },
        ),
        |_d| Context::new(SerialBackend::new()),
    );
    let submit = |tenant: &str| {
        server.submit_at(
            tenant,
            0,
            job_fn(move |job: &JobCtx<SerialBackend>| cg_step(job, 256, 0.5)),
        )
    };
    let handles: Vec<_> = (0..6)
        .map(|i| submit(if i % 2 == 0 { "capped" } else { "free" }))
        .collect();
    server.release();
    for h in handles {
        h.wait().expect("capped jobs still drain");
    }
    let snap = server.shutdown();
    assert_eq!(snap.totals.completed, 6);
    assert!(
        snap.totals.preempted > 0,
        "the cap must have held the tenant back at least once: {:?}",
        snap.totals
    );
}
