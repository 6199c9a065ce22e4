//! End-to-end fault-injection tests: determinism of seeded schedules,
//! bit-identical recovery under transient faults with retries, and
//! graceful degradation to `threads` on hard device failure.

use racc::prelude::*;
use racc::{FaultPlan, RetryPolicy};

/// A mixed workload: allocations (with uploads), launches, and readbacks,
/// so every injection site gets plenty of draws.
fn chaos_workload(ctx: &Ctx) -> f64 {
    let mut acc = 0.0f64;
    for k in 0..200usize {
        let n = 64 + (k % 7) * 16;
        let x = ctx.array_from_fn(n, |i| ((i + k) % 13) as f64).unwrap();
        let xv = x.view_mut();
        ctx.parallel_for(n, &KernelProfile::axpy(), move |i| {
            xv.set(i, xv.get(i) + 1.0);
        });
        let xv = x.view();
        acc += ctx.parallel_reduce(n, &KernelProfile::dot(), move |i| xv.get(i));
    }
    acc
}

#[cfg(feature = "backend-cuda")]
#[test]
fn same_seed_gives_identical_fault_logs_and_results() {
    let run = || {
        let ctx = racc::builder()
            .backend("cudasim")
            .chaos(FaultPlan::seeded(7))
            .retry(RetryPolicy::default())
            .build()
            .unwrap();
        let acc = chaos_workload(&ctx);
        (acc.to_bits(), ctx.fault_log())
    };
    let (acc_a, log_a) = run();
    let (acc_b, log_b) = run();
    assert!(!log_a.is_empty(), "seeded schedule must inject something");
    assert_eq!(log_a, log_b, "same seed must give the same fault schedule");
    assert_eq!(acc_a, acc_b, "results must be bit-identical across runs");
}

#[test]
fn chaos_is_a_noop_on_cpu_backends() {
    let ctx = racc::builder()
        .backend("threads")
        .chaos(FaultPlan::seeded(3))
        .retry(RetryPolicy::default())
        .build()
        .unwrap();
    let acc = chaos_workload(&ctx);
    assert!(acc > 0.0);
    assert!(
        ctx.fault_log().is_empty(),
        "CPU backends have no driver surface to fault"
    );
}

/// The recovery criterion: CG on `cudasim` under a transient
/// transfer-fault schedule, with retries, produces a residual history
/// bit-identical to the fault-free run — faults are injected before the
/// operation's side effects, so a retried operation replays exactly.
#[cfg(feature = "backend-cuda")]
#[test]
fn cg_residual_history_is_bit_identical_under_transient_faults() {
    use racc::FaultSite;
    use racc_cg::solver::CgWorkspace;
    use racc_cg::tridiag::{DeviceTridiag, Tridiag};

    let history = |ctx: &Ctx| -> Vec<u64> {
        let n = 96usize;
        let a = Tridiag::diagonally_dominant(n);
        let da = DeviceTridiag::upload(ctx, &a).unwrap();
        let b = ctx
            .array_from_fn(n, |i| ((i * 37) % 19) as f64 * 0.25 - 2.0)
            .unwrap();
        let mut ws = CgWorkspace::new(ctx, &b).unwrap();
        (0..25).map(|_| ws.iterate(ctx, &da).to_bits()).collect()
    };

    let clean = racc::builder().backend("cudasim").build().unwrap();
    let faulty = racc::builder()
        .backend("cudasim")
        .chaos(FaultPlan::parse("h2d:every-3;d2h:every-4").unwrap())
        .retry(RetryPolicy::default())
        .build()
        .unwrap();

    assert_eq!(
        history(&clean),
        history(&faulty),
        "retried transient faults must not change a single bit"
    );
    assert!(clean.fault_log().is_empty());
    let log = faulty.fault_log();
    assert!(!log.is_empty(), "the schedule must actually have fired");
    assert!(log
        .iter()
        .all(|ev| matches!(ev.site, FaultSite::H2d | FaultSite::D2h)));
}

/// The degradation criterion: a scripted hard device failure (every
/// launch fails, beyond what retries can absorb) falls back to `threads`
/// when requested, still computes correct results, and reports the
/// observed faults plus a `fallback` marker as trace spans.
#[cfg(feature = "backend-cuda")]
#[test]
fn hard_device_failure_falls_back_to_threads() {
    let ctx = racc::builder()
        .backend("cudasim")
        .chaos(FaultPlan::parse("launch:always").unwrap())
        .retry(RetryPolicy::default())
        .fallback(true)
        .trace(true)
        .build()
        .unwrap();
    assert_eq!(ctx.key(), "threads", "hard failure must degrade to threads");

    // The replacement context does real work, correctly.
    let n = 512usize;
    let x = ctx.array_from_fn(n, |i| i as f64).unwrap();
    let xv = x.view();
    let sum: f64 = ctx.parallel_reduce(n, &KernelProfile::dot(), move |i| xv.get(i));
    assert_eq!(sum, (n * (n - 1) / 2) as f64);

    // The probe's injected faults and the fallback decision are visible
    // in the trace.
    let spans = ctx.trace_spans();
    let faults: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == racc::trace::ConstructKind::Fault)
        .collect();
    assert!(
        faults.iter().any(|s| s.name == "launch"),
        "probe faults must be reported"
    );
    assert!(
        faults.iter().any(|s| s.name == "fallback"),
        "the fallback itself must be reported"
    );
}

/// Without `fallback`, the same hard failure surfaces as an error from
/// the construct (the retry policy exhausts) rather than silently
/// degrading — the context keeps the backend the caller asked for.
#[cfg(feature = "backend-cuda")]
#[test]
fn without_fallback_the_backend_is_kept() {
    let ctx = racc::builder()
        .backend("cudasim")
        .chaos(FaultPlan::parse("launch:always").unwrap())
        .retry(RetryPolicy::default())
        .build()
        .unwrap();
    assert_eq!(ctx.key(), "cudasim");
}
