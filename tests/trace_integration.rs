//! Cross-backend integration tests for the `racc-trace` span recorder: on
//! every backend, the recorder's spans must reconcile exactly with the
//! backend's [`TimelineSnapshot`] counters — same launch/reduction counts,
//! same transfer byte totals, same modeled nanoseconds.

use racc::prelude::*;
use racc::trace::{json, total_modeled_ns, ConstructKind};

fn traced(key: &str) -> Ctx {
    racc::builder()
        .backend(key)
        .trace(true)
        .build()
        .expect("known backend key")
}

/// A workload touching every construct family: transfers (alloc/upload and
/// download), 1D/2D/3D `parallel_for`, and 1D/2D reductions.
fn workload(ctx: &Ctx) -> f64 {
    let n = 8192usize;
    let x = ctx.array_from_fn(n, |i| (i % 100) as f64).expect("alloc x");
    let y = ctx
        .array_from_fn(n, |i| ((i + 3) % 50) as f64)
        .expect("alloc y");
    let (xv, yv) = (x.view_mut(), y.view());
    ctx.parallel_for(n, &KernelProfile::axpy(), move |i| {
        xv.set(i, xv.get(i) + 1.5 * yv.get(i));
    });
    let (xv, yv) = (x.view(), y.view());
    let dot: f64 = ctx.parallel_reduce(n, &KernelProfile::dot(), move |i| xv.get(i) * yv.get(i));

    let s = 64usize;
    let m = ctx.zeros2(s, s).expect("alloc m");
    let mv = m.view_mut();
    ctx.parallel_for_2d((s, s), &KernelProfile::axpy(), move |i, j| {
        mv.set(i, j, (i + j) as f64);
    });
    let mv = m.view();
    let sum2: f64 = ctx.parallel_reduce_2d((s, s), &KernelProfile::dot(), move |i, j| mv.get(i, j));

    let c = ctx.zeros3(8, 8, 8).expect("alloc c");
    let cv = c.view_mut();
    ctx.parallel_for_3d((8, 8, 8), &KernelProfile::axpy(), move |i, j, k| {
        cv.set(i, j, k, (i * j * k) as f64);
    });

    let host = ctx.to_host(&x).expect("download");
    dot + sum2 + host[0]
}

#[test]
fn spans_reconcile_with_timeline_on_every_backend() {
    for key in racc::available_backends() {
        let ctx = traced(key);
        let _ = workload(&ctx);

        let recorder = ctx.tracer().expect("traced context has a recorder");
        assert_eq!(recorder.dropped(), 0, "{key}: ring buffer overflowed");
        let spans = ctx.trace_spans();
        assert!(!spans.is_empty(), "{key}: no spans recorded");
        let snap = ctx.timeline();

        let fors = spans
            .iter()
            .filter(|s| {
                matches!(
                    s.kind,
                    ConstructKind::For1d | ConstructKind::For2d | ConstructKind::For3d
                )
            })
            .count() as u64;
        let reduces = spans
            .iter()
            .filter(|s| {
                matches!(
                    s.kind,
                    ConstructKind::Reduce1d | ConstructKind::Reduce2d | ConstructKind::Reduce3d
                )
            })
            .count() as u64;
        assert_eq!(fors, snap.launches, "{key}: for-span count vs launches");
        assert_eq!(
            reduces, snap.reductions,
            "{key}: reduce-span count vs reductions"
        );

        let h2d: u64 = spans
            .iter()
            .filter(|s| s.kind == ConstructKind::H2d)
            .map(|s| s.bytes)
            .sum();
        let d2h: u64 = spans
            .iter()
            .filter(|s| s.kind == ConstructKind::D2h)
            .map(|s| s.bytes)
            .sum();
        assert_eq!(h2d, snap.h2d_bytes, "{key}: h2d byte sum");
        assert_eq!(d2h, snap.d2h_bytes, "{key}: d2h byte sum");

        assert_eq!(
            total_modeled_ns(&spans),
            snap.modeled_ns,
            "{key}: span modeled-ns sum vs timeline"
        );
    }
}

#[test]
fn cpu_backends_record_real_wall_clock() {
    for key in ["serial", "threads"] {
        let ctx = traced(key);
        let _ = workload(&ctx);
        let spans = ctx.trace_spans();
        assert!(
            spans.iter().any(|s| s.real_ns > 0
                && matches!(s.kind, ConstructKind::For1d | ConstructKind::Reduce1d)),
            "{key}: expected real wall-clock time on construct spans"
        );
    }
}

#[test]
fn threads_backend_emits_worker_chunk_spans() {
    let ctx = racc::builder()
        .backend("threads")
        .threads(4)
        .trace(true)
        .build()
        .expect("threads backend");
    let _ = workload(&ctx);
    let spans = ctx.trace_spans();
    let chunks: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == ConstructKind::WorkerChunk)
        .collect();
    assert!(!chunks.is_empty(), "expected per-worker chunk spans");
    // Chunk spans measure real time only; they must not perturb the
    // modeled-ns reconciliation.
    assert!(chunks.iter().all(|s| s.modeled_ns == 0));
}

#[test]
fn untraced_context_records_nothing() {
    let ctx = racc::builder().backend("serial").build().expect("serial");
    let _ = workload(&ctx);
    assert!(ctx.tracer().is_none());
    assert!(ctx.trace_spans().is_empty());
}

#[test]
fn runtime_toggle_pauses_recording() {
    let ctx = traced("serial");
    let _ = workload(&ctx);
    let recorder = ctx.tracer().expect("recorder").clone();
    let before = recorder.recorded();
    recorder.set_enabled(false);
    let _ = workload(&ctx);
    assert_eq!(
        recorder.recorded(),
        before,
        "disabled recorder must not record"
    );
    recorder.set_enabled(true);
    let _ = workload(&ctx);
    assert!(recorder.recorded() > before);
}

#[test]
fn chrome_export_is_valid_json_for_all_backends() {
    let mut groups: Vec<(String, Vec<racc::trace::Span>)> = Vec::new();
    for key in racc::available_backends() {
        let ctx = traced(key);
        let _ = workload(&ctx);
        groups.push((key.to_string(), ctx.trace_spans()));
    }
    let refs: Vec<(&str, &[racc::trace::Span])> = groups
        .iter()
        .map(|(k, s)| (k.as_str(), s.as_slice()))
        .collect();
    let out = racc::trace::chrome::chrome_trace(&refs);
    json::validate(&out).unwrap_or_else(|(pos, msg)| panic!("invalid JSON at {pos}: {msg}"));
    // Every backend appears as a process in the export.
    for key in racc::available_backends() {
        assert!(out.contains(key), "missing group {key}");
    }
}
