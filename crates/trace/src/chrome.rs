//! chrome://tracing exporter.
//!
//! Produces the Trace Event Format (JSON object form) understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): one complete
//! (`"ph": "X"`) event per span. Spans carry durations on the modeled
//! clock, not timestamps, so each lane lays its spans out back-to-back —
//! the result is a faithful *modeled* timeline per backend, not a measured
//! interleaving.
//!
//! Processes (`pid`) map to caller-defined groups (e.g. one per
//! architecture); threads (`tid`) map to span kinds within the group, so
//! kernels, reductions, and transfers land on separate lanes.

use crate::json::escape;
use crate::{ConstructKind, Span};

/// Lane assignment within a process: kernels, reductions, transfers, prims, ….
const fn lane(kind: ConstructKind) -> (u32, &'static str) {
    match kind {
        ConstructKind::For1d | ConstructKind::For2d | ConstructKind::For3d => (0, "kernels"),
        ConstructKind::Reduce1d | ConstructKind::Reduce2d | ConstructKind::Reduce3d => {
            (1, "reductions")
        }
        ConstructKind::Alloc | ConstructKind::H2d | ConstructKind::D2h => (2, "memory"),
        ConstructKind::Prim => (3, "prims"),
        ConstructKind::WorkerChunk => (4, "workers"),
        ConstructKind::Sanitizer => (5, "sanitizer"),
        ConstructKind::Fused => (6, "fused"),
        ConstructKind::Fault => (7, "faults"),
        ConstructKind::Compile => (8, "compile"),
        ConstructKind::Steal => (9, "steals"),
        ConstructKind::Shard => (10, "shards"),
        ConstructKind::Halo => (11, "halos"),
        ConstructKind::Serve => (12, "serve"),
    }
}

/// Number of lanes, derived from the lane map over `ConstructKind::ALL` so
/// that adding a kind (this bit PR 3 when `Sanitizer` arrived) can never
/// leave the per-lane arrays below under-sized again.
const NUM_LANES: usize = {
    let mut i = 0;
    let mut max = 0;
    while i < ConstructKind::COUNT {
        let (l, _) = lane(ConstructKind::ALL[i]);
        if l as usize > max {
            max = l as usize;
        }
        i += 1;
    }
    max + 1
};

/// The display name of a lane index, derived from the same map.
fn lane_name(tid: usize) -> &'static str {
    ConstructKind::ALL
        .iter()
        .find_map(|k| {
            let (l, name) = lane(*k);
            (l as usize == tid).then_some(name)
        })
        .unwrap_or("unknown")
}

fn push_event(out: &mut String, span: &Span, pid: usize, tid: u32, ts_us: f64) {
    let dur_us = span.modeled_ns as f64 / 1e3;
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts_us:.3},\
         \"dur\":{dur_us:.3},\"pid\":{pid},\"tid\":{tid},\"args\":{{\
         \"backend\":\"{}\",\"seq\":{},\"dims\":[{},{},{}],\"grid\":{},\
         \"block\":{},\"bytes\":{},\"modeled_ns\":{},\"real_ns\":{}}}}}",
        escape(span.name),
        span.kind.label(),
        escape(span.backend),
        span.seq,
        span.dims[0],
        span.dims[1],
        span.dims[2],
        span.grid,
        span.block,
        span.bytes,
        span.modeled_ns,
        span.real_ns,
    ));
}

fn push_meta(out: &mut String, name: &str, field: &str, pid: usize, tid: Option<u32>) {
    let tid_part = tid.map(|t| format!(",\"tid\":{t}")).unwrap_or_default();
    out.push_str(&format!(
        "{{\"name\":\"{field}\",\"ph\":\"M\",\"pid\":{pid}{tid_part},\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape(name)
    ));
}

/// Renders one JSON document covering several span groups; each `(label,
/// spans)` pair becomes one chrome process. Typical use: one group per
/// architecture of a portability experiment.
pub fn chrome_trace(groups: &[(&str, &[Span])]) -> String {
    let mut events: Vec<String> = Vec::new();
    for (pid, (label, spans)) in groups.iter().enumerate() {
        let mut one = String::new();
        push_meta(&mut one, label, "process_name", pid, None);
        events.push(one);
        // Back-to-back layout per lane on the modeled clock.
        let mut lane_cursor_us = [0.0f64; NUM_LANES];
        let mut lanes_used = [false; NUM_LANES];
        for span in spans.iter() {
            let (tid, _) = lane(span.kind);
            lanes_used[tid as usize] = true;
            let mut one = String::new();
            push_event(&mut one, span, pid, tid, lane_cursor_us[tid as usize]);
            events.push(one);
            lane_cursor_us[tid as usize] += span.modeled_ns as f64 / 1e3;
        }
        for (tid, used) in lanes_used.iter().enumerate() {
            if *used {
                let mut one = String::new();
                push_meta(
                    &mut one,
                    lane_name(tid),
                    "thread_name",
                    pid,
                    Some(tid as u32),
                );
                events.push(one);
            }
        }
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ns\"}}",
        events.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    fn sample() -> Vec<Span> {
        vec![
            Span::new("cudasim", ConstructKind::H2d, "upload")
                .payload(4096)
                .modeled(900),
            Span::new("cudasim", ConstructKind::For1d, "axpy")
                .dims(1024, 1, 1)
                .geometry(1, 1024)
                .profile(2.0, 24.0)
                .modeled(3000),
            Span::new("cudasim", ConstructKind::Reduce1d, "dot")
                .dims(1024, 1, 1)
                .geometry(2, 512)
                .profile(2.0, 16.0)
                .modeled(9000),
        ]
    }

    #[test]
    fn export_is_valid_json() {
        let spans = sample();
        let doc = chrome_trace(&[("a100", &spans)]);
        validate(&doc).unwrap_or_else(|(at, msg)| panic!("invalid JSON at {at}: {msg}"));
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"axpy\""));
        assert!(doc.contains("\"process_name\""));
    }

    #[test]
    fn lanes_lay_out_back_to_back() {
        let spans = vec![
            Span::new("serial", ConstructKind::For1d, "a").modeled(1000),
            Span::new("serial", ConstructKind::For1d, "b").modeled(2000),
        ];
        let doc = chrome_trace(&[("cpu", &spans)]);
        // Second kernel starts where the first ended: ts = 1.000 (µs).
        assert!(doc.contains("\"ts\":0.000"), "{doc}");
        assert!(doc.contains("\"ts\":1.000"), "{doc}");
    }

    #[test]
    fn sanitizer_spans_land_on_their_own_lane() {
        let spans = vec![
            Span::new("cudasim", ConstructKind::For1d, "axpy").modeled(1000),
            Span::new("cudasim", ConstructKind::Sanitizer, "sancheck")
                .dims(3, 0, 0)
                .payload(4096),
        ];
        let doc = chrome_trace(&[("a100", &spans)]);
        validate(&doc).unwrap_or_else(|(at, msg)| panic!("invalid JSON at {at}: {msg}"));
        assert!(doc.contains("\"tid\":5"), "{doc}");
        assert!(doc.contains("\"sancheck\""));
    }

    #[test]
    fn shard_and_halo_spans_get_their_own_lanes() {
        // The PR-3 regression shape: a freshly added kind whose lane index
        // exceeds a stale hand-sized array. `Shard`/`Halo` are the newest
        // kinds; exporting them must emit their named lanes, not panic or
        // silently fold them into lane 0.
        let spans = vec![
            Span::new("cudasim", ConstructKind::Shard, "step").modeled(500),
            Span::new("cudasim", ConstructKind::Halo, "exchange")
                .payload(4096)
                .modeled(200),
        ];
        let doc = chrome_trace(&[("cudasim", &spans)]);
        assert!(doc.contains("\"shards\""), "shard lane missing: {doc}");
        assert!(doc.contains("\"halos\""), "halo lane missing: {doc}");
        let (shard_tid, _) = lane(ConstructKind::Shard);
        let (halo_tid, _) = lane(ConstructKind::Halo);
        assert_ne!(shard_tid, halo_tid);
        assert!((shard_tid as usize) < NUM_LANES);
        assert!((halo_tid as usize) < NUM_LANES);
    }

    #[test]
    fn lane_map_is_exhaustive_and_in_bounds() {
        // Every construct kind must map to a lane inside the derived array
        // size, and every lane index must resolve to the same name `lane`
        // assigns it. This is the guard the hand-sized `[_; 6]` arrays
        // lacked when `ConstructKind` grew from 5 to 6 kinds.
        for kind in ConstructKind::ALL {
            let (tid, name) = lane(kind);
            assert!(
                (tid as usize) < NUM_LANES,
                "{kind:?} lane {tid} out of bounds ({NUM_LANES} lanes)"
            );
            assert_eq!(lane_name(tid as usize), name, "{kind:?}");
        }
        // Lanes are dense: no index below NUM_LANES is unnamed.
        for tid in 0..NUM_LANES {
            assert_ne!(lane_name(tid), "unknown", "lane {tid} has no kind");
        }
    }

    #[test]
    fn fused_spans_land_on_their_own_lane() {
        let spans = vec![
            Span::new("cudasim", ConstructKind::For1d, "axpy").modeled(1000),
            Span::new("cudasim", ConstructKind::Fused, "fused")
                .dims(1024, 1, 1)
                .profile(5.0, 48.0)
                .modeled(2500),
        ];
        let doc = chrome_trace(&[("a100", &spans)]);
        validate(&doc).unwrap_or_else(|(at, msg)| panic!("invalid JSON at {at}: {msg}"));
        assert!(doc.contains("\"tid\":6"), "{doc}");
        assert!(doc.contains("\"fused\""));
    }

    #[test]
    fn multiple_groups_get_distinct_pids() {
        let spans = sample();
        let doc = chrome_trace(&[("a100", &spans), ("mi100", &spans)]);
        validate(&doc).unwrap();
        assert!(doc.contains("\"pid\":0"));
        assert!(doc.contains("\"pid\":1"));
    }
}
