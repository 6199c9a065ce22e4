//! The metric registry: every number the benchmark prints, with its unit,
//! direction and regression bound. `BENCHMARK.json` lists the same names
//! (a unit test keeps the two in step); `README.md` explains each.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How `--compare` judges a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// A noisy measurement: may worsen by this share of the other side's
    /// median; `unresolved` when either side's quartile spread exceeds it.
    Bound(f64),
    /// May worsen by this much in absolute terms (ratios near 1).
    Absolute(f64),
    /// Repeats exactly (modeled time, counts): any move is a difference.
    Exact,
    /// `failed_share`: no higher than the other side's share plus that
    /// side's own run-to-run spread.
    FailedShare,
    /// Reported for attribution only; never judged.
    Info,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub rule: Rule,
}

const fn m(name: &'static str, unit: &'static str, better: Better, rule: Rule) -> Metric {
    Metric {
        name,
        unit,
        better,
        rule,
    }
}

use Better::{Higher, Lower};
use Rule::{Absolute, Bound, Exact, FailedShare, Info};

/// The end-to-end metrics the driver gates on: measurable with verified
/// samples on every workload at this commit (see README "What is gated").
pub const END_TO_END: [Metric; 4] = [
    m("setup_s", "s", Lower, Bound(0.25)),
    m("serial_wall_s", "s", Lower, Bound(0.25)),
    m("sim1t_wall_s", "s", Lower, Bound(0.15)),
    m("peak_rss_mb", "MB", Lower, Bound(0.25)),
];

/// End-to-end metrics of the issue that cannot be gated by the driver yet:
/// wall on `threads` and on unpinned `cudasim` has no verified sample on
/// most workloads while the pool's join races (README "Seed state"), the
/// two native ratios exist on two workloads only, and exact modeled times
/// repeat to the last digit. They are printed by the full run, judged by
/// `--compare`, and reported to the driver among the per-layer metrics.
pub const END_TO_END_UNGATED: [Metric; 7] = [
    m("threads_wall_s", "s", Lower, Bound(0.15)),
    m("sim_wall_s", "s", Lower, Bound(0.15)),
    m("modeled_s", "model_s", Lower, Exact),
    m("racc_over_native_wall", "ratio", Lower, Absolute(0.05)),
    m("racc_over_native_modeled", "ratio", Lower, Exact),
    m("serve_p95_latency_modeled_s", "model_s", Lower, Exact),
    m("failed_share", "share", Lower, FailedShare),
];

/// Per-layer metrics; the prefix is the crate that does the work.
pub const LAYERS: [Metric; 78] = [
    // racc-threadpool
    m("threadpool.empty_launch_ns", "ns", Lower, Info),
    m("threadpool.reduce_launch_ns", "ns", Lower, Info),
    m("threadpool.axpy_ns_per_elem", "ns", Lower, Info),
    m("threadpool.wakes_per_launch", "ratio", Lower, Info),
    m("threadpool.parks_per_launch", "ratio", Lower, Info),
    m("threadpool.stolen_share", "share", Lower, Info),
    m("threadpool.busy_share", "share", Higher, Info),
    // racc-gpusim / racc-cudasim
    m("gpusim.empty_launch_ns", "ns", Lower, Info),
    m("gpusim.noncoop_ns_per_sim_thread", "ns", Lower, Info),
    m("gpusim.coop_ns_per_sim_thread_phase", "ns", Lower, Info),
    m("gpusim.alloc_ns", "ns", Lower, Info),
    m("gpusim.h2d_ns_per_byte", "ns", Lower, Info),
    m("gpusim.launches", "count", Lower, Exact),
    m("gpusim.reductions", "count", Lower, Exact),
    m("gpusim.transfer_bytes", "count", Lower, Exact),
    m("gpusim.bytes_moved_computed", "count", Lower, Exact),
    m("cudasim.native_axpy_modeled_ns", "model_ns", Lower, Exact),
    m("cudasim.native_dot_modeled_ns", "model_ns", Lower, Exact),
    // racc-core and the racc facade
    m("core.dispatch_ns", "ns", Lower, Info),
    m("core.reduce_dispatch_ns", "ns", Lower, Info),
    m("racc.anybackend_extra_ns", "ns", Lower, Info),
    m("core.serial_axpy_ns_per_elem", "ns", Lower, Info),
    m("core.ctx_build_ns", "ns", Lower, Info),
    m("core.array_from_ns_per_byte", "ns", Lower, Info),
    m("core.perf_portability_modeled", "ratio", Higher, Exact),
    // racc-backend-common
    m("backend-common.wrapper_ns", "ns", Lower, Info),
    m(
        "backend-common.device_ops_per_reduce",
        "count",
        Lower,
        Exact,
    ),
    m("backend-common.retries", "count", Lower, Exact),
    // racc-fuse
    m("fuse.hit_eval_ns", "ns", Lower, Info),
    m("fuse.miss_compile_ns", "ns", Lower, Info),
    m("fuse.hit_rate", "share", Higher, Exact),
    m("fuse.constructs_per_iter_eager", "count", Lower, Exact),
    m("fuse.constructs_per_iter_fused", "count", Lower, Exact),
    m("fuse.fused_over_eager_wall_threads", "ratio", Lower, Info),
    m("fuse.fused_over_eager_wall_cudasim", "ratio", Lower, Info),
    // racc-prim
    m("prim.scan_ns_per_elem_serial", "ns", Lower, Info),
    m("prim.hist_ns_per_elem_serial", "ns", Lower, Info),
    m("prim.sort_ns_per_elem_serial", "ns", Lower, Info),
    m("prim.scan_ns_per_elem_threads", "ns", Lower, Info),
    m("prim.hist_ns_per_elem_threads", "ns", Lower, Info),
    m("prim.sort_ns_per_elem_threads", "ns", Lower, Info),
    m("prim.scan_ns_per_elem_cudasim", "ns", Lower, Info),
    m("prim.hist_ns_per_elem_cudasim", "ns", Lower, Info),
    m("prim.sort_ns_per_elem_cudasim", "ns", Lower, Info),
    m("prim.modeled_oneapisim_over_cudasim", "ratio", Lower, Exact),
    // racc-comm
    m("comm.allreduce_ns_2r", "ns", Lower, Info),
    m("comm.sendrecv_ns_per_byte", "ns", Lower, Info),
    m("comm.messages_per_step", "count", Lower, Exact),
    m("comm.bytes_per_step", "count", Lower, Exact),
    // racc-shard
    m("shard.step_overhead_ns", "ns", Lower, Info),
    m("shard.wall_d2_over_d1", "ratio", Lower, Info),
    m("shard.efficiency_modeled_d2", "ratio", Higher, Exact),
    m("shard.efficiency_modeled_d4", "ratio", Higher, Exact),
    m("shard.overlap_gain_modeled_d4", "ratio", Higher, Exact),
    m("shard.halo_exchanges", "count", Lower, Exact),
    m("shard.heartbeats", "count", Lower, Exact),
    // racc-serve
    m("serve.submit_ns", "ns", Lower, Info),
    m("serve.sched_wall_ns_per_job", "ns", Lower, Info),
    m("serve.queue_delay_p50_modeled_ns", "model_ns", Lower, Exact),
    m("serve.queue_delay_p95_modeled_ns", "model_ns", Lower, Exact),
    m("serve.p95_latency_modeled_s_r050", "model_s", Lower, Exact),
    m("serve.p95_latency_modeled_s_r200", "model_s", Lower, Exact),
    m("serve.batched_share", "share", Higher, Exact),
    m("serve.rejected", "count", Lower, Exact),
    m("serve.retried", "count", Lower, Exact),
    m("serve.fallbacks", "count", Lower, Exact),
    // racc-trace and the benchmark's own recorder
    m("trace.on_over_off_wall", "ratio", Lower, Info),
    m("trace.spans_recorded", "count", Lower, Exact),
    m("trace.spans_dropped", "count", Lower, Exact),
    m("bench.span_overhead", "ratio", Lower, Info),
    // host speed during the traced pass, over the reference speed
    m("bench.clock_scale", "ratio", Lower, Info),
    // what the supervisor saw of the children
    m("bench.exit_rss_mb", "MB", Lower, Info),
    m("bench.children", "count", Lower, Info),
    m("bench.crashed_children", "count", Lower, Info),
    m("bench.hung_children", "count", Lower, Info),
    m("bench.reps_started", "count", Higher, Info),
    m("bench.reps_lost", "count", Lower, Info),
    m("bench.cross_sim_identical", "count", Higher, Exact),
];

/// Every per-layer metric the driver records: the ungated end-to-end
/// metrics first, then the layers.
pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    END_TO_END_UNGATED.iter().chain(LAYERS.iter())
}

/// Every metric `--compare` knows.
pub fn all() -> impl Iterator<Item = &'static Metric> {
    END_TO_END.iter().chain(per_layer())
}

pub fn find(name: &str) -> Option<&'static Metric> {
    all().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_obey_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in all() {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(seen.insert(metric.name), "{} listed twice", metric.name);
            assert!(
                metric.unit.len() <= 16
                    && metric
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                metric.unit
            );
        }
        assert!(per_layer().count() <= 128);
        for metric in END_TO_END {
            assert!(
                matches!(metric.rule, Bound(b) if b <= 0.25),
                "{}",
                metric.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        racc::trace::json::validate(&text).expect("valid JSON");
        let doc = Value::parse(&text).unwrap();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .unwrap()
                .arr()
                .iter()
                .map(|e| {
                    (
                        e.get("name").and_then(Value::str).unwrap().to_owned(),
                        e.get("unit").and_then(Value::str).unwrap().to_owned(),
                        e.get("better").and_then(Value::str).unwrap().to_owned(),
                        e.num_at("bound"),
                    )
                })
                .collect()
        };
        let dir = |b: Better| if b == Lower { "lower" } else { "higher" };
        let want_e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                let Bound(b) = m.rule else { unreachable!() };
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    dir(m.better).to_owned(),
                    Some(b),
                )
            })
            .collect();
        assert_eq!(listed("end_to_end"), want_e2e);
        let want_layers: Vec<_> = per_layer()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    dir(m.better).to_owned(),
                    None,
                )
            })
            .collect();
        assert_eq!(listed("per_layer"), want_layers);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .arr()
            .iter()
            .map(|w| w.get("name").and_then(Value::str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert_eq!(
            doc.num_at("run_seconds"),
            Some(crate::plan::RUN_SECONDS as f64)
        );
    }
}
