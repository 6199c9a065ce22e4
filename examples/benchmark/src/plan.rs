//! Which cells a run is made of and how the run's seconds are split over
//! them. Sizes live with the workloads; everything about *time* is here.

use crate::supervisor::CellPlan;

/// `run_seconds` of `BENCHMARK.json`: the seconds of timed reps in one
/// driver run.
pub const RUN_SECONDS: u64 = 12;

/// Share of the timed seconds the `serial` cell gets in an end-to-end run;
/// the pinned-simulator cell gets the rest (its reps are ~20x longer).
const SERIAL_SHARE: f64 = 0.35;

fn base(workload: &'static str, backend: &'static str) -> CellPlan {
    CellPlan {
        workload,
        backend,
        pinned: false,
        children: 2,
        budget_s: 1.0,
        min_reps: 2,
        max_reps: u64::MAX,
        spans: false,
        racc_trace: false,
        grace_s: 20.0,
        respawns: 1,
    }
}

/// The end-to-end pass (spans off): the two cells that have verified
/// samples on every workload at this commit.
pub fn end_to_end(workload: &'static str, seconds: f64) -> Vec<CellPlan> {
    vec![
        CellPlan {
            pinned: true,
            budget_s: SERIAL_SHARE * seconds,
            ..base(workload, "serial")
        },
        CellPlan {
            pinned: true,
            budget_s: (1.0 - SERIAL_SHARE) * seconds,
            ..base(workload, "cudasim")
        },
    ]
}

/// The wall cells the issue asks for that the seed cannot run reliably:
/// `threads` and unpinned `cudasim`, then `threads` once more with
/// `racc-trace` on (worker-chunk spans, for the pool's busy share). One
/// short child each, best effort, a tight deadline so a hang costs
/// seconds, no respawn.
pub fn best_effort(workload: &'static str, seconds: f64) -> Vec<CellPlan> {
    [("threads", false), ("cudasim", false), ("threads", true)]
        .into_iter()
        .map(|(backend, racc_trace)| CellPlan {
            children: 1,
            budget_s: if racc_trace { 0.0 } else { 0.06 * seconds },
            grace_s: 4.0,
            respawns: 0,
            racc_trace,
            ..base(workload, backend)
        })
        .collect()
}

/// The traced pass: one child per cell, benchmark spans on every other rep.
pub fn traced(workload: &'static str, seconds: f64) -> Vec<CellPlan> {
    vec![
        CellPlan {
            pinned: true,
            children: 1,
            budget_s: 0.08 * seconds,
            min_reps: 4,
            spans: true,
            ..base(workload, "serial")
        },
        CellPlan {
            pinned: true,
            children: 1,
            budget_s: 0.12 * seconds,
            min_reps: 2,
            spans: true,
            ..base(workload, "cudasim")
        },
    ]
}

/// The modeled pass: one rep on each of the paper's four architectures,
/// pinned (values and modeled time do not depend on host threads) with
/// `racc-trace` on for the computed byte and roofline figures.
pub fn modeled(workload: &'static str) -> Vec<CellPlan> {
    ["threads", "cudasim", "hipsim", "oneapisim"]
        .into_iter()
        .map(|backend| CellPlan {
            pinned: true,
            children: 1,
            budget_s: 0.0,
            min_reps: 1,
            max_reps: 1,
            racc_trace: true,
            ..base(workload, backend)
        })
        .collect()
}

/// A built-in cell whose child aborts (`"abort"`) or hangs (`"hang"`)
/// after one good rep: proof that such a child costs its own reps only.
pub fn selftest(kind: &'static str) -> CellPlan {
    CellPlan {
        children: 1,
        budget_s: 0.5,
        grace_s: 1.5,
        respawns: 0,
        ..base("selftest", kind)
    }
}
