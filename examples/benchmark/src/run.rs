//! The two passes of a workload run and what they report.
//!
//! * The **end-to-end pass** (benchmark spans off) runs the gated wall
//!   cells and yields the end-to-end metrics.
//! * The **traced pass** runs one child per cell with spans on, the
//!   modeled cells, the best-effort `threads`/`cudasim` cells and the
//!   layer probes, writes the chrome trace, and yields the per-layer
//!   metrics (the issue's ungated end-to-end metrics among them).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Value;
use crate::metrics;
use crate::plan;
use crate::probes;
use crate::stats;
use crate::supervisor::{out_dir, run_cell, run_child, CellData, Exit, SpanTotals};

/// Seconds after which a traced pass stops starting optional work (the
/// best-effort cells and the unpinned probes), so that even a run in
/// which every child hangs until its deadline ends well inside the
/// driver's per-run limit.
const OPTIONAL_WORK_UNTIL_S: f64 = 45.0;

/// One reported number with the size of the sample behind it.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// `None`: no verified sample — printed as `null`, never as 0.
    pub value: Option<f64>,
    pub samples: usize,
    /// The highest percentile with at least ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Sample {
    fn of(values: &[f64]) -> Sample {
        Sample {
            value: stats::median(values),
            samples: values.len(),
            tail: stats::tail_percentile(values.len())
                .and_then(|p| stats::percentile(values, p).map(|v| (p, v))),
        }
    }

    fn single(value: Option<f64>) -> Sample {
        Sample {
            value,
            samples: usize::from(value.is_some()),
            tail: None,
        }
    }
}

/// What one pass of one workload produced.
#[derive(Debug, Default)]
pub struct PassResult {
    pub workload: String,
    pub metrics: BTreeMap<&'static str, Sample>,
    /// Reps started in the cells whose numbers are gated.
    pub attempted: u64,
    /// Wrong results anywhere, plus reps lost in gated cells.
    pub failed: u64,
    /// No rep and no final check produced a wrong result.
    pub correct: bool,
    pub notes: Vec<String>,
    /// Every child's cell label and exit, for the exit-signal record.
    pub exits: Vec<(String, Exit)>,
    /// Reps started / lost / wrong over *all* cells, best-effort included.
    pub started_all: u64,
    pub lost_all: u64,
    pub wrong_all: u64,
    pub span_self: BTreeMap<String, SpanTotals>,
}

impl PassResult {
    fn new(workload: &str) -> PassResult {
        PassResult {
            workload: workload.to_owned(),
            correct: true,
            ..PassResult::default()
        }
    }

    fn put(&mut self, name: &'static str, sample: Sample) {
        debug_assert!(metrics::find(name).is_some(), "unregistered metric {name}");
        self.metrics.insert(name, sample);
    }

    /// Account for a cell. `gated`: its lost reps are failed operations.
    fn account(&mut self, cell: &CellData, gated: bool) {
        self.started_all += cell.started;
        self.lost_all += cell.lost;
        self.wrong_all += cell.wrong;
        self.failed += cell.wrong;
        if cell.wrong > 0 {
            self.correct = false;
            self.notes.extend(cell.wrong_notes.iter().cloned());
        }
        if gated {
            self.attempted += cell.started;
            self.failed += cell.lost;
            if cell.verified == 0 {
                // A gated cell without a single verified rep: its metric
                // has no value, which is a failed run whatever else held.
                self.failed += 1;
                self.notes.push(format!("{}: no verified rep", cell.label));
            }
        }
        for e in &cell.exits {
            self.exits.push((cell.label.clone(), *e));
        }
    }

    /// `failed_share` as the issue defines it: reps planned (started) but
    /// not reported verified, over reps started, best-effort cells included.
    pub fn failed_share(&self) -> Option<f64> {
        (self.started_all > 0)
            .then(|| (self.lost_all + self.wrong_all) as f64 / self.started_all as f64)
    }
}

/// The end-to-end pass.
pub fn end_to_end(workload: &'static str, seed: u64, seconds: f64) -> PassResult {
    let mut res = PassResult::new(workload);
    let cells: Vec<CellData> = plan::end_to_end(workload, seconds)
        .iter()
        .enumerate()
        .map(|(i, p)| run_cell(p, seed, i as u64))
        .collect();
    for cell in &cells {
        res.account(cell, true);
    }
    let (serial, sim) = (&cells[0], &cells[1]);
    // Set-up summed over the cells; a cell without a sample voids the sum.
    let setup = cells.iter().map(CellData::setup).sum::<Option<f64>>();
    let setups = cells.iter().map(|c| c.setups.len()).sum();
    res.put(
        "setup_s",
        Sample {
            value: setup,
            samples: setups,
            tail: None,
        },
    );
    res.put("serial_wall_s", Sample::of(&serial.walls));
    res.put("sim1t_wall_s", Sample::of(&sim.walls));
    let rss: Vec<f64> = cells
        .iter()
        .flat_map(|c| c.rss_mb.iter().copied())
        .collect();
    res.put(
        "peak_rss_mb",
        Sample {
            value: rss.iter().copied().fold(None, max_of),
            samples: rss.len(),
            tail: None,
        },
    );
    res
}

/// Fold step for the largest value seen.
fn max_of(m: Option<f64>, v: f64) -> Option<f64> {
    Some(m.map_or(v, |m| m.max(v)))
}

fn ratio(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(a), Some(b)) if b != 0.0 => Some(a / b),
        _ => None,
    }
}

/// Run one probe group as a child; `None` when it died before reporting.
fn probe(group: &probes::Group, workload: &str, seed: u64, res: &mut PassResult) -> Option<Value> {
    let args: Vec<String> = [
        "--cell",
        "probe",
        group.name,
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--pin",
        if group.pinned { "1" } else { "0" },
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let out = run_child(
        &args,
        Duration::from_secs(if group.uses_pool { 8 } else { 30 }),
    );
    let label = format!(
        "probe/{}{}",
        group.name,
        if group.pinned { "@1cpu" } else { "" }
    );
    eprintln!("  {label:<34} {}", out.exit.label());
    res.exits.push((label.clone(), out.exit));
    let line = out
        .lines
        .into_iter()
        .find(|l| l.get("t").and_then(Value::str) == Some("probe"));
    if line.is_none() && !group.uses_pool {
        // No pool worker runs in this group; dying is a real failure.
        res.failed += 1;
        res.notes
            .push(format!("{label}: no result ({})", out.exit.label()));
    }
    line.and_then(|l| l.get("m").cloned())
}

/// The traced pass.
pub fn traced(workload: &'static str, seed: u64, seconds: f64) -> PassResult {
    let started = Instant::now();
    let optional_ok = || started.elapsed().as_secs_f64() < OPTIONAL_WORK_UNTIL_S;
    let mut res = PassResult::new(workload);
    let mut pid = 0u64;
    let mut next_pid = || {
        pid += 1;
        pid
    };

    // 1. One child per gated cell with the benchmark's span recorder on.
    let mut traced: Vec<CellData> = plan::traced(workload, seconds)
        .iter()
        .map(|p| run_cell(p, seed, next_pid()))
        .collect();
    let mut events = Vec::new();
    for cell in &mut traced {
        res.account(cell, true);
        events.append(&mut cell.events);
        for (name, t) in &cell.span_self {
            res.span_self
                .entry(name.clone())
                .or_default()
                .add(t.count, t.total_ns, t.self_ns);
        }
    }
    let trace_path = out_dir().join(format!("trace-{workload}.json"));
    let doc = Value::obj()
        .with("traceEvents", events)
        .with("displayTimeUnit", "ms");
    if let Err(e) = std::fs::write(&trace_path, doc.encode()) {
        res.notes
            .push(format!("could not write {}: {e}", trace_path.display()));
    }
    let (serial, sim1t) = (&traced[0], &traced[1]);
    res.put(
        "bench.span_overhead",
        Sample::single(ratio(stats::median(&serial.traced_walls), serial.wall())),
    );

    // 2. The modeled cells: one rep per architecture, pinned, exact.
    let modeled: Vec<CellData> = plan::modeled(workload)
        .iter()
        .map(|p| run_cell(p, seed, next_pid()))
        .collect();
    for cell in &modeled {
        res.account(cell, true);
    }
    let model_ns: Vec<Option<f64>> = modeled.iter().map(|c| c.extra("modeled_ns")).collect();
    let total = model_ns.iter().copied().sum::<Option<f64>>();
    res.put("modeled_s", Sample::single(total.map(|ns| ns / 1e9)));
    let cuda = &modeled[1];
    let transfer = match (cuda.extra("h2d_bytes"), cuda.extra("d2h_bytes")) {
        (Some(a), Some(b)) => Some(a + b),
        _ => None,
    };
    res.put("gpusim.launches", Sample::single(cuda.extra("launches")));
    res.put(
        "gpusim.reductions",
        Sample::single(cuda.extra("reductions")),
    );
    res.put("gpusim.transfer_bytes", Sample::single(transfer));
    res.put(
        "gpusim.bytes_moved_computed",
        Sample::single(cuda.extra("bytes_moved_computed")),
    );
    // Performance portability (Godoy et al.): harmonic mean over the four
    // architectures of modeled efficiency against each one's roofline.
    let efficiencies: Option<Vec<f64>> = modeled
        .iter()
        .map(|c| ratio(c.extra("roofline_ns"), c.extra("modeled_ns")))
        .collect();
    res.put(
        "core.perf_portability_modeled",
        Sample::single(
            efficiencies.map(|e| e.len() as f64 / e.iter().map(|x| 1.0 / x).sum::<f64>()),
        ),
    );
    res.put(
        "prim.modeled_oneapisim_over_cudasim",
        Sample::single(if workload == "binning" {
            ratio(model_ns[3], model_ns[1])
        } else {
            None
        }),
    );
    // The three simulators share one executor: same bits or a bug.
    let digests: Vec<Option<f64>> = modeled[1..].iter().map(|c| c.extra("digest")).collect();
    let identical = digests.iter().all(|d| d.is_some() && *d == digests[0]);
    if !identical && digests.iter().all(Option::is_some) {
        res.failed += 1;
        res.correct = false;
        res.notes
            .push("the three simulators disagree on the output bits".into());
    }
    res.put(
        "bench.cross_sim_identical",
        Sample::single(Some(f64::from(u8::from(identical)))),
    );

    // 3. Counts the workload's own cells give (0 where a layer is unused).
    let per_iter = |c: &CellData, name: &str| {
        ratio(
            c.extra(name),
            Some(crate::workloads::cg_latency::ITERATIONS as f64),
        )
    };
    res.put(
        "fuse.constructs_per_iter_eager",
        Sample::single(per_iter(serial, "constructs_eager")),
    );
    res.put(
        "fuse.constructs_per_iter_fused",
        Sample::single(per_iter(serial, "constructs_fused")),
    );
    res.put(
        "fuse.fused_over_eager_wall_cudasim",
        Sample::single(ratio(sim1t.extra("fused_s"), sim1t.extra("eager_s"))),
    );
    let retries: f64 = traced
        .iter()
        .chain(&modeled)
        .filter_map(|c| c.counters.get("retries"))
        .sum();
    res.put("backend-common.retries", Sample::single(Some(retries)));

    // 4. The wall cells the seed cannot run reliably: best effort.
    let mut best: Vec<CellData> = Vec::new();
    for p in plan::best_effort(workload, seconds) {
        if optional_ok() {
            let cell = run_cell(&p, seed, next_pid());
            res.account(&cell, false);
            best.push(cell);
        } else {
            best.push(CellData::default());
        }
    }
    let (threads, cudasim, threads_traced) = (&best[0], &best[1], &best[2]);
    res.put("threads_wall_s", Sample::of(&threads.walls));
    res.put("sim_wall_s", Sample::of(&cudasim.walls));
    res.put(
        "fuse.fused_over_eager_wall_threads",
        Sample::single(ratio(threads.extra("fused_s"), threads.extra("eager_s"))),
    );
    let launches = match (threads.extra("launches"), threads.extra("reductions")) {
        (Some(a), Some(b)) => Some(a + b),
        _ => None,
    };
    res.put(
        "threadpool.wakes_per_launch",
        Sample::single(ratio(threads.extra("wakes"), launches)),
    );
    res.put(
        "threadpool.parks_per_launch",
        Sample::single(ratio(threads.extra("parks"), launches)),
    );
    res.put(
        "threadpool.stolen_share",
        Sample::single(ratio(threads.extra("stolen"), threads.extra("executed"))),
    );
    res.put(
        "threadpool.busy_share",
        Sample::single(ratio(
            threads_traced.extra("pool_chunk_real_ns"),
            // Both sides on the raw clock: the chunk times are not scaled.
            threads_traced
                .extra("raw_wall_s")
                .map(|w| w * 1e9 * crate::cell::nproc() as f64),
        )),
    );

    // 5. The layer probes, one child per group.
    let mut probed: BTreeMap<String, f64> = BTreeMap::new();
    let native_wall =
        matches!(workload, "kernels_large" | "cg_latency").then_some(&probes::NATIVE_WALL);
    for group in probes::GROUPS.iter().chain(native_wall) {
        if group.uses_pool && !optional_ok() {
            continue;
        }
        if let Some(m) = probe(group, workload, seed, &mut res) {
            for (k, v) in m.fields() {
                probed.extend(v.num().map(|x| (k.clone(), x)));
            }
        }
    }
    // The paper's overhead figure exists where device-specific code does.
    if let Some(v) = probed.remove(&format!("racc_over_native_modeled.{workload}")) {
        probed.insert("racc_over_native_modeled".into(), v);
    }
    for metric in metrics::per_layer() {
        if let Some(v) = probed.get(metric.name) {
            res.put(metric.name, Sample::single(Some(*v)));
        }
    }

    // 6. What the supervisor saw of its children.
    let all_cells = || traced.iter().chain(&modeled).chain(&best);
    let sum = |f: fn(&CellData) -> u64| Some(all_cells().map(f).sum::<u64>() as f64);
    let calib: Vec<f64> = all_cells().flat_map(|c| c.calib.iter().copied()).collect();
    res.put(
        "bench.clock_scale",
        Sample::single(stats::median(&calib).map(|c| c / crate::calib::REFERENCE_S)),
    );
    let exit_rss = all_cells()
        .flat_map(|c| c.exit_rss_mb.iter().copied())
        .fold(None, max_of);
    res.put("bench.exit_rss_mb", Sample::single(exit_rss));
    res.put("bench.children", Sample::single(sum(|c| c.children)));
    res.put(
        "bench.crashed_children",
        Sample::single(sum(CellData::crashed)),
    );
    res.put("bench.hung_children", Sample::single(sum(CellData::hung)));
    res.put("bench.reps_started", Sample::single(sum(|c| c.started)));
    res.put("bench.reps_lost", Sample::single(sum(|c| c.lost)));
    res.put("failed_share", Sample::single(res.failed_share()));
    res
}
