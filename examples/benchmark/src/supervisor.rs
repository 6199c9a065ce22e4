//! The supervisor side: run cells one at a time, each as child processes
//! of this executable, under a deadline. A child that crashes or hangs
//! costs its own reps only — whatever it reported before dying still
//! counts, and the supervisor itself never waits on a dead child.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::os::unix::process::ExitStatusExt;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::calib;
use crate::json::Value;

/// Where the benchmark may write: `$CARGO_TARGET_DIR/benchmark` when the
/// driver sets it, else `target/benchmark` under the current directory.
pub fn out_dir() -> PathBuf {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let dir = base.join("benchmark");
    std::fs::create_dir_all(&dir).expect("create the benchmark output directory");
    dir
}

/// How a child ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    Clean,
    Code(i32),
    Signal(i32),
    /// Killed by the supervisor at its deadline.
    Deadline,
}

impl Exit {
    pub fn label(self) -> String {
        match self {
            Exit::Clean => "ok".into(),
            Exit::Code(c) => format!("exit {c}"),
            Exit::Signal(11) => "SIGSEGV".into(),
            Exit::Signal(6) => "SIGABRT".into(),
            Exit::Signal(7) => "SIGBUS".into(),
            Exit::Signal(4) => "SIGILL".into(),
            Exit::Signal(s) => format!("signal {s}"),
            Exit::Deadline => "deadline".into(),
        }
    }
}

pub struct ChildOutput {
    /// Every protocol line that parsed.
    pub lines: Vec<Value>,
    pub exit: Exit,
}

/// Run this executable with `args`, streaming its stdout lines, and kill
/// it if it is still alive at `deadline`. The child runs from an empty
/// directory (no stray `RaccPreferences.toml`) with every `RACC_*`
/// variable cleared, so only the arguments decide what it does.
pub fn run_child(args: &[String], deadline: Duration) -> ChildOutput {
    let cwd = out_dir().join("cwd");
    std::fs::create_dir_all(&cwd).expect("create the child working directory");
    let mut cmd = Command::new(std::env::current_exe().expect("own executable path"));
    cmd.args(args)
        .current_dir(&cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("RACC_") {
            cmd.env_remove(key);
        }
    }
    let mut child = cmd.spawn().expect("spawn a benchmark child");
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let started = Instant::now();
    let mut lines = Vec::new();
    let mut timed_out = false;
    loop {
        let left = deadline.saturating_sub(started.elapsed());
        match rx.recv_timeout(left) {
            Ok(line) => {
                if let Ok(v) = Value::parse(&line) {
                    lines.push(v);
                }
            }
            // The reader saw end-of-file: the child closed stdout (exited).
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                timed_out = true;
                break;
            }
        }
    }
    if timed_out {
        // Kill, never wait for a hung child to finish on its own.
        let _ = child.kill();
    }
    let status = child.wait().expect("reap the child");
    reader.join().expect("stdout reader thread");
    // Lines that were in flight when the loop stopped.
    lines.extend(rx.try_iter().filter_map(|l| Value::parse(&l).ok()));
    let exit = if timed_out {
        Exit::Deadline
    } else if let Some(sig) = status.signal() {
        Exit::Signal(sig)
    } else {
        match status.code() {
            Some(0) => Exit::Clean,
            Some(c) => Exit::Code(c),
            None => Exit::Code(-1),
        }
    };
    ChildOutput { lines, exit }
}

/// Self time per span name, summed over children.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    pub fn add(&mut self, count: u64, total_ns: u64, self_ns: u64) {
        self.count += count;
        self.total_ns += total_ns;
        self.self_ns += self_ns;
    }
}

/// Everything the children of one cell reported.
#[derive(Debug, Default)]
pub struct CellData {
    pub label: String,
    /// Set-up seconds, one per set-up run, scaled to the reference clock.
    pub setups: Vec<f64>,
    /// Wall seconds of verified reps (spans off), scaled to the reference
    /// clock by the child.
    pub walls: Vec<f64>,
    /// The calibration times the walls were scaled by.
    pub calib: Vec<f64>,
    /// Wall seconds of verified reps run with the span recorder on.
    pub traced_walls: Vec<f64>,
    /// Named per-rep numbers of verified reps.
    pub extras: BTreeMap<String, Vec<f64>>,
    /// End-of-child counters (summed over children).
    pub counters: BTreeMap<String, f64>,
    /// `VmHWM` of each child when its set-up (warm-up rep included) ended:
    /// a fixed point of the program, so the allocator's rep-count-dependent
    /// heap growth does not enter (README "What is gated").
    pub rss_mb: Vec<f64>,
    /// `VmHWM` of each child at its exit.
    pub exit_rss_mb: Vec<f64>,
    pub children: u64,
    /// Reps a child announced.
    pub started: u64,
    pub verified: u64,
    /// Reps that completed with a wrong result, plus failed final checks
    /// and failed set-ups: never retried, always a failure.
    pub wrong: u64,
    pub wrong_notes: Vec<String>,
    /// Reps announced but never reported: the child died or was killed.
    pub lost: u64,
    pub exits: Vec<Exit>,
    pub span_self: BTreeMap<String, SpanTotals>,
    pub events: Vec<Value>,
}

impl CellData {
    pub fn crashed(&self) -> u64 {
        self.exits
            .iter()
            .filter(|e| matches!(e, Exit::Signal(_) | Exit::Code(_)))
            .count() as u64
    }

    pub fn hung(&self) -> u64 {
        self.exits.iter().filter(|e| **e == Exit::Deadline).count() as u64
    }

    /// Median of a per-rep extra over verified reps.
    pub fn extra(&self, name: &str) -> Option<f64> {
        self.extras.get(name).and_then(|v| crate::stats::median(v))
    }

    pub fn wall(&self) -> Option<f64> {
        crate::stats::median(&self.walls)
    }

    pub fn setup(&self) -> Option<f64> {
        crate::stats::median(&self.setups)
    }

    /// Fold one child's output in. `min_reps` is what the child planned at
    /// the least: one that dies before reporting that many (in set-up, say)
    /// has lost the difference, announced or not.
    pub fn absorb(&mut self, out: &ChildOutput, pid: u64, min_reps: u64) {
        self.children += 1;
        self.exits.push(out.exit);
        let mut open: Option<f64> = None;
        let mut reported = 0u64;
        for line in &out.lines {
            match line.get("t").and_then(Value::str) {
                Some("setup") => {
                    if line.get("ok").and_then(Value::bool) == Some(true) {
                        if let (Some(s), Some(c)) = (line.num_at("s"), line.num_at("calib_s")) {
                            self.setups.push(calib::scaled(s, c));
                        }
                        self.rss_mb.extend(line.num_at("rss_mb"));
                    } else {
                        self.wrong += 1;
                        self.note(line, "set-up");
                    }
                }
                Some("start") => {
                    self.started += 1;
                    open = line.num_at("i");
                }
                Some("rep") => {
                    open = None;
                    reported += 1;
                    if line.get("ok").and_then(Value::bool) != Some(true) {
                        self.wrong += 1;
                        self.note(line, "rep");
                        continue;
                    }
                    self.verified += 1;
                    let wall = line.num_at("scaled_s").unwrap_or(f64::NAN);
                    self.extras
                        .entry("raw_wall_s".into())
                        .or_default()
                        .extend(line.num_at("wall_s"));
                    self.calib.extend(line.num_at("calib_s"));
                    if line.get("traced").and_then(Value::bool) == Some(true) {
                        self.traced_walls.push(wall);
                    } else {
                        self.walls.push(wall);
                    }
                    for (k, v) in line.get("x").map_or(&[][..], Value::fields) {
                        self.extras.entry(k.clone()).or_default().extend(v.num());
                    }
                }
                Some("check") => {
                    self.wrong += 1;
                    self.note(line, "final check");
                }
                Some("spans") => {
                    for (name, t) in line.get("self").map_or(&[][..], Value::fields) {
                        let field = |key| t.num_at(key).unwrap_or(0.0) as u64;
                        self.span_self.entry(name.clone()).or_default().add(
                            field("count"),
                            field("total_ns"),
                            field("self_ns"),
                        );
                    }
                    for ev in line.get("events").map_or(&[][..], Value::arr) {
                        let mut ev = ev.clone();
                        ev.set("pid", pid);
                        self.events.push(ev);
                    }
                }
                Some("end") => {
                    self.exit_rss_mb.extend(line.num_at("exit_rss_mb"));
                    for (k, v) in line.get("x").map_or(&[][..], Value::fields) {
                        *self.counters.entry(k.clone()).or_default() += v.num().unwrap_or(0.0);
                    }
                }
                _ => {}
            }
        }
        if out.exit != Exit::Clean {
            let in_flight = u64::from(open.is_some());
            let unannounced = min_reps.saturating_sub(reported + in_flight);
            self.started += unannounced;
            self.lost += in_flight + unannounced;
        }
    }

    fn note(&mut self, line: &Value, what: &str) {
        let why = line.get("note").and_then(Value::str).unwrap_or("");
        self.wrong_notes
            .push(format!("{}: {what}: {why}", self.label));
    }
}

/// How to run one cell.
#[derive(Debug, Clone)]
pub struct CellPlan {
    pub workload: &'static str,
    pub backend: &'static str,
    /// Confine the children to one hardware thread.
    pub pinned: bool,
    /// Children the timed budget is split over.
    pub children: u64,
    /// Seconds of timed reps over all children.
    pub budget_s: f64,
    pub min_reps: u64,
    pub max_reps: u64,
    pub spans: bool,
    /// Turn `racc-trace` on in the measured contexts (modeled cells).
    pub racc_trace: bool,
    /// Seconds a child may take beyond its share of the budget.
    pub grace_s: f64,
    /// Extra children allowed when one dies without a verified rep.
    pub respawns: u64,
}

impl CellPlan {
    pub fn label(&self) -> String {
        format!(
            "{}/{}{}",
            self.workload,
            self.backend,
            if self.pinned { "@1cpu" } else { "" }
        )
    }

    fn child_args(&self, seed: u64, budget_s: f64) -> Vec<String> {
        let mut a: Vec<String> = vec!["--cell".into(), self.workload.into(), self.backend.into()];
        let mut kv = |k: &str, v: String| {
            a.push(k.into());
            a.push(v);
        };
        kv("--seed", seed.to_string());
        kv("--budget-s", budget_s.to_string());
        kv("--min-reps", self.min_reps.to_string());
        kv("--max-reps", self.max_reps.to_string());
        kv("--spans", u8::from(self.spans).to_string());
        kv("--pin", u8::from(self.pinned).to_string());
        kv("--racc-trace", u8::from(self.racc_trace).to_string());
        a
    }
}

/// Run a cell: `children` children in sequence, each with an equal share
/// of the budget; a child that dies early may be replaced `respawns`
/// times. `pid` labels the cell's spans in the chrome trace.
pub fn run_cell(plan: &CellPlan, seed: u64, pid: u64) -> CellData {
    let mut data = CellData {
        label: plan.label(),
        ..CellData::default()
    };
    let slice = plan.budget_s / plan.children as f64;
    let mut respawns = plan.respawns;
    let mut planned = plan.children;
    while planned > 0 {
        planned -= 1;
        let before = data.verified;
        let out = run_child(
            &plan.child_args(seed, slice),
            Duration::from_secs_f64(slice + plan.grace_s),
        );
        data.absorb(&out, pid, plan.min_reps);
        // A child that died without one verified rep is replaced.
        if out.exit != Exit::Clean && data.verified == before && respawns > 0 {
            respawns -= 1;
            planned += 1;
        }
        eprintln!(
            "  {:<34} child {:>2}: {:<9} {:>4} verified reps so far",
            data.label,
            data.children,
            out.exit.label(),
            data.verified
        );
    }
    data
}
