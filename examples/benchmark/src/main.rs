//! The RACC benchmark. See `README.md` beside this package.
//!
//! ```text
//! benchmark --seed <u64>                      every workload, both passes, all tables
//! benchmark --workload <w> --seed <n> --seconds <s> --trace <0|1>     one driver run
//! benchmark --compare <a.json[,a2.json..]> <b.json[,b2.json..]>       judge b against a
//! benchmark --cell ...                        (internal) one child of the supervisor
//! ```

mod calib;
mod cell;
mod compare;
mod json;
mod metrics;
mod plan;
mod probes;
mod report;
mod rng;
mod run;
mod spans;
mod stats;
mod supervisor;
mod workloads;

use std::process::ExitCode;

use json::Value;

/// `--name value` anywhere in `argv`.
fn flag<'a>(argv: &'a [String], name: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(argv: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(argv, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for {name}: {v:?}")),
    }
}

/// The built-in cells that prove the supervisor's isolation: a child that
/// aborts and a child that hangs, each after one good rep.
fn selftest_child(kind: &str) -> ! {
    cell::emit(
        &Value::obj()
            .with("t", "setup")
            .with("s", 0.0)
            .with("calib_s", calib::REFERENCE_S)
            .with("rss_mb", cell::peak_rss_mb())
            .with("ok", true)
            .with("note", ""),
    );
    cell::emit(&Value::obj().with("t", "start").with("i", 0usize));
    cell::emit(
        &Value::obj()
            .with("t", "rep")
            .with("i", 0usize)
            .with("ok", true)
            .with("note", "")
            .with("wall_s", 1e-3)
            .with("scaled_s", 1e-3)
            .with("calib_s", calib::REFERENCE_S)
            .with("traced", false)
            .with("x", Value::obj()),
    );
    cell::emit(&Value::obj().with("t", "start").with("i", 1usize));
    if kind == "abort" {
        std::process::abort();
    }
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn child(argv: &[String]) -> Result<(), String> {
    let (what, which) = (
        argv.get(1).map_or("", String::as_str),
        argv.get(2).map_or("", String::as_str),
    );
    if parsed(argv, "--pin", 0u8)? != 0 && !cell::pin_to_one_cpu() {
        return Err("could not pin to one hardware thread".into());
    }
    let seed = parsed(argv, "--seed", 1u64)?;
    match what {
        "selftest" => selftest_child(which),
        "probe" => {
            let workload = flag(argv, "--workload").unwrap_or("");
            if probes::run_group(which, workload, seed) {
                Ok(())
            } else {
                Err(format!("unknown probe group {which:?}"))
            }
        }
        _ => {
            cell::set_racc_trace(parsed(argv, "--racc-trace", 0u8)? != 0);
            let args = cell::CellArgs {
                workload: what.to_owned(),
                backend: which.to_owned(),
                seed,
                budget_s: parsed(argv, "--budget-s", 1.0)?,
                min_reps: parsed(argv, "--min-reps", 1)?,
                max_reps: parsed(argv, "--max-reps", u64::MAX)?,
                spans: parsed(argv, "--spans", 0u8)? != 0,
            };
            if workloads::dispatch(&args) {
                Ok(())
            } else {
                Err(format!("unknown workload {what:?}"))
            }
        }
    }
}

fn workload_named(name: &str) -> Result<&'static str, String> {
    workloads::NAMES
        .into_iter()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {:?}", workloads::NAMES))
}

/// One driver run: one pass of one workload, one JSON line last.
fn driver_run(argv: &[String], workload: &str) -> Result<(), String> {
    let workload = workload_named(workload)?;
    let seed = parsed(argv, "--seed", 1u64)?;
    let seconds = parsed(argv, "--seconds", plan::RUN_SECONDS as f64)?;
    let (res, listed): (_, Vec<&metrics::Metric>) = if parsed(argv, "--trace", 0u8)? == 0 {
        (
            run::end_to_end(workload, seed, seconds),
            metrics::END_TO_END.iter().collect(),
        )
    } else {
        (
            run::traced(workload, seed, seconds),
            metrics::per_layer().collect(),
        )
    };
    for note in &res.notes {
        eprintln!("  note: {note}");
    }
    println!("{}", report::driver_line(&res, listed.into_iter()));
    Ok(())
}

/// The full run: every workload, both passes, every table, the result
/// file, the trace files, and the two supervisor self-test rows.
fn full_run(argv: &[String]) -> Result<(), String> {
    let seed = parsed(argv, "--seed", 1u64)?;
    let seconds = parsed(argv, "--seconds", plan::RUN_SECONDS as f64)?;
    println!(
        "RACC benchmark: seed {seed}, {seconds} s of timed reps per pass, {} hardware threads.",
        cell::nproc()
    );
    println!("Wall and modeled time are never mixed: units `s`/`ns` are host wall, `model_s`/`model_ns` are the simulators' clocks.");
    let mut record = Value::obj();
    for workload in workloads::NAMES {
        eprintln!("[{workload}] end-to-end pass");
        let e2e = run::end_to_end(workload, seed, seconds);
        eprintln!("[{workload}] traced pass");
        let traced = run::traced(workload, seed, seconds);
        report::print_workload(&e2e, &traced);
        record.set(workload, report::workload_record(&e2e, &traced));
    }
    println!("\n== supervisor self-test ==");
    for kind in ["abort", "hang"] {
        let data = supervisor::run_cell(&plan::selftest(kind), seed, 0);
        println!(
            "  selftest/{kind:<6} exit {:<9} reps started {} verified {} lost {} (counted in this row only)",
            data.exits.first().map_or("none".into(), |e| e.label()),
            data.started,
            data.verified,
            data.lost
        );
    }
    let path = supervisor::out_dir().join(format!("results-{seed}.json"));
    let doc = Value::obj()
        .with("seed", seed)
        .with("seconds", seconds)
        .with("nproc", cell::nproc())
        .with("workloads", record);
    std::fs::write(&path, doc.encode()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "\nresults written to {}; traces to {}/trace-<workload>.json",
        path.display(),
        supervisor::out_dir().display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("--cell") {
        child(&argv)
    } else if let Some(i) = argv.iter().position(|a| a == "--compare") {
        match (argv.get(i + 1), argv.get(i + 2)) {
            (Some(a), Some(b)) => match compare::run(a, b) {
                Ok(true) => Ok(()),
                Ok(false) => return ExitCode::from(1),
                Err(e) => Err(e),
            },
            _ => Err("--compare takes two result files (or comma-separated lists)".into()),
        }
    } else {
        match flag(&argv, "--workload") {
            Some(w) if w != "all" => driver_run(&argv, w),
            _ => full_run(&argv),
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
