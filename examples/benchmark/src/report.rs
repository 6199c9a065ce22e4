//! What a run prints: the driver's one-line JSON result, the table a
//! person reads, and the result file `--compare` takes.

use crate::json::Value;
use crate::metrics::{self, Better, Metric, Rule};
use crate::run::{PassResult, Sample};
use crate::supervisor::Exit;

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`. Every listed metric is a number; one without a verified
/// sample is written as 0 (and, where it is gated, already counted in
/// `failed`).
pub fn driver_line<'a>(res: &PassResult, listed: impl Iterator<Item = &'a Metric>) -> String {
    let mut m = Value::obj();
    for metric in listed {
        let value = res
            .metrics
            .get(metric.name)
            .and_then(|s| s.value)
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        m.set(
            metric.name,
            Value::obj().with("value", value).with("unit", metric.unit),
        );
    }
    Value::obj()
        .with("correct", res.correct)
        .with("attempted", res.attempted.max(1))
        .with("failed", res.failed)
        .with("metrics", m)
        .encode()
}

fn fmt_value(v: Option<f64>) -> String {
    match v {
        None => "null".into(),
        Some(0.0) => "0".into(),
        Some(x) if x.abs() >= 1e5 || x.abs() < 1e-3 => format!("{x:.4e}"),
        Some(x) => format!("{x:.5}"),
    }
}

fn rule_label(rule: Rule) -> String {
    match rule {
        Rule::Bound(b) => format!("+{:.0}%", b * 100.0),
        Rule::Absolute(d) => format!("+{d} abs"),
        Rule::Exact => "exact".into(),
        Rule::FailedShare => "no higher".into(),
        Rule::Info => "-".into(),
    }
}

fn row(metric: &Metric, sample: Option<&Sample>) -> String {
    let empty = Sample::default();
    let s = sample.unwrap_or(&empty);
    let tail = s.tail.map_or(String::new(), |(p, v)| {
        format!("p{p} {}", fmt_value(Some(v)))
    });
    format!(
        "  {:<40} {:>12} {:<9} {:>5}  {:<18} {:<6} {}",
        metric.name,
        fmt_value(s.value),
        metric.unit,
        s.samples,
        tail,
        if metric.better == Better::Lower {
            "lower"
        } else {
            "higher"
        },
        rule_label(metric.rule),
    )
}

/// The table of one workload: end-to-end metrics, per-layer metrics, span
/// self times, child exits.
pub fn print_workload(e2e: &PassResult, traced: &PassResult) {
    println!("\n== {} ==", e2e.workload);
    println!(
        "  {:<40} {:>12} {:<9} {:>5}  {:<18} {:<6} bound",
        "end-to-end metric", "median", "unit", "n", "tail", "better"
    );
    for metric in &metrics::END_TO_END {
        println!("{}", row(metric, e2e.metrics.get(metric.name)));
    }
    for metric in &metrics::END_TO_END_UNGATED {
        println!("{}", row(metric, traced.metrics.get(metric.name)));
    }
    let (started, lost, wrong) = (
        e2e.started_all + traced.started_all,
        e2e.lost_all + traced.lost_all,
        e2e.wrong_all + traced.wrong_all,
    );
    println!(
        "  reps started {started}, lost to crashes or deadlines {lost}, wrong {wrong}; \
         driver counts: attempted {} failed {} (end-to-end pass), attempted {} failed {} (traced pass)",
        e2e.attempted, e2e.failed, traced.attempted, traced.failed
    );
    println!("  -- per layer (null: no verified sample) --");
    for metric in &metrics::LAYERS {
        println!("{}", row(metric, traced.metrics.get(metric.name)));
    }
    println!("  -- span self time, traced pass (duration minus covered children) --");
    let mut spans: Vec<_> = traced.span_self.iter().collect();
    spans.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    for (name, t) in spans {
        println!(
            "  {:<40} count {:>6}  total {:>12.3} ms  self {:>12.3} ms",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let abnormal: Vec<String> = e2e
        .exits
        .iter()
        .chain(&traced.exits)
        .filter(|(_, e)| *e != Exit::Clean)
        .map(|(cell, e)| format!("{cell}: {}", e.label()))
        .collect();
    if !abnormal.is_empty() {
        println!("  -- children that did not exit cleanly --");
        for line in abnormal {
            println!("  {line}");
        }
    }
    for note in e2e.notes.iter().chain(&traced.notes) {
        println!("  note: {note}");
    }
}

/// One workload of a result file: every metric with its value and sample
/// count, and the failure counts.
pub fn workload_record(e2e: &PassResult, traced: &PassResult) -> Value {
    let mut m = Value::obj();
    for metric in metrics::all() {
        let sample = e2e
            .metrics
            .get(metric.name)
            .or_else(|| traced.metrics.get(metric.name));
        let mut entry = Value::obj()
            .with("value", sample.and_then(|s| s.value))
            .with("unit", metric.unit)
            .with("samples", sample.map_or(0, |s| s.samples));
        if let Some((p, v)) = sample.and_then(|s| s.tail) {
            entry.set("tail_percentile", p);
            entry.set("tail_value", v);
        }
        m.set(metric.name, entry);
    }
    let exits: Vec<Value> = e2e
        .exits
        .iter()
        .chain(&traced.exits)
        .filter(|(_, e)| *e != Exit::Clean)
        .map(|(cell, e)| Value::Str(format!("{cell}: {}", e.label())))
        .collect();
    Value::obj()
        .with("metrics", m)
        .with("reps_started", e2e.started_all + traced.started_all)
        .with("reps_lost", e2e.lost_all + traced.lost_all)
        .with("reps_wrong", e2e.wrong_all + traced.wrong_all)
        .with("abnormal_exits", exits)
}
