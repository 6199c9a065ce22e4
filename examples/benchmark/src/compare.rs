//! `--compare <a> <b>`: judge side `b` against side `a`, one row per
//! (metric, workload). Each side is one or more result files of full runs
//! (comma-separated), so that a side has a run-to-run spread of its own.
//! Exact metrics (modeled time, counts) are compared run against run of
//! the same seed, because some of them — the serve schedule's latencies —
//! are functions of the seed.

use crate::json::Value;
use crate::metrics::{self, Better, Metric, Rule};
use crate::stats;
use crate::workloads;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// A side's own quartile spread exceeds the bound: no call either way.
    Unresolved,
    /// Exact metric, same to the last digit on every run of both sides.
    Equal,
    /// Exact metric that moved: a model or count change to declare.
    Different,
    /// Every run of `b` reads better than every run of `a`.
    Better,
    /// A side has no verified sample.
    NoSample,
    /// Attribution only.
    Info,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Equal => "equal",
            Verdict::Different => "DIFFERENT",
            Verdict::Better => "better",
            Verdict::NoSample => "no sample",
            Verdict::Info => "info",
        }
    }

    /// Whether this row fails the comparison.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Different)
    }
}

/// How much worse `b` is than `a`, positive = worse, in the metric's own
/// direction.
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    }
}

/// One run's value of a metric, with the seed of the run.
pub type Seeded = (u64, f64);

/// Exact metrics: every pair of runs with the same seed must agree to the
/// last digit. Without a common seed, every run must agree with every other.
fn judge_exact(a: &[Seeded], b: &[Seeded]) -> Verdict {
    let mut pairs = a
        .iter()
        .flat_map(|(sa, va)| {
            b.iter()
                .filter(move |(sb, _)| sb == sa)
                .map(move |(_, vb)| (va, vb))
        })
        .peekable();
    let equal = if pairs.peek().is_some() {
        pairs.all(|(va, vb)| va == vb)
    } else {
        a.iter().chain(b).all(|(_, v)| *v == a[0].1)
    };
    if equal {
        Verdict::Equal
    } else {
        Verdict::Different
    }
}

/// Judge one metric from the values of each side's runs.
pub fn judge(metric: &Metric, a: &[Seeded], b: &[Seeded]) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::NoSample;
    }
    if metric.rule == Rule::Exact {
        return judge_exact(a, b);
    }
    let values = |side: &[Seeded]| side.iter().map(|(_, v)| *v).collect::<Vec<f64>>();
    let (a, b) = (&values(a)[..], &values(b)[..]);
    let (Some(ma), Some(mb)) = (stats::median(a), stats::median(b)) else {
        return Verdict::NoSample;
    };
    let all_better = || {
        a.iter()
            .all(|x| b.iter().all(|y| worse_by(metric.better, *x, *y) < 0.0))
    };
    // A side with a single run has no spread to object with.
    let iqr = |v: &[f64]| stats::quartiles(v).map_or(0.0, |(q1, _, q3)| q3 - q1);
    match metric.rule {
        Rule::Info => Verdict::Info,
        Rule::Exact => unreachable!("handled above"),
        Rule::Bound(bound) => {
            let noisy = |v: &[f64], m: f64| m != 0.0 && iqr(v) / m.abs() > bound;
            if noisy(a, ma) || noisy(b, mb) {
                if all_better() {
                    Verdict::Better
                } else {
                    Verdict::Unresolved
                }
            } else if worse_by(metric.better, ma, mb) > bound * ma.abs() {
                Verdict::Regressed
            } else {
                Verdict::Ok
            }
        }
        Rule::Absolute(delta) => {
            if iqr(a) > delta || iqr(b) > delta {
                if all_better() {
                    Verdict::Better
                } else {
                    Verdict::Unresolved
                }
            } else if worse_by(metric.better, ma, mb) > delta {
                Verdict::Regressed
            } else {
                Verdict::Ok
            }
        }
        // No higher than the other side's share plus that side's own
        // run-to-run spread: while the seed crashes at random, an innocent
        // change must not fail on a crash it did not cause.
        Rule::FailedShare => {
            if mb <= ma + iqr(a) {
                Verdict::Ok
            } else {
                Verdict::Regressed
            }
        }
    }
}

/// The values of `metric` on `workload`, one per result file of a side.
fn side_values(files: &[Value], workload: &str, metric: &str) -> Vec<Seeded> {
    files
        .iter()
        .filter_map(|f| {
            let value = f
                .get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .num_at("value")?;
            Some((f.num_at("seed")? as u64, value))
        })
        .collect()
}

fn load_side(arg: &str) -> Result<Vec<Value>, String> {
    arg.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Value::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

/// Print the comparison; `Ok(true)` when no row fails.
pub fn run(a_arg: &str, b_arg: &str) -> Result<bool, String> {
    let (a, b) = (load_side(a_arg)?, load_side(b_arg)?);
    println!(
        "{:<40} {:<14} {:>13} {:>13} {:>9} {:>9}  verdict",
        "metric", "workload", "a median", "b median", "a spread", "b spread"
    );
    let mut clean = true;
    for metric in metrics::all() {
        for workload in workloads::NAMES {
            let (va, vb) = (
                side_values(&a, workload, metric.name),
                side_values(&b, workload, metric.name),
            );
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let verdict = judge(metric, &va, &vb);
            clean &= !verdict.fails();
            let plain = |side: &[Seeded]| side.iter().map(|(_, v)| *v).collect::<Vec<f64>>();
            let (va, vb) = (plain(&va), plain(&vb));
            let show = |v: Option<f64>| v.map_or("null".to_owned(), |x| format!("{x:.6e}"));
            let pct = |v: &[f64]| {
                stats::spread(v).map_or("-".to_owned(), |s| format!("{:.2}%", s * 100.0))
            };
            println!(
                "{:<40} {:<14} {:>13} {:>13} {:>9} {:>9}  {}",
                metric.name,
                workload,
                show(stats::median(&va)),
                show(stats::median(&vb)),
                pct(&va),
                pct(&vb),
                verdict.label()
            );
        }
    }
    println!(
        "{}",
        if clean {
            "comparison: no regression"
        } else {
            "comparison: FAILED rows above"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs with seeds 1, 2, 3... in order.
    fn runs(values: &[f64]) -> Vec<Seeded> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64 + 1, *v))
            .collect()
    }

    fn metric(rule: Rule, better: Better) -> Metric {
        Metric {
            name: "m",
            unit: "s",
            better,
            rule,
        }
    }

    #[test]
    fn bounded_metric_verdicts() {
        let m = metric(Rule::Bound(0.10), Better::Lower);
        // Tight on both sides, 5% worse: within the bound.
        assert_eq!(
            judge(&m, &runs(&[1.00, 1.01, 0.99]), &runs(&[1.05, 1.06, 1.04])),
            Verdict::Ok
        );
        // 20% worse: regressed.
        assert_eq!(
            judge(&m, &runs(&[1.00, 1.01, 0.99]), &runs(&[1.20, 1.21, 1.19])),
            Verdict::Regressed
        );
        // Much better is not a regression.
        assert_eq!(
            judge(&m, &runs(&[1.00, 1.01, 0.99]), &runs(&[0.50, 0.51, 0.49])),
            Verdict::Ok
        );
        // One side noisier than the bound: no call...
        assert_eq!(
            judge(&m, &runs(&[1.0, 1.4, 0.8]), &runs(&[1.05, 1.06, 1.04])),
            Verdict::Unresolved
        );
        // ...unless every run of b beats every run of a.
        assert_eq!(
            judge(&m, &runs(&[1.0, 1.4, 0.8]), &runs(&[0.5, 0.7, 0.6])),
            Verdict::Better
        );
        // Higher-is-better flips the direction.
        let h = metric(Rule::Bound(0.10), Better::Higher);
        assert_eq!(
            judge(&h, &runs(&[1.00, 1.01, 0.99]), &runs(&[0.80, 0.81, 0.79])),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&h, &runs(&[1.00, 1.01, 0.99]), &runs(&[1.20, 1.21, 1.19])),
            Verdict::Ok
        );
        // No sample on a side.
        assert_eq!(judge(&m, &runs(&[]), &runs(&[1.0])), Verdict::NoSample);
    }

    #[test]
    fn exact_metrics_must_match_to_the_last_digit() {
        let m = metric(Rule::Exact, Better::Lower);
        assert_eq!(
            judge(&m, &runs(&[0.125, 0.125]), &runs(&[0.125, 0.125])),
            Verdict::Equal
        );
        assert_eq!(
            judge(&m, &runs(&[0.125, 0.125]), &runs(&[0.125, 0.125_000_000_1])),
            Verdict::Different
        );
        assert!(Verdict::Different.fails() && !Verdict::Equal.fails());
        // Seed-dependent exact metrics are matched by seed, not pooled.
        let (a, b) = ([(7, 1.5), (8, 2.5)], [(8, 2.5), (7, 1.5)]);
        assert_eq!(judge(&m, &a, &b), Verdict::Equal);
        assert_eq!(judge(&m, &a, &[(7, 2.5), (8, 1.5)]), Verdict::Different);
        // No common seed: every run must agree with every other.
        assert_eq!(judge(&m, &[(1, 3.0)], &[(2, 3.0)]), Verdict::Equal);
        assert_eq!(judge(&m, &[(1, 3.0)], &[(2, 4.0)]), Verdict::Different);
    }

    #[test]
    fn absolute_bound_for_ratios() {
        let m = metric(Rule::Absolute(0.05), Better::Lower);
        assert_eq!(
            judge(&m, &runs(&[1.00, 1.01]), &runs(&[1.03, 1.04])),
            Verdict::Ok
        );
        assert_eq!(
            judge(&m, &runs(&[1.00, 1.01]), &runs(&[1.10, 1.11])),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&m, &runs(&[1.00, 1.30]), &runs(&[1.10, 1.11])),
            Verdict::Unresolved
        );
    }

    #[test]
    fn failed_share_allows_the_other_sides_own_spread() {
        let m = metric(Rule::FailedShare, Better::Lower);
        // a crashes 10%..30% of the time by itself; b at 25% is innocent.
        assert_eq!(
            judge(&m, &runs(&[0.10, 0.30, 0.20]), &runs(&[0.25, 0.25])),
            Verdict::Ok
        );
        // b far above anything a showed.
        assert_eq!(
            judge(&m, &runs(&[0.10, 0.30, 0.20]), &runs(&[0.60, 0.70])),
            Verdict::Regressed
        );
        // A clean a: any failure on b is a regression.
        assert_eq!(
            judge(&m, &runs(&[0.0, 0.0]), &runs(&[0.01, 0.01])),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&m, &runs(&[0.0, 0.0]), &runs(&[0.0, 0.0])),
            Verdict::Ok
        );
    }

    #[test]
    fn info_metrics_are_never_judged() {
        let m = metric(Rule::Info, Better::Lower);
        assert_eq!(judge(&m, &runs(&[1.0]), &runs(&[100.0])), Verdict::Info);
        assert!(!Verdict::Info.fails());
    }
}
