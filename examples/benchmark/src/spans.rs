//! The benchmark's own span recorder: one span around every call the
//! benchmark makes into a RACC layer. Spans live in memory until the child
//! exits; the supervisor merges them into one chrome trace per workload.
//!
//! `racc-trace` spans carry no start time or parent (ROADMAP item 4), so
//! the tree is built here, from outside the program. Spans inside the
//! program are a later issue.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// One closed span. `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Shared by all spans of one rep of one cell.
    pub rep: u64,
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    rep: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            enabled: false,
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::new());
}

/// Turn recording on or off for this thread (off by default: end-to-end
/// numbers come from a pass that records nothing).
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = on);
}

/// Tag the spans that follow with rep id `rep`.
pub fn set_rep(rep: u64) {
    RECORDER.with(|r| r.borrow_mut().rep = rep);
}

/// Run `f` inside a span named `name`. With recording off this is one
/// thread-local load and a branch.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let slot = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        let (parent, rep) = (r.open.last().copied(), r.rep);
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            rep,
        });
        let slot = r.spans.len() - 1;
        r.open.push(slot);
        Some(slot)
    });
    let out = f();
    if let Some(slot) = slot {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[slot].end_ns = r.origin.elapsed().as_nanos() as u64;
            r.open.pop();
        });
    }
    out
}

/// Take every span recorded on this thread so far.
pub fn drain() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Count, total and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time per span name: a span's duration minus the part of it its
/// direct children cover (children of one parent never overlap here — the
/// recorder is per thread — but overlapping input is clipped anyway).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut covered = vec![0u64; spans.len()];
    // Children appear after their parent, in start order; track how far
    // each parent's interval is already covered to clip overlaps.
    let mut frontier: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(frontier[p]);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                covered[p] += hi - lo;
                frontier[p] = hi;
            }
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, cov) in spans.iter().zip(covered) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - cov.min(dur);
    }
    out
}

/// The spans as chrome-trace "complete" events (`ph: "X"`, microseconds).
/// `pid` separates cells in the viewer; `tid` separates reps.
pub fn chrome_events(spans: &[Span], pid: u64, cell: &str) -> Vec<Value> {
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Value::obj()
                .with("name", s.name)
                .with("ph", "X")
                .with("ts", s.start_ns as f64 / 1e3)
                .with("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                .with("pid", pid)
                .with("tid", s.rep)
                .with(
                    "args",
                    Value::obj()
                        .with("cell", format!("{cell}#{}", s.rep))
                        .with("id", id)
                        .with("parent", s.parent.map_or(Value::Null, Value::from)),
                )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            sp("rep", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("leaf", 15, 25, Some(1)),
            sp("a", 50, 70, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["rep"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            t["a"],
            NameTotals {
                count: 2,
                total_ns: 50,
                self_ns: 40
            }
        );
        assert_eq!(t["leaf"].self_ns, 10);
        // Self times partition the root exactly.
        let total_self: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(total_self, 100);
    }

    #[test]
    fn overlapping_or_escaping_children_are_clipped() {
        let spans = vec![
            sp("p", 0, 100, None),
            sp("c", 10, 60, Some(0)),
            sp("c", 40, 120, Some(0)), // overlaps its sibling and outlives p
        ];
        let t = self_times(&spans);
        assert_eq!(t["p"].self_ns, 10, "only [0,10) is uncovered");
    }

    #[test]
    fn recorder_nests_and_is_free_when_off() {
        drain();
        set_enabled(false);
        assert_eq!(span("off", || 7), 7);
        assert!(drain().is_empty());

        set_enabled(true);
        set_rep(3);
        span("outer", || {
            span("inner", || ());
            span("inner", || ());
        });
        set_enabled(false);
        let spans = drain();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let text = Value::Arr(chrome_events(&spans, 1, "serial")).encode();
        racc::trace::json::validate(&text).expect("chrome events are valid JSON");
    }
}
