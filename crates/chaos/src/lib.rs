//! `racc-chaos`: deterministic, seeded fault injection for the RACC stack.
//!
//! The portability claim of the front end — one program, identical results
//! on every backend — is only worth anything if it survives the *error*
//! paths, and error paths that never run rot. This crate provides the
//! substrate for running them on purpose:
//!
//! * a [`FaultPlan`] describing *which* operations fail (a seeded
//!   pseudo-random schedule, or an explicit script like "fail the 3rd
//!   alloc" / "fail every 100th transfer"),
//! * a [`ChaosEngine`] that the simulator consults at each injection point
//!   ([`FaultSite`]) and that logs every injected [`FaultEvent`],
//! * a [`RetryPolicy`] describing how the portability layer recovers from
//!   transient faults (bounded attempts with exponential modeled backoff),
//! * the [`truthy`] rule (and its [`env_flag`] helper) every `RACC_*`
//!   flag shares: `RACC_FUSION`, `RACC_SANITIZER`, and `RACC_CHAOS`.
//!
//! Everything here is deterministic by construction: the schedule depends
//! only on the plan and the per-site operation counters, never on wall
//! time or addresses, so the same seed yields the same fault log on every
//! run — which is what makes chaos runs debuggable and CI-able.

use std::fmt;
use std::sync::Mutex;

/// Where in the simulator a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Device memory allocation (fails as out-of-memory).
    Alloc,
    /// Host-to-device transfer (upload).
    H2d,
    /// Device-to-host transfer (download / readback).
    D2h,
    /// Kernel launch on the default stream.
    Launch,
    /// Asynchronous launch on a non-default stream (stall or failure).
    Stream,
}

impl FaultSite {
    /// All sites, in schedule-counter order.
    pub const ALL: [FaultSite; 5] = [
        FaultSite::Alloc,
        FaultSite::H2d,
        FaultSite::D2h,
        FaultSite::Launch,
        FaultSite::Stream,
    ];

    /// Stable lowercase label (also the spec-grammar token).
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::Alloc => "alloc",
            FaultSite::H2d => "h2d",
            FaultSite::D2h => "d2h",
            FaultSite::Launch => "launch",
            FaultSite::Stream => "stream",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::Alloc => 0,
            FaultSite::H2d => 1,
            FaultSite::D2h => 2,
            FaultSite::Launch => 3,
            FaultSite::Stream => 4,
        }
    }

    fn parse(s: &str) -> Option<FaultSite> {
        FaultSite::ALL
            .iter()
            .copied()
            .find(|site| site.label() == s)
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.label())
    }
}

/// What the injector does to a selected operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The operation fails with a simulator error (retryable upstream).
    Fail,
    /// The operation succeeds but is charged this many extra modeled
    /// nanoseconds (latency spike / stream stall).
    Delay(u64),
}

/// One injected fault, as recorded in the engine's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The injection point.
    pub site: FaultSite,
    /// 1-based count of operations seen at this site when the fault hit
    /// (`occurrence == 3` means "the 3rd alloc").
    pub occurrence: u64,
    /// What was done to the operation.
    pub action: FaultAction,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.action {
            FaultAction::Fail => write!(f, "{}#{} fail", self.site, self.occurrence),
            FaultAction::Delay(ns) => {
                write!(f, "{}#{} delay {}ns", self.site, self.occurrence, ns)
            }
        }
    }
}

/// Which occurrences of a site a scripted rule selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selector {
    /// Exactly the k-th operation (1-based).
    Nth(u64),
    /// Every k-th operation (k, 2k, 3k, …).
    Every(u64),
    /// Every operation from the k-th on (1-based).
    From(u64),
    /// Every operation.
    Always,
}

impl Selector {
    fn matches(self, occurrence: u64) -> bool {
        match self {
            Selector::Nth(k) => occurrence == k,
            Selector::Every(k) => k > 0 && occurrence.is_multiple_of(k),
            Selector::From(k) => occurrence >= k,
            Selector::Always => true,
        }
    }
}

/// One scripted injection rule: `site:selector[:action]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// The injection point the rule applies to.
    pub site: FaultSite,
    /// Which occurrences it selects.
    pub selector: Selector,
    /// What it does to them (default [`FaultAction::Fail`]).
    pub action: FaultAction,
}

/// Error from [`FaultPlan::parse`]: the offending token plus a reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The clause that failed to parse.
    pub token: String,
    /// Why it was rejected.
    pub reason: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid chaos spec clause {:?}: {}",
            self.token, self.reason
        )
    }
}

impl std::error::Error for ParseError {}

/// A complete fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlan {
    /// Pseudo-random schedule derived from a seed (xorshift64): rare
    /// failures and latency spikes at every site, at rates low enough that
    /// a bounded retry policy recovers with near certainty.
    Seeded {
        /// The xorshift64 seed (0 is remapped internally; same seed, same
        /// schedule).
        seed: u64,
    },
    /// Explicit script: the first matching rule per operation wins.
    Script(Vec<Rule>),
}

impl FaultPlan {
    /// A seeded pseudo-random plan.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan::Seeded { seed }
    }

    /// Parses a plan from the `RACC_CHAOS` grammar.
    ///
    /// * a bare integer is a seed: `"42"` → `FaultPlan::seeded(42)`;
    /// * otherwise, semicolon- (or comma-) separated clauses
    ///   `site:selector[:action]` with `site` one of `alloc | h2d | d2h |
    ///   launch | stream`, `selector` one of `nth-K | every-K | from-K |
    ///   always`, and `action` one of `fail` (default) or `delay-NS`.
    ///
    /// Example: `"h2d:every-100;alloc:nth-3;stream:always:delay-5000"`.
    pub fn parse(spec: &str) -> Result<FaultPlan, ParseError> {
        let spec = spec.trim();
        if let Ok(seed) = spec.parse::<u64>() {
            return Ok(FaultPlan::seeded(seed));
        }
        let mut rules = Vec::new();
        for clause in spec.split([';', ',']) {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let err = |reason| ParseError {
                token: clause.to_string(),
                reason,
            };
            let mut parts = clause.split(':');
            let site = parts
                .next()
                .and_then(FaultSite::parse)
                .ok_or_else(|| err("unknown site (want alloc|h2d|d2h|launch|stream)"))?;
            let sel = parts.next().ok_or_else(|| err("missing selector"))?;
            let selector = if sel == "always" {
                Selector::Always
            } else if let Some(k) = sel.strip_prefix("nth-") {
                Selector::Nth(k.parse().map_err(|_| err("bad nth-K count"))?)
            } else if let Some(k) = sel.strip_prefix("every-") {
                let k: u64 = k.parse().map_err(|_| err("bad every-K count"))?;
                if k == 0 {
                    return Err(err("every-0 selects nothing"));
                }
                Selector::Every(k)
            } else if let Some(k) = sel.strip_prefix("from-") {
                Selector::From(k.parse().map_err(|_| err("bad from-K count"))?)
            } else {
                return Err(err("unknown selector (want nth-K|every-K|from-K|always)"));
            };
            let action = match parts.next() {
                None | Some("fail") => FaultAction::Fail,
                Some(a) => {
                    if let Some(ns) = a.strip_prefix("delay-") {
                        FaultAction::Delay(ns.parse().map_err(|_| err("bad delay-NS value"))?)
                    } else {
                        return Err(err("unknown action (want fail|delay-NS)"));
                    }
                }
            };
            if parts.next().is_some() {
                return Err(err("trailing clause parts"));
            }
            rules.push(Rule {
                site,
                selector,
                action,
            });
        }
        if rules.is_empty() {
            return Err(ParseError {
                token: spec.to_string(),
                reason: "empty spec (want a seed or site:selector clauses)",
            });
        }
        Ok(FaultPlan::Script(rules))
    }

    /// Derive a decorrelated plan for one member of a pool (shard rank,
    /// server device) from this plan. Seeded plans get an independent
    /// xorshift-mixed seed per `salt` — so a single `RACC_CHAOS=42` soaks
    /// every device of a pool with *different* fault schedules while
    /// staying fully reproducible. Script plans are explicit about which
    /// operations fail and pass through unchanged.
    pub fn for_member(&self, salt: u64) -> FaultPlan {
        match self {
            FaultPlan::Seeded { seed } => {
                let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                FaultPlan::Seeded { seed: x.max(1) }
            }
            FaultPlan::Script(rules) => FaultPlan::Script(rules.clone()),
        }
    }
}

/// Per-site failure odds of the seeded schedule, as 1-in-N draws.
/// Transfers and launches fail ~1/64; allocs ~1/128 (an alloc failure
/// presents as OOM, the scariest error, so it is rarer); latency spikes
/// ride on another 1/64 draw and cost ~20µs modeled.
const SEEDED_FAIL_ONE_IN: [u64; 5] = [128, 64, 64, 64, 64];
const SEEDED_DELAY_ONE_IN: u64 = 64;
const SEEDED_DELAY_NS: u64 = 20_000;

fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The runtime half of a plan: per-site operation counters, the rng for
/// seeded plans, and the log of injected faults. One engine per device;
/// interior mutability so injection points take `&self`.
pub struct ChaosEngine {
    plan: FaultPlan,
    state: Mutex<EngineState>,
}

struct EngineState {
    rng: u64,
    counters: [u64; FaultSite::ALL.len()],
    log: Vec<FaultEvent>,
}

impl ChaosEngine {
    /// Builds an engine for a plan.
    pub fn new(plan: FaultPlan) -> ChaosEngine {
        let seed = match &plan {
            // 0 is the xorshift fixed point; remap it like everyone does.
            FaultPlan::Seeded { seed } => (*seed).max(1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            FaultPlan::Script(_) => 0,
        };
        ChaosEngine {
            plan,
            state: Mutex::new(EngineState {
                rng: seed.max(1),
                counters: [0; FaultSite::ALL.len()],
                log: Vec::new(),
            }),
        }
    }

    /// The plan this engine runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Records one operation at `site` and decides its fate. `None` means
    /// the operation proceeds untouched; `Some(event)` means the fault in
    /// `event.action` was injected (and logged).
    pub fn next(&self, site: FaultSite) -> Option<FaultEvent> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let idx = site.index();
        st.counters[idx] += 1;
        let occurrence = st.counters[idx];
        let action = match &self.plan {
            FaultPlan::Seeded { .. } => {
                let draw = xorshift64(&mut st.rng);
                if draw.is_multiple_of(SEEDED_FAIL_ONE_IN[idx]) {
                    Some(FaultAction::Fail)
                } else if (draw >> 32).is_multiple_of(SEEDED_DELAY_ONE_IN) {
                    Some(FaultAction::Delay(SEEDED_DELAY_NS))
                } else {
                    None
                }
            }
            FaultPlan::Script(rules) => rules
                .iter()
                .find(|r| r.site == site && r.selector.matches(occurrence))
                .map(|r| r.action),
        }?;
        let event = FaultEvent {
            site,
            occurrence,
            action,
        };
        st.log.push(event);
        Some(event)
    }

    /// Snapshot of every fault injected so far, in injection order.
    pub fn log(&self) -> Vec<FaultEvent> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .log
            .clone()
    }
}

impl fmt::Debug for ChaosEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosEngine")
            .field("plan", &self.plan)
            .finish()
    }
}

/// How the portability layer retries transient device faults: bounded
/// attempts with exponential *modeled* backoff (charged to the timeline,
/// never slept on the host — chaos runs stay fast and deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first (so `1` means
    /// "never retry"). Must be ≥ 1.
    pub max_attempts: u32,
    /// Modeled nanoseconds charged before the first retry.
    pub base_backoff_ns: u64,
    /// Backoff multiplier per subsequent retry.
    pub multiplier: u32,
}

impl RetryPolicy {
    /// No retries: every fault surfaces immediately.
    pub const fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ns: 0,
            multiplier: 1,
        }
    }

    /// Backoff charged before retry number `retry` (1-based).
    pub fn backoff_ns(&self, retry: u32) -> u64 {
        self.base_backoff_ns
            .saturating_mul(u64::from(self.multiplier).saturating_pow(retry.saturating_sub(1)))
    }
}

impl Default for RetryPolicy {
    /// Four attempts with 1µs base backoff doubling each retry — under the
    /// seeded schedule (fail rate ≤ 1/64 per site) the chance of
    /// exhausting all four is ~(1/64)^4 ≈ 6e-8 per operation.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ns: 1_000,
            multiplier: 2,
        }
    }
}

/// The one truthy rule every `RACC_*` flag shares: a value is **on** iff
/// it is set to anything other than `""`, `"0"`, `"false"`, or `"off"`
/// (match is exact after trimming; unset is off).
pub fn truthy(value: Option<&str>) -> bool {
    match value {
        Some(v) => !matches!(v.trim(), "" | "0" | "false" | "off"),
        None => false,
    }
}

/// [`truthy`] of an environment variable (non-UTF-8 is off), for a flag
/// read outside `racc_core::RuntimeConfig` (`RACC_SANITIZER`), so every
/// knob agrees on what "on" means.
pub fn env_flag(name: &str) -> bool {
    truthy(std::env::var(name).ok().as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = ChaosEngine::new(FaultPlan::seeded(42));
        let b = ChaosEngine::new(FaultPlan::seeded(42));
        for _ in 0..10_000 {
            for site in FaultSite::ALL {
                assert_eq!(a.next(site), b.next(site));
            }
        }
        let log = a.log();
        assert!(!log.is_empty(), "50k draws at ~1/64 must inject something");
        assert_eq!(log, b.log());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = ChaosEngine::new(FaultPlan::seeded(1));
        let b = ChaosEngine::new(FaultPlan::seeded(2));
        for _ in 0..5_000 {
            a.next(FaultSite::Launch);
            b.next(FaultSite::Launch);
        }
        assert_ne!(a.log(), b.log());
    }

    #[test]
    fn script_fail_the_third_alloc() {
        let plan = FaultPlan::parse("alloc:nth-3").unwrap();
        let eng = ChaosEngine::new(plan);
        assert_eq!(eng.next(FaultSite::Alloc), None);
        assert_eq!(eng.next(FaultSite::Alloc), None);
        let ev = eng.next(FaultSite::Alloc).unwrap();
        assert_eq!(ev.occurrence, 3);
        assert_eq!(ev.action, FaultAction::Fail);
        assert_eq!(eng.next(FaultSite::Alloc), None);
        // Other sites untouched.
        assert_eq!(eng.next(FaultSite::Launch), None);
    }

    #[test]
    fn script_every_100th_transfer() {
        let plan = FaultPlan::parse("h2d:every-100").unwrap();
        let eng = ChaosEngine::new(plan);
        let mut hits = Vec::new();
        for i in 1..=350u64 {
            if let Some(ev) = eng.next(FaultSite::H2d) {
                hits.push((i, ev.occurrence));
            }
        }
        assert_eq!(hits, vec![(100, 100), (200, 200), (300, 300)]);
    }

    #[test]
    fn parse_full_grammar() {
        let plan =
            FaultPlan::parse("h2d:every-100; alloc:nth-3, stream:always:delay-5000").unwrap();
        let FaultPlan::Script(rules) = plan else {
            panic!("expected script");
        };
        assert_eq!(
            rules,
            vec![
                Rule {
                    site: FaultSite::H2d,
                    selector: Selector::Every(100),
                    action: FaultAction::Fail,
                },
                Rule {
                    site: FaultSite::Alloc,
                    selector: Selector::Nth(3),
                    action: FaultAction::Fail,
                },
                Rule {
                    site: FaultSite::Stream,
                    selector: Selector::Always,
                    action: FaultAction::Delay(5000),
                },
            ]
        );
        assert_eq!(FaultPlan::parse("1234").unwrap(), FaultPlan::seeded(1234));
        assert!(FaultPlan::parse("warp:always").is_err());
        assert!(FaultPlan::parse("h2d:every-0").is_err());
        assert!(FaultPlan::parse("h2d:sometimes").is_err());
        assert!(FaultPlan::parse("h2d:always:explode").is_err());
        assert!(FaultPlan::parse("").is_err());
    }

    #[test]
    fn from_selector_is_permanent() {
        let eng = ChaosEngine::new(FaultPlan::parse("launch:from-2").unwrap());
        assert_eq!(eng.next(FaultSite::Launch), None);
        for _ in 0..5 {
            assert_eq!(
                eng.next(FaultSite::Launch).map(|e| e.action),
                Some(FaultAction::Fail)
            );
        }
    }

    #[test]
    fn for_member_decorrelates_seeded_and_keeps_scripts() {
        let base = FaultPlan::seeded(42);
        let a = base.for_member(0);
        let b = base.for_member(1);
        assert_ne!(a, b, "pool members draw independent schedules");
        assert_eq!(a, base.for_member(0), "same member, same schedule");
        assert_ne!(a, base, "member plans differ from the base seed");
        let script = FaultPlan::parse("h2d:every-100").unwrap();
        assert_eq!(script.for_member(3), script, "scripts are explicit");
    }

    #[test]
    fn retry_policy_backoff_grows() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ns(1), 1_000);
        assert_eq!(p.backoff_ns(2), 2_000);
        assert_eq!(p.backoff_ns(3), 4_000);
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn env_flag_semantics() {
        // Single test (not one per case) so the env mutations never race.
        let name = "RACC_CHAOS_TEST_FLAG";
        std::env::remove_var(name);
        assert!(!env_flag(name), "unset is off");
        for off in ["", "0", "false", "off", " 0 "] {
            std::env::set_var(name, off);
            assert!(!env_flag(name), "{off:?} must be off");
        }
        for on in ["1", "true", "on", "yes", "42"] {
            std::env::set_var(name, on);
            assert!(env_flag(name), "{on:?} must be on");
        }
        std::env::remove_var(name);
    }
}
