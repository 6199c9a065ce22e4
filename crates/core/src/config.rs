//! Typed runtime configuration, parsed from the environment **once** per
//! [`Context`](crate::Context) construction.
//!
//! [`RuntimeConfig`] holds the knobs a [`Context`](crate::Context)
//! consumes — `RACC_FUSION`, `RACC_CHAOS`, `RACC_PLAN_CACHE` — and nothing
//! else: a knob belongs to the layer that acts on it. The thread pool
//! reads `RACC_GRAIN` and `RACC_NUM_THREADS`, the simulator device reads
//! `RACC_SANITIZER` when it is created (before any `Context` exists),
//! `racc-shard` and `racc-serve` read their own `RACC_SHARD*` /
//! `RACC_SERVE_*` defaults. What they share is the parsing rule, exported
//! from here so no layer invents its own truthiness: [`truthy`] (the
//! [`racc_chaos::env_flag`] falsy set `""`, `"0"`, `"false"`, `"off"`) and
//! [`parse_positive`]. The README lists every variable, its reader and
//! its default.

use racc_chaos::FaultPlan;

pub use racc_chaos::truthy;
pub use racc_threadpool::parse_positive;

/// Default number of compiled fused programs retained per context when
/// `RACC_PLAN_CACHE` is unset.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 32;

/// The plan-cache knob: how many compiled fused programs a context
/// retains, or off entirely (`RACC_PLAN_CACHE=off` — every evaluation
/// replans, which is the pre-cache behavior and useful for A/B runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanCacheMode {
    /// Retain up to this many compiled programs (LRU beyond it).
    Capacity(usize),
    /// Never cache: every evaluation plans and compiles from scratch.
    Off,
}

impl PlanCacheMode {
    /// Entries the cache may hold (0 when off or `Capacity(0)`).
    pub fn capacity(self) -> usize {
        match self {
            PlanCacheMode::Capacity(n) => n,
            PlanCacheMode::Off => 0,
        }
    }

    /// True when caching is disabled (off, or a zero capacity).
    pub fn is_off(self) -> bool {
        self.capacity() == 0
    }
}

impl Default for PlanCacheMode {
    fn default() -> Self {
        PlanCacheMode::Capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

/// Every environment knob a [`Context`](crate::Context) honors, parsed
/// once.
#[derive(Debug, Clone, Default)]
pub struct RuntimeConfig {
    /// `RACC_FUSION` — advisory fused fast paths (see
    /// [`Context::fusion_enabled`](crate::Context::fusion_enabled)).
    pub fusion: bool,
    /// `RACC_CHAOS` — the fault plan, when armed with a valid spec.
    pub chaos: Option<FaultPlan>,
    /// `RACC_PLAN_CACHE` — plan-cache capacity or off.
    pub plan_cache: PlanCacheMode,
}

impl RuntimeConfig {
    /// Parse every knob from the process environment.
    pub fn from_env() -> Self {
        Self::from_lookup(|name| std::env::var(name).ok())
    }

    /// Parse from an arbitrary lookup function — the testable core of
    /// [`RuntimeConfig::from_env`], so the falsy-string tests below never
    /// mutate process-global environment state.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        RuntimeConfig {
            fusion: truthy(lookup("RACC_FUSION").as_deref()),
            chaos: lookup("RACC_CHAOS")
                .as_deref()
                .filter(|raw| truthy(Some(raw)))
                .and_then(|raw| FaultPlan::parse(raw).ok()),
            plan_cache: parse_plan_cache(lookup("RACC_PLAN_CACHE").as_deref()),
        }
    }
}

/// `RACC_PLAN_CACHE`: unset → the default capacity; a falsy string or
/// `"off"` → off; a number → that capacity. Anything unparsable keeps the
/// default (a bad knob should never turn a working program off).
fn parse_plan_cache(value: Option<&str>) -> PlanCacheMode {
    match value {
        None => PlanCacheMode::default(),
        Some(v) if !truthy(Some(v)) => PlanCacheMode::Off,
        Some(v) => match v.trim().parse::<usize>() {
            Ok(0) => PlanCacheMode::Off,
            Ok(n) => PlanCacheMode::Capacity(n),
            Err(_) => PlanCacheMode::default(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn cfg(vars: &[(&str, &str)]) -> RuntimeConfig {
        let map: HashMap<String, String> = vars
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        RuntimeConfig::from_lookup(|name| map.get(name).cloned())
    }

    #[test]
    fn unset_environment_is_all_defaults() {
        let c = cfg(&[]);
        assert!(!c.fusion);
        assert!(c.chaos.is_none());
        assert_eq!(
            c.plan_cache,
            PlanCacheMode::Capacity(DEFAULT_PLAN_CACHE_CAPACITY)
        );
    }

    #[test]
    fn falsy_strings_disable_every_knob() {
        for falsy in ["", "0", "false", "off", " off ", " 0 "] {
            let c = cfg(&[
                ("RACC_FUSION", falsy),
                ("RACC_CHAOS", falsy),
                ("RACC_PLAN_CACHE", falsy),
            ]);
            assert!(!c.fusion, "RACC_FUSION={falsy:?}");
            assert!(c.chaos.is_none(), "RACC_CHAOS={falsy:?}");
            assert_eq!(
                c.plan_cache,
                PlanCacheMode::Off,
                "RACC_PLAN_CACHE={falsy:?}"
            );
        }
    }

    #[test]
    fn truthy_strings_enable_the_flags() {
        for on in ["1", "true", "on", "yes"] {
            let c = cfg(&[("RACC_FUSION", on)]);
            assert!(c.fusion, "RACC_FUSION={on:?}");
        }
    }

    #[test]
    fn chaos_parses_seeds_scripts_and_tolerates_garbage() {
        assert_eq!(
            cfg(&[("RACC_CHAOS", "77")]).chaos,
            Some(FaultPlan::seeded(77))
        );
        assert!(matches!(
            cfg(&[("RACC_CHAOS", "d2h:nth-1")]).chaos,
            Some(FaultPlan::Script(_))
        ));
        assert_eq!(cfg(&[("RACC_CHAOS", "not-a-plan!")]).chaos, None);
    }

    #[test]
    fn plan_cache_capacity_off_and_garbage() {
        assert_eq!(
            cfg(&[("RACC_PLAN_CACHE", "4")]).plan_cache,
            PlanCacheMode::Capacity(4)
        );
        assert_eq!(
            cfg(&[("RACC_PLAN_CACHE", "0")]).plan_cache,
            PlanCacheMode::Off
        );
        assert_eq!(
            cfg(&[("RACC_PLAN_CACHE", "off")]).plan_cache,
            PlanCacheMode::Off
        );
        // Unparsable keeps the default rather than disabling the cache.
        assert_eq!(
            cfg(&[("RACC_PLAN_CACHE", "many")]).plan_cache,
            PlanCacheMode::default()
        );
        assert!(PlanCacheMode::Off.is_off());
        assert!(PlanCacheMode::Capacity(0).is_off());
        assert_eq!(PlanCacheMode::Capacity(7).capacity(), 7);
    }
}
