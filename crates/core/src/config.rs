//! Typed runtime configuration, parsed from the environment **once** per
//! [`Context`](crate::Context) construction.
//!
//! [`RuntimeConfig`] holds the knobs a [`Context`](crate::Context)
//! consumes — `RACC_FUSION` and `RACC_CHAOS` — and nothing else: a knob
//! belongs to the layer that acts on it. The thread pool reads
//! `RACC_NUM_THREADS`, the simulator device reads `RACC_SANITIZER` when it
//! is created (before any `Context` exists). The flags share one truthy
//! rule, [`racc_chaos::truthy`] (the falsy set `""`, `"0"`, `"false"`,
//! `"off"`). The README lists every variable, its reader and its default.

use std::sync::Once;

use racc_chaos::{truthy, FaultPlan};

/// Every environment knob a [`Context`](crate::Context) honors, parsed
/// once.
#[derive(Debug, Clone, Default)]
pub struct RuntimeConfig {
    /// `RACC_FUSION` — advisory fused fast paths (see
    /// [`Context::fusion_enabled`](crate::Context::fusion_enabled)).
    pub fusion: bool,
    /// `RACC_CHAOS` — the fault plan, when armed with a valid spec.
    pub chaos: Option<FaultPlan>,
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
            chaos: parse_chaos(lookup("RACC_CHAOS").as_deref()),
        }
    }
}

/// `RACC_CHAOS`: unset or falsy → off; otherwise the parsed plan. A
/// malformed spec is reported on stderr (once per process, however many
/// contexts read it) and treated as off — an env typo must not change
/// program behavior silently, but it must not abort a run either.
fn parse_chaos(raw: Option<&str>) -> Option<FaultPlan> {
    let raw = raw.filter(|raw| truthy(Some(raw)))?;
    match FaultPlan::parse(raw) {
        Ok(plan) => Some(plan),
        Err(e) => {
            static WARNED: Once = Once::new();
            WARNED.call_once(|| eprintln!("racc: ignoring RACC_CHAOS: {e}"));
            None
        }
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
    }

    #[test]
    fn falsy_strings_disable_every_knob() {
        for falsy in ["", "0", "false", "off", " off ", " 0 "] {
            let c = cfg(&[("RACC_FUSION", falsy), ("RACC_CHAOS", falsy)]);
            assert!(!c.fusion, "RACC_FUSION={falsy:?}");
            assert!(c.chaos.is_none(), "RACC_CHAOS={falsy:?}");
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
        // Malformed specs are off, not fatal — and every reader agrees.
        for garbage in ["not-a-plan!", "h2d:evry-3"] {
            assert_eq!(cfg(&[("RACC_CHAOS", garbage)]).chaos, None, "{garbage:?}");
        }
    }
}
