//! The back end × configuration matrix the integration tests share.
//!
//! Every compiled-in back end runs plain, and again in each configuration
//! that may change how it works but must not change one bit of what it
//! computes:
//!
//! * `simsan` — the simulators' sanitizer (`.sanitizer(true)`): every
//!   device access tracked, barriers checked, canaries swept. Simulators
//!   only: on the CPU back ends `.sanitizer(true)` switches the
//!   process-global race checker of `--features racecheck`, which assumes
//!   one construct at a time in the process (`tests/racecheck_integration.rs`
//!   runs it);
//! * `fusion` — the fused fast paths (`.fusion(true)`);
//! * `chaos` — a seeded fault plan with the default retry policy: transient
//!   faults are retried, and a retried operation replays exactly (on the
//!   CPU back ends, which have no driver surface to fault, a no-op).
//!
//! [`across`] runs a property in every cell and checks each configured
//! cell against its back end's plain cell, bit for bit.

// Each test binary uses a part of this module.
#![allow(dead_code)]

use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};

use racc::{ContextBuilder, Ctx, FaultPlan, RetryPolicy};

/// The seed of the chaos cell's fault plan.
const CHAOS_SEED: u64 = 20240612;

/// How a cell's context is configured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Config {
    /// No option set: the reference of its back end's row.
    Plain,
    Simsan,
    Fusion,
    Chaos,
}

impl Config {
    pub const ALL: [Config; 4] = [Config::Plain, Config::Simsan, Config::Fusion, Config::Chaos];

    pub fn label(self) -> &'static str {
        match self {
            Config::Plain => "plain",
            Config::Simsan => "simsan",
            Config::Fusion => "fusion",
            Config::Chaos => "chaos",
        }
    }

    fn apply(self, builder: ContextBuilder) -> ContextBuilder {
        match self {
            Config::Plain => builder,
            Config::Simsan => builder.sanitizer(true),
            Config::Fusion => builder.fusion(true),
            Config::Chaos => builder
                .chaos(FaultPlan::seeded(CHAOS_SEED))
                .retry(RetryPolicy::default()),
        }
    }
}

/// One context of the matrix.
pub struct Cell {
    /// The row: a back-end key, or a caller's label for a variant of one.
    pub backend: String,
    pub config: Config,
    pub ctx: Ctx,
}

impl Cell {
    /// `backend/config`, for failure messages.
    pub fn label(&self) -> String {
        format!("{}/{}", self.backend, self.config.label())
    }
}

/// The row of one back end: `base` builds its context, plain first, then
/// every configuration that applies to it.
pub fn cells(backend: &str, base: impl Fn() -> ContextBuilder) -> Vec<Cell> {
    let plain = base().build().expect("back end compiled in");
    let accelerator = plain.is_accelerator();
    let mut row = vec![Cell {
        backend: backend.to_string(),
        config: Config::Plain,
        ctx: plain,
    }];
    for config in Config::ALL {
        if config == Config::Plain || (config == Config::Simsan && !accelerator) {
            continue;
        }
        row.push(Cell {
            backend: backend.to_string(),
            config,
            ctx: config.apply(base()).build().expect("back end compiled in"),
        });
    }
    row
}

/// Every compiled-in back end's row, in `racc::available_backends` order.
pub fn matrix() -> Vec<Cell> {
    racc::available_backends()
        .into_iter()
        .flat_map(|key| cells(key, || racc::builder().backend(key)))
        .collect()
}

/// The cells of one property-test case: the whole matrix for the first
/// `full` cases `counter` has seen, the plain cells after that (a case
/// under simsan costs several plain ones).
pub fn matrix_for_case(counter: &AtomicUsize, full: usize) -> Vec<Cell> {
    let mut cells = matrix();
    if counter.fetch_add(1, Ordering::Relaxed) >= full {
        cells.retain(|cell| cell.config == Config::Plain);
    }
    cells
}

/// Runs `property` in every cell of `cells` (rows as [`cells`] lays them
/// out) and returns each row's plain result, after checking that every
/// other cell of the row computed the same bits.
pub fn across<T: Bits + Debug>(
    cells: &[Cell],
    mut property: impl FnMut(&Ctx) -> T,
) -> Vec<(String, T)> {
    let mut plain: Vec<(String, T)> = Vec::new();
    for cell in cells {
        let got = property(&cell.ctx);
        if cell.config == Config::Plain {
            plain.push((cell.backend.clone(), got));
            continue;
        }
        let (backend, want) = plain.last().expect("a row starts with its plain cell");
        assert_eq!(*backend, cell.backend, "a row starts with its plain cell");
        assert!(
            got.bits() == want.bits(),
            "{} differs from its plain cell:\n  got  {got:?}\n  want {want:?}",
            cell.label()
        );
    }
    plain
}

/// A result as the bits that must match: floats by `to_bits`, so `-0.0`
/// and NaN payloads count.
pub trait Bits {
    fn push_bits(&self, out: &mut Vec<u64>);

    fn bits(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.push_bits(&mut out);
        out
    }
}

impl Bits for f64 {
    fn push_bits(&self, out: &mut Vec<u64>) {
        out.push(self.to_bits());
    }
}

impl Bits for f32 {
    fn push_bits(&self, out: &mut Vec<u64>) {
        out.push(u64::from(self.to_bits()));
    }
}

macro_rules! int_bits {
    ($($t:ty),*) => {$(
        impl Bits for $t {
            fn push_bits(&self, out: &mut Vec<u64>) {
                out.push(*self as u64);
            }
        }
    )*};
}
int_bits!(u32, u64, usize, bool);

impl<T: Bits> Bits for Vec<T> {
    fn push_bits(&self, out: &mut Vec<u64>) {
        out.push(self.len() as u64);
        self.iter().for_each(|v| v.push_bits(out));
    }
}

impl<T: Bits, const N: usize> Bits for [T; N] {
    fn push_bits(&self, out: &mut Vec<u64>) {
        self.iter().for_each(|v| v.push_bits(out));
    }
}

impl<A: Bits, B: Bits> Bits for (A, B) {
    fn push_bits(&self, out: &mut Vec<u64>) {
        self.0.push_bits(out);
        self.1.push_bits(out);
    }
}

impl<A: Bits, B: Bits, C: Bits> Bits for (A, B, C) {
    fn push_bits(&self, out: &mut Vec<u64>) {
        self.0.push_bits(out);
        self.1.push_bits(out);
        self.2.push_bits(out);
    }
}
