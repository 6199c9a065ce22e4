//! The paper's claim on the one real device here: the portable LBM costs
//! what the device-specific CPU code costs. Both sides run the same kernel
//! over the same pool shape; a portable step that walks memory across
//! `fidx`'s stride reads 2.3–3× here, in-order reads ≈ 1.0. 512² is the size
//! at which placement decides the time (planes 2 MiB and rows 4 KiB apart:
//! lattices at one page offset keep a site's 27 streams in one L1 set, ≈ 2×);
//! a side that lost its staggered placement shows there and not at 256².
//!
//! Wall-clock, so release only: `cargo test --release -p racc-lbm --test
//! native_parity`.

use std::time::Instant;

use racc_core::{Context, ThreadsBackend};
use racc_lbm::portable::LbmSim;
use racc_lbm::vendor::{uniform_init, ThreadsLbm};

const SIZES: [usize; 2] = [256, 512];
const TAU: f64 = 0.8;
const STEPS: usize = 4;
const PAIRS: usize = 7;

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Wall seconds of `STEPS` calls.
fn time(mut step: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..STEPS {
        step();
    }
    start.elapsed().as_secs_f64()
}

#[test]
fn portable_step_costs_what_the_native_step_costs() {
    if cfg!(debug_assertions) {
        eprintln!("native_parity: skipped in a debug build (it compares wall times)");
        return;
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Context::new(ThreadsBackend::with_threads(threads));
    for s in SIZES {
        parity_at(&ctx, threads, s);
    }
}

fn parity_at(ctx: &Context<ThreadsBackend>, threads: usize, s: usize) {
    let mut portable = LbmSim::uniform(ctx, s, TAU, 1.0, 0.02, 0.0).unwrap();
    let mut native = ThreadsLbm::new(threads, s, TAU, &uniform_init(s, 1.0, 0.02, 0.0));
    // One untimed pass each: pool start-up and first touch of the lattices.
    time(|| portable.step());
    time(|| _ = native.step());
    let (mut p, mut n) = (Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        // Alternate who goes first, so a clock flip lands on both sides.
        if pair % 2 == 0 {
            p.push(time(|| portable.step()));
            n.push(time(|| _ = native.step()));
        } else {
            n.push(time(|| _ = native.step()));
            p.push(time(|| portable.step()));
        }
    }
    let (p, n) = (median(p), median(n));
    assert!(
        p <= 1.5 * n,
        "portable {:.3} ms vs native {:.3} ms per {STEPS} steps at {s}^2 on {threads} threads: \
         ratio {:.2} > 1.5",
        p * 1e3,
        n * 1e3,
        p / n
    );
}
