//! The paper's claim on the one real device here: the portable LBM costs
//! what the device-specific CPU code costs. Both sides run the same kernel
//! over the same pool shape; a portable step that walks memory across
//! `fidx`'s stride reads 2.3–3× here, in-order reads ≈ 1.0. 512² is the size
//! at which placement decides the time (planes 2 MiB and rows 4 KiB apart:
//! lattices at one page offset keep a site's 27 streams in one L1 set, ≈ 2×);
//! a side that lost its staggered placement shows there and not at 256².
//!
//! And the same claim one layer down: the simulator's host wall is what the
//! kernel costs, not what the executor's walk costs. The portable 512² step
//! on `cudasim` confined to one pool thread runs the closure `serial` runs;
//! walked as 16 × 16 tiles (16 row fragments of 128 bytes, 4 KiB apart, × 27
//! streams per block) it read 2.6–3.1 × `serial` here, walked as bands of
//! rows 1.1–1.2.
//!
//! Wall-clock, so release only: `cargo test --release -p racc-lbm --test
//! native_parity`.

use std::time::Instant;

use std::sync::Arc;

use racc_backend_common::{SimBackend, CUDA};
use racc_core::{Context, SerialBackend, ThreadsBackend};
use racc_gpusim::{profiles, Device};
use racc_lbm::portable::LbmSim;
use racc_lbm::vendor::{uniform_init, ThreadsLbm};
use racc_threadpool::ThreadPool;

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

/// Medians of `PAIRS` interleaved timings of `a` and `b`, after one
/// untimed pass each (pool start-up, first touch of the lattices).
fn medians(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    time(&mut a);
    time(&mut b);
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        // Alternate who goes first, so a clock flip lands on both sides.
        if pair % 2 == 0 {
            ta.push(time(&mut a));
            tb.push(time(&mut b));
        } else {
            tb.push(time(&mut b));
            ta.push(time(&mut a));
        }
    }
    (median(ta), median(tb))
}

// One test, its rows one after the other: two running at once would time
// each other.
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
    simulator_over_serial(512);
}

fn parity_at(ctx: &Context<ThreadsBackend>, threads: usize, s: usize) {
    let mut portable = LbmSim::uniform(ctx, s, TAU, 1.0, 0.02, 0.0).unwrap();
    let mut native = ThreadsLbm::new(threads, s, TAU, &uniform_init(s, 1.0, 0.02, 0.0));
    let (p, n) = medians(|| portable.step(), || _ = native.step());
    within_half_again(
        &format!("portable vs native at {s}^2 on {threads} threads"),
        p,
        n,
    );
}

/// Prints `a / b` (`-- --nocapture` shows it) and panics above 1.5.
fn within_half_again(what: &str, a: f64, b: f64) {
    eprintln!("native_parity: {what}: ratio {:.2}", a / b);
    assert!(
        a <= 1.5 * b,
        "{what}: {:.3} ms vs {:.3} ms per {STEPS} steps, ratio {:.2} > 1.5",
        a * 1e3,
        b * 1e3,
        a / b
    );
}

/// The portable step on `cudasim` over a one-thread pool against the same
/// step on `serial`.
fn simulator_over_serial(s: usize) {
    let device = Device::with_pool(profiles::nvidia_a100(), Arc::new(ThreadPool::new(1)));
    let sim = Context::new(SimBackend::new(Arc::new(device), &CUDA));
    let serial = Context::new(SerialBackend::new());
    let mut on_sim = LbmSim::uniform(&sim, s, TAU, 1.0, 0.02, 0.0).unwrap();
    let mut on_serial = LbmSim::uniform(&serial, s, TAU, 1.0, 0.02, 0.0).unwrap();
    let (g, c) = medians(|| on_sim.step(), || on_serial.step());
    within_half_again(&format!("cudasim on one thread vs serial at {s}^2"), g, c);
}
