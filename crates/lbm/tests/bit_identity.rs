//! Every implementation of the interior D2Q9 step — the portable kernel on
//! each back end, its flattened launch, the serial reference and the four
//! device-specific codes — produces the same bits: they share one collision
//! body and differ only in who visits which site when.

use racc_backend_common::{cuda_backend, hip_backend, oneapi_backend};
use racc_core::{Backend, Context, SerialBackend, ThreadsBackend};
use racc_lbm::portable::LbmSim;
use racc_lbm::reference::SerialLbm;
use racc_lbm::vendor::{CudaLbm, HipLbm, OneApiLbm, ThreadsLbm};

const TAU: f64 = 0.8;
const STEPS: usize = 10;

fn fields(x: usize, y: usize) -> (f64, f64, f64) {
    (
        1.0 + 0.02 * ((x * 3 + y) as f64).sin(),
        0.01 * (y as f64 / 40.0),
        -0.005,
    )
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn portable<B: Backend>(backend: B, s: usize, flat: bool) -> Vec<u64> {
    let ctx = Context::new(backend);
    let mut sim = LbmSim::new(&ctx, s, TAU, fields).unwrap();
    for _ in 0..STEPS {
        if flat {
            sim.step_flat();
        } else {
            sim.step();
        }
    }
    bits(&sim.distributions().unwrap())
}

/// The device-specific codes share a shape, not a trait.
macro_rules! native {
    ($sim:expr) => {{
        let mut sim = $sim;
        for _ in 0..STEPS {
            sim.step();
        }
        bits(&sim.distributions())
    }};
}

#[test]
fn every_path_agrees_bit_for_bit() {
    // Neither a power of two nor a multiple of the 16-wide simulator tile.
    for s in [24, 37] {
        let mut reference = SerialLbm::from_fields(s, TAU, fields);
        let init = reference.f1.clone();
        for _ in 0..STEPS {
            reference.step();
        }
        let want = bits(&reference.f1);
        assert_ne!(want, bits(&init), "the steps must change the lattice");

        let paths = [
            ("serial", portable(SerialBackend::new(), s, false)),
            (
                "threads x1",
                portable(ThreadsBackend::with_threads(1), s, false),
            ),
            (
                "threads x3",
                portable(ThreadsBackend::with_threads(3), s, false),
            ),
            ("cudasim", portable(cuda_backend(), s, false)),
            ("hipsim", portable(hip_backend(), s, false)),
            ("oneapisim", portable(oneapi_backend(), s, false)),
            (
                "step_flat, threads x3",
                portable(ThreadsBackend::with_threads(3), s, true),
            ),
            ("step_flat, cudasim", portable(cuda_backend(), s, true)),
            ("CudaLbm", native!(CudaLbm::new(s, TAU, &init))),
            ("HipLbm", native!(HipLbm::new(s, TAU, &init))),
            ("OneApiLbm", native!(OneApiLbm::new(s, TAU, &init))),
            ("ThreadsLbm", native!(ThreadsLbm::new(3, s, TAU, &init))),
        ];
        for (name, got) in &paths {
            assert!(got == &want, "s = {s}: {name} differs from SerialLbm::step");
        }
    }
}
