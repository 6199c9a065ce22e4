//! Dynamic race detection through the public front end (compiled only with
//! `--features racecheck`): write-write and read-write overlaps between
//! iterations of one construct.
//!
//! All scenarios share process-global checker state, so they run inside one
//! `#[test]` sequentially.

#![cfg(feature = "racecheck")]

use racc::prelude::*;
use racc_core::racecheck;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn racecheck_catches_seeded_races_and_passes_clean_kernels() {
    let ctx = racc::context_for("serial").unwrap();
    racecheck::set_enabled(true);

    // Clean disjoint writes pass.
    let a = ctx.zeros::<f64>(256).unwrap();
    let av = a.view_mut();
    ctx.parallel_for(256, &KernelProfile::unknown(), move |i| {
        av.set(i, i as f64);
    });

    // A seeded overlap (every iteration writes element 0) panics.
    let b = ctx.zeros::<f64>(8).unwrap();
    let bv = b.view_mut();
    let result = catch_unwind(AssertUnwindSafe(|| {
        ctx.parallel_for(64, &KernelProfile::unknown(), move |_i| {
            bv.set(0, 1.0);
        });
    }));
    let payload = result.expect_err("race must be detected");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("racecheck"), "{msg}");

    // 2D stencil with halo-overlapping writes is also caught.
    let c = ctx.zeros2::<f64>(8, 8).unwrap();
    let cv = c.view_mut();
    let result = catch_unwind(AssertUnwindSafe(|| {
        ctx.parallel_for_2d((8, 8), &KernelProfile::unknown(), move |i, j| {
            // Each site writes its right neighbor too: overlap.
            cv.set(i, j, 1.0);
            if i + 1 < 8 {
                cv.set(i + 1, j, 2.0);
            }
        });
    }));
    assert!(result.is_err(), "overlapping stencil writes must be caught");

    // An in-place shift: iteration i reads element i + 1, which iteration
    // i + 1 writes. No two writes overlap, but the order of the two
    // iterations decides what i reads.
    let e = ctx.array_from_fn(16, |i| i as f64).unwrap();
    let (er, ew) = (e.view(), e.view_mut());
    let result = catch_unwind(AssertUnwindSafe(|| {
        ctx.parallel_for(15, &KernelProfile::unknown(), move |i| {
            ew.set(i, er.get(i + 1));
        });
    }));
    let payload = result.expect_err("read-write race must be detected");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("read-write race"), "{msg}");

    // The LBM kernel's writes are disjoint by construction: must pass.
    racecheck::set_enabled(true);
    let mut sim = racc_lbm::portable::LbmSim::uniform(&ctx, 12, 0.8, 1.0, 0.01, 0.0).unwrap();
    sim.step();
    sim.step_periodic();

    // Disabled checker ignores overlaps again.
    racecheck::set_enabled(false);
    let d = ctx.zeros::<f64>(4).unwrap();
    let dv = d.view_mut();
    ctx.parallel_for(16, &KernelProfile::unknown(), move |_i| {
        dv.set(0, 3.0);
    });
}
