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

    // Rank 3 on both CPU back ends: the disjoint sweep is clean, and two
    // iterations in different rows, columns and planes writing one element
    // race.
    for key in ["serial", "threads"] {
        let cpu = racc::context_for(key).unwrap();
        racecheck::set_enabled(true);
        let dims = (5, 3, 7);
        let f = cpu.zeros3::<f64>(dims.0, dims.1, dims.2).unwrap();
        let fv = f.view_mut();
        cpu.parallel_for_3d(dims, &KernelProfile::unknown(), move |i, j, k| {
            fv.set(i, j, k, (i + j + k) as f64);
        });
        let fv = f.view_mut();
        let result = catch_unwind(AssertUnwindSafe(|| {
            cpu.parallel_for_3d(dims, &KernelProfile::unknown(), move |i, j, k| {
                if (i, j, k) == (1, 2, 3) || (i, j, k) == (4, 0, 6) {
                    fv.set(2, 1, 5, 1.0);
                }
            });
        }));
        let payload = result.expect_err("rank-3 race must be detected");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("racecheck"), "{key}: {msg}");
    }

    // A sort whose `write` stores every rank into element 0 races on both
    // CPU back ends: each write runs as the rank it reports, not as the
    // last key read. `sort_by_key`'s own writes stay clean.
    sort_writes_race_by_rank(Context::new(racc_core::SerialBackend::new()));
    sort_writes_race_by_rank(Context::new(racc_core::ThreadsBackend::new()));

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

fn sort_writes_race_by_rank<B: racc::prim::PrimBackend>(ctx: Context<B>) {
    racecheck::set_enabled(true);
    let key = ctx.backend().key();
    let keys = ctx.array_from_fn(300, |i| ((i * 37) % 101) as u32).unwrap();
    let values = ctx.array_from_fn(300, |i| i as f64).unwrap();
    let (sk, _) = ctx.sort_by_key(&keys, &values).unwrap();
    assert_eq!(ctx.to_host(&sk).unwrap()[299], 100, "{key}");

    let out = ctx.zeros::<u64>(300).unwrap();
    let (kv, ov) = (keys.view(), out.view_mut());
    let result = catch_unwind(AssertUnwindSafe(|| {
        ctx.backend().prim_sort_pairs(
            300,
            32,
            &KernelProfile::unknown(),
            move |i| kv.get(i) as u64,
            move |rank, _| ov.set(0, rank as u64),
        );
    }));
    let payload = result.expect_err("every rank writing element 0 must race");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("racecheck"), "{key}: {msg}");
}
