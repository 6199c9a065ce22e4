//! End-to-end sharded multi-device tests: bit-identity of sharded runs
//! against single-device runs on every available backend, chaos-driven
//! rank death with reshard-and-replay recovery, and the shard/halo trace
//! lanes.

use racc::shard::{run_sharded, ShardOptions, ShardOutcome};
use racc::Ctx;
use racc_cg::pipelined::PipelinedCg;
use racc_lbm::sharded::ShardedLbm;
use racc_stencil::ShardedHeat3;
use std::sync::Arc;

fn heat3d(devices: usize, factory: impl Fn(usize) -> Ctx + Send + Sync + 'static) -> ShardOutcome {
    run_sharded(
        Arc::new(ShardedHeat3 { n: 10, sweeps: 6 }),
        ShardOptions::devices(devices).checkpoint_every(2),
        factory,
    )
}

fn backend_factory(key: &'static str) -> impl Fn(usize) -> Ctx + Send + Sync + 'static {
    move |_rank| {
        racc::builder()
            .backend(key)
            .build()
            .expect("backend builds")
    }
}

/// The tentpole acceptance property: sharded execution is bit-identical
/// to the single-device run on every backend — and across backends,
/// since every site evaluates the same f64 expression.
#[test]
fn sharded_heat3d_is_bit_identical_on_every_backend() {
    let mut reference: Option<Vec<f64>> = None;
    for key in racc::available_backends() {
        let one = heat3d(1, backend_factory(key));
        let three = heat3d(3, backend_factory(key));
        assert_eq!(one.field, three.field, "{key}: 3 devices vs 1");
        match &reference {
            None => reference = Some(one.field),
            Some(r) => assert_eq!(r, &one.field, "{key} vs first backend"),
        }
    }
}

#[test]
fn sharded_lbm_and_cg_are_bit_identical_across_device_counts() {
    let lbm = |devices| {
        run_sharded(
            Arc::new(ShardedLbm {
                s: 14,
                tau: 0.8,
                steps: 6,
            }),
            ShardOptions::devices(devices),
            backend_factory("threads"),
        )
        .field
    };
    assert_eq!(lbm(1), lbm(4), "LBM 4 devices vs 1");

    let cg = |devices| {
        run_sharded(
            Arc::new(PipelinedCg {
                tiles: 8,
                tile: 12,
                steps: 15,
            }),
            ShardOptions::devices(devices).checkpoint_every(5),
            backend_factory("serial"),
        )
        .field
    };
    assert_eq!(cg(1), cg(2), "CG 2 devices vs 1");
}

/// Constructs on a simulated GPU per rank, then a cross-rank sum: every
/// dot of the sharded CG is a kernel on each rank's `cudasim` whose
/// partials meet in the handle's allgather, and three simulated GPUs solve
/// bit for bit what one serial device solves.
#[cfg(feature = "backend-cuda")]
#[test]
fn sharded_cg_on_simulated_gpus_matches_one_serial_device() {
    let cg = |devices, key| {
        run_sharded(
            Arc::new(PipelinedCg {
                tiles: 8,
                tile: 12,
                steps: 15,
            }),
            ShardOptions::devices(devices),
            backend_factory(key),
        )
        .field
    };
    assert_eq!(cg(3, "cudasim"), cg(1, "serial"));
}

/// A rank killed mid-step by injected launch faults is detected by the
/// survivors, who reshard the domain, replay from the last checkpoint,
/// and finish with the exact bits of the fault-free run.
#[cfg(feature = "backend-cuda")]
#[test]
fn chaos_rank_death_recovers_bit_identically() {
    use racc::{FaultPlan, RetryPolicy};

    let fault_free = heat3d(4, backend_factory("cudasim"));

    let doomed = heat3d(4, |rank| {
        let b = racc::builder().backend("cudasim");
        let b = if rank == 2 {
            b.chaos(FaultPlan::parse("launch:nth-9").unwrap())
                .retry(RetryPolicy::none())
        } else {
            b
        };
        b.build().expect("cudasim builds")
    });

    assert_eq!(
        doomed.field, fault_free.field,
        "recovered run must match the fault-free bits"
    );
    assert_eq!(doomed.survivors(), 3, "exactly one rank died");
    assert!(doomed.reports[2].is_none(), "rank 2 was the casualty");
    let survivor = doomed.reports[0].as_ref().unwrap();
    assert!(survivor.epochs >= 1, "survivors entered a recovery epoch");
    assert!(survivor.stats.reshards >= 1, "survivors resharded");
    assert!(survivor.stats.replayed_steps >= 1, "steps were replayed");
}

/// The scaling claim of the sharded stencil, on an interior-dominated
/// size: at 4 simulated A100s with halo/interior overlap the modeled
/// makespan is at least 1.7× shorter than on one device, overlap itself
/// is worth at least 1.0× (it reads 2.58× and 1.62×), and the field is the
/// one-device field bit for bit. Smaller grids are halo-bound: the speedup
/// reads 1.715× at n = 128 and 0.855× at n = 96.
#[cfg(feature = "backend-cuda")]
#[test]
fn sharded_heat3d_scales_on_four_devices_and_overlap_pays() {
    let run = |devices: usize, overlap: bool| {
        run_sharded(
            Arc::new(ShardedHeat3 { n: 160, sweeps: 8 }),
            ShardOptions::devices(devices)
                .overlap(overlap)
                .checkpoint_every(0),
            backend_factory("cudasim"),
        )
    };
    let one = run(1, true);
    let on = run(4, true);
    let off = run(4, false);
    assert_eq!(on.field, one.field, "4 devices vs 1");

    let speedup = one.makespan_ns() as f64 / on.makespan_ns() as f64;
    let overlap_gain = off.makespan_ns() as f64 / on.makespan_ns() as f64;
    assert!(
        speedup >= 1.7,
        "4 devices must cut the modeled makespan >= 1.7x, got {speedup:.3}x"
    );
    assert!(
        overlap_gain >= 1.0,
        "overlap must not lengthen the modeled makespan, got {overlap_gain:.3}x"
    );
}

/// Shard steps and halo exchanges land on their own trace lanes.
#[test]
fn shard_steps_and_halos_record_trace_spans() {
    use racc::trace::ConstructKind;
    use std::sync::Mutex;

    let recorders = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&recorders);
    let outcome = run_sharded(
        Arc::new(ShardedHeat3 { n: 8, sweeps: 3 }),
        ShardOptions::devices(2),
        move |_rank| {
            let ctx = racc::builder()
                .backend("threads")
                .trace(true)
                .build()
                .expect("traced context");
            sink.lock()
                .unwrap()
                .push(Arc::clone(ctx.tracer().expect("tracer armed")));
            ctx
        },
    );
    assert_eq!(outcome.survivors(), 2);

    let spans: Vec<_> = recorders
        .lock()
        .unwrap()
        .iter()
        .flat_map(|r| r.spans())
        .collect();
    let shard_steps = spans
        .iter()
        .filter(|s| s.kind == ConstructKind::Shard)
        .count();
    let halos = spans
        .iter()
        .filter(|s| s.kind == ConstructKind::Halo)
        .count();
    assert!(
        shard_steps >= 6,
        "each rank records one Shard span per step (got {shard_steps})"
    );
    assert!(
        halos >= 6,
        "each rank records Halo spans for its exchanges (got {halos})"
    );
}
