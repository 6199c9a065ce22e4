//! `shard_heat3d` — `racc_stencil::ShardedHeat3` at 64³ for 8 sweeps with
//! halo/interior overlap on. `comm` and `shard` do the work that differs
//! from `kernels_large`: pack/unpack launches, staging transfers, halo
//! messages, heartbeats, rank threads.
//!
//! Wall is taken at 2 devices (never more rank threads than cores); the
//! `serial` cell is the plain unsharded sweep of the same cube. The app
//! fixes its own initial field (hot `i = 0` face), so this workload's
//! input does not depend on `--seed`.

use std::sync::Arc;
use std::time::Instant;

use racc::{run_sharded, KernelProfile, ShardApp, ShardOptions, ShardOutcome};
use racc_stencil::ShardedHeat3;

use crate::cell::{digest, hash_f64, make_ctx, modeled_mode, Cell, Env, RepOutcome, Runner};
use crate::spans::span;

pub const EDGE: usize = 64;
pub const SWEEPS: u64 = 8;
/// Devices of the wall cells.
pub const WALL_DEVICES: usize = 2;
/// Devices of the modeled cell (`modeled_s` is the makespan at 4).
pub const MODELED_DEVICES: usize = 4;

pub fn app() -> Arc<ShardedHeat3> {
    Arc::new(ShardedHeat3 {
        n: EDGE,
        sweeps: SWEEPS,
    })
}

/// One sharded run on `devices` contexts of `backend`.
pub fn sharded(backend: &str, devices: usize, overlap: bool) -> ShardOutcome {
    let key = backend.to_owned();
    span("shard.run_sharded", || {
        run_sharded(
            app(),
            ShardOptions::devices(devices)
                .overlap(overlap)
                .checkpoint_every(0),
            move |_rank| make_ctx(&key, false),
        )
    })
}

/// The same sweeps as one plain single-context loop (the kernel of
/// `examples/heat3d.rs`): the unsharded baseline and the reference field.
pub fn unsharded(ctx: &racc::Ctx) -> Result<Vec<f64>, String> {
    let e = |e: racc::Error| e.to_string();
    let n = EDGE;
    let init = <ShardedHeat3 as ShardApp<racc::AnyBackend>>::initial(&app());
    let mut t0 = span("core.array_from", || ctx.array3_from(n, n, n, &init)).map_err(e)?;
    let mut t1 = span("core.array_from", || ctx.array3_from(n, n, n, &init)).map_err(e)?;
    let profile = KernelProfile::new("heat3d-jacobi", 8.0, 56.0, 8.0);
    for _ in 0..SWEEPS {
        let (src, dst) = (t0.view(), t1.view_mut());
        span("stencil.sweep", || {
            ctx.parallel_for_3d((n, n, n), &profile, move |i, j, k| {
                if i == 0 || i == n - 1 {
                    return;
                }
                let (jm, jp) = (j.saturating_sub(1), (j + 1).min(n - 1));
                let (km, kp) = (k.saturating_sub(1), (k + 1).min(n - 1));
                let sum = src.get(i - 1, j, k)
                    + src.get(i + 1, j, k)
                    + src.get(i, jm, k)
                    + src.get(i, jp, k)
                    + src.get(i, j, km)
                    + src.get(i, j, kp);
                dst.set(i, j, k, sum / 6.0);
            })
        });
        std::mem::swap(&mut t0, &mut t1);
    }
    span("core.to_host", || ctx.to_host3(&t0)).map_err(e)
}

/// Counters of one sharded run, summed over ranks.
pub fn shard_counts(outcome: &ShardOutcome) -> [(&'static str, f64); 5] {
    let sum = |f: fn(&racc::shard::RankReport) -> u64| {
        outcome.reports.iter().flatten().map(f).sum::<u64>() as f64
    };
    [
        // The run's modeled time is its makespan: the slowest shard's
        // overlap-accounted clock.
        ("modeled_ns", outcome.makespan_ns() as f64),
        ("halo_exchanges", sum(|r| r.stats.halo_exchanges)),
        ("halo_bytes", sum(|r| r.stats.halo_bytes)),
        ("heartbeats", sum(|r| r.stats.heartbeats)),
        ("serialized_modeled_ns", sum(|r| r.modeled_ns)),
    ]
}

pub struct ShardHeat3d;

pub struct State<'c> {
    env: &'c Env,
    /// The unsharded field from the serial twin.
    reference: u64,
}

impl Cell for ShardHeat3d {
    type State<'c> = State<'c>;

    fn build<'c>(env: &'c Env, _seed: u64) -> Result<State<'c>, String> {
        let field = unsharded(&env.twin)?;
        // Physical sanity of the reference itself: the hot face is held,
        // every temperature stays between the two faces.
        if !field.iter().all(|t| (0.0..=1.0).contains(t)) || field[0] != 1.0 {
            return Err("unsharded reference field is not a heat field".into());
        }
        Ok(State {
            env,
            reference: hash_f64(&field),
        })
    }
}

impl Runner for State<'_> {
    fn rep(&mut self) -> RepOutcome {
        let t = Instant::now();
        if self.env.backend == "serial" {
            let before = self.env.ctx.timeline();
            let field = unsharded(&self.env.ctx);
            let mut out = RepOutcome::new(t.elapsed().as_secs_f64());
            let after = self.env.ctx.timeline();
            out.push("modeled_ns", (after.modeled_ns - before.modeled_ns) as f64);
            out.push("launches", (after.launches - before.launches) as f64);
            match field {
                Ok(f) => out.check(hash_f64(&f) == self.reference, || {
                    "unsharded field differs between two serial contexts".into()
                }),
                Err(e) => out.fail(e),
            }
            return out;
        }
        // Wall is never taken with more rank threads than cores; the
        // modeled cell (pinned, exact) runs the 4-device configuration.
        let devices = if modeled_mode() {
            MODELED_DEVICES
        } else {
            WALL_DEVICES
        };
        let outcome = sharded(&self.env.backend, devices, true);
        let mut out = RepOutcome::new(t.elapsed().as_secs_f64());
        for (name, v) in shard_counts(&outcome) {
            out.push(name, v);
        }
        out.push("digest", digest(outcome.field.iter().map(|v| v.to_bits())));
        out.check(outcome.survivors() == devices, || {
            format!("{} of {devices} ranks survived", outcome.survivors())
        });
        // Sharding never changes values, only the split.
        out.check(hash_f64(&outcome.field) == self.reference, || {
            "sharded field is not bit-identical to the unsharded run".into()
        });
        out
    }
}
