//! Sharded D2Q9 LBM: the portable interior-update scheme of
//! [`crate::portable::LbmSim`] split along `x` across simulated devices.
//!
//! The canonical snapshot stores one slab per `x` row: all `Q * s`
//! distribution values of that row in `(k, y)` order, so any shard count
//! re-partitions the same global state. Per step each shard packs its
//! owned edge rows of the current lattice, posts them, streams + collides
//! the interior rows while the exchange is in flight, unpacks the ghosts,
//! and finishes the ghost-adjacent rows. Every site evaluates exactly the
//! expression of the single-device kernel, so distributions are
//! bit-identical at any shard count.

use racc_core::{Array1, Backend, Context, KernelProfile};
use racc_shard::{Shard, ShardApp, ShardError, ShardHandle, Topology};

use crate::lattice::{equilibrium, is_interior, pull, site, Q};
use crate::lbm_profile;
use crate::portable::collide_into;

/// Local lattice index: distribution `k` at local row `xl`, column `y`,
/// on a shard holding `le` rows of an `s`-wide grid.
#[inline]
fn lidx(k: usize, xl: usize, y: usize, le: usize, s: usize) -> usize {
    (k * le + xl) * s + y
}

/// The sharded LBM mini-app: a shear-wave-like deterministic initial
/// condition on an `s × s` grid, stepped with the interior-only scheme
/// (global edge rows and columns stay frozen).
#[derive(Debug, Clone)]
pub struct ShardedLbm {
    /// Grid edge length.
    pub s: usize,
    /// BGK relaxation time (> 0.5).
    pub tau: f64,
    /// Time steps to run.
    pub steps: u64,
}

/// Per-shard device state: scratch, current and next lattices over the
/// local rows (ghosts included), plus one staging row for pack/unpack.
pub struct LbmState {
    f: Array1<f64>,
    f1: Array1<f64>,
    f2: Array1<f64>,
    stage: Array1<f64>,
}

impl ShardedLbm {
    /// Deterministic initial macroscopic fields at global `(x, y)`.
    fn fields(&self, x: usize, y: usize) -> (f64, f64, f64) {
        let s = self.s as f64;
        (
            1.0 + 0.02 * ((x * 3 + y) as f64).sin(),
            0.01 * (y as f64 / s),
            -0.005,
        )
    }

    fn stage_profile() -> KernelProfile {
        KernelProfile::new("lbm-halo-pack", 0.0, 8.0, 8.0)
    }

    /// Pack local row `xl` of `f1` into the staging vector and download it.
    fn pack<B: Backend>(
        ctx: &Context<B>,
        state: &LbmState,
        le: usize,
        s: usize,
        xl: usize,
    ) -> Vec<f64> {
        let fv = state.f1.view();
        let gv = state.stage.view_mut();
        ctx.parallel_for(Q * s, &Self::stage_profile(), move |idx| {
            let (k, y) = (idx / s, idx % s);
            gv.set(idx, fv.get(lidx(k, xl, y, le, s)));
        });
        ctx.to_host(&state.stage).expect("lbm halo pack")
    }

    /// Upload a received row into local row `xl` of `f1`.
    fn unpack<B: Backend>(
        ctx: &Context<B>,
        state: &LbmState,
        le: usize,
        s: usize,
        xl: usize,
        data: &[f64],
    ) {
        ctx.copy_to(&state.stage, data).expect("lbm halo upload");
        let gv = state.stage.view();
        let fv = state.f1.view_mut();
        ctx.parallel_for(Q * s, &Self::stage_profile(), move |idx| {
            let (k, y) = (idx / s, idx % s);
            fv.set(lidx(k, xl, y, le, s), gv.get(idx));
        });
    }

    /// Stream + collide local rows `[x_from, x_to)` — the exact per-site
    /// arithmetic of [`crate::portable::LbmSim::step`], with the
    /// interior-only guard applied at *global* coordinates. The launch
    /// covers exactly the requested rows so the modeled cost tracks the
    /// work actually done.
    fn update<B: Backend>(
        ctx: &Context<B>,
        state: &LbmState,
        shard: Shard,
        s: usize,
        tau: f64,
        x_from: usize,
        x_to: usize,
    ) {
        let le = shard.local_extent();
        let (glo, os) = (shard.lo, shard.owned_start());
        let f = state.f.view_mut();
        let f1 = state.f1.view();
        let f2 = state.f2.view_mut();
        ctx.parallel_for_2d((s, x_to - x_from), &lbm_profile(), move |fast, slow| {
            let (xi, y) = site(fast, slow);
            let xl = x_from + xi;
            let x = glo + xl - os; // global row
            if is_interior(x, y, s) {
                // The source row is local: `xl` less the same offset.
                let pulled = pull(xl, y, |k, xsl, ys| f1.get(lidx(k, xsl, ys, le, s)));
                collide_into(&pulled, tau, |k| lidx(k, xl, y, le, s), &f, &f2);
            }
        });
    }
}

impl<B: Backend> ShardApp<B> for ShardedLbm {
    type State = LbmState;

    fn extent(&self) -> usize {
        self.s
    }
    fn slab_len(&self) -> usize {
        Q * self.s
    }
    fn radius(&self) -> usize {
        1
    }
    fn total_steps(&self) -> u64 {
        self.steps
    }
    fn topology(&self) -> Topology {
        Topology::Open
    }

    fn initial(&self) -> Vec<f64> {
        let s = self.s;
        let mut snapshot = Vec::with_capacity(Q * s * s);
        for x in 0..s {
            for k in 0..Q {
                for y in 0..s {
                    let (rho, ux, uy) = self.fields(x, y);
                    snapshot.push(equilibrium(k, rho, ux, uy));
                }
            }
        }
        snapshot
    }

    fn init(&self, ctx: &Context<B>, shard: Shard, snapshot: &[f64]) -> LbmState {
        let s = self.s;
        let le = shard.local_extent();
        let slab = Q * s;
        let mut local = vec![0.0f64; Q * le * s];
        for xl in 0..le {
            let g = shard.global_of(xl);
            let row = &snapshot[g * slab..(g + 1) * slab];
            for k in 0..Q {
                for y in 0..s {
                    local[lidx(k, xl, y, le, s)] = row[k * s + y];
                }
            }
        }
        // `f2` starts as a copy: the frozen global edge rows/columns are
        // never rewritten, and the snapshot carries their authoritative
        // values. `f` is pure scratch (written before read at every
        // updated site).
        LbmState {
            f: ctx.zeros(Q * le * s).expect("f alloc"),
            f1: ctx.array_from(&local).expect("f1 alloc"),
            f2: ctx.array_from(&local).expect("f2 alloc"),
            stage: ctx.zeros(slab).expect("stage alloc"),
        }
    }

    fn step(
        &self,
        h: &mut ShardHandle<'_, B>,
        state: &mut LbmState,
        _step: u64,
    ) -> Result<(), ShardError> {
        let (s, tau) = (self.s, self.tau);
        let sh = h.shard();
        let (os, owned, le) = (sh.owned_start(), sh.owned(), sh.local_extent());

        let to_lo = (sh.ghosts_lo() > 0).then(|| Self::pack(h.ctx(), state, le, s, os));
        let to_hi = (sh.ghosts_hi() > 0).then(|| Self::pack(h.ctx(), state, le, s, os + owned - 1));
        h.post_halos(to_lo, to_hi)?;

        let lo_int = os + usize::from(sh.ghosts_lo() > 0);
        let hi_int = os + owned - usize::from(sh.ghosts_hi() > 0);
        h.interior(|ctx| Self::update(ctx, state, sh, s, tau, lo_int, hi_int));

        let (from_lo, from_hi) = h.recv_halos()?;
        if let Some(data) = from_lo {
            Self::unpack(h.ctx(), state, le, s, 0, &data);
        }
        if let Some(data) = from_hi {
            Self::unpack(h.ctx(), state, le, s, le - 1, &data);
        }

        h.boundary(|ctx| {
            if sh.ghosts_lo() > 0 {
                Self::update(ctx, state, sh, s, tau, os, os + 1);
            }
            if sh.ghosts_hi() > 0 {
                Self::update(ctx, state, sh, s, tau, os + owned - 1, os + owned);
            }
        });

        std::mem::swap(&mut state.f1, &mut state.f2);
        Ok(())
    }

    fn dump(&self, ctx: &Context<B>, shard: Shard, state: &LbmState) -> Vec<f64> {
        let s = self.s;
        let le = shard.local_extent();
        let host = ctx.to_host(&state.f1).expect("lbm dump");
        let mut out = Vec::with_capacity(shard.owned() * Q * s);
        for xl in shard.owned_start()..shard.owned_start() + shard.owned() {
            for k in 0..Q {
                for y in 0..s {
                    out.push(host[lidx(k, xl, y, le, s)]);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portable::LbmSim;
    use racc_core::{SerialBackend, ThreadsBackend};
    use racc_shard::{run_sharded, ShardOptions};
    use std::sync::Arc;

    fn run(devices: usize) -> Vec<f64> {
        run_sharded(
            Arc::new(ShardedLbm {
                s: 18,
                tau: 0.8,
                steps: 8,
            }),
            ShardOptions::devices(devices).checkpoint_every(3),
            |_rank| Context::new(SerialBackend::new()),
        )
        .field
    }

    #[test]
    fn sharded_lbm_matches_single_device_bitwise() {
        let one = run(1);
        for devices in [2, 4] {
            assert_eq!(one, run(devices), "{devices} devices");
        }
    }

    #[test]
    fn sharded_lbm_matches_the_unsharded_simulation_bitwise() {
        let app = ShardedLbm {
            s: 18,
            tau: 0.8,
            steps: 8,
        };
        let ctx = Context::new(ThreadsBackend::with_threads(2));
        let mut sim = LbmSim::new(&ctx, app.s, app.tau, |x, y| app.fields(x, y)).unwrap();
        for _ in 0..app.steps {
            sim.step();
        }
        let flat = sim.distributions().unwrap();
        // Re-order the row-major canonical snapshot into the plain
        // simulation's `fidx` layout for comparison.
        let s = app.s;
        let sharded = run(3);
        let mut canonical = vec![0.0f64; Q * s * s];
        for x in 0..s {
            for k in 0..Q {
                for y in 0..s {
                    canonical[crate::lattice::fidx(k, x, y, s)] = sharded[x * Q * s + k * s + y];
                }
            }
        }
        assert_eq!(
            flat, canonical,
            "sharded LBM must match the plain kernel bitwise"
        );
    }
}
