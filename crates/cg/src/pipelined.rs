//! Pipelined distributed CG as a [`ShardApp`]: the HPCCG tridiagonal
//! system, tiled so that every reduction is bit-identical at any shard
//! count and the one-scalar matvec halos overlap the interior sweep.
//!
//! Determinism is the whole design:
//!
//! - The vector length is `tiles * tile` and shards split at *tile*
//!   granularity (the split axis counts tiles, not elements).
//! - Every dot product is computed as per-tile partial sums — each tile
//!   summed serially in element order on whatever device owns it — then
//!   allgathered and folded on the host in global tile order. The result
//!   is one canonical `f64` per dot, independent of shard count, backend
//!   geometry, and reshard history; it feeds `alpha`/`beta` identically
//!   everywhere, which is what makes the solution trajectory bit-stable
//!   under chaos recovery.
//! - Iterations run a fixed count (`steps`), keeping every rank in
//!   lockstep SPMD (no data-dependent early exit).

use racc_core::{Array1, Backend, Context, KernelProfile};
use racc_shard::{Shard, ShardApp, ShardError, ShardHandle, Topology};

/// The sharded CG mini-app: solve `A x = b` for the diagonally dominant
/// tridiagonal `A = tri(1, 4, 1)` with `b = A x_true`.
#[derive(Debug, Clone)]
pub struct PipelinedCg {
    /// Number of global tiles (the split axis).
    pub tiles: usize,
    /// Elements per tile.
    pub tile: usize,
    /// CG iterations to run (fixed, for SPMD lockstep).
    pub steps: u64,
}

/// Per-shard device state: the owned slices of the CG vectors plus the
/// carried `r·r` scalar (lazily recomputed after restarts — the
/// deterministic fold makes the recomputed value bit-identical to the
/// carried one).
pub struct CgState {
    x: Array1<f64>,
    r: Array1<f64>,
    p: Array1<f64>,
    s: Array1<f64>,
    /// Per-tile partial staging (owned tiles).
    partials: Array1<f64>,
    /// Edge-scalar staging (`p[0]`, `p[local_n-1]`).
    edges: Array1<f64>,
    rr: Option<f64>,
}

impl PipelinedCg {
    /// Global vector length.
    pub fn n(&self) -> usize {
        self.tiles * self.tile
    }

    /// The synthetic exact solution at global element `i`.
    pub fn x_true(i: usize) -> f64 {
        ((i % 11) as f64) * 0.3 - 1.5
    }

    /// `b = A x_true` at global element `i`.
    fn b(&self, i: usize) -> f64 {
        let n = self.n();
        let left = if i > 0 { Self::x_true(i - 1) } else { 0.0 };
        let right = if i + 1 < n { Self::x_true(i + 1) } else { 0.0 };
        left + 4.0 * Self::x_true(i) + right
    }

    /// Deterministic dot: per-tile serial partials on the device, then a
    /// host fold in global tile order via the handle's allgather.
    fn dot<B: Backend>(
        h: &mut ShardHandle<'_, B>,
        state: &CgState,
        a: &Array1<f64>,
        b: &Array1<f64>,
        tile: usize,
        owned_tiles: usize,
    ) -> Result<f64, ShardError> {
        let (av, bv, pv) = (a.view(), b.view(), state.partials.view_mut());
        h.ctx().parallel_for(
            owned_tiles,
            &KernelProfile::new("cg-tile-dot", 2.0 * tile as f64, 16.0 * tile as f64, 8.0),
            move |t| {
                let mut acc = 0.0;
                for i in t * tile..(t + 1) * tile {
                    acc += av.get(i) * bv.get(i);
                }
                pv.set(t, acc);
            },
        );
        let mine = h.ctx().to_host(&state.partials).expect("partials download");
        let parts = h.allgather(mine)?;
        let mut total = 0.0;
        for part in parts {
            for v in part {
                total += v;
            }
        }
        Ok(total)
    }
}

impl<B: Backend> ShardApp<B> for PipelinedCg {
    type State = CgState;

    fn extent(&self) -> usize {
        self.tiles
    }
    fn slab_len(&self) -> usize {
        3 * self.tile
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
        // x = 0, r = p = b, interleaved [x | r | p] per tile.
        let tile = self.tile;
        let mut snapshot = Vec::with_capacity(self.tiles * 3 * tile);
        for t in 0..self.tiles {
            snapshot.extend(std::iter::repeat_n(0.0, tile));
            for i in t * tile..(t + 1) * tile {
                snapshot.push(self.b(i));
            }
            for i in t * tile..(t + 1) * tile {
                snapshot.push(self.b(i));
            }
        }
        snapshot
    }

    fn init(&self, ctx: &Context<B>, shard: Shard, snapshot: &[f64]) -> CgState {
        let tile = self.tile;
        let slab = 3 * tile;
        let owned = shard.owned();
        let local_n = owned * tile;
        let (mut x, mut r, mut p) = (
            Vec::with_capacity(local_n),
            Vec::with_capacity(local_n),
            Vec::with_capacity(local_n),
        );
        for t in shard.lo..shard.hi {
            let row = &snapshot[t * slab..(t + 1) * slab];
            x.extend_from_slice(&row[..tile]);
            r.extend_from_slice(&row[tile..2 * tile]);
            p.extend_from_slice(&row[2 * tile..]);
        }
        CgState {
            x: ctx.array_from(&x).expect("x alloc"),
            r: ctx.array_from(&r).expect("r alloc"),
            p: ctx.array_from(&p).expect("p alloc"),
            s: ctx.zeros(local_n).expect("s alloc"),
            partials: ctx.zeros(owned).expect("partials alloc"),
            edges: ctx.zeros(2).expect("edges alloc"),
            rr: None,
        }
    }

    fn step(
        &self,
        h: &mut ShardHandle<'_, B>,
        state: &mut CgState,
        _step: u64,
    ) -> Result<(), ShardError> {
        let tile = self.tile;
        let sh = h.shard();
        let owned_tiles = sh.owned();
        let local_n = owned_tiles * tile;

        // Phase 1: read and post the p edge scalars.
        {
            let (pv, ev) = (state.p.view(), state.edges.view_mut());
            h.ctx().parallel_for(
                2,
                &KernelProfile::new("cg-edge-pack", 0.0, 8.0, 8.0),
                move |i| {
                    ev.set(i, pv.get(if i == 0 { 0 } else { local_n - 1 }));
                },
            );
        }
        let edges = h.ctx().to_host(&state.edges).expect("edge download");
        let to_lo = (sh.ghosts_lo() > 0).then(|| vec![edges[0]]);
        let to_hi = (sh.ghosts_hi() > 0).then(|| vec![edges[1]]);
        h.post_halos(to_lo, to_hi)?;

        // Phase 2: interior matvec `s = A p` — every owned element except
        // the two that read a neighbor's p scalar.
        let (skip_first, skip_last) = (sh.ghosts_lo() > 0, sh.ghosts_hi() > 0);
        h.interior(|ctx| {
            let (pv, sv) = (state.p.view(), state.s.view_mut());
            ctx.parallel_for(
                local_n,
                &KernelProfile::new("dist-tridiag", 5.0, 48.0, 8.0),
                move |i| {
                    if (i == 0 && skip_first) || (i == local_n - 1 && skip_last) {
                        return;
                    }
                    let left = if i > 0 { pv.get(i - 1) } else { 0.0 };
                    let right = if i + 1 < local_n { pv.get(i + 1) } else { 0.0 };
                    sv.set(i, left + 4.0 * pv.get(i) + right);
                },
            );
        });

        // Phase 3: complete the halo exchange.
        let (from_lo, from_hi) = h.recv_halos()?;

        // Phase 4: the two ghost-reading elements.
        h.boundary(|ctx| {
            let profile = KernelProfile::new("dist-tridiag-edge", 5.0, 48.0, 8.0);
            if let Some(lh) = from_lo {
                let (pv, sv) = (state.p.view(), state.s.view_mut());
                let halo = lh[0];
                ctx.parallel_for(1, &profile, move |_| {
                    let right = if local_n > 1 { pv.get(1) } else { 0.0 };
                    sv.set(0, halo + 4.0 * pv.get(0) + right);
                });
            }
            if let Some(rh) = from_hi {
                let (pv, sv) = (state.p.view(), state.s.view_mut());
                let halo = rh[0];
                ctx.parallel_for(1, &profile, move |_| {
                    let left = if local_n > 1 {
                        pv.get(local_n - 2)
                    } else {
                        0.0
                    };
                    sv.set(local_n - 1, left + 4.0 * pv.get(local_n - 1) + halo);
                });
            }
        });

        // Scalar recurrences on the canonical folded dots.
        let rr = match state.rr {
            Some(v) => v,
            None => Self::dot(h, state, &state.r, &state.r, tile, owned_tiles)?,
        };
        let ps = Self::dot(h, state, &state.p, &state.s, tile, owned_tiles)?;
        let alpha = rr / ps;

        {
            let (xv, pv) = (state.x.view_mut(), state.p.view());
            h.ctx()
                .parallel_for(local_n, &KernelProfile::axpy(), move |i| {
                    xv.set(i, xv.get(i) + alpha * pv.get(i));
                });
            let (rv, sv) = (state.r.view_mut(), state.s.view());
            h.ctx()
                .parallel_for(local_n, &KernelProfile::axpy(), move |i| {
                    rv.set(i, rv.get(i) - alpha * sv.get(i));
                });
        }

        let rr_new = Self::dot(h, state, &state.r, &state.r, tile, owned_tiles)?;
        let beta = rr_new / rr;
        {
            let (rv, pv) = (state.r.view(), state.p.view_mut());
            h.ctx().parallel_for(
                local_n,
                &KernelProfile::new("axpby", 3.0, 16.0, 8.0),
                move |i| {
                    pv.set(i, rv.get(i) + beta * pv.get(i));
                },
            );
        }
        state.rr = Some(rr_new);
        Ok(())
    }

    fn dump(&self, ctx: &Context<B>, shard: Shard, state: &CgState) -> Vec<f64> {
        let tile = self.tile;
        let x = ctx.to_host(&state.x).expect("x dump");
        let r = ctx.to_host(&state.r).expect("r dump");
        let p = ctx.to_host(&state.p).expect("p dump");
        let mut out = Vec::with_capacity(shard.owned() * 3 * tile);
        for t in 0..shard.owned() {
            out.extend_from_slice(&x[t * tile..(t + 1) * tile]);
            out.extend_from_slice(&r[t * tile..(t + 1) * tile]);
            out.extend_from_slice(&p[t * tile..(t + 1) * tile]);
        }
        out
    }
}

/// Extract the solution vector `x` from a sharded CG outcome field.
pub fn solution_of(field: &[f64], tile: usize) -> Vec<f64> {
    let slab = 3 * tile;
    assert_eq!(field.len() % slab, 0);
    let mut x = Vec::with_capacity(field.len() / 3);
    for t in 0..field.len() / slab {
        x.extend_from_slice(&field[t * slab..t * slab + tile]);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use racc_core::SerialBackend;
    use racc_shard::{run_sharded, ShardOptions};
    use std::sync::Arc;

    fn run(devices: usize) -> Vec<f64> {
        run_sharded(
            Arc::new(PipelinedCg {
                tiles: 12,
                tile: 16,
                steps: 25,
            }),
            ShardOptions::devices(devices).checkpoint_every(4),
            |_rank| Context::new(SerialBackend::new()),
        )
        .field
    }

    #[test]
    fn sharded_cg_is_bit_identical_at_any_shard_count() {
        let one = run(1);
        for devices in [2, 3, 4] {
            assert_eq!(one, run(devices), "{devices} devices");
        }
    }

    #[test]
    fn sharded_cg_converges_to_the_synthetic_solution() {
        let app = PipelinedCg {
            tiles: 12,
            tile: 16,
            steps: 25,
        };
        let x = solution_of(&run(3), app.tile);
        let max_err = x
            .iter()
            .enumerate()
            .map(|(i, &v)| (v - PipelinedCg::x_true(i)).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-8, "CG must converge: max err {max_err}");
    }
}
