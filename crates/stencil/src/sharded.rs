//! Sharded 3D heat diffusion: the `examples/heat3d.rs` Jacobi sweep as a
//! [`ShardApp`], split along `k` (the slab-contiguous axis in RACC's
//! column-major layout, so each halo is one contiguous `n × n` plane).
//!
//! Per step each shard packs its owned edge planes with a 2D copy kernel,
//! posts them, runs the interior sweep while the exchange is in flight,
//! unpacks the received planes into the ghost slabs, and finishes the
//! ghost-adjacent planes with boundary launches. The arithmetic per global
//! site is exactly the single-device kernel's (same tap order, same
//! clamps), so the final field is bit-identical at any shard count — the
//! property the sharded bit-identity and chaos-recovery tests pin.

use racc_core::{Array1, Array3, Backend, Context, KernelProfile};
use racc_shard::{Shard, ShardApp, ShardError, ShardHandle, Topology};

/// The heat3d cube: a hot `i = 0` face (T = 1), a cold `i = n−1` face
/// (T = 0), mirror-insulated `j`/`k` boundaries, relaxed with 7-point
/// Jacobi sweeps.
#[derive(Debug, Clone)]
pub struct ShardedHeat3 {
    /// Cube edge.
    pub n: usize,
    /// Jacobi sweeps to run.
    pub sweeps: u64,
}

/// Per-shard device state: the two Jacobi buffers over the local slab
/// range (ghosts included) plus one staging plane for pack/unpack.
pub struct Heat3State {
    t0: Array3<f64>,
    t1: Array3<f64>,
    stage: Array1<f64>,
}

impl ShardedHeat3 {
    /// Same per-site figures as `examples/heat3d.rs`.
    fn profile() -> KernelProfile {
        KernelProfile::new("heat3d-jacobi", 8.0, 56.0, 8.0)
    }

    fn pack_profile() -> KernelProfile {
        KernelProfile::new("halo-pack", 0.0, 8.0, 8.0)
    }

    /// The canonical initial field at global site `(i, j, k)`.
    fn init_site(i: usize) -> f64 {
        if i == 0 {
            1.0
        } else {
            0.0
        }
    }

    /// Copy local plane `k` of `src` into the staging vector and download
    /// it (the device-visible side of a halo send).
    fn pack<B: Backend>(ctx: &Context<B>, state: &Heat3State, n: usize, k: usize) -> Vec<f64> {
        let sv = state.t0.view();
        let gv = state.stage.view_mut();
        ctx.parallel_for_2d((n, n), &Self::pack_profile(), move |i, j| {
            gv.set(j * n + i, sv.get(i, j, k));
        });
        ctx.to_host(&state.stage).expect("halo pack download")
    }

    /// Upload a received plane and scatter it into local plane `k` of the
    /// read buffer.
    fn unpack<B: Backend>(ctx: &Context<B>, state: &Heat3State, n: usize, k: usize, data: &[f64]) {
        ctx.copy_to(&state.stage, data).expect("halo unpack upload");
        let gv = state.stage.view();
        let dv = state.t0.view_mut();
        ctx.parallel_for_2d((n, n), &Self::pack_profile(), move |i, j| {
            dv.set(i, j, k, gv.get(j * n + i));
        });
    }

    /// The Jacobi update over local planes `[k_from, k_to)` — identical
    /// arithmetic to the single-device sweep, with the `k` clamps applied
    /// at *global* edges only. The launch covers exactly the requested
    /// plane range so the modeled cost is proportional to the planes
    /// actually updated (a guarded full-grid launch would charge boundary
    /// touch-ups the price of a whole sweep).
    fn sweep<B: Backend>(
        ctx: &Context<B>,
        state: &Heat3State,
        n: usize,
        shard: Shard,
        k_from: usize,
        k_to: usize,
    ) {
        let (glo, os, gmax) = (shard.lo, shard.owned_start(), n - 1);
        let src = state.t0.view();
        let dst = state.t1.view_mut();
        ctx.parallel_for_3d((n, n, k_to - k_from), &Self::profile(), move |i, j, kk| {
            let k = k_from + kk;
            if i == 0 || i == n - 1 {
                return; // Dirichlet faces stay fixed.
            }
            let jm = j.saturating_sub(1);
            let jp = (j + 1).min(n - 1);
            // Mirror-clamp k at the *global* ends; inside, the neighbor
            // planes are local (owned or freshly exchanged ghosts).
            let g = glo + k - os;
            let km = if g == 0 { k } else { k - 1 };
            let kp = if g == gmax { k } else { k + 1 };
            let sum = src.get(i - 1, j, k)
                + src.get(i + 1, j, k)
                + src.get(i, jm, k)
                + src.get(i, jp, k)
                + src.get(i, j, km)
                + src.get(i, j, kp);
            dst.set(i, j, k, sum / 6.0);
        });
    }
}

impl<B: Backend> ShardApp<B> for ShardedHeat3 {
    type State = Heat3State;

    fn extent(&self) -> usize {
        self.n
    }
    fn slab_len(&self) -> usize {
        self.n * self.n
    }
    fn radius(&self) -> usize {
        1
    }
    fn total_steps(&self) -> u64 {
        self.sweeps
    }
    fn topology(&self) -> Topology {
        Topology::Open
    }

    fn initial(&self) -> Vec<f64> {
        let n = self.n;
        let mut field = Vec::with_capacity(n * n * n);
        for _k in 0..n {
            for _j in 0..n {
                for i in 0..n {
                    field.push(Self::init_site(i));
                }
            }
        }
        field
    }

    fn init(&self, ctx: &Context<B>, shard: Shard, snapshot: &[f64]) -> Heat3State {
        let n = self.n;
        let plane = n * n;
        let le = shard.local_extent();
        // The split axis is open, so the local slabs, ghosts included, are
        // one contiguous range of the snapshot.
        let g0 = shard.global_of(0);
        let local = &snapshot[g0 * plane..(g0 + le) * plane];
        // Both buffers start from the snapshot: the sweep rewrites every
        // non-Dirichlet site of `t1`, and the Dirichlet faces carry the
        // same fixed values in either buffer.
        let t0 = ctx.array3_from(n, n, le, local).expect("t0 alloc");
        let t1 = ctx.array3_from(n, n, le, local).expect("t1 alloc");
        let stage = ctx.zeros::<f64>(plane).expect("stage alloc");
        Heat3State { t0, t1, stage }
    }

    fn step(
        &self,
        h: &mut ShardHandle<'_, B>,
        state: &mut Heat3State,
        _step: u64,
    ) -> Result<(), ShardError> {
        let n = self.n;
        let sh = h.shard();
        let (os, owned, le) = (sh.owned_start(), sh.owned(), sh.local_extent());

        // Phase 1: pack + post the owned edge planes.
        let to_lo = (sh.ghosts_lo() > 0).then(|| Self::pack(h.ctx(), state, n, os));
        let to_hi = (sh.ghosts_hi() > 0).then(|| Self::pack(h.ctx(), state, n, os + owned - 1));
        h.post_halos(to_lo, to_hi)?;

        // Phase 2: interior sweep (owned planes whose stencil support is
        // already local) while the halos are in flight.
        let lo_int = os + usize::from(sh.ghosts_lo() > 0);
        let hi_int = os + owned - usize::from(sh.ghosts_hi() > 0);
        h.interior(|ctx| Self::sweep(ctx, state, n, sh, lo_int, hi_int));

        // Phase 3: complete the exchange into the ghost planes of the
        // read buffer.
        let (from_lo, from_hi) = h.recv_halos()?;
        if let Some(data) = from_lo {
            Self::unpack(h.ctx(), state, n, 0, &data);
        }
        if let Some(data) = from_hi {
            Self::unpack(h.ctx(), state, n, le - 1, &data);
        }

        // Phase 4: the ghost-adjacent owned planes.
        h.boundary(|ctx| {
            if sh.ghosts_lo() > 0 {
                Self::sweep(ctx, state, n, sh, os, os + 1);
            }
            if sh.ghosts_hi() > 0 {
                Self::sweep(ctx, state, n, sh, os + owned - 1, os + owned);
            }
        });

        std::mem::swap(&mut state.t0, &mut state.t1);
        Ok(())
    }

    fn dump(&self, ctx: &Context<B>, shard: Shard, state: &Heat3State) -> Vec<f64> {
        let plane = self.n * self.n;
        let mut host = ctx.to_host3(&state.t0).expect("dump download");
        // Trim the ghosts in place: the owned planes are the middle range.
        let os = shard.owned_start();
        host.truncate((os + shard.owned()) * plane);
        host.drain(..os * plane);
        host
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racc_core::SerialBackend;
    use racc_shard::{run_sharded, ShardOptions};
    use std::sync::Arc;

    fn run(devices: usize) -> Vec<f64> {
        run_sharded(
            Arc::new(ShardedHeat3 { n: 10, sweeps: 6 }),
            ShardOptions::devices(devices).checkpoint_every(2),
            |_rank| Context::new(SerialBackend::new()),
        )
        .field
    }

    #[test]
    fn sharded_heat3d_matches_single_device_bitwise() {
        let one = run(1);
        assert_eq!(one.len(), 1000);
        for devices in [2, 3, 5] {
            assert_eq!(one, run(devices), "{devices} devices");
        }
    }

    #[test]
    fn sharded_heat3d_matches_the_unsharded_reference_kernel() {
        // The same sweep written as the plain single-context loop of
        // examples/heat3d.rs, bit-for-bit.
        let (n, sweeps) = (10usize, 6usize);
        let ctx = Context::new(SerialBackend::new());
        let app = ShardedHeat3 {
            n,
            sweeps: sweeps as u64,
        };
        let init = <ShardedHeat3 as ShardApp<SerialBackend>>::initial(&app);
        let mut t0 = ctx.array3_from(n, n, n, &init).unwrap();
        let mut t1 = ctx.array3_from(n, n, n, &init).unwrap();
        let profile = KernelProfile::new("heat3d-jacobi", 8.0, 56.0, 8.0);
        for _ in 0..sweeps {
            let src = t0.view();
            let dst = t1.view_mut();
            ctx.parallel_for_3d((n, n, n), &profile, move |i, j, k| {
                if i == 0 || i == n - 1 {
                    return;
                }
                let jm = j.saturating_sub(1);
                let jp = (j + 1).min(n - 1);
                let km = k.saturating_sub(1);
                let kp = (k + 1).min(n - 1);
                let sum = src.get(i - 1, j, k)
                    + src.get(i + 1, j, k)
                    + src.get(i, jm, k)
                    + src.get(i, jp, k)
                    + src.get(i, j, km)
                    + src.get(i, j, kp);
                dst.set(i, j, k, sum / 6.0);
            });
            std::mem::swap(&mut t0, &mut t1);
        }
        let reference = ctx.to_host3(&t0).unwrap();
        assert_eq!(reference, run(3));
    }
}
