//! Lid-driven cavity: the classic wall-bounded LBM benchmark, as the
//! HARVEY-style extension of the paper's kernel.
//!
//! The cavity adds real boundary conditions to the D2Q9 pull scheme:
//!
//! * **halfway bounce-back** on the three solid walls (no-slip), and
//! * a **moving lid** at the top (`y = s−1`) implemented as bounce-back
//!   with a momentum correction `f_k̄ = f_k − 6 w_k ρ (c_k · u_lid)`,
//!
//! producing the canonical recirculating vortex. The update is one RACC
//! `parallel_for` over the grid — the same portable construct as the
//! paper's kernel, with the boundary logic inside the kernel body.

use racc_core::{Array1, Backend, Context, RaccError};

use crate::lattice::{fidx, moments, site, CX, CY, OPPOSITE, Q, W};
use crate::lbm_profile;
use crate::portable::{collide_into, equilibrium_lattice};

/// A lid-driven cavity simulation on an `s × s` grid.
pub struct CavitySim<'c, B: Backend> {
    ctx: &'c Context<B>,
    s: usize,
    tau: f64,
    lid_velocity: f64,
    f: Array1<f64>,
    f1: Array1<f64>,
    f2: Array1<f64>,
    steps: usize,
}

impl<'c, B: Backend> CavitySim<'c, B> {
    /// Build a cavity at rest with density 1 and the given lid velocity
    /// (lattice units; keep well below c_s ≈ 0.577 for stability —
    /// typically 0.05–0.1).
    pub fn new(
        ctx: &'c Context<B>,
        s: usize,
        tau: f64,
        lid_velocity: f64,
    ) -> Result<Self, RaccError> {
        assert!(s >= 8, "cavity needs at least an 8x8 grid");
        assert!(tau > 0.5, "tau must exceed 1/2");
        assert!(
            lid_velocity.abs() < 0.3,
            "lid velocity {lid_velocity} too large for a stable lattice Mach number"
        );
        Ok(CavitySim {
            ctx,
            s,
            tau,
            lid_velocity,
            f: ctx.zeros(Q * s * s)?,
            f1: equilibrium_lattice(ctx, s, |_, _| (1.0, 0.0, 0.0))?,
            f2: equilibrium_lattice(ctx, s, |_, _| (1.0, 0.0, 0.0))?,
            steps: 0,
        })
    }

    /// Grid edge length.
    pub fn size(&self) -> usize {
        self.s
    }

    /// Time steps taken so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The lid velocity.
    pub fn lid_velocity(&self) -> f64 {
        self.lid_velocity
    }

    /// One time step: pull-streaming with bounce-back at the walls and the
    /// moving-lid correction at the top, then BGK collision.
    pub fn step(&mut self) {
        let (s, tau, u_lid) = (self.s, self.tau, self.lid_velocity);
        let f = self.f.view_mut();
        let f1 = self.f1.view();
        let f2 = self.f2.view_mut();
        self.ctx
            .parallel_for_2d((s, s), &lbm_profile(), move |fast, slow| {
                let (x, y) = site(fast, slow);
                // Streaming with boundary handling: for each direction,
                // pull from the upwind site; if that site is outside the
                // cavity, the particle came off a wall: bounce it back
                // (reverse direction at this site), adding the lid's
                // momentum when the wall is the moving top lid.
                let pulled = std::array::from_fn(|k| {
                    let sx = x as isize - CX[k] as isize;
                    let sy = y as isize - CY[k] as isize;
                    if sx >= 0 && sx < s as isize && sy >= 0 && sy < s as isize {
                        f1.get(fidx(k, sx as usize, sy as usize, s))
                    } else {
                        // Came through a wall: take the opposite-direction
                        // population leaving this site.
                        let ko = OPPOSITE[k];
                        let mut v = f1.get(fidx(ko, x, y, s));
                        if sy >= s as isize {
                            // The moving lid (top wall): halfway bounce-back
                            // with momentum injection, rho_w ~ 1.
                            v -= 6.0 * W[ko] * (CX[ko] * u_lid);
                        }
                        v
                    }
                });
                collide_into(&pulled, tau, |k| fidx(k, x, y, s), &f, &f2);
            });
        std::mem::swap(&mut self.f1, &mut self.f2);
        self.steps += 1;
    }

    /// Run `steps` time steps.
    pub fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Velocity field `(ux, uy)` per site, linearized `x * s + y`.
    pub fn velocity_field(&self) -> Result<(Vec<f64>, Vec<f64>), RaccError> {
        let f1 = self.ctx.to_host(&self.f1)?;
        let s = self.s;
        let mut ux = vec![0.0; s * s];
        let mut uy = vec![0.0; s * s];
        for x in 0..s {
            for y in 0..s {
                let site = std::array::from_fn(|k| f1[fidx(k, x, y, s)]);
                (_, ux[x * s + y], uy[x * s + y]) = moments(&site);
            }
        }
        Ok((ux, uy))
    }

    /// Total mass (conserved by bounce-back walls).
    pub fn total_mass(&self) -> Result<f64, RaccError> {
        Ok(self.ctx.to_host(&self.f1)?.iter().sum())
    }

    /// The circulation proxy: the sum of `∂uy/∂x − ∂ux/∂y` over the
    /// interior (negative for a clockwise vortex under a rightward lid).
    pub fn total_vorticity(&self) -> Result<f64, RaccError> {
        let (ux, uy) = self.velocity_field()?;
        let s = self.s;
        let at = |f: &[f64], x: usize, y: usize| f[x * s + y];
        let mut total = 0.0;
        for x in 1..s - 1 {
            for y in 1..s - 1 {
                let duy_dx = (at(&uy, x + 1, y) - at(&uy, x - 1, y)) / 2.0;
                let dux_dy = (at(&ux, x, y + 1) - at(&ux, x, y - 1)) / 2.0;
                total += duy_dx - dux_dy;
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racc_core::{SerialBackend, ThreadsBackend};

    #[test]
    fn lid_drives_flow_near_the_top() {
        let ctx = Context::new(ThreadsBackend::with_threads(2));
        let s = 24;
        let mut sim = CavitySim::new(&ctx, s, 0.8, 0.08).unwrap();
        sim.run(200);
        let (ux, _) = sim.velocity_field().unwrap();
        // Mean x-velocity in the row just below the lid follows the lid.
        let row: f64 = (1..s - 1).map(|x| ux[x * s + (s - 2)]).sum::<f64>() / (s - 2) as f64;
        assert!(row > 0.01, "near-lid flow {row} must follow the lid");
        // Bottom row stays nearly still.
        let bottom: f64 = (1..s - 1).map(|x| ux[x * s + 1].abs()).sum::<f64>() / (s - 2) as f64;
        assert!(bottom < row / 2.0, "bottom {bottom} vs top {row}");
    }

    #[test]
    fn a_single_vortex_forms() {
        let ctx = Context::new(ThreadsBackend::with_threads(2));
        let mut sim = CavitySim::new(&ctx, 32, 0.8, 0.08).unwrap();
        sim.run(400);
        // Rightward lid at the top drives a clockwise vortex: in the
        // convention here that is net negative vorticity.
        let w = sim.total_vorticity().unwrap();
        assert!(w < -1e-3, "expected clockwise circulation, got {w}");
    }

    #[test]
    fn stable_and_mass_conserving_long_run() {
        let ctx = Context::new(SerialBackend::new());
        let mut sim = CavitySim::new(&ctx, 16, 0.7, 0.05).unwrap();
        let m0 = sim.total_mass().unwrap();
        sim.run(500);
        let m1 = sim.total_mass().unwrap();
        // The moving lid injects a little momentum but only O(u_lid) mass
        // asymmetry; drift must stay small and fields finite.
        assert!((m1 - m0).abs() / m0 < 1e-2, "mass {m0} -> {m1}");
        let (ux, uy) = sim.velocity_field().unwrap();
        assert!(ux.iter().chain(uy.iter()).all(|v| v.is_finite()));
        assert!(ux.iter().all(|v| v.abs() < 0.2), "velocities bounded");
        assert_eq!(sim.steps(), 500);
    }

    #[test]
    fn zero_lid_velocity_stays_at_rest() {
        let ctx = Context::new(SerialBackend::new());
        let mut sim = CavitySim::new(&ctx, 12, 0.9, 0.0).unwrap();
        sim.run(50);
        let (ux, uy) = sim.velocity_field().unwrap();
        let max = ux
            .iter()
            .chain(uy.iter())
            .map(|v| v.abs())
            .fold(0.0f64, f64::max);
        assert!(
            max < 1e-12,
            "cavity at rest must stay at rest, max |u| = {max}"
        );
    }

    #[test]
    fn same_flow_on_serial_and_threads() {
        fn flow<B: Backend>(ctx: &Context<B>) -> Vec<f64> {
            let mut sim = CavitySim::new(ctx, 16, 0.8, 0.06).unwrap();
            sim.run(60);
            sim.velocity_field().unwrap().0
        }
        let a = flow(&Context::new(SerialBackend::new()));
        let b = flow(&Context::new(ThreadsBackend::with_threads(3)));
        let c = flow(&Context::new(racc_backend_common::cuda_backend()));
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert!((x - y).abs() < 1e-13);
            assert!((x - z).abs() < 1e-13);
        }
    }

    #[test]
    fn constructor_validation() {
        let ctx = Context::new(SerialBackend::new());
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            CavitySim::new(&ctx, 4, 0.8, 0.05).unwrap()
        }))
        .is_err());
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            CavitySim::new(&ctx, 16, 0.5, 0.05).unwrap()
        }))
        .is_err());
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            CavitySim::new(&ctx, 16, 0.8, 0.5).unwrap()
        }))
        .is_err());
    }
}
