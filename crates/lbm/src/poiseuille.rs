//! Body-force-driven channel (Poiseuille) flow — the second analytic
//! validation scenario.
//!
//! A channel periodic in `x`, bounded by no-slip walls at `y = 0` and
//! `y = s−1`, driven by a constant body force `g` in `x`. The steady
//! velocity profile is the parabola
//!
//! ```text
//! u_x(y) = g / (2 ν) · y' (H − y')      with y' measured from the wall
//! ```
//!
//! (halfway bounce-back places the physical walls half a cell outside the
//! first/last fluid nodes, so the channel width is `H = s` cells and
//! `y' = y + 1/2`). The force enters the collision with the first-order
//! term `3 w_k (c_k · g)`, adequate at the low Mach numbers used here.

use racc_core::{Array1, Backend, Context, RaccError};

use crate::lattice::{bgk_collide, fidx, moments, site, viscosity, CX, CY, OPPOSITE, Q, W};
use crate::lbm_profile;
use crate::portable::equilibrium_lattice;

/// A Poiseuille channel simulation through the RACC constructs.
pub struct PoiseuilleSim<'c, B: Backend> {
    ctx: &'c Context<B>,
    s: usize,
    tau: f64,
    force: f64,
    f: Array1<f64>,
    f1: Array1<f64>,
    f2: Array1<f64>,
}

impl<'c, B: Backend> PoiseuilleSim<'c, B> {
    /// A channel at rest with density 1, relaxation `tau`, and body force
    /// `force` (lattice units; keep `force * s^2 / (8 nu)` well below the
    /// lattice sound speed).
    pub fn new(ctx: &'c Context<B>, s: usize, tau: f64, force: f64) -> Result<Self, RaccError> {
        assert!(s >= 8, "channel needs at least 8 lattice rows");
        assert!(tau > 0.5, "tau must exceed 1/2");
        let peak = force * (s * s) as f64 / (8.0 * viscosity(tau));
        assert!(
            peak < 0.15,
            "predicted peak velocity {peak} too large for a stable lattice Mach number"
        );
        Ok(PoiseuilleSim {
            ctx,
            s,
            tau,
            force,
            f: ctx.zeros(Q * s * s)?,
            f1: equilibrium_lattice(ctx, s, |_, _| (1.0, 0.0, 0.0))?,
            f2: equilibrium_lattice(ctx, s, |_, _| (1.0, 0.0, 0.0))?,
        })
    }

    /// Channel width in cells.
    pub fn size(&self) -> usize {
        self.s
    }

    /// One time step: periodic-in-x streaming with bounce-back at the two
    /// walls, then BGK collision with the body-force term.
    pub fn step(&mut self) {
        let (s, tau, g) = (self.s, self.tau, self.force);
        let f = self.f.view_mut();
        let f1 = self.f1.view();
        let f2 = self.f2.view_mut();
        self.ctx
            .parallel_for_2d((s, s), &lbm_profile(), move |fast, slow| {
                let (x, y) = site(fast, slow);
                let pulled = std::array::from_fn(|k| {
                    // Periodic in x.
                    let sx = (x + s).wrapping_sub(CX[k] as isize as usize) % s;
                    let sy = y as isize - CY[k] as isize;
                    if sy >= 0 && sy < s as isize {
                        f1.get(fidx(k, sx, sy as usize, s))
                    } else {
                        // Wall: halfway bounce-back at this site.
                        f1.get(fidx(OPPOSITE[k], x, y, s))
                    }
                });
                let next = bgk_collide(&pulled, tau);
                for k in 0..Q {
                    let forcing = 3.0 * W[k] * CX[k] * g;
                    let ind = fidx(k, x, y, s);
                    f.set(ind, pulled[k]);
                    f2.set(ind, next[k] + forcing);
                }
            });
        std::mem::swap(&mut self.f1, &mut self.f2);
    }

    /// Run `steps` time steps.
    pub fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// The x-velocity profile across the channel, averaged over x.
    pub fn velocity_profile(&self) -> Result<Vec<f64>, RaccError> {
        let f1 = self.ctx.to_host(&self.f1)?;
        let s = self.s;
        let mut profile = vec![0.0; s];
        for (y, entry) in profile.iter_mut().enumerate() {
            let mut u_avg = 0.0;
            for x in 0..s {
                u_avg += moments(&std::array::from_fn(|k| f1[fidx(k, x, y, s)])).1;
            }
            *entry = u_avg / s as f64;
        }
        Ok(profile)
    }

    /// The analytic steady profile at row `y` (halfway-wall convention).
    pub fn analytic_profile(&self, y: usize) -> f64 {
        let h = self.s as f64;
        let yp = y as f64 + 0.5;
        self.force / (2.0 * viscosity(self.tau)) * yp * (h - yp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racc_core::{SerialBackend, ThreadsBackend};

    #[test]
    fn converges_to_the_parabolic_profile() {
        let ctx = Context::new(ThreadsBackend::with_threads(4));
        let s = 24;
        let tau = 0.9;
        let g = 1e-6;
        let mut sim = PoiseuilleSim::new(&ctx, s, tau, g).unwrap();
        sim.run(6000);
        let profile = sim.velocity_profile().unwrap();
        // Compare the center region against the analytic parabola.
        #[allow(clippy::needless_range_loop)]
        for y in 2..s - 2 {
            let analytic = sim.analytic_profile(y);
            let rel = (profile[y] - analytic).abs() / analytic;
            assert!(
                rel < 0.05,
                "row {y}: {} vs analytic {analytic} (rel {rel:.3})",
                profile[y]
            );
        }
        // Symmetry about the centerline.
        for y in 0..s / 2 {
            let a = profile[y];
            let b = profile[s - 1 - y];
            assert!((a - b).abs() < 1e-9 * a.abs().max(1e-12), "{a} vs {b}");
        }
    }

    #[test]
    fn walls_stay_slow_and_center_is_fastest() {
        let ctx = Context::new(SerialBackend::new());
        let mut sim = PoiseuilleSim::new(&ctx, 16, 0.8, 2e-6).unwrap();
        sim.run(1500);
        let profile = sim.velocity_profile().unwrap();
        let center = profile[8];
        assert!(center > 0.0);
        assert!(
            profile[0] < center * 0.3,
            "wall row {} vs center {center}",
            profile[0]
        );
        let max = profile.iter().cloned().fold(0.0f64, f64::max);
        assert!((max - profile[7]).abs() < 1e-12 || (max - profile[8]).abs() < 1e-12);
    }

    #[test]
    fn zero_force_stays_at_rest() {
        let ctx = Context::new(SerialBackend::new());
        let mut sim = PoiseuilleSim::new(&ctx, 12, 0.8, 0.0).unwrap();
        sim.run(100);
        let profile = sim.velocity_profile().unwrap();
        assert!(profile.iter().all(|u| u.abs() < 1e-14));
    }

    #[test]
    fn constructor_guards_unstable_parameters() {
        let ctx = Context::new(SerialBackend::new());
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            PoiseuilleSim::new(&ctx, 64, 0.51, 1e-2).unwrap()
        }))
        .is_err());
    }
}
