//! Serial reference implementation — test ground truth and the exact
//! transcription of the paper's Fig. 10 site update.

use crate::lattice::{
    bgk_collide, equilibrium, fidx, is_interior, moments, pull, pull_periodic, Q, W,
};

/// One site of the paper's `lbm` kernel (Fig. 10), 0-based: pull-stream
/// the 9 upwind distributions from `f1` into the scratch lattice `f`,
/// compute moments, collide into `f2`. Interior sites only
/// (`0 < x < s−1 && 0 < y < s−1`), exactly like the paper's guard.
///
/// The paper's listing writes the equilibrium quadratic term as `cu·cu`;
/// this implementation uses the standard lattice-BGK coefficient `4.5 cu²`
/// (the physics-correct form, required for the viscosity validation).
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn lbm_site(x: usize, y: usize, f: &mut [f64], f1: &[f64], f2: &mut [f64], tau: f64, s: usize) {
    if is_interior(x, y, s) {
        let pulled = pull(x, y, |k, xs, ys| f1[fidx(k, xs, ys, s)]);
        collide_into(x, y, s, tau, &pulled, f, f2);
    }
}

/// Moments and BGK collision at `(x, y)`: the streamed values go to the
/// scratch lattice `f`, the relaxed ones to `f2`.
fn collide_into(
    x: usize,
    y: usize,
    s: usize,
    tau: f64,
    pulled: &[f64; Q],
    f: &mut [f64],
    f2: &mut [f64],
) {
    let next = bgk_collide(pulled, tau);
    for (k, &v) in pulled.iter().enumerate() {
        f[fidx(k, x, y, s)] = v;
    }
    for (k, &v) in next.iter().enumerate() {
        f2[fidx(k, x, y, s)] = v;
    }
}

/// Periodic variant of the site update (wrap-around streaming, all sites) —
/// used by the physics validation where analytic solutions need periodic
/// boundaries.
#[inline]
pub fn lbm_site_periodic(
    x: usize,
    y: usize,
    f: &mut [f64],
    f1: &[f64],
    f2: &mut [f64],
    tau: f64,
    s: usize,
) {
    let pulled = pull_periodic(x, y, s, |k, xs, ys| f1[fidx(k, xs, ys, s)]);
    collide_into(x, y, s, tau, &pulled, f, f2);
}

/// A serial LBM state: the three lattices of the 2-lattice pull scheme
/// (`f` scratch, `f1` current, `f2` next).
#[derive(Debug, Clone)]
pub struct SerialLbm {
    /// Grid edge length.
    pub s: usize,
    /// BGK relaxation time.
    pub tau: f64,
    /// Scratch lattice.
    pub f: Vec<f64>,
    /// Current distributions.
    pub f1: Vec<f64>,
    /// Next distributions.
    pub f2: Vec<f64>,
}

impl SerialLbm {
    /// Initialize every site at the equilibrium of `(rho, ux, uy)`.
    pub fn uniform(s: usize, tau: f64, rho: f64, ux: f64, uy: f64) -> Self {
        Self::from_fields(s, tau, |_, _| (rho, ux, uy))
    }

    /// Initialize from per-site `(rho, ux, uy)` fields.
    pub fn from_fields(
        s: usize,
        tau: f64,
        fields: impl Fn(usize, usize) -> (f64, f64, f64),
    ) -> Self {
        assert!(s >= 3, "grid must be at least 3x3");
        assert!(tau > 0.5, "tau must exceed 1/2 for positive viscosity");
        let mut f1 = vec![0.0; Q * s * s];
        for x in 0..s {
            for y in 0..s {
                let (rho, ux, uy) = fields(x, y);
                for k in 0..Q {
                    f1[fidx(k, x, y, s)] = equilibrium(k, rho, ux, uy);
                }
            }
        }
        SerialLbm {
            s,
            tau,
            f: vec![0.0; Q * s * s],
            f1: f1.clone(),
            f2: f1,
        }
    }

    /// One time step with the paper's interior-only update.
    pub fn step(&mut self) {
        for x in 0..self.s {
            for y in 0..self.s {
                lbm_site(x, y, &mut self.f, &self.f1, &mut self.f2, self.tau, self.s);
            }
        }
        std::mem::swap(&mut self.f1, &mut self.f2);
    }

    /// One periodic time step (all sites, wrap-around streaming).
    pub fn step_periodic(&mut self) {
        for x in 0..self.s {
            for y in 0..self.s {
                lbm_site_periodic(x, y, &mut self.f, &self.f1, &mut self.f2, self.tau, self.s);
            }
        }
        std::mem::swap(&mut self.f1, &mut self.f2);
    }

    /// Density at a site.
    pub fn density(&self, x: usize, y: usize) -> f64 {
        (0..Q).map(|k| self.f1[fidx(k, x, y, self.s)]).sum()
    }

    /// Velocity at a site.
    pub fn velocity(&self, x: usize, y: usize) -> (f64, f64) {
        let (_, u, v) = moments(&std::array::from_fn(|k| self.f1[fidx(k, x, y, self.s)]));
        (u, v)
    }

    /// Total mass over the grid.
    pub fn total_mass(&self) -> f64 {
        self.f1.iter().sum()
    }

    /// A consistency check: every distribution non-negative-ish and finite.
    pub fn is_finite(&self) -> bool {
        self.f1.iter().all(|v| v.is_finite())
    }

    /// Sanity accessor used by the weights test.
    pub fn weights_sum() -> f64 {
        W.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_equilibrium_is_a_fixed_point_periodic() {
        let mut sim = SerialLbm::uniform(16, 0.8, 1.0, 0.0, 0.0);
        let before = sim.f1.clone();
        for _ in 0..5 {
            sim.step_periodic();
        }
        for (a, b) in sim.f1.iter().zip(&before) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn periodic_step_conserves_mass() {
        let mut sim = SerialLbm::from_fields(24, 0.7, |x, y| {
            (1.0 + 0.01 * ((x + y) as f64).sin(), 0.01, -0.005)
        });
        let m0 = sim.total_mass();
        for _ in 0..20 {
            sim.step_periodic();
        }
        let m1 = sim.total_mass();
        assert!((m1 - m0).abs() < 1e-9 * m0, "mass {m0} -> {m1}");
        assert!(sim.is_finite());
    }

    #[test]
    fn interior_update_leaves_boundary_untouched() {
        let mut sim = SerialLbm::uniform(8, 0.9, 1.0, 0.02, 0.0);
        let boundary_before: Vec<f64> = (0..8).map(|x| sim.f1[fidx(0, x, 0, 8)]).collect();
        sim.step();
        let boundary_after: Vec<f64> = (0..8).map(|x| sim.f1[fidx(0, x, 0, 8)]).collect();
        assert_eq!(boundary_before, boundary_after);
    }

    #[test]
    fn moving_fluid_advects_momentum() {
        // A rightward-moving blob spreads; total x-momentum in the interior
        // stays positive.
        let mut sim = SerialLbm::from_fields(32, 0.8, |x, y| {
            let cx = (x as f64 - 16.0) / 4.0;
            let cy = (y as f64 - 16.0) / 4.0;
            let bump = (-(cx * cx + cy * cy)).exp();
            (1.0, 0.05 * bump, 0.0)
        });
        for _ in 0..10 {
            sim.step_periodic();
        }
        let mut mom_x = 0.0;
        for x in 0..32 {
            for y in 0..32 {
                let (u, _) = sim.velocity(x, y);
                mom_x += u;
            }
        }
        assert!(mom_x > 0.0);
        assert!(sim.is_finite());
    }

    #[test]
    fn constructor_validation() {
        assert!(std::panic::catch_unwind(|| SerialLbm::uniform(2, 0.8, 1.0, 0.0, 0.0)).is_err());
        assert!(std::panic::catch_unwind(|| SerialLbm::uniform(8, 0.5, 1.0, 0.0, 0.0)).is_err());
    }
}
