//! The portable RACC LBM simulation (the paper's Fig. 10 code).

use racc_core::{Array1, Backend, Context, RaccError, ViewMut1};

use crate::lattice::{
    bgk_collide, equilibrium, fidx, is_interior, moments, pull, pull_periodic, site, Q,
};

/// Density, x-velocity and y-velocity fields, each of length `s * s`
/// (row `x`, column `y`, linearized as `x * s + y`).
pub type MacroFields = (Vec<f64>, Vec<f64>, Vec<f64>);
use crate::lbm_profile;
use crate::reference::SerialLbm;

/// A D2Q9 simulation running through the RACC constructs: one
/// multidimensional `parallel_for` per time step, the three lattices as
/// `JACC.Array`-style device arrays, any back end.
pub struct LbmSim<'c, B: Backend> {
    ctx: &'c Context<B>,
    s: usize,
    tau: f64,
    /// Scratch lattice (the paper's `f`).
    f: Array1<f64>,
    /// Current lattice (`f1`).
    f1: Array1<f64>,
    /// Next lattice (`f2`).
    f2: Array1<f64>,
}

/// A `Q · s²` lattice holding at each site `(x, y)` the equilibrium of
/// `fields(x, y)`, written straight into a new array (charged as one
/// upload) with no host lattice beside it.
pub(crate) fn equilibrium_lattice<B: Backend>(
    ctx: &Context<B>,
    s: usize,
    fields: impl Fn(usize, usize) -> (f64, f64, f64),
) -> Result<Array1<f64>, RaccError> {
    // `array_from_fn` walks the indices in order: `y` fastest, then `x`,
    // then `k` (`fidx`), without a division per element.
    let (mut k, mut x, mut y) = (0, 0, 0);
    ctx.array_from_fn(Q * s * s, |_| {
        let (rho, ux, uy) = fields(x, y);
        let value = equilibrium(k, rho, ux, uy);
        y += 1;
        if y == s {
            (x, y) = (x + 1, 0);
            if x == s {
                (k, x) = (k + 1, 0);
            }
        }
        value
    })
}

impl<'c, B: Backend> LbmSim<'c, B> {
    /// Build a simulation with every site initialized at the equilibrium of
    /// per-site `(rho, ux, uy)` fields (`fields` is called `2 Q` times per
    /// site: once per direction of `f1` and of `f2`).
    pub fn new(
        ctx: &'c Context<B>,
        s: usize,
        tau: f64,
        fields: impl Fn(usize, usize) -> (f64, f64, f64),
    ) -> Result<Self, RaccError> {
        assert!(s >= 3, "grid must be at least 3x3");
        assert!(tau > 0.5, "tau must exceed 1/2");
        Ok(LbmSim {
            ctx,
            s,
            tau,
            f: ctx.zeros(Q * s * s)?,
            f1: equilibrium_lattice(ctx, s, &fields)?,
            f2: equilibrium_lattice(ctx, s, &fields)?,
        })
    }

    /// Uniform initial condition.
    pub fn uniform(
        ctx: &'c Context<B>,
        s: usize,
        tau: f64,
        rho: f64,
        ux: f64,
        uy: f64,
    ) -> Result<Self, RaccError> {
        Self::new(ctx, s, tau, |_, _| (rho, ux, uy))
    }

    /// Addresses of `f`, `f1`, `f2`.
    #[cfg(test)]
    pub(crate) fn lattice_addrs(&self) -> [usize; 3] {
        [&self.f, &self.f1, &self.f2].map(Array1::buffer_id)
    }

    /// Grid edge length.
    pub fn size(&self) -> usize {
        self.s
    }

    /// Relaxation time.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// One time step with the paper's interior-only update — this is the
    /// measured kernel of Fig. 11: a single `parallel_for((S, S), lbm, ...)`.
    pub fn step(&mut self) {
        let (s, tau) = (self.s, self.tau);
        let f = self.f.view_mut();
        let f1 = self.f1.view();
        let f2 = self.f2.view_mut();
        self.ctx
            .parallel_for_2d((s, s), &lbm_profile(), move |fast, slow| {
                let (x, y) = site(fast, slow);
                if is_interior(x, y, s) {
                    let pulled = pull(x, y, |k, xs, ys| f1.get(fidx(k, xs, ys, s)));
                    collide_into(&pulled, tau, |k| fidx(k, x, y, s), &f, &f2);
                }
            });
        std::mem::swap(&mut self.f1, &mut self.f2);
    }

    /// One periodic time step (wrap-around streaming; physics validation).
    pub fn step_periodic(&mut self) {
        let (s, tau) = (self.s, self.tau);
        let f = self.f.view_mut();
        let f1 = self.f1.view();
        let f2 = self.f2.view_mut();
        self.ctx
            .parallel_for_2d((s, s), &lbm_profile(), move |fast, slow| {
                let (x, y) = site(fast, slow);
                let pulled = pull_periodic(x, y, s, |k, xs, ys| f1.get(fidx(k, xs, ys, s)));
                collide_into(&pulled, tau, |k| fidx(k, x, y, s), &f, &f2);
            });
        std::mem::swap(&mut self.f1, &mut self.f2);
    }

    /// One time step launched as a *flattened 1D* `parallel_for` over
    /// `s*s` sites (`y` fastest, as in [`LbmSim::step`]) instead of the
    /// native 2D construct — the launch-shape ablation of `DESIGN.md` §7.
    /// Functionally identical to [`LbmSim::step`].
    pub fn step_flat(&mut self) {
        let (s, tau) = (self.s, self.tau);
        let f = self.f.view_mut();
        let f1 = self.f1.view();
        let f2 = self.f2.view_mut();
        self.ctx.parallel_for(s * s, &lbm_profile(), move |idx| {
            let (x, y) = site(idx % s, idx / s);
            if is_interior(x, y, s) {
                let pulled = pull(x, y, |k, xs, ys| f1.get(fidx(k, xs, ys, s)));
                collide_into(&pulled, tau, |k| fidx(k, x, y, s), &f, &f2);
            }
        });
        std::mem::swap(&mut self.f1, &mut self.f2);
    }

    /// Run `steps` interior-update time steps.
    pub fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Total mass, computed with a RACC reduction on the device.
    pub fn total_mass(&self) -> f64 {
        let n = Q * self.s * self.s;
        let f1 = self.f1.view();
        self.ctx.parallel_reduce(
            n,
            &racc_core::KernelProfile::new("lbm-mass", 1.0, 8.0, 0.0),
            move |i| f1.get(i),
        )
    }

    /// Download the distributions (for checks and visualization).
    pub fn distributions(&self) -> Result<Vec<f64>, RaccError> {
        self.ctx.to_host(&self.f1)
    }

    /// Density and velocity fields computed on the host.
    pub fn macroscopic(&self) -> Result<MacroFields, RaccError> {
        let f1 = self.ctx.to_host(&self.f1)?;
        let s = self.s;
        let mut rho = vec![0.0; s * s];
        let mut ux = vec![0.0; s * s];
        let mut uy = vec![0.0; s * s];
        for x in 0..s {
            for y in 0..s {
                let site = std::array::from_fn(|k| f1[fidx(k, x, y, s)]);
                (rho[x * s + y], ux[x * s + y], uy[x * s + y]) = moments(&site);
            }
        }
        Ok((rho, ux, uy))
    }

    /// Check this simulation against the serial reference after the same
    /// number of steps (test helper): max abs difference of distributions.
    pub fn max_diff_vs(&self, reference: &SerialLbm) -> f64 {
        let mine = self.distributions().expect("download");
        mine.iter()
            .zip(&reference.f1)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Collide `pulled`; direction `k` lives at linear index `at(k)`. The
/// streamed values go to the scratch lattice `f` (as in the paper's
/// Fig. 10), the BGK result to `f2`.
#[inline(always)]
pub(crate) fn collide_into(
    pulled: &[f64; Q],
    tau: f64,
    at: impl Fn(usize) -> usize,
    f: &ViewMut1<f64>,
    f2: &ViewMut1<f64>,
) {
    let next = bgk_collide(pulled, tau);
    for (k, &v) in pulled.iter().enumerate() {
        f.set(at(k), v);
    }
    for (k, &v) in next.iter().enumerate() {
        f2.set(at(k), v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racc_core::{SerialBackend, ThreadsBackend};

    #[test]
    fn matches_serial_reference_interior_scheme() {
        let ctx = Context::new(ThreadsBackend::with_threads(4));
        let s = 24;
        let tau = 0.8;
        let fields = |x: usize, y: usize| {
            (
                1.0 + 0.02 * ((x * 3 + y) as f64).sin(),
                0.01 * (y as f64 / s as f64),
                -0.005,
            )
        };
        let mut sim = LbmSim::new(&ctx, s, tau, fields).unwrap();
        let mut refsim = SerialLbm::from_fields(s, tau, fields);
        for _ in 0..10 {
            sim.step();
            refsim.step();
        }
        assert_eq!(sim.max_diff_vs(&refsim), 0.0);
    }

    #[test]
    fn matches_serial_reference_periodic_scheme() {
        let ctx = Context::new(SerialBackend::new());
        let s = 16;
        let tau = 0.7;
        let fields = |x: usize, _y: usize| (1.0, 0.03 * (x as f64 / 16.0), 0.0);
        let mut sim = LbmSim::new(&ctx, s, tau, fields).unwrap();
        let mut refsim = SerialLbm::from_fields(s, tau, fields);
        for _ in 0..8 {
            sim.step_periodic();
            refsim.step_periodic();
        }
        assert_eq!(sim.max_diff_vs(&refsim), 0.0);
    }

    #[test]
    fn both_lattices_start_at_the_per_site_equilibrium_bit_for_bit() {
        let ctx = Context::new(SerialBackend::new());
        // Small and odd, so a wrong row or plane wrap shows.
        let s = 7;
        let fields = |x: usize, y: usize| (1.0 + 0.01 * (x as f64), 0.02 * (y as f64), -0.003);
        let mut want = vec![0u64; Q * s * s];
        for x in 0..s {
            for y in 0..s {
                let (rho, ux, uy) = fields(x, y);
                for k in 0..Q {
                    want[fidx(k, x, y, s)] = equilibrium(k, rho, ux, uy).to_bits();
                }
            }
        }
        let sim = LbmSim::new(&ctx, s, 0.8, fields).unwrap();
        let bits = |a: &Array1<f64>| -> Vec<u64> {
            ctx.to_host(a)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&sim.f1), want);
        assert_eq!(bits(&sim.f2), want);
        assert!(bits(&sim.f).iter().all(|&b| b == 0));
    }

    #[test]
    fn periodic_mass_conserved_via_device_reduction() {
        let ctx = Context::new(ThreadsBackend::with_threads(2));
        let mut sim = LbmSim::new(&ctx, 20, 0.9, |x, y| {
            (1.0 + 0.05 * ((x ^ y) as f64 / 20.0), 0.0, 0.01)
        })
        .unwrap();
        let m0 = sim.total_mass();
        for _ in 0..15 {
            sim.step_periodic();
        }
        let m1 = sim.total_mass();
        assert!((m1 - m0).abs() < 1e-9 * m0);
    }

    #[test]
    fn flat_launch_matches_2d_launch() {
        let ctx2 = Context::new(ThreadsBackend::with_threads(3));
        let ctx1 = Context::new(ThreadsBackend::with_threads(3));
        let s = 20;
        let fields = |x: usize, y: usize| (1.0 + 0.01 * ((x + 2 * y) as f64).sin(), 0.01, 0.0);
        let mut a = LbmSim::new(&ctx2, s, 0.8, fields).unwrap();
        let mut b = LbmSim::new(&ctx1, s, 0.8, fields).unwrap();
        for _ in 0..8 {
            a.step();
            b.step_flat();
        }
        let (da, db) = (a.distributions().unwrap(), b.distributions().unwrap());
        for (x, y) in da.iter().zip(&db) {
            assert_eq!(x, y, "flat and 2D launches must agree exactly");
        }
    }

    #[test]
    fn run_steps_and_accessors() {
        let ctx = Context::new(SerialBackend::new());
        let mut sim = LbmSim::uniform(&ctx, 8, 1.0, 1.0, 0.0, 0.0).unwrap();
        assert_eq!(sim.size(), 8);
        assert_eq!(sim.tau(), 1.0);
        sim.run(3);
        let (rho, ux, uy) = sim.macroscopic().unwrap();
        assert!(rho.iter().all(|&r| (r - 1.0).abs() < 1e-12));
        assert!(ux.iter().all(|&u| u.abs() < 1e-12));
        assert!(uy.iter().all(|&u| u.abs() < 1e-12));
    }
}
