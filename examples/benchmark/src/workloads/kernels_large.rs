//! `kernels_large` — the right-hand ends of the paper's Figs. 8, 9 and 11:
//! AXPY + DOT over 2^22 elements (1D) and 2048² (2D), then two D2Q9 LBM
//! steps at 512². The executor (pool chunk loops, gpusim grid execution)
//! does nearly all the work; dispatch is a rounding error.
//!
//! Each f64 array is 32 MiB: above the 4 MiB/core L2 but far below the
//! host's shared 260 MiB L3, so elements/s here is a cache-resident rate,
//! *not* a DRAM-bandwidth figure.

use racc::{Array1, Array2, KernelProfile};
use racc_blas::portable as blas;
use racc_lbm::portable::LbmSim;

use crate::calib::Sections;
use crate::cell::{
    close, digest, hash_f64, racc_trace_begin, racc_trace_totals, Cell, Env, RepOutcome, Runner,
};
use crate::rng::Rng;
use crate::spans::span;

pub const N_1D: usize = 1 << 22;
pub const S_2D: usize = 2048;
pub const S_LBM: usize = 512;
pub const LBM_STEPS: usize = 2;
pub const LBM_TAU: f64 = 0.8;
pub const ALPHA: f64 = 0.015_625;

/// The seeded host inputs (shared with the native-code probes).
pub struct Inputs {
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    pub x2: Vec<f64>,
    pub y2: Vec<f64>,
    /// Per-site `(rho, ux, uy)` of the LBM initial equilibrium.
    pub lbm: Vec<(f64, f64, f64)>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut r = Rng::stream(seed, "kernels_large");
        let x = r.vec_uniform(N_1D, -1.0, 1.0);
        let y = r.vec_uniform(N_1D, -1.0, 1.0);
        let x2 = r.vec_uniform(S_2D * S_2D, -1.0, 1.0);
        let y2 = r.vec_uniform(S_2D * S_2D, -1.0, 1.0);
        let lbm = (0..S_LBM * S_LBM)
            .map(|_| {
                (
                    1.0 + r.uniform(-0.01, 0.01),
                    r.uniform(-0.02, 0.02),
                    r.uniform(-0.02, 0.02),
                )
            })
            .collect();
        Inputs { x, y, x2, y2, lbm }
    }
}

/// The device state of one side (the measured context or the twin).
struct Side<'c> {
    ctx: &'c racc::Ctx,
    x: Array1<f64>,
    y: Array1<f64>,
    x2: Array2<f64>,
    y2: Array2<f64>,
    lbm: LbmSim<'c, racc::AnyBackend>,
}

/// What one pass over the six kernels produced.
struct Pass {
    dot1: f64,
    dot2: f64,
    /// Wall seconds per kernel: axpy1, dot1, axpy2, dot2, lbm.
    walls: [f64; 5],
}

impl<'c> Side<'c> {
    fn upload(ctx: &'c racc::Ctx, inp: &Inputs) -> Result<Side<'c>, String> {
        let e = |e: racc::Error| e.to_string();
        Ok(Side {
            ctx,
            x: span("core.array_from", || ctx.array_from(&inp.x)).map_err(e)?,
            y: span("core.array_from", || ctx.array_from(&inp.y)).map_err(e)?,
            x2: span("core.array_from", || ctx.array2_from(S_2D, S_2D, &inp.x2)).map_err(e)?,
            y2: span("core.array_from", || ctx.array2_from(S_2D, S_2D, &inp.y2)).map_err(e)?,
            lbm: span("lbm.new", || {
                LbmSim::new(ctx, S_LBM, LBM_TAU, |i, j| inp.lbm[i * S_LBM + j])
            })
            .map_err(e)?,
        })
    }

    /// The six kernels, each its own calibrated section.
    fn pass(&mut self, timer: &mut Sections) -> Pass {
        let (ctx, n) = (self.ctx, N_1D);
        let mut walls = [0.0; 5];
        // The 1D pair is written against the front end directly (the
        // paper's Fig. 2 code), so its spans are the `core` constructs.
        let (xv, yv) = (self.x.view_mut(), self.y.view());
        ((), walls[0]) = timer.section(|| {
            span("core.parallel_for", || {
                ctx.parallel_for(n, &KernelProfile::axpy(), move |i| {
                    xv.set(i, xv.get(i) + ALPHA * yv.get(i));
                })
            })
        });
        let (xv, yv) = (self.x.view(), self.y.view());
        let dot1;
        (dot1, walls[1]) = timer.section(|| {
            span("core.parallel_reduce", || {
                ctx.parallel_reduce(n, &KernelProfile::dot(), move |i| xv.get(i) * yv.get(i))
            })
        });
        ((), walls[2]) = timer.section(|| {
            span("blas.axpy_2d", || {
                blas::axpy_2d(ctx, ALPHA, &self.x2, &self.y2)
            })
        });
        let dot2;
        (dot2, walls[3]) =
            timer.section(|| span("blas.dot_2d", || blas::dot_2d(ctx, &self.x2, &self.y2)));
        for _ in 0..LBM_STEPS {
            let ((), wall) = timer.section(|| span("lbm.step", || self.lbm.step()));
            walls[4] += wall;
        }
        Pass { dot1, dot2, walls }
    }
}

pub struct KernelsLarge;

pub struct State<'c> {
    side: Side<'c>,
    twin: Side<'c>,
    mass0: f64,
}

impl Cell for KernelsLarge {
    type State<'c> = State<'c>;

    fn build<'c>(env: &'c Env, seed: u64) -> Result<State<'c>, String> {
        let inp = span("bench.generate", || Inputs::generate(seed));
        let side = Side::upload(&env.ctx, &inp)?;
        let twin = Side::upload(&env.twin, &inp)?;
        let mass0 = twin.lbm.total_mass();
        Ok(State { side, twin, mass0 })
    }
}

impl Runner for State<'_> {
    fn rep(&mut self) -> RepOutcome {
        racc_trace_begin(&[self.side.ctx]);
        let before = self.side.ctx.timeline();
        let mut timer = Sections::start();
        let got = self.side.pass(&mut timer);
        let (raw_s, scaled_s) = timer.totals();
        let mut out = RepOutcome::new(raw_s);
        out.scaled_s = Some(scaled_s);
        let after = self.side.ctx.timeline();
        racc_trace_totals(&mut out, &[self.side.ctx]);
        for (name, w) in ["axpy1d_s", "dot1d_s", "axpy2d_s", "dot2d_s", "lbm_s"]
            .into_iter()
            .zip(got.walls)
        {
            out.push(name, w);
        }
        out.push("modeled_ns", (after.modeled_ns - before.modeled_ns) as f64);
        out.push("digest", digest([got.dot1.to_bits(), got.dot2.to_bits()]));
        out.push("launches", (after.launches - before.launches) as f64);
        out.push("reductions", (after.reductions - before.reductions) as f64);
        out.push("h2d_bytes", (after.h2d_bytes - before.h2d_bytes) as f64);
        out.push("d2h_bytes", (after.d2h_bytes - before.d2h_bytes) as f64);

        // Reference: the same pass on the serial twin, in this child.
        let want = self.twin.pass(&mut Sections::start());
        out.check(close(got.dot1, want.dot1, 1e-10), || {
            format!("dot 1D {} vs serial {}", got.dot1, want.dot1)
        });
        out.check(close(got.dot2, want.dot2, 1e-10), || {
            format!("dot 2D {} vs serial {}", got.dot2, want.dot2)
        });
        // The Fig. 11 step updates interior sites only, so mass is not
        // conserved to round-off; it must track the serial twin and stay
        // within the boundary leak of a few steps.
        let (mass, mass_ref) = (self.side.lbm.total_mass(), self.twin.lbm.total_mass());
        out.check(close(mass, mass_ref, 1e-10), || {
            format!("LBM mass {mass} vs serial {mass_ref}")
        });
        out.check(mass.is_finite() && close(mass, self.mass0, 1e-2), || {
            format!("LBM mass drifted: {mass} from {}", self.mass0)
        });
        out
    }

    /// Every array bit-identical to the serial twin's after all reps: an
    /// AXPY or LBM step that went wrong anywhere in the chain shows here.
    fn final_check(&mut self) -> Result<(), String> {
        let (a, b) = (&self.side, &self.twin);
        let pairs = [
            ("x", a.ctx.to_host(&a.x), b.ctx.to_host(&b.x)),
            ("x2", a.ctx.to_host2(&a.x2), b.ctx.to_host2(&b.x2)),
            ("lbm", a.lbm.distributions(), b.lbm.distributions()),
        ];
        for (name, got, want) in pairs {
            let (got, want) = (
                got.map_err(|e| e.to_string())?,
                want.map_err(|e| e.to_string())?,
            );
            if hash_f64(&got) != hash_f64(&want) {
                return Err(format!("{name} is not bit-identical to the serial twin"));
            }
        }
        Ok(())
    }
}
