//! # racc-lbm
//!
//! The lattice-Boltzmann method workload of the paper's §V-B: the D2Q9
//! **2-lattice pull** algorithm used by the HARVEY blood-flow simulator,
//! with BGK collision.
//!
//! The update per site (the paper's Fig. 10 `lbm` function) is:
//!
//! 1. **streaming (pull)**: gather post-collision distributions from the
//!    upwind neighbors, `f[k](x, y) = f1[k](x - cx[k], y - cy[k])`;
//! 2. **moments**: `ρ = Σ f_k`, `ρ u = Σ f_k c_k`;
//! 3. **collision (BGK)**: relax toward the equilibrium
//!    `f_eq = w_k ρ (1 + 3 c·u + 4.5 (c·u)² − 1.5 u²)` with rate `1/τ`,
//!    writing into the second lattice `f2`.
//!
//! Storage matches the paper's indexing `f[(k−1)·S² + x·S + y]` (0-based
//! here: `k·S² + x·S + y`): the `y` coordinate is contiguous. The paper
//! launches the kernel with `x` on the construct's fast index, so its
//! device accesses are *strided*, which is why the paper's LBM GPU speedups
//! sit far below the pure-bandwidth ratio (see `EXPERIMENTS.md`).
//! [`lbm_profile`] describes that launch — zero coalescing — because the
//! modeled figures reproduce the paper's. The kernels of this crate bind the
//! fast index to `y` instead ([`lattice::site`], the one place that decides
//! it): on a real CPU the paper's mapping costs about 3× in wall time
//! (`EXPERIMENTS.md`, *Known deviations*), and the modeled time does not
//! depend on which of the two square-tiled axes is which.
//!
//! [`portable::LbmSim`] is the RACC implementation (one multidimensional
//! `parallel_for`, as in the paper); [`vendor`] holds the device-specific
//! comparison codes; [`physics`] provides periodic variants and analytic
//! validation (shear-wave decay against the BGK viscosity
//! `ν = (τ − 1/2)/3`).

pub mod cavity;
pub mod lattice;
pub mod physics;
pub mod poiseuille;
pub mod portable;
pub mod reference;
pub mod sharded;
pub mod vendor;

use racc_core::KernelProfile;

/// Kernel profile of one D2Q9 pull-update per site: ~150 FLOPs, 9 gathered
/// reads + 9 writes of f64 plus constant tables. The zero coalescing factor
/// models the *paper's* launch (fast thread index on the strided `x`), which
/// is what Fig. 11 measures; the code here launches `y`-fast (module docs).
pub const fn lbm_profile() -> KernelProfile {
    KernelProfile::new("lbm-d2q9", 150.0, 144.0, 72.0).with_coalescing(0.0)
}
