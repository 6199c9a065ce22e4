//! # racc-blas
//!
//! The BLAS level-1 workloads of the paper's evaluation (§V-A): AXPY and
//! DOT on 1D and 2D double-precision arrays, plus the supporting operations
//! (SCAL, COPY, NRM2, AXPBY) the CG solver builds on.
//!
//! Two parallel universes, exactly like the paper's study:
//!
//! * [`portable`] — the **RACC** implementations: one body per operation,
//!   runnable unchanged on every back end;
//! * [`vendor`] — the **device-specific** implementations, hand-written
//!   against each vendor API (`racc-cudasim`, `racc-hipsim`,
//!   `racc-oneapisim`, and the raw thread pool for the CPU), including the
//!   two-kernel shared-memory DOT of the paper's Fig. 3. These are the
//!   baselines the overhead study compares against.
//!
//! [`fused`] adds hand-fused chains of the portable operations (AXPY+DOT,
//! the CG α-update) — one construct each with the summed profile — used by
//! the CG solver when the context's fusion knob
//! (`racc::builder().fusion(true)`) is on.
//!
//! [`mod@reference`] holds plain serial implementations used as ground truth in
//! tests.

pub mod fused;
pub mod portable;
pub mod reference;
pub mod vendor;

/// Kernel profiles for every operation in this crate, shared by the
/// portable and vendor paths so modeled costs are comparable.
pub mod profiles {
    use racc_core::KernelProfile;

    /// `x[i] += alpha * y[i]` (f64): 2 flops, read 16 B, write 8 B.
    pub const fn axpy() -> KernelProfile {
        KernelProfile::axpy()
    }

    /// `sum(x[i] * y[i])` map stage: 2 flops, read 16 B.
    pub const fn dot() -> KernelProfile {
        KernelProfile::dot()
    }

    /// `x[i] *= alpha`: 1 flop, read 8 B, write 8 B.
    pub const fn scal() -> KernelProfile {
        KernelProfile::new("scal", 1.0, 8.0, 8.0)
    }

    /// `y[i] = x[i]`.
    pub const fn copy() -> KernelProfile {
        KernelProfile::copy()
    }

    /// `sum(x[i]^2)` map stage of NRM2.
    pub const fn nrm2() -> KernelProfile {
        KernelProfile::new("nrm2", 2.0, 8.0, 0.0)
    }

    /// `y[i] = alpha * x[i] + beta * y[i]`.
    pub const fn axpby() -> KernelProfile {
        KernelProfile::new("axpby", 3.0, 16.0, 8.0)
    }
}
