//! # racc-backend-cuda
//!
//! The RACC back end for (simulated) NVIDIA GPUs — the analog of JACC's
//! CUDA.jl back end (paper Fig. 6). A vendor is data: this crate is the
//! [`CUDA`] description the shared [`racc_backend_common::SimBackend`]
//! launches by —
//!
//! * the A100 device profile (Perlmutter's accelerator),
//! * the paper's launch geometry: 1D blocks of
//!   `min(N, maxPossibleThreads)` threads, 16x16 2D tiles,
//! * 512-thread two-kernel reductions (Fig. 3).
//!
//! To share a device with CUDA-flavored code (device-specific benchmark
//! kernels and RACC constructs then accumulate on one clock), build with
//! `SimBackend::new(cuda.device_arc(), &CUDA)`.

use racc_backend_common::{SimBackend, Vendor};
use racc_gpusim::profiles;

/// The CUDA vendor description.
pub const CUDA: Vendor = Vendor {
    key: "cudasim",
    stock_device: profiles::nvidia_a100,
    tile_2d: (16, 16),
    tile_3d: (8, 8, 4),
    reduce_block: 512,
    racc_launch_extra_ns: 1_200.0,
    reduce_time_factor: 1.0,
};

/// The CUDA-flavored RACC back end: a [`SimBackend`] launching by [`CUDA`].
pub type CudaBackend = SimBackend;

/// A backend on a fresh simulated A100.
pub fn cuda_backend() -> CudaBackend {
    SimBackend::stock(&CUDA)
}
