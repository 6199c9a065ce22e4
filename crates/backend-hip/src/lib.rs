//! # racc-backend-hip
//!
//! The RACC back end for (simulated) AMD GPUs — the analog of JACC's
//! AMDGPU.jl back end. A vendor is data: this crate is the [`HIP`]
//! description the shared [`racc_backend_common::SimBackend`] launches by —
//!
//! * the MI100 device profile (the paper's AMD accelerator),
//! * wavefront-64 friendly launch geometry (the reduction block of 512 is
//!   eight full wavefronts),
//! * the paper's 16x16 2D tiles and two-kernel reductions.
//!
//! To share a device with HIP-flavored code, build with
//! `SimBackend::new(hip.device_arc(), &HIP)`.

use racc_backend_common::{SimBackend, Vendor};
use racc_gpusim::profiles;

/// The HIP vendor description.
pub const HIP: Vendor = Vendor {
    key: "hipsim",
    stock_device: profiles::amd_mi100,
    tile_2d: (16, 16),
    tile_3d: (8, 8, 4),
    reduce_block: 512,
    racc_launch_extra_ns: 1_500.0,
    reduce_time_factor: 1.0,
};

/// The HIP-flavored RACC back end: a [`SimBackend`] launching by [`HIP`].
pub type HipBackend = SimBackend;

/// A backend on a fresh simulated MI100.
pub fn hip_backend() -> HipBackend {
    SimBackend::stock(&HIP)
}
