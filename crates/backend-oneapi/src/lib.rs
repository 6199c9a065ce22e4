//! # racc-backend-oneapi
//!
//! The RACC back end for (simulated) Intel GPUs — the analog of JACC's
//! oneAPI.jl back end (paper Fig. 7). A vendor is data: this crate is the
//! [`ONEAPI`] description the shared [`racc_backend_common::SimBackend`]
//! launches by —
//!
//! * the Data Center Max 1550 device profile (Aurora's accelerator),
//! * items/groups geometry with `maxTotalGroupSize`-bounded 1D launches and
//!   the paper's 16x16 2D item tiles (the SYCL dimension inversion the
//!   paper handles in Fig. 7 is an indexing concern inside the vendor shim;
//!   the RACC mapping of `i` onto the fast axis is identical across back
//!   ends, which is the whole point of the portability layer),
//! * a 1.35x modeled penalty on reductions, reproducing the ~35% overhead
//!   the paper reports for JACC DOT on the Intel GPU (section V-A).
//!
//! To share a device with oneAPI-flavored code, build with
//! `SimBackend::new(one.device_arc(), &ONEAPI)`.

use racc_backend_common::{SimBackend, Vendor};
use racc_gpusim::profiles;

/// The oneAPI vendor description.
pub const ONEAPI: Vendor = Vendor {
    key: "oneapisim",
    stock_device: profiles::intel_max1550,
    tile_2d: (16, 16),
    tile_3d: (8, 8, 4),
    reduce_block: 512,
    racc_launch_extra_ns: 1_500.0,
    reduce_time_factor: 1.35,
};

/// The oneAPI-flavored RACC back end: a [`SimBackend`] launching by
/// [`ONEAPI`].
pub type OneApiBackend = SimBackend;

/// A backend on a fresh simulated Max 1550.
pub fn oneapi_backend() -> OneApiBackend {
    SimBackend::stock(&ONEAPI)
}
