//! The three vendors of the paper, each one `const` [`Vendor`] — the
//! analogs of JACC's CUDA.jl, AMDGPU.jl and oneAPI.jl back ends (Figs. 6
//! and 7). Always compiled, and every build of the `racc` crate offers all
//! three keys. To share a device with vendor-flavored code
//! (device-specific kernels and RACC constructs then accumulate on one
//! clock), use `SimBackend::new(cuda.device_arc(), &CUDA)`.

use racc_gpusim::profiles;

use crate::{SimBackend, Vendor};

/// NVIDIA: the A100 profile (Perlmutter's accelerator), the paper's launch
/// geometry — 1D blocks of `min(N, maxPossibleThreads)` threads, 16x16 2D
/// tiles — and 512-thread two-kernel reductions (Fig. 3).
pub const CUDA: Vendor = Vendor {
    key: "cudasim",
    stock_device: profiles::nvidia_a100,
    tile_2d: (16, 16),
    tile_3d: (8, 8, 4),
    reduce_block: 512,
    racc_launch_extra_ns: 1_200.0,
    reduce_time_factor: 1.0,
};

/// AMD: the MI100 profile (the paper's AMD accelerator) with wavefront-64
/// friendly geometry — the reduction block of 512 is eight full wavefronts
/// — and the paper's 16x16 2D tiles and two-kernel reductions.
pub const HIP: Vendor = Vendor {
    key: "hipsim",
    stock_device: profiles::amd_mi100,
    tile_2d: (16, 16),
    tile_3d: (8, 8, 4),
    reduce_block: 512,
    racc_launch_extra_ns: 1_500.0,
    reduce_time_factor: 1.0,
};

/// Intel: the Data Center Max 1550 profile (Aurora's accelerator),
/// items/groups geometry with `maxTotalGroupSize`-bounded 1D launches and
/// the paper's 16x16 2D item tiles (the SYCL dimension inversion the paper
/// handles in Fig. 7 is an indexing concern inside the vendor shim; the
/// RACC mapping of `i` onto the fast axis is identical across back ends,
/// which is the whole point of the portability layer), and a 1.35x modeled
/// penalty on reductions, reproducing the ~35% overhead the paper reports
/// for JACC DOT on the Intel GPU (section V-A).
pub const ONEAPI: Vendor = Vendor {
    key: "oneapisim",
    stock_device: profiles::intel_max1550,
    tile_2d: (16, 16),
    tile_3d: (8, 8, 4),
    reduce_block: 512,
    racc_launch_extra_ns: 1_500.0,
    reduce_time_factor: 1.35,
};

/// A backend on a fresh simulated A100.
pub fn cuda_backend() -> SimBackend {
    SimBackend::stock(&CUDA)
}

/// A backend on a fresh simulated MI100.
pub fn hip_backend() -> SimBackend {
    SimBackend::stock(&HIP)
}

/// A backend on a fresh simulated Max 1550.
pub fn oneapi_backend() -> SimBackend {
    SimBackend::stock(&ONEAPI)
}
