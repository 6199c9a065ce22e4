//! # racc-gpusim
//!
//! A software **SIMT GPU simulator**: the hardware substitute that lets this
//! workspace reproduce the JACC paper's GPU experiments without GPUs.
//!
//! The simulator provides, faithfully shaped after the CUDA/HIP/Level-Zero
//! execution models the paper's back ends target:
//!
//! * a [`Device`] with its own **memory heap**, distinct from host memory —
//!   data must be explicitly uploaded/downloaded, and those transfers are
//!   priced by the performance model exactly like PCIe/fabric transfers;
//! * **grid/block kernel launches** ([`Device::launch`]) with 1D–3D grids,
//!   per-launch validation against the device limits, and functional
//!   execution of every simulated thread (parallelized over blocks on the
//!   host thread pool);
//! * **cooperative kernels** ([`Device::launch_phased`]) for code that needs
//!   `__syncthreads`: a kernel is expressed as a sequence of *phases* with an
//!   implicit block-wide barrier between them, per-block **shared memory**,
//!   and per-thread private state that survives across phases (the register
//!   file of the simulated thread);
//! * **streams and events** with device-clock timestamps;
//! * an **analytic performance model** ([`perf::PerfModel`]): each launch and
//!   transfer advances a virtual device clock by
//!   `launch overhead + max(compute, memory)` using the device profile's
//!   bandwidth/throughput figures, occupancy-scaled at small grids. Figures
//!   in the paper reproduction are regenerated from this clock;
//! * **simsan**, an optional sanitizer ([`Device::set_sanitizer`]): races on
//!   device buffers, barrier divergence, out-of-bounds and use-after-free
//!   accesses, and leaks.
//!
//! Calibrated [`DeviceSpec`] profiles for the paper's three GPUs (NVIDIA
//! A100, AMD MI100, Intel Data Center Max 1550) live in [`profiles`].
//!
//! ```
//! use racc_gpusim::{profiles, Device, Dim3, KernelCost, LaunchConfig};
//!
//! let dev = Device::new(profiles::nvidia_a100());
//! let x = dev.alloc_from(&vec![1.0f64; 1024]).unwrap();
//! let cfg = LaunchConfig::linear(1024, 256);
//! let xs = dev.slice_mut(&x).unwrap();
//! dev.launch(cfg, KernelCost::memory_bound(8.0, 8.0), |t| {
//!     let i = t.global_id_x();
//!     if i < 1024 {
//!         xs.set(i, xs.get(i) * 2.0);
//!     }
//! })
//! .unwrap();
//! assert_eq!(dev.read_vec(&x).unwrap()[7], 2.0);
//! assert!(dev.clock_ns() > 0);
//! ```

mod arena;
mod device;
mod dim;
mod error;
mod event;
mod heap;
mod launch;
pub mod perf;
mod phased;
pub mod profiles;
mod report;
mod sanitizer;
mod spec;
mod stream;

pub use device::Device;
pub use dim::Dim3;
pub use error::SimError;
pub use event::Event;
pub use heap::{DeviceBuffer, DeviceSlice, DeviceSliceMut, Element};
pub use launch::{BlockCtx, LaunchConfig, ThreadCtx};
pub use perf::{KernelCost, OpKind, OpRecord};
pub use phased::{LeaderPhases, PhasedKernel, SharedMem, SinglePhase, TreeShape, TreeStep};
// Fault-injection vocabulary (racc-chaos), re-exported so simulator users
// can arm a device without naming the chaos crate.
pub use racc_chaos::{FaultAction, FaultEvent, FaultPlan, FaultSite, RetryPolicy};
pub use report::{OpStats, ProfileReport};
pub use sanitizer::{LeakRecord, SanitizerReport};
pub use spec::DeviceSpec;
pub use stream::Stream;
