//! The five workloads. Each module generates its inputs from the seed,
//! runs fixed work per rep through the public RACC front end, and verifies
//! every rep against a reference computed in the same child.

pub mod binning;
pub mod cg_latency;
pub mod kernels_large;
pub mod serve_mix;
pub mod shard_heat3d;

use crate::cell::{run_cell, CellArgs};

/// Workload names, in report order.
pub const NAMES: [&str; 5] = [
    "kernels_large",
    "cg_latency",
    "binning",
    "shard_heat3d",
    "serve_mix",
];

/// Run the cell `args` names; `false` for an unknown workload.
pub fn dispatch(args: &CellArgs) -> bool {
    match args.workload.as_str() {
        "kernels_large" => run_cell::<kernels_large::KernelsLarge>(args),
        "cg_latency" => run_cell::<cg_latency::CgLatency>(args),
        "binning" => run_cell::<binning::Binning>(args),
        "shard_heat3d" => run_cell::<shard_heat3d::ShardHeat3d>(args),
        "serve_mix" => run_cell::<serve_mix::ServeMix>(args),
        _ => return false,
    }
    true
}
