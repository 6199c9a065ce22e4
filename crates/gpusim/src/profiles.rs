//! Calibrated device profiles for the architectures in the paper's study.
//!
//! Structural numbers (compute units, SIMT width, limits, capacities, peak
//! bandwidth/FLOPs) are the published hardware figures. The *achieved
//! efficiency* and *overhead* fields are calibration constants chosen so the
//! simulator approximates the GPU-vs-CPU speedup landscape the paper reports
//! (JACC §V): they are documented, deliberately centralised here, and
//! recorded against the measured outcomes in `EXPERIMENTS.md`.
//!
//! Calibration anchors from the paper:
//!
//! * AXPY (1D, large): MI100 ≈ 70× over the EPYC 7742 CPU backend.
//! * LBM: MI100 ≈ 14×, A100 ≈ 20×, Max 1550 ≈ 6.5× over CPU — the paper's
//!   LBM kernel indexes `f[(k-1)·S² + x·S + y]` with `x` as the fast thread
//!   index, i.e. *strided* (uncoalesced) device accesses, which is why its
//!   GPU advantage is far below the pure-bandwidth ratio. The
//!   `uncoalesced_efficiency` fields are fit to these points.
//! * DOT (small arrays): CPU ≈ 2× faster than GPUs — reproduced by launch
//!   overhead plus the two-kernel reduction's `reduce_sync_penalty`.
//! * Intel Max 1550 shows the weakest speedups (software maturity at the
//!   time of the study); its efficiency factors are calibrated lowest.

use crate::spec::DeviceSpec;

/// NVIDIA Ampere A100 (Perlmutter's accelerator).
pub fn nvidia_a100() -> DeviceSpec {
    DeviceSpec {
        name: "NVIDIA A100",
        key: "a100",
        compute_units: 108,
        simt_width: 32,
        max_threads_per_block: 1024,
        max_block_dim_x: 1024,
        max_block_dim_y: 1024,
        max_block_dim_z: 64,
        shared_mem_per_block: 163 * 1024,
        memory_bytes: 40 * (1 << 30),
        mem_bw_bytes_per_sec: 1555e9,
        mem_efficiency: 0.78,
        fp64_flops_per_sec: 9.7e12,
        launch_overhead_ns: 6_000.0,
        link_bw_bytes_per_sec: 25e9,
        link_latency_ns: 1_300.0,
        reduce_sync_penalty: 1.3,
        uncoalesced_efficiency: 0.20,
    }
}

/// AMD MI100 (the paper's AMD accelerator, hosted at ORNL's ExCL).
pub fn amd_mi100() -> DeviceSpec {
    DeviceSpec {
        name: "AMD MI100",
        key: "mi100",
        compute_units: 120,
        simt_width: 64,
        max_threads_per_block: 1024,
        max_block_dim_x: 1024,
        max_block_dim_y: 1024,
        max_block_dim_z: 1024,
        shared_mem_per_block: 64 * 1024,
        memory_bytes: 32 * (1 << 30),
        mem_bw_bytes_per_sec: 1228e9,
        mem_efficiency: 0.68,
        fp64_flops_per_sec: 11.5e12,
        launch_overhead_ns: 11_000.0,
        link_bw_bytes_per_sec: 16e9,
        link_latency_ns: 2_000.0,
        reduce_sync_penalty: 1.8,
        uncoalesced_efficiency: 0.20,
    }
}

/// Intel Data Center GPU Max 1550 (Aurora's accelerator; one tile).
pub fn intel_max1550() -> DeviceSpec {
    DeviceSpec {
        name: "Intel Max 1550",
        key: "max1550",
        compute_units: 128,
        simt_width: 32,
        max_threads_per_block: 1024,
        max_block_dim_x: 1024,
        max_block_dim_y: 1024,
        max_block_dim_z: 1024,
        shared_mem_per_block: 128 * 1024,
        memory_bytes: 64 * (1 << 30),
        mem_bw_bytes_per_sec: 3277e9,
        mem_efficiency: 0.037,
        fp64_flops_per_sec: 26e12,
        launch_overhead_ns: 22_000.0,
        link_bw_bytes_per_sec: 32e9,
        link_latency_ns: 3_000.0,
        reduce_sync_penalty: 2.6,
        uncoalesced_efficiency: 0.65,
    }
}

/// A deliberately tiny device for tests: small memory, small limits, fast
/// clock math. Not used by any benchmark.
pub fn test_device() -> DeviceSpec {
    DeviceSpec {
        name: "Test Device",
        key: "test",
        compute_units: 4,
        simt_width: 8,
        max_threads_per_block: 64,
        max_block_dim_x: 64,
        max_block_dim_y: 64,
        max_block_dim_z: 8,
        shared_mem_per_block: 4 * 1024,
        memory_bytes: 16 * (1 << 20),
        mem_bw_bytes_per_sec: 100e9,
        mem_efficiency: 1.0,
        fp64_flops_per_sec: 1e12,
        launch_overhead_ns: 1_000.0,
        link_bw_bytes_per_sec: 10e9,
        link_latency_ns: 500.0,
        reduce_sync_penalty: 1.0,
        uncoalesced_efficiency: 0.25,
    }
}

/// All GPU profiles used in the paper reproduction.
pub fn all() -> Vec<DeviceSpec> {
    vec![nvidia_a100(), amd_mi100(), intel_max1550(), test_device()]
}

/// Look up a profile by its short key (`"a100"`, `"mi100"`, `"max1550"`,
/// `"test"`).
pub fn by_key(key: &str) -> Option<DeviceSpec> {
    all().into_iter().find(|s| s.key == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_key() {
        assert_eq!(by_key("a100").unwrap().name, "NVIDIA A100");
        assert_eq!(by_key("mi100").unwrap().simt_width, 64);
        assert_eq!(by_key("max1550").unwrap().compute_units, 128);
        assert!(by_key("h100").is_none());
    }

    #[test]
    fn keys_are_unique() {
        let keys: Vec<_> = all().iter().map(|s| s.key).collect();
        let mut dedup = keys.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(keys.len(), dedup.len());
    }

    #[test]
    fn bandwidth_ordering_matches_hardware() {
        // Peak bandwidth: Max 1550 > A100 > MI100.
        assert!(intel_max1550().mem_bw_bytes_per_sec > nvidia_a100().mem_bw_bytes_per_sec);
        assert!(nvidia_a100().mem_bw_bytes_per_sec > amd_mi100().mem_bw_bytes_per_sec);
        // Achieved (calibrated) bandwidth: A100 leads, reflecting the paper's
        // observed results.
        let achieved = |s: &crate::DeviceSpec| s.achieved_bw_bytes_per_ns(1.0);
        assert!(achieved(&nvidia_a100()) > achieved(&amd_mi100()));
        assert!(achieved(&amd_mi100()) > achieved(&intel_max1550()));
    }
}
