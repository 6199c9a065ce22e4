//! Device architecture descriptors.

/// Architectural and calibration parameters of a simulated accelerator.
///
/// The structural fields (limits, compute-unit counts) gate launches exactly
/// like the attribute queries the paper's back ends perform
/// (`CUDA.DEVICE_ATTRIBUTE_MAX_BLOCK_DIM_X`, `maxTotalGroupSize`, ...). The
/// throughput fields drive the analytic performance model; see
/// [`crate::profiles`] for the calibrated instances and the calibration
/// notes in `EXPERIMENTS.md`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"NVIDIA A100"`.
    pub name: &'static str,
    /// Short identifier used in tables, e.g. `"a100"`.
    pub key: &'static str,
    /// Number of compute units (SMs / CUs / Xe cores).
    pub compute_units: u32,
    /// SIMT width (warp 32 / wavefront 64 / sub-group 16-32).
    pub simt_width: u32,
    /// Maximum threads per block (work-group).
    pub max_threads_per_block: u32,
    /// Maximum extent of the x dimension of a block.
    pub max_block_dim_x: u32,
    /// Maximum extent of the y dimension of a block.
    pub max_block_dim_y: u32,
    /// Maximum extent of the z dimension of a block.
    pub max_block_dim_z: u32,
    /// Shared-memory (LDS/SLM) bytes available per block.
    pub shared_mem_per_block: usize,
    /// Device memory capacity in bytes.
    pub memory_bytes: usize,
    /// Peak device-memory bandwidth, bytes per second.
    pub mem_bw_bytes_per_sec: f64,
    /// Fraction of peak bandwidth simple streaming kernels achieve (0..=1).
    pub mem_efficiency: f64,
    /// Peak double-precision throughput, FLOP per second.
    pub fp64_flops_per_sec: f64,
    /// Fixed cost of one kernel launch, nanoseconds (driver + dispatch).
    pub launch_overhead_ns: f64,
    /// Host-device link bandwidth, bytes per second (PCIe / fabric).
    pub link_bw_bytes_per_sec: f64,
    /// Host-device link latency per transfer, nanoseconds.
    pub link_latency_ns: f64,
    /// Multiplier (>= 1) applied to the final pass of reductions: captures
    /// the extra device-to-host result read plus driver synchronization the
    /// paper's two-kernel DOT exhibits. Calibrated per device.
    pub reduce_sync_penalty: f64,
    /// Penalty factor (<= 1) applied to achieved bandwidth for fully
    /// uncoalesced access; interpolated by a kernel's coalescing factor.
    pub uncoalesced_efficiency: f64,
}

impl DeviceSpec {
    /// Validate internal consistency; used by tests and `Device::new`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), String> {
        macro_rules! ensure {
            ($cond:expr, $msg:expr) => {
                if !$cond {
                    return Err(format!("{}: {}", self.name, $msg));
                }
            };
        }
        ensure!(self.compute_units > 0, "compute_units must be positive");
        ensure!(self.simt_width > 0, "simt_width must be positive");
        ensure!(
            self.max_threads_per_block > 0,
            "max_threads_per_block must be positive"
        );
        ensure!(
            self.max_block_dim_x > 0 && self.max_block_dim_y > 0 && self.max_block_dim_z > 0,
            "block dim limits must be positive"
        );
        ensure!(self.memory_bytes > 0, "memory_bytes must be positive");
        ensure!(
            self.mem_bw_bytes_per_sec > 0.0,
            "memory bandwidth must be positive"
        );
        ensure!(
            (0.0..=1.0).contains(&self.mem_efficiency) && self.mem_efficiency > 0.0,
            "mem_efficiency must be in (0, 1]"
        );
        ensure!(
            self.fp64_flops_per_sec > 0.0,
            "fp64 throughput must be positive"
        );
        ensure!(
            self.launch_overhead_ns >= 0.0,
            "launch overhead must be non-negative"
        );
        ensure!(
            self.link_bw_bytes_per_sec > 0.0,
            "link bandwidth must be positive"
        );
        ensure!(
            self.link_latency_ns >= 0.0,
            "link latency must be non-negative"
        );
        ensure!(
            self.reduce_sync_penalty >= 1.0,
            "reduce_sync_penalty must be >= 1"
        );
        ensure!(
            (0.0..=1.0).contains(&self.uncoalesced_efficiency) && self.uncoalesced_efficiency > 0.0,
            "uncoalesced_efficiency must be in (0, 1]"
        );
        Ok(())
    }

    /// Achieved streaming bandwidth in bytes/ns for a kernel with the given
    /// coalescing factor in `[0, 1]` (1 = perfectly coalesced).
    pub fn achieved_bw_bytes_per_ns(&self, coalescing: f64) -> f64 {
        let c = coalescing.clamp(0.0, 1.0);
        let eff = self.uncoalesced_efficiency + (1.0 - self.uncoalesced_efficiency) * c;
        self.mem_bw_bytes_per_sec * self.mem_efficiency * eff / 1e9
    }

    /// Peak FP64 throughput in FLOP/ns.
    pub fn flops_per_ns(&self) -> f64 {
        self.fp64_flops_per_sec / 1e9
    }

    /// Host link bandwidth in bytes/ns.
    pub fn link_bw_bytes_per_ns(&self) -> f64 {
        self.link_bw_bytes_per_sec / 1e9
    }
}

#[cfg(test)]
mod tests {
    use crate::profiles;

    #[test]
    fn shipped_profiles_validate() {
        for spec in profiles::all() {
            spec.validate()
                .expect("profile must be internally consistent");
        }
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut spec = profiles::nvidia_a100();
        spec.compute_units = 0;
        assert!(spec.validate().is_err());

        let mut spec = profiles::nvidia_a100();
        spec.mem_efficiency = 1.5;
        assert!(spec.validate().is_err());

        let mut spec = profiles::nvidia_a100();
        spec.reduce_sync_penalty = 0.5;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn achieved_bandwidth_interpolates_with_coalescing() {
        let spec = profiles::nvidia_a100();
        let full = spec.achieved_bw_bytes_per_ns(1.0);
        let none = spec.achieved_bw_bytes_per_ns(0.0);
        let half = spec.achieved_bw_bytes_per_ns(0.5);
        assert!(none < half && half < full);
        let expected_none =
            spec.mem_bw_bytes_per_sec * spec.mem_efficiency * spec.uncoalesced_efficiency / 1e9;
        assert!((none - expected_none).abs() < 1e-12);
        // Out-of-range factors clamp.
        assert_eq!(spec.achieved_bw_bytes_per_ns(2.0), full);
        assert_eq!(spec.achieved_bw_bytes_per_ns(-1.0), none);
    }
}
