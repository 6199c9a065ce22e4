//! The serial (single-core) reference backend.
//!
//! Functionally the simplest possible implementation of the constructs; its
//! results define "correct" for the cross-backend equivalence tests, and its
//! machine model is a single core of the paper's CPU.

use crate::backend::{run_row, Backend, DeviceToken, Extent, Instrument};
use crate::cpumodel::CpuSpec;
use crate::error::RaccError;
use crate::host::{Construct, Host};
use crate::profile::KernelProfile;
use crate::racecheck::{self, set_current_iteration as tag};
use crate::scalar::{AccScalar, ReduceOp};
use crate::timeline::Timeline;

/// Single-threaded reference backend.
pub struct SerialBackend {
    host: Host,
}

impl Default for SerialBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl SerialBackend {
    /// A serial backend modeling one core of the paper's EPYC 7742.
    pub fn new() -> Self {
        Self::with_cpu(CpuSpec::epyc_7742_single_core())
    }

    /// A serial backend with a custom CPU model.
    pub fn with_cpu(cpu: CpuSpec) -> Self {
        SerialBackend {
            host: Host::new("serial", 1, cpu),
        }
    }

    /// The CPU model in use.
    pub fn cpu(&self) -> &CpuSpec {
        &self.host.cpu
    }

    /// The construct bracket (see [`crate::host`]).
    #[inline]
    pub fn host(&self) -> &Host {
        &self.host
    }
}

impl Instrument for SerialBackend {
    fn set_sanitizer(&self, enabled: bool) -> bool {
        racecheck::set_sanitizer(enabled)
    }
}

impl Backend for SerialBackend {
    fn name(&self) -> String {
        format!("RACC Serial ({})", self.host.cpu.name)
    }

    fn key(&self) -> &'static str {
        self.host.key
    }

    fn is_accelerator(&self) -> bool {
        false
    }

    fn timeline(&self) -> &Timeline {
        &self.host.timeline
    }

    fn instrument(&self) -> &dyn Instrument {
        self
    }

    fn on_alloc(&self, bytes: usize, _upload: bool) -> Result<DeviceToken, RaccError> {
        self.host.on_alloc(bytes)
    }

    fn on_download(&self, _bytes: usize) {}

    #[inline(always)]
    fn parallel_for<F>(&self, extent: Extent, profile: &KernelProfile, f: F)
    where
        F: Fn(usize, usize, usize) + Sync,
    {
        let open = self.host.open();
        // Column-major traversal, axis 0 innermost; the axes past the rank
        // are single trips.
        let [m, n, l] = extent.dims();
        for k in 0..l {
            for j in 0..n {
                run_row(&f, 0..m, j, k, Some(extent.linear(0, j, k)));
            }
        }
        self.host.close(open, Construct::For(extent), profile);
    }

    #[inline(always)]
    fn parallel_reduce<T, F, O>(&self, extent: Extent, profile: &KernelProfile, f: F, op: O) -> T
    where
        T: AccScalar,
        F: Fn(usize, usize, usize) -> T + Sync,
        O: ReduceOp<T>,
    {
        let open = self.host.open();
        let [m, n, l] = extent.dims();
        let acc = if extent.rank() == 1 {
            // Order-preserving tiled fold: same combine association as the
            // naive loop (bit-reproducible), but a heavy `f` — e.g. a fused
            // matvec+dot row — can vectorize free of the `acc` chain.
            racc_threadpool::ordered_tiled_fold(
                op.identity(),
                0,
                m,
                &|i| {
                    tag(i as u64);
                    f(i, 0, 0)
                },
                &|a, b| op.combine(a, b),
            )
        } else {
            let mut acc = op.identity();
            for k in 0..l {
                for j in 0..n {
                    for i in 0..m {
                        tag(extent.linear(i, j, k) as u64);
                        acc = op.combine(acc, f(i, j, k));
                    }
                }
            }
            acc
        };
        self.host.close(open, Construct::Reduce(extent), profile);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::Sum;

    #[test]
    fn parallel_for_visits_in_order() {
        let b = SerialBackend::new();
        let order = parking_lot::Mutex::new(Vec::new());
        b.parallel_for(Extent::d1(5), &KernelProfile::unknown(), |i, _, _| {
            order.lock().push(i)
        });
        assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn two_d_traversal_is_column_major() {
        let b = SerialBackend::new();
        let order = parking_lot::Mutex::new(Vec::new());
        b.parallel_for(Extent::d2(2, 2), &KernelProfile::unknown(), |i, j, _| {
            order.lock().push((i, j))
        });
        assert_eq!(*order.lock(), vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn three_d_traversal_is_column_major() {
        let b = SerialBackend::new();
        let order = parking_lot::Mutex::new(Vec::new());
        let extent = Extent::d3(3, 2, 2);
        b.parallel_for(extent, &KernelProfile::unknown(), |i, j, k| {
            order.lock().push(extent.linear(i, j, k))
        });
        assert_eq!(*order.lock(), (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn timeline_charges_accumulate() {
        let b = SerialBackend::new();
        let n = Extent::d1(1_000_000);
        b.parallel_for(n, &KernelProfile::axpy(), |_, _, _| {});
        let s1 = b.timeline().snapshot();
        assert_eq!(s1.launches, 1);
        assert!(s1.modeled_ns > 0);
        let _: f64 = b.parallel_reduce(n, &KernelProfile::dot(), |_, _, _| 1.0, Sum);
        let s2 = b.timeline().snapshot();
        assert_eq!(s2.reductions, 1);
        assert!(s2.modeled_ns > s1.modeled_ns);
    }

    #[test]
    fn identity_and_key() {
        let b = SerialBackend::new();
        assert_eq!(b.key(), "serial");
        assert!(!b.is_accelerator());
        assert!(b.name().contains("Serial"));
        assert!(b.on_alloc(1024, true).unwrap().is_none());
    }
}
