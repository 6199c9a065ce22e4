//! What the two CPU back ends share: the machine model, the modeled clock,
//! and the bracket every construct runs inside — racecheck bookkeeping and
//! the wall-clock start before the loop; the model's charge and the trace
//! span after it.
//!
//! The bracket is two straight-line calls around the loop, not a closure
//! wrapped round it: wrapping the hot loop in an immediately-invoked
//! closure measurably blocks loop optimization.
//!
//! It is public for a library that gives the CPU back ends a construct of
//! its own — several pool launches charged and traced as one: [`Host::open`],
//! [`tag`] per iteration, [`Host::close_launch`].

use crate::backend::{DeviceToken, Extent};
use crate::cpumodel::CpuSpec;
use crate::error::RaccError;
use crate::profile::KernelProfile;
use crate::racecheck;
use crate::timeline::Timeline;

/// The CPU a back end models and the clock it charges.
pub struct Host {
    pub(crate) key: &'static str,
    /// Participants a construct is spread over; only spans report it.
    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    workers: usize,
    pub(crate) cpu: CpuSpec,
    pub(crate) timeline: Timeline,
}

/// A construct in flight, from [`Host::open`] to its close. Zero-sized
/// without the `trace` feature.
pub struct Open {
    #[cfg(feature = "trace")]
    started: Option<std::time::Instant>,
}

/// Tell the `racecheck` feature's checker which logical iteration the
/// calling thread is about to run; nothing without the feature. Called
/// before every body invocation inside an open bracket.
#[inline(always)]
pub fn tag(iter: u64) {
    racecheck::set_current_iteration(iter);
}

/// What ran inside the bracket: decides the model's formula, the timeline
/// counter and the span.
#[derive(Clone, Copy)]
pub(crate) enum Construct {
    For(Extent),
    Reduce(Extent),
    /// Not one of the two constructs: charged as a launch over `visits`
    /// element visits, reported with `dims`.
    Launch {
        visits: usize,
        dims: [usize; 3],
        #[cfg(feature = "trace")]
        kind: racc_trace::ConstructKind,
    },
}

impl Host {
    pub(crate) fn new(key: &'static str, workers: usize, cpu: CpuSpec) -> Self {
        Host {
            key,
            workers,
            cpu,
            timeline: Timeline::new(),
        }
    }

    /// Racecheck bookkeeping and, when tracing, the wall-clock start.
    #[inline]
    pub fn open(&self) -> Open {
        let open = Open {
            #[cfg(feature = "trace")]
            started: self.timeline.trace_start(),
        };
        racecheck::begin_launch();
        open
    }

    /// Close a construct that is neither `parallel_for` nor
    /// `parallel_reduce`: the model charges one launch over `visits`
    /// element visits, and the span — a 1D `parallel_for` one unless
    /// [`Host::close_launch_as`] names its kind — reports `dims`.
    #[inline]
    pub fn close_launch(
        &self,
        open: Open,
        visits: usize,
        dims: [usize; 3],
        profile: &KernelProfile,
    ) {
        let what = Construct::Launch {
            visits,
            dims,
            #[cfg(feature = "trace")]
            kind: racc_trace::ConstructKind::For1d,
        };
        self.close(open, what, profile);
    }

    /// [`Host::close_launch`] with the span reported as `kind`.
    #[cfg(feature = "trace")]
    #[inline]
    pub fn close_launch_as(
        &self,
        open: Open,
        kind: racc_trace::ConstructKind,
        visits: usize,
        dims: [usize; 3],
        profile: &KernelProfile,
    ) {
        self.close(open, Construct::Launch { visits, dims, kind }, profile);
    }

    #[inline]
    #[cfg_attr(not(feature = "trace"), allow(unused_variables))]
    pub(crate) fn close(&self, open: Open, what: Construct, profile: &KernelProfile) {
        racecheck::end_launch();
        let (visits, dims) = match what {
            Construct::For(extent) | Construct::Reduce(extent) => (extent.len(), extent.dims()),
            Construct::Launch { visits, dims, .. } => (visits, dims),
        };
        let ns = if let Construct::Reduce(_) = what {
            let ns = self.cpu.reduce_time_ns(visits, profile);
            self.timeline.charge_reduction(ns);
            ns
        } else {
            let ns = self.cpu.kernel_time_ns(visits, profile);
            self.timeline.charge_launch(ns);
            ns
        };
        // One span per construct: the charge quantized as the timeline
        // quantized it, and the measured wall-clock duration.
        #[cfg(feature = "trace")]
        self.timeline.record_span(|| {
            use racc_trace::ConstructKind;
            let kind = match what {
                // Fused launches keep the construct's execution path but
                // land on the dedicated `fused` trace lane (see `racc-fuse`).
                _ if profile.fused => ConstructKind::Fused,
                Construct::For(extent) => ConstructKind::for_rank(extent.rank()),
                Construct::Reduce(extent) => ConstructKind::reduce_rank(extent.rank()),
                Construct::Launch { kind, .. } => kind,
            };
            let dims = dims.map(|d| d as u64);
            let (workers, iters) = (self.workers as u64, dims.iter().product::<u64>());
            racc_trace::Span::new(self.key, kind, profile.name)
                .dims(dims[0], dims[1], dims[2])
                .geometry(workers, iters.div_ceil(workers.max(1)))
                .profile(profile.flops_per_iter, profile.bytes_per_iter())
                .modeled(Timeline::quantize(ns))
                .real_since(open.started)
        });
    }

    /// Host memory is the array's storage (the paper: "when using
    /// Base.Threads as the back end, using JACC.Array is not necessary"):
    /// no transfer, no token, one `Alloc` span.
    #[cfg_attr(not(feature = "trace"), allow(unused_variables))]
    pub(crate) fn on_alloc(&self, bytes: usize) -> Result<DeviceToken, RaccError> {
        #[cfg(feature = "trace")]
        self.timeline.record_span(|| {
            racc_trace::Span::new(self.key, racc_trace::ConstructKind::Alloc, "alloc")
                .dims(0, 0, 0)
                .payload(bytes as u64)
        });
        Ok(None)
    }
}
