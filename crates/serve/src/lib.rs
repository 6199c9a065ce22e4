//! # racc-serve — multi-tenant job serving over a context pool
//!
//! The serving layer turns the single-user runtime into a multi-tenant
//! service: many clients submit jobs concurrently (kernel DAGs built with
//! `ctx.lazy()`, CG solver runs, sharded app steps — anything that runs
//! against one `Context`), and a [`Server`] multiplexes them across a pool
//! of backend contexts standing in for devices and streams.
//!
//! ```
//! use racc_core::{Context, KernelProfile, SerialBackend};
//! use racc_serve::{job_fn, JobCtx, Server, ServerOptions};
//!
//! let server = Server::start(ServerOptions::default().devices(2), |_device| {
//!     Context::new(SerialBackend::new())
//! });
//! let handle = server.submit(
//!     "alice",
//!     job_fn(|job: &JobCtx<SerialBackend>| {
//!         let ctx = job.ctx();
//!         let x = ctx.array_from(&[1.0f64, 2.0, 3.0])?;
//!         job.uploaded();
//!         let xs = x.view();
//!         let s = ctx.parallel_reduce(3, &KernelProfile::dot(), move |i| xs.get(i) * 2.0);
//!         job.computed();
//!         Ok(s)
//!     }),
//! );
//! let done = handle.wait().unwrap();
//! assert_eq!(done.output, 12.0);
//! ```
//!
//! What the server gives you on top of calling contexts directly:
//!
//! * **Admission control** — a bounded submission queue per tenant and
//!   server-wide; overload sheds jobs with typed errors
//!   ([`ServeError::TenantQueueFull`], [`ServeError::Saturated`]) instead
//!   of queueing without bound.
//! * **Weighted-fair scheduling** — each tenant gets throughput in
//!   proportion to its configured weight when the pool is contended
//!   (virtual-time WFQ; see `server` module docs).
//! * **Cross-tenant batching** — small same-shape jobs (keyed by
//!   [`ServeJob::shape`]) dispatch to one device as a group, where the
//!   shape-keyed fusion plan cache means one compiled plan serves all of
//!   them.
//! * **Overlap** — each device's modeled H2D/compute/D2H pipeline overlaps
//!   neighboring jobs' transfers and kernels, the same three-engine
//!   accounting the stream/event machinery gives a single context.
//! * **Graceful degradation** — faults injected by a fault plan (or real
//!   backend errors, or panics) walk a ladder: retry per [`RetryPolicy`],
//!   then a fallback context, then fail *that job only*. The pool is never
//!   poisoned.
//!
//! Observability: [`Server::stats`] returns a [`ServerSnapshot`] (pool
//! totals plus per-tenant queue depths); each pool context's own
//! `ctx.stats().serve` carries its share of the same counters; on a traced
//! context each dispatched job records a `serve` span into the context's
//! chrome-trace lane.

mod engine;
mod error;
mod job;
mod server;

pub use error::ServeError;
pub use job::{job_fn, Completed, FnJob, JobCtx, JobHandle, JobReport, ServeJob};
pub use server::{Server, ServerOptions, ServerSnapshot, TenantConfig, TenantSnapshot};

// Re-exported so servers can be configured without a direct racc-core dep.
pub use racc_core::{RetryPolicy, ServeStats};
