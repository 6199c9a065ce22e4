//! # racc-shard — sharded multi-device execution
//!
//! Splits the outermost axis of a RACC iteration space across N simulated
//! devices (one [`racc_comm`] rank + one [`racc_core::Context`] each),
//! exchanges stencil halos through Result-typed messages, overlaps the
//! exchange with interior compute on the modeled clock, and survives rank
//! death under `racc-chaos` injection by resharding over the survivors and
//! replaying from a replicated checkpoint — bit-identically to the
//! fault-free run.
//!
//! The two layers:
//!
//! - [`plan`]: pure geometry — near-equal contiguous block decomposition,
//!   neighbor/ghost bookkeeping, the radius clamp ([`ShardPlan::max_count`]).
//! - [`runner`]: the step driver — the post/interior/recv/boundary phase
//!   protocol, lockstep status exchange doubling as a failure detector,
//!   replicated checkpoints, reshard-and-replay recovery, overlap-accounted
//!   shard clocks, and `ConstructKind::{Shard, Halo}` trace lanes.
//!
//! Applications implement [`ShardApp`] (see `racc-stencil`'s sharded
//! heat3d, `racc-lbm`'s sharded streaming, `racc-cg`'s pipelined CG) and
//! call [`run_sharded`].

pub mod plan;
pub mod runner;

pub use plan::{Shard, ShardPlan, Topology};
pub use runner::{
    run_sharded, RankReport, ShardApp, ShardError, ShardHandle, ShardOptions, ShardOutcome,
    ShardStats,
};
