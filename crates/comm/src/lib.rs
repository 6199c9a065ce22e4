//! # racc-comm
//!
//! The transport `racc-shard` runs on: SPMD ranks with typed point-to-point
//! sends, receive deadlines, a barrier and a sum allreduce — the part of the
//! `MPI.jl` programming model (the paper's §II names `MPI.jl` as how Julia
//! codes scale out) that RACC's sharded runner needs.
//!
//! Ranks are OS threads inside one process; channels replace the network.
//! Messages between a fixed (sender, receiver) pair are FIFO, and a rank
//! that dies surfaces at its peers as [`CommError::Disconnected`] rather
//! than a hang — the same substitution philosophy as the GPU simulator.
//!
//! ```
//! use racc_comm::World;
//!
//! // 4 ranks compute a distributed dot product.
//! let results = World::run(4, |comm| {
//!     let chunk: Vec<f64> = (0..100).map(|i| (comm.rank() * 100 + i) as f64).collect();
//!     let local: f64 = chunk.iter().map(|x| x * x).sum();
//!     comm.allreduce_sum(local).unwrap()
//! });
//! // Every rank got the same global sum.
//! assert!(results.windows(2).all(|w| w[0] == w[1]));
//! ```

mod collectives;
mod world;

pub use world::{CommError, Rank, World, DEFAULT_COLLECTIVE_TIMEOUT};
