//! # racc-threadpool
//!
//! A from-scratch persistent worker pool providing the execution substrate
//! RACC's CPU backend runs on — the analog of Julia's `Base.Threads`
//! (pthreads on top of LLVM) in the JACC paper.
//!
//! Design points, mirroring what the paper describes for `Base.Threads`:
//!
//! * **Coarse-grain decomposition**: an index space is split into chunks, one
//!   or more per participant, instead of the one-thread-per-element mapping
//!   GPUs use.
//! * **Column-wise 2D decomposition**: multidimensional arrays are
//!   column-major (Julia layout), so a 2D loop hands the pool its *column*
//!   axis ([`ThreadPool::parallel_for_ranges`]) and keeps the row loop
//!   sequential inside each task — each participant streams over contiguous
//!   memory.
//! * **Synchronous semantics**: every call returns only after all
//!   participants are done (`Threads.@sync Threads.@threads`).
//!
//! The pool spawns `P - 1` workers and lets the calling thread participate as
//! the `P`-th, so a `P`-thread pool really uses `P` cores with no idle
//! caller. Closures may borrow stack data: calls block until all workers have
//! finished running the closure, which makes the internal lifetime erasure
//! sound.
//!
//! Dispatch is **work-stealing**: launches are lowered to tiles, executors
//! split task ranges in half onto per-participant Chase–Lev deques (LIFO for
//! the owner, FIFO for thieves) with a bounded global injector as overflow,
//! and idle workers are woken lazily one at a time (see `pool.rs` module
//! docs). `Schedule::Dynamic { chunk }` sets the tile grain (`chunk: 0`
//! picks `n / (8 P)`, see [`Schedule::dynamic_chunk`]); reductions stay
//! bit-reproducible under stealing because every tile folds into its own
//! slot and slots combine in tile order. Steal telemetry is available via
//! [`ThreadPool::steal_stats`].
//!
//! ```
//! use racc_threadpool::{Schedule, ThreadPool};
//!
//! let pool = ThreadPool::new(4);
//! let mut data = vec![0u64; 1000];
//! pool.parallel_for_slices(&mut data, |offset, chunk| {
//!     for (i, x) in chunk.iter_mut().enumerate() {
//!         *x = (offset + i) as u64;
//!     }
//! });
//! let total = pool.parallel_reduce(1000, Schedule::default(), 0u64, |i| i as u64, |a, b| a + b);
//! assert_eq!(total, 1000 * 999 / 2);
//! ```

mod latch;
mod pool;
mod reduce;
mod schedule;
pub mod scratch;
mod steal;

pub use latch::CountLatch;
pub use pool::{PoolError, ThreadPool};
pub use reduce::ordered_tiled_fold;
pub use schedule::{chunk_count, chunks, Schedule};
pub use scratch::RawScratch;
pub use steal::{StealCounters, StealStats};
