//! Launch configuration, validation, and the per-thread context handed to
//! kernel bodies.

use std::ops::Range;

use crate::dim::Dim3;
use crate::error::SimError;
use crate::spec::DeviceSpec;

/// Grid/block shape of a kernel launch plus its dynamic shared-memory size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of blocks along each grid dimension.
    pub grid: Dim3,
    /// Number of threads along each block dimension.
    pub block: Dim3,
    /// Dynamic shared memory bytes per block.
    pub shared_mem_bytes: usize,
}

/// Blocks of `tile` threads that cover `extent` indices along one axis (at
/// least one: an empty axis still launches its guard block), **saturating**
/// at `u32::MAX` — the mark [`LaunchConfig::validate`] rejects. An `as u32`
/// here wrapped: `linear(1 << 40, 64)` became a small valid grid covering a
/// fraction of the index space.
fn blocks_to_cover(extent: usize, tile: u32) -> u32 {
    u32::try_from(extent.div_ceil(tile as usize).max(1)).unwrap_or(u32::MAX)
}

impl LaunchConfig {
    /// A 1D launch with explicit grid and block extents.
    pub fn new(grid: impl Into<Dim3>, block: impl Into<Dim3>) -> Self {
        LaunchConfig {
            grid: grid.into(),
            block: block.into(),
            shared_mem_bytes: 0,
        }
    }

    /// The canonical 1D covering launch: `ceil(n / block)` blocks of
    /// `block` threads — how the paper's `parallel_for` picks its shape.
    pub fn linear(n: usize, block: u32) -> Self {
        let block = block.max(1);
        LaunchConfig::new(Dim3::x(blocks_to_cover(n, block)), Dim3::x(block))
    }

    /// The canonical 2D covering launch with `bx × by` thread tiles, as the
    /// paper's multidimensional `parallel_for` does with 16×16 tiles.
    pub fn tiled_2d(m: usize, n: usize, bx: u32, by: u32) -> Self {
        let (bx, by) = (bx.max(1), by.max(1));
        LaunchConfig::new(
            Dim3::xy(blocks_to_cover(m, bx), blocks_to_cover(n, by)),
            Dim3::xy(bx, by),
        )
    }

    /// The canonical 3D covering launch.
    pub fn tiled_3d(m: usize, n: usize, l: usize, bx: u32, by: u32, bz: u32) -> Self {
        let (bx, by, bz) = (bx.max(1), by.max(1), bz.max(1));
        LaunchConfig::new(
            Dim3::xyz(
                blocks_to_cover(m, bx),
                blocks_to_cover(n, by),
                blocks_to_cover(l, bz),
            ),
            Dim3::xyz(bx, by, bz),
        )
    }

    /// Attach a dynamic shared-memory request.
    pub fn with_shared_mem(mut self, bytes: usize) -> Self {
        self.shared_mem_bytes = bytes;
        self
    }

    /// Total number of simulated threads.
    pub fn total_threads(&self) -> usize {
        self.grid.count() * self.block.count()
    }

    /// Validate against a device's limits.
    pub fn validate(&self, spec: &DeviceSpec) -> Result<(), SimError> {
        let fail = |reason: String| SimError::InvalidLaunch {
            reason,
            grid: self.grid,
            block: self.block,
        };
        if self.grid.is_degenerate() {
            return Err(fail("grid has a zero dimension".into()));
        }
        if self.block.is_degenerate() {
            return Err(fail("block has a zero dimension".into()));
        }
        // `u32::MAX` blocks along an axis is where the covering
        // constructors saturate, never a grid they computed exactly.
        if [self.grid.x, self.grid.y, self.grid.z].contains(&u32::MAX) {
            return Err(fail(
                "grid does not cover the index space: an axis needs more than u32::MAX - 1 blocks"
                    .into(),
            ));
        }
        if self.block.count() > spec.max_threads_per_block as usize {
            return Err(fail(format!(
                "block of {} threads exceeds limit {}",
                self.block.count(),
                spec.max_threads_per_block
            )));
        }
        if self.block.x > spec.max_block_dim_x {
            return Err(fail(format!(
                "block.x {} exceeds limit {}",
                self.block.x, spec.max_block_dim_x
            )));
        }
        if self.block.y > spec.max_block_dim_y {
            return Err(fail(format!(
                "block.y {} exceeds limit {}",
                self.block.y, spec.max_block_dim_y
            )));
        }
        if self.block.z > spec.max_block_dim_z {
            return Err(fail(format!(
                "block.z {} exceeds limit {}",
                self.block.z, spec.max_block_dim_z
            )));
        }
        if self.shared_mem_bytes > spec.shared_mem_per_block {
            return Err(fail(format!(
                "shared memory request {} B exceeds limit {} B",
                self.shared_mem_bytes, spec.shared_mem_per_block
            )));
        }
        Ok(())
    }
}

/// Identity of one block inside a launch: everything a [`ThreadCtx`] carries
/// except the thread. [`PhasedKernel::run_phase`] receives this once per
/// phase instead of one `ThreadCtx` per simulated thread.
///
/// [`PhasedKernel::run_phase`]: crate::PhasedKernel::run_phase
#[derive(Debug, Clone, Copy)]
pub struct BlockCtx {
    /// This block's coordinates within the grid.
    pub block_idx: (u32, u32, u32),
    /// Block extents.
    pub block_dim: Dim3,
    /// Grid extents.
    pub grid_dim: Dim3,
}

impl BlockCtx {
    /// The context of this block's thread `thread_idx`.
    #[inline]
    pub fn thread(&self, thread_idx: (u32, u32, u32)) -> ThreadCtx {
        ThreadCtx {
            block_idx: self.block_idx,
            thread_idx,
            block_dim: self.block_dim,
            grid_dim: self.grid_dim,
        }
    }

    /// Global `(x, y, z)` index of the block's thread `(0, 0, 0)`:
    /// `block_idx * block_dim` per axis.
    #[inline]
    pub fn origin(&self) -> (usize, usize, usize) {
        (
            self.block_idx.0 as usize * self.block_dim.x as usize,
            self.block_idx.1 as usize * self.block_dim.y as usize,
            self.block_idx.2 as usize * self.block_dim.z as usize,
        )
    }

    /// Linear block index within the grid (x fastest).
    #[inline]
    pub fn block_linear(&self) -> usize {
        (self.block_idx.2 as usize * self.grid_dim.y as usize + self.block_idx.1 as usize)
            * self.grid_dim.x as usize
            + self.block_idx.0 as usize
    }

    /// The block `b` places to the right of this one in its row of the
    /// grid (same `y` and `z`): the `b`-th block of a band that starts here
    /// ([`PhasedKernel::run_band`](crate::PhasedKernel::run_band)).
    #[inline]
    pub fn along_x(&self, b: usize) -> BlockCtx {
        BlockCtx {
            block_idx: (
                self.block_idx.0 + b as u32,
                self.block_idx.1,
                self.block_idx.2,
            ),
            ..*self
        }
    }

    /// Walk the threads `threads` of the block (a range of
    /// [`ThreadCtx::thread_linear`] indices, clamped to the block) row by
    /// row: `f(xs, ty, tz)` is called in linear order for every run of
    /// consecutive `x` at one `(y, z)`. A range covering the block takes
    /// plain nested counters: whole-block phases are the common case, and
    /// the general walk pays a division per row (the counter-based prefix
    /// walk before it cost a trivial kernel body 5–15% per thread, measured
    /// on the empty and AXPY launches).
    #[inline]
    pub fn for_each_row(&self, threads: Range<usize>, mut f: impl FnMut(Range<u32>, u32, u32)) {
        let d = self.block_dim;
        if threads.start == 0 && threads.end >= d.count() {
            for tz in 0..d.z {
                for ty in 0..d.y {
                    f(0..d.x, ty, tz);
                }
            }
            return;
        }
        let (x, y) = (d.x as usize, d.y as usize);
        let end = threads.end.min(d.count());
        let mut t = threads.start;
        while t < end {
            // `row` counts rows in linear order: `tz * y + ty`.
            let row = t / x;
            let first = row * x;
            let xs = (t - first) as u32..(end - first).min(x) as u32;
            f(xs, (row % y) as u32, (row / y) as u32);
            t = first + x;
        }
    }

    /// Call `f` with the [`ThreadCtx`] of each of the threads `threads`, in
    /// linear order (`x` fastest, matching `Dim3::unflatten`).
    #[inline]
    pub fn for_each_thread(&self, threads: Range<usize>, mut f: impl FnMut(&ThreadCtx)) {
        self.for_each_row(threads, |xs, ty, tz| {
            for tx in xs {
                f(&self.thread((tx, ty, tz)));
            }
        });
    }
}

/// Identity of one simulated thread inside a launch: its block and thread
/// coordinates plus the launch shape. All coordinates are **0-based**
/// (CUDA-style; the Julia front end in the paper is 1-based).
#[derive(Debug, Clone, Copy)]
pub struct ThreadCtx {
    /// This thread's block coordinates within the grid.
    pub block_idx: (u32, u32, u32),
    /// This thread's coordinates within its block.
    pub thread_idx: (u32, u32, u32),
    /// Block extents.
    pub block_dim: Dim3,
    /// Grid extents.
    pub grid_dim: Dim3,
}

impl ThreadCtx {
    /// Global x index: `block_idx.x * block_dim.x + thread_idx.x`.
    #[inline]
    pub fn global_id_x(&self) -> usize {
        self.block_idx.0 as usize * self.block_dim.x as usize + self.thread_idx.0 as usize
    }

    /// Global y index.
    #[inline]
    pub fn global_id_y(&self) -> usize {
        self.block_idx.1 as usize * self.block_dim.y as usize + self.thread_idx.1 as usize
    }

    /// Global z index.
    #[inline]
    pub fn global_id_z(&self) -> usize {
        self.block_idx.2 as usize * self.block_dim.z as usize + self.thread_idx.2 as usize
    }

    /// Linear thread index within the block (x fastest).
    #[inline]
    pub fn thread_linear(&self) -> usize {
        (self.thread_idx.2 as usize * self.block_dim.y as usize + self.thread_idx.1 as usize)
            * self.block_dim.x as usize
            + self.thread_idx.0 as usize
    }

    /// The block this thread belongs to.
    #[inline]
    pub fn block(&self) -> BlockCtx {
        BlockCtx {
            block_idx: self.block_idx,
            block_dim: self.block_dim,
            grid_dim: self.grid_dim,
        }
    }

    /// Linear block index within the grid (x fastest).
    #[inline]
    pub fn block_linear(&self) -> usize {
        self.block().block_linear()
    }

    /// Globally unique linear thread id across the launch.
    #[inline]
    pub fn global_linear(&self) -> usize {
        self.block_linear() * self.block_dim.count() + self.thread_linear()
    }

    /// Total threads in the launch.
    #[inline]
    pub fn total_threads(&self) -> usize {
        self.grid_dim.count() * self.block_dim.count()
    }

    /// Declare arrival at the block-wide barrier that ends the current
    /// phase (`__syncthreads()`).
    ///
    /// In the simulator's phased execution model the barrier itself is
    /// implicit — every thread of a block finishes phase `p` before any
    /// starts `p + 1` — so functionally this is a no-op. Under the
    /// sanitizer ([`crate::Device::set_sanitizer`]) it feeds
    /// barrier-divergence detection: if only a subset of a block's threads
    /// calls `barrier()` within a phase (e.g. a `__syncthreads` inside a
    /// divergent branch), the launch panics naming the block, phase, and
    /// first missing thread.
    #[inline]
    pub fn barrier(&self) {
        crate::sanitizer::barrier_arrive(self.thread_linear());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn linear_config_covers_n() {
        let cfg = LaunchConfig::linear(1000, 256);
        assert_eq!(cfg.grid, Dim3::x(4));
        assert_eq!(cfg.block, Dim3::x(256));
        assert!(cfg.total_threads() >= 1000);
        // exact multiple
        let cfg = LaunchConfig::linear(1024, 256);
        assert_eq!(cfg.grid, Dim3::x(4));
        // tiny n still launches one block
        let cfg = LaunchConfig::linear(1, 256);
        assert_eq!(cfg.grid, Dim3::x(1));
        // zero-size n launches one (empty-guard) block
        let cfg = LaunchConfig::linear(0, 256);
        assert_eq!(cfg.grid, Dim3::x(1));
    }

    #[test]
    fn tiled_2d_covers_plane() {
        let cfg = LaunchConfig::tiled_2d(100, 60, 16, 16);
        assert_eq!(cfg.grid, Dim3::xy(7, 4));
        assert_eq!(cfg.block, Dim3::xy(16, 16));
        assert!(cfg.grid.x as usize * 16 >= 100);
        assert!(cfg.grid.y as usize * 16 >= 60);
    }

    #[test]
    fn tiled_3d_covers_volume() {
        let cfg = LaunchConfig::tiled_3d(10, 10, 10, 4, 4, 4);
        assert_eq!(cfg.grid, Dim3::xyz(3, 3, 3));
    }

    #[test]
    fn validation_enforces_limits() {
        let spec = profiles::test_device(); // max 64 threads/block, 4 KiB shmem
        assert!(LaunchConfig::new(1u32, 64u32).validate(&spec).is_ok());
        assert!(LaunchConfig::new(1u32, 65u32).validate(&spec).is_err());
        assert!(LaunchConfig::new(1u32, (8u32, 9u32))
            .validate(&spec)
            .is_err());
        assert!(LaunchConfig::new(0u32, 1u32).validate(&spec).is_err());
        assert!(LaunchConfig::new(1u32, (1u32, 1u32, 0u32))
            .validate(&spec)
            .is_err());
        assert!(LaunchConfig::new(1u32, 32u32)
            .with_shared_mem(4096)
            .validate(&spec)
            .is_ok());
        assert!(LaunchConfig::new(1u32, 32u32)
            .with_shared_mem(4097)
            .validate(&spec)
            .is_err());
        // block.z limit is 8 on the test device
        assert!(LaunchConfig::new(1u32, (1u32, 1u32, 9u32))
            .validate(&spec)
            .is_err());
    }

    #[test]
    fn an_extent_beyond_the_grid_saturates_and_is_rejected_not_wrapped() {
        let spec = profiles::test_device();
        let max = u32::MAX as usize;
        // `(1 << 40) / 64` is `1 << 34` blocks: an `as u32` made it 0 -> 1.
        let cfg = LaunchConfig::linear(1 << 40, 64);
        assert_eq!(cfg.grid, Dim3::x(u32::MAX));
        let err = cfg.validate(&spec).unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidLaunch { reason, .. }
                if reason.starts_with("grid does not cover")),
            "{err}"
        );
        // Each axis of each constructor, and the axis only.
        let wide = LaunchConfig::tiled_2d(max * 8 + 1, 60, 8, 8);
        assert_eq!(wide.grid, Dim3::xy(u32::MAX, 8));
        assert!(wide.validate(&spec).is_err());
        let tall = LaunchConfig::tiled_2d(60, max * 8 + 1, 8, 8);
        assert_eq!(tall.grid, Dim3::xy(8, u32::MAX));
        assert!(tall.validate(&spec).is_err());
        let deep = LaunchConfig::tiled_3d(4, 4, usize::MAX, 4, 4, 4);
        assert_eq!(deep.grid, Dim3::xyz(1, 1, u32::MAX));
        assert!(deep.validate(&spec).is_err());
        // The largest grid that is exact still passes: one block fewer
        // than the mark.
        let exact = LaunchConfig::linear((max - 1) * 64, 64);
        assert_eq!(exact.grid, Dim3::x(u32::MAX - 1));
        assert!(exact.validate(&spec).is_ok());
        // ... and one more element is one more block: the mark.
        assert!(LaunchConfig::linear((max - 1) * 64 + 1, 64)
            .validate(&spec)
            .is_err());
    }

    #[test]
    fn block_ctx_walks_any_thread_range_in_linear_order() {
        for block_dim in [
            Dim3::x(7),
            Dim3::xy(4, 3),
            Dim3::xyz(3, 2, 4),
            Dim3::xyz(1, 5, 2),
        ] {
            let block = BlockCtx {
                block_idx: (2, 1, 0),
                block_dim,
                grid_dim: Dim3::xy(3, 2),
            };
            let count = block_dim.count();
            // Every sub-range, the empty ones and one that overshoots the
            // block included.
            for start in 0..=count {
                for end in start..=count + 1 {
                    let mut seen = Vec::new();
                    block.for_each_thread(start..end, |ctx| {
                        assert_eq!(ctx.thread_idx, block_dim.unflatten(ctx.thread_linear()));
                        assert_eq!(ctx.block_idx, (2, 1, 0));
                        seen.push(ctx.thread_linear());
                    });
                    let want: Vec<usize> = (start..end.min(count)).collect();
                    assert_eq!(seen, want, "{block_dim} {start}..{end}");
                }
            }
        }
    }

    #[test]
    fn block_ctx_matches_its_threads() {
        let ctx = ThreadCtx {
            block_idx: (1, 2, 3),
            thread_idx: (3, 1, 0),
            block_dim: Dim3::xyz(4, 2, 2),
            grid_dim: Dim3::xyz(3, 4, 5),
        };
        let block = ctx.block();
        assert_eq!(block.origin(), (4, 4, 6));
        assert_eq!(block.block_linear(), (3 * 4 + 2) * 3 + 1);
        let right = block.along_x(1);
        assert_eq!(right.block_idx, (2, 2, 3));
        assert_eq!(right.origin(), (8, 4, 6));
        assert_eq!(right.block_linear(), block.block_linear() + 1);
        let again = block.thread(ctx.thread_idx);
        assert_eq!(again.global_linear(), ctx.global_linear());
        assert_eq!(
            (
                again.global_id_x(),
                again.global_id_y(),
                again.global_id_z()
            ),
            (7, 5, 6)
        );
    }

    #[test]
    fn thread_ctx_linearization() {
        let ctx = ThreadCtx {
            block_idx: (1, 2, 0),
            thread_idx: (3, 1, 0),
            block_dim: Dim3::xy(4, 2),
            grid_dim: Dim3::xy(3, 4),
        };
        assert_eq!(ctx.global_id_x(), 7);
        assert_eq!(ctx.global_id_y(), 5);
        assert_eq!(ctx.global_id_z(), 0);
        assert_eq!(ctx.thread_linear(), 7);
        assert_eq!(ctx.block_linear(), 7);
        assert_eq!(ctx.global_linear(), 7 * 8 + 7);
        assert_eq!(ctx.total_threads(), 3 * 4 * 8);
    }
}
