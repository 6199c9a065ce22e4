//! The cooperative reduction kernels (the paper's Fig. 3, generalized over
//! element type and reduction operator).

use racc_core::{AccScalar, ReduceOp};
use racc_gpusim::{
    DeviceSlice, DeviceSliceMut, PhasedKernel, SharedMem, ThreadCtx, TreeShape, TreeStep,
};

/// Kernel 1 of the two-kernel reduction: each thread maps one index, the
/// block tree-reduces in shared memory, thread 0 writes the block partial.
pub(crate) struct BlockReduceMap<'a, T: AccScalar, F, O> {
    /// Extent of the index space.
    pub n: usize,
    /// The block's reduction tree (block size, a power of two).
    pub tree: TreeShape,
    /// The map function.
    pub f: &'a F,
    /// The reduction operator.
    pub op: O,
    /// One partial per block.
    pub partials: DeviceSliceMut<T>,
}

impl<T, F, O> PhasedKernel for BlockReduceMap<'_, T, F, O>
where
    T: AccScalar,
    F: Fn(usize) -> T + Sync,
    O: ReduceOp<T>,
{
    type State = ();

    fn num_phases(&self) -> usize {
        self.tree.num_phases()
    }

    fn active_threads(&self, phase: usize, _block_threads: usize) -> usize {
        self.tree.active_threads(phase)
    }

    fn phase(&self, phase: usize, ctx: &ThreadCtx, _state: &mut (), shared: &SharedMem) {
        let ti = ctx.thread_linear();
        match self.tree.step(phase) {
            TreeStep::Map => {
                let i = ctx.global_id_x();
                let v = if i < self.n {
                    (self.f)(i)
                } else {
                    self.op.identity()
                };
                shared.set::<T>(ti, v);
            }
            TreeStep::Combine { half } => {
                if ti < half {
                    let merged = self
                        .op
                        .combine(shared.get::<T>(ti), shared.get::<T>(ti + half));
                    shared.set::<T>(ti, merged);
                }
            }
            TreeStep::WriteBack => {
                if ti == 0 {
                    self.partials.set(ctx.block_linear(), shared.get::<T>(0));
                }
            }
        }
    }
}

/// Kernel 2: a single block strides over the partials (the paper's
/// `reduce_kernel` loop `while ii <= SIZE ... ii += 512`), tree-reduces, and
/// writes the scalar result.
pub(crate) struct FinalReduce<T: AccScalar, O> {
    /// Number of partials.
    pub len: usize,
    /// The (single) block's reduction tree (block size, a power of two).
    pub tree: TreeShape,
    /// The reduction operator.
    pub op: O,
    /// The partials from kernel 1.
    pub partials: DeviceSlice<T>,
    /// One-element output buffer.
    pub out: DeviceSliceMut<T>,
}

impl<T, O> PhasedKernel for FinalReduce<T, O>
where
    T: AccScalar,
    O: ReduceOp<T>,
{
    type State = ();

    fn num_phases(&self) -> usize {
        self.tree.num_phases()
    }

    fn active_threads(&self, phase: usize, _block_threads: usize) -> usize {
        self.tree.active_threads(phase)
    }

    fn phase(&self, phase: usize, ctx: &ThreadCtx, _state: &mut (), shared: &SharedMem) {
        let ti = ctx.thread_linear();
        match self.tree.step(phase) {
            TreeStep::Map => {
                let mut acc = self.op.identity();
                let mut ii = ti;
                while ii < self.len {
                    // Checked read: `ii < self.len <= partials.len()` holds by
                    // the loop condition, and the checked accessor is what
                    // feeds the sanitizer's read tracking when it is enabled.
                    acc = self.op.combine(acc, self.partials.get(ii));
                    ii += self.tree.block();
                }
                shared.set::<T>(ti, acc);
            }
            TreeStep::Combine { half } => {
                if ti < half {
                    let merged = self
                        .op
                        .combine(shared.get::<T>(ti), shared.get::<T>(ti + half));
                    shared.set::<T>(ti, merged);
                }
            }
            TreeStep::WriteBack => {
                if ti == 0 {
                    self.out.set(0, shared.get::<T>(0));
                }
            }
        }
    }
}
