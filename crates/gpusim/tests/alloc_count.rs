//! Counting-allocator proof of the executor's zero-allocation claim: once
//! arenas and the op log are warm, `execute_grid` performs **zero** heap
//! allocations per launch — fast path and cooperative path, per-thread and
//! block-granular kernels alike — so the allocation count cannot scale with
//! the block count either.
//!
//! Every device here — the portable context's too — runs on a pool of one
//! participant: the block loop then runs inline on the caller (no
//! cross-thread job hand-off), which makes the zero-allocation assertion
//! exact. Wider pools add only the pool's own messaging, never per-block
//! allocations — but that messaging does allocate: a wake-up of a parked
//! worker is a send on a list channel, which allocates a block every 31
//! sends. The context's device used to run on the default pool, and on a
//! loaded box (workers parked between launches) that block landed in a
//! measured window about one run in 25.
//!
//! The allocator is process-global and the test is not alone in the
//! process either: libtest's harness thread allocates too (its slow-test
//! timer fires exactly when the box is loaded). So the counter only counts
//! on a thread that has armed it ([`counted`]) — the test thread, for the
//! length of one window — and the assertions stay exact: no retry, no
//! tolerance.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use racc_gpusim::perf::OpKind;
use racc_gpusim::{
    profiles, BlockCtx, Device, DeviceSlice, DeviceSliceMut, KernelCost, LaunchConfig,
    PhasedKernel, SharedMem, ThreadCtx, TreeShape, TreeStep,
};
use racc_threadpool::ThreadPool;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations count. `const`-initialized and
    /// without a destructor, so reading it never allocates and works at any
    /// point of a thread's life — both required inside an allocator.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls this thread makes while `f` runs.
fn counted(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    ARMED.set(true);
    f();
    ARMED.set(false);
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

/// Cooperative tree-sum kernel (shared memory + multi phase, declaring the
/// tree's active prefix): the arena path with prefix-limited phases.
struct TreeSum {
    n: usize,
    tree: TreeShape,
    x: DeviceSlice<f64>,
    out: DeviceSliceMut<f64>,
}

/// [`TreeSum`] with a block-granular form beside it: the shape of the
/// portable layer's reduction kernels, whole-buffer shared-memory view
/// included.
struct BlockTreeSum(TreeSum);

impl PhasedKernel for BlockTreeSum {
    type State = ();
    fn num_phases(&self) -> usize {
        self.0.num_phases()
    }
    fn active_threads(&self, phase: usize, block_threads: usize) -> usize {
        self.0.active_threads(phase, block_threads)
    }
    fn phase(&self, phase: usize, ctx: &ThreadCtx, s: &mut (), sh: &SharedMem) {
        self.0.phase(phase, ctx, s, sh)
    }
    fn run_phase(
        &self,
        phase: usize,
        block: &BlockCtx,
        threads: Range<usize>,
        _states: &mut [()],
        sh: &SharedMem,
    ) {
        let s = sh.cells::<f64>();
        let k = &self.0;
        match k.tree.step(phase) {
            TreeStep::Map => {
                let base = block.origin().0;
                for t in threads {
                    let i = base + t;
                    s[t].set(if i < k.n { k.x.get(i) } else { 0.0 });
                }
            }
            TreeStep::Combine { half } => {
                for t in threads.start..threads.end.min(half) {
                    s[t].set(s[t].get() + s[t + half].get());
                }
            }
            TreeStep::WriteBack => {
                if threads.contains(&0) {
                    k.out.set(block.block_linear(), s[0].get());
                }
            }
        }
    }
}

impl PhasedKernel for TreeSum {
    type State = ();
    fn num_phases(&self) -> usize {
        self.tree.num_phases()
    }
    fn active_threads(&self, phase: usize, _block_threads: usize) -> usize {
        self.tree.active_threads(phase)
    }
    fn phase(&self, phase: usize, ctx: &ThreadCtx, _s: &mut (), sh: &SharedMem) {
        let ti = ctx.thread_linear();
        match self.tree.step(phase) {
            TreeStep::Map => {
                let i = ctx.global_id_x();
                sh.set::<f64>(ti, if i < self.n { self.x.get(i) } else { 0.0 });
            }
            TreeStep::Combine { half } => {
                if ti < half {
                    sh.set::<f64>(ti, sh.get::<f64>(ti) + sh.get::<f64>(ti + half));
                }
            }
            TreeStep::WriteBack => {
                if ti == 0 {
                    self.out.set(ctx.block_linear(), sh.get::<f64>(0));
                }
            }
        }
    }
}

// One #[test]: the allocator is swapped for the whole process.
#[test]
fn execute_grid_steady_state_is_allocation_free() {
    // The chaos-OFF, sanitizer-OFF guarantee (armed chaos appends to the
    // fault log, which allocates): a new device has both off.
    let dev = Device::with_pool(profiles::test_device(), Arc::new(ThreadPool::new(1)));
    let n = 4096 * 64;
    let x = dev.alloc_from(&vec![1.0f64; n]).unwrap();
    let out = dev.alloc::<f64>(n).unwrap();
    let partials = dev.alloc::<f64>(4096).unwrap();
    let block_partials = dev.alloc::<f64>(4096).unwrap();
    let (xv, outv) = (dev.slice(&x).unwrap(), dev.slice_mut(&out).unwrap());

    // Fill the op log to its retention cap so `charge` runs in ring mode
    // (pop + push, no growth), the launch steady state.
    for _ in 0..5000 {
        dev.charge(OpKind::Kernel, 0, 0, 0.0);
    }

    let fast_cfg = |blocks: u32| LaunchConfig::new(blocks, 64u32);
    let run_fast = |blocks: u32| {
        dev.launch(fast_cfg(blocks), KernelCost::default(), |t| {
            let i = t.global_linear();
            outv.set(i, xv.get(i) + 1.0);
        })
        .unwrap();
    };
    let coop_cfg = LaunchConfig::new(4096u32, 64u32).with_shared_mem(64 * 8);
    let tree_sum = |out: &racc_gpusim::DeviceBuffer<f64>| TreeSum {
        n,
        tree: TreeShape::new(64),
        x: dev.slice(&x).unwrap(),
        out: dev.slice_mut(out).unwrap(),
    };
    let coop = tree_sum(&partials);
    let run_coop = || {
        dev.launch_phased(coop_cfg, KernelCost::default(), &coop)
            .unwrap();
    };
    let block_coop = BlockTreeSum(tree_sum(&block_partials));
    let run_block_coop = || {
        dev.launch_phased(coop_cfg, KernelCost::default(), &block_coop)
            .unwrap();
    };

    // Warm-up: grows the worker arena (shared-mem capacity, state scratch)
    // once; everything after must be allocation-free.
    run_fast(64);
    run_fast(4096);
    run_coop();
    run_block_coop();

    // Fast path, small grid.
    let small = counted(|| (0..4).for_each(|_| run_fast(64)));
    assert_eq!(small, 0, "fast path (64 blocks) must not allocate");

    // Fast path, 64x the blocks: still zero, so per-block cost is exactly 0
    // allocations (the pre-arena executor paid ~2 per block).
    let large = counted(|| (0..4).for_each(|_| run_fast(4096)));
    assert_eq!(large, 0, "fast path (4096 blocks) must not allocate");

    // Cooperative path: shared memory re-zeroed and states re-initialized
    // per block out of the arena, still zero allocations — thread by
    // thread, and with each phase handed to the kernel's own block loop.
    let coop_allocs = counted(|| (0..4).for_each(|_| run_coop()));
    assert_eq!(coop_allocs, 0, "cooperative arena path must not allocate");
    let block_allocs = counted(|| (0..4).for_each(|_| run_block_coop()));
    assert_eq!(block_allocs, 0, "block-granular phases must not allocate");

    // Results still correct after all the reuse.
    assert_eq!(dev.read_scalar(&out, 7).unwrap(), 2.0);
    assert_eq!(dev.read_scalar(&partials, 0).unwrap(), 64.0);
    assert_eq!(
        dev.read_vec(&block_partials).unwrap(),
        dev.read_vec(&partials).unwrap()
    );

    // The portable-front-end fast path with the fusion knob off: a
    // `Context<SimBackend>` `parallel_for` — the covering kernel, in each
    // rank — must also be allocation-free in steady state. The knob is
    // consulted outside the launch path, so turning fusion machinery into
    // the tree must not cost the eager path anything.
    let a100 = Device::with_pool(profiles::nvidia_a100(), Arc::new(ThreadPool::new(1)));
    let backend = racc_backend_common::SimBackend::new(Arc::new(a100), &racc_backend_common::CUDA);
    let ctx = racc_core::Context::builder(backend).fusion(false).build();
    assert!(!ctx.fusion_enabled());
    let a = ctx.array_from(&vec![1.0f64; 4096]).unwrap();
    let a2 = ctx.array2_from(128, 32, &vec![1.0f64; 4096]).unwrap();
    let a3 = ctx.array3_from(32, 16, 8, &vec![1.0f64; 4096]).unwrap();
    let profile = racc_core::KernelProfile::axpy();
    let run_ctx = || {
        let av = a.view_mut();
        ctx.parallel_for(4096, &profile, move |i| {
            av.set(i, av.get(i) + 1.0);
        });
        let av = a2.view_mut();
        ctx.parallel_for_2d((128, 32), &profile, move |i, j| {
            av.set(i, j, av.get(i, j) + 1.0);
        });
        let av = a3.view_mut();
        ctx.parallel_for_3d((32, 16, 8), &profile, move |i, j, k| {
            av.set(i, j, k, av.get(i, j, k) + 1.0);
        });
    };
    // Warm-up (arena growth, op-log fill happened above on a different
    // device; this context owns a fresh one).
    for _ in 0..2000 {
        run_ctx();
    }
    let ctx_allocs = counted(|| (0..4).for_each(|_| run_ctx()));
    assert_eq!(
        ctx_allocs, 0,
        "Context parallel_for with fusion off must not allocate in steady state"
    );

    // A reduction is not allocation-free and is not meant to be: its two
    // kernels communicate through a partials buffer and a result cell,
    // device allocations made per call (an `Arc` and its payload each).
    // What the block-granular kernels must not do is add to that, whatever
    // the size.
    let every = a.view().get(0);
    let run_reduce = |n: usize| {
        let av = a.view();
        let sum: f64 = ctx.parallel_reduce(n, &profile, move |i| av.get(i));
        assert!(sum == n as f64 * every);
    };
    run_reduce(4096);
    for n in [1, 700, 4096] {
        let reduce_allocs = counted(|| run_reduce(n));
        assert_eq!(reduce_allocs, 4, "reduce n={n}: two device buffers");
    }

    // The compiled-plan cache-hit path: once a lazy program's plan is
    // cached, re-evaluating it must be allocation-free end to end —
    // scratch comes from the thread-local pool, ingest reuses its
    // retained buffers, the cache lookup clones an `Arc`, and the tape
    // executor keeps per-element slots on the stack. The expression is
    // pre-built (cloning it is an `Rc` bump, not an allocation) and uses
    // `store` rather than `assign` (which would mint a `Forward` node per
    // call). Map-only on purpose (see the reduction above).
    use racc_fuse::LazyExt;
    let expr = racc_fuse::load(&a) + racc_fuse::lit(1.0);
    let run_lazy = || {
        let mut l = ctx.lazy();
        l.store(&a, expr.clone());
        l.eval();
    };
    // Warm-up: first call plans, compiles, and inserts; later calls hit.
    for _ in 0..8 {
        run_lazy();
    }
    let lazy_allocs = counted(|| (0..4).for_each(|_| run_lazy()));
    assert_eq!(
        lazy_allocs, 0,
        "cached-plan re-evaluation must not allocate in steady state"
    );
}
