//! Counting-allocator proof of the executor's zero-allocation claim: once
//! arenas and the op log are warm, `execute_grid` performs **zero** heap
//! allocations per launch — fast path and cooperative path alike — so the
//! allocation count cannot scale with the block count either.
//!
//! Uses a pool of one participant: the block loop then runs inline on the
//! caller (no cross-thread job hand-off), which makes the zero-allocation
//! assertion exact. Wider pools add only the pool's per-broadcast messaging,
//! never per-block allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use racc_gpusim::perf::OpKind;
use racc_gpusim::{
    profiles, Device, DeviceSlice, DeviceSliceMut, KernelCost, LaunchConfig, PhasedKernel,
    SharedMem, ThreadCtx, TreeShape, TreeStep,
};
use racc_threadpool::ThreadPool;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Cooperative tree-sum kernel (shared memory + multi phase, declaring the
/// tree's active prefix): the arena path with prefix-limited phases.
struct TreeSum {
    n: usize,
    tree: TreeShape,
    x: DeviceSlice<f64>,
    out: DeviceSliceMut<f64>,
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

// One #[test] so nothing else in this process races the global counter.
#[test]
fn execute_grid_steady_state_is_allocation_free() {
    // This test asserts the chaos-OFF guarantee (armed chaos appends to the
    // fault log, which allocates); keep it meaningful even when the suite
    // runs under the CI's RACC_CHAOS soak.
    std::env::remove_var("RACC_CHAOS");
    let dev = Device::with_pool(profiles::test_device(), Arc::new(ThreadPool::new(1)));
    // This test asserts the sanitizer-OFF guarantee; keep it meaningful even
    // when the suite runs under RACC_SANITIZER=1.
    dev.set_sanitizer(false);
    let n = 4096 * 64;
    let x = dev.alloc_from(&vec![1.0f64; n]).unwrap();
    let out = dev.alloc::<f64>(n).unwrap();
    let partials = dev.alloc::<f64>(4096).unwrap();
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
    let coop = TreeSum {
        n,
        tree: TreeShape::new(64),
        x: dev.slice(&x).unwrap(),
        out: dev.slice_mut(&partials).unwrap(),
    };
    let run_coop = || {
        dev.launch_phased(coop_cfg, KernelCost::default(), &coop)
            .unwrap();
    };

    // Warm-up: grows the worker arena (shared-mem capacity, state scratch)
    // once; everything after must be allocation-free.
    run_fast(64);
    run_fast(4096);
    run_coop();

    // Fast path, small grid.
    let before = allocs();
    for _ in 0..4 {
        run_fast(64);
    }
    let small = allocs() - before;
    assert_eq!(small, 0, "fast path (64 blocks) must not allocate");

    // Fast path, 64x the blocks: still zero, so per-block cost is exactly 0
    // allocations (the pre-arena executor paid ~2 per block).
    let before = allocs();
    for _ in 0..4 {
        run_fast(4096);
    }
    let large = allocs() - before;
    assert_eq!(large, 0, "fast path (4096 blocks) must not allocate");

    // Cooperative path: shared memory re-zeroed and states re-initialized
    // per block out of the arena, still zero allocations.
    let before = allocs();
    for _ in 0..4 {
        run_coop();
    }
    let coop_allocs = allocs() - before;
    assert_eq!(coop_allocs, 0, "cooperative arena path must not allocate");

    // Results still correct after all the reuse.
    assert_eq!(dev.read_scalar(&out, 7).unwrap(), 2.0);
    assert_eq!(dev.read_scalar(&partials, 0).unwrap(), 64.0);

    // The portable-front-end fast path with the fusion knob off: a
    // `Context<SimBackend>` `parallel_for` must also be allocation-free in
    // steady state — the knob is consulted outside the launch path, so
    // turning fusion machinery into the tree must not cost the eager path
    // anything.
    let ctx = racc_core::Context::builder(racc_backend_cuda::cuda_backend())
        .sanitizer(false)
        .fusion(false)
        .build();
    assert!(!ctx.fusion_enabled());
    let a = ctx.array_from(&vec![1.0f64; 4096]).unwrap();
    let profile = racc_core::KernelProfile::axpy();
    let run_ctx = || {
        let av = a.view_mut();
        ctx.parallel_for(4096, &profile, move |i| {
            av.set(i, av.get(i) + 1.0);
        });
    };
    // Warm-up (arena growth, op-log fill happened above on a different
    // device; this context owns a fresh one).
    for _ in 0..5000 {
        run_ctx();
    }
    let before = allocs();
    for _ in 0..4 {
        run_ctx();
    }
    let ctx_allocs = allocs() - before;
    assert_eq!(
        ctx_allocs, 0,
        "Context parallel_for with fusion off must not allocate in steady state"
    );

    // The compiled-plan cache-hit path: once a lazy program's plan is
    // cached, re-evaluating it must be allocation-free end to end —
    // scratch comes from the thread-local pool, ingest reuses its
    // retained buffers, the cache lookup clones an `Arc`, and the tape
    // executor keeps per-element slots on the stack. The expression is
    // pre-built (cloning it is an `Rc` bump, not an allocation) and uses
    // `store` rather than `assign` (which would mint a `Forward` node per
    // call). Map-only on purpose: the simulator's reduction kernels
    // allocate their partials buffer per launch by design.
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
    let before = allocs();
    for _ in 0..4 {
        run_lazy();
    }
    let lazy_allocs = allocs() - before;
    assert_eq!(
        lazy_allocs, 0,
        "cached-plan re-evaluation must not allocate in steady state"
    );
}
