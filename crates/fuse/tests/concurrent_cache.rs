//! Concurrent plan-cache sharing: many threads (the serving layer's
//! tenants) evaluating same-shape lazy programs against one shared
//! context must converge on **one** compiled plan with a hit rate ≥ 0.9 —
//! the only tolerated misses are the initial compile race, which the
//! cache dedups on insert — and the steady-state hit path must stay
//! allocation-free even while every thread is hammering it at once.
//!
//! The counting allocator is process-global, which makes the assertion
//! *stronger* under concurrency: during the measured window every thread
//! is inside the hit path, so a single allocation anywhere — a key buffer
//! rebuilt, a lock guard boxed, a scratch pool miss — trips the test.
//! Barriers fence the window so no thread's warm-up (which legitimately
//! allocates its thread-local scratch) overlaps anyone's measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use racc_core::{Context, SerialBackend};
use racc_fuse::{lit, load, LazyExt};

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

const THREADS: usize = 4;
const WARM: usize = 8;
const MEASURED: usize = 16;

// One #[test] so nothing else in this process races the global counter.
#[test]
fn threads_share_one_plan_and_the_hit_path_never_allocates() {
    // This test asserts the chaos-OFF, sanitizer-OFF guarantees (each of
    // those layers allocates by design when armed; on the CPU the sanitizer
    // is the race checker, which `--features racecheck` compiles in).
    let ctx = Context::builder(SerialBackend::new())
        .sanitizer(false)
        .build();

    // Per-thread arrays with identical structure: the shape key classes
    // extents by slot and ignores buffer identity, so every thread's
    // program resolves to the same plan. Same aliasing pattern everywhere
    // (store back into the source) — aliasing is part of the key.
    let arrays: Vec<_> = (0..THREADS)
        .map(|t| {
            ctx.array_from_fn(512 + 64 * t, move |i| ((i * 7 + t) % 13) as f64 * 0.5 - 3.0)
                .unwrap()
        })
        .collect();

    let warmed = Barrier::new(THREADS);
    let fence = Barrier::new(THREADS);
    let done = Barrier::new(THREADS);

    std::thread::scope(|scope| {
        for (t, a) in arrays.iter().enumerate() {
            let ctx = &ctx;
            let (warmed, fence, done) = (&warmed, &fence, &done);
            scope.spawn(move || {
                // Expressions are `Rc`-built and thread-local; building
                // one allocates, but that happens here in the warm-up
                // phase — cloning it afterwards is an `Rc` bump, so the
                // measured loop exercises exactly key-build + cache
                // lookup + tape execution.
                let expr = load(a) + lit(1.0);
                let run = || {
                    let mut l = ctx.lazy();
                    l.store(a, expr.clone());
                    l.eval();
                };
                // Warm-up: the first evaluation per thread races the
                // others to compile and insert (the cache keeps one
                // winner); later ones grow this thread's scratch pools.
                for _ in 0..WARM {
                    run();
                }
                // Two fences before measuring: `warmed` guarantees no
                // thread still allocates warm-up scratch, `fence` is a
                // throwaway cycle so any lazy one-time cost inside the
                // barrier itself is paid outside the window.
                warmed.wait();
                fence.wait();
                let before = allocs();
                for _ in 0..MEASURED {
                    run();
                }
                let delta = allocs() - before;
                done.wait();
                assert_eq!(
                    delta, 0,
                    "thread {t}: concurrent cache-hit evaluation must not allocate"
                );
            });
        }
    });

    let pc = ctx.stats().plan_cache;
    let total = (WARM + MEASURED) as u64 * THREADS as u64;
    assert_eq!(pc.hits + pc.misses, total, "{pc:?}");
    assert_eq!(pc.entries, 1, "all threads must share one plan: {pc:?}");
    assert!(
        pc.misses <= THREADS as u64,
        "only the initial compile race may miss: {pc:?}"
    );
    let hit_rate = pc.hits as f64 / total as f64;
    assert!(hit_rate >= 0.9, "hit rate {hit_rate:.3} < 0.9: {pc:?}");

    // The shared plan still computes the right values for every tenant.
    for (t, a) in arrays.iter().enumerate() {
        let host = ctx.to_host(a).unwrap();
        let runs = (WARM + MEASURED) as f64;
        let want = ((7 + t) % 13) as f64 * 0.5 - 3.0 + runs;
        assert_eq!(host[1].to_bits(), want.to_bits(), "thread {t}");
    }
}
