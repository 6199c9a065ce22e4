//! The `PhasedKernel::active_threads` contract at the executor: plain
//! launches visit only the declared prefix of each phase (clamped to the
//! block, `0` meaning nobody), tracked launches visit every thread, skipped
//! threads' `State` slots still live and die with the block, and the
//! sanitizer catches a kernel that declares too little. And the
//! `PhasedKernel::run_phase` contract beside it: a plain launch hands each
//! phase's prefix to the kernel in one call, a tracked one never does.

use std::sync::atomic::{AtomicUsize, Ordering};

use racc_gpusim::{
    profiles, BlockCtx, Device, DeviceSliceMut, Dim3, KernelCost, LaunchConfig, PhasedKernel,
    SharedMem, ThreadCtx, TreeShape,
};

/// A plain device: neither racecheck nor the sanitizer, whatever
/// `RACC_SANITIZER` says (these tests are about the untracked executor
/// unless they switch a checker on themselves).
fn plain(spec: racc_gpusim::DeviceSpec) -> Device {
    let dev = Device::new(spec);
    dev.set_sanitizer(false);
    dev.set_racecheck(false);
    dev
}

/// [`plain`] over a pool of one participant: blocks run inline, in order,
/// for the tests that look at the order of calls.
fn plain_in_order(spec: racc_gpusim::DeviceSpec) -> Device {
    let pool = std::sync::Arc::new(racc_threadpool::ThreadPool::new(1));
    let dev = Device::with_pool(spec, pool);
    dev.set_sanitizer(false);
    dev.set_racecheck(false);
    dev
}

/// Counts `phase()` entries per phase and records the highest linear thread
/// index seen; declares whatever `declare` returns.
struct Visits<D> {
    phases: usize,
    declare: D,
    per_phase: Vec<AtomicUsize>,
    max_linear: AtomicUsize,
}

impl<D: Fn(usize, usize) -> usize + Sync> Visits<D> {
    fn new(phases: usize, declare: D) -> Self {
        Visits {
            phases,
            declare,
            per_phase: (0..phases).map(|_| AtomicUsize::new(0)).collect(),
            max_linear: AtomicUsize::new(0),
        }
    }

    fn counts(&self) -> Vec<usize> {
        self.per_phase
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

impl<D: Fn(usize, usize) -> usize + Sync> PhasedKernel for Visits<D> {
    type State = ();
    fn num_phases(&self) -> usize {
        self.phases
    }
    fn active_threads(&self, phase: usize, block_threads: usize) -> usize {
        (self.declare)(phase, block_threads)
    }
    fn phase(&self, phase: usize, ctx: &ThreadCtx, _s: &mut (), _sh: &SharedMem) {
        self.per_phase[phase].fetch_add(1, Ordering::Relaxed);
        self.max_linear
            .fetch_max(ctx.thread_linear(), Ordering::Relaxed);
    }
}

/// The arithmetic the change is sized on: a 256-thread tree has 10 phases,
/// 2 560 thread-phase slots per block, of which 256 + 255 + 1 = 512 can do
/// anything.
#[test]
fn tree_declaration_visits_512_of_2560_per_block() {
    let tree = TreeShape::new(256);
    let blocks = 3u32;
    let cfg = LaunchConfig::new(blocks, 256u32).with_shared_mem(256 * 8);
    let kernel = Visits::new(tree.num_phases(), |p, _| tree.active_threads(p));

    let dev = plain(profiles::nvidia_a100());
    dev.launch_phased(cfg, KernelCost::default(), &kernel)
        .unwrap();
    let counts = kernel.counts();
    assert_eq!(counts.len(), 10);
    let expect: Vec<usize> = [256, 128, 64, 32, 16, 8, 4, 2, 1, 1]
        .iter()
        .map(|k| k * blocks as usize)
        .collect();
    assert_eq!(counts, expect);
    assert_eq!(counts.iter().sum::<usize>(), 512 * blocks as usize);

    // The reference executor ignores the declaration: it is the oracle.
    let oracle = Visits::new(tree.num_phases(), |p, _| tree.active_threads(p));
    dev.execute_grid_reference(cfg, &oracle);
    assert_eq!(oracle.counts(), vec![256 * blocks as usize; 10]);
}

#[test]
fn tracked_launches_visit_every_thread_of_every_phase() {
    let tree = TreeShape::new(64);
    let cfg = LaunchConfig::new(2u32, 64u32).with_shared_mem(64 * 8);
    let every = vec![2 * 64; tree.num_phases()];

    let dev = plain(profiles::test_device());
    dev.set_racecheck(true);
    let kernel = Visits::new(tree.num_phases(), |p, _| tree.active_threads(p));
    dev.launch_phased(cfg, KernelCost::default(), &kernel)
        .unwrap();
    assert_eq!(kernel.counts(), every, "racecheck must see the whole block");

    let dev = plain(profiles::test_device());
    dev.set_sanitizer(true);
    let kernel = Visits::new(tree.num_phases(), |p, _| tree.active_threads(p));
    dev.launch_phased(cfg, KernelCost::default(), &kernel)
        .unwrap();
    assert_eq!(kernel.counts(), every, "simsan must see the whole block");
}

/// Records every `run_phase` call (phase, range, number of states) and
/// counts `phase()` entries; the block form does nothing else, so a
/// `phase()` entry can only come from the executor.
struct BlockCalls {
    tree: TreeShape,
    block_calls: std::sync::Mutex<Vec<(usize, std::ops::Range<usize>, usize)>>,
    thread_visits: AtomicUsize,
}

impl PhasedKernel for BlockCalls {
    type State = u8;
    fn num_phases(&self) -> usize {
        self.tree.num_phases()
    }
    fn active_threads(&self, phase: usize, _block_threads: usize) -> usize {
        self.tree.active_threads(phase)
    }
    fn phase(&self, _phase: usize, _ctx: &ThreadCtx, _s: &mut u8, _sh: &SharedMem) {
        self.thread_visits.fetch_add(1, Ordering::Relaxed);
    }
    fn run_phase(
        &self,
        phase: usize,
        _block: &BlockCtx,
        threads: std::ops::Range<usize>,
        states: &mut [u8],
        _sh: &SharedMem,
    ) {
        self.block_calls
            .lock()
            .unwrap()
            .push((phase, threads, states.len()));
    }
}

#[test]
fn plain_launches_hand_each_phase_to_run_phase_once_tracked_ones_never() {
    let tree = TreeShape::new(16);
    let blocks = 3usize;
    let cfg = LaunchConfig::new(blocks as u32, Dim3::xy(8, 2)).with_shared_mem(16 * 8);
    let launch = |dev: &Device| {
        let kernel = BlockCalls {
            tree,
            block_calls: Default::default(),
            thread_visits: AtomicUsize::new(0),
        };
        dev.launch_phased(cfg, KernelCost::default(), &kernel)
            .unwrap();
        (
            kernel.block_calls.into_inner().unwrap(),
            kernel.thread_visits.into_inner(),
        )
    };

    // Plain: one call per phase and block, over exactly the declared
    // prefix, with one state per thread of it — and no thread visit.
    let (calls, visits) = launch(&plain_in_order(profiles::test_device()));
    let per_block: Vec<_> = [16, 8, 4, 2, 1, 1]
        .iter()
        .enumerate()
        .map(|(phase, &k)| (phase, 0..k, k))
        .collect();
    assert_eq!(calls.len(), blocks * tree.num_phases());
    for block in calls.chunks(tree.num_phases()) {
        assert_eq!(block, per_block);
    }
    assert_eq!(visits, 0);

    // Tracked: every thread of every phase through `phase()`, the block
    // form never entered.
    for track in [Device::set_racecheck, Device::set_sanitizer] {
        let dev = plain(profiles::test_device());
        track(&dev, true);
        let (calls, visits) = launch(&dev);
        assert_eq!(calls, []);
        assert_eq!(visits, blocks * 16 * tree.num_phases());
    }

    // So is the reference executor.
    let dev = plain(profiles::test_device());
    let kernel = BlockCalls {
        tree,
        block_calls: Default::default(),
        thread_visits: AtomicUsize::new(0),
    };
    dev.execute_grid_reference(cfg, &kernel);
    assert_eq!(kernel.block_calls.into_inner().unwrap(), []);
    assert_eq!(
        kernel.thread_visits.into_inner(),
        blocks * 16 * tree.num_phases()
    );
}

#[test]
fn the_stateless_single_phase_path_goes_through_run_phase_too() {
    // No shared memory, zero-sized state, one phase: the launch every
    // `parallel_for` makes. The whole block is one call.
    struct OneCall {
        calls: std::sync::Mutex<Vec<std::ops::Range<usize>>>,
    }
    impl PhasedKernel for OneCall {
        type State = ();
        fn num_phases(&self) -> usize {
            1
        }
        fn phase(&self, _p: usize, _ctx: &ThreadCtx, _s: &mut (), _sh: &SharedMem) {
            panic!("a plain launch must not visit threads of an overriding kernel");
        }
        fn run_phase(
            &self,
            _p: usize,
            _block: &BlockCtx,
            threads: std::ops::Range<usize>,
            states: &mut [()],
            _sh: &SharedMem,
        ) {
            assert_eq!(states.len(), threads.len());
            self.calls.lock().unwrap().push(threads);
        }
    }
    let dev = plain(profiles::test_device());
    let kernel = OneCall {
        calls: Default::default(),
    };
    dev.launch_phased(
        LaunchConfig::new(Dim3::xy(2, 2), Dim3::xyz(4, 2, 3)),
        KernelCost::default(),
        &kernel,
    )
    .unwrap();
    assert_eq!(kernel.calls.into_inner().unwrap(), vec![0..24; 4]);
}

#[test]
fn zero_declaration_runs_no_thread() {
    let dev = plain(profiles::test_device());
    // Phase 1 declares nobody; phases 0 and 2 the whole block.
    let kernel = Visits::new(3, |p, n| if p == 1 { 0 } else { n });
    let cfg = LaunchConfig::new(4u32, 16u32).with_shared_mem(8);
    dev.launch_phased(cfg, KernelCost::default(), &kernel)
        .unwrap();
    assert_eq!(kernel.counts(), vec![64, 0, 64]);
}

#[test]
fn oversized_declaration_is_clamped_to_the_block() {
    let dev = plain(profiles::test_device());
    let kernel = Visits::new(2, |_, n| 10 * n + 7);
    let cfg = LaunchConfig::new(3u32, Dim3::xy(8, 4)).with_shared_mem(8);
    dev.launch_phased(cfg, KernelCost::default(), &kernel)
        .unwrap();
    assert_eq!(kernel.counts(), vec![96, 96]);
    assert_eq!(kernel.max_linear.load(Ordering::Relaxed), 31);
}

#[test]
fn prefix_follows_x_fastest_linear_order_in_3d_blocks() {
    let dev = plain(profiles::test_device());
    // 4 x 2 x 2 block, prefix of 11: one full z-plane (8) plus 3 threads of
    // the next row — it ends mid-row.
    let kernel = Visits::new(2, |p, n| if p == 0 { n } else { 11 });
    let cfg = LaunchConfig::new(2u32, Dim3::xyz(4, 2, 2)).with_shared_mem(8);
    dev.launch_phased(cfg, KernelCost::default(), &kernel)
        .unwrap();
    assert_eq!(kernel.counts(), vec![32, 22]);

    // And the visited threads are exactly linear indices 0..11.
    struct Mark {
        seen: DeviceSliceMut<u32>,
    }
    impl PhasedKernel for Mark {
        type State = ();
        fn num_phases(&self) -> usize {
            2
        }
        fn active_threads(&self, phase: usize, n: usize) -> usize {
            if phase == 0 {
                n
            } else {
                11
            }
        }
        fn phase(&self, phase: usize, ctx: &ThreadCtx, _s: &mut (), _sh: &SharedMem) {
            if phase == 1 {
                self.seen.set(ctx.global_linear(), 1);
            }
        }
    }
    let seen = dev.alloc::<u32>(32).unwrap();
    let mark = Mark {
        seen: dev.slice_mut(&seen).unwrap(),
    };
    dev.launch_phased(cfg, KernelCost::default(), &mark)
        .unwrap();
    let got = dev.read_vec(&seen).unwrap();
    let want: Vec<u32> = (0..32).map(|g| u32::from(g % 16 < 11)).collect();
    assert_eq!(got, want);
}

static LIVE_STATES: AtomicUsize = AtomicUsize::new(0);
static CREATED_STATES: AtomicUsize = AtomicUsize::new(0);

/// A resource-owning `State`: counts constructions and live instances.
struct Tracked(u64);
impl Default for Tracked {
    fn default() -> Self {
        LIVE_STATES.fetch_add(1, Ordering::Relaxed);
        CREATED_STATES.fetch_add(1, Ordering::Relaxed);
        Tracked(7)
    }
}
impl Drop for Tracked {
    fn drop(&mut self) {
        LIVE_STATES.fetch_sub(1, Ordering::Relaxed);
    }
}

#[test]
fn skipped_threads_states_are_still_constructed_and_dropped() {
    /// Phase 0 touches the first 4 threads' state; phase 1 (whole block)
    /// reads every slot: the skipped ones must hold the default value.
    struct Stateful {
        out: DeviceSliceMut<u64>,
    }
    impl PhasedKernel for Stateful {
        type State = Tracked;
        fn num_phases(&self) -> usize {
            2
        }
        fn active_threads(&self, phase: usize, n: usize) -> usize {
            if phase == 0 {
                4
            } else {
                n
            }
        }
        fn phase(&self, phase: usize, ctx: &ThreadCtx, s: &mut Tracked, _sh: &SharedMem) {
            if phase == 0 {
                s.0 = 100 + ctx.thread_linear() as u64;
            } else {
                self.out.set(ctx.global_linear(), s.0);
            }
        }
    }
    let dev = plain(profiles::test_device());
    let out = dev.alloc::<u64>(48).unwrap();
    let kernel = Stateful {
        out: dev.slice_mut(&out).unwrap(),
    };
    let created_before = CREATED_STATES.load(Ordering::Relaxed);
    dev.launch_phased(
        LaunchConfig::new(3u32, 16u32),
        KernelCost::default(),
        &kernel,
    )
    .unwrap();
    assert_eq!(
        CREATED_STATES.load(Ordering::Relaxed) - created_before,
        48,
        "one State per simulated thread, skipped or not"
    );
    assert_eq!(
        LIVE_STATES.load(Ordering::Relaxed),
        0,
        "every State dropped"
    );
    let got = dev.read_vec(&out).unwrap();
    let want: Vec<u64> = (0..48u64)
        .map(|g| if g % 16 < 4 { 100 + g % 16 } else { 7 })
        .collect();
    assert_eq!(got, want);
}

fn panic_msg(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn sanitizer_catches_an_under_declared_device_write() {
    /// Declares only thread 0 active in phase 1, but threads 0..4 write.
    struct UnderDeclared {
        out: DeviceSliceMut<f64>,
    }
    impl PhasedKernel for UnderDeclared {
        type State = ();
        fn num_phases(&self) -> usize {
            2
        }
        fn active_threads(&self, phase: usize, n: usize) -> usize {
            if phase == 0 {
                n
            } else {
                1
            }
        }
        fn phase(&self, phase: usize, ctx: &ThreadCtx, _s: &mut (), _sh: &SharedMem) {
            if phase == 1 && ctx.thread_linear() < 4 {
                self.out.set(ctx.global_linear(), 1.0);
            }
        }
    }
    let cfg = LaunchConfig::new(2u32, Dim3::xy(4, 2));

    let dev = plain(profiles::test_device());
    dev.set_sanitizer(true);
    let out = dev.alloc::<f64>(16).unwrap();
    let kernel = UnderDeclared {
        out: dev.slice_mut(&out).unwrap(),
    };
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dev.launch_phased(cfg, KernelCost::default(), &kernel)
    }))
    .unwrap_err();
    let msg = panic_msg(err);
    assert!(msg.contains("simsan"), "{msg}");
    assert!(msg.contains("active_threads under-declared"), "{msg}");
    assert!(msg.contains("thread (1,0,0)"), "{msg}");
    assert!(msg.contains("of block ("), "{msg}");
    assert!(msg.contains("wrote device memory in phase 1"), "{msg}");
    assert!(msg.contains("first 1 thread(s)"), "{msg}");

    // What the wrong declaration does without the sanitizer: the cut-off
    // threads' work is silently missing, and the reference disagrees.
    let dev = plain(profiles::test_device());
    let (fast, oracle) = (dev.alloc::<f64>(16).unwrap(), dev.alloc::<f64>(16).unwrap());
    let mk = |buf: &racc_gpusim::DeviceBuffer<f64>| UnderDeclared {
        out: dev.slice_mut(buf).unwrap(),
    };
    dev.launch_phased(cfg, KernelCost::default(), &mk(&fast))
        .unwrap();
    dev.execute_grid_reference(cfg, &mk(&oracle));
    assert_eq!(dev.read_vec(&fast).unwrap().iter().sum::<f64>(), 2.0);
    assert_eq!(dev.read_vec(&oracle).unwrap().iter().sum::<f64>(), 8.0);
}

#[test]
fn sanitizer_catches_an_under_declared_barrier_arrival() {
    /// Every thread arrives at the barrier, but the phase declares half the
    /// block: the first declared-idle arrival is the error, not divergence.
    struct BarrierBeyondPrefix;
    impl PhasedKernel for BarrierBeyondPrefix {
        type State = ();
        fn num_phases(&self) -> usize {
            2
        }
        fn active_threads(&self, phase: usize, n: usize) -> usize {
            if phase == 0 {
                n / 2
            } else {
                n
            }
        }
        fn phase(&self, phase: usize, ctx: &ThreadCtx, _s: &mut (), _sh: &SharedMem) {
            if phase == 0 {
                ctx.barrier();
            }
        }
    }
    let dev = plain(profiles::test_device());
    dev.set_sanitizer(true);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dev.launch_phased(
            LaunchConfig::new(1u32, 8u32),
            KernelCost::default(),
            &BarrierBeyondPrefix,
        )
    }))
    .unwrap_err();
    let msg = panic_msg(err);
    assert!(msg.contains("active_threads under-declared"), "{msg}");
    assert!(msg.contains("thread (4,0,0) of block (0,0,0)"), "{msg}");
    assert!(msg.contains("reached ctx.barrier() in phase 0"), "{msg}");
    assert!(msg.contains("first 4 thread(s)"), "{msg}");
}
