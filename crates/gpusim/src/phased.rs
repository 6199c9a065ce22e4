//! Cooperative (barrier-using) kernels.
//!
//! Real GPU kernels synchronize threads within a block with
//! `__syncthreads()`. A functional simulator that runs block threads as a
//! sequential loop cannot suspend a closure mid-body, so cooperative kernels
//! are expressed in **phases**: the kernel body is split at every barrier
//! point, and the executor runs phase `p` for *all* threads of a block
//! before any thread starts phase `p + 1` — which is exactly the
//! happens-before relation `__syncthreads()` establishes.
//!
//! Per-thread values that live across a barrier (registers in real hardware)
//! go in the kernel's [`PhasedKernel::State`]; block-shared values go in the
//! launch's [`SharedMem`].
//!
//! The paper's two-kernel CUDA DOT (its Fig. 3) is the canonical client:
//! phase 0 computes per-thread products into shared memory, the following
//! phases perform the shared-memory tree reduction, and the final phase
//! writes each block's partial to global memory.

use std::cell::{Cell, UnsafeCell};
use std::ops::Range;

use crate::launch::{BlockCtx, ThreadCtx};

/// A kernel expressed as a sequence of barrier-separated phases.
///
/// # Active prefix
///
/// Most phases of a cooperative kernel leave most of the block idle: in a
/// 256-thread tree reduction, step `p` has work for `256 >> p` threads and
/// the write-back for one, yet a naive executor still builds a `ThreadCtx`
/// and enters [`phase`](PhasedKernel::phase) for all 256. A kernel states
/// what it knows through [`active_threads`](PhasedKernel::active_threads):
///
/// * **Prefix, in linear order.** A return value of `k` says that in this
///   phase only the first `k` threads of the block — by
///   [`ThreadCtx::thread_linear`], `x` fastest, then `y`, then `z` — can do
///   anything. Values above the block size are clamped to it; `0` means no
///   thread runs the phase.
/// * **No-op guarantee.** For every thread at or beyond `k`, `phase()` must
///   be a pure no-op: no shared-memory or device-memory access, no write to
///   its `State`, no [`ThreadCtx::barrier`] arrival. (A phase whose threads
///   all call `barrier()` therefore has to declare the whole block.)
/// * **Plain launches skip, tracked launches do not.** With the sanitizer
///   off, the executor visits only the prefix. (The declaration is a
///   permission to skip, never a promise that a thread will not run.) With
///   the sanitizer on, every thread of every phase is visited, exactly as if nothing were declared, so race,
///   barrier-divergence and canary checks see the whole block. `State`
///   slots of skipped threads are still default-constructed before the
///   block and dropped after it.
/// * **A wrong declaration** that is too large only costs visits. One that
///   is too small silently drops the work of the threads it cut off in
///   plain launches — results differ from `Device::execute_grid_reference`,
///   which ignores the declaration and is the differential oracle. Under
///   the sanitizer a tracked device-memory access or a `barrier()` arrival
///   from a thread the kernel declared idle panics, naming block, phase,
///   thread and the declared bound (shared-memory accesses are untracked,
///   so the differential tests are the backstop for those).
///
/// The declaration changes which host-side visits happen, never what is
/// modeled: `KernelCost` is analytic and charges the full launch geometry.
///
/// # Block-granular phases
///
/// A visit is not free even when it has work: a `ThreadCtx` is built, the
/// kernel recomputes its linear index and re-tests what the phase does, and
/// every shared-memory access is checked on its own — ~4 ns around
/// arithmetic that takes a fraction of one. The plain executor therefore
/// never calls [`phase`](PhasedKernel::phase) itself: once per phase it
/// hands the block's whole active prefix to
/// [`run_phase`](PhasedKernel::run_phase), whose provided body is the
/// per-thread loop. A kernel may override it with a counted loop over the
/// range. Like `active_threads`, the override is a permission, never a
/// promise:
///
/// * **Observationally equal.** `run_phase(p, block, a..b, ..)` must leave
///   shared memory, device memory and the states exactly as calling
///   `phase(p, ..)` for threads `a, a + 1, .., b - 1` in that order would —
///   same values, bit for bit, same panics.
/// * **Tracked launches and the reference stay per-thread.** With the
///   sanitizer on, and in
///   `Device::execute_grid_reference`, every thread of every phase is
///   still visited through `phase()`, so per-thread race attribution,
///   barrier-divergence and declared-idle checks never see the override,
///   and the reference is the differential oracle that catches a wrong one.
/// * **One body.** Where natural, an overriding kernel writes its
///   `phase()` as its own `run_phase` on the unit range `t..t + 1` of
///   [`ThreadCtx::block`], so the two forms cannot drift apart.
///
/// # Bands
///
/// A launch of one phase, zero-sized [`State`](PhasedKernel::State) and no
/// shared memory — every `parallel_for`-style launch — has nothing that
/// ties a thread to its block, yet walked block by block a 16 × 16 tile
/// over a 512-wide plane is 16 row fragments of 16 elements, 512 elements
/// apart, which no prefetcher follows. The plain executor therefore hands
/// such a launch to the kernel a *band* at a time: a run of x-adjacent
/// blocks at one `(y, z)` of the grid, through
/// [`run_band`](PhasedKernel::run_band), whose provided body is the blocks
/// in order, each through `run_phase`. A kernel may override it and walk the
/// band row by row — each row of the tile once, across all the band's
/// blocks — under `run_phase`'s three rules:
///
/// * **Observationally equal** to running the band's blocks one after the
///   other, left to right, except for the order in which the threads of
///   *different* blocks run — which a launch never promises: every thread
///   of every block of the band does exactly what it would have done, once.
/// * **Tracked launches and the reference stay per-thread**: neither ever
///   forms a band.
/// * **One body**: where natural the band walk and `run_phase` are one
///   function, a band of one block being the block.
pub trait PhasedKernel: Sync {
    /// Per-thread private state surviving across phases (the thread's
    /// registers).
    type State: Default + Send;

    /// Number of phases (barrier intervals) in the kernel.
    fn num_phases(&self) -> usize;

    /// How many leading threads of a `block_threads`-thread block (linear
    /// order) can do anything in `phase`; the rest are guaranteed no-ops.
    /// See the trait docs for the contract. Defaults to the whole block.
    #[inline]
    fn active_threads(&self, _phase: usize, block_threads: usize) -> usize {
        block_threads
    }

    /// Execute one phase for one thread.
    fn phase(&self, phase: usize, ctx: &ThreadCtx, state: &mut Self::State, shared: &SharedMem);

    /// Execute one phase for the threads `threads` of one block: a range of
    /// [`ThreadCtx::thread_linear`] indices within the block, with
    /// `states[k]` the state of thread `threads.start + k`. The plain
    /// executor calls this once per phase with the declared active prefix;
    /// the provided body visits the range thread by thread. See the trait
    /// docs for what an override must preserve.
    #[inline]
    fn run_phase(
        &self,
        phase: usize,
        block: &BlockCtx,
        threads: Range<usize>,
        states: &mut [Self::State],
        shared: &SharedMem,
    ) {
        debug_assert_eq!(states.len(), threads.len());
        // Paired off by iterator, not by index: a bounds-checked `states[k]`
        // per thread is a panic edge the optimizer must keep, so a launch
        // whose body compiles to nothing would still walk every thread
        // (measured: 31 µs instead of 35 ns for an empty 1024 × 32 launch).
        let mut states = states.iter_mut();
        block.for_each_thread(threads, |ctx| {
            if let Some(state) = states.next() {
                self.phase(phase, ctx, state, shared);
            }
        });
    }

    /// Execute a whole launch of one phase, zero-sized `State` and no
    /// shared memory — the only launches the executor forms bands for — for
    /// the `blocks >= 1` x-adjacent blocks that start at `first`: `first`
    /// itself and the `blocks - 1` to its right in the grid's row. The provided
    /// body runs them in that order, each as the plain executor runs a
    /// block (fresh state slots, the declared prefix through
    /// [`run_phase`](PhasedKernel::run_phase)). See the trait docs for what
    /// an override must preserve.
    #[inline]
    fn run_band(&self, first: &BlockCtx, blocks: usize) {
        let block_threads = first.block_dim.count();
        let shared = SharedMem::new(0);
        for b in 0..blocks {
            // Zero-sized slots need no storage (a `Vec` of them never
            // allocates); they are still built and dropped per block.
            let mut states: Vec<Self::State> = Vec::new();
            states.resize_with(block_threads, Self::State::default);
            run_phases(self, &first.along_x(b), 1, &mut states, &shared);
        }
    }
}

/// The phases of one block of a plain launch: each is one
/// [`PhasedKernel::run_phase`] call over the prefix the kernel declares
/// active, so no tracking code — and, for a kernel that overrides
/// `run_phase`, no per-thread code at all — is on this path. `states` holds
/// one slot per thread of the block.
#[inline]
pub(crate) fn run_phases<K: PhasedKernel + ?Sized>(
    kernel: &K,
    block: &BlockCtx,
    phases: usize,
    states: &mut [K::State],
    shared: &SharedMem,
) {
    let block_threads = states.len();
    for phase in 0..phases {
        let active = kernel
            .active_threads(phase, block_threads)
            .min(block_threads);
        kernel.run_phase(phase, block, 0..active, &mut states[..active], shared);
    }
}

/// What one phase of a [`TreeShape`] reduction does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeStep {
    /// Phase 0: every thread stores its mapped value at `shared[ti]`.
    Map,
    /// Tree step: threads `ti < half` fold `shared[ti + half]` into
    /// `shared[ti]`.
    Combine {
        /// Number of combining threads, `block >> phase`.
        half: usize,
    },
    /// Last phase: thread 0 writes `shared[0]` out.
    WriteBack,
}

/// The phase structure of the shared-memory tree reduction over a
/// power-of-two block (the paper's Fig. 3): one map phase, `log2(block)`
/// halving steps, one write-back. Every tree kernel takes both its
/// [`PhasedKernel::active_threads`] declaration and its in-`phase()` test
/// from here, so the shape lives in one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeShape {
    block: usize,
}

impl TreeShape {
    /// Tree over `block` threads.
    ///
    /// # Panics
    /// Panics unless `block` is a power of two (the halving tree needs it).
    pub const fn new(block: usize) -> Self {
        assert!(block.is_power_of_two(), "tree block must be a power of two");
        TreeShape { block }
    }

    /// Threads per block.
    pub const fn block(self) -> usize {
        self.block
    }

    /// Map + `log2(block)` tree steps + write-back.
    pub const fn num_phases(self) -> usize {
        2 + self.block.trailing_zeros() as usize
    }

    /// What `phase` does.
    #[inline]
    pub const fn step(self, phase: usize) -> TreeStep {
        let steps = self.block.trailing_zeros() as usize;
        if phase == 0 {
            TreeStep::Map
        } else if phase <= steps {
            TreeStep::Combine {
                half: self.block >> phase,
            }
        } else {
            TreeStep::WriteBack
        }
    }

    /// The active prefix of `phase`: `map → block`, `step p → block >> p`,
    /// `write-back → 1`.
    #[inline]
    pub const fn active_threads(self, phase: usize) -> usize {
        match self.step(phase) {
            TreeStep::Map => self.block,
            TreeStep::Combine { half } => half,
            TreeStep::WriteBack => 1,
        }
    }
}

/// The phase structure of a leader-sweep kernel: in each of the first
/// `leader_phases` phases only the block's first thread (linear index 0)
/// works — one sequential sweep over the block's span, filling shared
/// memory or the block's own row of a device buffer — and in every later
/// phase the whole block consumes what the leader left. One writer per
/// phase and a barrier before the readers: race-free without atomics. A
/// kernel takes both its [`PhasedKernel::active_threads`] declaration and
/// its in-`phase()` test from here, so the two cannot drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaderPhases {
    leader_phases: usize,
}

impl LeaderPhases {
    /// The first `leader_phases` phases belong to the block's leader.
    pub const fn new(leader_phases: usize) -> Self {
        LeaderPhases { leader_phases }
    }

    /// The active prefix of `phase`: `leader → 1`, `otherwise → the block`.
    #[inline]
    pub const fn active_threads(self, phase: usize, block_threads: usize) -> usize {
        if phase < self.leader_phases {
            1
        } else {
            block_threads
        }
    }

    /// Whether the thread behind `ctx` has work in `phase` — the first
    /// thing a leader-sweep kernel's `phase()` tests, so every thread
    /// outside the declared prefix is the pure no-op the contract requires.
    #[inline]
    pub fn runs(self, phase: usize, ctx: &ThreadCtx) -> bool {
        phase >= self.leader_phases || ctx.thread_linear() == 0
    }
}

/// Cold, outlined bounds failures: keeping the formatting machinery out of
/// the accessors lets the per-thread loops that call them optimize (the
/// pattern of `racc-core`'s views).
#[cold]
#[inline(never)]
fn read_oob(i: usize, n: usize) -> ! {
    panic!("shared-memory read {i} out of bounds ({n} elements)");
}

#[cold]
#[inline(never)]
fn write_oob(i: usize, n: usize) -> ! {
    panic!("shared-memory write {i} out of bounds ({n} elements)");
}

/// Alignment of the shared-memory backing store, and the widest element
/// alignment [`SharedMem::cells`] accepts.
const SHARED_ALIGN: usize = 16;

/// One aligned unit of the backing store.
#[repr(align(16))]
struct Chunk {
    _bytes: [u8; SHARED_ALIGN],
}

const _: () = assert!(
    std::mem::align_of::<Chunk>() == SHARED_ALIGN && std::mem::size_of::<Chunk>() == SHARED_ALIGN
);

/// A block's dynamic shared memory. Typed, bounds-checked accessors operate
/// on the raw byte buffer; the executor guarantees each block's `SharedMem`
/// is touched by one host thread at a time, so the interior mutability is
/// single-threaded in practice.
///
/// # Initialization contract
///
/// **Every block observes zeroed shared memory at the start of its phase 0.**
/// Real CUDA/HIP dynamic shared memory is *uninitialized* at block start;
/// the simulator deliberately provides the stronger guarantee and keeps it
/// even though the executor reuses one arena buffer across blocks
/// ([`SharedMem::reset`] re-zeroes between blocks). Kernels in
/// `backend-common` rely on phase 0 fully initializing what they read, which
/// is portable to real hardware; zeroing additionally makes any
/// read-before-write bug deterministic instead of value-dependent.
pub struct SharedMem {
    /// The buffer, rounded up to whole 16-byte chunks. Only `&mut self`
    /// methods touch the `Vec` itself, so base pointer and length are plain
    /// loads the compiler may hoist out of a kernel's loop; the bytes are
    /// written through `&self`, hence the cells.
    chunks: Vec<UnsafeCell<Chunk>>,
    /// Capacity in bytes as requested (`<= chunks.len() * SHARED_ALIGN`).
    bytes: usize,
}

// SAFETY: one block executes on exactly one host thread; the executor never
// shares a SharedMem across host threads concurrently.
unsafe impl Sync for SharedMem {}

impl SharedMem {
    /// Allocate `bytes` zeroed shared-memory bytes.
    pub fn new(bytes: usize) -> Self {
        let mut shared = SharedMem {
            chunks: Vec::new(),
            bytes: 0,
        };
        shared.reset(bytes);
        shared
    }

    /// Shared-memory capacity in bytes.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of `T` elements that fit.
    #[inline]
    pub fn len_of<T: Copy>(&self) -> usize {
        self.bytes / std::mem::size_of::<T>()
    }

    /// Start of the buffer (16-byte aligned; dangling while empty).
    #[inline]
    fn base(&self) -> *mut u8 {
        UnsafeCell::raw_get(self.chunks.as_ptr()).cast()
    }

    /// Read element `i`, viewing the buffer as `[T]`.
    #[inline]
    pub fn get<T: Copy>(&self, i: usize) -> T {
        let n = self.len_of::<T>();
        if i >= n {
            read_oob(i, n);
        }
        // SAFETY: `i < n` and `n * size_of::<T>() <= self.bytes`, which the
        // chunks cover; `read_unaligned` asks no alignment of `T`; one host
        // thread per block.
        unsafe { self.base().cast::<T>().add(i).read_unaligned() }
    }

    /// Write element `i`, viewing the buffer as `[T]`.
    #[inline]
    pub fn set<T: Copy>(&self, i: usize, value: T) {
        let n = self.len_of::<T>();
        if i >= n {
            write_oob(i, n);
        }
        // SAFETY: as in `get`; the bytes sit in `UnsafeCell`s, so writing
        // through `&self` is allowed.
        unsafe { self.base().cast::<T>().add(i).write_unaligned(value) }
    }

    /// The whole buffer as `len_of::<T>()` cells of `T`: what a
    /// block-granular phase ([`PhasedKernel::run_phase`]) indexes in a
    /// counted loop, paying the slice's own bounds check instead of a
    /// length computation per access. Cells, not `&mut [T]`: the buffer is
    /// shared with every `get`/`set` made through the same `&SharedMem`.
    ///
    /// # Panics
    /// Panics if `T` needs more than 16-byte alignment.
    #[inline]
    pub fn cells<T: Copy>(&self) -> &[Cell<T>] {
        assert!(
            std::mem::align_of::<T>() <= SHARED_ALIGN,
            "shared memory is 16-byte aligned"
        );
        // SAFETY: `base()` is aligned to 16 >= align_of::<T>() (checked
        // above) and non-null; `len_of::<T>()` elements fit in `self.bytes`,
        // which the chunks cover; `Cell<T>` has the layout of `T`, the bytes
        // already sit in `UnsafeCell`s, and as with `get` a cell reads back
        // what the kernel stored as `T` (or the zero fill); the buffer
        // cannot move or shrink while the slice lives, because `reset`
        // takes `&mut self`.
        unsafe { std::slice::from_raw_parts(self.base().cast::<Cell<T>>(), self.len_of::<T>()) }
    }

    /// Zero the buffer (between reuse).
    pub fn clear(&self) {
        // SAFETY: the chunks hold `chunks.len() * SHARED_ALIGN` bytes, all
        // in `UnsafeCell`s; single-threaded access per the executor contract.
        unsafe { std::ptr::write_bytes(self.base(), 0, self.chunks.len() * SHARED_ALIGN) };
    }

    /// Resize to `bytes` zeroed bytes, reusing the existing capacity: the
    /// executor calls this between blocks so a reused arena buffer still
    /// honors the zeroed-at-block-start contract without reallocating.
    /// Writes nothing when `bytes == 0`.
    pub fn reset(&mut self, bytes: usize) {
        self.chunks.clear();
        self.chunks.resize_with(bytes.div_ceil(SHARED_ALIGN), || {
            UnsafeCell::new(Chunk {
                _bytes: [0; SHARED_ALIGN],
            })
        });
        self.bytes = bytes;
    }
}

/// Adapter: a non-cooperative closure as a single-phase kernel, so the two
/// launch paths share the executor. Public so callers that must *re-run* a
/// launch (e.g. retry-on-injected-fault in the portability layer) can go
/// through [`Device::launch_phased`], which borrows its kernel —
/// [`Device::launch`] consumes the closure.
///
/// [`Device::launch_phased`]: crate::Device::launch_phased
/// [`Device::launch`]: crate::Device::launch
pub struct SinglePhase<F>(pub F);

impl<F: Fn(&ThreadCtx) + Sync> PhasedKernel for SinglePhase<F> {
    type State = ();

    fn num_phases(&self) -> usize {
        1
    }

    // Always: a forwarding shim at the bottom of the executor's inline
    // chain. Left to the heuristics it stayed a call per simulated thread in
    // the benchmark's binary (`gpusim.empty_launch_ns` 11.5 → 38 µs).
    #[inline(always)]
    fn phase(&self, _phase: usize, ctx: &ThreadCtx, _state: &mut (), _shared: &SharedMem) {
        (self.0)(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_shape_phases_and_prefixes() {
        let tree = TreeShape::new(256);
        assert_eq!(tree.block(), 256);
        assert_eq!(tree.num_phases(), 10);
        assert_eq!(tree.step(0), TreeStep::Map);
        assert_eq!(tree.step(1), TreeStep::Combine { half: 128 });
        assert_eq!(tree.step(8), TreeStep::Combine { half: 1 });
        assert_eq!(tree.step(9), TreeStep::WriteBack);
        let active: Vec<usize> = (0..10).map(|p| tree.active_threads(p)).collect();
        assert_eq!(active, [256, 128, 64, 32, 16, 8, 4, 2, 1, 1]);
        // 2 560 thread-phase slots, 512 of them active.
        assert_eq!(active.iter().sum::<usize>(), 512);

        // A one-thread block is map + write-back, no tree step.
        let one = TreeShape::new(1);
        assert_eq!(one.num_phases(), 2);
        assert_eq!(one.step(1), TreeStep::WriteBack);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn tree_shape_rejects_non_power_of_two_blocks() {
        let _ = TreeShape::new(48);
    }

    #[test]
    fn leader_phases_declare_one_thread_and_admit_only_thread_zero() {
        use crate::dim::Dim3;
        let shape = LeaderPhases::new(1);
        assert_eq!(shape.active_threads(0, 64), 1);
        assert_eq!(shape.active_threads(1, 64), 64);
        let ctx = |thread_idx| ThreadCtx {
            block_idx: (3, 0, 0),
            thread_idx,
            block_dim: Dim3::xy(8, 8),
            grid_dim: Dim3::x(4),
        };
        assert!(shape.runs(0, &ctx((0, 0, 0))));
        assert!(!shape.runs(0, &ctx((1, 0, 0))));
        assert!(!shape.runs(0, &ctx((0, 1, 0))), "leader is linear 0");
        assert!(shape.runs(1, &ctx((5, 7, 0))));
        // No leader phase at all: an ordinary whole-block kernel.
        assert_eq!(LeaderPhases::new(0).active_threads(0, 64), 64);
    }

    #[test]
    fn shared_mem_round_trip() {
        let sm = SharedMem::new(64);
        assert_eq!(sm.size_bytes(), 64);
        assert_eq!(sm.len_of::<f64>(), 8);
        assert_eq!(sm.len_of::<u32>(), 16);
        sm.set::<f64>(3, 2.5);
        assert_eq!(sm.get::<f64>(3), 2.5);
        sm.set::<u32>(0, 42);
        assert_eq!(sm.get::<u32>(0), 42);
    }

    #[test]
    fn shared_mem_zero_initialized_and_clearable() {
        let sm = SharedMem::new(32);
        for i in 0..4 {
            assert_eq!(sm.get::<f64>(i), 0.0);
        }
        sm.set::<f64>(1, 9.0);
        sm.clear();
        assert_eq!(sm.get::<f64>(1), 0.0);
    }

    #[test]
    fn reset_rezeroes_and_reuses_capacity() {
        // Regression test for the executor's arena reuse: a block that dirties
        // shared memory must not leak values into the next block's view.
        let mut sm = SharedMem::new(0);
        sm.reset(64);
        assert_eq!(sm.size_bytes(), 64);
        for i in 0..8 {
            assert_eq!(sm.get::<f64>(i), 0.0, "fresh reset must be zeroed");
            sm.set::<f64>(i, (i + 1) as f64);
        }
        // Same size: contents must come back zeroed, not stale.
        sm.reset(64);
        for i in 0..8 {
            assert_eq!(sm.get::<f64>(i), 0.0, "reset must re-zero");
        }
        // Shrink then grow within capacity: still zeroed.
        sm.set::<f64>(7, 9.0);
        sm.reset(16);
        assert_eq!(sm.size_bytes(), 16);
        sm.reset(64);
        assert_eq!(sm.get::<f64>(7), 0.0, "regrown bytes must be zeroed");
    }

    #[test]
    fn cells_alias_the_bytes_get_and_set_see() {
        let mut sm = SharedMem::new(0);
        assert!(sm.cells::<f64>().is_empty());
        // 44 bytes: five f64 (the odd 4 bytes fit none), eleven u32.
        sm.reset(44);
        let cells = sm.cells::<f64>();
        assert_eq!(cells.len(), 5);
        assert_eq!(cells.as_ptr() as usize % 16, 0, "16-byte aligned store");
        assert!(cells.iter().all(|c| c.get() == 0.0), "zeroed at reset");
        cells[3].set(2.5);
        assert_eq!(sm.get::<f64>(3), 2.5);
        sm.set::<f64>(4, -1.0);
        assert_eq!(cells[4].get(), -1.0, "one buffer, two ways in");
        assert_eq!(sm.cells::<u32>().len(), 11);
        sm.clear();
        assert_eq!(cells[3].get(), 0.0);
    }

    #[test]
    #[should_panic(expected = "16-byte aligned")]
    fn cells_reject_over_aligned_elements() {
        #[derive(Clone, Copy)]
        #[repr(align(32))]
        struct Wide(#[allow(dead_code)] [u8; 32]);
        let _ = SharedMem::new(64).cells::<Wide>();
    }

    #[test]
    #[should_panic(expected = "shared-memory read 2 out of bounds (2 elements)")]
    fn shared_mem_read_oob_panics() {
        let sm = SharedMem::new(16);
        let _ = sm.get::<f64>(2);
    }

    #[test]
    #[should_panic(expected = "shared-memory write 2 out of bounds (2 elements)")]
    fn shared_mem_write_oob_panics() {
        let sm = SharedMem::new(16);
        sm.set::<f64>(2, 1.0);
    }
}
