//! The simulated device: heap + launch engine + clock + op log.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use racc_chaos::{ChaosEngine, FaultAction, FaultEvent, FaultPlan, FaultSite};
use racc_core::racecheck::{self, RaceTracker};
use racc_threadpool::{Schedule, ThreadPool};

use crate::arena;
use crate::error::SimError;
use crate::event::Event;
use crate::heap::{
    Allocation, DeviceBuffer, DeviceReservation, DeviceSlice, DeviceSliceMut, Element,
};
use crate::launch::{BlockCtx, LaunchConfig, ThreadCtx};
use crate::perf::{self, KernelCost, OpKind, OpRecord};
use crate::phased::{run_phases, PhasedKernel, SharedMem, SinglePhase};
use crate::sanitizer::{self, AllocMeta, Sanitizer, SanitizerReport};
use crate::spec::DeviceSpec;
use crate::stream::Stream;

static NEXT_DEVICE_ID: AtomicU64 = AtomicU64::new(1);

/// Maximum number of op-log records retained (ring-buffer style).
const OP_LOG_CAP: usize = 4096;

/// A simulated accelerator.
///
/// Functionally, kernels execute for real (on the host thread pool,
/// parallelized over blocks); temporally, a virtual clock advances by the
/// analytic performance model's estimate for each launch and transfer. All
/// APIs are synchronous, matching the paper's model semantics.
pub struct Device {
    id: u64,
    spec: DeviceSpec,
    pool: Arc<ThreadPool>,
    clock_ns: AtomicU64,
    used_bytes: Arc<AtomicUsize>,
    /// The sanitizer's race tracker.
    tracker: Arc<RaceTracker>,
    sanitizer: Arc<Sanitizer>,
    /// Fast-path gate for fault injection: one relaxed load per injection
    /// point when chaos is off — the zero-overhead guarantee.
    chaos_on: std::sync::atomic::AtomicBool,
    chaos: Mutex<Option<Arc<ChaosEngine>>>,
    op_log: Mutex<VecDeque<OpRecord>>,
    /// Completion time (absolute device ns) of the last operation on each
    /// non-default stream; the substrate of the async-overlap model.
    stream_clocks: Mutex<std::collections::HashMap<u64, u64>>,
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("id", &self.id)
            .field("spec", &self.spec.name)
            .field("clock_ns", &self.clock_ns.load(Ordering::Relaxed))
            .finish()
    }
}

impl Device {
    /// Create a device with the global host thread pool as its executor.
    ///
    /// # Panics
    /// Panics if the specification fails validation.
    pub fn new(spec: DeviceSpec) -> Self {
        Self::with_pool(spec, Arc::new(pool_handle()))
    }

    /// Fallible [`Device::new`]: a bad specification comes back as
    /// [`SimError::InvalidSpec`] instead of a panic, so context
    /// construction can surface it as a `RaccError`.
    pub fn try_new(spec: DeviceSpec) -> Result<Self, SimError> {
        Self::try_with_pool(spec, Arc::new(pool_handle()))
    }

    /// Fallible [`Device::with_pool`].
    pub fn try_with_pool(spec: DeviceSpec, pool: Arc<ThreadPool>) -> Result<Self, SimError> {
        spec.validate().map_err(SimError::InvalidSpec)?;
        Ok(Self::build(spec, pool))
    }

    /// Create a device executing on a caller-provided pool.
    ///
    /// # Panics
    /// Panics if the specification fails validation; use
    /// [`Device::try_with_pool`] to handle it.
    pub fn with_pool(spec: DeviceSpec, pool: Arc<ThreadPool>) -> Self {
        Self::try_with_pool(spec, pool).expect("invalid device specification")
    }

    fn build(spec: DeviceSpec, pool: Arc<ThreadPool>) -> Self {
        Device {
            id: NEXT_DEVICE_ID.fetch_add(1, Ordering::Relaxed),
            spec,
            pool,
            clock_ns: AtomicU64::new(0),
            used_bytes: Arc::new(AtomicUsize::new(0)),
            tracker: Arc::new(RaceTracker::new()),
            sanitizer: Arc::new(Sanitizer::new(false)),
            chaos_on: std::sync::atomic::AtomicBool::new(false),
            chaos: Mutex::new(None),
            op_log: Mutex::new(VecDeque::new()),
            stream_clocks: Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// Unique id of this device instance.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The architecture descriptor.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Device memory currently allocated, in bytes.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes.load(Ordering::Relaxed)
    }

    /// Work-stealing counters of the host pool this device launches on
    /// (block ranges execute as pool tasks, so grid launches show up as
    /// executed/stolen tasks here).
    pub fn steal_stats(&self) -> racc_threadpool::StealStats {
        self.pool.steal_stats()
    }

    /// Enable or disable **simsan**, the device sanitizer (slow; tests and
    /// debugging only); a new device starts with it off. It tracks every
    /// device-slice read and write against the SIMT contract (phase-aware
    /// write-write and read-write races, `racc_core::racecheck`), verifies
    /// barrier arrival in cooperative kernels, instruments allocations with
    /// canaries and live/freed state, and reports leaks — see
    /// [`Device::sanitizer_report`].
    ///
    /// Only buffers allocated (and slices created) while the sanitizer is
    /// on carry the full heap instrumentation.
    pub fn set_sanitizer(&self, enabled: bool) {
        self.sanitizer.set_enabled(enabled);
    }

    /// Whether the sanitizer is enabled.
    pub fn sanitizer_enabled(&self) -> bool {
        self.sanitizer.enabled()
    }

    /// Snapshot the sanitizer's findings: check counters plus the table of
    /// still-live sanitized allocations (the leak report, when taken at
    /// teardown). `None` while the sanitizer is disabled.
    pub fn sanitizer_report(&self) -> Option<SanitizerReport> {
        self.sanitizer_enabled()
            .then(|| self.sanitizer.report(self.id, &self.tracker))
    }

    // ------------------------------------------------------------------
    // Fault injection (racc-chaos)
    // ------------------------------------------------------------------

    /// Arm deterministic fault injection with a fresh engine for `plan`:
    /// allocs, transfers, launches, and stream work consult the schedule
    /// and fail / stall as it dictates. A new device runs chaos-free until
    /// armed.
    pub fn set_chaos(&self, plan: FaultPlan) {
        *self.chaos.lock() = Some(Arc::new(ChaosEngine::new(plan)));
        self.chaos_on.store(true, Ordering::Release);
    }

    /// Disarm fault injection (the fault log is discarded with the engine).
    pub fn clear_chaos(&self) {
        self.chaos_on.store(false, Ordering::Release);
        *self.chaos.lock() = None;
    }

    /// Whether fault injection is armed.
    pub fn chaos_enabled(&self) -> bool {
        self.chaos_on.load(Ordering::Relaxed)
    }

    /// Every fault injected on this device so far, in injection order —
    /// the determinism witness (same plan, same log) and the debugging
    /// record of a chaos run. Empty when chaos is (or was re-)disarmed.
    pub fn fault_log(&self) -> Vec<FaultEvent> {
        self.chaos
            .lock()
            .as_ref()
            .map(|eng| eng.log())
            .unwrap_or_default()
    }

    /// Consult the chaos schedule for one operation at `site`. `Ok(extra)`
    /// lets the op proceed, charged `extra` additional modeled ns (a
    /// latency spike; usually 0); `Err` is the injected failure, raised
    /// **before** the operation's side effects so a retry re-runs it from
    /// a clean slate. The device's own ops call this internally; it is
    /// public for layers that *model* transfers without device buffers
    /// (the portability backend's array uploads/downloads) and must still
    /// run through the schedule.
    #[inline]
    pub fn inject_fault(&self, site: FaultSite) -> Result<u64, SimError> {
        if !self.chaos_on.load(Ordering::Relaxed) {
            return Ok(0);
        }
        self.inject_fault_slow(site)
    }

    #[cold]
    fn inject_fault_slow(&self, site: FaultSite) -> Result<u64, SimError> {
        let engine = match self.chaos.lock().as_ref() {
            Some(eng) => Arc::clone(eng),
            None => return Ok(0),
        };
        match engine.next(site) {
            None => Ok(0),
            Some(FaultEvent {
                action: FaultAction::Delay(ns),
                ..
            }) => Ok(ns),
            Some(FaultEvent { occurrence, .. }) => Err(SimError::Faulted {
                site: site.label(),
                occurrence,
            }),
        }
    }

    // ------------------------------------------------------------------
    // Clock and op log
    // ------------------------------------------------------------------

    /// Current virtual clock, nanoseconds since device creation/reset.
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns.load(Ordering::Relaxed)
    }

    /// Reset the virtual clock (benchmark harness hygiene between series).
    pub fn reset_clock(&self) {
        self.clock_ns.store(0, Ordering::Relaxed);
    }

    /// Advance the clock by `ns` and log the op; used by backend layers to
    /// charge costs the raw device does not know about (e.g. portability-
    /// layer argument packing).
    pub fn charge(&self, kind: OpKind, bytes: u64, threads: u64, ns: f64) -> u64 {
        let ns = ns.max(0.0).round() as u64;
        let after = self.clock_ns.fetch_add(ns, Ordering::Relaxed) + ns;
        let mut log = self.op_log.lock();
        if log.len() == OP_LOG_CAP {
            // O(1) ring step (a `Vec::remove(0)` here would memmove the whole
            // log on every op once the cap is reached — per-launch overhead).
            log.pop_front();
        }
        log.push_back(OpRecord {
            kind,
            bytes,
            threads,
            modeled_ns: ns,
            clock_after_ns: after,
        });
        ns
    }

    /// Snapshot of the most recent operations (up to an internal cap).
    pub fn op_log(&self) -> Vec<OpRecord> {
        self.op_log.lock().iter().cloned().collect()
    }

    /// Record a timestamp on the device clock.
    pub fn record_event(&self) -> Event {
        Event {
            t_ns: self.clock_ns(),
            device_id: self.id,
        }
    }

    /// Block until all submitted work completes: folds every stream's
    /// completion time into the device clock (async work executed eagerly,
    /// so functionally this is already done — the fold is the *temporal*
    /// join).
    pub fn synchronize(&self) {
        let mut streams = self.stream_clocks.lock();
        let latest = streams.values().copied().max().unwrap_or(0);
        streams.clear();
        let mut current = self.clock_ns();
        while latest > current {
            match self.clock_ns_cas(current, latest) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
    }

    /// Wait for one stream: fold its completion time into the device clock.
    pub fn sync_stream(&self, stream: &Stream) {
        assert_eq!(stream.device_id(), self.id, "stream from another device");
        let mut streams = self.stream_clocks.lock();
        if let Some(end) = streams.remove(&stream.id()) {
            drop(streams);
            let mut current = self.clock_ns();
            while end > current {
                match self.clock_ns_cas(current, end) {
                    Ok(_) => break,
                    Err(actual) => current = actual,
                }
            }
        }
    }

    fn clock_ns_cas(&self, current: u64, new: u64) -> Result<u64, u64> {
        self.clock_ns
            .compare_exchange(current, new, Ordering::Relaxed, Ordering::Relaxed)
    }

    /// The modeled completion time of a stream's pending work (absolute
    /// device ns), or `None` when the stream is idle.
    pub fn stream_clock_ns(&self, stream: &Stream) -> Option<u64> {
        self.stream_clocks.lock().get(&stream.id()).copied()
    }

    /// The device's default stream.
    pub fn default_stream(&self) -> Stream {
        Stream::default_for(self.id)
    }

    /// Create a new stream.
    pub fn create_stream(&self) -> Stream {
        Stream::new_for(self.id)
    }

    // ------------------------------------------------------------------
    // Memory management
    // ------------------------------------------------------------------

    /// Allocate a zero-initialized buffer of `len` elements.
    pub fn alloc<T: Element>(&self, len: usize) -> Result<DeviceBuffer<T>, SimError> {
        let in_use = self.used_bytes();
        // An overflowing byte count can never fit in any device: surface it
        // as OOM instead of wrapping into a tiny (and wildly unsound)
        // allocation with a huge `len`.
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .ok_or(SimError::OutOfMemory {
                requested: usize::MAX,
                in_use,
                capacity: self.spec.memory_bytes,
            })?;
        self.admit(bytes, in_use)?;
        let meta = self
            .sanitizer_enabled()
            .then(|| self.sanitizer.new_meta::<T>(len, bytes));
        // A size the host cannot back presents like one the device cannot.
        let alloc = Allocation::new(bytes, Arc::clone(&self.used_bytes), meta.clone())
            .map(Arc::new)
            .ok_or(SimError::OutOfMemory {
                requested: bytes,
                in_use,
                capacity: self.spec.memory_bytes,
            })?;
        self.track(meta, &alloc);
        Ok(DeviceBuffer {
            alloc,
            len,
            device_id: self.id,
            _marker: PhantomData,
        })
    }

    /// Charge `bytes` of device memory without backing them: [`Device::alloc`]'s
    /// fault injection, capacity check, accounting and sanitizer tracking,
    /// and no host block. For layers that keep the data host-side and only
    /// model its residency (the portability back end's arrays).
    pub fn reserve(&self, bytes: usize) -> Result<DeviceReservation, SimError> {
        let in_use = self.used_bytes();
        self.admit(bytes, in_use)?;
        let meta = self
            .sanitizer_enabled()
            .then(|| self.sanitizer.new_meta::<u8>(bytes, bytes));
        let alloc = Arc::new(Allocation::reserve(
            bytes,
            Arc::clone(&self.used_bytes),
            meta.clone(),
        ));
        self.track(meta, &alloc);
        Ok(DeviceReservation(alloc))
    }

    /// The checks every allocation passes, in order: the chaos schedule,
    /// then capacity. Injected alloc faults present as out-of-memory — the
    /// failure class a real driver reports for a failed `cudaMalloc`. (A
    /// delay at this site is logged but free: allocation advances no
    /// clock.)
    fn admit(&self, bytes: usize, in_use: usize) -> Result<(), SimError> {
        if self.inject_fault(FaultSite::Alloc).is_err()
            || in_use
                .checked_add(bytes)
                .is_none_or(|total| total > self.spec.memory_bytes)
        {
            return Err(SimError::OutOfMemory {
                requested: bytes,
                in_use,
                capacity: self.spec.memory_bytes,
            });
        }
        Ok(())
    }

    /// Register a sanitized allocation with simsan.
    fn track(&self, meta: Option<Arc<AllocMeta>>, alloc: &Arc<Allocation>) {
        if let Some(meta) = meta {
            // Install the back-pointer before registering so the canary
            // sweep can always reach the live memory.
            let _ = meta.alloc.set(Arc::downgrade(alloc));
            self.sanitizer.register(meta);
        }
    }

    /// Allocate and upload host data (charges the H2D transfer).
    pub fn alloc_from<T: Element>(&self, host: &[T]) -> Result<DeviceBuffer<T>, SimError> {
        let buf = self.alloc::<T>(host.len())?;
        self.upload(&buf, host)?;
        Ok(buf)
    }

    /// Copy host data into a device buffer (H2D).
    pub fn upload<T: Element>(&self, buf: &DeviceBuffer<T>, host: &[T]) -> Result<(), SimError> {
        self.check_owned(buf)?;
        if host.len() != buf.len {
            return Err(SimError::SizeMismatch {
                expected: buf.len,
                actual: host.len(),
            });
        }
        // Injected before the copy, so a failed transfer leaves device
        // memory untouched and a retry re-runs it from a clean slate.
        let spike = self.inject_fault(FaultSite::H2d)?;
        // SAFETY: destination allocation holds exactly `len` elements of T.
        unsafe {
            std::ptr::copy_nonoverlapping(host.as_ptr(), buf.alloc.ptr() as *mut T, host.len());
        }
        let bytes = buf.size_bytes();
        self.charge(
            OpKind::H2D,
            bytes as u64,
            0,
            perf::transfer_time_ns(&self.spec, bytes) + spike as f64,
        );
        Ok(())
    }

    /// Copy a device buffer back to the host (D2H).
    pub fn download<T: Element>(
        &self,
        buf: &DeviceBuffer<T>,
        host: &mut [T],
    ) -> Result<(), SimError> {
        self.check_owned(buf)?;
        if host.len() != buf.len {
            return Err(SimError::SizeMismatch {
                expected: buf.len,
                actual: host.len(),
            });
        }
        let spike = self.inject_fault(FaultSite::D2h)?;
        // SAFETY: source allocation holds exactly `len` elements of T.
        unsafe {
            std::ptr::copy_nonoverlapping(buf.alloc.ptr() as *const T, host.as_mut_ptr(), buf.len);
        }
        let bytes = buf.size_bytes();
        self.charge(
            OpKind::D2H,
            bytes as u64,
            0,
            perf::transfer_time_ns(&self.spec, bytes) + spike as f64,
        );
        Ok(())
    }

    /// Download into a fresh `Vec`.
    pub fn read_vec<T: Element>(&self, buf: &DeviceBuffer<T>) -> Result<Vec<T>, SimError> {
        self.check_owned(buf)?;
        let spike = self.inject_fault(FaultSite::D2h)?;
        // Copy straight into the Vec's spare capacity: materializing a
        // zeroed `T` first would be UB for types like `NonZeroU32` where
        // the all-zero bit pattern is invalid.
        let mut out: Vec<T> = Vec::with_capacity(buf.len);
        // SAFETY: `buf.len` elements fit in the reserved capacity; the
        // source allocation holds exactly `len` elements of T; every
        // element is initialized before `set_len`.
        unsafe {
            std::ptr::copy_nonoverlapping(buf.alloc.ptr() as *const T, out.as_mut_ptr(), buf.len);
            out.set_len(buf.len);
        }
        let bytes = buf.size_bytes();
        self.charge(
            OpKind::D2H,
            bytes as u64,
            0,
            perf::transfer_time_ns(&self.spec, bytes) + spike as f64,
        );
        Ok(out)
    }

    /// Read a single element (a tiny D2H transfer — the expensive result
    /// readback at the end of GPU reductions).
    pub fn read_scalar<T: Element>(
        &self,
        buf: &DeviceBuffer<T>,
        index: usize,
    ) -> Result<T, SimError> {
        self.check_owned(buf)?;
        if index >= buf.len {
            return Err(SimError::OutOfBounds {
                offset: index,
                len: 1,
                buffer_len: buf.len,
            });
        }
        let spike = self.inject_fault(FaultSite::D2h)?;
        // SAFETY: bounds checked above.
        let value = unsafe { *(buf.alloc.ptr() as *const T).add(index) };
        self.charge(
            OpKind::D2H,
            std::mem::size_of::<T>() as u64,
            0,
            perf::transfer_time_ns(&self.spec, std::mem::size_of::<T>()) + spike as f64,
        );
        Ok(value)
    }

    /// Device-to-device copy between buffers of equal length.
    pub fn copy<T: Element>(
        &self,
        src: &DeviceBuffer<T>,
        dst: &DeviceBuffer<T>,
    ) -> Result<(), SimError> {
        self.check_owned(src)?;
        self.check_owned(dst)?;
        if src.len != dst.len {
            return Err(SimError::SizeMismatch {
                expected: dst.len,
                actual: src.len,
            });
        }
        if Arc::ptr_eq(&src.alloc, &dst.alloc) {
            // Exact self-copy: `copy_nonoverlapping` on overlapping ranges
            // is UB, and the result is the identity anyway — no-op, free.
            return Ok(());
        }
        // SAFETY: distinct allocations of equal length (checked above;
        // separate allocations never partially overlap).
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.alloc.ptr() as *const T,
                dst.alloc.ptr() as *mut T,
                src.len,
            );
        }
        let bytes = src.size_bytes();
        self.charge(
            OpKind::D2D,
            bytes as u64,
            0,
            perf::d2d_time_ns(&self.spec, bytes),
        );
        Ok(())
    }

    /// Copy a buffer to another device (peer-to-peer). The transfer is
    /// priced at the slower of the two devices' host links (a staged
    /// device-host-device path — conservative for systems without direct
    /// fabric) and charged to **both** device clocks. The paper lists
    /// multi-device support as future work; the simulator provides the
    /// substrate for it.
    pub fn copy_to_peer<T: Element>(
        &self,
        src: &DeviceBuffer<T>,
        peer: &Device,
        dst: &DeviceBuffer<T>,
    ) -> Result<(), SimError> {
        self.check_owned(src)?;
        peer.check_owned(dst)?;
        if src.len != dst.len {
            return Err(SimError::SizeMismatch {
                expected: dst.len,
                actual: src.len,
            });
        }
        if Arc::ptr_eq(&src.alloc, &dst.alloc) {
            // Same allocation on both ends (only possible when `peer` is
            // this device): a staged self-transfer is a programming error.
            return Err(SimError::OverlappingCopy);
        }
        // SAFETY: distinct allocations of equal length (checked above;
        // separate allocations never partially overlap).
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.alloc.ptr() as *const T,
                dst.alloc.ptr() as *mut T,
                src.len,
            );
        }
        let bytes = src.size_bytes();
        let ns = perf::transfer_time_ns(&self.spec, bytes)
            .max(perf::transfer_time_ns(&peer.spec, bytes));
        self.charge(OpKind::D2H, bytes as u64, 0, ns);
        peer.charge(OpKind::H2D, bytes as u64, 0, ns);
        Ok(())
    }

    /// A read-only view for kernel bodies (checked by the sanitizer when it
    /// is on at view-creation time).
    pub fn slice<T: Element>(&self, buf: &DeviceBuffer<T>) -> Result<DeviceSlice<T>, SimError> {
        self.check_owned(buf)?;
        let (tracker, meta) = self.checks(buf);
        Ok(DeviceSlice::new_tracked(buf, tracker, meta))
    }

    /// A writable view for kernel bodies (checked by the sanitizer when it
    /// is on at view-creation time).
    pub fn slice_mut<T: Element>(
        &self,
        buf: &DeviceBuffer<T>,
    ) -> Result<DeviceSliceMut<T>, SimError> {
        self.check_owned(buf)?;
        let (tracker, meta) = self.checks(buf);
        Ok(DeviceSliceMut::new_tracked(buf, tracker, meta))
    }

    /// What a new view of `buf` checks its accesses against: the race
    /// tracker and the allocation's metadata under the sanitizer, nothing
    /// otherwise.
    fn checks<T: Element>(
        &self,
        buf: &DeviceBuffer<T>,
    ) -> (Option<Arc<RaceTracker>>, Option<Arc<AllocMeta>>) {
        if self.sanitizer_enabled() {
            (Some(Arc::clone(&self.tracker)), buf.alloc.meta().cloned())
        } else {
            (None, None)
        }
    }

    fn check_owned<T: Element>(&self, buf: &DeviceBuffer<T>) -> Result<(), SimError> {
        if buf.device_id != self.id {
            return Err(SimError::WrongDevice {
                buffer_device: buf.device_id,
                this_device: self.id,
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Kernel launches
    // ------------------------------------------------------------------

    /// Launch a non-cooperative kernel: `body` runs once per simulated
    /// thread. Returns the modeled duration in nanoseconds.
    pub fn launch<F>(&self, cfg: LaunchConfig, cost: KernelCost, body: F) -> Result<u64, SimError>
    where
        F: Fn(&ThreadCtx) + Sync,
    {
        self.launch_phased(cfg, cost, &SinglePhase(body))
    }

    /// Functionally execute every block/thread of a launch (shared by the
    /// synchronous, asynchronous, and cooperative paths).
    ///
    /// Hot-path structure (see DESIGN.md §gpusim "execution hot path"):
    /// blocks are distributed in tuned multi-block chunks ([`block_chunk`]);
    /// each block runs out of its host thread's reusable [`arena`] (zero
    /// steady-state allocations); a plain launch hands every phase's
    /// declared prefix ([`PhasedKernel::active_threads`]) to the kernel in
    /// one [`PhasedKernel::run_phase`] call ([`run_phases`]), a sanitized
    /// one visits every thread of every phase through
    /// [`PhasedKernel::phase`].
    ///
    /// Non-cooperative kernels (single phase, zero-sized state, no shared
    /// memory) keep a branch of their own, without the arena, whose unit of
    /// work is a *band*: a run of x-adjacent blocks at one `(y, z)` of the
    /// grid, handed to [`PhasedKernel::run_band`] — whose provided body is
    /// the same [`run_phases`] per block, and which the covering kernel of
    /// `parallel_for` overrides to walk the band row by row. The pool loop
    /// runs over rows of blocks × segments per row, a segment being
    /// [`block_chunk`]'s blocks per grab (the whole row on a one-participant
    /// pool). Routed through the arena instead — even taken once per chunk
    /// of blocks rather than per block — an empty-bodied 1024 × 32 launch
    /// measured 35–55 ns → 1.5–1.8 µs: the arena's stores keep alive a
    /// block loop that otherwise compiles to nothing. (A one-word body,
    /// the benchmark's `gpusim.empty_launch_ns`, measured the same either
    /// way.) So the
    /// branch stays, and everything in it that divides does so by a value
    /// the optimizer can see is not zero: a panic edge would keep the same
    /// loop alive.
    fn execute_grid<K: PhasedKernel>(&self, cfg: LaunchConfig, kernel: &K) {
        let sanitize = self.sanitizer_enabled();
        if sanitize {
            self.tracker.begin_epoch();
        }
        let blocks = cfg.grid.count();
        let block_threads = cfg.block.count();
        let phases = kernel.num_phases();
        let chunk = block_chunk(blocks, block_threads, self.pool.num_threads());

        if phases == 1
            && std::mem::size_of::<K::State>() == 0
            && cfg.shared_mem_bytes == 0
            && !sanitize
        {
            let (gx, gy) = (cfg.grid.x as usize, (cfg.grid.y as usize).max(1));
            let segment = chunk.min(gx).max(1);
            let per_row = gx.div_ceil(segment).max(1);
            let bands = per_row * gy * cfg.grid.z as usize;
            // The grab stays `chunk` blocks where a row is shorter than that.
            let schedule = Schedule::Dynamic {
                chunk: (chunk / segment).max(1),
            };
            self.pool.parallel_for(bands, schedule, |band| {
                let (row, bx) = (band / per_row, band % per_row * segment);
                let first = BlockCtx {
                    block_idx: (bx as u32, (row % gy) as u32, (row / gy) as u32),
                    block_dim: cfg.block,
                    grid_dim: cfg.grid,
                };
                kernel.run_band(&first, segment.min(gx - bx));
            });
            return;
        }
        let schedule = Schedule::Dynamic { chunk };

        self.pool.parallel_for(blocks, schedule, |b| {
            arena::with_arena(|ar| {
                if sanitize {
                    run_block_tracked(kernel, ar, &cfg, phases, b, &self.sanitizer);
                } else {
                    ar.run_block::<K::State, _>(
                        cfg.shared_mem_bytes,
                        block_threads,
                        |states, shared| {
                            run_phases(kernel, &block_ctx(&cfg, b), phases, states, shared)
                        },
                    );
                }
            });
        });
        if sanitize {
            self.sanitizer.sweep_canaries();
            self.sanitizer.count_launch();
        }
    }

    /// Functional-only reference executor preserving the pre-arena semantics:
    /// a fresh `SharedMem` and a fresh state `Vec` per block, `unflatten`
    /// per thread. Kept as the differential-test oracle for the arena hot
    /// path (see `tests/proptest_sim.rs`); does not validate the launch
    /// config or charge the timeline.
    #[doc(hidden)]
    pub fn execute_grid_reference<K: PhasedKernel>(&self, cfg: LaunchConfig, kernel: &K) {
        let sanitize = self.sanitizer_enabled();
        if sanitize {
            self.tracker.begin_epoch();
        }
        let grid = cfg.grid;
        let block = cfg.block;
        let block_threads = block.count();
        let phases = kernel.num_phases();
        self.pool
            .parallel_for(grid.count(), Schedule::Dynamic { chunk: 0 }, |b| {
                let (bx, by, bz) = grid.unflatten(b);
                if sanitize {
                    sanitizer::set_active(true);
                }
                let shared = SharedMem::new(cfg.shared_mem_bytes);
                let mut states: Vec<K::State> = Vec::with_capacity(block_threads);
                states.resize_with(block_threads, K::State::default);
                for phase in 0..phases {
                    for (t, state) in states.iter_mut().enumerate() {
                        let (tx, ty, tz) = block.unflatten(t);
                        let ctx = ThreadCtx {
                            block_idx: (bx, by, bz),
                            thread_idx: (tx, ty, tz),
                            block_dim: block,
                            grid_dim: grid,
                        };
                        if sanitize {
                            racecheck::set_location(
                                ctx.global_linear() as u64,
                                b as u64,
                                phase as u32,
                            );
                        }
                        kernel.phase(phase, &ctx, state, &shared);
                    }
                    if sanitize {
                        self.sanitizer.check_block_phase((bx, by, bz), block, phase);
                    }
                }
                if sanitize {
                    racecheck::clear_location();
                    sanitizer::set_active(false);
                }
            });
    }

    /// Launch a cooperative kernel with barrier phases and per-block shared
    /// memory. Returns the modeled duration in nanoseconds.
    pub fn launch_phased<K>(
        &self,
        cfg: LaunchConfig,
        cost: KernelCost,
        kernel: &K,
    ) -> Result<u64, SimError>
    where
        K: PhasedKernel,
    {
        cfg.validate(&self.spec)?;
        // After validation (an injected fault is not a geometry error),
        // before execution (a failed launch must not run the kernel).
        let spike = self.inject_fault(FaultSite::Launch)?;
        let grid = cfg.grid;
        let block = cfg.block;
        self.execute_grid(cfg, kernel);

        let ns = perf::kernel_time_ns(&self.spec, grid, block, &cost) + spike as f64;
        let total_threads = cfg.total_threads() as u64;
        let bytes = (cost.bytes_per_thread() * total_threads as f64) as u64;
        Ok(self.charge(OpKind::Kernel, bytes, total_threads, ns))
    }

    // ------------------------------------------------------------------
    // Asynchronous (stream-ordered) work
    // ------------------------------------------------------------------

    /// Launch a kernel on a stream **asynchronously**: execution happens
    /// eagerly (results are visible immediately, as everywhere in the
    /// simulator), but the modeled time lands on the *stream's* clock, not
    /// the device clock — kernels on different streams overlap, kernels on
    /// one stream serialize. Call [`Device::sync_stream`] or
    /// [`Device::synchronize`] to join the stream time back into the
    /// device clock. The default stream is always synchronous; passing it
    /// here is equivalent to [`Device::launch`].
    ///
    /// The model ignores cross-stream bandwidth contention (each stream
    /// sees full device throughput); see `EXPERIMENTS.md`.
    pub fn launch_async<F>(
        &self,
        stream: &Stream,
        cfg: LaunchConfig,
        cost: KernelCost,
        body: F,
    ) -> Result<u64, SimError>
    where
        F: Fn(&ThreadCtx) + Sync,
    {
        if stream.is_default() {
            return self.launch(cfg, cost, body);
        }
        assert_eq!(stream.device_id(), self.id, "stream from another device");
        cfg.validate(&self.spec)?;
        // A `Fail` at the stream site rejects the async launch before it
        // executes; a `Delay` is a stream stall, extending the stream's
        // completion time.
        let stall = self.inject_fault(FaultSite::Stream)?;
        // Functional execution through the normal path, but capture the
        // modeled duration without advancing the device clock.
        let grid = cfg.grid;
        let block = cfg.block;
        self.execute_grid(cfg, &crate::phased::SinglePhase(body));
        let ns = perf::kernel_time_ns(&self.spec, grid, block, &cost).round() as u64 + stall;
        let mut streams = self.stream_clocks.lock();
        let issue = self.clock_ns();
        let start = streams.get(&stream.id()).copied().unwrap_or(0).max(issue);
        let end = start + ns;
        streams.insert(stream.id(), end);
        Ok(ns)
    }
}

impl Drop for Device {
    fn drop(&mut self) {
        // Leak report: a sanitized device dropping with buffers still live
        // prints the allocation table (backtraces included) to stderr.
        // Never panics — a Drop diagnostic must not abort the process.
        if self.sanitizer_enabled() {
            let report = self.sanitizer.report(self.id, &self.tracker);
            if !report.live_allocations.is_empty() {
                eprintln!("{report}");
            }
        }
    }
}

/// Block `b` (linear, `x` fastest) of the launch `cfg`.
#[inline]
fn block_ctx(cfg: &LaunchConfig, b: usize) -> BlockCtx {
    BlockCtx {
        block_idx: cfg.grid.unflatten(b),
        block_dim: cfg.block,
        grid_dim: cfg.grid,
    }
}

/// Execute one block of a sanitized launch: every thread of every phase is
/// visited through [`PhasedKernel::phase`], whatever the kernel declares or
/// overrides, so race, divergence and canary checks see the whole block and
/// attribute what they find to one thread. Each phase boundary gets its
/// barrier-arrival check, and each thread the kernel declared idle is
/// checked to be.
fn run_block_tracked<K: PhasedKernel>(
    kernel: &K,
    arena: &mut arena::LaunchArena,
    cfg: &LaunchConfig,
    phases: usize,
    b: usize,
    san: &Sanitizer,
) {
    let block = block_ctx(cfg, b);
    let block_idx = block.block_idx;
    let block_threads = cfg.block.count();
    sanitizer::set_active(true);
    arena.run_block::<K::State, _>(cfg.shared_mem_bytes, block_threads, |states, shared| {
        for phase in 0..phases {
            let declared = kernel.active_threads(phase, block_threads);
            let mut t = 0;
            block.for_each_thread(0..block_threads, |ctx| {
                racecheck::set_location(ctx.global_linear() as u64, b as u64, phase as u32);
                sanitizer::set_declared_idle((t >= declared).then_some(sanitizer::DeclaredIdle {
                    block_idx,
                    thread_idx: ctx.thread_idx,
                    phase,
                    declared,
                }));
                kernel.phase(phase, ctx, &mut states[t], shared);
                t += 1;
            });
            san.check_block_phase(block_idx, cfg.block, phase);
        }
    });
    racecheck::clear_location();
    sanitizer::set_active(false);
}

/// Blocks per dynamic-schedule grab for the block loop — and, for the
/// one-phase launches run by bands, the length of a band: a row of the grid
/// is cut into segments of this many x-adjacent blocks (the whole row where
/// it is shorter, or on a one-participant pool). A band is what a grab was,
/// so the tuning below carries over and there is no second number to tune.
///
/// Tuned against `ablate_sched` on a 4-participant pool (see EXPERIMENTS.md):
/// single-block grabs were ~4x slower than 16+-block grabs for cheap
/// 64-thread blocks (atomic RMW per grab dominates), while grabs past ~64
/// blocks bought nothing and risk tail imbalance. So: target ~2048 simulated
/// thread-iterations per grab, clamp to [4, 64] blocks, and never exceed an
/// equal share of the grid.
fn block_chunk(blocks: usize, block_threads: usize, participants: usize) -> usize {
    if participants <= 1 {
        // Serial pool: `parallel_for` runs inline and ignores the schedule.
        return blocks.max(1);
    }
    let target = (2048 / block_threads.max(1)).clamp(4, 64);
    target.min((blocks / participants).max(1))
}

/// Build a dedicated handle to the global pool. `ThreadPool` is not `Clone`;
/// devices share the process-global pool through a small adapter pool of
/// size 1 when the global pool cannot be wrapped in an `Arc` directly.
fn pool_handle() -> ThreadPool {
    // Each device gets its own pool sized like the machine; creating a pool
    // is cheap (threads park when idle) and keeps devices independent.
    ThreadPool::new(default_pool_threads())
}

fn default_pool_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    fn small_device() -> Device {
        Device::new(profiles::test_device())
    }

    #[test]
    fn alloc_upload_download_round_trip() {
        let dev = small_device();
        let host: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5).collect();
        let buf = dev.alloc_from(&host).unwrap();
        assert_eq!(buf.len(), 1000);
        let back = dev.read_vec(&buf).unwrap();
        assert_eq!(back, host);
        assert_eq!(dev.used_bytes(), 8000);
        drop(buf);
        assert_eq!(dev.used_bytes(), 0);
    }

    #[test]
    fn transfers_advance_clock() {
        let dev = small_device();
        assert_eq!(dev.clock_ns(), 0);
        let buf = dev.alloc_from(&vec![0u8; 1 << 20]).unwrap();
        let t1 = dev.clock_ns();
        assert!(t1 > 0, "H2D must cost time");
        let _ = dev.read_vec(&buf).unwrap();
        assert!(dev.clock_ns() > t1, "D2H must cost time");
        let log = dev.op_log();
        assert_eq!(log[0].kind, OpKind::H2D);
        assert_eq!(log[1].kind, OpKind::D2H);
        dev.reset_clock();
        assert_eq!(dev.clock_ns(), 0);
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        let dev = small_device(); // 16 MiB
        let err = dev.alloc::<f64>(10 << 20).unwrap_err();
        match err {
            SimError::OutOfMemory {
                requested,
                capacity,
                ..
            } => {
                assert_eq!(requested, 80 << 20);
                assert_eq!(capacity, 16 << 20);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Memory frees make room again.
        let a = dev.alloc::<u8>(12 << 20).unwrap();
        assert!(dev.alloc::<u8>(8 << 20).is_err());
        drop(a);
        assert!(dev.alloc::<u8>(8 << 20).is_ok());
    }

    #[test]
    fn wrong_device_buffers_rejected() {
        let a = small_device();
        let b = small_device();
        let buf = a.alloc::<f64>(10).unwrap();
        assert!(matches!(
            b.read_vec(&buf).unwrap_err(),
            SimError::WrongDevice { .. }
        ));
        assert!(matches!(
            b.slice(&buf).unwrap_err(),
            SimError::WrongDevice { .. }
        ));
    }

    #[test]
    fn size_mismatch_rejected() {
        let dev = small_device();
        let buf = dev.alloc::<f64>(10).unwrap();
        assert!(matches!(
            dev.upload(&buf, &[1.0; 9]).unwrap_err(),
            SimError::SizeMismatch {
                expected: 10,
                actual: 9
            }
        ));
        let mut out = vec![0.0; 11];
        assert!(dev.download(&buf, &mut out).is_err());
    }

    #[test]
    fn launch_executes_every_thread_once() {
        let dev = small_device();
        let n = 1000usize;
        let buf = dev.alloc::<u32>(n).unwrap();
        let view = dev.slice_mut(&buf).unwrap();
        let cfg = LaunchConfig::linear(n, 64);
        dev.launch(cfg, KernelCost::default(), |t| {
            let i = t.global_id_x();
            if i < n {
                view.set(i, view.get(i) + 1);
            }
        })
        .unwrap();
        let host = dev.read_vec(&buf).unwrap();
        assert!(host.iter().all(|&x| x == 1));
    }

    #[test]
    fn launch_advances_clock_by_at_least_overhead() {
        let dev = small_device();
        let before = dev.clock_ns();
        let ns = dev
            .launch(LaunchConfig::linear(64, 64), KernelCost::default(), |_| {})
            .unwrap();
        assert!(ns as f64 >= dev.spec().launch_overhead_ns);
        assert_eq!(dev.clock_ns(), before + ns);
    }

    #[test]
    fn invalid_launch_rejected_before_execution() {
        let dev = small_device();
        let ran = std::sync::atomic::AtomicBool::new(false);
        let err = dev
            .launch(
                LaunchConfig::new(1u32, 128u32), // limit is 64
                KernelCost::default(),
                |_| ran.store(true, Ordering::Relaxed),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidLaunch { .. }));
        assert!(!ran.load(Ordering::Relaxed));
    }

    #[test]
    fn two_d_launch_covers_plane() {
        let dev = small_device();
        let (m, n) = (30usize, 20usize);
        let buf = dev.alloc::<u32>(m * n).unwrap();
        let view = dev.slice_mut(&buf).unwrap();
        let cfg = LaunchConfig::tiled_2d(m, n, 8, 8);
        dev.launch(cfg, KernelCost::default(), |t| {
            let (i, j) = (t.global_id_x(), t.global_id_y());
            if i < m && j < n {
                view.set(j * m + i, (j * m + i) as u32);
            }
        })
        .unwrap();
        let host = dev.read_vec(&buf).unwrap();
        for (idx, v) in host.iter().enumerate() {
            assert_eq!(*v, idx as u32);
        }
    }

    #[test]
    fn bands_cut_each_row_of_blocks_into_segments_of_the_grab() {
        /// First block and length of a band.
        type Band = ((u32, u32, u32), usize);
        /// Records the bands it is handed; a band's blocks do nothing.
        struct Bands(std::sync::Mutex<Vec<Band>>);
        impl PhasedKernel for Bands {
            type State = ();
            fn num_phases(&self) -> usize {
                1
            }
            fn phase(&self, _: usize, _: &ThreadCtx, _: &mut (), _: &SharedMem) {
                panic!("a plain one-phase launch is run by bands");
            }
            fn run_band(&self, first: &BlockCtx, blocks: usize) {
                self.0.lock().unwrap().push((first.block_idx, blocks));
            }
        }
        // 70 × 2 × 3 blocks of 8 × 8 threads.
        let cfg = LaunchConfig::new((70u32, 2u32, 3u32), (8u32, 8u32));
        for threads in [1, 2, 4] {
            let dev =
                Device::with_pool(profiles::test_device(), Arc::new(ThreadPool::new(threads)));
            let kernel = Bands(Default::default());
            dev.launch_phased(cfg, KernelCost::default(), &kernel)
                .unwrap();
            let mut got = kernel.0.into_inner().unwrap();
            got.sort_by_key(|&((x, y, z), _)| (z, y, x));
            // One participant: the row. More: the grab — 32 blocks of 64
            // threads — twice, and the six blocks left.
            let segment = block_chunk(cfg.grid.count(), cfg.block.count(), threads).min(70);
            assert_eq!(segment, if threads == 1 { 70 } else { 32 });
            let mut want = Vec::new();
            for z in 0..3 {
                for y in 0..2 {
                    for x in (0..70).step_by(segment) {
                        want.push(((x as u32, y, z), segment.min(70 - x)));
                    }
                }
            }
            assert_eq!(got, want, "{threads} participants");
        }
    }

    #[test]
    fn phased_kernel_tree_reduction() {
        // The paper's Fig. 3 structure: products to shared memory, tree
        // reduce, one partial per block.
        struct BlockDot {
            n: usize,
            x: DeviceSlice<f64>,
            y: DeviceSlice<f64>,
            out: DeviceSliceMut<f64>,
            steps: usize,
            block_size: usize,
        }
        impl PhasedKernel for BlockDot {
            type State = ();
            fn num_phases(&self) -> usize {
                2 + self.steps
            }
            fn phase(&self, phase: usize, ctx: &ThreadCtx, _s: &mut (), shared: &SharedMem) {
                let ti = ctx.thread_linear();
                if phase == 0 {
                    let i = ctx.global_id_x();
                    let v = if i < self.n {
                        self.x.get(i) * self.y.get(i)
                    } else {
                        0.0
                    };
                    shared.set::<f64>(ti, v);
                } else if phase <= self.steps {
                    let half = self.block_size >> phase;
                    if ti < half {
                        let a = shared.get::<f64>(ti);
                        let b = shared.get::<f64>(ti + half);
                        shared.set::<f64>(ti, a + b);
                    }
                } else if ti == 0 {
                    self.out.set(ctx.block_linear(), shared.get::<f64>(0));
                }
            }
        }
        let dev = small_device();
        let n = 1000usize;
        let hx: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let hy: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        let expected: f64 = hx.iter().zip(&hy).map(|(a, b)| a * b).sum();
        let x = dev.alloc_from(&hx).unwrap();
        let y = dev.alloc_from(&hy).unwrap();
        let block_size = 64usize;
        let blocks = n.div_ceil(block_size);
        let out = dev.alloc::<f64>(blocks).unwrap();
        let kernel = BlockDot {
            n,
            x: dev.slice(&x).unwrap(),
            y: dev.slice(&y).unwrap(),
            out: dev.slice_mut(&out).unwrap(),
            steps: block_size.trailing_zeros() as usize,
            block_size,
        };
        let cfg =
            LaunchConfig::new(blocks as u32, block_size as u32).with_shared_mem(block_size * 8);
        dev.launch_phased(cfg, KernelCost::memory_bound(16.0, 8.0), &kernel)
            .unwrap();
        let partials = dev.read_vec(&out).unwrap();
        let total: f64 = partials.iter().sum();
        assert!((total - expected).abs() < 1e-9, "{total} vs {expected}");
    }

    #[test]
    fn racecheck_catches_overlapping_writes() {
        let dev = small_device();
        dev.set_sanitizer(true);
        let buf = dev.alloc::<f64>(8).unwrap();
        let view = dev.slice_mut(&buf).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.launch(LaunchConfig::linear(64, 64), KernelCost::default(), |_t| {
                view.set(0, 1.0); // every simulated thread writes element 0
            })
        }));
        let msg = result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("both wrote element 0"), "{msg}");
    }

    #[test]
    fn racecheck_passes_disjoint_writes() {
        let dev = small_device();
        dev.set_sanitizer(true);
        let n = 128usize;
        let buf = dev.alloc::<f64>(n).unwrap();
        let view = dev.slice_mut(&buf).unwrap();
        dev.launch(LaunchConfig::linear(n, 64), KernelCost::default(), |t| {
            let i = t.global_id_x();
            if i < n {
                view.set(i, 1.0);
            }
        })
        .unwrap();
    }

    #[test]
    fn d2d_copy_and_scalar_read() {
        let dev = small_device();
        let a = dev.alloc_from(&vec![3.5f64; 64]).unwrap();
        let b = dev.alloc::<f64>(64).unwrap();
        dev.copy(&a, &b).unwrap();
        assert_eq!(dev.read_scalar(&b, 63).unwrap(), 3.5);
        assert!(dev.read_scalar(&b, 64).is_err());
        let c = dev.alloc::<f64>(32).unwrap();
        assert!(dev.copy(&a, &c).is_err());
    }

    #[test]
    fn events_measure_kernels() {
        let dev = small_device();
        let e0 = dev.record_event();
        dev.launch(
            LaunchConfig::linear(4096, 64),
            KernelCost::default(),
            |_| {},
        )
        .unwrap();
        let e1 = dev.record_event();
        assert!(e0.elapsed_ns(&e1) > 0);
        dev.synchronize();
    }

    #[test]
    fn op_log_is_a_bounded_ring() {
        let dev = small_device();
        // More charges than the cap: the log must keep only the newest.
        for i in 0..(OP_LOG_CAP + 100) {
            dev.charge(OpKind::Sync, i as u64, 0, 1.0);
        }
        let log = dev.op_log();
        assert_eq!(log.len(), OP_LOG_CAP);
        assert_eq!(log.last().unwrap().bytes, (OP_LOG_CAP + 99) as u64);
        assert_eq!(log[0].bytes, 100, "oldest entries evicted");
    }

    #[test]
    fn streams_exist_and_are_distinct() {
        let dev = small_device();
        assert!(dev.default_stream().is_default());
        let s = dev.create_stream();
        assert!(!s.is_default());
        assert_eq!(s.device_id(), dev.id());
    }
}

#[cfg(test)]
mod peer_tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn peer_copy_moves_data_and_charges_both_clocks() {
        let a = Device::new(profiles::test_device());
        let b = Device::new(profiles::test_device());
        let src = a.alloc_from(&vec![7.5f64; 1024]).unwrap();
        let dst = b.alloc::<f64>(1024).unwrap();
        let (ca0, cb0) = (a.clock_ns(), b.clock_ns());
        a.copy_to_peer(&src, &b, &dst).unwrap();
        assert!(a.clock_ns() > ca0, "source clock advances");
        assert!(b.clock_ns() > cb0, "destination clock advances");
        assert!(b.read_vec(&dst).unwrap().iter().all(|&v| v == 7.5));
    }

    #[test]
    fn peer_copy_validates_ownership_and_sizes() {
        let a = Device::new(profiles::test_device());
        let b = Device::new(profiles::test_device());
        let src = a.alloc::<f64>(8).unwrap();
        let wrong_len = b.alloc::<f64>(9).unwrap();
        assert!(matches!(
            a.copy_to_peer(&src, &b, &wrong_len).unwrap_err(),
            SimError::SizeMismatch { .. }
        ));
        let on_a = a.alloc::<f64>(8).unwrap();
        assert!(matches!(
            a.copy_to_peer(&src, &b, &on_a).unwrap_err(),
            SimError::WrongDevice { .. }
        ));
        let on_b = b.alloc::<f64>(8).unwrap();
        assert!(matches!(
            b.copy_to_peer(&src, &a, &on_b).unwrap_err(),
            SimError::WrongDevice { .. }
        ));
    }

    #[test]
    fn peer_copy_cost_is_the_slower_link() {
        let fast = Device::new(profiles::nvidia_a100()); // 25 GB/s link
        let slow = Device::new(profiles::amd_mi100()); // 16 GB/s link
        let bytes = 1 << 24;
        let src = fast.alloc::<u8>(bytes).unwrap();
        let dst = slow.alloc::<u8>(bytes).unwrap();
        let c0 = fast.clock_ns();
        fast.copy_to_peer(&src, &slow, &dst).unwrap();
        let elapsed = fast.clock_ns() - c0;
        let slow_link = crate::perf::transfer_time_ns(slow.spec(), bytes);
        assert!(
            (elapsed as f64 - slow_link).abs() < 2.0,
            "{elapsed} vs {slow_link}"
        );
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use crate::profiles;

    fn dev_and_work() -> (Device, LaunchConfig, KernelCost) {
        let dev = Device::new(profiles::test_device());
        // Big enough that kernel time dominates launch overhead.
        let cfg = LaunchConfig::linear(1 << 16, 64);
        let cost = KernelCost::memory_bound(64.0, 64.0);
        (dev, cfg, cost)
    }

    #[test]
    fn different_streams_overlap() {
        let (dev, cfg, cost) = dev_and_work();
        let s1 = dev.create_stream();
        let s2 = dev.create_stream();
        let ns1 = dev.launch_async(&s1, cfg, cost, |_| {}).unwrap();
        let ns2 = dev.launch_async(&s2, cfg, cost, |_| {}).unwrap();
        assert_eq!(dev.clock_ns(), 0, "async launches leave the device clock");
        assert!(dev.stream_clock_ns(&s1).is_some());
        dev.synchronize();
        let elapsed = dev.clock_ns();
        // Overlapped: total = max, not sum.
        assert_eq!(
            elapsed,
            ns1.max(ns2),
            "overlap expected: {elapsed} vs {ns1}+{ns2}"
        );
        assert!(dev.stream_clock_ns(&s1).is_none(), "sync clears streams");
    }

    #[test]
    fn same_stream_serializes() {
        let (dev, cfg, cost) = dev_and_work();
        let s = dev.create_stream();
        let ns1 = dev.launch_async(&s, cfg, cost, |_| {}).unwrap();
        let ns2 = dev.launch_async(&s, cfg, cost, |_| {}).unwrap();
        dev.sync_stream(&s);
        assert_eq!(dev.clock_ns(), ns1 + ns2);
    }

    #[test]
    fn default_stream_stays_synchronous() {
        let (dev, cfg, cost) = dev_and_work();
        let default = dev.default_stream();
        let ns = dev.launch_async(&default, cfg, cost, |_| {}).unwrap();
        assert_eq!(dev.clock_ns(), ns, "default stream charges immediately");
    }

    #[test]
    fn async_work_issued_after_sync_starts_later() {
        let (dev, cfg, cost) = dev_and_work();
        // Some synchronous work first.
        let sync_ns = dev.launch(cfg, cost, |_| {}).unwrap();
        let s = dev.create_stream();
        let async_ns = dev.launch_async(&s, cfg, cost, |_| {}).unwrap();
        dev.sync_stream(&s);
        // The async kernel could not start before its issue time.
        assert_eq!(dev.clock_ns(), sync_ns + async_ns);
    }

    #[test]
    fn async_results_are_visible_immediately() {
        let dev = Device::new(profiles::test_device());
        let buf = dev.alloc::<u32>(256).unwrap();
        let v = dev.slice_mut(&buf).unwrap();
        let s = dev.create_stream();
        dev.launch_async(
            &s,
            LaunchConfig::linear(256, 64),
            KernelCost::default(),
            |t| {
                let i = t.global_id_x();
                if i < 256 {
                    v.set(i, i as u32);
                }
            },
        )
        .unwrap();
        // Functional eagerness: data is there before any sync.
        let host = dev.read_vec(&buf).unwrap();
        for (i, x) in host.iter().enumerate() {
            assert_eq!(*x, i as u32);
        }
        dev.synchronize();
    }

    #[test]
    #[should_panic(expected = "another device")]
    fn cross_device_stream_rejected() {
        let a = Device::new(profiles::test_device());
        let b = Device::new(profiles::test_device());
        let s = b.create_stream();
        let _ = a.launch_async(
            &s,
            LaunchConfig::linear(64, 64),
            KernelCost::default(),
            |_| {},
        );
    }
}

#[cfg(test)]
mod sanitizer_tests {
    use super::*;
    use crate::profiles;

    fn small_device() -> Device {
        Device::new(profiles::test_device())
    }

    // ---- soundness regression tests (PR 3) ------------------------------

    #[test]
    fn overflowing_alloc_is_oom_not_wraparound() {
        let dev = small_device();
        // len * size_of::<f64>() overflows usize; before the checked_mul fix
        // this wrapped to a tiny byte count and "succeeded".
        let err = dev.alloc::<f64>(usize::MAX / 4).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }), "{err:?}");
        assert_eq!(dev.used_bytes(), 0);
    }

    #[test]
    fn self_copy_is_a_free_noop() {
        let dev = small_device();
        let a = dev.alloc_from(&vec![2.5f64; 64]).unwrap();
        let clock = dev.clock_ns();
        dev.copy(&a, &a).unwrap();
        assert_eq!(dev.clock_ns(), clock, "self-copy must not charge time");
        assert_eq!(dev.read_vec(&a).unwrap(), vec![2.5f64; 64]);
    }

    #[test]
    fn peer_self_copy_is_rejected() {
        let dev = small_device();
        let a = dev.alloc_from(&[1u32; 16]).unwrap();
        assert_eq!(
            dev.copy_to_peer(&a, &dev, &a).unwrap_err(),
            SimError::OverlappingCopy
        );
    }

    #[test]
    fn read_vec_round_trips_niche_types() {
        use std::num::NonZeroU32;
        let dev = small_device();
        // `vec![zeroed; n]` would be instant UB for a niche type like
        // NonZeroU32; read_vec must build the Vec without materializing
        // zeroed elements.
        let host: Vec<NonZeroU32> = (1..=257u32).map(|i| NonZeroU32::new(i).unwrap()).collect();
        let buf = dev.alloc_from(&host).unwrap();
        assert_eq!(dev.read_vec(&buf).unwrap(), host);
    }

    #[test]
    fn zero_len_alloc_charges_nothing() {
        let dev = small_device();
        let buf = dev.alloc::<f64>(0).unwrap();
        assert_eq!(dev.used_bytes(), 0);
        assert!(dev.read_vec(&buf).unwrap().is_empty());
        drop(buf);
        assert_eq!(dev.used_bytes(), 0);
    }

    // ---- sanitizer (simsan) tests ---------------------------------------

    /// Unwrap a panic payload into its message.
    fn panic_msg(err: Box<dyn std::any::Any + Send>) -> String {
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn sanitizer_oob_access_names_the_allocation() {
        let dev = small_device();
        dev.set_sanitizer(true);
        let n = 8usize;
        let buf = dev.alloc::<f64>(n).unwrap();
        let view = dev.slice_mut(&buf).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.launch(LaunchConfig::linear(64, 64), KernelCost::default(), |t| {
                // Classic missing bounds guard: threads past n write anyway.
                view.set(t.global_id_x(), 1.0);
            })
        }))
        .unwrap_err();
        let msg = panic_msg(err);
        assert!(msg.contains("simsan"), "{msg}");
        assert!(msg.contains("out of bounds"), "{msg}");
        assert!(msg.contains("allocation #"), "{msg}");
    }

    #[test]
    fn sanitizer_detects_read_write_race() {
        let dev = small_device();
        dev.set_sanitizer(true);
        let buf = dev.alloc::<f64>(8).unwrap();
        let view = dev.slice_mut(&buf).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.launch(LaunchConfig::linear(64, 64), KernelCost::default(), |t| {
                // Thread 0 writes the element every other thread reads, with
                // no barrier between — a read-write race.
                if t.global_id_x() == 0 {
                    view.set(0, 1.0);
                } else {
                    let _ = view.get(0);
                }
            })
        }))
        .unwrap_err();
        let msg = panic_msg(err);
        assert!(msg.contains("read-write race"), "{msg}");
    }

    #[test]
    fn sanitizer_allows_barrier_separated_read_write() {
        struct Broadcast {
            data: DeviceSliceMut<f64>,
        }
        impl PhasedKernel for Broadcast {
            type State = f64;
            fn num_phases(&self) -> usize {
                2
            }
            fn phase(&self, phase: usize, ctx: &ThreadCtx, s: &mut f64, _sh: &SharedMem) {
                let ti = ctx.thread_linear();
                if phase == 0 {
                    // Every thread reads element 0...
                    *s = self.data.get(0);
                    ctx.barrier();
                } else if ti == 1 {
                    // ...and after the implicit barrier one thread may
                    // legally overwrite it.
                    self.data.set(0, *s + 1.0);
                }
            }
        }
        let dev = small_device();
        dev.set_sanitizer(true);
        let buf = dev.alloc_from(&[41.0f64; 8]).unwrap();
        let kernel = Broadcast {
            data: dev.slice_mut(&buf).unwrap(),
        };
        dev.launch_phased(
            LaunchConfig::new(1u32, 64u32),
            KernelCost::default(),
            &kernel,
        )
        .unwrap();
        assert_eq!(dev.read_scalar(&buf, 0).unwrap(), 42.0);
    }

    #[test]
    fn sanitizer_detects_barrier_divergence() {
        struct Divergent;
        impl PhasedKernel for Divergent {
            type State = ();
            fn num_phases(&self) -> usize {
                2
            }
            fn phase(&self, phase: usize, ctx: &ThreadCtx, _s: &mut (), _sh: &SharedMem) {
                // `__syncthreads` inside a divergent branch: only the first
                // half of the block arrives.
                if phase == 0 && ctx.thread_linear() < 32 {
                    ctx.barrier();
                }
            }
        }
        let dev = small_device();
        dev.set_sanitizer(true);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.launch_phased(
                LaunchConfig::new(2u32, 64u32),
                KernelCost::default(),
                &Divergent,
            )
        }))
        .unwrap_err();
        let msg = panic_msg(err);
        assert!(msg.contains("barrier divergence"), "{msg}");
        assert!(msg.contains("32 of 64"), "{msg}");
    }

    #[test]
    fn sanitizer_full_barrier_is_clean() {
        struct Uniform;
        impl PhasedKernel for Uniform {
            type State = ();
            fn num_phases(&self) -> usize {
                2
            }
            fn phase(&self, _phase: usize, ctx: &ThreadCtx, _s: &mut (), _sh: &SharedMem) {
                ctx.barrier();
            }
        }
        let dev = small_device();
        dev.set_sanitizer(true);
        dev.launch_phased(
            LaunchConfig::new(2u32, 64u32),
            KernelCost::default(),
            &Uniform,
        )
        .unwrap();
        let report = dev.sanitizer_report().unwrap();
        assert!(report.barriers_checked > 0);
    }

    #[test]
    fn sanitizer_reports_leaked_allocations() {
        let dev = small_device();
        dev.set_sanitizer(true);
        let buf = dev.alloc_from(&vec![0u8; 4096]).unwrap();
        std::mem::forget(buf); // deliberate leak
        let report = dev.sanitizer_report().unwrap();
        assert_eq!(report.live_allocations.len(), 1);
        assert_eq!(report.bytes_outstanding, 4096);
        assert!(report.to_string().contains("LEAK"), "{report}");
        // Freed buffers drop out of the report.
        let ok = dev.alloc::<f64>(8).unwrap();
        drop(ok);
        assert_eq!(dev.sanitizer_report().unwrap().live_allocations.len(), 1);
        // Silence the leak report in Device::drop for this deliberate leak.
        dev.set_sanitizer(false);
    }

    #[test]
    fn sanitizer_report_is_none_when_disabled() {
        let dev = small_device();
        assert!(dev.sanitizer_report().is_none());
        dev.set_sanitizer(true);
        let report = dev.sanitizer_report().unwrap();
        assert_eq!(report.bytes_outstanding, 0);
        assert!(report.to_string().contains("no leaks"), "{report}");
    }

    #[test]
    fn try_new_rejects_bad_spec() {
        let mut spec = profiles::test_device();
        spec.simt_width = 0;
        match Device::try_new(spec) {
            Err(SimError::InvalidSpec(reason)) => {
                assert!(reason.contains("simt_width"), "{reason}")
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        assert!(Device::try_new(profiles::test_device()).is_ok());
    }

    #[test]
    fn scripted_chaos_fails_the_third_alloc_as_oom() {
        let dev = small_device();
        dev.set_chaos(FaultPlan::parse("alloc:nth-3").unwrap());
        assert!(dev.alloc::<f64>(8).is_ok());
        assert!(dev.alloc::<f64>(8).is_ok());
        let err = dev.alloc::<f64>(8).unwrap_err();
        assert!(
            matches!(err, SimError::OutOfMemory { requested: 64, .. }),
            "injected alloc fault must present as OOM, got {err:?}"
        );
        assert!(err.is_transient());
        // The schedule consumed its nth-3: the retry succeeds.
        assert!(dev.alloc::<f64>(8).is_ok());
        let log = dev.fault_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].site, FaultSite::Alloc);
        assert_eq!(log[0].occurrence, 3);
    }

    #[test]
    fn scripted_chaos_rejects_launches_before_side_effects() {
        let dev = small_device();
        dev.set_chaos(FaultPlan::parse("launch:nth-1").unwrap());
        let out = dev.alloc::<f64>(64).unwrap();
        let ov = dev.slice_mut(&out).unwrap();
        let run = || {
            dev.launch(LaunchConfig::new(1u32, 64u32), KernelCost::default(), |t| {
                ov.set(t.global_linear(), 1.0);
            })
        };
        let err = run().unwrap_err();
        assert!(matches!(
            err,
            SimError::Faulted {
                site: "launch",
                occurrence: 1
            }
        ));
        // The failed launch must not have executed the kernel body…
        assert_eq!(dev.read_scalar(&out, 0).unwrap(), 0.0);
        // …and the retry runs it for real.
        run().unwrap();
        assert_eq!(dev.read_scalar(&out, 0).unwrap(), 1.0);
    }

    #[test]
    fn seeded_chaos_is_deterministic_across_devices() {
        let run = || {
            let dev = small_device();
            dev.set_chaos(FaultPlan::seeded(7));
            for _ in 0..2000 {
                let _ = dev.alloc::<u8>(16).map(|b| dev.read_scalar(&b, 0));
            }
            dev.fault_log()
        };
        let (a, b) = (run(), run());
        assert!(!a.is_empty(), "2000 draws per site must inject something");
        assert_eq!(a, b, "same seed, same fault schedule");
        // Disarming clears the engine (and its log).
        let dev = small_device();
        dev.set_chaos(FaultPlan::seeded(7));
        dev.clear_chaos();
        assert!(!dev.chaos_enabled());
        assert!(dev.fault_log().is_empty());
        assert!(dev.alloc::<u8>(1 << 20).is_ok());
    }

    #[test]
    fn chaos_delay_charges_the_clock_but_succeeds() {
        let dev = small_device();
        let buf = dev.alloc_from(&vec![0u8; 1024]).unwrap();
        let clean = dev.clock_ns();
        let dev2 = small_device();
        dev2.set_chaos(FaultPlan::parse("h2d:always:delay-20000").unwrap());
        let buf2 = dev2.alloc::<u8>(1024).unwrap();
        dev2.upload(&buf2, &vec![0u8; 1024]).unwrap();
        assert_eq!(
            dev2.clock_ns(),
            clean + 20_000,
            "a latency spike is the clean transfer plus the injected stall"
        );
        assert_eq!(dev2.read_vec(&buf2).unwrap(), dev.read_vec(&buf).unwrap());
        assert_eq!(
            dev2.fault_log()[0].action,
            FaultAction::Delay(20_000),
            "spikes appear in the fault log"
        );
    }
}
