//! The device memory heap: allocations, typed buffers, and kernel-side
//! slices.
//!
//! Device memory is modeled as real host allocations owned by the simulated
//! device, **distinct from the caller's data**: the only way data crosses the
//! boundary is through the device's upload/download methods, which charge the
//! link-transfer cost — exactly the discipline a discrete GPU imposes. A
//! [`DeviceReservation`] is the one exception: heap accounting with no host
//! block, for callers that model residency but keep the data themselves.
//!
//! Under the sanitizer (see [`crate::Device::set_sanitizer`]) every
//! allocation additionally carries [`AllocMeta`]: live/freed state, canary
//! regions flanking the payload, and an allocation-site backtrace, so
//! out-of-bounds accesses, use-after-free through stale slices, and leaks
//! produce diagnostics naming the allocation.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use racc_core::buffer::{BlockSequence, LINE_BYTES, PLACED_MIN_BYTES, WAY_BYTES};
use racc_core::racecheck::RaceTracker;

use crate::sanitizer::{self, AllocMeta, CANARY_BYTES, CANARY_PATTERN};

/// Cold, outlined bounds failure (keeps formatting out of hot accessors).
#[cold]
#[inline(never)]
fn oob(i: usize, len: usize) -> ! {
    panic!("device access {i} out of bounds (len {len})");
}

/// Bounds failure naming the sanitized allocation.
#[cold]
#[inline(never)]
fn oob_named(i: usize, len: usize, meta: &AllocMeta) -> ! {
    panic!(
        "simsan: device access {i} out of bounds (len {len}) for {}",
        meta.label()
    );
}

/// Use-after-free through a slice whose owning buffer has dropped.
#[cold]
#[inline(never)]
fn use_after_free(meta: &AllocMeta) -> ! {
    panic!(
        "simsan: use-after-free: access through a stale slice of freed {}",
        meta.label()
    );
}

/// A sanitized read of element `i` of the allocation at `base`: the reader
/// must be a thread its kernel declared active, and the read is raced
/// against the launch's writes. Out of line, so the accessors stay small.
#[inline(never)]
fn tracked_read(tracker: &RaceTracker, base: usize, i: usize) {
    sanitizer::check_declared_active("read device memory");
    tracker.record_read(base, i);
}

/// A sanitized write: [`tracked_read`]'s checks, against reads and writes.
#[inline(never)]
fn tracked_write(tracker: &RaceTracker, base: usize, i: usize) {
    sanitizer::check_declared_active("wrote device memory");
    tracker.record_write(base, i);
}

/// Marker trait for element types storable in device memory. Blanket-implemented
/// for all `Copy + Send + Sync + 'static` types.
pub trait Element: Copy + Send + Sync + 'static {}
impl<T: Copy + Send + Sync + 'static> Element for T {}

/// Where device payloads are placed: [`racc_core::buffer::BlockSequence`]'s
/// rule, with a sequence of its own beside the array storage's.
static BLOCKS: BlockSequence = BlockSequence::new();

/// One raw allocation on the device heap. Deallocates itself (and returns
/// its bytes to the heap accounting) when the last handle drops.
pub(crate) struct Allocation {
    /// Payload pointer, [`BlockSequence::skew`]ed into the host block (a
    /// canary region precedes and follows the payload when sanitized).
    ptr: *mut u8,
    /// Base of the real host allocation; null when nothing was allocated
    /// (zero-byte payloads and reservations are truly dangling).
    raw: *mut u8,
    /// Payload bytes charged to the device heap.
    bytes: usize,
    /// Layout of the real allocation behind `raw`.
    layout: Layout,
    used_counter: Arc<AtomicUsize>,
    /// Sanitizer metadata; present iff the allocation was made under the
    /// sanitizer (canary regions flank the payload when a host block backs
    /// it).
    meta: Option<Arc<AllocMeta>>,
}

// SAFETY: access to the allocation's memory is coordinated by the launch
// protocol (disjoint writes per simulated thread); the pointer itself may be
// shared freely.
unsafe impl Send for Allocation {}
unsafe impl Sync for Allocation {}

impl Allocation {
    /// Allocate `bytes` zeroed bytes, charging `used_counter` the payload
    /// only; `None` when the host cannot provide them. With `meta`, the
    /// payload is flanked by [`CANARY_BYTES`] canary regions (checker
    /// overhead, not user memory). Zero-byte allocations perform **no**
    /// host allocation: they are [`Allocation::reserve`]s of 0 bytes.
    pub(crate) fn new(
        bytes: usize,
        used_counter: Arc<AtomicUsize>,
        meta: Option<Arc<AllocMeta>>,
    ) -> Option<Self> {
        if bytes == 0 {
            return Some(Self::reserve(0, used_counter, meta));
        }
        let canary = if meta.is_some() { CANARY_BYTES } else { 0 };
        let slack = if bytes >= PLACED_MIN_BYTES {
            WAY_BYTES
        } else {
            LINE_BYTES
        };
        // Asking the allocator for 64-byte alignment makes std zero the
        // block by hand (`aligned_alloc` + `memset`), which touches every
        // page of memory nobody may ever read. At the platform's natural
        // 16 it takes `calloc`, whose large blocks are untouched zero pages;
        // the payload is aligned inside the slack instead.
        let layout = bytes
            .checked_add(2 * canary + slack)
            .and_then(|total| Layout::from_size_align(total, 16).ok())?;
        // SAFETY: layout has non-zero size.
        let raw = unsafe { alloc_zeroed(layout) };
        if raw.is_null() {
            return None;
        }
        let skew = BLOCKS.skew(raw.addr() + canary, bytes);
        // SAFETY: the skew is below the slack, so the canary regions and
        // the payload between them are inside the block.
        let ptr = unsafe {
            let ptr = raw.add(canary + skew);
            std::ptr::write_bytes(ptr.sub(canary), CANARY_PATTERN, canary);
            std::ptr::write_bytes(ptr.add(bytes), CANARY_PATTERN, canary);
            ptr
        };
        used_counter.fetch_add(bytes, Ordering::Relaxed);
        Some(Allocation {
            ptr,
            raw,
            bytes,
            layout,
            used_counter,
            meta,
        })
    }

    /// Charge `used_counter` `bytes` with no host block behind them: the
    /// pointer is dangling (well-aligned, never dereferenced), and `Drop`,
    /// the accounting and the canary sweep take the null-`raw` path they
    /// take for a zero-byte payload.
    pub(crate) fn reserve(
        bytes: usize,
        used_counter: Arc<AtomicUsize>,
        meta: Option<Arc<AllocMeta>>,
    ) -> Self {
        used_counter.fetch_add(bytes, Ordering::Relaxed);
        Allocation {
            ptr: std::ptr::without_provenance_mut(LINE_BYTES),
            raw: std::ptr::null_mut(),
            bytes,
            layout: Layout::new::<u8>(),
            used_counter,
            meta,
        }
    }

    pub(crate) fn ptr(&self) -> *mut u8 {
        self.ptr
    }

    pub(crate) fn meta(&self) -> Option<&Arc<AllocMeta>> {
        self.meta.as_ref()
    }

    /// Check both canary regions; `Some(description)` on corruption. Only
    /// sanitized allocations with a host block have canaries.
    pub(crate) fn verify_canaries(&self) -> Option<String> {
        let meta = self.meta.as_ref()?;
        if self.raw.is_null() {
            return None;
        }
        for k in 0..CANARY_BYTES {
            // SAFETY: both canary regions are within the allocation.
            let before = unsafe { *self.ptr.sub(CANARY_BYTES).add(k) };
            if before != CANARY_PATTERN {
                return Some(format!(
                    "{}: canary before the payload corrupted {} B before the start \
                     (wild out-of-bounds write)",
                    meta.label(),
                    CANARY_BYTES - k
                ));
            }
            let after = unsafe { *self.ptr.add(self.bytes + k) };
            if after != CANARY_PATTERN {
                return Some(format!(
                    "{}: canary after the payload corrupted {} B past the end \
                     (wild out-of-bounds write)",
                    meta.label(),
                    k
                ));
            }
        }
        None
    }
}

impl Drop for Allocation {
    fn drop(&mut self) {
        // Last chance to catch wild writes on allocations that die between
        // launch-end sweeps. Never panic while already unwinding.
        if let Some(desc) = self.verify_canaries() {
            if std::thread::panicking() {
                eprintln!("simsan: heap corruption (detected during unwind): {desc}");
            } else {
                // Deallocate first so the panic does not leak the block.
                // SAFETY: allocated with this exact layout in `new`.
                unsafe { dealloc(self.raw, self.layout) };
                self.used_counter.fetch_sub(self.bytes, Ordering::Relaxed);
                panic!("simsan: heap corruption: {desc}");
            }
        }
        self.used_counter.fetch_sub(self.bytes, Ordering::Relaxed);
        if !self.raw.is_null() {
            // SAFETY: allocated with this exact layout in `new`.
            unsafe { dealloc(self.raw, self.layout) };
        }
    }
}

/// An owning, typed handle to device memory, created by
/// [`crate::Device::alloc`] / [`crate::Device::alloc_from`].
///
/// Dropping the buffer releases the memory once no [`DeviceSlice`]s remain.
/// The handle is tied to its device: passing it to another device is an
/// error, as with real driver handles.
pub struct DeviceBuffer<T: Element> {
    pub(crate) alloc: Arc<Allocation>,
    pub(crate) len: usize,
    pub(crate) device_id: u64,
    pub(crate) _marker: PhantomData<T>,
}

impl<T: Element> DeviceBuffer<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size in bytes (saturating: a buffer this size can never actually be
    /// allocated — `Device::alloc` rejects overflowing requests).
    pub fn size_bytes(&self) -> usize {
        self.len.saturating_mul(std::mem::size_of::<T>())
    }

    /// Id of the owning device.
    pub fn device_id(&self) -> u64 {
        self.device_id
    }
}

impl<T: Element> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        // Under the sanitizer, mark the allocation freed: the memory stays
        // alive while slices pin it, but any access through a stale slice
        // after this point is a use-after-free under the driver model.
        if let Some(meta) = self.alloc.meta() {
            meta.freed.store(true, Ordering::Release);
        }
    }
}

impl<T: Element> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceBuffer")
            .field("len", &self.len)
            .field("device_id", &self.device_id)
            .finish()
    }
}

/// Device memory charged to the heap with no memory behind it, created by
/// [`crate::Device::reserve`]: what a buffer costs the device, for a caller
/// whose data lives elsewhere. It has no accessors — no slice can be formed
/// over it — and dropping it returns the bytes.
pub struct DeviceReservation(pub(crate) Arc<Allocation>);

impl Drop for DeviceReservation {
    fn drop(&mut self) {
        // Leaves the sanitizer's table of live allocations, as a buffer does.
        if let Some(meta) = self.0.meta() {
            meta.freed.store(true, Ordering::Release);
        }
    }
}

impl std::fmt::Debug for DeviceReservation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceReservation")
            .field("bytes", &self.0.bytes)
            .finish()
    }
}

/// A read-only kernel-side view of a device buffer. Cheap to clone; keeps
/// the allocation alive.
pub struct DeviceSlice<T: Element> {
    alloc: Arc<Allocation>,
    ptr: *const T,
    len: usize,
    /// The device's race tracker; present when the sanitizer was on at
    /// view creation.
    tracker: Option<Arc<RaceTracker>>,
    /// Present when the allocation is sanitized.
    meta: Option<Arc<AllocMeta>>,
}

// SAFETY: reads from device memory race-freely per the launch contract.
unsafe impl<T: Element> Send for DeviceSlice<T> {}
unsafe impl<T: Element> Sync for DeviceSlice<T> {}

impl<T: Element> Clone for DeviceSlice<T> {
    fn clone(&self) -> Self {
        DeviceSlice {
            alloc: Arc::clone(&self.alloc),
            ptr: self.ptr,
            len: self.len,
            tracker: self.tracker.clone(),
            meta: self.meta.clone(),
        }
    }
}

impl<T: Element> std::fmt::Debug for DeviceSlice<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceSlice")
            .field("len", &self.len)
            .finish()
    }
}

impl<T: Element> DeviceSlice<T> {
    #[cfg(test)]
    pub(crate) fn new(buffer: &DeviceBuffer<T>) -> Self {
        Self::new_tracked(buffer, None, None)
    }

    pub(crate) fn new_tracked(
        buffer: &DeviceBuffer<T>,
        tracker: Option<Arc<RaceTracker>>,
        meta: Option<Arc<AllocMeta>>,
    ) -> Self {
        DeviceSlice {
            alloc: Arc::clone(&buffer.alloc),
            ptr: buffer.alloc.ptr() as *const T,
            len: buffer.len,
            tracker,
            meta,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bounds-checked element read.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        if i >= self.len {
            match &self.meta {
                Some(m) => oob_named(i, self.len, m),
                None => oob(i, self.len),
            }
        }
        if let Some(m) = &self.meta {
            if m.freed.load(Ordering::Acquire) {
                use_after_free(m);
            }
        }
        if let Some(t) = &self.tracker {
            tracked_read(t, self.ptr as usize, i);
        }
        // SAFETY: index checked; allocation alive via `alloc`.
        unsafe { *self.ptr.add(i) }
    }

    /// Unchecked element read for hot inner loops (bypasses the sanitizer;
    /// canary sweeps still catch writes that stray past the allocation).
    ///
    /// # Safety
    /// `i` must be `< self.len()`.
    #[inline]
    pub unsafe fn get_unchecked(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        *self.ptr.add(i)
    }
}

/// A mutable kernel-side view of a device buffer.
///
/// Writes use interior mutability under the SIMT contract: **distinct
/// simulated threads must write distinct elements** within one launch.
/// The device's sanitizer ([`crate::Device::set_sanitizer`]) verifies that
/// contract dynamically — reads included — along with freed state and
/// bounds canaries.
pub struct DeviceSliceMut<T: Element> {
    alloc: Arc<Allocation>,
    ptr: *mut T,
    len: usize,
    tracker: Option<Arc<RaceTracker>>,
    /// Present when the allocation is sanitized.
    meta: Option<Arc<AllocMeta>>,
}

// SAFETY: the disjoint-writes contract (optionally dynamically enforced)
// makes concurrent use sound.
unsafe impl<T: Element> Send for DeviceSliceMut<T> {}
unsafe impl<T: Element> Sync for DeviceSliceMut<T> {}

impl<T: Element> Clone for DeviceSliceMut<T> {
    fn clone(&self) -> Self {
        DeviceSliceMut {
            alloc: Arc::clone(&self.alloc),
            ptr: self.ptr,
            len: self.len,
            tracker: self.tracker.clone(),
            meta: self.meta.clone(),
        }
    }
}

impl<T: Element> std::fmt::Debug for DeviceSliceMut<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceSliceMut")
            .field("len", &self.len)
            .finish()
    }
}

impl<T: Element> DeviceSliceMut<T> {
    pub(crate) fn new_tracked(
        buffer: &DeviceBuffer<T>,
        tracker: Option<Arc<RaceTracker>>,
        meta: Option<Arc<AllocMeta>>,
    ) -> Self {
        DeviceSliceMut {
            alloc: Arc::clone(&buffer.alloc),
            ptr: buffer.alloc.ptr() as *mut T,
            len: buffer.len,
            tracker,
            meta,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bounds-checked element read.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        if i >= self.len {
            match &self.meta {
                Some(m) => oob_named(i, self.len, m),
                None => oob(i, self.len),
            }
        }
        if let Some(m) = &self.meta {
            if m.freed.load(Ordering::Acquire) {
                use_after_free(m);
            }
        }
        if let Some(t) = &self.tracker {
            tracked_read(t, self.ptr as usize, i);
        }
        // SAFETY: index checked; allocation alive via `alloc`.
        unsafe { *(self.ptr as *const T).add(i) }
    }

    /// Bounds-checked element write.
    #[inline]
    pub fn set(&self, i: usize, value: T) {
        if i >= self.len {
            match &self.meta {
                Some(m) => oob_named(i, self.len, m),
                None => oob(i, self.len),
            }
        }
        if let Some(m) = &self.meta {
            if m.freed.load(Ordering::Acquire) {
                use_after_free(m);
            }
        }
        if let Some(t) = &self.tracker {
            tracked_write(t, self.ptr as usize, i);
        }
        // SAFETY: index checked; disjoint-writes contract gives exclusive
        // access to this element within the launch.
        unsafe { *self.ptr.add(i) = value };
    }

    /// Unchecked element read.
    ///
    /// # Safety
    /// `i` must be `< self.len()`.
    #[inline]
    pub unsafe fn get_unchecked(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        *(self.ptr as *const T).add(i)
    }

    /// Unchecked element write (skips the race tracker and sanitizer).
    ///
    /// # Safety
    /// `i` must be `< self.len()` and no other simulated thread may touch
    /// element `i` in this launch.
    #[inline]
    pub unsafe fn set_unchecked(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        *self.ptr.add(i) = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_buffer<T: Element>(len: usize) -> DeviceBuffer<T> {
        let used = Arc::new(AtomicUsize::new(0));
        let alloc = Arc::new(Allocation::new(len * std::mem::size_of::<T>(), used, None).unwrap());
        DeviceBuffer {
            alloc,
            len,
            device_id: 0,
            _marker: PhantomData,
        }
    }

    fn make_sanitized_buffer<T: Element>(len: usize) -> DeviceBuffer<T> {
        let used = Arc::new(AtomicUsize::new(0));
        let bytes = len * std::mem::size_of::<T>();
        let san = crate::sanitizer::Sanitizer::new(true);
        let meta = san.new_meta::<T>(len, bytes);
        let alloc = Arc::new(Allocation::new(bytes, used, Some(meta)).unwrap());
        DeviceBuffer {
            alloc,
            len,
            device_id: 0,
            _marker: PhantomData,
        }
    }

    #[test]
    fn allocation_charges_and_releases_counter() {
        let used = Arc::new(AtomicUsize::new(0));
        let a = Allocation::new(1024, Arc::clone(&used), None).unwrap();
        assert_eq!(used.load(Ordering::Relaxed), 1024);
        let b = Allocation::new(512, Arc::clone(&used), None).unwrap();
        assert_eq!(used.load(Ordering::Relaxed), 1536);
        drop(a);
        assert_eq!(used.load(Ordering::Relaxed), 512);
        drop(b);
        assert_eq!(used.load(Ordering::Relaxed), 0);
    }

    /// Tests that allocate large blocks by the dozen take this: 64 of them
    /// between two blocks of another test would bring the second back to
    /// the line of the first.
    static PLACEMENT: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn large_blocks_sit_at_different_page_offsets() {
        let _serial = PLACEMENT.lock().unwrap();
        let used = Arc::new(AtomicUsize::new(0));
        // A 512² D2Q9 lattice, then 32 MiB: both far above the mmap
        // threshold, where the allocator alone puts every block at one
        // page offset. Plain and sanitized blocks follow one rule.
        for bytes in [9 * 512 * 512 * 8, 32 << 20] {
            for sanitized in [false, true] {
                let blocks: Vec<_> = (0..3)
                    .map(|_| {
                        let meta = sanitized.then(|| {
                            crate::sanitizer::Sanitizer::new(true).new_meta::<u8>(bytes, bytes)
                        });
                        Allocation::new(bytes, Arc::clone(&used), meta).unwrap()
                    })
                    .collect();
                assert_eq!(used.load(Ordering::Relaxed), 3 * bytes, "payload only");
                let at: Vec<usize> = blocks.iter().map(|b| b.ptr().addr()).collect();
                assert!(at.iter().all(|a| a % LINE_BYTES == 0), "{at:x?}");
                let offset = |i: usize| at[i] % WAY_BYTES;
                assert_ne!(offset(0), offset(1), "{at:x?}");
                assert_ne!(offset(0), offset(2), "{at:x?}");
                assert_ne!(offset(1), offset(2), "{at:x?}");
                assert!(blocks.iter().all(|b| b.verify_canaries().is_none()));
            }
        }
    }

    #[test]
    fn small_blocks_start_on_the_next_line() {
        let used = Arc::new(AtomicUsize::new(0));
        let a = Allocation::new(4096, used, None).unwrap();
        assert_eq!(a.ptr().addr() % LINE_BYTES, 0);
        assert!(a.ptr().addr() - a.raw.addr() < LINE_BYTES);
        assert_eq!(a.layout.size(), 4096 + LINE_BYTES);
    }

    #[test]
    fn placed_blocks_are_zeroed_and_writable_to_the_last_byte() {
        let _serial = PLACEMENT.lock().unwrap();
        let len = PLACED_MIN_BYTES / 8 + 5;
        // Every line of the page once, the farthest skew included.
        for round in 0..WAY_BYTES / LINE_BYTES {
            let buf = if round % 2 == 0 {
                make_buffer::<u64>(len)
            } else {
                make_sanitized_buffer::<u64>(len)
            };
            let w = DeviceSliceMut::new_tracked(&buf, None, None);
            for i in 0..len {
                assert_eq!(w.get(i), 0);
                w.set(i, i as u64);
            }
            let r = DeviceSlice::new(&buf);
            assert!((0..len).all(|i| r.get(i) == i as u64));
            assert!(buf.alloc.verify_canaries().is_none());
            let a = &buf.alloc;
            assert!(a.ptr.addr() + a.bytes <= a.raw.addr() + a.layout.size());
        }
    }

    #[test]
    fn alloc_drop_cycles_leave_the_counter_at_zero() {
        let _serial = PLACEMENT.lock().unwrap();
        let used = Arc::new(AtomicUsize::new(0));
        for cycle in 0..200 {
            let bytes = if cycle % 2 == 0 { 1 << 20 } else { 1000 };
            let a = Allocation::new(bytes, Arc::clone(&used), None).unwrap();
            assert_eq!(used.load(Ordering::Relaxed), bytes, "payload only");
            drop(a);
        }
        assert_eq!(used.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_size_the_host_cannot_back_is_refused() {
        let used = Arc::new(AtomicUsize::new(0));
        for bytes in [usize::MAX, usize::MAX - 64, isize::MAX as usize] {
            assert!(Allocation::new(bytes, Arc::clone(&used), None).is_none());
        }
        assert_eq!(used.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn zero_byte_allocation_is_dangling_and_uncharged() {
        let used = Arc::new(AtomicUsize::new(0));
        let a = Allocation::new(0, Arc::clone(&used), None).unwrap();
        assert_eq!(used.load(Ordering::Relaxed), 0, "zero bytes charge nothing");
        assert!(!a.ptr().is_null(), "pointer is dangling but non-null");
        assert_eq!(a.ptr() as usize % 64, 0, "and well-aligned");
        drop(a);
        assert_eq!(used.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn allocations_are_zeroed() {
        let buf = make_buffer::<f64>(100);
        let s = DeviceSlice::new(&buf);
        for i in 0..100 {
            assert_eq!(s.get(i), 0.0);
        }
    }

    #[test]
    fn slice_read_write_round_trip() {
        let buf = make_buffer::<u32>(16);
        let w = DeviceSliceMut::new_tracked(&buf, None, None);
        for i in 0..16 {
            w.set(i, (i * i) as u32);
        }
        let r = DeviceSlice::new(&buf);
        for i in 0..16 {
            assert_eq!(r.get(i), (i * i) as u32);
            assert_eq!(w.get(i), (i * i) as u32);
        }
    }

    #[test]
    fn slices_keep_allocation_alive() {
        let used = Arc::new(AtomicUsize::new(0));
        let alloc = Arc::new(Allocation::new(8 * 4, Arc::clone(&used), None).unwrap());
        let buf = DeviceBuffer::<f32> {
            alloc,
            len: 8,
            device_id: 0,
            _marker: PhantomData,
        };
        let slice = DeviceSlice::new(&buf);
        drop(buf);
        assert_eq!(used.load(Ordering::Relaxed), 32, "slice still pins memory");
        assert_eq!(slice.get(0), 0.0);
        drop(slice);
        assert_eq!(used.load(Ordering::Relaxed), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_out_of_bounds_panics() {
        let buf = make_buffer::<f64>(4);
        let s = DeviceSlice::new(&buf);
        let _ = s.get(4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_out_of_bounds_panics() {
        let buf = make_buffer::<f64>(4);
        let w = DeviceSliceMut::new_tracked(&buf, None, None);
        w.set(10, 1.0);
    }

    #[test]
    fn zero_length_buffer_is_safe() {
        let buf = make_buffer::<f64>(0);
        assert!(buf.is_empty());
        assert_eq!(buf.size_bytes(), 0);
        let s = DeviceSlice::new(&buf);
        assert!(s.is_empty());
    }

    #[test]
    fn size_bytes_saturates_instead_of_wrapping() {
        let buf = make_buffer::<f64>(0);
        let huge = DeviceBuffer::<f64> {
            alloc: Arc::clone(&buf.alloc),
            len: usize::MAX / 2,
            device_id: 0,
            _marker: PhantomData,
        };
        assert_eq!(huge.size_bytes(), usize::MAX);
    }

    #[test]
    fn sanitized_allocation_round_trips_and_verifies() {
        let buf = make_sanitized_buffer::<u64>(16);
        let w = DeviceSliceMut::new_tracked(&buf, None, buf.alloc.meta().cloned());
        for i in 0..16 {
            w.set(i, i as u64);
        }
        assert!(buf.alloc.verify_canaries().is_none(), "canaries intact");
        let r = DeviceSlice::new_tracked(&buf, None, buf.alloc.meta().cloned());
        for i in 0..16 {
            assert_eq!(r.get(i), i as u64);
        }
    }

    #[test]
    fn canary_catches_unchecked_write_past_the_end() {
        let buf = make_sanitized_buffer::<u64>(8);
        let base = buf.alloc.ptr() as *mut u64;
        // SAFETY(test): a deliberate one-past-the-end write; it lands in the
        // trailing canary region, which is inside the same host allocation.
        unsafe { base.add(8).write(0xDEAD) };
        let desc = buf.alloc.verify_canaries().expect("corruption detected");
        assert!(desc.contains("past the end"), "{desc}");
        assert!(desc.contains("allocation #"), "{desc}");
        // Repair before drop so Allocation::drop does not panic the test.
        unsafe { base.add(8).write(u64::from_ne_bytes([CANARY_PATTERN; 8])) };
        assert!(buf.alloc.verify_canaries().is_none());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sanitized_oob_names_the_allocation() {
        let buf = make_sanitized_buffer::<f64>(4);
        let s = DeviceSlice::new_tracked(&buf, None, buf.alloc.meta().cloned());
        let _ = s.get(4);
    }

    #[test]
    #[should_panic(expected = "use-after-free")]
    fn stale_slice_access_is_use_after_free() {
        let buf = make_sanitized_buffer::<f64>(4);
        let s = DeviceSlice::new_tracked(&buf, None, buf.alloc.meta().cloned());
        drop(buf); // DeviceBuffer::drop marks the allocation freed
        let _ = s.get(0);
    }

    // ---- device reservations ---------------------------------------------

    fn test_device() -> crate::Device {
        crate::Device::new(crate::profiles::test_device())
    }

    /// No host block: what sets a reservation apart from a buffer.
    fn unbacked(r: &DeviceReservation) -> bool {
        r.0.raw.is_null()
    }

    #[test]
    fn reservation_charges_exactly_the_payload_with_no_host_block() {
        let dev = test_device();
        for bytes in [1000, 1 << 20, 12 << 20] {
            let r = dev.reserve(bytes).unwrap();
            assert!(unbacked(&r), "{bytes} B reserved a host block");
            assert_eq!(dev.used_bytes(), bytes, "payload only");
            drop(r);
            assert_eq!(dev.used_bytes(), 0);
        }
    }

    #[test]
    fn reservation_oom_matches_alloc() {
        let dev = test_device(); // 16 MiB
        assert_eq!(
            dev.reserve(80 << 20).unwrap_err(),
            dev.alloc::<u8>(80 << 20).unwrap_err()
        );
        let held = dev.reserve(12 << 20).unwrap();
        assert!(unbacked(&held));
        let refused = dev.reserve(8 << 20).unwrap_err();
        assert!(matches!(
            refused,
            crate::SimError::OutOfMemory {
                requested: 0x80_0000,
                in_use: 0xC0_0000,
                ..
            }
        ));
        assert_eq!(refused, dev.alloc::<u8>(8 << 20).unwrap_err());
        drop(held);
        assert!(unbacked(&dev.reserve(8 << 20).unwrap()));
    }

    #[test]
    fn reservation_consumes_the_alloc_fault_schedule_like_alloc() {
        let plan = || crate::FaultPlan::parse("alloc:nth-2").unwrap();
        let (reserving, allocating) = (test_device(), test_device());
        reserving.set_chaos(plan());
        allocating.set_chaos(plan());
        let first = reserving.reserve(64).unwrap();
        assert!(unbacked(&first));
        let _held = allocating.alloc::<u8>(64).unwrap();
        let refused = reserving.reserve(64).unwrap_err();
        assert!(refused.is_transient(), "{refused:?}");
        assert_eq!(refused, allocating.alloc::<u8>(64).unwrap_err());
        assert_eq!(reserving.fault_log(), allocating.fault_log());
        assert_eq!(reserving.fault_log().len(), 1);
    }

    #[test]
    fn live_reservation_appears_in_the_leak_report() {
        let dev = test_device();
        dev.set_sanitizer(true);
        let r = dev.reserve(4096).unwrap();
        assert!(unbacked(&r));
        let report = dev.sanitizer_report().unwrap();
        assert_eq!(report.allocations_tracked, 1);
        assert_eq!(report.bytes_outstanding, 4096);
        let leak = &report.live_allocations[..];
        assert_eq!((leak.len(), leak[0].len, leak[0].elem), (1, 4096, "u8"));
        drop(r);
        let report = dev.sanitizer_report().unwrap();
        assert!(report.live_allocations.is_empty(), "{report}");
        assert_eq!(dev.used_bytes(), 0);
    }
}
