//! Raw element storage backing RACC arrays, and the placement rule it
//! shares with the simulator's device heap (`racc-gpusim`).
//!
//! Storage is a manually managed, 64-byte-aligned allocation accessed only
//! through raw pointers — no `&`/`&mut` references to the buffer ever exist,
//! which is what makes the shared-write view model (`ViewMut*`) sound under
//! the disjoint-writes kernel contract. On Linux a zeroed block of at least
//! 2 MiB is an anonymous mapping of its own, whose pages stay the kernel's
//! zero pages until something writes them.

use std::alloc::{alloc, dealloc, Layout};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::RaccError;
use crate::scalar::AccScalar;

/// Cache-line size, and the alignment of every payload.
pub const LINE_BYTES: usize = 64;

/// One way of the L1d, which is also the page size: addresses this far
/// apart share a cache set, and a load 4K-aliases an earlier store.
pub const WAY_BYTES: usize = 4096;

/// Blocks at least this large are placed: twice glibc's 128 KiB mmap
/// threshold. Such a block is a mapping of its own and starts at one fixed
/// page offset. Between one and two thresholds glibc's dynamic threshold
/// moves a size from mmap into the arena after its first frees, where
/// offsets vary already — and a page more per block there changed how often
/// the arena is trimmed and re-faulted (128 KiB arrays allocated per job:
/// 2.5× the page faults in the first pass over 240 jobs).
pub const PLACED_MIN_BYTES: usize = 256 * 1024;

/// A transparent huge page (x86-64 and aarch64 with 4 KiB base pages).
const HUGE_BYTES: usize = 2 << 20;

/// Zeroed blocks at least this large are mapped zero-on-demand (Linux
/// only): one huge page, so every such mapping holds at least one whole
/// huge page and nothing smaller pays for a syscall pair. Every other
/// block comes from `aligned_alloc`, whose thresholds and arenas
/// DESIGN.md §3 "Memory placement" records.
const MAPPED_MIN_BYTES: usize = HUGE_BYTES;

/// The alignment recorded in the `Layout` of a mapped block — the page,
/// which no `aligned_alloc` block of `RawStorage` asks for: it is how
/// `Drop` tells the two apart without a field of its own.
const MAPPED_ALIGN: usize = WAY_BYTES;

/// Where the payloads of one allocator's blocks start: the `k`-th placed
/// block (at least [`PLACED_MIN_BYTES`]) on line `k mod 64` of its page, so
/// consecutive blocks visit every L1 set once before an offset repeats;
/// smaller blocks on the next cache line. Without the rotation element `i`
/// of every large array shares address bits 11:0 with element `i` of every
/// other, and a kernel that walks several arrays (or several 4 KiB-multiple
/// strides of one) at one index keeps all of its streams in a single set.
///
/// Each allocator keeps a `static` sequence of its own, so one allocator's
/// blocks do not move the other's.
#[derive(Debug, Default)]
pub struct BlockSequence {
    /// Placed blocks handed out so far.
    placed: AtomicUsize,
}

impl BlockSequence {
    /// A sequence that has placed nothing yet.
    pub const fn new() -> Self {
        BlockSequence {
            placed: AtomicUsize::new(0),
        }
    }

    /// Bytes to skip from `at`, where the allocator put a block whose
    /// payload is `bytes` long, to where the payload starts. Below
    /// [`WAY_BYTES`] for a placed block and below [`LINE_BYTES`] for any
    /// other: that is the slack the allocator must add.
    pub fn skew(&self, at: usize, bytes: usize) -> usize {
        if bytes < PLACED_MIN_BYTES {
            return at.wrapping_neg() % LINE_BYTES;
        }
        // Relaxed: the count publishes nothing, and two threads that
        // allocate at once still get different lines.
        let k = self.placed.fetch_add(1, Ordering::Relaxed);
        let line = k % (WAY_BYTES / LINE_BYTES);
        (line * LINE_BYTES).wrapping_sub(at) % WAY_BYTES
    }
}

/// Where array storage is placed.
static BLOCKS: BlockSequence = BlockSequence::new();

/// The whole huge pages inside the block `[raw, raw + size)`, as
/// `(start, len)`: the range `madvise` may back with 2 MiB pages. `None`
/// when no aligned 2 MiB page fits — every block under 2 MiB, and most
/// blocks under 4 MiB.
fn huge_span(raw: usize, size: usize) -> Option<(usize, usize)> {
    let start = raw.checked_next_multiple_of(HUGE_BYTES)?;
    let end = raw.checked_add(size)? / HUGE_BYTES * HUGE_BYTES;
    (end > start).then(|| (start, end - start))
}

/// Ask the kernel to back the block's whole 2 MiB pages with huge pages,
/// before anything touches them: the first touch then faults 2 MiB at a
/// time instead of 4 KiB. Under THP mode `madvise` a block gets huge pages
/// only when asked; under `always` it gets them anyway, under `never` not
/// at all. Advice only — the block holds the same bytes either way.
#[cfg(target_os = "linux")]
fn advise_huge_pages(raw: *mut u8, size: usize) {
    extern "C" {
        fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }
    /// `asm-generic/mman-common.h`.
    const MADV_HUGEPAGE: i32 = 14;
    if let Some((start, len)) = huge_span(raw.addr(), size) {
        // SAFETY: the range is page-aligned and lies inside the block the
        // allocator just handed out; the advice changes how it is backed,
        // not what it holds. The result is ignored: refused advice is the
        // 4 KiB pages the block would have had anyway.
        unsafe { madvise(raw.add(start - raw.addr()), len, MADV_HUGEPAGE) };
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_raw: *mut u8, _size: usize) {}

/// Private anonymous mappings: `sys/mman.h`, with the values of
/// `asm-generic/mman-common.h` (x86-64 and aarch64 alike).
#[cfg(target_os = "linux")]
mod mapping {
    use super::{HUGE_BYTES, WAY_BYTES};

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }
    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 2;
    const MAP_ANONYMOUS: i32 = 0x20;

    /// A fresh zero-filled mapping of at least `size` bytes that starts on
    /// a huge page, or null. Nothing is resident until it is touched.
    pub(super) fn map(size: usize) -> *mut u8 {
        let Some(over) = size.checked_add(HUGE_BYTES - WAY_BYTES) else {
            return std::ptr::null_mut();
        };
        // SAFETY: a new private anonymous mapping aliases nothing.
        let at = unsafe {
            mmap(
                std::ptr::null_mut(),
                over,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if at.addr() == usize::MAX {
            return std::ptr::null_mut(); // MAP_FAILED
        }
        // Over-mapped by a huge page less a page; give back what lies
        // before the aligned start and after the block, whole pages both.
        let head = at.addr().next_multiple_of(HUGE_BYTES) - at.addr();
        let end = (head + size).next_multiple_of(WAY_BYTES);
        let mapped = over.next_multiple_of(WAY_BYTES);
        // SAFETY: both ranges lie inside the mapping just made, and nothing
        // refers to them.
        unsafe {
            if head > 0 {
                unmap(at, head);
            }
            if mapped > end {
                unmap(at.add(end), mapped - end);
            }
            at.add(head)
        }
    }

    /// Return `[at, at + size)`, a whole mapping `map` made.
    ///
    /// # Safety
    /// Nothing may use the range afterwards.
    pub(super) unsafe fn unmap(at: *mut u8, size: usize) {
        let failed = unsafe { munmap(at, size) } != 0;
        debug_assert!(!failed, "munmap({at:p}, {size:#x}) failed");
    }
}

/// Other targets map nothing: `allocate` never asks them to.
#[cfg(not(target_os = "linux"))]
mod mapping {
    pub(super) fn map(_size: usize) -> *mut u8 {
        unreachable!("only Linux maps blocks")
    }

    pub(super) unsafe fn unmap(_at: *mut u8, _size: usize) {
        unreachable!("only Linux maps blocks")
    }
}

/// A fixed-size, heap-allocated element buffer.
pub(crate) struct RawStorage<T: AccScalar> {
    /// First element: `raw` plus this block's skew.
    ptr: *mut T,
    len: usize,
    /// What the allocator returned, with the layout it was asked for; an
    /// alignment of [`MAPPED_ALIGN`] marks a mapping of our own.
    raw: *mut u8,
    layout: Layout,
    _marker: PhantomData<T>,
}

// SAFETY: all access goes through raw pointers under the kernel contract;
// the pointer itself may move between threads freely.
unsafe impl<T: AccScalar> Send for RawStorage<T> {}
unsafe impl<T: AccScalar> Sync for RawStorage<T> {}

impl<T: AccScalar> RawStorage<T> {
    /// Allocate `len` elements, zero-initialized if `zero`. A size the
    /// address space cannot hold, or the allocator cannot provide, is an error.
    fn allocate(len: usize, zero: bool) -> Result<Self, RaccError> {
        let too_large = || {
            RaccError::Allocation(format!(
                "{len} elements of {} bytes exceed the address space",
                std::mem::size_of::<T>()
            ))
        };
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .ok_or_else(too_large)?;
        // `raw` is line-aligned, so a skew is a whole number of lines.
        let slack = if bytes >= PLACED_MIN_BYTES {
            WAY_BYTES - LINE_BYTES
        } else {
            0
        };
        let mapped = cfg!(target_os = "linux") && zero && bytes >= MAPPED_MIN_BYTES;
        let layout = bytes
            .checked_add(slack)
            .and_then(|total| {
                let align = if mapped { MAPPED_ALIGN } else { LINE_BYTES };
                Layout::from_size_align(total.max(1), align).ok()
            })
            .ok_or_else(too_large)?;
        let raw = if mapped {
            // Starts on a huge page, so every whole one it spans is whole.
            mapping::map(layout.size())
        } else {
            // SAFETY: non-zero-size layout.
            unsafe { alloc(layout) }
        };
        if raw.is_null() {
            return Err(RaccError::Allocation(format!(
                "the host allocator has no {bytes} bytes"
            )));
        }
        advise_huge_pages(raw, layout.size());
        if zero && !mapped {
            // What `alloc_zeroed` does at this alignment (`aligned_alloc`,
            // then a memset), moved after the advice so that the memset is
            // the first touch. Not `calloc`: off the `aligned_alloc` path
            // glibc trims and re-faults the rank threads' arenas every rep
            // (DESIGN.md §3 "Memory placement").
            // SAFETY: `raw` holds `layout.size()` writable bytes.
            unsafe { raw.write_bytes(0, layout.size()) };
        }
        let skew = BLOCKS.skew(raw.addr(), bytes);
        Ok(RawStorage {
            // SAFETY: `raw` is a multiple of the line size, so the skew is a
            // line below the way size for a placed block and zero for any
            // other: within the slack.
            ptr: unsafe { raw.add(skew) } as *mut T,
            len,
            raw,
            layout,
            _marker: PhantomData,
        })
    }

    /// Whether the block is a mapping of its own rather than an
    /// `aligned_alloc` block.
    fn is_mapped(&self) -> bool {
        self.layout.align() == MAPPED_ALIGN
    }

    /// Allocate `len` zero-initialized elements.
    pub(crate) fn zeroed(len: usize) -> Result<Self, RaccError> {
        Self::allocate(len, true)
    }

    /// Allocate `len` elements and write element `i` as `f(i)`, in index
    /// order: the first touch of every byte, with no host copy beside it.
    pub(crate) fn from_fn(len: usize, mut f: impl FnMut(usize) -> T) -> Result<Self, RaccError> {
        let storage = Self::allocate(len, false)?;
        for i in 0..len {
            // SAFETY: `i < len`, inside the block. Elements are `Copy`, so
            // those a panicking `f` leaves unwritten are never dropped, and
            // nothing reads them before the block is freed.
            unsafe { storage.ptr.add(i).write(f(i)) };
        }
        Ok(storage)
    }

    /// Allocate and fill from a host slice.
    pub(crate) fn from_slice(data: &[T]) -> Result<Self, RaccError> {
        let storage = Self::allocate(data.len(), false)?;
        // SAFETY: freshly allocated with exactly data.len() elements, all
        // of which this copy initializes.
        unsafe { std::ptr::copy_nonoverlapping(data.as_ptr(), storage.ptr, data.len()) };
        Ok(storage)
    }

    pub(crate) fn ptr(&self) -> *mut T {
        self.ptr
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Payload size in bytes (`allocate` checked that it fits).
    pub(crate) fn size_bytes(&self) -> usize {
        self.len * std::mem::size_of::<T>()
    }

    /// Copy the contents out to a `Vec`.
    pub(crate) fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        // SAFETY: storage holds exactly `len` initialized elements.
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr as *const T, out.as_mut_ptr(), self.len);
            out.set_len(self.len);
        }
        out
    }

    /// Overwrite the contents from a slice of the same length.
    pub(crate) fn copy_from_slice(&self, data: &[T]) {
        assert_eq!(data.len(), self.len, "copy_from_slice length mismatch");
        // SAFETY: lengths equal; caller must not run kernels concurrently.
        unsafe { std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr, self.len) };
    }
}

impl<T: AccScalar> Drop for RawStorage<T> {
    fn drop(&mut self) {
        if self.is_mapped() {
            // SAFETY: `raw` is the mapping `allocate` made for this layout,
            // and `self` was its only owner.
            unsafe { mapping::unmap(self.raw, self.layout.size()) };
        } else {
            // SAFETY: `raw` is the block `allocate` got for this layout.
            unsafe { dealloc(self.raw, self.layout) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_and_round_trip() {
        let s = RawStorage::<f64>::zeroed(100).unwrap();
        assert_eq!(s.len(), 100);
        assert!(s.to_vec().iter().all(|&x| x == 0.0));
        let data: Vec<f64> = (0..50).map(f64::from).collect();
        let s = RawStorage::from_slice(&data).unwrap();
        assert_eq!(s.to_vec(), data);
    }

    #[test]
    fn copy_from_slice_overwrites() {
        let s = RawStorage::<u32>::zeroed(4).unwrap();
        s.copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(s.to_vec(), vec![1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn copy_from_slice_checks_length() {
        let s = RawStorage::<u32>::zeroed(4).unwrap();
        s.copy_from_slice(&[1, 2, 3]);
    }

    #[test]
    fn zero_length_storage() {
        let s = RawStorage::<f64>::zeroed(0).unwrap();
        assert_eq!(s.len(), 0);
        assert!(s.to_vec().is_empty());
    }

    #[test]
    fn sizes_that_overflow_are_errors() {
        for len in [1usize << 61, usize::MAX, usize::MAX / 8] {
            assert!(matches!(
                RawStorage::<f64>::zeroed(len),
                Err(RaccError::Allocation(_))
            ));
        }
    }

    #[test]
    fn the_skew_puts_block_k_on_line_k_wherever_the_allocator_put_it() {
        // Where `RawStorage` gets its blocks (line-aligned), then where the
        // device heap does: `calloc` aligns to 16, and a canary may precede
        // the payload.
        let line_aligned = [0x7f00_0000_0040usize, 0x5555_0000_0fc0, 0x1000, 0x2a80];
        let calloc_plus_canary = [0x7f00_0000_0010usize, 0x5555_0000_0ff0, 0x1050, 0x2a90];
        for at in line_aligned.into_iter().chain(calloc_plus_canary) {
            let blocks = BlockSequence::new();
            for k in 0..=1000 {
                // A small block between two placed ones takes no line.
                let small = blocks.skew(at, PLACED_MIN_BYTES - 1);
                assert!(small < LINE_BYTES && (at + small).is_multiple_of(LINE_BYTES));
                let skew = blocks.skew(at, PLACED_MIN_BYTES);
                assert!(skew < WAY_BYTES);
                assert_eq!((at + skew) % WAY_BYTES, k % 64 * LINE_BYTES, "{at:#x}");
            }
        }
        // Line-aligned blocks: a whole number of lines, within one page.
        for at in line_aligned {
            assert!(BlockSequence::new().skew(at, PLACED_MIN_BYTES) <= WAY_BYTES - LINE_BYTES);
            assert_eq!(BlockSequence::new().skew(at, 64), 0);
        }
    }

    /// Tests that allocate large blocks by the dozen take this: 64 of them
    /// between two blocks of another test would bring the second back to
    /// the line of the first.
    static PLACEMENT: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Take `PLACEMENT`, past a test that failed holding it.
    fn placement() -> std::sync::MutexGuard<'static, ()> {
        PLACEMENT
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn large_blocks_sit_at_different_page_offsets() {
        let _serial = placement();
        // A 512² D2Q9 lattice, then 32 MiB: both far above the mmap
        // threshold, where the allocator alone puts every block at one
        // page offset.
        for len in [9 * 512 * 512, (32 << 20) / 8] {
            let blocks: Vec<_> = (0..3)
                .map(|_| RawStorage::<f64>::zeroed(len).unwrap())
                .collect();
            let at: Vec<usize> = blocks.iter().map(|b| b.ptr() as usize).collect();
            assert!(at.iter().all(|a| a % LINE_BYTES == 0), "{at:x?}");
            let offset = |i: usize| at[i] % WAY_BYTES;
            assert_ne!(offset(0), offset(1), "{at:x?}");
            assert_ne!(offset(0), offset(2), "{at:x?}");
            assert_ne!(offset(1), offset(2), "{at:x?}");
        }
    }

    #[test]
    fn small_blocks_are_not_placed() {
        let s = RawStorage::<u8>::zeroed(4096).unwrap();
        assert_eq!(s.ptr(), s.raw);
        assert_eq!(s.layout.size(), 4096);
    }

    #[test]
    fn only_large_zeroed_blocks_are_mapped() {
        let _serial = placement();
        let large = MAPPED_MIN_BYTES / 8;
        let old_path = [
            RawStorage::<f64>::zeroed(100).unwrap(),
            RawStorage::<f64>::zeroed(large - 1).unwrap(),
            RawStorage::from_slice(&vec![1.0f64; large]).unwrap(),
            RawStorage::from_fn(large, |i| i as f64).unwrap(),
        ];
        for s in &old_path {
            assert!(!s.is_mapped(), "{} bytes", s.size_bytes());
            assert_eq!(s.layout.align(), LINE_BYTES);
        }
        let mapped = RawStorage::<f64>::zeroed(large).unwrap();
        assert_eq!(mapped.is_mapped(), cfg!(target_os = "linux"));
    }

    #[test]
    fn from_fn_writes_every_element_in_index_order() {
        let _serial = placement();
        let value = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for len in [0, 7, PLACED_MIN_BYTES / 8 + 3] {
            let mut calls = Vec::new();
            let s = RawStorage::from_fn(len, |i| {
                calls.push(i);
                value(i)
            })
            .unwrap();
            assert_eq!(calls, (0..len).collect::<Vec<_>>());
            assert_eq!(s.to_vec(), calls.into_iter().map(value).collect::<Vec<_>>());
        }
    }

    /// Which pages of `[at, at + len)` are resident, one flag per page.
    #[cfg(target_os = "linux")]
    fn resident_pages(at: *mut u8, len: usize) -> Vec<bool> {
        extern "C" {
            fn mincore(addr: *mut u8, length: usize, vec: *mut u8) -> i32;
        }
        let mut pages = vec![0u8; len.div_ceil(WAY_BYTES)];
        // SAFETY: `at` is page-aligned and the range is mapped; `pages`
        // holds one byte per page.
        assert_eq!(unsafe { mincore(at, len, pages.as_mut_ptr()) }, 0);
        pages.iter().map(|p| p & 1 == 1).collect()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_large_zeroed_block_has_no_resident_page_before_its_first_write() {
        let _serial = placement();
        // 9 MiB: a length the kernel does not align to a huge page itself.
        let s = RawStorage::<f64>::zeroed((9 << 20) / 8).unwrap();
        assert!(s.is_mapped());
        assert_eq!(s.raw.addr() % HUGE_BYTES, 0);
        let pages = || resident_pages(s.raw, s.layout.size());
        assert!(pages().iter().all(|&p| !p), "resident before any write");
        // One write faults in its own page (a huge page, if the kernel
        // has one), and mincore sees it.
        // SAFETY: element 0 is inside the payload.
        unsafe { s.ptr().write(1.0) };
        assert!(pages()[0]);
        unsafe { s.ptr().write(0.0) };
        assert!(s.to_vec().iter().all(|&x| x.to_bits() == 0));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mapped_payloads_sit_on_their_block_sequence_line() {
        let _serial = placement();
        let len = MAPPED_MIN_BYTES / 8;
        let blocks: Vec<_> = (0..3)
            .map(|_| RawStorage::<f64>::zeroed(len).unwrap())
            .collect();
        let lines: Vec<usize> = blocks
            .iter()
            .map(|b| {
                assert!(b.is_mapped());
                let skew = b.ptr().addr() - b.raw.addr();
                assert!(
                    skew.is_multiple_of(LINE_BYTES) && skew < WAY_BYTES,
                    "{skew:#x}"
                );
                assert!(skew + b.size_bytes() <= b.layout.size());
                skew / LINE_BYTES
            })
            .collect();
        // Consecutive placed blocks: consecutive lines of the page.
        for pair in lines.windows(2) {
            assert_eq!(
                pair[1],
                (pair[0] + 1) % (WAY_BYTES / LINE_BYTES),
                "{lines:?}"
            );
        }
    }

    /// Lines of `/proc/self/maps`: one per mapping.
    #[cfg(target_os = "linux")]
    fn mappings() -> usize {
        std::fs::read_to_string("/proc/self/maps")
            .unwrap()
            .lines()
            .count()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn dropped_mapped_blocks_leave_no_mapping_behind() {
        let _serial = placement();
        // A leak adds a mapping per block; other tests' threads come and
        // go, so a count that moved is measured again rather than trusted.
        const BLOCKS: usize = 32;
        let data = vec![2.5; 1 << 20]; // 8 MiB
        let mut counts = Vec::new();
        for _ in 0..5 {
            let before = mappings();
            for _ in 0..BLOCKS {
                let s = RawStorage::<f64>::zeroed(data.len()).unwrap();
                assert!(s.is_mapped());
                s.copy_from_slice(&data);
                drop(s);
            }
            let after = mappings();
            if after <= before {
                return;
            }
            counts.push((before, after));
        }
        panic!("mappings before and after {BLOCKS} blocks: {counts:?}");
    }

    #[test]
    fn placed_blocks_zero_and_round_trip_the_whole_payload() {
        let _serial = placement();
        // The smallest placed size, and one that always holds a whole huge
        // page (mapped when zeroed; advised before the copy when not). Each
        // pass frees blocks it wrote, so later passes get dirty memory back
        // from the arena.
        for len in [PLACED_MIN_BYTES / 8 + 5, 2 * HUGE_BYTES / 8 + 5] {
            let data: Vec<f64> = (0..len).map(|i| i as f64 + 1.0).collect();
            // Every line of the page once, the farthest skew included.
            for _ in 0..WAY_BYTES / LINE_BYTES {
                let z = RawStorage::<f64>::zeroed(len).unwrap();
                assert!(z.to_vec().iter().all(|&x| x.to_bits() == 0));
                z.copy_from_slice(&data);
                assert_eq!(z.to_vec(), data);
                let c = RawStorage::from_slice(&data).unwrap();
                assert_eq!(c.to_vec(), data);
                assert!(c.ptr() as usize + c.size_bytes() <= c.raw as usize + c.layout.size());
            }
        }
    }

    #[test]
    fn the_huge_span_is_the_aligned_interior_of_the_block() {
        const MIB: usize = 1 << 20;
        let base = 0x7f00_0000_0000usize; // 2 MiB-aligned
        for (raw, size, want) in [
            // Exactly one aligned huge page, and exactly two.
            (base, 2 * MIB, Some((base, 2 * MIB))),
            (base, 4 * MIB, Some((base, 4 * MIB))),
            // Unaligned at both ends: only the whole pages inside.
            (base + 64, 32 * MIB + 4032, Some((base + 2 * MIB, 30 * MIB))),
            (base - 4096 + 64, 4 * MIB, Some((base, 2 * MIB))),
            // 4 MiB less a line, off alignment: no whole page fits.
            (base + 64, 4 * MIB - 128, None),
            // Blocks under 2 MiB, and a 2 MiB block off alignment.
            (base, 2 * MIB - 1, None),
            (base + 64, 1 << 18, None),
            (base + 64, 2 * MIB + 4032, None),
            // Ranges that would run past the end of the address space.
            (usize::MAX - 4 * MIB, 4 * MIB + 1, None),
            (usize::MAX - 100, 64, None),
        ] {
            let got = huge_span(raw, size);
            assert_eq!(got, want, "raw {raw:#x} size {size:#x}");
            if let Some((start, len)) = got {
                assert!(start >= raw && start + len <= raw + size);
                assert_eq!((start % HUGE_BYTES, len % HUGE_BYTES), (0, 0));
            }
        }
    }

    /// Under THP mode `always` or `madvise`, the mapping that holds a large
    /// array may be backed by huge pages — in mode `madvise` only because
    /// `allocate` asked. Whether it *is* backed depends on free memory, so
    /// `AnonHugePages` is not asserted.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_large_block_is_eligible_for_huge_pages() {
        let _serial = placement();
        let mode = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .unwrap_or_default();
        if !mode.contains("[always]") && !mode.contains("[madvise]") {
            eprintln!("skipped: transparent huge pages are {:?}", mode.trim());
            return;
        }
        let s = RawStorage::<f64>::zeroed((32 << 20) / 8).unwrap();
        let middle = s.ptr() as usize + s.size_bytes() / 2;
        let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
        let Some(eligible) = smaps_field(&smaps, middle, "THPeligible:") else {
            eprintln!("skipped: this kernel's smaps has no THPeligible field");
            return;
        };
        assert_eq!(eligible, "1", "the mapping at {middle:#x}");
    }

    /// The value of `field` in the `/proc/self/smaps` entry of the mapping
    /// that contains `addr`.
    #[cfg(target_os = "linux")]
    fn smaps_field<'a>(smaps: &'a str, addr: usize, field: &str) -> Option<&'a str> {
        let mut inside = false;
        for line in smaps.lines() {
            // A mapping's header starts `start-end ` in hex; its fields
            // start with a capitalised name.
            let range = line.split(' ').next().and_then(|r| r.split_once('-'));
            if let Some((lo, hi)) = range {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    inside = (lo..hi).contains(&addr);
                    continue;
                }
            }
            if inside {
                if let Some(value) = line.strip_prefix(field) {
                    return Some(value.trim());
                }
            }
        }
        None
    }
}
