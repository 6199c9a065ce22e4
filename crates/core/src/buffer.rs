//! Raw element storage backing RACC arrays, and the placement rule it
//! shares with the simulator's device heap (`racc-gpusim`).
//!
//! Storage is a manually managed, 64-byte-aligned allocation accessed only
//! through raw pointers — no `&`/`&mut` references to the buffer ever exist,
//! which is what makes the shared-write view model (`ViewMut*`) sound under
//! the disjoint-writes kernel contract.

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

/// A fixed-size, heap-allocated element buffer.
pub(crate) struct RawStorage<T: AccScalar> {
    /// First element: `raw` plus this block's skew.
    ptr: *mut T,
    len: usize,
    /// What the allocator returned, with the layout it was asked for.
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
        let layout = bytes
            .checked_add(slack)
            .and_then(|total| Layout::from_size_align(total.max(1), LINE_BYTES).ok())
            .ok_or_else(too_large)?;
        // SAFETY: non-zero-size layout.
        let raw = unsafe { alloc(layout) };
        if raw.is_null() {
            return Err(RaccError::Allocation(format!(
                "the host allocator has no {bytes} bytes"
            )));
        }
        advise_huge_pages(raw, layout.size());
        if zero {
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

    /// Allocate `len` zero-initialized elements.
    pub(crate) fn zeroed(len: usize) -> Result<Self, RaccError> {
        Self::allocate(len, true)
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
        // SAFETY: `raw` is the block `allocate` got for this layout.
        unsafe { dealloc(self.raw, self.layout) };
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
    fn placed_blocks_zero_and_round_trip_the_whole_payload() {
        let _serial = placement();
        // The smallest placed size, and one that always holds a whole huge
        // page (advised before it is zeroed). Each pass frees blocks it
        // wrote, so later passes get dirty memory back from the arena.
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
