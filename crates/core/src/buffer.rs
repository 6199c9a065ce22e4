//! Raw element storage backing RACC arrays.
//!
//! Storage is a manually managed, 64-byte-aligned allocation accessed only
//! through raw pointers — no `&`/`&mut` references to the buffer ever exist,
//! which is what makes the shared-write view model (`ViewMut*`) sound under
//! the disjoint-writes kernel contract.

use std::alloc::{alloc, alloc_zeroed, dealloc, Layout};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::RaccError;
use crate::scalar::AccScalar;

/// Cache-line size, and the alignment of every payload.
const LINE_BYTES: usize = 64;

/// One way of the L1d, which is also the page size: addresses this far
/// apart share a cache set, and a load 4K-aliases an earlier store.
const WAY_BYTES: usize = 4096;

/// Blocks at least this large are placed: twice glibc's 128 KiB mmap
/// threshold. Such a block is a mapping of its own and starts at one fixed
/// page offset. Between one and two thresholds glibc's dynamic threshold
/// moves a size from mmap into the arena after its first frees, where
/// offsets vary already — and a page more per block there changed how often
/// the arena is trimmed and re-faulted (128 KiB arrays allocated per job:
/// 2.5× the page faults in the first pass over 240 jobs).
const PLACED_MIN_BYTES: usize = 256 * 1024;

/// Large blocks handed out so far in this process.
static LARGE_BLOCKS: AtomicUsize = AtomicUsize::new(0);

/// Bytes to skip from `raw` so that the `k`-th large block starts on line
/// `k mod 64` of its page: consecutive blocks visit every L1 set once
/// before an offset repeats. Without it element `i` of every large array
/// shares address bits 11:0 with element `i` of every other, and a kernel
/// that walks several arrays (or several 4 KiB-multiple strides of one) at
/// one index keeps all of its streams in a single set. (`racc-gpusim`'s
/// device heap has the same function.)
fn skew(raw: usize, k: usize) -> usize {
    let line = k % (WAY_BYTES / LINE_BYTES);
    (line * LINE_BYTES).wrapping_sub(raw) % WAY_BYTES
}

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
        let placed = bytes >= PLACED_MIN_BYTES;
        let slack = if placed { WAY_BYTES - LINE_BYTES } else { 0 };
        let layout = bytes
            .checked_add(slack)
            .and_then(|total| Layout::from_size_align(total.max(1), LINE_BYTES).ok())
            .ok_or_else(too_large)?;
        // SAFETY: non-zero-size layout.
        let raw = unsafe {
            if zero {
                alloc_zeroed(layout)
            } else {
                alloc(layout)
            }
        };
        if raw.is_null() {
            return Err(RaccError::Allocation(format!(
                "the host allocator has no {bytes} bytes"
            )));
        }
        let skew = if placed {
            // Relaxed: the count publishes nothing, and two threads that
            // allocate at once still get different lines.
            skew(raw.addr(), LARGE_BLOCKS.fetch_add(1, Ordering::Relaxed))
        } else {
            0
        };
        Ok(RawStorage {
            // SAFETY: `raw` is a multiple of the line size, so the skew is one
            // below the way size: within the slack.
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
        for raw in [0x7f00_0000_0040usize, 0x5555_0000_0fc0, 0x1000, 0x2a80] {
            for k in [0usize, 1, 2, 63, 64, 65, 1000] {
                let skew = skew(raw, k);
                assert!(skew <= WAY_BYTES - LINE_BYTES);
                assert_eq!((raw + skew) % WAY_BYTES, k % 64 * LINE_BYTES);
            }
        }
    }

    /// Tests that allocate large blocks by the dozen take this: 64 of them
    /// between two blocks of another test would bring the second back to
    /// the line of the first.
    static PLACEMENT: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn large_blocks_sit_at_different_page_offsets() {
        let _serial = PLACEMENT.lock().unwrap();
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
        let _serial = PLACEMENT.lock().unwrap();
        let len = PLACED_MIN_BYTES / 8 + 5;
        let data: Vec<f64> = (0..len).map(|i| i as f64).collect();
        // Every line of the page once, the farthest skew included.
        for _ in 0..WAY_BYTES / LINE_BYTES {
            let z = RawStorage::<f64>::zeroed(len).unwrap();
            assert!(z.to_vec().iter().all(|&x| x == 0.0));
            z.copy_from_slice(&data);
            assert_eq!(z.to_vec(), data);
            let c = RawStorage::from_slice(&data).unwrap();
            assert_eq!(c.to_vec(), data);
            assert!(c.ptr() as usize + c.size_bytes() <= c.raw as usize + c.layout.size());
        }
    }
}
