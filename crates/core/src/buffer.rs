//! Raw element storage backing RACC arrays.
//!
//! Storage is a manually managed, 64-byte-aligned allocation accessed only
//! through raw pointers — no `&`/`&mut` references to the buffer ever exist,
//! which is what makes the shared-write view model (`ViewMut*`) sound under
//! the disjoint-writes kernel contract.

use std::alloc::{alloc, alloc_zeroed, dealloc, Layout};
use std::marker::PhantomData;

use crate::scalar::AccScalar;

/// A fixed-size, heap-allocated element buffer.
pub(crate) struct RawStorage<T: AccScalar> {
    ptr: *mut T,
    len: usize,
    layout: Layout,
    _marker: PhantomData<T>,
}

// SAFETY: all access goes through raw pointers under the kernel contract;
// the pointer itself may move between threads freely.
unsafe impl<T: AccScalar> Send for RawStorage<T> {}
unsafe impl<T: AccScalar> Sync for RawStorage<T> {}

impl<T: AccScalar> RawStorage<T> {
    /// Allocate `len` elements, zero-initialized if `zero`.
    fn allocate(len: usize, zero: bool) -> Self {
        let bytes = len * std::mem::size_of::<T>();
        let layout = Layout::from_size_align(bytes.max(1), 64).expect("valid layout");
        // SAFETY: non-zero-size layout.
        let ptr = unsafe {
            if zero {
                alloc_zeroed(layout)
            } else {
                alloc(layout)
            }
        } as *mut T;
        assert!(!ptr.is_null(), "array allocation failed");
        RawStorage {
            ptr,
            len,
            layout,
            _marker: PhantomData,
        }
    }

    /// Allocate `len` zero-initialized elements.
    pub(crate) fn zeroed(len: usize) -> Self {
        Self::allocate(len, true)
    }

    /// Allocate and fill from a host slice.
    pub(crate) fn from_slice(data: &[T]) -> Self {
        let storage = Self::allocate(data.len(), false);
        // SAFETY: freshly allocated with exactly data.len() elements, all
        // of which this copy initializes.
        unsafe { std::ptr::copy_nonoverlapping(data.as_ptr(), storage.ptr, data.len()) };
        storage
    }

    pub(crate) fn ptr(&self) -> *mut T {
        self.ptr
    }

    pub(crate) fn len(&self) -> usize {
        self.len
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
        // SAFETY: allocated with this layout in `allocate`.
        unsafe { dealloc(self.ptr as *mut u8, self.layout) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_and_round_trip() {
        let s = RawStorage::<f64>::zeroed(100);
        assert_eq!(s.len(), 100);
        assert!(s.to_vec().iter().all(|&x| x == 0.0));
        let data: Vec<f64> = (0..50).map(f64::from).collect();
        let s = RawStorage::from_slice(&data);
        assert_eq!(s.to_vec(), data);
    }

    #[test]
    fn copy_from_slice_overwrites() {
        let s = RawStorage::<u32>::zeroed(4);
        s.copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(s.to_vec(), vec![1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn copy_from_slice_checks_length() {
        let s = RawStorage::<u32>::zeroed(4);
        s.copy_from_slice(&[1, 2, 3]);
    }

    #[test]
    fn zero_length_storage() {
        let s = RawStorage::<f64>::zeroed(0);
        assert_eq!(s.len(), 0);
        assert!(s.to_vec().is_empty());
    }
}
