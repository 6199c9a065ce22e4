//! Kernel-side array views.
//!
//! Views are the handles kernel closures capture (the paper passes the
//! arrays themselves as `parallel_for` arguments; in Rust the aliasing rules
//! make explicit view handles the honest equivalent). A [`View1`] is
//! read-only; a [`ViewMut1`] allows writes under the SIMT-style contract
//! that **distinct iterations write distinct elements** — dynamically
//! checkable with the `racecheck` feature.
//!
//! Views keep their array's storage alive (cheap `Arc` clone) and are
//! `Send + Sync`, so one closure can be executed by any backend.
//!
//! Multidimensional views are **column-major** (Julia layout): element
//! `(i, j)` of an `m × n` view lives at linear offset `j * m + i`.

use std::sync::Arc;

use crate::buffer::RawStorage;
use crate::scalar::AccScalar;

/// Cold, outlined bounds-failure paths: keeping the formatting machinery
/// out of the hot accessors lets LLVM optimize kernel loops (a formatted
/// `assert!` in `get`/`set` measurably slows bandwidth-bound kernels).
#[cold]
#[inline(never)]
fn oob_1d(i: usize, len: usize) -> ! {
    panic!("access {i} out of bounds (len {len})");
}

#[cold]
#[inline(never)]
fn oob_2d(i: usize, j: usize, m: usize, n: usize) -> ! {
    panic!("access ({i}, {j}) out of bounds ({m} x {n})");
}

#[cold]
#[inline(never)]
fn oob_3d(i: usize, j: usize, k: usize, m: usize, n: usize, l: usize) -> ! {
    panic!("access ({i}, {j}, {k}) out of bounds ({m} x {n} x {l})");
}

macro_rules! common_view_core {
    ($name:ident, $raw:ident) => {
        impl<T: AccScalar> Clone for $name<T> {
            fn clone(&self) -> Self {
                Self {
                    storage: Arc::clone(&self.storage),
                    ..*self
                }
            }
        }

        impl<T: AccScalar> std::fmt::Debug for $name<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($name)).finish_non_exhaustive()
            }
        }

        // SAFETY: raw-pointer access under the disjoint-writes contract.
        unsafe impl<T: AccScalar> Send for $name<T> {}
        unsafe impl<T: AccScalar> Sync for $name<T> {}
    };
}

/// Read-only view of a 1D array.
pub struct View1<T: AccScalar> {
    storage: Arc<RawStorage<T>>,
    ptr: *const T,
    len: usize,
}
common_view_core!(View1, RawStorage);

impl<T: AccScalar> View1<T> {
    pub(crate) fn new(storage: &Arc<RawStorage<T>>) -> Self {
        View1 {
            ptr: storage.ptr() as *const T,
            len: storage.len(),
            storage: Arc::clone(storage),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bounds-checked read.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        if i >= self.len {
            oob_1d(i, self.len);
        }
        #[cfg(feature = "racecheck")]
        crate::racecheck::record_read(self.ptr as usize, i);
        // SAFETY: bounds checked; storage alive via Arc.
        unsafe { *self.ptr.add(i) }
    }

    /// Unchecked read for kernels that pin every index in bounds up front
    /// (an assert outside the loop), where the per-access check would block
    /// vectorization. Under the `racecheck` feature the access is still
    /// bounds-checked and recorded — sanitizer builds trade the speed back
    /// for full coverage, so going unchecked never hides a race.
    ///
    /// # Safety
    /// `i < self.len()`.
    #[inline]
    pub unsafe fn get_unchecked(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        #[cfg(feature = "racecheck")]
        {
            if i >= self.len {
                oob_1d(i, self.len);
            }
            crate::racecheck::record_read(self.ptr as usize, i);
        }
        *self.ptr.add(i)
    }
}

/// Writable view of a 1D array (disjoint-writes contract).
pub struct ViewMut1<T: AccScalar> {
    storage: Arc<RawStorage<T>>,
    ptr: *mut T,
    len: usize,
}
common_view_core!(ViewMut1, RawStorage);

impl<T: AccScalar> ViewMut1<T> {
    pub(crate) fn new(storage: &Arc<RawStorage<T>>) -> Self {
        ViewMut1 {
            ptr: storage.ptr(),
            len: storage.len(),
            storage: Arc::clone(storage),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bounds-checked read.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        if i >= self.len {
            oob_1d(i, self.len);
        }
        #[cfg(feature = "racecheck")]
        crate::racecheck::record_read(self.ptr as usize, i);
        // SAFETY: bounds checked; storage alive via Arc.
        unsafe { *(self.ptr as *const T).add(i) }
    }

    /// Bounds-checked write.
    #[inline]
    pub fn set(&self, i: usize, value: T) {
        if i >= self.len {
            oob_1d(i, self.len);
        }
        #[cfg(feature = "racecheck")]
        crate::racecheck::record_write(self.ptr as usize, i);
        // SAFETY: bounds checked; the disjoint-writes contract gives this
        // iteration exclusive access to element i.
        unsafe { *self.ptr.add(i) = value };
    }

    /// Unchecked read — see [`View1::get_unchecked`] for the contract and
    /// the racecheck behavior.
    ///
    /// # Safety
    /// `i < self.len()`.
    #[inline]
    pub unsafe fn get_unchecked(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        #[cfg(feature = "racecheck")]
        {
            if i >= self.len {
                oob_1d(i, self.len);
            }
            crate::racecheck::record_read(self.ptr as usize, i);
        }
        *(self.ptr as *const T).add(i)
    }

    /// Unchecked write. Under the `racecheck` feature the access is still
    /// bounds-checked and recorded (see [`View1::get_unchecked`]).
    ///
    /// # Safety
    /// `i < self.len()` and element `i` is owned by this iteration.
    #[inline]
    pub unsafe fn set_unchecked(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        #[cfg(feature = "racecheck")]
        {
            if i >= self.len {
                oob_1d(i, self.len);
            }
            crate::racecheck::record_write(self.ptr as usize, i);
        }
        *self.ptr.add(i) = value;
    }
}

/// Read-only view of a 2D (column-major) array.
pub struct View2<T: AccScalar> {
    storage: Arc<RawStorage<T>>,
    ptr: *const T,
    m: usize,
    n: usize,
}
common_view_core!(View2, RawStorage);

impl<T: AccScalar> View2<T> {
    pub(crate) fn new(storage: &Arc<RawStorage<T>>, m: usize, n: usize) -> Self {
        debug_assert_eq!(storage.len(), m * n);
        View2 {
            ptr: storage.ptr() as *const T,
            m,
            n,
            storage: Arc::clone(storage),
        }
    }

    /// Row count (fast axis).
    #[inline]
    pub fn nrows(&self) -> usize {
        self.m
    }

    /// Column count (slow axis).
    #[inline]
    pub fn ncols(&self) -> usize {
        self.n
    }

    /// Bounds-checked read of element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        if i >= self.m || j >= self.n {
            oob_2d(i, j, self.m, self.n);
        }
        #[cfg(feature = "racecheck")]
        crate::racecheck::record_read(self.ptr as usize, j * self.m + i);
        // SAFETY: bounds checked.
        unsafe { *self.ptr.add(j * self.m + i) }
    }

    /// Unchecked read — see [`View1::get_unchecked`] for the contract and
    /// the racecheck behavior.
    ///
    /// # Safety
    /// `i < nrows() && j < ncols()`.
    #[inline]
    pub unsafe fn get_unchecked(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.m && j < self.n);
        #[cfg(feature = "racecheck")]
        {
            if i >= self.m || j >= self.n {
                oob_2d(i, j, self.m, self.n);
            }
            crate::racecheck::record_read(self.ptr as usize, j * self.m + i);
        }
        *self.ptr.add(j * self.m + i)
    }
}

/// Writable view of a 2D (column-major) array.
pub struct ViewMut2<T: AccScalar> {
    storage: Arc<RawStorage<T>>,
    ptr: *mut T,
    m: usize,
    n: usize,
}
common_view_core!(ViewMut2, RawStorage);

impl<T: AccScalar> ViewMut2<T> {
    pub(crate) fn new(storage: &Arc<RawStorage<T>>, m: usize, n: usize) -> Self {
        debug_assert_eq!(storage.len(), m * n);
        ViewMut2 {
            ptr: storage.ptr(),
            m,
            n,
            storage: Arc::clone(storage),
        }
    }

    /// Row count (fast axis).
    #[inline]
    pub fn nrows(&self) -> usize {
        self.m
    }

    /// Column count (slow axis).
    #[inline]
    pub fn ncols(&self) -> usize {
        self.n
    }

    /// Bounds-checked read.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        if i >= self.m || j >= self.n {
            oob_2d(i, j, self.m, self.n);
        }
        #[cfg(feature = "racecheck")]
        crate::racecheck::record_read(self.ptr as usize, j * self.m + i);
        // SAFETY: bounds checked.
        unsafe { *(self.ptr as *const T).add(j * self.m + i) }
    }

    /// Bounds-checked write.
    #[inline]
    pub fn set(&self, i: usize, j: usize, value: T) {
        if i >= self.m || j >= self.n {
            oob_2d(i, j, self.m, self.n);
        }
        #[cfg(feature = "racecheck")]
        crate::racecheck::record_write(self.ptr as usize, j * self.m + i);
        // SAFETY: bounds checked; disjoint-writes contract.
        unsafe { *self.ptr.add(j * self.m + i) = value };
    }
}

/// Read-only view of a 3D (column-major) array.
pub struct View3<T: AccScalar> {
    storage: Arc<RawStorage<T>>,
    ptr: *const T,
    m: usize,
    n: usize,
    l: usize,
}
common_view_core!(View3, RawStorage);

impl<T: AccScalar> View3<T> {
    pub(crate) fn new(storage: &Arc<RawStorage<T>>, m: usize, n: usize, l: usize) -> Self {
        debug_assert_eq!(storage.len(), m * n * l);
        View3 {
            ptr: storage.ptr() as *const T,
            m,
            n,
            l,
            storage: Arc::clone(storage),
        }
    }

    /// Extents `(m, n, l)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.m, self.n, self.l)
    }

    /// Bounds-checked read of element `(i, j, k)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize) -> T {
        if i >= self.m || j >= self.n || k >= self.l {
            oob_3d(i, j, k, self.m, self.n, self.l);
        }
        #[cfg(feature = "racecheck")]
        crate::racecheck::record_read(self.ptr as usize, (k * self.n + j) * self.m + i);
        // SAFETY: bounds checked.
        unsafe { *self.ptr.add((k * self.n + j) * self.m + i) }
    }
}

/// Writable view of a 3D (column-major) array.
pub struct ViewMut3<T: AccScalar> {
    storage: Arc<RawStorage<T>>,
    ptr: *mut T,
    m: usize,
    n: usize,
    l: usize,
}
common_view_core!(ViewMut3, RawStorage);

impl<T: AccScalar> ViewMut3<T> {
    pub(crate) fn new(storage: &Arc<RawStorage<T>>, m: usize, n: usize, l: usize) -> Self {
        debug_assert_eq!(storage.len(), m * n * l);
        ViewMut3 {
            ptr: storage.ptr(),
            m,
            n,
            l,
            storage: Arc::clone(storage),
        }
    }

    /// Extents `(m, n, l)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.m, self.n, self.l)
    }

    /// Bounds-checked read.
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize) -> T {
        if i >= self.m || j >= self.n || k >= self.l {
            oob_3d(i, j, k, self.m, self.n, self.l);
        }
        #[cfg(feature = "racecheck")]
        crate::racecheck::record_read(self.ptr as usize, (k * self.n + j) * self.m + i);
        // SAFETY: bounds checked.
        unsafe { *(self.ptr as *const T).add((k * self.n + j) * self.m + i) }
    }

    /// Bounds-checked write.
    #[inline]
    pub fn set(&self, i: usize, j: usize, k: usize, value: T) {
        if i >= self.m || j >= self.n || k >= self.l {
            oob_3d(i, j, k, self.m, self.n, self.l);
        }
        #[cfg(feature = "racecheck")]
        crate::racecheck::record_write(self.ptr as usize, (k * self.n + j) * self.m + i);
        // SAFETY: bounds checked; disjoint-writes contract.
        unsafe { *self.ptr.add((k * self.n + j) * self.m + i) = value };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storage_from(data: &[f64]) -> Arc<RawStorage<f64>> {
        Arc::new(RawStorage::from_slice(data).unwrap())
    }

    #[test]
    fn view1_reads_and_writes() {
        let s = storage_from(&[1.0, 2.0, 3.0]);
        let r = View1::new(&s);
        let w = ViewMut1::new(&s);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.get(1), 2.0);
        w.set(1, 9.0);
        assert_eq!(r.get(1), 9.0);
        assert_eq!(w.get(1), 9.0);
        let r2 = r.clone();
        assert_eq!(r2.get(2), 3.0);
    }

    #[test]
    fn view2_is_column_major() {
        // 2x3 matrix stored column-major: [a11 a21 a12 a22 a13 a23]
        let s = storage_from(&[11.0, 21.0, 12.0, 22.0, 13.0, 23.0]);
        let v = View2::new(&s, 2, 3);
        assert_eq!(v.nrows(), 2);
        assert_eq!(v.ncols(), 3);
        assert_eq!(v.get(0, 0), 11.0);
        assert_eq!(v.get(1, 0), 21.0);
        assert_eq!(v.get(0, 2), 13.0);
        assert_eq!(v.get(1, 2), 23.0);
        let w = ViewMut2::new(&s, 2, 3);
        w.set(1, 1, 99.0);
        assert_eq!(v.get(1, 1), 99.0);
        assert_eq!(View1::new(&s).get(3), 99.0, "(1,1) is linear offset 3");
    }

    #[test]
    fn view3_linearization() {
        let mnl = 2 * 3 * 4;
        let data: Vec<f64> = (0..mnl).map(|x| x as f64).collect();
        let s = storage_from(&data);
        let v = View3::new(&s, 2, 3, 4);
        assert_eq!(v.dims(), (2, 3, 4));
        for k in 0..4 {
            for j in 0..3 {
                for i in 0..2 {
                    assert_eq!(v.get(i, j, k), ((k * 3 + j) * 2 + i) as f64);
                }
            }
        }
        let w = ViewMut3::new(&s, 2, 3, 4);
        w.set(1, 2, 3, -1.0);
        assert_eq!(v.get(1, 2, 3), -1.0);
        assert_eq!(w.get(1, 2, 3), -1.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view1_read_oob() {
        let s = storage_from(&[1.0]);
        View1::new(&s).get(1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view2_write_oob() {
        let s = storage_from(&[0.0; 6]);
        ViewMut2::new(&s, 2, 3).set(2, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view3_read_oob() {
        let s = storage_from(&[0.0; 24]);
        View3::new(&s, 2, 3, 4).get(0, 3, 0);
    }

    #[test]
    fn views_keep_storage_alive() {
        let s = storage_from(&[5.0]);
        let v = View1::new(&s);
        drop(s);
        assert_eq!(v.get(0), 5.0);
    }
}
