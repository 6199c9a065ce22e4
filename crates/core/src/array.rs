//! Unified arrays — the `JACC.Array` analog.
//!
//! Arrays are created through a [`crate::Context`] so the backend can model
//! the allocation and host-to-device transfer (on CPU back ends these cost
//! nothing, exactly as the paper notes that `JACC.Array` "is not necessary"
//! under `Base.Threads`). Element storage is host memory in all cases —
//! functional execution happens there — while accelerator back ends keep a
//! residency token that models device-side capacity.
//!
//! Multidimensional arrays are **column-major**, matching Julia; the 2D
//! element `(i, j)` of an `m × n` array lives at linear offset `j * m + i`.

use std::sync::Arc;

use crate::backend::DeviceToken;
use crate::buffer::RawStorage;
use crate::scalar::AccScalar;
use crate::views::{View1, View2, View3, ViewMut1, ViewMut2, ViewMut3};

macro_rules! array_common {
    ($name:ident) => {
        impl<T: AccScalar> std::fmt::Debug for $name<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($name))
                    .field("len", &self.storage.len())
                    .field("ctx", &self.ctx_id)
                    .finish()
            }
        }

        impl<T: AccScalar> $name<T> {
            /// Total number of elements.
            pub fn len(&self) -> usize {
                self.storage.len()
            }

            /// True when the array holds no elements.
            pub fn is_empty(&self) -> bool {
                self.storage.len() == 0
            }

            /// Size in bytes.
            pub fn size_bytes(&self) -> usize {
                self.storage.size_bytes()
            }

            /// Id of the context this array belongs to.
            pub fn ctx_id(&self) -> u64 {
                self.ctx_id
            }

            /// Stable identity of the underlying buffer: the storage base
            /// address. Two arrays alias iff their ids are equal (storages
            /// are uniquely owned, so the id also matches the key the
            /// racecheck layer uses). `racc-fuse` uses this to detect
            /// read-after-write hazards across fused statements.
            pub fn buffer_id(&self) -> usize {
                self.storage.ptr() as usize
            }

            pub(crate) fn storage(&self) -> &Arc<RawStorage<T>> {
                &self.storage
            }
        }
    };
}

/// A one-dimensional unified array.
pub struct Array1<T: AccScalar> {
    storage: Arc<RawStorage<T>>,
    #[allow(dead_code)] // held for its Drop (device residency accounting)
    token: DeviceToken,
    ctx_id: u64,
}
array_common!(Array1);

impl<T: AccScalar> Array1<T> {
    pub(crate) fn new(storage: RawStorage<T>, token: DeviceToken, ctx_id: u64) -> Self {
        Array1 {
            storage: Arc::new(storage),
            token,
            ctx_id,
        }
    }

    /// Read-only kernel view.
    pub fn view(&self) -> View1<T> {
        View1::new(&self.storage)
    }

    /// Writable kernel view (disjoint-writes contract).
    pub fn view_mut(&self) -> ViewMut1<T> {
        ViewMut1::new(&self.storage)
    }
}

/// A two-dimensional (column-major) unified array.
pub struct Array2<T: AccScalar> {
    storage: Arc<RawStorage<T>>,
    #[allow(dead_code)]
    token: DeviceToken,
    ctx_id: u64,
    m: usize,
    n: usize,
}
array_common!(Array2);

impl<T: AccScalar> Array2<T> {
    pub(crate) fn new(
        storage: RawStorage<T>,
        token: DeviceToken,
        ctx_id: u64,
        m: usize,
        n: usize,
    ) -> Self {
        debug_assert_eq!(storage.len(), m * n);
        Array2 {
            storage: Arc::new(storage),
            token,
            ctx_id,
            m,
            n,
        }
    }

    /// Row count (fast axis).
    pub fn nrows(&self) -> usize {
        self.m
    }

    /// Column count (slow axis).
    pub fn ncols(&self) -> usize {
        self.n
    }

    /// Extents `(m, n)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    /// Read-only kernel view.
    pub fn view(&self) -> View2<T> {
        View2::new(&self.storage, self.m, self.n)
    }

    /// Writable kernel view.
    pub fn view_mut(&self) -> ViewMut2<T> {
        ViewMut2::new(&self.storage, self.m, self.n)
    }
}

/// A three-dimensional (column-major) unified array.
pub struct Array3<T: AccScalar> {
    storage: Arc<RawStorage<T>>,
    #[allow(dead_code)]
    token: DeviceToken,
    ctx_id: u64,
    m: usize,
    n: usize,
    l: usize,
}
array_common!(Array3);

impl<T: AccScalar> Array3<T> {
    pub(crate) fn new(
        storage: RawStorage<T>,
        token: DeviceToken,
        ctx_id: u64,
        m: usize,
        n: usize,
        l: usize,
    ) -> Self {
        debug_assert_eq!(storage.len(), m * n * l);
        Array3 {
            storage: Arc::new(storage),
            token,
            ctx_id,
            m,
            n,
            l,
        }
    }

    /// Extents `(m, n, l)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.m, self.n, self.l)
    }

    /// Read-only kernel view.
    pub fn view(&self) -> View3<T> {
        View3::new(&self.storage, self.m, self.n, self.l)
    }

    /// Writable kernel view.
    pub fn view_mut(&self) -> ViewMut3<T> {
        ViewMut3::new(&self.storage, self.m, self.n, self.l)
    }
}
