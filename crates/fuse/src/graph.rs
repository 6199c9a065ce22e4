//! Expression-graph node types.
//!
//! An [`Expr`](crate::Expr) is a small immutable DAG of [`ENode`]s shared
//! through `Rc`, built by the operator overloads in the crate root. Nodes
//! reference arrays through rank-erased views ([`AnyView`] /
//! [`AnyViewMut`]) addressed by the **linear** (column-major) element
//! index, the same cell order the eager front end touches, so fused and
//! eager evaluation read and write byte-identical locations.

use racc_core::{Array1, Array2, Array3, View1, View2, View3, ViewMut1, ViewMut2, ViewMut3};

/// Iteration space of an expression: the shape of every array it touches.
/// Two extents fuse only when they are exactly equal (same rank *and*
/// dims) — equal totals with different shapes launch differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extent {
    /// 1D of `n` elements.
    D1(usize),
    /// 2D of `m × n` elements (column-major).
    D2(usize, usize),
    /// 3D of `m × n × l` elements (column-major).
    D3(usize, usize, usize),
}

impl Extent {
    /// Total number of elements.
    pub fn total(self) -> usize {
        match self {
            Extent::D1(n) => n,
            Extent::D2(m, n) => m * n,
            Extent::D3(m, n, l) => m * n * l,
        }
    }
}

/// Elementwise unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-x`
    Neg,
    /// `x.abs()`
    Abs,
    /// `x.sqrt()`
    Sqrt,
}

impl UnOp {
    #[inline]
    pub(crate) fn apply(self, a: f64) -> f64 {
        match self {
            UnOp::Neg => -a,
            UnOp::Abs => a.abs(),
            UnOp::Sqrt => a.sqrt(),
        }
    }
}

/// Elementwise binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `a.min(b)`
    Min,
    /// `a.max(b)`
    Max,
}

impl BinOp {
    #[inline]
    pub(crate) fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }
}

/// A read-only view of any rank, addressed by linear index.
#[derive(Clone)]
pub(crate) enum AnyView {
    D1(View1<f64>),
    D2(View2<f64>),
    D3(View3<f64>),
}

impl AnyView {
    /// Element at linear (column-major) index `idx` within `extent`. The
    /// index decomposition matches the view's own layout, so the physical
    /// cell touched — and the racecheck access key — is the same one the
    /// eager construct of the same rank touches.
    #[inline]
    pub(crate) fn get(&self, extent: Extent, idx: usize) -> f64 {
        match (self, extent) {
            (AnyView::D1(v), _) => v.get(idx),
            (AnyView::D2(v), Extent::D2(m, _)) => v.get(idx % m, idx / m),
            (AnyView::D3(v), Extent::D3(m, n, _)) => {
                let mn = m * n;
                let (k, r) = (idx / mn, idx % mn);
                v.get(r % m, r / m, k)
            }
            _ => unreachable!("extent rank mismatch with view rank"),
        }
    }
}

/// A writable view of any rank, addressed by linear index.
#[derive(Clone)]
pub(crate) enum AnyViewMut {
    D1(ViewMut1<f64>),
    D2(ViewMut2<f64>),
    D3(ViewMut3<f64>),
}

impl AnyViewMut {
    #[inline]
    pub(crate) fn set(&self, extent: Extent, idx: usize, value: f64) {
        match (self, extent) {
            (AnyViewMut::D1(v), _) => v.set(idx, value),
            (AnyViewMut::D2(v), Extent::D2(m, _)) => v.set(idx % m, idx / m, value),
            (AnyViewMut::D3(v), Extent::D3(m, n, _)) => {
                let mn = m * n;
                let (k, r) = (idx / mn, idx % mn);
                v.set(r % m, r / m, k, value)
            }
            _ => unreachable!("extent rank mismatch with view rank"),
        }
    }
}

/// A leaf array reference: view + buffer identity + provenance. Public
/// only because [`Fusable`] mentions it; opaque outside the crate.
#[doc(hidden)]
#[derive(Clone)]
pub struct LoadRef {
    pub(crate) view: AnyView,
    /// Buffer identity (`Array*::buffer_id`): the aliasing key the planner
    /// uses for read-after-write hazards.
    pub(crate) id: usize,
    pub(crate) ctx_id: u64,
    pub(crate) extent: Extent,
}

/// A store destination: writable view + buffer identity + provenance.
/// Public only because [`Fusable`] mentions it; opaque outside the crate.
#[doc(hidden)]
#[derive(Clone)]
pub struct StoreRef {
    pub(crate) view: AnyViewMut,
    pub(crate) id: usize,
    pub(crate) ctx_id: u64,
    pub(crate) extent: Extent,
}

/// One DAG node. `Expr` wraps `Rc<ENode>`; shared subexpressions share the
/// allocation, which the group compiler exploits for CSE (one compiled
/// node per distinct `Rc`).
pub(crate) enum ENode {
    Load(LoadRef),
    Scalar(f64),
    Unary(UnOp, crate::Expr),
    Binary(BinOp, crate::Expr, crate::Expr),
    /// The value stored by program statement `stmt` (what
    /// [`Lazy::assign`](crate::Lazy::assign) returns). Inside the group
    /// that executes `stmt` this *forwards* the in-register value; in any
    /// later group it degrades to a reload of the materialized
    /// destination.
    Forward {
        stmt: usize,
        reload: LoadRef,
    },
}

/// Arrays that can appear in fused expressions. Sealed: implemented for
/// `Array1<f64>`, `Array2<f64>` and `Array3<f64>` (the expression engine
/// interprets in f64, the element type of every paper workload).
pub trait Fusable: sealed::Sealed {
    #[doc(hidden)]
    fn load_ref(&self) -> LoadRef;
    #[doc(hidden)]
    fn store_ref(&self) -> StoreRef;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for racc_core::Array1<f64> {}
    impl Sealed for racc_core::Array2<f64> {}
    impl Sealed for racc_core::Array3<f64> {}
}

impl Fusable for Array1<f64> {
    fn load_ref(&self) -> LoadRef {
        LoadRef {
            view: AnyView::D1(self.view()),
            id: self.buffer_id(),
            ctx_id: self.ctx_id(),
            extent: Extent::D1(self.len()),
        }
    }

    fn store_ref(&self) -> StoreRef {
        StoreRef {
            view: AnyViewMut::D1(self.view_mut()),
            id: self.buffer_id(),
            ctx_id: self.ctx_id(),
            extent: Extent::D1(self.len()),
        }
    }
}

impl Fusable for Array2<f64> {
    fn load_ref(&self) -> LoadRef {
        let (m, n) = self.dims();
        LoadRef {
            view: AnyView::D2(self.view()),
            id: self.buffer_id(),
            ctx_id: self.ctx_id(),
            extent: Extent::D2(m, n),
        }
    }

    fn store_ref(&self) -> StoreRef {
        let (m, n) = self.dims();
        StoreRef {
            view: AnyViewMut::D2(self.view_mut()),
            id: self.buffer_id(),
            ctx_id: self.ctx_id(),
            extent: Extent::D2(m, n),
        }
    }
}

impl Fusable for Array3<f64> {
    fn load_ref(&self) -> LoadRef {
        let (m, n, l) = self.dims();
        LoadRef {
            view: AnyView::D3(self.view()),
            id: self.buffer_id(),
            ctx_id: self.ctx_id(),
            extent: Extent::D3(m, n, l),
        }
    }

    fn store_ref(&self) -> StoreRef {
        let (m, n, l) = self.dims();
        StoreRef {
            view: AnyViewMut::D3(self.view_mut()),
            id: self.buffer_id(),
            ctx_id: self.ctx_id(),
            extent: Extent::D3(m, n, l),
        }
    }
}
