//! Element and reduction-operator traits.

/// Types storable in RACC arrays and reducible by the constructs.
pub trait AccScalar: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {}
impl<T: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static> AccScalar for T {}

/// Arithmetic needed by the built-in reduction operators. Implemented for
/// the integer and floating-point types.
pub trait Numeric: AccScalar + PartialOrd {
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Identity of `max` (the smallest representable value, `-inf` for
    /// floats).
    const MIN_ID: Self;
    /// Identity of `min`.
    const MAX_ID: Self;
    /// Addition.
    fn add(self, other: Self) -> Self;
    /// Multiplication.
    fn mul(self, other: Self) -> Self;
    /// Maximum. For floats this is IEEE-754 `maximumNumber` (Rust's
    /// [`f64::max`]): **NaN-dropping** — if exactly one operand is NaN the
    /// other is returned, and only `NaN.max_of(NaN)` is NaN. See
    /// [`ReduceOp`] for why this makes `Max`/`Min` reductions
    /// association-invariant in the presence of NaN.
    fn max_of(self, other: Self) -> Self;
    /// Minimum, with the same NaN-dropping contract as [`Numeric::max_of`].
    fn min_of(self, other: Self) -> Self;
}

macro_rules! impl_numeric_int {
    ($($t:ty),*) => {$(
        impl Numeric for $t {
            const ZERO: Self = 0;
            const ONE: Self = 1;
            const MIN_ID: Self = <$t>::MIN;
            const MAX_ID: Self = <$t>::MAX;
            #[inline] fn add(self, other: Self) -> Self { self.wrapping_add(other) }
            #[inline] fn mul(self, other: Self) -> Self { self.wrapping_mul(other) }
            #[inline] fn max_of(self, other: Self) -> Self { self.max(other) }
            #[inline] fn min_of(self, other: Self) -> Self { self.min(other) }
        }
    )*};
}

macro_rules! impl_numeric_float {
    ($($t:ty),*) => {$(
        impl Numeric for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const MIN_ID: Self = <$t>::NEG_INFINITY;
            const MAX_ID: Self = <$t>::INFINITY;
            #[inline] fn add(self, other: Self) -> Self { self + other }
            #[inline] fn mul(self, other: Self) -> Self { self * other }
            #[inline] fn max_of(self, other: Self) -> Self { self.max(other) }
            #[inline] fn min_of(self, other: Self) -> Self { self.min(other) }
        }
    )*};
}

impl_numeric_int!(i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize);
impl_numeric_float!(f32, f64);

/// A reduction monoid: an identity plus an associative combiner. The unit
/// structs [`Sum`], [`Prod`], [`Max`], [`Min`] cover the common cases; the
/// paper's `parallel_reduce` is the `Sum` instance.
///
/// # NaN contract (floats)
///
/// Backends combine partial results in different shapes (a left fold on
/// serial, fixed tiles combined in index order on the stealing threadpool,
/// identity-padded shared-memory trees on the simulators), so the combiner
/// must give the same answer under *any* association. For [`Max`]/[`Min`]
/// that forces the **NaN-dropping** semantics of [`Numeric::max_of`] /
/// [`Numeric::min_of`]: a NaN input is discarded at its first combine with
/// any non-NaN value (including the ±∞ identity used for padding), so
///
/// * `Max`/`Min` over inputs containing NaN return the max/min of the
///   non-NaN values — bit-identically on every backend;
/// * `Max`/`Min` over all-NaN (or empty) inputs return the identity
///   (`-inf` / `+inf`), **not** NaN.
///
/// A NaN-*propagating* max would not be associativity-stable here: whether
/// NaN survived would depend on tile boundaries. Callers that need to
/// detect NaN should reduce `x.is_nan()` separately. [`Sum`]/[`Prod`]
/// propagate NaN as ordinary float arithmetic does, identically under any
/// association.
pub trait ReduceOp<T>: Copy + Send + Sync + 'static {
    /// The identity element of the monoid.
    fn identity(&self) -> T;
    /// The associative combiner.
    fn combine(&self, a: T, b: T) -> T;
}

/// Summation (JACC's reduction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sum;

impl<T: Numeric> ReduceOp<T> for Sum {
    #[inline]
    fn identity(&self) -> T {
        T::ZERO
    }
    #[inline]
    fn combine(&self, a: T, b: T) -> T {
        a.add(b)
    }
}

/// Product reduction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Prod;

impl<T: Numeric> ReduceOp<T> for Prod {
    #[inline]
    fn identity(&self) -> T {
        T::ONE
    }
    #[inline]
    fn combine(&self, a: T, b: T) -> T {
        a.mul(b)
    }
}

/// Maximum reduction. NaN inputs are dropped (see the [`ReduceOp`] NaN
/// contract); all-NaN inputs reduce to `-inf`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Max;

impl<T: Numeric> ReduceOp<T> for Max {
    #[inline]
    fn identity(&self) -> T {
        T::MIN_ID
    }
    #[inline]
    fn combine(&self, a: T, b: T) -> T {
        a.max_of(b)
    }
}

/// Minimum reduction. NaN inputs are dropped (see the [`ReduceOp`] NaN
/// contract); all-NaN inputs reduce to `+inf`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Min;

impl<T: Numeric> ReduceOp<T> for Min {
    #[inline]
    fn identity(&self) -> T {
        T::MAX_ID
    }
    #[inline]
    fn combine(&self, a: T, b: T) -> T {
        a.min_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold<T, O: ReduceOp<T>>(op: O, items: &[T]) -> T
    where
        T: Copy,
    {
        items.iter().fold(op.identity(), |a, &b| op.combine(a, b))
    }

    #[test]
    fn sum_and_prod() {
        assert_eq!(fold(Sum, &[1i64, 2, 3, 4]), 10);
        assert_eq!(fold(Prod, &[1i64, 2, 3, 4]), 24);
        assert_eq!(fold(Sum, &[1.5f64, 2.5]), 4.0);
        assert_eq!(fold::<f64, _>(Sum, &[]), 0.0);
        assert_eq!(fold::<f64, _>(Prod, &[]), 1.0);
    }

    #[test]
    fn max_and_min_with_identities() {
        assert_eq!(fold(Max, &[3i32, -7, 5]), 5);
        assert_eq!(fold(Min, &[3i32, -7, 5]), -7);
        assert_eq!(fold::<f64, _>(Max, &[]), f64::NEG_INFINITY);
        assert_eq!(fold::<f64, _>(Min, &[]), f64::INFINITY);
        assert_eq!(fold(Max, &[-1.0f64, -2.0]), -1.0);
        assert_eq!(fold::<i32, _>(Max, &[]), i32::MIN);
        assert_eq!(fold::<u32, _>(Min, &[]), u32::MAX);
    }

    #[test]
    fn max_min_drop_nan_under_any_association() {
        // The pinned NaN contract: NaN is discarded at its first combine
        // with a non-NaN (identity padding included), so left folds and
        // identity-padded trees agree bitwise.
        let xs = [f64::NAN, 3.0, f64::NAN, -7.0, 5.0];
        let folded = fold(Max, &xs);
        assert_eq!(folded.to_bits(), 5.0f64.to_bits());
        assert_eq!(fold(Min, &xs).to_bits(), (-7.0f64).to_bits());
        // Tree association (pairwise, identity-padded to a power of two),
        // the shape the simulators' shared-memory reduction uses.
        let mut level: Vec<f64> = xs.to_vec();
        level.resize(8, Max.identity());
        while level.len() > 1 {
            level = level.chunks(2).map(|c| Max.combine(c[0], c[1])).collect();
        }
        assert_eq!(level[0].to_bits(), folded.to_bits());
    }

    #[test]
    fn max_min_over_all_nan_return_identity() {
        let xs = [f32::NAN, f32::NAN];
        assert_eq!(fold(Max, &xs), f32::NEG_INFINITY);
        assert_eq!(fold(Min, &xs), f32::INFINITY);
    }

    #[test]
    fn sum_propagates_nan() {
        assert!(fold(Sum, &[1.0f64, f64::NAN, 2.0]).is_nan());
    }

    #[test]
    fn integer_sum_wraps_instead_of_panicking() {
        // Reductions over user data must not abort on overflow.
        assert_eq!(fold(Sum, &[i64::MAX, 1]), i64::MIN);
    }
}
