//! # racc-prim
//!
//! Portable device primitives for the RACC front end: inclusive/exclusive
//! **scan**, **histogram**, and **sort-by-key**, running on every back end
//! (serial, threads, and the three simulated GPUs).
//!
//! The primitives are a library *over* the kernel abstraction, not part of
//! it: `racc_core::Backend` knows nothing of them. A back end that offers
//! them implements [`PrimBackend`], the three entry points declared here;
//! this crate implements it for the two CPU back ends, `racc-backend-common`
//! for the simulator, and [`PrimExt`] puts the user-facing calls on every
//! `Context` over such a back end.
//!
//! The contract that makes them composable:
//!
//! * **Bit-identical everywhere.** Every backend follows the canonical
//!   fixed-tile association of [`reference`](mod@reference), so results
//!   agree *bitwise* across backends and run-to-run — including `f32`
//!   scans under work stealing, and including NaN payloads (see the
//!   `ReduceOp` NaN contract in `racc-core`).
//! * **Validated inputs.** [`PrimExt::histogram`] checks every key against
//!   the bin count and reports the first offender as a typed
//!   [`PrimError::BinOutOfRange`] instead of library-level UB.
//!   [`PrimExt::histogram_by_unchecked`] skips the check — on the
//!   simulator back ends an out-of-range key then dies in the device
//!   bounds checks (`simsan`), which is exactly what its negative tests
//!   assert.
//! * **Empty extents are defined.** `n == 0` scans/sorts return empty
//!   arrays; histograms always write every one of `bins` counts (zeros
//!   included).
//!
//! ```
//! use racc_core::{Context, SerialBackend};
//! use racc_prim::PrimExt;
//!
//! let ctx = Context::new(SerialBackend::new());
//! let x = ctx.array_from(&[1.0f64, 2.0, 3.0]).unwrap();
//! let s = ctx.inclusive_scan(&x).unwrap();
//! assert_eq!(ctx.to_host(&s).unwrap(), vec![1.0, 3.0, 6.0]);
//! ```

use racc_core::{
    AccScalar, Array1, Backend, Context, KernelProfile, Min, Numeric, RaccError, ReduceOp, Sum,
};

mod cpu;
pub mod reference;

/// A back end that runs the device primitives. All three entry points are
/// required: a primitive is a kernel per execution engine (tile folds on
/// the pool, shared-memory blocks on the simulator), and there is no
/// generic fallback to be silently slower or differently rounded.
pub trait PrimBackend: Backend {
    /// Writes the inclusive (or exclusive) scan of `read(0..n)` under `op`
    /// through `write(i, value)`, following the canonical two-level tiling
    /// of [`reference`](mod@reference) exactly — results are bit-identical
    /// across backends and run-to-run. `n == 0` writes nothing.
    fn prim_scan<T, F, W, O>(
        &self,
        n: usize,
        inclusive: bool,
        profile: &KernelProfile,
        read: F,
        write: W,
        op: O,
    ) where
        T: AccScalar,
        F: Fn(usize) -> T + Sync,
        W: Fn(usize, T) + Sync,
        O: ReduceOp<T>;

    /// Counts `key(i)` for `i in 0..n` into `bins` buckets and writes
    /// **every** bin's `u64` count (zeros included) through
    /// `write(bin, count)`. The caller guarantees `key(i) < bins`;
    /// out-of-range keys are library-level UB that the simulators' bounds
    /// checks / simsan turn into a panic ([`PrimExt::histogram_by`]
    /// reports them as a typed error first).
    fn prim_histogram<F, W>(
        &self,
        n: usize,
        bins: usize,
        profile: &KernelProfile,
        key: F,
        write: W,
    ) where
        F: Fn(usize) -> usize + Sync,
        W: Fn(usize, u64) + Sync;

    /// Stable ascending sort of the order-encoded `key(i)` bits (ties
    /// toward the smaller index), reporting the permutation through
    /// `write(rank, original_index)` for `rank in 0..n`. `key_bits` bounds
    /// the significant low bits of every key (the simulators size their
    /// radix passes from it). The output permutation is unique, so every
    /// backend agrees exactly.
    fn prim_sort_pairs<F, W>(
        &self,
        n: usize,
        key_bits: u32,
        profile: &KernelProfile,
        key: F,
        write: W,
    ) where
        F: Fn(usize) -> u64 + Sync,
        W: Fn(usize, usize) + Sync;
}

/// Cost annotation for scan launches: two passes over the input, one
/// output write per element.
pub const SCAN_PROFILE: KernelProfile = KernelProfile::new("prim_scan", 1.0, 16.0, 8.0);

/// Cost annotation for histogram launches: one key read and one counter
/// update per element.
pub const HISTOGRAM_PROFILE: KernelProfile = KernelProfile::new("prim_histogram", 1.0, 8.0, 8.0);

/// Cost annotation for sort launches: key + payload traffic per element
/// per pass.
pub const SORT_PROFILE: KernelProfile = KernelProfile::new("prim_sort", 2.0, 16.0, 16.0);

/// Cost annotation for the histogram key-validation sweep.
const VALIDATE_PROFILE: KernelProfile = KernelProfile::new("prim_validate", 1.0, 8.0, 0.0);

/// Error type of the validated primitive wrappers.
#[derive(Debug, Clone, PartialEq)]
pub enum PrimError {
    /// A histogram key mapped outside `0..bins`. `index` is the smallest
    /// offending element index (deterministic), `bin` its out-of-range
    /// value.
    BinOutOfRange {
        /// Smallest element index whose key is out of range.
        index: usize,
        /// The offending bin value `key(index)`.
        bin: usize,
        /// The histogram's bin count.
        bins: usize,
    },
    /// `sort_by_key` was given keys and values of different lengths.
    LengthMismatch {
        /// Key array length.
        keys: usize,
        /// Value array length.
        values: usize,
    },
    /// The backend failed (allocation, fault budget, ...).
    Backend(RaccError),
}

impl std::fmt::Display for PrimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrimError::BinOutOfRange { index, bin, bins } => write!(
                f,
                "histogram key at index {index} maps to bin {bin}, outside 0..{bins}"
            ),
            PrimError::LengthMismatch { keys, values } => write!(
                f,
                "sort_by_key requires equal lengths (keys: {keys}, values: {values})"
            ),
            PrimError::Backend(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PrimError {}

impl From<RaccError> for PrimError {
    fn from(e: RaccError) -> Self {
        PrimError::Backend(e)
    }
}

/// A sortable key type: maps to `u64` bits whose unsigned order equals the
/// type's ascending order (total order; for floats the IEEE-754 bit trick,
/// which orders `-NaN < -inf < ... < +inf < +NaN`). `KEY_BITS` bounds the
/// significant low bits so the simulators size their radix passes.
pub trait SortKey: AccScalar {
    /// Significant low bits of [`sort_bits`](Self::sort_bits).
    const KEY_BITS: u32;
    /// The order-preserving bit encoding.
    fn sort_bits(self) -> u64;
}

macro_rules! unsigned_sort_key {
    ($($t:ty),*) => {$(
        impl SortKey for $t {
            const KEY_BITS: u32 = <$t>::BITS;
            #[inline]
            fn sort_bits(self) -> u64 {
                self as u64
            }
        }
    )*};
}
unsigned_sort_key!(u8, u16, u32, u64, usize);

macro_rules! signed_sort_key {
    ($($t:ty => $u:ty),*) => {$(
        impl SortKey for $t {
            const KEY_BITS: u32 = <$t>::BITS;
            #[inline]
            fn sort_bits(self) -> u64 {
                // Flip the sign bit: negative values sort below positives.
                ((self as $u) ^ (1 << (<$t>::BITS - 1))) as u64
            }
        }
    )*};
}
signed_sort_key!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl SortKey for f32 {
    const KEY_BITS: u32 = 32;
    #[inline]
    fn sort_bits(self) -> u64 {
        let bits = self.to_bits();
        // IEEE total order: negatives reverse (complement), positives get
        // the sign bit set so they sort above all negatives.
        (if bits >> 31 == 1 {
            !bits
        } else {
            bits ^ 0x8000_0000
        }) as u64
    }
}

impl SortKey for f64 {
    const KEY_BITS: u32 = 64;
    #[inline]
    fn sort_bits(self) -> u64 {
        let bits = self.to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits ^ 0x8000_0000_0000_0000
        }
    }
}

/// Device primitives on a [`Context`]. Implemented for `Context<B>` over
/// any [`PrimBackend`]; `racc::Ctx` (enum dispatch) gets it transitively.
pub trait PrimExt {
    /// Inclusive prefix sum: `out[i] = in[0] + ... + in[i]`, with
    /// `out[0] == in[0]` bitwise.
    fn inclusive_scan<T: Numeric>(&self, input: &Array1<T>) -> Result<Array1<T>, PrimError>;

    /// Exclusive prefix sum: `out[0] = 0`, `out[i] = in[0] + ... + in[i-1]`.
    fn exclusive_scan<T: Numeric>(&self, input: &Array1<T>) -> Result<Array1<T>, PrimError>;

    /// Inclusive scan under an arbitrary [`ReduceOp`].
    fn inclusive_scan_with<T: AccScalar, O: ReduceOp<T>>(
        &self,
        input: &Array1<T>,
        op: O,
    ) -> Result<Array1<T>, PrimError>;

    /// Exclusive scan under an arbitrary [`ReduceOp`] (`out[0]` is the
    /// operator identity).
    fn exclusive_scan_with<T: AccScalar, O: ReduceOp<T>>(
        &self,
        input: &Array1<T>,
        op: O,
    ) -> Result<Array1<T>, PrimError>;

    /// Count `keys` into `bins` buckets. Every key is validated against
    /// `bins` first; the smallest offending index is reported as
    /// [`PrimError::BinOutOfRange`]. The output always has exactly `bins`
    /// counts (zeros included).
    fn histogram(&self, keys: &Array1<u32>, bins: usize) -> Result<Array1<u64>, PrimError>;

    /// [`histogram`](Self::histogram) with a computed key: counts
    /// `key(i)` for `i in 0..n`, validated the same way.
    fn histogram_by<F>(&self, n: usize, bins: usize, key: F) -> Result<Array1<u64>, PrimError>
    where
        F: Fn(usize) -> usize + Sync;

    /// [`histogram_by`](Self::histogram_by) **without** key validation.
    /// An out-of-range key is library-level UB: on the simulator back
    /// ends it panics in the device bounds checks (which `simsan`
    /// reports), on CPU back ends in the output-array bounds check. Only
    /// for keys already proven in range.
    fn histogram_by_unchecked<F>(
        &self,
        n: usize,
        bins: usize,
        key: F,
    ) -> Result<Array1<u64>, PrimError>
    where
        F: Fn(usize) -> usize + Sync;

    /// The permutation that stably sorts `keys` ascending: element `rank`
    /// of the result is the original index of the rank-th smallest key
    /// (ties keep their original order). The permutation is unique, so
    /// every backend returns identical bits.
    fn sort_permutation<K: SortKey>(&self, keys: &Array1<K>) -> Result<Array1<u64>, PrimError>;

    /// Stable ascending sort of `(keys, values)` pairs by key; returns the
    /// reordered keys and values as new arrays.
    fn sort_by_key<K: SortKey, V: AccScalar>(
        &self,
        keys: &Array1<K>,
        values: &Array1<V>,
    ) -> Result<(Array1<K>, Array1<V>), PrimError>;
}

impl<B: PrimBackend> PrimExt for Context<B> {
    fn inclusive_scan<T: Numeric>(&self, input: &Array1<T>) -> Result<Array1<T>, PrimError> {
        self.inclusive_scan_with(input, Sum)
    }

    fn exclusive_scan<T: Numeric>(&self, input: &Array1<T>) -> Result<Array1<T>, PrimError> {
        self.exclusive_scan_with(input, Sum)
    }

    fn inclusive_scan_with<T: AccScalar, O: ReduceOp<T>>(
        &self,
        input: &Array1<T>,
        op: O,
    ) -> Result<Array1<T>, PrimError> {
        scan_impl(self, input, true, op)
    }

    fn exclusive_scan_with<T: AccScalar, O: ReduceOp<T>>(
        &self,
        input: &Array1<T>,
        op: O,
    ) -> Result<Array1<T>, PrimError> {
        scan_impl(self, input, false, op)
    }

    fn histogram(&self, keys: &Array1<u32>, bins: usize) -> Result<Array1<u64>, PrimError> {
        let kv = keys.view();
        self.histogram_by(keys.len(), bins, move |i| kv.get(i) as usize)
    }

    fn histogram_by<F>(&self, n: usize, bins: usize, key: F) -> Result<Array1<u64>, PrimError>
    where
        F: Fn(usize) -> usize + Sync,
    {
        // Validation sweep: the *smallest* offending index (a Min
        // reduction — deterministic on every backend) so the error is
        // reproducible, not racy.
        let first_bad: u64 = self.parallel_reduce_with(n, &VALIDATE_PROFILE, Min, |i| {
            if key(i) < bins {
                u64::MAX
            } else {
                i as u64
            }
        });
        if first_bad != u64::MAX {
            let index = first_bad as usize;
            return Err(PrimError::BinOutOfRange {
                index,
                bin: key(index),
                bins,
            });
        }
        self.histogram_by_unchecked(n, bins, key)
    }

    fn histogram_by_unchecked<F>(
        &self,
        n: usize,
        bins: usize,
        key: F,
    ) -> Result<Array1<u64>, PrimError>
    where
        F: Fn(usize) -> usize + Sync,
    {
        let out = self.zeros::<u64>(bins)?;
        let ov = out.view_mut();
        self.backend()
            .prim_histogram(n, bins, &HISTOGRAM_PROFILE, key, move |bin, count| {
                ov.set(bin, count)
            });
        bump(self, |c| &c.histograms, n);
        Ok(out)
    }

    fn sort_permutation<K: SortKey>(&self, keys: &Array1<K>) -> Result<Array1<u64>, PrimError> {
        let n = keys.len();
        let out = self.zeros::<u64>(n)?;
        let kv = keys.view();
        let ov = out.view_mut();
        self.backend().prim_sort_pairs(
            n,
            K::KEY_BITS,
            &SORT_PROFILE,
            move |i| kv.get(i).sort_bits(),
            move |rank, original| ov.set(rank, original as u64),
        );
        bump(self, |c| &c.sorts, n);
        Ok(out)
    }

    fn sort_by_key<K: SortKey, V: AccScalar>(
        &self,
        keys: &Array1<K>,
        values: &Array1<V>,
    ) -> Result<(Array1<K>, Array1<V>), PrimError> {
        let n = keys.len();
        if n != values.len() {
            return Err(PrimError::LengthMismatch {
                keys: n,
                values: values.len(),
            });
        }
        // Output slots are placeholders only: the sort writes a
        // permutation, so every slot is overwritten exactly once.
        let out_keys = self.zeros::<K>(n)?;
        let out_values = self.zeros::<V>(n)?;
        let (kv, vv) = (keys.view(), values.view());
        let kv_for_keys = keys.view();
        let (ko, vo) = (out_keys.view_mut(), out_values.view_mut());
        self.backend().prim_sort_pairs(
            n,
            K::KEY_BITS,
            &SORT_PROFILE,
            move |i| kv_for_keys.get(i).sort_bits(),
            move |rank, original| {
                ko.set(rank, kv.get(original));
                vo.set(rank, vv.get(original));
            },
        );
        bump(self, |c| &c.sorts, n);
        Ok((out_keys, out_values))
    }
}

fn scan_impl<B: PrimBackend, T: AccScalar, O: ReduceOp<T>>(
    ctx: &Context<B>,
    input: &Array1<T>,
    inclusive: bool,
    op: O,
) -> Result<Array1<T>, PrimError> {
    let n = input.len();
    let out = ctx.zeros::<T>(n)?;
    let iv = input.view();
    let ov = out.view_mut();
    ctx.backend().prim_scan(
        n,
        inclusive,
        &SCAN_PROFILE,
        move |i| iv.get(i),
        move |i, v| ov.set(i, v),
        op,
    );
    bump(ctx, |c| &c.scans, n);
    Ok(out)
}

/// Bump one of the context's primitive counters (plus the shared element
/// counter) for `ctx.stats()`.
fn bump<B: Backend>(
    ctx: &Context<B>,
    which: impl Fn(&racc_core::PrimCounters) -> &std::sync::atomic::AtomicU64,
    elements: usize,
) {
    use std::sync::atomic::Ordering::Relaxed;
    let counters = ctx.prim_counters();
    which(counters).fetch_add(1, Relaxed);
    counters.elements.fetch_add(elements as u64, Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use racc_core::{Max, SerialBackend, ThreadsBackend};

    fn serial() -> Context<SerialBackend> {
        Context::new(SerialBackend::new())
    }

    #[test]
    fn inclusive_and_exclusive_scan() {
        let ctx = serial();
        let x = ctx.array_from(&[3u64, 1, 4, 1, 5]).unwrap();
        let inc = ctx.inclusive_scan(&x).unwrap();
        assert_eq!(ctx.to_host(&inc).unwrap(), vec![3, 4, 8, 9, 14]);
        let exc = ctx.exclusive_scan(&x).unwrap();
        assert_eq!(ctx.to_host(&exc).unwrap(), vec![0, 3, 4, 8, 9]);
    }

    #[test]
    fn scan_with_max_operator() {
        let ctx = serial();
        let x = ctx.array_from(&[2i64, -5, 7, 1, 9, 0]).unwrap();
        let m = ctx.inclusive_scan_with(&x, Max).unwrap();
        assert_eq!(ctx.to_host(&m).unwrap(), vec![2, 2, 7, 7, 9, 9]);
    }

    #[test]
    fn scan_first_element_is_bitwise_input() {
        // Tile 0 must not combine with an identity: -0.0 stays -0.0.
        let ctx = serial();
        let x = ctx.array_from(&[-0.0f64, 1.0]).unwrap();
        let s = ctx.inclusive_scan(&x).unwrap();
        assert_eq!(ctx.to_host(&s).unwrap()[0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn empty_scan_and_sort() {
        let ctx = serial();
        let x = ctx.array_from(&[] as &[f64]).unwrap();
        assert_eq!(ctx.inclusive_scan(&x).unwrap().len(), 0);
        let p = ctx.sort_permutation(&x).unwrap();
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn histogram_counts_and_zero_bins() {
        let ctx = serial();
        let keys = ctx.array_from(&[1u32, 1, 3, 1]).unwrap();
        let h = ctx.histogram(&keys, 5).unwrap();
        assert_eq!(ctx.to_host(&h).unwrap(), vec![0, 3, 0, 1, 0]);
        // n == 0 still defines every bin.
        let empty = ctx.array_from(&[] as &[u32]).unwrap();
        let h = ctx.histogram(&empty, 4).unwrap();
        assert_eq!(ctx.to_host(&h).unwrap(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn histogram_out_of_range_is_a_typed_error() {
        let ctx = serial();
        let keys = ctx.array_from(&[0u32, 2, 9, 1, 9]).unwrap();
        let err = ctx.histogram(&keys, 3).unwrap_err();
        assert_eq!(
            err,
            PrimError::BinOutOfRange {
                index: 2,
                bin: 9,
                bins: 3
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("index 2") && msg.contains("bin 9"), "{msg}");
    }

    #[test]
    fn sort_by_key_is_stable() {
        #[derive(Clone, Copy, Debug, PartialEq)]
        struct Particle {
            id: u32,
            w: f32,
        }
        let ctx = serial();
        let keys = ctx.array_from(&[2u32, 0, 2, 1, 0]).unwrap();
        let vals: Vec<Particle> = (0..5).map(|i| Particle { id: i, w: i as f32 }).collect();
        let values = ctx.array_from(&vals).unwrap();
        let (sk, sv) = ctx.sort_by_key(&keys, &values).unwrap();
        assert_eq!(ctx.to_host(&sk).unwrap(), vec![0, 0, 1, 2, 2]);
        let ids: Vec<u32> = ctx.to_host(&sv).unwrap().iter().map(|p| p.id).collect();
        // Equal keys keep original order: index 1 before 4, 0 before 2.
        assert_eq!(ids, vec![1, 4, 3, 0, 2]);
    }

    #[test]
    fn sort_by_key_length_mismatch() {
        let ctx = serial();
        let keys = ctx.array_from(&[1u32, 2]).unwrap();
        let values = ctx.array_from(&[1.0f64]).unwrap();
        assert_eq!(
            ctx.sort_by_key(&keys, &values).unwrap_err(),
            PrimError::LengthMismatch { keys: 2, values: 1 }
        );
    }

    #[test]
    fn float_sort_keys_preserve_order() {
        let ctx = serial();
        let data = [
            3.5f32,
            -0.0,
            0.0,
            -7.25,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0e-10,
        ];
        let keys = ctx.array_from(&data).unwrap();
        let perm = ctx.sort_permutation(&keys).unwrap();
        let perm = ctx.to_host(&perm).unwrap();
        let sorted: Vec<f32> = perm.iter().map(|&i| data[i as usize]).collect();
        let mut expect = data.to_vec();
        expect.sort_by(f32::total_cmp);
        // -0.0 < 0.0 in the total order, and the bit encodings agree.
        assert_eq!(
            sorted.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn signed_sort_keys_order_negatives_first() {
        let ctx = serial();
        let data = [5i32, -3, 0, i32::MIN, i32::MAX, -3];
        let keys = ctx.array_from(&data).unwrap();
        let (sk, _) = ctx
            .sort_by_key(&keys, &ctx.array_from(&[0u8; 6]).unwrap())
            .unwrap();
        assert_eq!(
            ctx.to_host(&sk).unwrap(),
            vec![i32::MIN, -3, -3, 0, 5, i32::MAX]
        );
    }

    #[test]
    fn stats_report_prim_counters() {
        let ctx = Context::new(ThreadsBackend::new());
        let x = ctx.array_from(&[1.0f64, 2.0, 3.0]).unwrap();
        let _ = ctx.inclusive_scan(&x).unwrap();
        let keys = ctx.array_from(&[0u32, 1, 0]).unwrap();
        let _ = ctx.histogram(&keys, 2).unwrap();
        let _ = ctx.sort_permutation(&keys).unwrap();
        let stats = ctx.stats();
        let prim = stats.prim.expect("prim counters must surface");
        assert_eq!((prim.scans, prim.histograms, prim.sorts), (1, 1, 1));
        assert_eq!(prim.elements, 9);
        assert!(format!("{stats}").contains("prim: 1 scans"), "{stats}");
    }

    #[test]
    fn threads_match_serial_bitwise() {
        let sctx = serial();
        let tctx = Context::new(ThreadsBackend::new());
        let n = 10_000usize;
        let data: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.61).cos()).collect();
        let sx = sctx.array_from(&data).unwrap();
        let tx = tctx.array_from(&data).unwrap();
        let s = sctx.to_host(&sctx.inclusive_scan(&sx).unwrap()).unwrap();
        let t = tctx.to_host(&tctx.inclusive_scan(&tx).unwrap()).unwrap();
        for i in 0..n {
            assert_eq!(s[i].to_bits(), t[i].to_bits(), "i={i}");
        }
    }
}
