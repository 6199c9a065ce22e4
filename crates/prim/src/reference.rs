//! Canonical reference algorithms for the portable device primitives
//! (`scan`, `histogram`, `sort_by_key`).
//!
//! Every backend implements [`crate::PrimBackend::prim_scan`] /
//! [`crate::PrimBackend::prim_histogram`] /
//! [`crate::PrimBackend::prim_sort_pairs`] against the *same*
//! specification, defined here as plain sequential code.
//! The specification fixes not just the values but the **association** of
//! every combine, so floating-point results are bit-identical on all five
//! backends and run-to-run under work stealing:
//!
//! * **Scan** uses a fixed two-level tiling with [`PRIM_TILE`]-wide tiles
//!   (independent of backend, device geometry and thread count). Within a
//!   tile the combine is a left fold seeded from the tile's *first element*
//!   (no identity combine); tile totals are left-folded in ascending tile
//!   order into exclusive tile offsets; element `i` in tile `t > 0` is
//!   `combine(offset[t], local[i])`. Tile 0 uses its local fold directly,
//!   so `inclusive_scan(x)[0] == x[0]` bitwise. This association differs
//!   from a naive one-pass sequential scan for non-associative float ops —
//!   the two-level form *is* the contract, and this module is its
//!   executable definition.
//! * **Histogram** counts are `u64`, so addition is exactly associative and
//!   any combine order gives bit-identical bins. Every bin in `0..bins` is
//!   written (zero counts included). Callers guarantee `key(i) < bins`;
//!   `racc-prim` offers a validated wrapper that turns violations into a
//!   typed error before any backend sees them.
//! * **Sort** is a stable ascending sort of `(key_bits, original_index)`
//!   pairs: ties between equal keys break toward the smaller original
//!   index, which makes the output permutation unique — so every backend
//!   agrees exactly. Every back end runs an LSD radix sort (the CPU back
//!   ends skip the bytes in which no two keys differ); the comparison sort
//!   here is the specification the radix sorts are tested against.

use racc_core::{AccScalar, ReduceOp};

/// Fixed scan tile width. Part of the determinism contract: tile boundaries
/// are a pure function of `n`, never of the backend or device geometry.
pub const PRIM_TILE: usize = 256;

/// Number of scan tiles covering `n` elements.
#[inline]
pub fn scan_tiles(n: usize) -> usize {
    n.div_ceil(PRIM_TILE)
}

/// Half-open element range of scan tile `t`.
#[inline]
pub fn tile_bounds(t: usize, n: usize) -> (usize, usize) {
    let start = t * PRIM_TILE;
    (start, (start + PRIM_TILE).min(n))
}

/// The tile-local fold of tile `t`: a left fold seeded from the tile's
/// first element. Tiles are never empty (`t < scan_tiles(n)`).
#[inline]
pub fn tile_total<T, O, F>(t: usize, n: usize, read: &F, op: O) -> T
where
    T: AccScalar,
    O: ReduceOp<T>,
    F: Fn(usize) -> T,
{
    let (start, end) = tile_bounds(t, n);
    let mut acc = read(start);
    for i in start + 1..end {
        acc = op.combine(acc, read(i));
    }
    acc
}

/// Exclusive left fold over the tile totals: `offsets[0]` is the identity
/// (by definition — it is never combined into tile 0's outputs), and
/// `offsets[t] = total[0] ⊕ total[1] ⊕ … ⊕ total[t-1]` left-associated
/// with no identity seed.
pub fn tile_offsets<T, O>(totals: &[T], op: O) -> Vec<T>
where
    T: AccScalar,
    O: ReduceOp<T>,
{
    let mut offsets = Vec::with_capacity(totals.len());
    let mut running: Option<T> = None;
    for &total in totals {
        offsets.push(running.unwrap_or_else(|| op.identity()));
        running = Some(match running {
            None => total,
            Some(r) => op.combine(r, total),
        });
    }
    offsets
}

/// Write the scan outputs for tile `t` given its exclusive offset. Tile 0
/// ignores `offset` and uses its local fold directly (exclusive scan's
/// first element is the identity — the only identity value in the output).
pub fn scan_tile_write<T, O, F, W>(
    t: usize,
    n: usize,
    inclusive: bool,
    offset: T,
    read: &F,
    write: &W,
    op: O,
) where
    T: AccScalar,
    O: ReduceOp<T>,
    F: Fn(usize) -> T,
    W: Fn(usize, T),
{
    let (start, end) = tile_bounds(t, n);
    let mut local: Option<T> = None;
    for i in start..end {
        let prev = local;
        local = Some(match prev {
            None => read(i),
            Some(l) => op.combine(l, read(i)),
        });
        let value = if inclusive { local } else { prev };
        let out = match value {
            // Exclusive scan, first element of the tile: the bare offset
            // (identity for tile 0).
            None => {
                if t == 0 {
                    op.identity()
                } else {
                    offset
                }
            }
            Some(v) => {
                if t == 0 {
                    v
                } else {
                    op.combine(offset, v)
                }
            }
        };
        write(i, out);
    }
}

/// The canonical scan: sequential composition of the three tile passes.
/// This is the executable specification every backend must match bitwise.
pub fn scan_canonical<T, O, F, W>(n: usize, inclusive: bool, read: &F, write: &W, op: O)
where
    T: AccScalar,
    O: ReduceOp<T>,
    F: Fn(usize) -> T,
    W: Fn(usize, T),
{
    let tiles = scan_tiles(n);
    let totals: Vec<T> = (0..tiles).map(|t| tile_total(t, n, read, op)).collect();
    let offsets = tile_offsets(&totals, op);
    for (t, &offset) in offsets.iter().enumerate() {
        scan_tile_write(t, n, inclusive, offset, read, write, op);
    }
}

/// The canonical histogram: count keys into `bins` buckets and write every
/// bin (zeros included). Caller guarantees `key(i) < bins` for all `i`.
pub fn histogram_canonical<F, W>(n: usize, bins: usize, key: &F, write: &W)
where
    F: Fn(usize) -> usize,
    W: Fn(usize, u64),
{
    let mut counts = vec![0u64; bins];
    for i in 0..n {
        counts[key(i)] += 1;
    }
    for (bin, &c) in counts.iter().enumerate() {
        write(bin, c);
    }
}

/// The canonical stable sort of `(key_bits, index)` pairs: ascending by
/// bits, ties toward the smaller original index. `write(rank, index)` is
/// called once per rank in `0..n`. No back end runs it: it is the oracle
/// the back ends' radix sorts are tested against.
pub fn sort_pairs_canonical<F, W>(n: usize, key: &F, write: &W)
where
    F: Fn(usize) -> u64,
    W: Fn(usize, usize),
{
    let mut pairs: Vec<(u64, usize)> = (0..n).map(|i| (key(i), i)).collect();
    // Tuples order by (bits, index), so an unstable sort is stable by bits.
    pairs.sort_unstable();
    for (rank, &(_, idx)) in pairs.iter().enumerate() {
        write(rank, idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racc_core::{Max, Sum};

    fn naive_inclusive(xs: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        let mut acc: Option<f64> = None;
        for &x in xs {
            acc = Some(match acc {
                None => x,
                Some(a) => a + x,
            });
            out.push(acc.unwrap());
        }
        out
    }

    #[test]
    fn scan_matches_naive_for_exact_values() {
        // Integers-in-floats are exact, so the two-level association must
        // equal the naive scan value-for-value.
        let xs: Vec<f64> = (0..1000).map(|i| (i % 7) as f64).collect();
        let mut got = vec![0.0; xs.len()];
        {
            let g = std::cell::RefCell::new(&mut got);
            scan_canonical(
                xs.len(),
                true,
                &|i| xs[i],
                &|i, v| g.borrow_mut()[i] = v,
                Sum,
            );
        }
        assert_eq!(got, naive_inclusive(&xs));
    }

    #[test]
    fn exclusive_shifts_inclusive_by_one() {
        let xs: Vec<u64> = (0..523).map(|i| i * 3 + 1).collect();
        let mut inc = vec![0u64; xs.len()];
        let mut exc = vec![0u64; xs.len()];
        {
            let gi = std::cell::RefCell::new(&mut inc);
            scan_canonical(
                xs.len(),
                true,
                &|i| xs[i],
                &|i, v| gi.borrow_mut()[i] = v,
                Sum,
            );
        }
        {
            let ge = std::cell::RefCell::new(&mut exc);
            scan_canonical(
                xs.len(),
                false,
                &|i| xs[i],
                &|i, v| ge.borrow_mut()[i] = v,
                Sum,
            );
        }
        assert_eq!(exc[0], 0);
        for i in 1..xs.len() {
            assert_eq!(exc[i], inc[i - 1]);
        }
    }

    #[test]
    fn scan_first_element_is_bitwise_input() {
        // Tile 0 never combines with the identity: -0.0 survives.
        let xs = [-0.0f64, 1.0];
        let mut got = vec![0.0; 2];
        {
            let g = std::cell::RefCell::new(&mut got);
            scan_canonical(2, true, &|i| xs[i], &|i, v| g.borrow_mut()[i] = v, Sum);
        }
        assert_eq!(got[0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn scan_max_over_singleton_tiles() {
        let xs: Vec<f32> = (0..300).map(|i| ((i * 37) % 91) as f32 - 45.0).collect();
        let mut got = vec![0.0f32; xs.len()];
        {
            let g = std::cell::RefCell::new(&mut got);
            scan_canonical(
                xs.len(),
                true,
                &|i| xs[i],
                &|i, v| g.borrow_mut()[i] = v,
                Max,
            );
        }
        let mut m = f32::NEG_INFINITY;
        for (i, &x) in xs.iter().enumerate() {
            m = m.max(x);
            assert_eq!(got[i], m);
        }
    }

    #[test]
    fn histogram_counts_every_bin() {
        let keys = [3usize, 1, 3, 3, 0];
        let counts = std::cell::RefCell::new(vec![u64::MAX; 5]);
        histogram_canonical(keys.len(), 5, &|i| keys[i], &|b, c| {
            counts.borrow_mut()[b] = c
        });
        assert_eq!(*counts.borrow(), vec![1, 1, 0, 3, 0]);
    }

    #[test]
    fn sort_is_stable_on_ties() {
        let keys = [2u64, 1, 2, 1, 0];
        let order = std::cell::RefCell::new(vec![usize::MAX; 5]);
        sort_pairs_canonical(keys.len(), &|i| keys[i], &|rank, idx| {
            order.borrow_mut()[rank] = idx
        });
        assert_eq!(*order.borrow(), vec![4, 1, 3, 0, 2]);
    }

    #[test]
    fn empty_inputs_write_nothing_but_zero_bins() {
        scan_canonical::<f64, _, _, _>(0, true, &|_| 0.0, &|_, _| panic!("no writes"), Sum);
        sort_pairs_canonical(0, &|_| 0, &|_, _| panic!("no writes"));
        let counts = std::cell::RefCell::new(vec![u64::MAX; 3]);
        histogram_canonical(0, 3, &|_| 0, &|b, c| counts.borrow_mut()[b] = c);
        assert_eq!(*counts.borrow(), vec![0, 0, 0]);
    }
}
