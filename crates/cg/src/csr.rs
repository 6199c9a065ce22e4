//! A compressed-sparse-row matrix substrate.
//!
//! HPCCG and MiniFE apply CG to general sparse operators; this module is
//! that substrate: CSR storage built from triplets, a five-point 2D
//! Laplacian generator (the classic MiniFE-like model problem), a serial
//! reference matvec, and the portable RACC row-parallel matvec.

use racc_core::{Array1, Backend, Context, RaccError};

use crate::csr_matvec_profile;
use crate::tridiag::Tridiag;

/// An immutable CSR sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// Row pointer array, length `nrows + 1`.
    pub row_ptr: Vec<usize>,
    /// Column indices, length `nnz`.
    pub col_idx: Vec<usize>,
    /// Nonzero values, length `nnz`.
    pub values: Vec<f64>,
    /// Number of columns.
    pub ncols: usize,
}

impl Csr {
    /// Build from `(row, col, value)` triplets; duplicate entries are
    /// summed, rows/cols validated.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, String> {
        let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); nrows];
        for &(r, c, v) in triplets {
            if r >= nrows || c >= ncols {
                return Err(format!("entry ({r}, {c}) outside {nrows} x {ncols}"));
            }
            per_row[r].push((c, v));
        }
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in &mut per_row {
            row.sort_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let c = row[i].0;
                let mut v = 0.0;
                while i < row.len() && row[i].0 == c {
                    v += row[i].1;
                    i += 1;
                }
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Ok(Csr {
            row_ptr,
            col_idx,
            values,
            ncols,
        })
    }

    /// Convert a tridiagonal matrix.
    pub fn from_tridiag(t: &Tridiag) -> Self {
        let n = t.n();
        let mut triplets = Vec::with_capacity(3 * n);
        for i in 0..n {
            if i > 0 {
                triplets.push((i, i - 1, t.sub[i]));
            }
            triplets.push((i, i, t.diag[i]));
            if i + 1 < n {
                triplets.push((i, i + 1, t.sup[i]));
            }
        }
        Csr::from_triplets(n, n, &triplets).expect("valid tridiagonal")
    }

    /// The five-point 2D Laplacian on an `nx × ny` grid with Dirichlet
    /// boundaries: `4` on the diagonal, `-1` to each grid neighbor. SPD.
    pub fn laplacian_2d(nx: usize, ny: usize) -> Self {
        let n = nx * ny;
        let mut triplets = Vec::with_capacity(5 * n);
        let id = |i: usize, j: usize| i * ny + j;
        for i in 0..nx {
            for j in 0..ny {
                let r = id(i, j);
                triplets.push((r, r, 4.0));
                if i > 0 {
                    triplets.push((r, id(i - 1, j), -1.0));
                }
                if i + 1 < nx {
                    triplets.push((r, id(i + 1, j), -1.0));
                }
                if j > 0 {
                    triplets.push((r, id(i, j - 1), -1.0));
                }
                if j + 1 < ny {
                    triplets.push((r, id(i, j + 1), -1.0));
                }
            }
        }
        Csr::from_triplets(n, n, &triplets).expect("valid laplacian")
    }

    /// The 27-point 3D operator of the original **HPCCG** benchmark: on an
    /// `nx × ny × nz` grid, each row couples a node to its full 3x3x3
    /// neighborhood with `-1`, and the diagonal is `27` minus nothing —
    /// i.e. `26` off-diagonal entries of `-1` and `27` on the diagonal for
    /// interior nodes (diagonally dominant, SPD).
    pub fn hpccg_27pt(nx: usize, ny: usize, nz: usize) -> Self {
        let n = nx * ny * nz;
        let id = |i: usize, j: usize, k: usize| (k * ny + j) * nx + i;
        let mut triplets = Vec::with_capacity(27 * n);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let r = id(i, j, k);
                    for dk in -1i64..=1 {
                        for dj in -1i64..=1 {
                            for di in -1i64..=1 {
                                let (ii, jj, kk) = (i as i64 + di, j as i64 + dj, k as i64 + dk);
                                if ii < 0
                                    || jj < 0
                                    || kk < 0
                                    || ii >= nx as i64
                                    || jj >= ny as i64
                                    || kk >= nz as i64
                                {
                                    continue;
                                }
                                let c = id(ii as usize, jj as usize, kk as usize);
                                let v = if c == r { 27.0 } else { -1.0 };
                                triplets.push((r, c, v));
                            }
                        }
                    }
                }
            }
        }
        Csr::from_triplets(n, n, &triplets).expect("valid 27-point operator")
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Average nonzeros per row.
    pub fn avg_nnz_per_row(&self) -> f64 {
        if self.nrows() == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.nrows() as f64
        }
    }

    /// Serial reference matvec.
    pub fn matvec_ref(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows());
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for idx in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[idx] * x[self.col_idx[idx]];
            }
            *yr = acc;
        }
    }

    /// Dense transpose-check helper: value at `(r, c)` (tests only; O(nnz row)).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        for idx in self.row_ptr[r]..self.row_ptr[r + 1] {
            if self.col_idx[idx] == c {
                return self.values[idx];
            }
        }
        0.0
    }
}

/// Device-resident CSR operator with the portable row-parallel matvec.
pub struct DeviceCsr<'c, B: Backend> {
    ctx: &'c Context<B>,
    row_ptr: Array1<u64>,
    col_idx: Array1<u64>,
    values: Array1<f64>,
    nrows: usize,
    ncols: usize,
    avg_nnz: f64,
}

impl<'c, B: Backend> DeviceCsr<'c, B> {
    /// Upload a host CSR matrix.
    pub fn upload(ctx: &'c Context<B>, host: &Csr) -> Result<Self, RaccError> {
        let row_ptr: Vec<u64> = host.row_ptr.iter().map(|&v| v as u64).collect();
        let col_idx: Vec<u64> = host.col_idx.iter().map(|&v| v as u64).collect();
        Ok(DeviceCsr {
            row_ptr: ctx.array_from(&row_ptr)?,
            col_idx: ctx.array_from(&col_idx)?,
            values: ctx.array_from(&host.values)?,
            nrows: host.nrows(),
            ncols: host.ncols,
            avg_nnz: host.avg_nnz_per_row(),
            ctx,
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// `y = A x`: one row per iteration (the scalar-row CSR kernel).
    pub fn matvec(&self, x: &Array1<f64>, y: &Array1<f64>) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        let (rp, ci, vals) = (self.row_ptr.view(), self.col_idx.view(), self.values.view());
        let (xv, yv) = (x.view(), y.view_mut());
        let profile = csr_matvec_profile(self.avg_nnz);
        self.ctx.parallel_for(self.nrows, &profile, move |r| {
            let start = rp.get(r) as usize;
            let end = rp.get(r + 1) as usize;
            let mut acc = 0.0;
            for idx in start..end {
                acc += vals.get(idx) * xv.get(ci.get(idx) as usize);
            }
            yv.set(r, acc);
        });
    }

    /// `y = A x` and `x·y` as **one** `parallel_reduce` — the row-parallel
    /// matvec with the dot's map folded in, the row value forwarded
    /// through a register. Bit-identical to the eager `matvec` + `dot`
    /// pair (same per-row f64, same reduce primitive and extent).
    pub fn matvec_dot(&self, x: &Array1<f64>, y: &Array1<f64>) -> f64 {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        let (rp, ci, vals) = (self.row_ptr.view(), self.col_idx.view(), self.values.view());
        let (xv, yv) = (x.view(), y.view_mut());
        let profile = crate::csr_matvec_dot_profile(self.avg_nnz);
        self.ctx.parallel_reduce(self.nrows, &profile, move |r| {
            let start = rp.get(r) as usize;
            let end = rp.get(r + 1) as usize;
            let mut acc = 0.0;
            for idx in start..end {
                acc += vals.get(idx) * xv.get(ci.get(idx) as usize);
            }
            yv.set(r, acc);
            xv.get(r) * acc
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racc_core::ThreadsBackend;

    #[test]
    fn triplets_build_and_dupes_sum() {
        let m = Csr::from_triplets(2, 3, &[(0, 1, 2.0), (0, 1, 3.0), (1, 0, 1.0), (0, 2, 4.0)])
            .unwrap();
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(0, 2), 4.0);
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(1, 2), 0.0);
    }

    #[test]
    fn out_of_range_triplets_rejected() {
        assert!(Csr::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(Csr::from_triplets(2, 2, &[(0, 2, 1.0)]).is_err());
    }

    #[test]
    fn csr_from_tridiag_matches() {
        let t = Tridiag::diagonally_dominant(50);
        let m = Csr::from_tridiag(&t);
        let x: Vec<f64> = (0..50).map(|i| (i as f64).cos()).collect();
        let mut y1 = vec![0.0; 50];
        let mut y2 = vec![0.0; 50];
        t.matvec_ref(&x, &mut y1);
        m.matvec_ref(&x, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn laplacian_structure() {
        let m = Csr::laplacian_2d(4, 5);
        assert_eq!(m.nrows(), 20);
        // Symmetry.
        for r in 0..20 {
            for idx in m.row_ptr[r]..m.row_ptr[r + 1] {
                let c = m.col_idx[idx];
                assert_eq!(m.get(c, r), m.values[idx], "asymmetric at ({r},{c})");
            }
        }
        // Interior row has 5 entries, corner has 3.
        let interior = 5 + 1;
        assert_eq!(m.row_ptr[interior + 1] - m.row_ptr[interior], 5);
        assert_eq!(m.row_ptr[1] - m.row_ptr[0], 3);
        // Row sums: 0 for interior (4 - 4), positive on boundary.
        let sum: f64 = (m.row_ptr[interior]..m.row_ptr[interior + 1])
            .map(|i| m.values[i])
            .sum();
        assert_eq!(sum, 0.0);
    }

    #[test]
    fn hpccg_27pt_structure_and_spd() {
        let m = Csr::hpccg_27pt(4, 3, 5);
        let n = 4 * 3 * 5;
        assert_eq!(m.nrows(), n);
        // Interior node (1,1,1) has the full 27 entries; corner has 8.
        let interior = (3 + 1) * 4 + 1;
        assert_eq!(m.row_ptr[interior + 1] - m.row_ptr[interior], 27);
        assert_eq!(m.row_ptr[1] - m.row_ptr[0], 8);
        assert_eq!(m.get(interior, interior), 27.0);
        // Symmetric.
        for r in 0..n {
            for idx in m.row_ptr[r]..m.row_ptr[r + 1] {
                assert_eq!(m.get(m.col_idx[idx], r), m.values[idx]);
            }
        }
        // Positive definite on a few vectors (necessary condition).
        for seed in 0..3usize {
            let x: Vec<f64> = (0..n)
                .map(|i| (((i + seed) * 2654435761) % 17) as f64 - 8.0)
                .collect();
            if x.iter().all(|&v| v == 0.0) {
                continue;
            }
            let mut ax = vec![0.0; n];
            m.matvec_ref(&x, &mut ax);
            let quad: f64 = x.iter().zip(&ax).map(|(a, b)| a * b).sum();
            assert!(quad > 0.0, "seed {seed}");
        }
    }

    #[test]
    fn cg_solves_hpccg_27pt_system() {
        use crate::solver::solve;
        let ctx = racc_core::Context::new(ThreadsBackend::with_threads(4));
        let m = Csr::hpccg_27pt(8, 8, 8);
        let n = m.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) * 0.2).collect();
        let mut b = vec![0.0; n];
        m.matvec_ref(&x_true, &mut b);
        let dm = DeviceCsr::upload(&ctx, &m).unwrap();
        let db = ctx.array_from(&b).unwrap();
        let (result, ws) = solve(&ctx, &dm, &db, 1e-10, 500).unwrap();
        assert!(result.converged);
        let x = ctx.to_host(&ws.x).unwrap();
        for (g, w) in x.iter().zip(&x_true) {
            assert!((g - w).abs() < 1e-7);
        }
    }

    #[test]
    fn device_matvec_matches_reference() {
        let ctx = Context::new(ThreadsBackend::with_threads(4));
        let m = Csr::laplacian_2d(17, 13);
        let dm = DeviceCsr::upload(&ctx, &m).unwrap();
        let n = m.nrows();
        let hx: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let x = ctx.array_from(&hx).unwrap();
        let y = ctx.zeros::<f64>(n).unwrap();
        dm.matvec(&x, &y);
        let mut want = vec![0.0; n];
        m.matvec_ref(&hx, &mut want);
        assert_eq!(ctx.to_host(&y).unwrap(), want);
    }

    #[test]
    fn empty_matrix() {
        let m = Csr::from_triplets(0, 0, &[]).unwrap();
        assert_eq!(m.nrows(), 0);
        assert_eq!(m.avg_nnz_per_row(), 0.0);
        let mut y: Vec<f64> = vec![];
        m.matvec_ref(&[], &mut y);
    }
}
