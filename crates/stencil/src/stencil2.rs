//! 2D weighted stencils.

use racc_core::{Array2, Backend, Context, KernelProfile};

use crate::Boundary;

/// A 2D stencil: taps `(di, dj, weight)` applied at every grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct Stencil2 {
    taps: Vec<(isize, isize, f64)>,
}

impl Stencil2 {
    /// Build from explicit taps.
    pub fn new(taps: Vec<(isize, isize, f64)>) -> Self {
        assert!(!taps.is_empty(), "a stencil needs at least one tap");
        Stencil2 { taps }
    }

    /// The classic 5-point Laplacian: `-4` center, `+1` each neighbor.
    pub fn laplacian_5pt() -> Self {
        Stencil2::new(vec![
            (0, 0, -4.0),
            (-1, 0, 1.0),
            (1, 0, 1.0),
            (0, -1, 1.0),
            (0, 1, 1.0),
        ])
    }

    /// The 9-point Laplacian (Oono–Puri form).
    pub fn laplacian_9pt() -> Self {
        Stencil2::new(vec![
            (0, 0, -3.0),
            (-1, 0, 0.5),
            (1, 0, 0.5),
            (0, -1, 0.5),
            (0, 1, 0.5),
            (-1, -1, 0.25),
            (1, -1, 0.25),
            (-1, 1, 0.25),
            (1, 1, 0.25),
        ])
    }

    /// A 3×3 box blur (mean filter).
    pub fn box_blur() -> Self {
        let w = 1.0 / 9.0;
        let mut taps = Vec::with_capacity(9);
        for di in -1..=1 {
            for dj in -1..=1 {
                taps.push((di, dj, w));
            }
        }
        Stencil2::new(taps)
    }

    /// The taps.
    pub fn taps(&self) -> &[(isize, isize, f64)] {
        &self.taps
    }

    /// Sum of weights (0 for difference operators, 1 for averaging ones).
    pub fn weight_sum(&self) -> f64 {
        self.taps.iter().map(|&(_, _, w)| w).sum()
    }

    /// The cost profile of one application (reads per tap + one write;
    /// gather patterns are mostly-coalesced on the fast axis).
    pub fn profile(&self) -> KernelProfile {
        KernelProfile::new(
            "stencil2",
            2.0 * self.taps.len() as f64,
            8.0 * self.taps.len() as f64,
            8.0,
        )
        .with_coalescing(0.8)
    }

    /// `dst = S(src)` on the context's backend. `src` and `dst` must have
    /// equal shapes (and may not alias — use separate arrays).
    pub fn apply<B: Backend>(
        &self,
        ctx: &Context<B>,
        src: &Array2<f64>,
        dst: &Array2<f64>,
        bc: Boundary,
    ) {
        assert_eq!(src.dims(), dst.dims(), "stencil shape mismatch");
        let (m, n) = src.dims();
        let taps = self.taps.clone();
        let (sv, dv) = (src.view(), dst.view_mut());
        ctx.parallel_for_2d((m, n), &self.profile(), move |i, j| {
            let mut acc = 0.0;
            for &(di, dj, w) in &taps {
                let ii = bc.resolve(i as isize + di, m);
                let jj = bc.resolve(j as isize + dj, n);
                let v = match (ii, jj) {
                    (Some(ii), Some(jj)) => sv.get(ii, jj),
                    _ => bc.outside_value(),
                };
                acc += w * v;
            }
            dv.set(i, j, acc);
        });
    }

    /// Serial reference application (test ground truth).
    pub fn apply_ref(&self, m: usize, n: usize, src: &[f64], dst: &mut [f64], bc: Boundary) {
        assert_eq!(src.len(), m * n);
        assert_eq!(dst.len(), m * n);
        for j in 0..n {
            for i in 0..m {
                let mut acc = 0.0;
                for &(di, dj, w) in &self.taps {
                    let ii = bc.resolve(i as isize + di, m);
                    let jj = bc.resolve(j as isize + dj, n);
                    let v = match (ii, jj) {
                        (Some(ii), Some(jj)) => src[jj * m + ii],
                        _ => bc.outside_value(),
                    };
                    acc += w * v;
                }
                dst[j * m + i] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racc_core::{SerialBackend, ThreadsBackend};

    #[test]
    fn laplacian_annihilates_linear_fields() {
        let ctx = Context::new(ThreadsBackend::with_threads(2));
        let (m, n) = (16, 12);
        let src = ctx
            .array2_from_fn(m, n, |i, j| 3.0 * i as f64 - 2.0 * j as f64 + 1.0)
            .unwrap();
        let dst = ctx.zeros2::<f64>(m, n).unwrap();
        Stencil2::laplacian_5pt().apply(&ctx, &src, &dst, Boundary::Neumann);
        let host = ctx.to_host2(&dst).unwrap();
        // Interior points of a linear field: Laplacian ~ 0 (Neumann edges
        // clamp, so only check the interior).
        for j in 1..n - 1 {
            for i in 1..m - 1 {
                assert!(
                    host[j * m + i].abs() < 1e-12,
                    "({i},{j}) = {}",
                    host[j * m + i]
                );
            }
        }
    }

    #[test]
    fn weight_sums() {
        assert_eq!(Stencil2::laplacian_5pt().weight_sum(), 0.0);
        assert_eq!(Stencil2::laplacian_9pt().weight_sum(), 0.0);
        assert!((Stencil2::box_blur().weight_sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_serial_reference_under_all_boundaries() {
        let (m, n) = (13, 9);
        let data: Vec<f64> = (0..m * n).map(|i| ((i * 31) % 17) as f64 - 8.0).collect();
        for bc in [
            Boundary::Dirichlet(2.5),
            Boundary::Periodic,
            Boundary::Neumann,
        ] {
            let ctx = Context::new(SerialBackend::new());
            let src = ctx.array2_from(m, n, &data).unwrap();
            let dst = ctx.zeros2::<f64>(m, n).unwrap();
            let s = Stencil2::laplacian_9pt();
            s.apply(&ctx, &src, &dst, bc);
            let mut want = vec![0.0; m * n];
            s.apply_ref(m, n, &data, &mut want, bc);
            assert_eq!(ctx.to_host2(&dst).unwrap(), want, "{bc:?}");
        }
    }

    #[test]
    fn box_blur_preserves_constants() {
        let ctx = Context::new(SerialBackend::new());
        let src = ctx.array2_from_fn(10, 10, |_, _| 4.2f64).unwrap();
        let dst = ctx.zeros2::<f64>(10, 10).unwrap();
        Stencil2::box_blur().apply(&ctx, &src, &dst, Boundary::Periodic);
        assert!(ctx
            .to_host2(&dst)
            .unwrap()
            .iter()
            .all(|v| (v - 4.2).abs() < 1e-12));
    }

    #[test]
    fn same_result_on_simulated_gpu() {
        let (m, n) = (32, 24);
        let data: Vec<f64> = (0..m * n).map(|i| ((i * 7) % 29) as f64).collect();
        let on = |run: &dyn Fn() -> Vec<f64>| run();
        let cpu = on(&|| {
            let ctx = Context::new(ThreadsBackend::with_threads(2));
            let src = ctx.array2_from(m, n, &data).unwrap();
            let dst = ctx.zeros2::<f64>(m, n).unwrap();
            Stencil2::laplacian_5pt().apply(&ctx, &src, &dst, Boundary::Periodic);
            ctx.to_host2(&dst).unwrap()
        });
        let gpu = on(&|| {
            let ctx = Context::new(racc_backend_common::cuda_backend());
            let src = ctx.array2_from(m, n, &data).unwrap();
            let dst = ctx.zeros2::<f64>(m, n).unwrap();
            Stencil2::laplacian_5pt().apply(&ctx, &src, &dst, Boundary::Periodic);
            ctx.to_host2(&dst).unwrap()
        });
        assert_eq!(cpu, gpu);
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn empty_stencil_rejected() {
        Stencil2::new(vec![]);
    }
}
