//! End-to-end application runs: the two mini-apps of the paper's
//! evaluation, executed through the full stack (front end → backend →
//! simulator) with physics/math acceptance criteria.

/// The LBM shear-wave experiment on a simulated GPU must reproduce the
/// analytic BGK viscosity, proving streaming + collision survive the whole
/// portability stack (not just the serial reference).
#[test]
fn lbm_viscosity_on_simulated_gpu() {
    use racc_lbm::lattice::viscosity;
    use racc_lbm::portable::LbmSim;

    let ctx = racc::context_for("hipsim").unwrap();
    let s = 32usize;
    let tau = 1.0f64;
    let u0 = 1e-4;
    let k = 2.0 * std::f64::consts::PI / s as f64;
    let mut sim = LbmSim::new(&ctx, s, tau, |_x, y| (1.0, u0 * (k * y as f64).sin(), 0.0)).unwrap();

    let amplitude = |sim: &LbmSim<_>| -> f64 {
        let (_rho, ux, _uy) = sim.macroscopic().unwrap();
        let mut num = 0.0;
        let mut den = 0.0;
        for y in 0..s {
            let mut u = 0.0;
            for x in 0..s {
                u += ux[x * s + y];
            }
            u /= s as f64;
            let sy = (k * y as f64).sin();
            num += u * sy;
            den += sy * sy;
        }
        num / den
    };

    let a0 = amplitude(&sim);
    let steps = 120;
    for _ in 0..steps {
        sim.step_periodic();
    }
    let a1 = amplitude(&sim);
    let measured = -(a1 / a0).ln() / steps as f64;
    let analytic = viscosity(tau) * k * k;
    let rel = (measured - analytic).abs() / analytic;
    assert!(
        rel < 0.05,
        "measured {measured:.4e} vs analytic {analytic:.4e}"
    );
}

/// The cavity-style interior LBM run stays finite and keeps its boundary
/// untouched through many steps on the threads backend.
#[test]
fn lbm_interior_long_run_is_stable() {
    use racc_lbm::portable::LbmSim;
    let ctx = racc::context_for("threads").unwrap();
    let s = 48usize;
    let mut sim = LbmSim::new(&ctx, s, 0.7, |x, _y| (1.0, 0.03 * (x as f64 / 48.0), 0.0)).unwrap();
    sim.run(100);
    let f = sim.distributions().unwrap();
    assert!(f.iter().all(|v| v.is_finite()));
    let (rho, _, _) = sim.macroscopic().unwrap();
    assert!(rho.iter().all(|&r| r > 0.0), "densities stay positive");
}

/// Full CG solve on the simulated Intel GPU against the Thomas direct
/// solution, including the modeled-cost sanity that more iterations cost
/// more modeled time.
#[test]
fn cg_full_solve_on_simulated_intel_gpu() {
    use racc_cg::solver::solve;
    use racc_cg::tridiag::{DeviceTridiag, Tridiag};

    let ctx = racc::context_for("oneapisim").unwrap();
    let n = 5000usize;
    let a = Tridiag::diagonally_dominant(n);
    let x_true: Vec<f64> = (0..n).map(|i| ((i * 29) % 23) as f64 * 0.4 - 4.0).collect();
    let mut b_host = vec![0.0; n];
    a.matvec_ref(&x_true, &mut b_host);

    let da = DeviceTridiag::upload(&ctx, &a).unwrap();
    let b = ctx.array_from(&b_host).unwrap();
    ctx.reset_timeline();
    let (result, ws) = solve(&ctx, &da, &b, 1e-11, 400).unwrap();
    assert!(result.converged);
    let t_full = ctx.modeled_ns();

    let x = ctx.to_host(&ws.x).unwrap();
    let direct = a.thomas_solve(&b_host);
    for (got, want) in x.iter().zip(&direct) {
        assert!((got - want).abs() < 1e-7);
    }

    // A tighter iteration budget must cost less modeled time.
    ctx.reset_timeline();
    let (_partial, _) = solve(&ctx, &da, &b, 1e-2, 400).unwrap();
    let t_partial = ctx.modeled_ns();
    assert!(t_partial < t_full, "{t_partial} !< {t_full}");
}

/// The CSR substrate end to end: build a 2D Laplacian, solve with CG on a
/// simulated A100, verify against the constructed solution.
#[test]
fn minife_like_laplacian_on_simulated_a100() {
    use racc_cg::csr::{Csr, DeviceCsr};
    use racc_cg::solver::solve;

    let ctx = racc::context_for("cudasim").unwrap();
    let m = Csr::laplacian_2d(24, 24);
    let n = m.nrows();
    let x_true: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) * 0.3).collect();
    let mut b_host = vec![0.0; n];
    m.matvec_ref(&x_true, &mut b_host);

    let dm = DeviceCsr::upload(&ctx, &m).unwrap();
    let b = ctx.array_from(&b_host).unwrap();
    let (result, ws) = solve(&ctx, &dm, &b, 1e-10, 3000).unwrap();
    assert!(result.converged, "residual {}", result.residual);
    let x = ctx.to_host(&ws.x).unwrap();
    for (got, want) in x.iter().zip(&x_true) {
        assert!((got - want).abs() < 1e-6);
    }
}

/// Device-specific and portable paths agree numerically on the full BLAS
/// suite (one vendor spot-check through the public crates).
#[test]
fn vendor_and_portable_blas_agree() {
    let n = 30_000usize;
    let hx: Vec<f64> = (0..n).map(|i| ((i * 17) % 101) as f64 * 0.03).collect();
    let hy: Vec<f64> = (0..n).map(|i| ((i * 23) % 89) as f64 * 0.07).collect();

    // Vendor path on the CUDA shim.
    let cuda = racc_cudasim::Cuda::new();
    let dx = cuda.cu_array(&hx).unwrap();
    let dy = cuda.cu_array(&hy).unwrap();
    racc_blas::vendor::cuda::axpy(&cuda, 1.25, &dx, &dy);
    let (vendor_dot, _) = racc_blas::vendor::cuda::dot(&cuda, &dx, &dy);

    // Portable path on the corresponding RACC backend.
    let ctx = racc::context_for("cudasim").unwrap();
    let px = ctx.array_from(&hx).unwrap();
    let py = ctx.array_from(&hy).unwrap();
    racc_blas::portable::axpy(&ctx, 1.25, &px, &py);
    let portable_dot = racc_blas::portable::dot(&ctx, &px, &py);

    assert!(
        (vendor_dot - portable_dot).abs() < 1e-9 * portable_dot.abs(),
        "{vendor_dot} vs {portable_dot}"
    );
    assert_eq!(cuda.to_host(&dx).unwrap(), ctx.to_host(&px).unwrap());
}
