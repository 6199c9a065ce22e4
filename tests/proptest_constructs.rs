//! Property-based tests of the front-end constructs and core invariants.

use proptest::prelude::*;
use racc::prelude::*;

fn backends() -> Vec<&'static str> {
    // Keep the property loops fast: the CPU back ends plus one simulated
    // GPU exercise every code path (serial loop, pool, grid launch + the
    // two-kernel reduction).
    vec!["serial", "threads", "cudasim"]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// parallel_for visits each index exactly once, any backend, any size.
    #[test]
    fn parallel_for_is_a_permutation(n in 0usize..3000) {
        for key in backends() {
            let ctx = racc::context_for(key).unwrap();
            let marks = ctx.zeros::<u64>(n).unwrap();
            let mv = marks.view_mut();
            ctx.parallel_for(n, &KernelProfile::unknown(), move |i| {
                mv.set(i, mv.get(i) + 1);
            });
            let host = ctx.to_host(&marks).unwrap();
            prop_assert!(host.iter().all(|&x| x == 1), "{key} at n={n}");
        }
    }

    /// parallel_reduce(Sum) equals the serial fold for arbitrary data.
    #[test]
    fn reduce_sum_matches_fold(data in prop::collection::vec(-1e6f64..1e6, 0..2000)) {
        let expect: f64 = data.iter().sum();
        for key in backends() {
            let ctx = racc::context_for(key).unwrap();
            let arr = ctx.array_from(&data).unwrap();
            let v = arr.view();
            let got: f64 = ctx.parallel_reduce(data.len(), &KernelProfile::dot(), move |i| v.get(i));
            prop_assert!(
                (got - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                "{key}: {got} vs {expect}"
            );
        }
    }

    /// Max/Min reductions equal the iterator extrema.
    #[test]
    fn reduce_extrema_match(data in prop::collection::vec(-1000i64..1000, 1..1500)) {
        let max = *data.iter().max().unwrap();
        let min = *data.iter().min().unwrap();
        for key in backends() {
            let ctx = racc::context_for(key).unwrap();
            let arr = ctx.array_from(&data).unwrap();
            let v = arr.view();
            let got_max: i64 = ctx.parallel_reduce_with(
                data.len(), &KernelProfile::dot(), racc::Max, move |i| v.get(i));
            let v = arr.view();
            let got_min: i64 = ctx.parallel_reduce_with(
                data.len(), &KernelProfile::dot(), racc::Min, move |i| v.get(i));
            prop_assert_eq!(got_max, max, "{} max", key);
            prop_assert_eq!(got_min, min, "{} min", key);
        }
    }

    /// 2D arrays round-trip column-major through any backend.
    #[test]
    fn array2_round_trips(m in 1usize..40, n in 1usize..40) {
        for key in backends() {
            let ctx = racc::context_for(key).unwrap();
            let data: Vec<f64> = (0..m * n).map(|i| i as f64).collect();
            let a = ctx.array2_from(m, n, &data).unwrap();
            prop_assert_eq!(ctx.to_host2(&a).unwrap(), data.clone());
            // View indexing agrees with column-major linearization.
            let v = a.view();
            prop_assert_eq!(v.get(m - 1, n - 1), (m * n - 1) as f64);
            prop_assert_eq!(v.get(0, 0), 0.0);
        }
    }

    /// Dot is bilinear: dot(a x, y) == a dot(x, y).
    #[test]
    fn dot_is_linear(scale in -8.0f64..8.0, data in prop::collection::vec(-100.0f64..100.0, 1..800)) {
        let ctx = racc::context_for("threads").unwrap();
        let n = data.len();
        let x = ctx.array_from(&data).unwrap();
        let y = ctx.array_from_fn(n, |i| (i % 7) as f64).unwrap();
        let base = racc_blas::portable::dot(&ctx, &x, &y);
        racc_blas::portable::scal(&ctx, scale, &x);
        let scaled = racc_blas::portable::dot(&ctx, &x, &y);
        prop_assert!(
            (scaled - scale * base).abs() <= 1e-7 * base.abs().max(1.0),
            "{scaled} vs {}", scale * base
        );
    }

    /// Static-schedule reductions are bit-reproducible run to run.
    #[test]
    fn threads_reduce_is_deterministic(data in prop::collection::vec(-1e3f64..1e3, 1..1000)) {
        let ctx = racc::context_for("threads").unwrap();
        let arr = ctx.array_from(&data).unwrap();
        let v1 = arr.view();
        let r1: f64 = ctx.parallel_reduce(data.len(), &KernelProfile::dot(), move |i| v1.get(i));
        let v2 = arr.view();
        let r2: f64 = ctx.parallel_reduce(data.len(), &KernelProfile::dot(), move |i| v2.get(i));
        prop_assert_eq!(r1.to_bits(), r2.to_bits());
    }

    /// The modeled clock is monotone in problem size within one backend.
    #[test]
    fn modeled_time_is_monotone(n in 1024usize..200_000) {
        let ctx = racc::context_for("cudasim").unwrap();
        let time_for = |len: usize| {
            let a = ctx.array_from(&vec![0.5f64; len]).unwrap();
            let b = ctx.array_from(&vec![0.5f64; len]).unwrap();
            ctx.reset_timeline();
            racc_blas::portable::axpy(&ctx, 1.0, &a, &b);
            ctx.modeled_ns()
        };
        let small = time_for(n);
        let large = time_for(n * 4);
        prop_assert!(large >= small, "{large} < {small}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// CG residuals never increase on SPD tridiagonal systems.
    #[test]
    fn cg_residual_monotone(n in 16usize..400, seed in 0u64..1000) {
        use racc_cg::solver::CgWorkspace;
        use racc_cg::tridiag::{DeviceTridiag, Tridiag};
        let ctx = racc::context_for("threads").unwrap();
        let a = Tridiag::diagonally_dominant(n);
        let da = DeviceTridiag::upload(&ctx, &a).unwrap();
        let b = ctx
            .array_from_fn(n, |i| (((i as u64 + seed) * 2654435761) % 100) as f64 * 0.1 - 5.0)
            .unwrap();
        let mut ws = CgWorkspace::new(&ctx, &b).unwrap();
        let mut last = ws.rr().sqrt();
        for _ in 0..12 {
            let r = ws.iterate(&ctx, &da);
            prop_assert!(r <= last * (1.0 + 1e-10), "{r} > {last}");
            last = r;
        }
    }

    /// LBM periodic steps conserve mass for arbitrary smooth initial fields.
    #[test]
    fn lbm_mass_conserved(s in 8usize..28, tau in 0.6f64..1.8, amp in 0.0f64..0.05) {
        use racc_lbm::portable::LbmSim;
        let ctx = racc::context_for("threads").unwrap();
        let mut sim = LbmSim::new(&ctx, s, tau, |x, y| {
            (1.0 + amp * ((x * 3 + y * 5) as f64).sin(), amp * 0.1, -amp * 0.05)
        })
        .unwrap();
        let m0 = sim.total_mass();
        for _ in 0..5 {
            sim.step_periodic();
        }
        let m1 = sim.total_mass();
        prop_assert!((m1 - m0).abs() < 1e-9 * m0, "{m0} -> {m1}");
    }
}
