//! The portability contract, tested end to end: the same program text runs
//! on every compiled-in back end and produces equivalent results — and on
//! each back end the same bits plain, under simsan, fused and under chaos
//! (`common::matrix`).

mod common;

use common::{across, matrix, Config};
use racc::prelude::*;

/// Results must agree across backends to floating-point tolerance (static
/// schedules differ only in combine-tree shape).
fn assert_all_close(label: &str, values: &[(String, f64)]) {
    let first = values[0].1;
    for (key, v) in values {
        let denom = first.abs().max(1e-300);
        assert!(
            ((v - first) / denom).abs() < 1e-9,
            "{label}: backend {key} gave {v}, expected ~{first}"
        );
    }
}

#[test]
fn axpy_dot_pipeline_equivalent_everywhere() {
    let n = 40_000usize;
    let (dots, hosts): (Vec<_>, Vec<_>) = across(&matrix(), |ctx| {
        let x = ctx
            .array_from_fn(n, |i| ((i * 37) % 101) as f64 * 0.25)
            .unwrap();
        let y = ctx
            .array_from_fn(n, |i| ((i * 61) % 97) as f64 * 0.5)
            .unwrap();
        let (xv, yv) = (x.view_mut(), y.view());
        ctx.parallel_for(n, &KernelProfile::axpy(), move |i| {
            xv.set(i, xv.get(i) + 1.5 * yv.get(i));
        });
        let (xv, yv) = (x.view(), y.view());
        let d: f64 = ctx.parallel_reduce(n, &KernelProfile::dot(), move |i| xv.get(i) * yv.get(i));
        (d, ctx.to_host(&x).unwrap())
    })
    .into_iter()
    .map(|(key, (d, host))| ((key.clone(), d), (key, host)))
    .unzip();
    assert_all_close("dot", &dots);
    // The element-wise AXPY results must be *identical* (same arithmetic,
    // no reduction-order freedom).
    let first = &hosts[0].1;
    for (key, host) in &hosts {
        assert_eq!(host, first, "axpy output differs on {key}");
    }
}

#[test]
fn two_d_and_three_d_constructs_equivalent() {
    let (m, n, l) = (24usize, 18usize, 12usize);
    let results = across(&matrix(), |ctx| {
        let a = ctx
            .array2_from_fn(m, n, |i, j| ((i * 7 + j * 13) % 29) as f64)
            .unwrap();
        let av = a.view();
        let s2: f64 = ctx.parallel_reduce_2d((m, n), &KernelProfile::dot(), move |i, j| {
            av.get(i, j) * 1.5
        });

        let b = ctx.zeros3::<f64>(m, n, l).unwrap();
        let bv = b.view_mut();
        ctx.parallel_for_3d((m, n, l), &KernelProfile::unknown(), move |i, j, k| {
            bv.set(i, j, k, ((i + 2 * j + 3 * k) % 11) as f64);
        });
        let bv = b.view();
        let s3: f64 = ctx.parallel_reduce_3d((m, n, l), &KernelProfile::dot(), move |i, j, k| {
            bv.get(i, j, k)
        });

        let av = a.view();
        let mx: f64 =
            ctx.parallel_reduce_2d_with((m, n), &KernelProfile::dot(), racc::Max, move |i, j| {
                av.get(i, j)
            });
        (s2, s3, mx)
    });
    let column = |pick: fn(&(f64, f64, f64)) -> f64| -> Vec<(String, f64)> {
        results
            .iter()
            .map(|(key, r)| (key.clone(), pick(r)))
            .collect()
    };
    assert_all_close("sum2d", &column(|r| r.0));
    assert_all_close("sum3d", &column(|r| r.1));
    assert_all_close("max2d", &column(|r| r.2));
}

#[test]
fn lbm_steps_equivalent_everywhere() {
    use racc_lbm::portable::LbmSim;
    let s = 20usize;
    let tau = 0.8;
    let fields = |x: usize, y: usize| (1.0 + 0.01 * ((x * 5 + y) as f64).cos(), 0.015, -0.01);
    let snapshots = across(&matrix(), |ctx| {
        let mut sim = LbmSim::new(ctx, s, tau, fields).unwrap();
        for _ in 0..6 {
            sim.step();
        }
        sim.distributions().unwrap()
    });
    let first = &snapshots[0].1;
    for (key, snap) in &snapshots {
        let max_diff = snap
            .iter()
            .zip(first)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_diff < 1e-13, "LBM differs on {key}: {max_diff}");
    }
}

#[test]
fn cg_converges_identically_everywhere() {
    use racc_cg::solver::solve;
    use racc_cg::tridiag::{DeviceTridiag, Tridiag};
    let n = 3000usize;
    let a = Tridiag::diagonally_dominant(n);
    let b_host: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
    let direct = a.thomas_solve(&b_host);
    let solutions = across(&matrix(), |ctx| {
        let da = DeviceTridiag::upload(ctx, &a).unwrap();
        let b = ctx.array_from(&b_host).unwrap();
        let (result, ws) = solve(ctx, &da, &b, 1e-10, 300).unwrap();
        let x = ctx.to_host(&ws.x).unwrap();
        ((result.converged, result.iterations), result.residual, x)
    });
    for (key, ((converged, _), residual, x)) in solutions {
        assert!(converged, "{key}: residual {residual}");
        for (got, want) in x.iter().zip(&direct) {
            assert!((got - want).abs() < 1e-7, "{key}: {got} vs {want}");
        }
    }
}

#[test]
fn gpu_backends_model_transfers_cpu_backends_do_not() {
    let n = 1 << 18;
    let modeled = across(&matrix(), |ctx| {
        ctx.reset_timeline();
        let arr = ctx.array_from(&vec![1.0f64; n]).unwrap();
        let _ = ctx.to_host(&arr).unwrap();
        let t = ctx.timeline();
        (
            ctx.is_accelerator(),
            (t.h2d_bytes, t.d2h_bytes),
            t.modeled_ns > 0,
        )
    });
    for (key, (accelerator, (h2d, d2h), timed)) in modeled {
        if accelerator {
            assert!(h2d > 0, "{key} must model H2D");
            assert!(d2h > 0, "{key} must model D2H");
            assert!(timed, "{key}");
        } else {
            assert!(!timed, "{key}: arrays are free");
        }
    }
}

/// The matrix itself: every back end runs plain, fused and under chaos,
/// every simulator under simsan too, and each configured cell really is
/// configured. `--nocapture` prints the cells.
#[test]
fn the_matrix_covers_every_backend_in_every_configuration() {
    let cells = matrix();
    for cell in &cells {
        println!("{}", cell.label());
    }
    for key in racc::available_backends() {
        let row: Vec<&common::Cell> = cells.iter().filter(|c| c.backend == key).collect();
        let want: &[Config] = if row[0].ctx.is_accelerator() {
            &Config::ALL
        } else {
            &[Config::Plain, Config::Fusion, Config::Chaos]
        };
        assert_eq!(
            row.iter().map(|c| c.config).collect::<Vec<_>>(),
            want,
            "{key}"
        );
    }
    for cell in &cells {
        let (ctx, who) = (&cell.ctx, cell.label());
        assert_eq!(ctx.fusion_enabled(), cell.config == Config::Fusion, "{who}");
        let sanitized = ctx.stats().sanitizer.is_some();
        assert_eq!(sanitized, cell.config == Config::Simsan, "{who}");
        let x = ctx.zeros::<f64>(64).unwrap();
        for _ in 0..200 {
            let xv = x.view_mut();
            ctx.parallel_for(64, &KernelProfile::axpy(), move |i| {
                xv.set(i, xv.get(i) + 1.0)
            });
        }
        assert_eq!(ctx.to_host(&x).unwrap(), vec![200.0; 64], "{who}");
        let faulted = !ctx.fault_log().is_empty();
        let armed = cell.config == Config::Chaos && ctx.is_accelerator();
        assert_eq!(faulted, armed, "{who}");
    }
}
