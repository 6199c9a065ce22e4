//! `hpccg` — the HPCCG-style mini-app driver.
//!
//! Mirrors the original HPCCG benchmark's shape: build a sparse SPD system,
//! run CG to a tolerance, and report iteration counts, residuals, and
//! modeled FLOP rates per backend.
//!
//! ```text
//! cargo run --release -p racc-bench --bin hpccg -- [options]
//!   --n <int>        tridiagonal dimension (default 1_000_000)
//!   --grid <int>     also solve a 2D Laplacian of grid x grid (default 48)
//!   --nx <int>       also solve the HPCCG 27-point 3D system, nx^3 (default 0 = skip)
//!   --tol <float>    convergence tolerance on ||r|| (default 1e-9)
//!   --max-iters <n>  iteration cap (default 500)
//!   --backend <key>  serial|threads|cudasim|hipsim|oneapisim (default: preferences)
//!   --all-backends   run the tridiagonal solve on every compiled backend
//! ```

use racc_cg::csr::{Csr, DeviceCsr};
use racc_cg::solver::solve;
use racc_cg::tridiag::{DeviceTridiag, Tridiag};
use racc_core::{Backend, Context};

struct Options {
    n: usize,
    grid: usize,
    nx: usize,
    tol: f64,
    max_iters: usize,
    backend: Option<String>,
    all_backends: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        n: 1_000_000,
        grid: 48,
        nx: 0,
        tol: 1e-9,
        max_iters: 500,
        backend: None,
        all_backends: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need_value = |i: usize| -> &str {
            args.get(i + 1).unwrap_or_else(|| {
                eprintln!("missing value for {}", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--n" => {
                opts.n = need_value(i).parse().expect("--n integer");
                i += 2;
            }
            "--grid" => {
                opts.grid = need_value(i).parse().expect("--grid integer");
                i += 2;
            }
            "--nx" => {
                opts.nx = need_value(i).parse().expect("--nx integer");
                i += 2;
            }
            "--tol" => {
                opts.tol = need_value(i).parse().expect("--tol float");
                i += 2;
            }
            "--max-iters" => {
                opts.max_iters = need_value(i).parse().expect("--max-iters integer");
                i += 2;
            }
            "--backend" => {
                opts.backend = Some(need_value(i).to_string());
                i += 2;
            }
            "--all-backends" => {
                opts.all_backends = true;
                i += 1;
            }
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// FLOPs of one CG iteration on a tridiagonal system of dimension n:
/// matvec (5n) + 2 dots (2·2n) + 2 axpy (2·2n) + axpby (3n).
fn cg_iter_flops(n: usize) -> f64 {
    (5 + 4 + 4 + 3) as f64 * n as f64
}

fn run_tridiag<B: Backend>(ctx: &Context<B>, opts: &Options) {
    let a = Tridiag::diagonally_dominant(opts.n);
    let b: Vec<f64> = (0..opts.n).map(|i| 1.0 + ((i % 10) as f64) * 0.1).collect();
    let da = DeviceTridiag::upload(ctx, &a).expect("upload A");
    let db = ctx.array_from(&b).expect("upload b");
    ctx.reset_timeline();
    let t0 = std::time::Instant::now();
    let (result, _ws) = solve(ctx, &da, &db, opts.tol, opts.max_iters).expect("solve");
    let wall = t0.elapsed();
    let modeled_s = ctx.modeled_ns() as f64 / 1e9;
    let flops = cg_iter_flops(opts.n) * result.iterations as f64;
    println!(
        "  {:<46} {:>4} iters  ||r|| {:>9.2e}  modeled {:>9.3} ms  {:>8.2} GFLOP/s (modeled)  [{:?} wall]",
        ctx.name(),
        result.iterations,
        result.residual,
        modeled_s * 1e3,
        flops / modeled_s / 1e9,
        wall
    );
    if !result.converged {
        println!(
            "    WARNING: did not converge within {} iterations",
            opts.max_iters
        );
    }
}

/// Build the context the options ask for: explicit `--backend`, or the
/// preference-selected default. Exits with a diagnostic on a bad key.
fn selected_context(opts: &Options) -> racc::Ctx {
    let mut builder = racc::builder();
    if let Some(key) = &opts.backend {
        builder = builder.backend(key);
    }
    builder.build().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn main() {
    let opts = parse_args();
    println!(
        "HPCCG mini-app: tridiagonal N = {}, tol = {:.0e}, max {} iterations",
        opts.n, opts.tol, opts.max_iters
    );

    if opts.all_backends {
        for key in racc::available_backends() {
            let ctx = racc::builder().backend(key).build().expect("backend");
            run_tridiag(&ctx, &opts);
        }
    } else {
        let ctx = selected_context(&opts);
        run_tridiag(&ctx, &opts);
    }

    // The original HPCCG problem: the 27-point 3D operator.
    if opts.nx >= 2 {
        let ctx = selected_context(&opts);
        let m = Csr::hpccg_27pt(opts.nx, opts.nx, opts.nx);
        let n = m.nrows();
        let b = vec![1.0; n];
        let dm = DeviceCsr::upload(&ctx, &m).expect("upload 27pt operator");
        let db = ctx.array_from(&b).expect("upload rhs");
        ctx.reset_timeline();
        let (result, _ws) = solve(&ctx, &dm, &db, opts.tol, opts.max_iters).expect("solve");
        let modeled_s = ctx.modeled_ns() as f64 / 1e9;
        // 27-point matvec: ~2 flops per nonzero, plus the BLAS-1 tail.
        let flops = (2.0 * m.nnz() as f64 + 11.0 * n as f64) * result.iterations as f64;
        println!(
            "\nHPCCG 27-point {0}^3 ({1} unknowns, {2} nnz): {3} iters, ||r|| {4:.2e}, \
             modeled {5:.3} ms, {6:.2} GFLOP/s (modeled)",
            opts.nx,
            n,
            m.nnz(),
            result.iterations,
            result.residual,
            modeled_s * 1e3,
            flops / modeled_s / 1e9
        );
    }

    // The MiniFE-like 2D Laplacian through the CSR substrate.
    if opts.grid >= 4 {
        let ctx = selected_context(&opts);
        let m = Csr::laplacian_2d(opts.grid, opts.grid);
        let n = m.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) * 0.25).collect();
        let mut rhs = vec![0.0; n];
        m.matvec_ref(&x_true, &mut rhs);
        let dm = DeviceCsr::upload(&ctx, &m).expect("upload Laplacian");
        let db = ctx.array_from(&rhs).expect("upload rhs");
        ctx.reset_timeline();
        let (result, ws) = solve(&ctx, &dm, &db, opts.tol, 20 * opts.max_iters).expect("solve");
        let x = ctx.to_host(&ws.x).expect("download");
        let max_err = x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        println!(
            "\n2D Laplacian {0}x{0} ({1} unknowns, {2} nnz): {3} iters, ||r|| {4:.2e}, max err {5:.2e}, modeled {6:.3} ms",
            opts.grid,
            n,
            m.nnz(),
            result.iterations,
            result.residual,
            max_err,
            ctx.modeled_ns() as f64 / 1e6
        );
    }
}
