//! Regenerate every figure/table of the paper's evaluation (JACC, SC'24).
//!
//! ```text
//! cargo run --release -p racc-bench --bin figures -- all
//! cargo run --release -p racc-bench --bin figures -- fig8 [--full]
//! ```
//!
//! Commands: `fig8`, `fig9`, `fig11`, `fig13`, `speedups`, `overhead`,
//! `ablate-coalescing`, `ablate-reduce`, `all`. `--full` uses the paper's
//! larger problem sizes (slower; needs several GB of RAM).
//!
//! `trace <experiment>` decomposes one experiment launch-by-launch on all
//! four architectures: per-kernel roofline summaries on stdout, and a
//! combined chrome://tracing JSON under `results/`.
//!
//! Times are **modeled nanoseconds** from the analytic machine models (see
//! `DESIGN.md` §1 and `EXPERIMENTS.md`); `dev` columns are the
//! device-specific implementations, `racc` columns the portable ones.

use racc_bench::runners::{self, Measurement};
use racc_bench::{fmt_ns, pow2_sizes, Arch, Table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let cmd = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    match cmd {
        "fig8" => fig8(full),
        "fig9" => fig9(full),
        "fig11" => fig11(full),
        "fig13" => fig13(full),
        "speedups" => speedups(full),
        "overhead" => overhead(full),
        "ablate-coalescing" => ablate_coalescing(),
        "ablate-reduce" => ablate_reduce(full),
        "ablate-lbm-launch" => ablate_lbm_launch(),
        "bench-launch-overhead" => bench_launch_overhead(),
        "bench-fusion" => bench_fusion(),
        "bench-steal" => bench_steal(),
        "bench-prim" => bench_prim(),
        "bench-shard" => bench_shard(),
        "bench-serve" => bench_serve(),
        "trace" => {
            let experiment = args
                .iter()
                .filter(|a| !a.starts_with("--"))
                .nth(1)
                .map(String::as_str)
                .unwrap_or("fig8");
            trace_experiment(experiment, full);
        }
        "sancheck" => {
            let experiment = args
                .iter()
                .filter(|a| !a.starts_with("--"))
                .nth(1)
                .map(String::as_str)
                .unwrap_or("fig8");
            sancheck(experiment);
        }
        "all" => {
            fig8(full);
            fig9(full);
            fig11(full);
            fig13(full);
            speedups(full);
            overhead(full);
            ablate_coalescing();
            ablate_reduce(full);
            ablate_lbm_launch();
        }
        other => {
            eprintln!(
                "unknown command {other:?}; expected fig8|fig9|fig11|fig13|speedups|overhead|ablate-coalescing|ablate-reduce|ablate-lbm-launch|bench-launch-overhead|bench-fusion|bench-steal|bench-prim|bench-shard|bench-serve|trace|sancheck|all"
            );
            std::process::exit(2);
        }
    }
}

/// Device peak rates for the roofline column of the kernel summary.
fn peaks(arch: Arch) -> racc::trace::summary::RooflinePeaks {
    use racc_core::cpumodel::CpuSpec;
    use racc_gpusim::profiles;
    let (flops, bytes) = match arch {
        Arch::CpuRome => {
            let cpu = CpuSpec::epyc_7742_rome();
            (cpu.achieved_flops_per_sec, cpu.achieved_bw_bytes_per_sec)
        }
        Arch::Mi100 => {
            let d = profiles::amd_mi100();
            (d.fp64_flops_per_sec, d.mem_bw_bytes_per_sec)
        }
        Arch::A100 => {
            let d = profiles::nvidia_a100();
            (d.fp64_flops_per_sec, d.mem_bw_bytes_per_sec)
        }
        Arch::Max1550 => {
            let d = profiles::intel_max1550();
            (d.fp64_flops_per_sec, d.mem_bw_bytes_per_sec)
        }
    };
    racc::trace::summary::RooflinePeaks {
        gflops: flops / 1e9,
        gbs: bytes / 1e9,
    }
}

/// Run one experiment's RACC path on a traced context (uploads included —
/// the recorder and the timeline both start at context creation, so their
/// totals must reconcile exactly).
fn traced_workload(ctx: &racc::Ctx, experiment: &str, full: bool) {
    use racc_blas::portable as pblas;
    use racc_cg::solver::CgWorkspace;
    use racc_cg::tridiag::{DeviceTridiag, Tridiag};
    use racc_lbm::portable::LbmSim;
    const ALPHA: f64 = 2.5;
    match experiment {
        "fig8" => {
            let n = if full { 1 << 26 } else { 1 << 20 };
            let x = ctx
                .array_from_fn(n, |i| ((i % 1000) as f64) * 0.01)
                .expect("alloc x");
            let y = ctx
                .array_from_fn(n, |i| (((i + 7) % 1000) as f64) * 0.01)
                .expect("alloc y");
            pblas::axpy(ctx, ALPHA, &x, &y);
            let _ = pblas::dot(ctx, &x, &y);
        }
        "fig9" => {
            let s = if full { 1 << 11 } else { 1 << 9 };
            let host: Vec<f64> = (0..s * s).map(|i| ((i % 1000) as f64) * 0.01).collect();
            let x = ctx.array2_from(s, s, &host).expect("alloc x");
            let y = ctx.array2_from(s, s, &host).expect("alloc y");
            pblas::axpy_2d(ctx, ALPHA, &x, &y);
            let _ = pblas::dot_2d(ctx, &x, &y);
        }
        "fig11" => {
            let s = if full { 1 << 10 } else { 256 };
            let mut sim = LbmSim::uniform(ctx, s, 0.8, 1.0, 0.02, 0.0).expect("alloc lattices");
            sim.step();
        }
        "fig13" => {
            let n = if full { 1 << 24 } else { 1 << 20 };
            let a = Tridiag::diagonally_dominant(n);
            let b: Vec<f64> = (0..n).map(|i| 0.5 + ((i % 7) as f64) * 0.1).collect();
            let da = DeviceTridiag::upload(ctx, &a).expect("upload A");
            let db = ctx.array_from(&b).expect("upload b");
            let mut ws = CgWorkspace::new(ctx, &db).expect("workspace");
            let _ = ws.iterate(ctx, &da);
        }
        other => {
            eprintln!("unknown trace experiment {other:?}; expected fig8|fig9|fig11|fig13");
            std::process::exit(2);
        }
    }
}

/// `sancheck <experiment>`: run one experiment's RACC path under the
/// `simsan` sanitizer on every architecture and print each backend's
/// report (checks performed, leaks outstanding). Always uses the small
/// problem sizes — read tracking makes every element access pay hash-table
/// work, which is the point of an opt-in checker.
fn sancheck(experiment: &str) {
    for arch in Arch::all() {
        let ctx = racc::builder()
            .backend(arch.backend_key())
            .sanitizer(true)
            .build()
            .expect("backend compiled in");
        traced_workload(&ctx, experiment, false);
        println!("\n=== sancheck: {experiment} on {} ===", arch.label());
        match ctx.stats().sanitizer {
            Some(report) => print!("{report}"),
            None => println!(
                "sanitizer unsupported on this backend \
                 (CPU back ends need the `racecheck` feature)"
            ),
        }
    }
    println!();
}

/// `trace <experiment>`: per-launch decomposition on all four
/// architectures, with a reconciliation check against the timeline.
fn trace_experiment(experiment: &str, full: bool) {
    let mut groups: Vec<(&'static str, Vec<racc::trace::Span>)> = Vec::new();
    for arch in Arch::all() {
        let ctx = racc::builder()
            .backend(arch.backend_key())
            .trace(true)
            .trace_capacity(1 << 16)
            .build()
            .expect("backend compiled in");
        traced_workload(&ctx, experiment, full);

        let spans = ctx.trace_spans();
        let recorder = ctx.tracer().expect("traced context has a recorder");
        assert_eq!(recorder.dropped(), 0, "trace ring buffer overflowed");
        let span_ns = racc::trace::total_modeled_ns(&spans);
        let timeline_ns = ctx.modeled_ns();
        println!(
            "\n=== {experiment} on {} ({} spans) ===",
            arch.label(),
            spans.len()
        );
        print!(
            "{}",
            racc::trace::summary::kernel_summary(&spans, Some(peaks(arch)))
        );
        println!(
            "span modeled total {} vs timeline {} — {}",
            fmt_ns(span_ns as f64),
            fmt_ns(timeline_ns as f64),
            if span_ns == timeline_ns {
                "exact match"
            } else {
                "MISMATCH"
            }
        );
        assert_eq!(
            span_ns,
            timeline_ns,
            "span sum must reconcile with the timeline on {}",
            arch.label()
        );
        groups.push((arch.label(), spans));
    }

    let refs: Vec<(&str, &[racc::trace::Span])> = groups
        .iter()
        .map(|(label, spans)| (*label, spans.as_slice()))
        .collect();
    let json = racc::trace::chrome::chrome_trace(&refs);
    racc::trace::json::validate(&json).expect("chrome trace must be valid JSON");
    std::fs::create_dir_all("results").expect("create results/");
    let path = format!("results/trace_{experiment}.json");
    std::fs::write(&path, json).expect("write chrome trace");
    println!("\nchrome://tracing JSON written to {path} (open via chrome://tracing or Perfetto)");
}

fn header() -> Vec<&'static str> {
    let mut h = vec!["size"];
    for arch in Arch::all() {
        h.push(match arch {
            Arch::CpuRome => "rome:dev",
            Arch::Mi100 => "mi100:dev",
            Arch::A100 => "a100:dev",
            Arch::Max1550 => "max1550:dev",
        });
        h.push(match arch {
            Arch::CpuRome => "rome:racc",
            Arch::Mi100 => "mi100:racc",
            Arch::A100 => "a100:racc",
            Arch::Max1550 => "max1550:racc",
        });
    }
    h
}

fn sweep_table(title: &str, sizes: &[usize], run: impl Fn(Arch, usize) -> Measurement) -> Table {
    let h = header();
    let mut t = Table::new(title, &h);
    for &n in sizes {
        let mut cells = vec![n.to_string()];
        for arch in Arch::all() {
            let m = run(arch, n);
            cells.push(fmt_ns(m.dev_ns));
            cells.push(fmt_ns(m.racc_ns));
        }
        t.row(cells);
    }
    t
}

fn fig8(full: bool) {
    let max = if full { 1 << 27 } else { 1 << 22 };
    let sizes = pow2_sizes(1 << 10, max);
    sweep_table(
        "Fig. 8 — 1D AXPY time (device-specific vs RACC, modeled)",
        &sizes,
        runners::axpy_1d,
    )
    .print();
    sweep_table(
        "Fig. 8 — 1D DOT time (device-specific vs RACC, modeled)",
        &sizes,
        runners::dot_1d,
    )
    .print();
}

fn fig9(full: bool) {
    let max = if full { 1 << 12 } else { 1 << 10 };
    let sizes = pow2_sizes(1 << 5, max);
    sweep_table(
        "Fig. 9 — 2D AXPY time on s x s arrays (device-specific vs RACC, modeled)",
        &sizes,
        runners::axpy_2d,
    )
    .print();
    sweep_table(
        "Fig. 9 — 2D DOT time on s x s arrays (device-specific vs RACC, modeled)",
        &sizes,
        runners::dot_2d,
    )
    .print();
}

fn fig11(full: bool) {
    let max = if full { 1 << 11 } else { 1 << 9 };
    let sizes = pow2_sizes(1 << 5, max);
    sweep_table(
        "Fig. 11 — LBM D2Q9 time per step on s x s grids (device-specific vs RACC, modeled)",
        &sizes,
        runners::lbm_step,
    )
    .print();
}

fn fig13(full: bool) {
    // The paper reports one CG iteration at N = 100M; the default harness
    // sweeps up to 4M (the model is linear in N past saturation).
    let max = if full { 100_000_000 } else { 1 << 22 };
    let mut sizes = pow2_sizes(1 << 16, max.min(1 << 26));
    if full {
        sizes.push(100_000_000);
    }
    sweep_table(
        "Fig. 13 — CG time per iteration, tridiagonal N (device-specific vs RACC, modeled)",
        &sizes,
        runners::cg_iteration,
    )
    .print();
}

/// The speedup factors quoted in the paper's text (§V-A/B/C), measured on
/// the RACC path at a large size, with the paper's reported values beside.
fn speedups(full: bool) {
    let n1 = if full { 1 << 26 } else { 1 << 22 };
    let s_lbm = if full { 1 << 11 } else { 1 << 9 };
    let n_cg = if full { 100_000_000 } else { 1 << 22 };

    let mut t = Table::new(
        "Speedup of RACC code on each GPU vs the same RACC code on the CPU (paper values in [])",
        &["workload", "mi100", "a100", "max1550"],
    );
    let ratios = |run: &dyn Fn(Arch, usize) -> Measurement, n: usize| -> [f64; 3] {
        let cpu = run(Arch::CpuRome, n).racc_ns;
        [
            cpu / run(Arch::Mi100, n).racc_ns,
            cpu / run(Arch::A100, n).racc_ns,
            cpu / run(Arch::Max1550, n).racc_ns,
        ]
    };
    let row = |t: &mut Table, name: &str, r: [f64; 3], paper: [&str; 3]| {
        t.row(vec![
            name.to_string(),
            format!("{:.1}x {}", r[0], paper[0]),
            format!("{:.1}x {}", r[1], paper[1]),
            format!("{:.1}x {}", r[2], paper[2]),
        ]);
    };
    row(
        &mut t,
        "axpy-1d",
        ratios(&runners::axpy_1d, n1),
        ["[~70x]", "[-]", "[-]"],
    );
    row(
        &mut t,
        "lbm",
        ratios(&runners::lbm_step, s_lbm),
        ["[~14x]", "[~20x]", "[~6.5x]"],
    );
    row(
        &mut t,
        "cg",
        ratios(&runners::cg_iteration, n_cg),
        ["[~17x]", "[~68x]", "[~4x]"],
    );
    t.print();

    // The small-DOT inversion: CPU beats GPU (paper: ~2x on small arrays).
    let small = 1 << 12;
    let cpu = runners::dot_1d(Arch::CpuRome, small).racc_ns;
    let gpu = runners::dot_1d(Arch::Mi100, small).racc_ns;
    let mut t = Table::new(
        "Small-array DOT: CPU over GPU speedup (paper: ~2x)",
        &["size", "cpu-over-mi100"],
    );
    t.row(vec![small.to_string(), format!("{:.1}x", gpu / cpu)]);
    t.print();
}

/// Per-workload RACC-vs-device-specific overhead (the paper's "negligible
/// overhead" claim, plus the Intel DOT ~+35% observation).
fn overhead(full: bool) {
    let n_small = 1 << 12;
    let n_large = if full { 1 << 26 } else { 1 << 22 };
    let mut t = Table::new(
        "RACC overhead vs device-specific (racc/dev time ratio; 1.00 = none)",
        &["workload", "size", "rome", "mi100", "a100", "max1550"],
    );
    let mut row = |name: &str, n: usize, run: &dyn Fn(Arch, usize) -> Measurement| {
        let mut cells = vec![name.to_string(), n.to_string()];
        for arch in Arch::all() {
            cells.push(format!("{:.2}", run(arch, n).overhead()));
        }
        t.row(cells);
    };
    row("axpy-1d", n_small, &runners::axpy_1d);
    row("axpy-1d", n_large, &runners::axpy_1d);
    row("dot-1d", n_small, &runners::dot_1d);
    row("dot-1d", n_large, &runners::dot_1d);
    row("lbm", 1 << 8, &runners::lbm_step);
    row("cg", 1 << 20, &runners::cg_iteration);
    t.print();
}

/// Ablation: the coalescing factor's effect on a streaming kernel (why the
/// LBM's strided layout costs GPUs so much).
fn ablate_coalescing() {
    use racc_core::KernelProfile;
    let n = 1 << 22;
    let mut t = Table::new(
        "Ablation — modeled AXPY time, coalesced vs strided access",
        &["arch", "coalesced", "strided", "slowdown"],
    );
    for arch in [Arch::Mi100, Arch::A100, Arch::Max1550] {
        let ctx = arch.context();
        let x = ctx.array_from(&vec![1.0f64; n]).expect("alloc");
        let y = ctx.array_from(&vec![2.0f64; n]).expect("alloc");
        let time_with = |coalescing: f64| -> f64 {
            ctx.reset_timeline();
            let profile = KernelProfile::axpy().with_coalescing(coalescing);
            let (xv, yv) = (x.view_mut(), y.view());
            ctx.parallel_for(n, &profile, move |i| {
                xv.set(i, xv.get(i) + 2.5 * yv.get(i));
            });
            ctx.modeled_ns() as f64
        };
        let coalesced = time_with(1.0);
        let strided = time_with(0.0);
        t.row(vec![
            arch.label().to_string(),
            fmt_ns(coalesced),
            fmt_ns(strided),
            format!("{:.1}x", strided / coalesced),
        ]);
    }
    t.print();
}

/// Ablation: the two-kernel GPU reduction vs downloading the per-block
/// partials and folding on the host.
fn ablate_reduce(full: bool) {
    let sizes = pow2_sizes(1 << 12, if full { 1 << 26 } else { 1 << 22 });
    let mut t = Table::new(
        "Ablation — DOT on the A100: two-kernel reduce vs host-folded partials",
        &["size", "two-kernel", "host-fold", "host-fold/two-kernel"],
    );
    for n in sizes {
        let cuda = racc_cudasim::Cuda::new();
        let dx = cuda.cu_array(&vec![1.0f64; n]).expect("alloc");
        let dy = cuda.cu_array(&vec![1.0f64; n]).expect("alloc");
        let (_, two_kernel) = racc_blas::vendor::cuda::dot(&cuda, &dx, &dy);
        let host_fold = host_folded_dot(&cuda, &dx, &dy);
        t.row(vec![
            n.to_string(),
            fmt_ns(two_kernel as f64),
            fmt_ns(host_fold as f64),
            format!("{:.2}", host_fold as f64 / two_kernel as f64),
        ]);
    }
    t.print();
}

/// The naive reduction strategy: kernel 1 computes per-block partials, then
/// the host downloads the whole partial array and folds it.
fn host_folded_dot(
    cuda: &racc_cudasim::Cuda,
    x: &racc_cudasim::CuArray<f64>,
    y: &racc_cudasim::CuArray<f64>,
) -> u64 {
    use racc_gpusim::KernelCost;
    let n = x.len();
    let block = 512usize;
    let blocks = n.div_ceil(block).max(1);
    let e0 = cuda.record_event();
    let partials = cuda.zeros::<f64>(blocks).expect("partials");
    // Reuse kernel 1 shape: a plain (non-cooperative) kernel where thread 0
    // of each block serially sums its block's range — cheaper to express,
    // same bytes touched.
    let xs = cuda.view(x).expect("own");
    let ys = cuda.view(y).expect("own");
    let ps = cuda.view_mut(&partials).expect("own");
    cuda.launch(
        block as u32,
        blocks as u32,
        0,
        KernelCost::new(2.0, 16.0, 8.0 / block as f64, 1.0),
        move |t| {
            if t.thread_linear() == 0 {
                let b = t.block_linear();
                let start = b * block;
                let end = (start + block).min(n);
                let mut acc = 0.0;
                for i in start..end {
                    acc += xs.get(i) * ys.get(i);
                }
                ps.set(b, acc);
            }
        },
    )
    .expect("partials kernel");
    let host = cuda.to_host(&partials).expect("download partials");
    let _sum: f64 = host.iter().sum();
    let e1 = cuda.record_event();
    e0.elapsed_ns(&e1)
}

/// Launch-overhead gate: **wall-clock** launches/sec through each simulated
/// vendor API plus the threads backend, for an empty kernel (pure dispatch),
/// an AXPY-shaped vendor-native kernel (`axpy_native`), and — through one
/// portable `Context` per backend, so the two are like for like — an AXPY
/// (`axpy`) and a DOT (`reduce`, the two-kernel tree reduction). Prints a
/// table and writes `results/BENCH_launch_overhead.json`, which
/// `scripts/check_bench.py` gates. `RACC_BENCH_QUICK=1` shrinks shapes
/// and iteration counts to smoke-test scale.
fn bench_launch_overhead() {
    use racc_core::{Context, KernelProfile, ThreadsBackend};
    use racc_cudasim::Cuda;
    use racc_gpusim::KernelCost;
    use racc_hipsim::Hip;
    use racc_oneapisim::OneApi;
    use std::time::Instant;

    let quick = std::env::var_os("RACC_BENCH_QUICK").is_some();
    let (blocks, threads) = if quick {
        (128u32, 32u32)
    } else {
        (1024u32, 32u32)
    };
    let n: usize = if quick { 1 << 12 } else { 1 << 16 };
    let iters: u32 = if quick { 50 } else { 400 };

    /// Warm up (arena growth, op-log fill), then time `iters` launches.
    fn measure(iters: u32, mut launch: impl FnMut()) -> f64 {
        for _ in 0..(iters / 4).max(4) {
            launch();
        }
        let t0 = Instant::now();
        for _ in 0..iters {
            launch();
        }
        t0.elapsed().as_nanos() as f64 / f64::from(iters)
    }

    // (workload, backend, shape, ns-per-launch)
    let mut rows: Vec<(&'static str, &'static str, String, f64)> = Vec::new();
    let empty_shape = format!("{blocks}x{threads}");

    let cuda = Cuda::new();
    let hip = Hip::new();
    let oneapi = OneApi::new();
    let ctx = Context::new(ThreadsBackend::new());

    rows.push((
        "empty",
        "cudasim",
        empty_shape.clone(),
        measure(iters, || {
            cuda.launch(threads, blocks, 0, KernelCost::default(), |_| {})
                .unwrap();
        }),
    ));
    rows.push((
        "empty",
        "hipsim",
        empty_shape.clone(),
        measure(iters, || {
            hip.launch(threads, blocks, 0, KernelCost::default(), |_| {})
                .unwrap();
        }),
    ));
    rows.push((
        "empty",
        "oneapisim",
        empty_shape.clone(),
        measure(iters, || {
            oneapi
                .launch(threads, blocks, 0, KernelCost::default(), |_| {})
                .unwrap();
        }),
    ));
    let flat = (blocks * threads) as usize;
    rows.push((
        "empty",
        "threads",
        empty_shape.clone(),
        measure(iters, || {
            ctx.parallel_for(flat, &KernelProfile::axpy(), |_i| {});
        }),
    ));

    let axpy_threads = 256u32;
    let axpy_blocks = n.div_ceil(axpy_threads as usize) as u32;
    let cost = KernelCost::new(2.0, 16.0, 8.0, 1.0);
    let axpy_shape = format!("n={n}");
    let host_x = vec![1.0f64; n];
    let host_y = vec![2.0f64; n];

    {
        let x = cuda.cu_array(&host_x).unwrap();
        let y = cuda.cu_array(&host_y).unwrap();
        let (xv, yv) = (cuda.view_mut(&x).unwrap(), cuda.view(&y).unwrap());
        rows.push((
            "axpy_native",
            "cudasim",
            axpy_shape.clone(),
            measure(iters, || {
                cuda.launch(axpy_threads, axpy_blocks, 0, cost, |t| {
                    let i = t.global_id_x();
                    if i < n {
                        xv.set(i, xv.get(i) + 2.5 * yv.get(i));
                    }
                })
                .unwrap();
            }),
        ));
    }
    {
        let x = hip.roc_array(&host_x).unwrap();
        let y = hip.roc_array(&host_y).unwrap();
        let (xv, yv) = (hip.view_mut(&x).unwrap(), hip.view(&y).unwrap());
        rows.push((
            "axpy_native",
            "hipsim",
            axpy_shape.clone(),
            measure(iters, || {
                hip.launch(axpy_threads, axpy_blocks, 0, cost, |t| {
                    let i = t.global_id_x();
                    if i < n {
                        xv.set(i, xv.get(i) + 2.5 * yv.get(i));
                    }
                })
                .unwrap();
            }),
        ));
    }
    {
        let x = oneapi.one_array(&host_x).unwrap();
        let y = oneapi.one_array(&host_y).unwrap();
        let (xv, yv) = (oneapi.view_mut(&x).unwrap(), oneapi.view(&y).unwrap());
        rows.push((
            "axpy_native",
            "oneapisim",
            axpy_shape.clone(),
            measure(iters, || {
                oneapi
                    .launch(axpy_threads, axpy_blocks, 0, cost, |t| {
                        let i = t.global_id_x();
                        if i < n {
                            xv.set(i, xv.get(i) + 2.5 * yv.get(i));
                        }
                    })
                    .unwrap();
            }),
        ));
    }
    // AXPY and DOT (the two-kernel tree reduction) through the portable
    // front end, on one context per backend: `check_bench.py` gates
    // `reduce / axpy` per simulator, which holds the reduction kernels to
    // block-granular phases (a counted loop per phase, not a visit per
    // simulated thread).
    for key in ["cudasim", "hipsim", "oneapisim", "threads"] {
        let rctx = racc::builder()
            .backend(key)
            .build()
            .expect("backend compiled in");
        let x = rctx.array_from(&host_x).unwrap();
        let y = rctx.array_from(&host_y).unwrap();
        rows.push((
            "axpy",
            key,
            axpy_shape.clone(),
            measure(iters, || racc_blas::portable::axpy(&rctx, 2.5, &x, &y)),
        ));
        rows.push((
            "reduce",
            key,
            axpy_shape.clone(),
            measure(iters, || {
                std::hint::black_box(racc_blas::portable::dot(&rctx, &x, &y));
            }),
        ));
    }

    let mut t = Table::new(
        "Launch overhead — wall-clock dispatch rate per backend",
        &["workload", "backend", "shape", "ns/launch", "launches/sec"],
    );
    let mut entries = Vec::new();
    for (workload, backend, shape, ns) in &rows {
        let per_sec = 1e9 / ns;
        t.row(vec![
            (*workload).to_string(),
            (*backend).to_string(),
            shape.clone(),
            format!("{ns:.0}"),
            format!("{per_sec:.0}"),
        ]);
        entries.push(format!(
            "    {{\"workload\": \"{workload}\", \"backend\": \"{backend}\", \"shape\": \"{shape}\", \
             \"iters\": {iters}, \"ns_per_launch\": {ns:.1}, \"launches_per_sec\": {per_sec:.1}}}"
        ));
    }
    t.print();

    let json = format!(
        "{{\n  \"bench\": \"launch_overhead\",\n  \"quick\": {quick},\n  \"series\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    racc::trace::json::validate(&json).expect("bench JSON must be valid");
    std::fs::create_dir_all("results").expect("create results/");
    let path = "results/BENCH_launch_overhead.json";
    std::fs::write(path, json).expect("write bench JSON");
    println!("\nlaunch-overhead series written to {path}");
}

/// Fusion benchmark: the fig13 CG iteration (eager vs fused, the fused
/// path now replaying compiled plans from the cache) and a standalone
/// expression chain in all three engine modes — eager, interpreted, and
/// compiled — on every backend. Result histories are asserted
/// bit-identical across modes before anything is reported. Prints tables
/// and writes `results/BENCH_fusion.json` (launch counts per iteration,
/// modeled and wall-clock time, and plan-cache counters).
/// `RACC_BENCH_QUICK=1` shrinks sizes and iteration counts.
fn bench_fusion() {
    use racc_cg::solver::CgWorkspace;
    use racc_cg::tridiag::{DeviceTridiag, Tridiag};
    use racc_fuse::{lit, load, LazyExt};
    use std::time::Instant;

    let quick = std::env::var_os("RACC_BENCH_QUICK").is_some();
    let n: usize = if quick { 1 << 12 } else { 1 << 14 };
    let iters: u32 = if quick { 10 } else { 60 };
    // Fixed worker count for the threads backend: on a small CI box the
    // default pool can degenerate to one participant, which measures the
    // serial fold instead of the threaded runtime (broadcast, partials,
    // latch) that fusion actually halves.
    const THREADS_WORKERS: usize = 4;

    const BACKENDS: [&str; 5] = ["serial", "threads", "cudasim", "hipsim", "oneapisim"];

    /// One timed CG run: residual-history bits plus per-iteration counters.
    struct CgRun {
        hist: Vec<u64>,
        launches: u64,
        reductions: u64,
        modeled_ns: f64,
        wall_ns: f64,
    }

    fn run_cg(ctx: &racc::Ctx, n: usize, iters: u32) -> CgRun {
        let a = Tridiag::diagonally_dominant(n);
        let b: Vec<f64> = (0..n).map(|i| 0.5 + ((i % 7) as f64) * 0.1).collect();
        let da = DeviceTridiag::upload(ctx, &a).expect("upload matrix");
        let db = ctx.array_from(&b).expect("upload rhs");
        let mut hist = Vec::new();
        let mut wall_ns = f64::INFINITY;
        let (mut launches, mut reductions, mut modeled) = (0u64, 0u64, 0.0f64);
        for _rep in 0..5 {
            // Fresh workspace per rep: repeating the same iteration window
            // keeps every compared residual far from exact convergence —
            // past breakdown (rr = 0) the 0/0 NaN bit patterns are
            // codegen-defined, not algorithm-defined, so they cannot be
            // part of the bit-identity contract. The plan cache is keyed
            // by program shape, not array identity, so the fresh arrays
            // must still hit (asserted below). The first few iterations
            // per rep warm the pool/arenas and are excluded from timing
            // but still part of the compared history.
            let mut ws = CgWorkspace::new(ctx, &db).expect("workspace");
            for _ in 0..(iters / 4).max(2) {
                hist.push(ws.iterate(ctx, &da).to_bits());
            }
            let before = ctx.timeline();
            let t0 = Instant::now();
            for _ in 0..iters {
                hist.push(ws.iterate(ctx, &da).to_bits());
            }
            wall_ns = wall_ns.min(t0.elapsed().as_nanos() as f64 / f64::from(iters));
            let after = ctx.timeline();
            launches += after.launches - before.launches;
            reductions += after.reductions - before.reductions;
            modeled += (after.modeled_ns - before.modeled_ns) as f64;
        }
        let total = u64::from(5 * iters);
        CgRun {
            hist,
            launches: launches / total,
            reductions: reductions / total,
            modeled_ns: modeled / total as f64,
            wall_ns,
        }
    }

    #[derive(Clone, Copy)]
    enum ExprMode {
        Eager,
        Interpreted,
        Compiled,
    }

    /// The expression-engine chain (two maps + a sum), returning result
    /// bits (per-round sums plus the final vector), constructs per round
    /// and wall time per round.
    fn run_expr(ctx: &racc::Ctx, n: usize, iters: u32, mode: ExprMode) -> (Vec<u64>, usize, f64) {
        let x = ctx
            .array_from_fn(n, |i| 0.25 * ((i % 9) as f64) - 1.0)
            .expect("x");
        let y = ctx
            .array_from_fn(n, |i| 0.125 * ((i % 5) as f64) + 0.5)
            .expect("y");
        let z = ctx.zeros::<f64>(n).expect("z");
        let mut bits = Vec::with_capacity(iters as usize + n);
        let mut launches = 0usize;
        let mut round = |bits: &mut Vec<u64>| {
            let mut f = match mode {
                ExprMode::Eager => ctx.lazy().eager(),
                ExprMode::Interpreted => ctx.lazy().interpreted(),
                ExprMode::Compiled => ctx.lazy(),
            };
            let xn = f.assign(&x, load(&x) * 0.999 + 0.001 * load(&y));
            let zn = f.assign(&z, (xn - load(&y)).abs());
            bits.push(f.sum(zn * lit(2.0)).to_bits());
            launches = f.count_launches();
        };
        for _ in 0..(iters / 4).max(2) {
            round(&mut bits);
        }
        let mut wall_ns = f64::INFINITY;
        for _rep in 0..5 {
            let t0 = Instant::now();
            for _ in 0..iters {
                round(&mut bits);
            }
            wall_ns = wall_ns.min(t0.elapsed().as_nanos() as f64 / f64::from(iters));
        }
        let xs = ctx.to_host(&x).expect("readback");
        bits.extend(xs.iter().map(|v| v.to_bits()));
        (bits, launches, wall_ns)
    }

    let mut cg_table = Table::new(
        "Fusion — fig13 CG iteration, eager vs fused (constructs = for+reduce launches)",
        &[
            "backend",
            "constructs e→f",
            "device kernels e→f",
            "modeled e/f",
            "wall e/f (ns)",
            "speedup",
        ],
    );
    let mut expr_table = Table::new(
        "Fusion — expression chain (2 maps + sum), eager vs interpreted vs compiled",
        &[
            "backend",
            "constructs e→c",
            "wall e/i/c (ns)",
            "interp speedup",
            "compiled speedup",
        ],
    );
    let mut cg_entries = Vec::new();
    let mut expr_entries = Vec::new();

    for key in BACKENDS {
        let is_sim = matches!(key, "cudasim" | "hipsim" | "oneapisim");
        let build = |fused: bool| {
            let mut b = racc::builder().backend(key).fusion(fused);
            if key == "threads" {
                b = b.threads(THREADS_WORKERS);
            }
            b.build().expect("context")
        };
        let eager_ctx = build(false);
        let fused_ctx = build(true);

        let e = run_cg(&eager_ctx, n, iters);
        let f = run_cg(&fused_ctx, n, iters);
        assert_eq!(
            e.hist, f.hist,
            "fused CG residual history must be bit-identical to eager on {key}"
        );
        // On the simulated devices each reduction is a two-kernel tree plus
        // a readback; on the CPU backends a construct is one launch.
        let kernels = |r: &CgRun| {
            if is_sim {
                r.launches + 2 * r.reductions
            } else {
                r.launches + r.reductions
            }
        };
        let ops = |r: &CgRun| kernels(r) + if is_sim { r.reductions } else { 0 };
        let (ec, fc) = (e.launches + e.reductions, f.launches + f.reductions);
        let speedup = e.wall_ns / f.wall_ns;
        // The fused CG loop replays one compiled plan from the cache: a
        // steady stream of hits after the single compiling miss.
        let pc = fused_ctx.stats().plan_cache;
        assert!(
            pc.hit_rate() >= 0.9,
            "CG loop should run hot from the plan cache on {key}: {pc:?}"
        );
        cg_table.row(vec![
            key.to_string(),
            format!("{ec} -> {fc}"),
            format!("{} -> {}", kernels(&e), kernels(&f)),
            format!("{} / {}", fmt_ns(e.modeled_ns), fmt_ns(f.modeled_ns)),
            format!("{:.0} / {:.0}", e.wall_ns, f.wall_ns),
            format!("{speedup:.2}x"),
        ]);
        cg_entries.push(format!(
            "    {{\"backend\": \"{key}\", \"n\": {n}, \"iters\": {iters}, \
             \"eager_constructs_per_iter\": {ec}, \"fused_constructs_per_iter\": {fc}, \
             \"eager_device_kernels_per_iter\": {}, \"fused_device_kernels_per_iter\": {}, \
             \"eager_device_ops_per_iter\": {}, \"fused_device_ops_per_iter\": {}, \
             \"eager_modeled_ns_per_iter\": {:.1}, \"fused_modeled_ns_per_iter\": {:.1}, \
             \"eager_wall_ns_per_iter\": {:.1}, \"fused_wall_ns_per_iter\": {:.1}, \
             \"wall_speedup\": {speedup:.3}, \
             \"plan_cache_hits\": {}, \"plan_cache_misses\": {}, \
             \"plan_cache_hit_rate\": {:.3}, \"bit_identical\": true}}",
            kernels(&e),
            kernels(&f),
            ops(&e),
            ops(&f),
            e.modeled_ns,
            f.modeled_ns,
            e.wall_ns,
            f.wall_ns,
            pc.hits,
            pc.misses,
            pc.hit_rate(),
        ));

        let (ebits, elaunch, ewall) = run_expr(&eager_ctx, n, iters, ExprMode::Eager);
        let (ibits, ilaunch, iwall) = run_expr(&fused_ctx, n, iters, ExprMode::Interpreted);
        let (cbits, claunch, cwall) = run_expr(&fused_ctx, n, iters, ExprMode::Compiled);
        assert_eq!(
            ebits, ibits,
            "interpreted expression chain must be bit-identical to eager on {key}"
        );
        assert_eq!(
            ebits, cbits,
            "compiled expression chain must be bit-identical to eager on {key}"
        );
        assert_eq!(ilaunch, claunch, "both fused modes plan the same groups");
        let ispeed = ewall / iwall;
        let cspeed = ewall / cwall;
        expr_table.row(vec![
            key.to_string(),
            format!("{elaunch} -> {claunch}"),
            format!("{ewall:.0} / {iwall:.0} / {cwall:.0}"),
            format!("{ispeed:.2}x"),
            format!("{cspeed:.2}x"),
        ]);
        expr_entries.push(format!(
            "    {{\"backend\": \"{key}\", \"n\": {n}, \"iters\": {iters}, \
             \"eager_constructs\": {elaunch}, \"fused_constructs\": {claunch}, \
             \"eager_wall_ns\": {ewall:.1}, \"interpreted_wall_ns\": {iwall:.1}, \
             \"compiled_wall_ns\": {cwall:.1}, \"interpreted_speedup\": {ispeed:.3}, \
             \"wall_speedup\": {cspeed:.3}, \"bit_identical\": true}}"
        ));
    }

    cg_table.print();
    expr_table.print();

    let json = format!(
        "{{\n  \"bench\": \"fusion\",\n  \"quick\": {quick},\n  \"threads_workers\": {THREADS_WORKERS},\n  \"cg\": [\n{}\n  ],\n  \"expr\": [\n{}\n  ]\n}}\n",
        cg_entries.join(",\n"),
        expr_entries.join(",\n")
    );
    racc::trace::json::validate(&json).expect("bench JSON must be valid");
    std::fs::create_dir_all("results").expect("create results/");
    let path = "results/BENCH_fusion.json";
    std::fs::write(path, json).expect("write bench JSON");
    println!("\nfusion series written to {path}");
}

/// Work-stealing benchmark: the deque-based pool core against the
/// pre-deque dynamic-chunk core (re-created here: one `broadcast` per
/// construct, every participant claiming fixed chunks from one shared
/// atomic cursor) on three thread-pool workloads — a ragged power-law
/// CSR matvec (the load-balance stress case), a skewed triangular-cost
/// loop, and a uniform loop (the no-regression case). Results are
/// asserted bit-identical between cores before anything is reported.
/// Prints a table and writes `results/BENCH_steal.json` with wall
/// speedups and the pool's steal telemetry. `RACC_BENCH_QUICK=1`
/// shrinks sizes and iteration counts.
fn bench_steal() {
    use racc_cg::csr::Csr;
    use racc_threadpool::{Schedule, ThreadPool};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    let quick = std::env::var_os("RACC_BENCH_QUICK").is_some();
    // Fixed worker count, as in bench-fusion: on a small CI box the
    // default pool degenerates to one participant and measures nothing.
    const THREADS_WORKERS: usize = 4;
    let iters: u32 = if quick { 20 } else { 200 };
    let reps = if quick { 3 } else { 11 };

    let pool = ThreadPool::new(THREADS_WORKERS);
    let participants = pool.num_threads();

    /// The old core's dispatch: every participant spins on one shared
    /// cursor, claiming `chunk` iterations per atomic grab.
    fn counter_for(pool: &ThreadPool, n: usize, chunk: usize, f: &(impl Fn(usize) + Sync)) {
        let cursor = AtomicUsize::new(0);
        pool.broadcast(|_| loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + chunk).min(n);
            for i in start..end {
                f(i);
            }
        });
    }

    /// Minimum wall ns per construct for each of two launchers, measured in
    /// *interleaved* windows (a,b,a,b,…) so ambient load on a shared box
    /// lands on both sides instead of biasing whichever ran second.
    fn measure_pair(
        iters: u32,
        reps: usize,
        mut a: impl FnMut(),
        mut b: impl FnMut(),
    ) -> (f64, f64) {
        for _ in 0..(iters / 4).max(2) {
            a();
            b();
        }
        let window = |launch: &mut dyn FnMut()| {
            let t0 = Instant::now();
            for _ in 0..iters {
                launch();
            }
            t0.elapsed().as_nanos() as f64 / f64::from(iters)
        };
        let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps {
            best_a = best_a.min(window(&mut a));
            best_b = best_b.min(window(&mut b));
        }
        (best_a, best_b)
    }

    struct Workload {
        name: &'static str,
        n: usize,
        baseline_ns: f64,
        steal_ns: f64,
    }
    let mut rows: Vec<Workload> = Vec::new();
    let sched = Schedule::Dynamic { chunk: 0 };

    // 1. Ragged power-law CSR matvec: a static or fixed-chunk row split
    //    leaves the heavy rows on one participant.
    {
        // Sized so dispatch and load imbalance are a real fraction of the
        // construct (~tens of µs): at much larger n the matvec is
        // memory-bound compute on both cores and the scheduler can't show.
        let n = if quick { 1 << 10 } else { 1 << 9 };
        let max_nnz = if quick { 128 } else { 256 };
        let a = Csr::ragged_power_law(n, max_nnz, 42);
        let x: Vec<f64> = (0..n).map(|i| 0.25 * ((i % 9) as f64) - 1.0).collect();
        let chunk = sched.dynamic_chunk(n, participants);
        let y: Vec<std::sync::atomic::AtomicU64> = (0..n)
            .map(|_| std::sync::atomic::AtomicU64::new(0))
            .collect();
        let row = |r: usize| {
            let mut acc = 0.0;
            for idx in a.row_ptr[r]..a.row_ptr[r + 1] {
                acc += a.values[idx] * x[a.col_idx[idx]];
            }
            y[r].store(acc.to_bits(), Ordering::Relaxed);
        };
        let (baseline_ns, steal_ns) = measure_pair(
            iters,
            reps,
            || counter_for(&pool, n, chunk, &row),
            || pool.parallel_for(n, sched, row),
        );
        counter_for(&pool, n, chunk, &row);
        let y_base: Vec<u64> = y.iter().map(|v| v.load(Ordering::Relaxed)).collect();
        pool.parallel_for(n, sched, row);
        let y_steal: Vec<u64> = y.iter().map(|v| v.load(Ordering::Relaxed)).collect();
        assert_eq!(
            y_base, y_steal,
            "stealing core must produce bit-identical matvec results"
        );
        rows.push(Workload {
            name: "ragged-csr",
            n,
            baseline_ns,
            steal_ns,
        });
    }

    // 2. Skewed triangular cost (iteration i costs ~i) and 3. uniform
    //    cost — the scheduling ablation's shapes (EXPERIMENTS.md
    //    "Ablations"), measured core-vs-core.
    fn work(units: usize) -> f64 {
        let mut acc = 0.0f64;
        for i in 0..units {
            acc += (i as f64).sqrt();
        }
        acc
    }
    type CostFn = fn(usize) -> usize;
    let shapes: [(&'static str, CostFn); 2] = [("skewed", |i| i / 8), ("uniform", |_| 64)];
    for (name, unit_of) in shapes {
        let n = if quick { 1 << 10 } else { 1 << 11 };
        let chunk = sched.dynamic_chunk(n, participants);
        let out: Vec<std::sync::atomic::AtomicU64> = (0..n)
            .map(|_| std::sync::atomic::AtomicU64::new(0))
            .collect();
        let body = |i: usize| {
            out[i].store(work(unit_of(i)).to_bits(), Ordering::Relaxed);
        };
        let (baseline_ns, steal_ns) = measure_pair(
            iters,
            reps,
            || counter_for(&pool, n, chunk, &body),
            || pool.parallel_for(n, sched, body),
        );
        counter_for(&pool, n, chunk, &body);
        let base_bits: Vec<u64> = out.iter().map(|v| v.load(Ordering::Relaxed)).collect();
        pool.parallel_for(n, sched, body);
        let steal_bits: Vec<u64> = out.iter().map(|v| v.load(Ordering::Relaxed)).collect();
        assert_eq!(base_bits, steal_bits, "same loop, same bits ({name})");
        rows.push(Workload {
            name,
            n,
            baseline_ns,
            steal_ns,
        });
    }

    let stats = pool.steal_stats();
    let total = stats.total();
    let mut t = Table::new(
        "Work stealing — deque core vs dynamic-chunk core (threads, wall-clock)",
        &[
            "workload",
            "n",
            "chunk-core (ns)",
            "deque-core (ns)",
            "speedup",
        ],
    );
    let mut entries = Vec::new();
    for w in &rows {
        let speedup = w.baseline_ns / w.steal_ns;
        t.row(vec![
            w.name.to_string(),
            w.n.to_string(),
            format!("{:.0}", w.baseline_ns),
            format!("{:.0}", w.steal_ns),
            format!("{speedup:.2}x"),
        ]);
        entries.push(format!(
            "    {{\"workload\": \"{}\", \"backend\": \"threads\", \"n\": {}, \"iters\": {iters}, \
             \"baseline_wall_ns\": {:.1}, \"steal_wall_ns\": {:.1}, \
             \"wall_speedup\": {speedup:.3}, \"bit_identical\": true}}",
            w.name, w.n, w.baseline_ns, w.steal_ns
        ));
    }
    t.print();
    println!("{stats}");

    let json = format!(
        "{{\n  \"bench\": \"steal\",\n  \"quick\": {quick},\n  \"threads_workers\": {THREADS_WORKERS},\n  \
         \"telemetry\": {{\"executed\": {}, \"stolen\": {}, \"injected\": {}, \"splits\": {}, \
         \"wakes\": {}, \"parks\": {}}},\n  \"series\": [\n{}\n  ]\n}}\n",
        total.executed,
        total.stolen,
        total.injected,
        total.splits,
        total.wakes,
        total.parks,
        entries.join(",\n")
    );
    racc::trace::json::validate(&json).expect("bench JSON must be valid");
    std::fs::create_dir_all("results").expect("create results/");
    let path = "results/BENCH_steal.json";
    std::fs::write(path, json).expect("write bench JSON");
    println!("\nsteal series written to {path}");
}

/// Device-primitives benchmark: the particle-binning pipeline (histogram
/// of cell keys → exclusive scan to cell offsets → sort_by_key to bin the
/// particles → scan-compacted frontier of occupied cells) on every
/// compiled-in backend. Every stage's output is asserted **bit-identical**
/// to the serial reference before anything is reported — including the
/// `f32` payloads. Times are modeled nanoseconds on the simulated GPUs and
/// wall-clock on the CPU back ends. Prints a table and writes
/// `results/BENCH_prim.json`. `RACC_BENCH_QUICK=1` shrinks sizes.
fn bench_prim() {
    use racc::prim::PrimExt;
    use std::time::Instant;

    let quick = std::env::var_os("RACC_BENCH_QUICK").is_some();
    let sizes: &[usize] = if quick {
        &[1 << 10]
    } else {
        &[1 << 14, 1 << 17]
    };
    let reps = if quick { 2 } else { 5 };

    /// One particle-binning step, every stage on the device primitives.
    /// Returns the host bits of each stage so callers can compare
    /// backends exactly: (cell counts, cell offsets, binned keys, binned
    /// value bits, compacted occupied-cell frontier).
    #[allow(clippy::type_complexity)]
    fn particle_binning(
        ctx: &racc::Ctx,
        n: usize,
        cells: usize,
    ) -> (Vec<u64>, Vec<u64>, Vec<u32>, Vec<u32>, Vec<u64>) {
        // Pseudo-random cell per particle (a hashed position), plus an
        // f32 payload that must survive the binning bitwise.
        let keys = ctx
            .array_from_fn(n, move |i| {
                ((i as u32).wrapping_mul(2_654_435_761) >> 7) % cells as u32
            })
            .unwrap();
        let values = ctx
            .array_from_fn(n, |i| ((i * 37) % 1009) as f32 * 0.125 - 63.0)
            .unwrap();

        let counts = ctx.histogram(&keys, cells).expect("keys are in range");
        let offsets = ctx.exclusive_scan(&counts).unwrap();
        let (binned_keys, binned_values) = ctx.sort_by_key(&keys, &values).unwrap();

        // Scan-compacted frontier: occupied cells, densely packed in
        // ascending cell order via an exclusive scan of occupancy marks.
        let cv = counts.view();
        let marks = ctx
            .array_from_fn(cells, move |c| u64::from(cv.get(c) > 0))
            .unwrap();
        let pos = ctx.exclusive_scan(&marks).unwrap();
        let (mh, ph) = (ctx.to_host(&marks).unwrap(), ctx.to_host(&pos).unwrap());
        let active = (ph.last().copied().unwrap_or(0) + mh.last().copied().unwrap_or(0)) as usize;
        let frontier = ctx.zeros::<u64>(active).unwrap();
        let (mv, pv, fv) = (marks.view(), pos.view(), frontier.view_mut());
        ctx.parallel_for(cells, &racc::KernelProfile::unknown(), move |c| {
            if mv.get(c) == 1 {
                fv.set(pv.get(c) as usize, c as u64);
            }
        });

        (
            ctx.to_host(&counts).unwrap(),
            ctx.to_host(&offsets).unwrap(),
            ctx.to_host(&binned_keys).unwrap(),
            ctx.to_host(&binned_values)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect(),
            ctx.to_host(&frontier).unwrap(),
        )
    }

    let mut t = Table::new(
        "Device primitives — particle binning (histogram + scan + sort_by_key)",
        &["backend", "n", "cells", "modeled", "wall", "bit-identical"],
    );
    let mut entries = Vec::new();
    for &n in sizes {
        let cells = (n / 16).max(8);
        let reference = {
            let ctx = racc::context_for("serial").unwrap();
            particle_binning(&ctx, n, cells)
        };
        for key in racc::available_backends() {
            let ctx = racc::context_for(key).unwrap();
            ctx.reset_timeline();
            let out = particle_binning(&ctx, n, cells);
            let modeled = ctx.modeled_ns();
            let mut wall = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                let _ = particle_binning(&ctx, n, cells);
                wall = wall.min(t0.elapsed().as_nanos() as f64);
            }
            assert_eq!(
                out, reference,
                "{key}: particle binning must be bit-identical to the serial reference"
            );
            let accel = ctx.is_accelerator();
            t.row(vec![
                key.to_string(),
                n.to_string(),
                cells.to_string(),
                if accel {
                    fmt_ns(modeled as f64)
                } else {
                    "-".into()
                },
                fmt_ns(wall),
                "yes".into(),
            ]);
            // Simulated GPUs report the deterministic modeled time (drift-
            // gated by check_bench.py); CPU back ends report wall-clock
            // only, which is informational — too noisy on shared CI to
            // gate.
            let metric = if accel {
                format!("\"modeled_ns\": {modeled}")
            } else {
                format!("\"wall_ns\": {wall:.0}")
            };
            entries.push(format!(
                "    {{\"workload\": \"particle-binning\", \"backend\": \"{key}\", \
                 \"shape\": \"n{n}\", \"n\": {n}, \"cells\": {cells}, {metric}, \
                 \"bit_identical\": true}}"
            ));
        }
    }
    t.print();

    let json = format!(
        "{{\n  \"bench\": \"prim\",\n  \"quick\": {quick},\n  \"series\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    racc::trace::json::validate(&json).expect("bench JSON must be valid");
    std::fs::create_dir_all("results").expect("create results/");
    let path = "results/BENCH_prim.json";
    std::fs::write(path, json).expect("write bench JSON");
    println!("\nprim series written to {path}");
}

/// Multi-device sharding benchmark: 1→8 simulated-device scaling curves
/// for the sharded heat3d stencil, the sharded D2Q9 LBM, and the
/// pipelined distributed CG, with halo/interior overlap on vs off. Every
/// multi-device field is asserted bit-identical to the single-device run
/// before anything is reported. Times are **modeled makespans** (the max
/// per-shard clock; the comm substrate itself is unclocked — pack/unpack
/// kernels and staging transfers are the device-visible exchange cost).
/// Prints a table and writes `results/BENCH_shard.json`.
/// `RACC_BENCH_QUICK=1` shrinks problem sizes and the device sweep.
fn bench_shard() {
    use racc_cg::pipelined::PipelinedCg;
    use racc_lbm::sharded::ShardedLbm;
    use racc_shard::{run_sharded, ShardApp, ShardOptions, ShardOutcome};
    use racc_stencil::ShardedHeat3;
    use std::sync::Arc;

    let quick = std::env::var_os("RACC_BENCH_QUICK").is_some();
    let device_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };

    fn factory(_rank: usize) -> racc::Ctx {
        racc::builder()
            .backend("cudasim")
            .build()
            .expect("cudasim backend compiled in")
    }

    fn drive<A>(app: Arc<A>, devices: usize, overlap: bool) -> ShardOutcome
    where
        A: ShardApp<racc::AnyBackend>,
    {
        run_sharded(
            app,
            ShardOptions::devices(devices)
                .overlap(overlap)
                .checkpoint_every(0),
            factory,
        )
    }

    // Interior-dominated sizes: large enough that the per-step interior
    // launch outweighs the fixed pack/unpack launch + staging-transfer
    // cost of the exchange (at toy sizes every curve is halo-bound).
    let heat = Arc::new(if quick {
        ShardedHeat3 { n: 32, sweeps: 4 }
    } else {
        ShardedHeat3 { n: 160, sweeps: 8 }
    });
    let lbm = Arc::new(if quick {
        ShardedLbm {
            s: 64,
            tau: 0.8,
            steps: 3,
        }
    } else {
        ShardedLbm {
            s: 512,
            tau: 0.8,
            steps: 6,
        }
    });
    let cg = Arc::new(if quick {
        PipelinedCg {
            tiles: 16,
            tile: 64,
            steps: 10,
        }
    } else {
        PipelinedCg {
            tiles: 64,
            tile: 4096,
            steps: 20,
        }
    });

    struct Row {
        workload: &'static str,
        devices: usize,
        overlap: bool,
        makespan_ns: u64,
        speedup: f64,
        overlap_gain: Option<f64>,
        halo_exchanges: u64,
    }
    let mut all_rows: Vec<Row> = Vec::new();

    type Runner = Box<dyn Fn(usize, bool) -> ShardOutcome>;
    let workloads: Vec<(&'static str, Runner)> = vec![
        (
            "heat3d",
            Box::new(move |d, ov| drive(Arc::clone(&heat), d, ov)),
        ),
        ("lbm", Box::new(move |d, ov| drive(Arc::clone(&lbm), d, ov))),
        ("cg", Box::new(move |d, ov| drive(Arc::clone(&cg), d, ov))),
    ];

    for (name, run) in &workloads {
        let base = run(1, true);
        let base_ns = base.makespan_ns();
        for &d in device_counts {
            let on = run(d, true);
            assert_eq!(
                on.field, base.field,
                "{name} on {d} devices must be bit-identical to one device"
            );
            let exchanges: u64 = on
                .reports
                .iter()
                .flatten()
                .map(|r| r.stats.halo_exchanges)
                .sum();
            let overlap_gain = (d > 1).then(|| {
                let off = run(d, false);
                assert_eq!(
                    off.field, base.field,
                    "{name} without overlap must still be bit-identical"
                );
                all_rows.push(Row {
                    workload: name,
                    devices: d,
                    overlap: false,
                    makespan_ns: off.makespan_ns(),
                    speedup: base_ns as f64 / off.makespan_ns() as f64,
                    overlap_gain: None,
                    halo_exchanges: exchanges,
                });
                off.makespan_ns() as f64 / on.makespan_ns() as f64
            });
            all_rows.push(Row {
                workload: name,
                devices: d,
                overlap: true,
                makespan_ns: on.makespan_ns(),
                speedup: base_ns as f64 / on.makespan_ns() as f64,
                overlap_gain,
                halo_exchanges: exchanges,
            });
        }
    }

    let mut t = Table::new(
        "Sharded multi-device scaling — modeled makespan on simulated A100s",
        &[
            "workload",
            "devices",
            "overlap",
            "makespan",
            "speedup",
            "overlap-gain",
            "halo-ex",
        ],
    );
    let mut entries = Vec::new();
    for r in &all_rows {
        t.row(vec![
            r.workload.to_string(),
            r.devices.to_string(),
            if r.overlap { "on" } else { "off" }.to_string(),
            fmt_ns(r.makespan_ns as f64),
            format!("{:.2}x", r.speedup),
            r.overlap_gain
                .map_or_else(|| "-".to_string(), |g| format!("{g:.2}x")),
            r.halo_exchanges.to_string(),
        ]);
        let gain = r
            .overlap_gain
            .map_or_else(|| "null".to_string(), |g| format!("{g:.3}"));
        entries.push(format!(
            "    {{\"workload\": \"{}\", \"backend\": \"cudasim\", \"shape\": \"d{}-overlap-{}\", \
             \"devices\": {}, \"overlap\": {}, \"makespan_ns\": {}, \
             \"modeled_speedup\": {:.3}, \"overlap_gain\": {gain}, \
             \"halo_exchanges\": {}, \"bit_identical\": true}}",
            r.workload,
            r.devices,
            if r.overlap { "on" } else { "off" },
            r.devices,
            r.overlap,
            r.makespan_ns,
            r.speedup,
            r.halo_exchanges,
        ));
    }
    t.print();

    let json = format!(
        "{{\n  \"bench\": \"shard\",\n  \"quick\": {quick},\n  \"series\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    racc::trace::json::validate(&json).expect("bench JSON must be valid");
    std::fs::create_dir_all("results").expect("create results/");
    let path = "results/BENCH_shard.json";
    std::fs::write(path, json).expect("write bench JSON");
    println!("\nshard scaling series written to {path}");
}

/// Serving-layer benchmark: a deterministic open-loop synthetic load —
/// three tenants with fixed weights, arrival rates, and job mixes — driven
/// through a `racc_serve::Server` over 1/2/4 simulated devices. The
/// server's hold/release valve stages the whole schedule and replays it in
/// pure modeled-time order, so admission, fairness, batching, and the
/// reported makespan are a function of the load alone (identical across
/// runs and under the CI's `RACC_CHAOS` soak). Every completed job's value
/// is asserted bit-identical to running the same job alone on a fresh
/// context before anything is reported. Prints a table and writes
/// `results/BENCH_serve.json` (modeled throughput, p50/p99 latency,
/// admission and batching counters). `RACC_BENCH_QUICK=1` shrinks the
/// load; `RACC_SERVE_LOAD=<k>` scales the job counts.
fn bench_serve() {
    use racc_backend_common::{cuda_backend, SimBackend};
    use racc_core::{Backend, Context, RaccError, RetryPolicy};
    use racc_fuse::{lit, load, LazyExt};
    use racc_serve::{job_fn, JobCtx, Server, ServerOptions, TenantConfig};

    let quick = std::env::var_os("RACC_BENCH_QUICK").is_some();
    let chaos = std::env::var_os("RACC_CHAOS").is_some();
    let scale: u64 = std::env::var("RACC_SERVE_LOAD")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1);
    let device_counts: [usize; 3] = [1, 2, 4];

    let (n_small, n_large) = if quick {
        (1 << 12, 1 << 14)
    } else {
        (1 << 14, 1 << 16)
    };

    /// The canonical served job: fresh arrays and a fused CG-like update,
    /// so every execution is independent and the serve-layer value must
    /// be bit-identical to a solo fresh context.
    fn cg_value<B: Backend>(
        ctx: &Context<B>,
        marks: Option<&JobCtx<'_, B>>,
        n: usize,
        alpha: f64,
    ) -> Result<f64, RaccError> {
        let mk = |k: usize| ctx.array_from_fn(n, move |i| ((i * k) % 13) as f64 * 0.5 - 3.0);
        let (x, p, r, s) = (mk(3)?, mk(5)?, mk(7)?, mk(11)?);
        if let Some(job) = marks {
            job.uploaded();
        }
        let mut l = ctx.lazy();
        l.store(&x, load(&x) + lit(alpha) * load(&p));
        let rv = l.assign(&r, load(&r) + lit(-alpha) * load(&s));
        let v = l.sum(rv.clone() * rv);
        if let Some(job) = marks {
            job.computed();
        }
        let _ = ctx.to_host(&x)?;
        Ok(v)
    }

    // The tenant mix: an interactive tenant (heavy weight, small jobs, the
    // fastest arrival rate), a batch tenant (unit weight, 4x the work per
    // job), and a best-effort tenant whose jobs share the interactive
    // shape — the cross-tenant batching case. (tenant, weight, n, alpha,
    // shape, jobs, inter-arrival ns).
    type Mix = (
        &'static str,
        u32,
        usize,
        f64,
        Option<&'static str>,
        u64,
        u64,
    );
    let mix: [Mix; 3] = [
        (
            "interactive",
            4,
            n_small,
            0.8125,
            Some("cg-small"),
            scale * if quick { 16 } else { 48 },
            20_000,
        ),
        (
            "batch",
            1,
            n_large,
            0.5,
            None,
            scale * if quick { 8 } else { 24 },
            50_000,
        ),
        (
            "best-effort",
            1,
            n_small,
            0.25,
            Some("cg-small"),
            scale * if quick { 8 } else { 24 },
            40_000,
        ),
    ];
    let total_jobs: u64 = mix.iter().map(|m| m.5).sum();

    // Solo references, one fresh context per distinct job kind.
    let reference: Vec<u64> = mix
        .iter()
        .map(|&(_, _, n, alpha, _, _, _)| {
            let ctx = Context::new(cuda_backend());
            cg_value(&ctx, None, n, alpha)
                .expect("solo reference")
                .to_bits()
        })
        .collect();

    struct Row {
        devices: usize,
        makespan_ns: u64,
        throughput: f64,
        speedup: f64,
        p50_ns: u64,
        p99_ns: u64,
        admitted: u64,
        completed: u64,
        rejected: u64,
        batched_jobs: u64,
        retried: u64,
        fallbacks: u64,
    }
    let mut rows: Vec<Row> = Vec::new();
    let mut base_makespan = 0u64;

    for &devices in &device_counts {
        let mut options = ServerOptions::default()
            .devices(devices)
            .batch_limit(8)
            .overlap(true)
            .fallback(true)
            .retry(RetryPolicy {
                max_attempts: 3,
                base_backoff_ns: 1_000,
                multiplier: 2,
            })
            .hold(true);
        for &(tenant, weight, ..) in &mix {
            options = options.tenant(
                tenant,
                TenantConfig {
                    weight,
                    ..TenantConfig::default()
                },
            );
        }
        let server = Server::start(options, |_device| Context::new(cuda_backend()));

        let mut handles = Vec::new();
        for (kind, &(tenant, _, n, alpha, shape, jobs, rate_ns)) in mix.iter().enumerate() {
            for i in 0..jobs {
                let mut job = job_fn(move |job: &JobCtx<SimBackend>| {
                    cg_value(job.ctx(), Some(job), n, alpha)
                });
                if let Some(s) = shape {
                    job = job.with_shape(s);
                }
                handles.push((kind, server.submit_at(tenant, i * rate_ns, job)));
            }
        }
        server.release();

        let mut latencies: Vec<u64> = Vec::new();
        let mut violations = 0u64;
        for (kind, handle) in handles {
            match handle.wait() {
                Ok(done) => {
                    if done.output.to_bits() != reference[kind] {
                        violations += 1;
                    }
                    latencies.push(done.report.latency_ns());
                }
                // Typed admission sheds are load policy, not violations —
                // but this load fits every queue, so any error is a bug.
                Err(err) => {
                    eprintln!("job failed on {devices} device(s): {err}");
                    violations += 1;
                }
            }
        }
        assert_eq!(
            violations, 0,
            "every served job must complete bit-identical to a solo context"
        );
        latencies.sort_unstable();
        let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
        let (p50_ns, p99_ns) = (pct(0.5), pct(0.99));

        let snap = server.shutdown();
        assert_eq!(snap.totals.admitted, total_jobs);
        assert_eq!(snap.totals.completed, total_jobs);
        if devices == 1 {
            base_makespan = snap.makespan_ns;
        }
        rows.push(Row {
            devices,
            makespan_ns: snap.makespan_ns,
            throughput: snap.totals.completed as f64 / (snap.makespan_ns as f64 / 1e9),
            speedup: base_makespan as f64 / snap.makespan_ns as f64,
            p50_ns,
            p99_ns,
            admitted: snap.totals.admitted,
            completed: snap.totals.completed,
            rejected: snap.totals.rejected,
            batched_jobs: snap.totals.batched_jobs,
            retried: snap.totals.retried,
            fallbacks: snap.totals.fallbacks,
        });
    }

    let mut t = Table::new(
        "Serving — open-loop tenant mix on 1/2/4 simulated A100s (modeled)",
        &[
            "devices", "makespan", "jobs/s", "speedup", "p50", "p99", "batched", "retried",
        ],
    );
    let mut entries = Vec::new();
    for r in &rows {
        t.row(vec![
            r.devices.to_string(),
            fmt_ns(r.makespan_ns as f64),
            format!("{:.0}", r.throughput),
            format!("{:.2}x", r.speedup),
            fmt_ns(r.p50_ns as f64),
            fmt_ns(r.p99_ns as f64),
            r.batched_jobs.to_string(),
            r.retried.to_string(),
        ]);
        entries.push(format!(
            "    {{\"workload\": \"serve-mix\", \"backend\": \"cudasim\", \"shape\": \"d{}\", \
             \"devices\": {}, \"jobs\": {total_jobs}, \"makespan_ns\": {}, \
             \"throughput_jobs_per_s\": {:.1}, \"modeled_speedup\": {:.3}, \
             \"p50_ns\": {}, \"p99_ns\": {}, \"admitted\": {}, \"completed\": {}, \
             \"rejected\": {}, \"batched_jobs\": {}, \"retried\": {}, \"fallbacks\": {}, \
             \"dropped_violations\": 0, \"bit_identical\": true}}",
            r.devices,
            r.devices,
            r.makespan_ns,
            r.throughput,
            r.speedup,
            r.p50_ns,
            r.p99_ns,
            r.admitted,
            r.completed,
            r.rejected,
            r.batched_jobs,
            r.retried,
            r.fallbacks,
        ));
    }
    t.print();

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"quick\": {quick},\n  \"chaos\": {chaos},\n  \"series\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    racc::trace::json::validate(&json).expect("bench JSON must be valid");
    std::fs::create_dir_all("results").expect("create results/");
    let path = "results/BENCH_serve.json";
    std::fs::write(path, json).expect("write bench JSON");
    println!("\nserve series written to {path}");
}

/// Ablation: native 2D tiled launch vs flattened 1D launch for the LBM
/// step (same work, different launch geometry and block shape).
fn ablate_lbm_launch() {
    use racc_lbm::portable::LbmSim;
    let mut t = Table::new(
        "Ablation — LBM step: native 2D (16x16 tiles) vs flattened 1D launch, modeled",
        &["arch", "size", "2d-launch", "1d-flat", "flat/2d"],
    );
    for arch in [Arch::Mi100, Arch::A100, Arch::Max1550] {
        for s in [64usize, 256] {
            let ctx = arch.context();
            let mut sim = LbmSim::uniform(&ctx, s, 0.8, 1.0, 0.02, 0.0).expect("setup");
            ctx.reset_timeline();
            sim.step();
            let t2d = ctx.modeled_ns() as f64;
            ctx.reset_timeline();
            sim.step_flat();
            let t1d = ctx.modeled_ns() as f64;
            t.row(vec![
                arch.label().to_string(),
                s.to_string(),
                fmt_ns(t2d),
                fmt_ns(t1d),
                format!("{:.2}", t1d / t2d),
            ]);
        }
    }
    t.print();
}
