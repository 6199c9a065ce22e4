//! Regenerate every figure/table of the paper's evaluation (JACC, SC'24).
//!
//! ```text
//! cargo run --release -p racc-bench --bin figures -- all
//! cargo run --release -p racc-bench --bin figures -- fig8 [--full]
//! ```
//!
//! Commands: `fig8`, `fig9`, `fig11`, `fig13`, `speedups`, `overhead`,
//! `ablate-coalescing`, `ablate-reduce`, `ablate-lbm-launch`, `all`.
//! `--full` uses the paper's larger problem sizes (slower; needs several GB
//! of RAM). The output of `all` at default sizes is `results/figures.txt`,
//! byte for byte.
//!
//! `trace <experiment>` decomposes one experiment launch-by-launch on all
//! four architectures: per-kernel roofline summaries on stdout, and a
//! combined chrome://tracing JSON written to `results/trace_<experiment>.json`
//! (wall-clock timestamps, so a new file each run; gitignored, not
//! tracked). `sancheck <experiment>`
//! runs it under the simulator's sanitizer and prints each report.
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
                "unknown command {other:?}; expected fig8|fig9|fig11|fig13|speedups|overhead|ablate-coalescing|ablate-reduce|ablate-lbm-launch|trace|sancheck|all"
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
            .expect("known backend key");
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
            .expect("known backend key");
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
