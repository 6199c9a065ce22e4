//! The `layer_probes` pass: each layer measured from outside, by timing
//! calls into its public functions or reading its public counters. One
//! child process per group, so a crash in one layer's probe costs that
//! group only. Groups marked *pinned* run confined to one hardware thread:
//! they feed `sim1t_wall_s` (measured the same way) or report exact
//! modeled figures, which do not depend on host threads.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use racc::prelude::*;
use racc_blas::{portable as pblas, vendor as vblas};
use racc_cg::solver::CgWorkspace;
use racc_cg::tridiag::DeviceTridiag;
use racc_cg::vendor as vcg;
use racc_cudasim::Cuda;
use racc_gpusim::{Device, KernelCost, LaunchConfig, PhasedKernel, SharedMem, ThreadCtx};
use racc_lbm::portable::LbmSim;
use racc_lbm::vendor as vlbm;
use racc_threadpool::{Schedule, ThreadPool};

use crate::cell::{emit, make_ctx, nproc};
use crate::json::Value;
use crate::stats::median;
use crate::workloads::{binning, cg_latency, kernels_large, serve_mix, shard_heat3d};

/// One probe group: its name, whether its child is pinned to one hardware
/// thread, and whether it launches on a multi-thread pool (such a group is
/// best effort while the pool's join races; any other must succeed).
pub struct Group {
    pub name: &'static str,
    pub pinned: bool,
    pub uses_pool: bool,
}

const fn group(name: &'static str, pinned: bool, uses_pool: bool) -> Group {
    Group {
        name,
        pinned,
        uses_pool,
    }
}

/// In run order.
pub const GROUPS: [Group; 10] = [
    group("core", false, false),
    group("fuse", false, false),
    group("comm", false, false),
    group("gpusim", true, false),
    group("prim", true, false),
    group("shard", true, false),
    group("serve", true, false),
    group("native", true, false),
    group("threadpool", false, true),
    group("prim_threads", false, true),
];

/// RACC over hand-written `ThreadPool` code on the wall clock: only the two
/// workloads that have such code.
pub const NATIVE_WALL: Group = group("native_wall", false, true);

type Out = Vec<(&'static str, f64)>;

/// Median nanoseconds per call of `f`, over `batches` timed batches of
/// `per_batch` calls (after one untimed batch).
fn ns_per_call(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..per_batch {
        f();
    }
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&samples).unwrap_or(f64::NAN)
}

fn serial_ctx() -> racc::Ctx {
    make_ctx("serial", false)
}

/// Front-end dispatch, the enum facade, the serial executor, set-up costs,
/// the `backend-common` wrapper and `racc-trace`'s price.
fn core() -> Out {
    let mut out = Out::new();
    let profile = KernelProfile::unknown();
    // The generic front end over the concrete serial backend...
    let direct = Context::new(SerialBackend::new());
    let dispatch = ns_per_call(9, 20_000, || {
        direct.parallel_for(1, &profile, |i| {
            black_box(i);
        })
    });
    let reduce = ns_per_call(9, 20_000, || {
        black_box(direct.parallel_reduce(1, &profile, |i| i as f64));
    });
    // ...and the same call through the runtime-selected `racc::Ctx`.
    let any = serial_ctx();
    let via_enum = ns_per_call(9, 20_000, || {
        any.parallel_for(1, &profile, |i| {
            black_box(i);
        })
    });
    out.push(("core.dispatch_ns", dispatch));
    out.push(("core.reduce_dispatch_ns", reduce));
    out.push(("racc.anybackend_extra_ns", via_enum - dispatch));

    let n = kernels_large::N_1D;
    let x = any.array_from_fn(n, |i| i as f64 * 1e-7).expect("alloc");
    let y = any
        .array_from_fn(n, |i| 1.0 - i as f64 * 1e-7)
        .expect("alloc");
    let axpy = ns_per_call(7, 1, || pblas::axpy(&any, 1e-9, &x, &y));
    out.push(("core.serial_axpy_ns_per_elem", axpy / n as f64));

    out.push((
        "core.ctx_build_ns",
        ns_per_call(9, 200, || drop(black_box(serial_ctx()))),
    ));
    let host = vec![1.0f64; n];
    let upload = ns_per_call(5, 1, || {
        drop(black_box(any.array_from(&host).expect("alloc")))
    });
    out.push(("core.array_from_ns_per_byte", upload / (8 * n) as f64));

    // racc-trace on vs off: the serial CG solve of `cg_latency`, spans
    // recorded per construct. (The issue asks for the `threads` cell; it
    // has no verified sample at this commit.)
    let (host_a, host_b) = cg_latency::system(1);
    let solve_wall = |trace: bool| {
        let ctx = racc::builder()
            .backend("serial")
            .trace(trace)
            .trace_capacity(1 << 16)
            .build()
            .expect("serial");
        let a = DeviceTridiag::upload(&ctx, &host_a).expect("upload");
        let b = ctx.array_from(&host_b).expect("upload");
        let walls: Vec<f64> = (0..7)
            .map(|_| cg_latency::solve(&ctx, &a, &b).expect("solve").wall_s)
            .collect();
        let (rec, dropped) = ctx.tracer().map_or((0, 0), |r| (r.recorded(), r.dropped()));
        (
            median(&walls).unwrap_or(f64::NAN),
            rec as f64,
            dropped as f64,
        )
    };
    let (off, _, _) = solve_wall(false);
    let (on, recorded, dropped) = solve_wall(true);
    out.push(("trace.on_over_off_wall", on / off));
    out.push(("trace.spans_recorded", recorded));
    out.push(("trace.spans_dropped", dropped));
    out
}

/// The plan cache: a warm hit, a cold miss.
fn fuse() -> Out {
    let chain =
        |ctx: &racc::Ctx, x: &Array1<f64>, p: &Array1<f64>, r: &Array1<f64>, s: &Array1<f64>| {
            let mut l = ctx.lazy();
            l.store(x, load(x) + lit(0.5) * load(p));
            let rv = l.assign(r, load(r) + lit(-0.5) * load(s));
            black_box(l.sum(rv.clone() * rv));
        };
    let arrays = |ctx: &racc::Ctx| -> Vec<Array1<f64>> {
        (0..4)
            .map(|k| ctx.array_from(&[k as f64 + 1.0]).expect("alloc"))
            .collect()
    };
    let ctx = make_ctx("serial", true);
    let a = arrays(&ctx);
    let hit = ns_per_call(9, 5_000, || chain(&ctx, &a[0], &a[1], &a[2], &a[3]));
    // A miss needs a cache that has never seen the shape: a new context.
    let misses: Vec<f64> = (0..40)
        .map(|_| {
            let ctx = make_ctx("serial", true);
            let a = arrays(&ctx);
            let t = Instant::now();
            chain(&ctx, &a[0], &a[1], &a[2], &a[3]);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    // The plan cache over one `cg_latency` solve from cold: every distinct
    // chain shape misses once, every later evaluation hits (exact).
    let cold = make_ctx("serial", true);
    let (host_a, host_b) = cg_latency::system(1);
    let a = DeviceTridiag::upload(&cold, &host_a).expect("upload");
    let b = cold.array_from(&host_b).expect("upload");
    cg_latency::solve(&cold, &a, &b).expect("solve");
    let cache = cold.stats().plan_cache;
    vec![
        ("fuse.hit_eval_ns", hit),
        (
            "fuse.miss_compile_ns",
            median(&misses).unwrap_or(f64::NAN) - hit,
        ),
        ("fuse.hit_rate", cache.hit_rate()),
    ]
}

/// The pool itself, called directly. Every launch is issued from this one
/// frame, which is why this group usually survives the join race that
/// kills the `threads` cells (README "Seed state").
fn threadpool() -> Out {
    let pool = ThreadPool::new(nproc());
    let workers = pool.num_threads();
    let empty = ns_per_call(9, 5_000, || {
        pool.parallel_for(workers, Schedule::Static, |i| {
            black_box(i);
        })
    });
    let reduce = ns_per_call(9, 5_000, || {
        black_box(pool.parallel_reduce(
            workers,
            Schedule::Static,
            0.0f64,
            |i| i as f64,
            |a, b| a + b,
        ));
    });
    let n = kernels_large::N_1D;
    let mut x = vec![1.0f64; n];
    let y = vec![2.0f64; n];
    let axpy = ns_per_call(7, 1, || {
        pool.parallel_for_slices(&mut x, |offset, block| {
            for (i, xi) in block.iter_mut().enumerate() {
                *xi += 1e-9 * y[offset + i];
            }
        })
    });
    vec![
        ("threadpool.empty_launch_ns", empty),
        ("threadpool.reduce_launch_ns", reduce),
        ("threadpool.axpy_ns_per_elem", axpy / n as f64),
    ]
}

/// A block tree-reduction with a known phase count, for the cooperative
/// executor's cost per simulated thread and phase.
struct BlockSum {
    x: racc_gpusim::DeviceSlice<f64>,
    out: racc_gpusim::DeviceSliceMut<f64>,
}

const COOP_BLOCK: usize = 256;

impl PhasedKernel for BlockSum {
    type State = ();

    fn num_phases(&self) -> usize {
        2 + COOP_BLOCK.trailing_zeros() as usize
    }

    fn phase(&self, phase: usize, ctx: &ThreadCtx, _state: &mut (), shared: &SharedMem) {
        let t = ctx.thread_linear();
        let steps = COOP_BLOCK.trailing_zeros() as usize;
        if phase == 0 {
            shared.set::<f64>(t, self.x.get(ctx.global_id_x()));
        } else if phase <= steps {
            let stride = COOP_BLOCK >> phase;
            if t < stride {
                shared.set::<f64>(t, shared.get::<f64>(t) + shared.get::<f64>(t + stride));
            }
        } else if t == 0 {
            self.out.set(ctx.block_linear(), shared.get::<f64>(0));
        }
    }
}

/// The simulator, called directly (pinned), plus the `backend-common`
/// wrapper measured against it.
fn gpusim() -> Out {
    let mut out = Out::new();
    let device = Arc::new(Device::new(racc_gpusim::profiles::nvidia_a100()));
    let ctx = racc::builder()
        .backend("cudasim")
        .device(Arc::clone(&device))
        .build()
        .expect("cudasim");
    let n = 1024 * 32;
    // First, while the device's bounded op log is still short: how many
    // device operations one `parallel_reduce` becomes.
    let x = ctx.array_from(&vec![1.0f64; n]).expect("alloc");
    let ops_before = device.op_log().len();
    let xv = x.view();
    black_box(ctx.parallel_reduce(n, &KernelProfile::dot(), move |i| xv.get(i)));
    out.push((
        "backend-common.device_ops_per_reduce",
        (device.op_log().len() - ops_before) as f64,
    ));

    let free = KernelCost::memory_bound(0.0, 0.0);
    let cfg = LaunchConfig::new(1024u32, 32u32);
    // The same empty kernel straight on the device and through
    // `ctx.parallel_for` on a context over that device, in alternating
    // batches: the difference is retry + trace gate + cost model, and
    // alternating keeps a clock-state flip out of it.
    let (mut direct, mut wrapped) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        direct.push(ns_per_call(1, 50, || {
            device
                .launch(cfg, free, |t| {
                    black_box(t.thread_idx.0);
                })
                .expect("launch");
        }));
        wrapped.push(ns_per_call(1, 50, || {
            ctx.parallel_for(n, &KernelProfile::unknown(), |i| {
                black_box(i);
            })
        }));
    }
    let diffs: Vec<f64> = wrapped.iter().zip(&direct).map(|(w, d)| w - d).collect();
    out.push((
        "gpusim.empty_launch_ns",
        median(&direct).unwrap_or(f64::NAN),
    ));
    out.push((
        "backend-common.wrapper_ns",
        median(&diffs).unwrap_or(f64::NAN),
    ));

    let cuda = Cuda::new();
    let m = 1 << 20;
    let (dx, dy) = (
        cuda.cu_array(&vec![1.0f64; m]).expect("alloc"),
        cuda.cu_array(&vec![2.0f64; m]).expect("alloc"),
    );
    let noncoop = ns_per_call(5, 1, || {
        black_box(vblas::cuda::axpy(&cuda, 1e-9, &dx, &dy));
    });
    out.push(("gpusim.noncoop_ns_per_sim_thread", noncoop / m as f64));

    let dev = cuda.device();
    let partial = dev.alloc::<f64>(m / COOP_BLOCK).expect("alloc");
    let kernel = BlockSum {
        // `dy` is untouched by the AXPY above: every element is 2.
        x: dev.slice(&dy).expect("slice"),
        out: dev.slice_mut(&partial).expect("slice"),
    };
    let coop_cfg = LaunchConfig::new((m / COOP_BLOCK) as u32, COOP_BLOCK as u32)
        .with_shared_mem(COOP_BLOCK * 8);
    let coop = ns_per_call(5, 1, || {
        dev.launch_phased(coop_cfg, free, &kernel).expect("launch");
    });
    out.push((
        "gpusim.coop_ns_per_sim_thread_phase",
        coop / (m * kernel.num_phases()) as f64,
    ));
    let sums = dev.read_vec(&partial).expect("read");
    assert!(
        sums.iter().all(|s| *s == 2.0 * COOP_BLOCK as f64),
        "block sums are wrong"
    );

    out.push((
        "gpusim.alloc_ns",
        ns_per_call(9, 500, || {
            drop(black_box(dev.alloc::<f64>(4096).expect("alloc")))
        }),
    ));
    let host = vec![1.0f64; kernels_large::N_1D];
    let big = dev.alloc::<f64>(host.len()).expect("alloc");
    let h2d = ns_per_call(5, 1, || dev.upload(&big, &host).expect("upload"));
    out.push(("gpusim.h2d_ns_per_byte", h2d / (8 * host.len()) as f64));
    out
}

fn prim_on(backend: &str, suffix: [&'static str; 3]) -> Out {
    let ctx = make_ctx(backend, false);
    let (hk, hv) = binning::particles(1);
    let (keys, values) = (
        ctx.array_from(&hk).expect("alloc"),
        ctx.array_from(&hv).expect("alloc"),
    );
    let counts = ctx.histogram(&keys, binning::CELLS).expect("histogram");
    let wide = ctx
        .array_from(&hk.iter().map(|k| u64::from(*k)).collect::<Vec<_>>())
        .expect("alloc");
    let n = binning::PARTICLES as f64;
    // A simulated sort takes most of a second: one timed call there.
    let reps = if backend == "cudasim" { 1 } else { 9 };
    let scan = ns_per_call(reps, 1, || {
        drop(black_box(ctx.exclusive_scan(&wide).expect("scan")))
    });
    let hist = ns_per_call(reps, 1, || {
        drop(black_box(
            ctx.histogram(&keys, binning::CELLS).expect("histogram"),
        ))
    });
    let sort = ns_per_call(reps, 1, || {
        drop(black_box(ctx.sort_by_key(&keys, &values).expect("sort")))
    });
    black_box(counts);
    vec![
        (suffix[0], scan / n),
        (suffix[1], hist / n),
        (suffix[2], sort / n),
    ]
}

/// The primitives on `serial` and on the pinned simulator.
fn prim() -> Out {
    let mut out = prim_on(
        "serial",
        [
            "prim.scan_ns_per_elem_serial",
            "prim.hist_ns_per_elem_serial",
            "prim.sort_ns_per_elem_serial",
        ],
    );
    out.extend(prim_on(
        "cudasim",
        [
            "prim.scan_ns_per_elem_cudasim",
            "prim.hist_ns_per_elem_cudasim",
            "prim.sort_ns_per_elem_cudasim",
        ],
    ));
    out
}

/// The primitives on `threads` (unpinned; best effort at this commit).
fn prim_threads() -> Out {
    prim_on(
        "threads",
        [
            "prim.scan_ns_per_elem_threads",
            "prim.hist_ns_per_elem_threads",
            "prim.sort_ns_per_elem_threads",
        ],
    )
}

/// Two ranks, channels only: an allreduce, and a ping-pong of one halo
/// plane of the sharded heat cube.
fn comm() -> Out {
    const ROUNDS: usize = 2_000;
    let plane = shard_heat3d::EDGE * shard_heat3d::EDGE;
    let results = racc_comm::World::run(2, move |rank| {
        let peer = 1 - rank.rank();
        rank.barrier();
        let t = Instant::now();
        for _ in 0..ROUNDS {
            black_box(rank.allreduce_sum(1.0f64).expect("allreduce"));
        }
        let allreduce = t.elapsed().as_nanos() as f64 / ROUNDS as f64;
        rank.barrier();
        let mut buf = vec![1.0f64; plane];
        let t = Instant::now();
        for _ in 0..ROUNDS {
            if rank.rank() == 0 {
                rank.send(peer, buf).expect("send");
                buf = rank.recv(peer).expect("recv");
            } else {
                buf = rank.recv(peer).expect("recv");
                rank.send(peer, buf).expect("send");
                buf = vec![1.0f64; plane];
            }
        }
        let pingpong = t.elapsed().as_nanos() as f64 / (2 * ROUNDS) as f64;
        (allreduce, pingpong / (8 * plane) as f64)
    });
    vec![
        ("comm.allreduce_ns_2r", results[0].0),
        ("comm.sendrecv_ns_per_byte", results[0].1),
    ]
}

/// The shard runner on the pinned simulator: wall overhead of a sharded
/// step, and the exact modeled scaling figures.
fn shard() -> Out {
    let steps = shard_heat3d::SWEEPS as f64;
    let ctx = make_ctx("cudasim", false);
    let wall_of = |f: &mut dyn FnMut()| {
        f();
        let walls: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&walls).unwrap_or(f64::NAN)
    };
    let unsharded =
        wall_of(&mut || drop(black_box(shard_heat3d::unsharded(&ctx).expect("unsharded"))));
    let d1_wall = wall_of(&mut || drop(black_box(shard_heat3d::sharded("cudasim", 1, true))));
    let d2_wall = wall_of(&mut || drop(black_box(shard_heat3d::sharded("cudasim", 2, true))));
    let d1 = shard_heat3d::sharded("cudasim", 1, true);
    let d2 = shard_heat3d::sharded("cudasim", 2, true);
    let d4 = shard_heat3d::sharded("cudasim", 4, true);
    let d4_serialized = shard_heat3d::sharded("cudasim", 4, false);
    assert!(d1.field == d2.field && d1.field == d4.field && d1.field == d4_serialized.field);
    let t1 = d1.makespan_ns() as f64;
    let count = |o: &racc::ShardOutcome, name: &str| {
        shard_heat3d::shard_counts(o)
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    vec![
        (
            "shard.step_overhead_ns",
            1e9 * (d1_wall - unsharded) / steps,
        ),
        ("shard.wall_d2_over_d1", d2_wall / d1_wall),
        (
            "shard.efficiency_modeled_d2",
            t1 / (2.0 * d2.makespan_ns() as f64),
        ),
        (
            "shard.efficiency_modeled_d4",
            t1 / (4.0 * d4.makespan_ns() as f64),
        ),
        (
            "shard.overlap_gain_modeled_d4",
            d4_serialized.makespan_ns() as f64 / d4.makespan_ns() as f64,
        ),
        ("shard.halo_exchanges", count(&d4, "halo_exchanges")),
        ("shard.heartbeats", count(&d4, "heartbeats")),
        (
            "comm.messages_per_step",
            2.0 * count(&d2, "halo_exchanges") / steps,
        ),
        ("comm.bytes_per_step", count(&d2, "halo_bytes") / steps),
    ]
}

/// The server on the pinned simulator: scheduler wall per job, and the
/// exact modeled latency figures at half, one and two times the offered
/// rate of the `serve_mix` workload.
fn serve(seed: u64) -> Out {
    let inputs = serve_mix::inputs(seed);
    let (_, service_ns) = serve_mix::solo("cudasim", &inputs).expect("solo references");
    let mix = serve_mix::job_mix(seed);
    let gap = serve_mix::mean_service_ns(&mix, &service_ns);
    let at_rate = |factor: f64| {
        let arrivals = serve_mix::schedule(seed, &mix, gap / factor);
        let drained = serve_mix::serve("cudasim", &inputs, &arrivals);
        let mut rep = crate::cell::RepOutcome::new(drained.wall_s);
        serve_mix::modeled_extras(&mut rep, &drained);
        let get = move |name: &str| {
            rep.extra
                .iter()
                .find(|(k, _)| *k == name)
                .map_or(f64::NAN, |(_, v)| *v)
        };
        (get, drained)
    };
    let (half, _) = at_rate(0.5);
    let (double, _) = at_rate(2.0);
    let (base, drained) = at_rate(1.0);
    let jobs = serve_mix::JOBS as f64;

    // 240 jobs that do nothing: what is left is the scheduler.
    let server = racc::Server::start(
        racc::ServerOptions::default()
            .devices(serve_mix::DEVICES)
            .global_queue_depth(4 * serve_mix::JOBS)
            .hold(true),
        |_| make_ctx("cudasim", false),
    );
    let handles: Vec<_> = (0..serve_mix::JOBS)
        .map(|i| {
            server.submit_at(
                "noop",
                i as u64,
                racc::serve::job_fn(|_: &racc::serve::JobCtx<'_, racc::AnyBackend>| Ok(0u64)),
            )
        })
        .collect();
    let t = Instant::now();
    server.release();
    let done = handles
        .into_iter()
        .map(|h| h.wait())
        .filter(Result::is_ok)
        .count();
    let sched = t.elapsed().as_nanos() as f64 / jobs;
    drop(server.shutdown());
    assert_eq!(done, serve_mix::JOBS, "no-op jobs must all complete");

    let t = drained.snapshot.totals;
    vec![
        ("serve.submit_ns", drained.submit_ns),
        ("serve.sched_wall_ns_per_job", sched),
        ("serve_p95_latency_modeled_s", base("latency_tail_ns") / 1e9),
        (
            "serve.queue_delay_p50_modeled_ns",
            base("queue_delay_p50_ns"),
        ),
        (
            "serve.queue_delay_p95_modeled_ns",
            base("queue_delay_tail_ns"),
        ),
        (
            "serve.p95_latency_modeled_s_r050",
            half("latency_tail_ns") / 1e9,
        ),
        (
            "serve.p95_latency_modeled_s_r200",
            double("latency_tail_ns") / 1e9,
        ),
        ("serve.batched_share", t.batched_jobs as f64 / jobs),
        ("serve.rejected", t.rejected as f64),
        ("serve.retried", t.retried as f64),
        ("serve.fallbacks", t.fallbacks as f64),
    ]
}

/// RACC against hand-written device-specific code, on the modeled clock
/// (the paper's overhead figure; pinned, exact): the `kernels_large` pass
/// and ten `cg_latency` iterations on `cudasim` over the same work written
/// against `racc_cudasim::Cuda`.
fn native(seed: u64) -> Out {
    use kernels_large::{ALPHA, LBM_STEPS, LBM_TAU, N_1D, S_2D, S_LBM};
    let inp = kernels_large::Inputs::generate(seed);
    let cuda = Cuda::new();
    let up = |v: &[f64]| cuda.cu_array(v).expect("alloc");
    let (dx, dy, dx2, dy2) = (up(&inp.x), up(&inp.y), up(&inp.x2), up(&inp.y2));
    let native_axpy = vblas::cuda::axpy(&cuda, ALPHA, &dx, &dy);
    let native_dot = vblas::cuda::dot(&cuda, &dx, &dy).1;
    let mut native_ns = native_axpy + native_dot;
    native_ns += vblas::cuda::axpy_2d(&cuda, ALPHA, S_2D, S_2D, &dx2, &dy2);
    native_ns += vblas::cuda::dot_2d(&cuda, S_2D, S_2D, &dx2, &dy2).1;
    let init = lbm_init(&inp);
    let mut lbm = vlbm::CudaLbm::new(S_LBM, LBM_TAU, &init);
    for _ in 0..LBM_STEPS {
        native_ns += lbm.step();
    }

    let ctx = make_ctx("cudasim", false);
    let (x, y) = (
        ctx.array_from(&inp.x).expect("alloc"),
        ctx.array_from(&inp.y).expect("alloc"),
    );
    let x2 = ctx.array2_from(S_2D, S_2D, &inp.x2).expect("alloc");
    let y2 = ctx.array2_from(S_2D, S_2D, &inp.y2).expect("alloc");
    let mut sim = LbmSim::new(&ctx, S_LBM, LBM_TAU, |i, j| inp.lbm[i * S_LBM + j]).expect("alloc");
    ctx.reset_timeline();
    pblas::axpy(&ctx, ALPHA, &x, &y);
    black_box(pblas::dot(&ctx, &x, &y));
    pblas::axpy_2d(&ctx, ALPHA, &x2, &y2);
    black_box(pblas::dot_2d(&ctx, &x2, &y2));
    sim.run(LBM_STEPS);
    let racc_kernels = ctx.modeled_ns() as f64;
    assert_eq!(x.len(), N_1D);

    const ITERS: usize = 10;
    let (host_a, host_b) = cg_latency::system(seed);
    let mut vendor = vcg::CudaCg::new(&host_a, &host_b);
    let native_cg: u64 = (0..ITERS).map(|_| vendor.iterate().1).sum();
    let a = DeviceTridiag::upload(&ctx, &host_a).expect("upload");
    let b = ctx.array_from(&host_b).expect("upload");
    let mut ws = CgWorkspace::new(&ctx, &b).expect("workspace");
    ctx.reset_timeline();
    for _ in 0..ITERS {
        black_box(ws.iterate(&ctx, &a));
    }
    let racc_cg = ctx.modeled_ns() as f64;
    vec![
        ("cudasim.native_axpy_modeled_ns", native_axpy as f64),
        ("cudasim.native_dot_modeled_ns", native_dot as f64),
        (
            "racc_over_native_modeled.kernels_large",
            racc_kernels / native_ns as f64,
        ),
        (
            "racc_over_native_modeled.cg_latency",
            racc_cg / native_cg as f64,
        ),
    ]
}

/// The D2Q9 equilibrium distributions of the seeded macroscopic fields, in
/// the layout the vendor LBM codes take.
fn lbm_init(inp: &kernels_large::Inputs) -> Vec<f64> {
    use racc_lbm::lattice::{equilibrium, fidx, Q};
    let s = kernels_large::S_LBM;
    let mut init = vec![0.0; Q * s * s];
    for x in 0..s {
        for y in 0..s {
            let (rho, ux, uy) = inp.lbm[x * s + y];
            for k in 0..Q {
                init[fidx(k, x, y, s)] = equilibrium(k, rho, ux, uy);
            }
        }
    }
    init
}

/// RACC against code written directly against `ThreadPool`, on the wall
/// clock (unpinned `threads`; best effort at this commit). Interleaved in
/// one child: same inputs, alternating native and RACC reps.
pub fn native_wall(workload: &str, seed: u64) -> Out {
    let threads = nproc();
    let ctx = make_ctx("threads", false);
    let cpu = racc::CpuSpec::epyc_7742_rome();
    let mut native = Vec::new();
    let mut portable = Vec::new();
    if workload == "cg_latency" {
        let (host_a, host_b) = cg_latency::system(seed);
        let a = DeviceTridiag::upload(&ctx, &host_a).expect("upload");
        let b = ctx.array_from(&host_b).expect("upload");
        for _ in 0..6 {
            let t = Instant::now();
            let mut vendor = vcg::ThreadsCg::new(threads, host_a.clone(), &host_b);
            for _ in 0..cg_latency::ITERATIONS {
                black_box(vendor.iterate());
            }
            native.push(t.elapsed().as_secs_f64());
            portable.push(cg_latency::solve(&ctx, &a, &b).expect("solve").wall_s);
        }
    } else {
        use kernels_large::{ALPHA, LBM_STEPS, LBM_TAU, S_2D, S_LBM};
        let inp = kernels_large::Inputs::generate(seed);
        let pool = ThreadPool::new(threads);
        let (mut hx, mut hx2) = (inp.x.clone(), inp.x2.clone());
        let mut vendor = vlbm::ThreadsLbm::new(threads, S_LBM, LBM_TAU, &lbm_init(&inp));
        let (x, y) = (
            ctx.array_from(&inp.x).expect("alloc"),
            ctx.array_from(&inp.y).expect("alloc"),
        );
        let x2 = ctx.array2_from(S_2D, S_2D, &inp.x2).expect("alloc");
        let y2 = ctx.array2_from(S_2D, S_2D, &inp.y2).expect("alloc");
        let mut sim =
            LbmSim::new(&ctx, S_LBM, LBM_TAU, |i, j| inp.lbm[i * S_LBM + j]).expect("alloc");
        for _ in 0..6 {
            let t = Instant::now();
            vblas::threads::axpy(&pool, &cpu, ALPHA, &mut hx, &inp.y);
            black_box(vblas::threads::dot(&pool, &cpu, &hx, &inp.y));
            vblas::threads::axpy_2d(&pool, &cpu, ALPHA, S_2D, S_2D, &mut hx2, &inp.y2);
            black_box(vblas::threads::dot_2d(
                &pool, &cpu, S_2D, S_2D, &hx2, &inp.y2,
            ));
            for _ in 0..LBM_STEPS {
                vendor.step();
            }
            native.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            pblas::axpy(&ctx, ALPHA, &x, &y);
            black_box(pblas::dot(&ctx, &x, &y));
            pblas::axpy_2d(&ctx, ALPHA, &x2, &y2);
            black_box(pblas::dot_2d(&ctx, &x2, &y2));
            sim.run(LBM_STEPS);
            portable.push(t.elapsed().as_secs_f64());
        }
    }
    // The first pair warms caches and the pools.
    let ratio =
        median(&portable[1..]).unwrap_or(f64::NAN) / median(&native[1..]).unwrap_or(f64::NAN);
    vec![("racc_over_native_wall", ratio)]
}

/// Child entry: run one group and print its numbers as one line.
pub fn run_group(group: &str, workload: &str, seed: u64) -> bool {
    let out = match group {
        "core" => core(),
        "fuse" => fuse(),
        "threadpool" => threadpool(),
        "gpusim" => gpusim(),
        "prim" => prim(),
        "prim_threads" => prim_threads(),
        "comm" => comm(),
        "shard" => shard(),
        "serve" => serve(seed),
        "native" => native(seed),
        "native_wall" => native_wall(workload, seed),
        _ => return false,
    };
    let mut m = Value::obj();
    for (k, v) in out {
        m.set(k, v);
    }
    emit(
        &Value::obj()
            .with("t", "probe")
            .with("group", group)
            .with("m", m),
    );
    true
}
