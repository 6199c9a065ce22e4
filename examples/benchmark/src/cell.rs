//! The child side of a cell: one process measures one (workload, backend)
//! pair — set-up (timed apart, warm-up rep included), then timed reps until
//! its time slice ends — and streams one flushed JSON line per event, so
//! every rep that completed before a crash still reaches the supervisor.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::calib;
use crate::json::Value;
use crate::spans;

/// Hardware threads of this host: the pool size of every `threads` cell
/// and the cap on rank/device threads of a wall cell.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Whether measured contexts record `racc-trace` spans (modeled cells only:
/// the recorder costs wall time, and wall cells must not pay it).
static RACC_TRACE: AtomicBool = AtomicBool::new(false);

/// True in a modeled cell (the cells that turn `racc-trace` on).
pub fn modeled_mode() -> bool {
    RACC_TRACE.load(Ordering::Relaxed)
}

pub fn set_racc_trace(on: bool) {
    RACC_TRACE.store(on, Ordering::Relaxed);
}

/// A context on `backend`, built through the public builder only.
pub fn make_ctx(backend: &str, fusion: bool) -> racc::Ctx {
    let mut b = racc::builder()
        .backend(backend)
        .fusion(fusion)
        .trace(RACC_TRACE.load(Ordering::Relaxed))
        .trace_capacity(1 << 16);
    if backend == "threads" {
        b = b.threads(nproc());
    }
    b.build().expect("backend compiled in")
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confine this process to one hardware thread: the highest-numbered one it
/// is allowed on (the same one every time; low numbers tend to take the
/// machine's interrupts). Must run
/// before any pool exists: `available_parallelism` then reports 1, so the
/// global pool (the simulators' executor) has no worker threads. Modeled
/// time and every computed value are independent of the host thread count;
/// only host wall changes, and a pinned wall is labelled as such.
pub fn pin_to_one_cpu() -> bool {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: plain libc calls on this process (pid 0); `mask` is a live
    // buffer of exactly `bytes` bytes for both calls.
    unsafe {
        if sched_getaffinity(0, bytes, mask.as_mut_ptr()) != 0 {
            return false;
        }
        let Some(word) = mask.iter().rposition(|w| *w != 0) else {
            return false;
        };
        let bit = 63 - mask[word].leading_zeros();
        mask = [0u64; 16];
        mask[word] = 1 << bit;
        sched_setaffinity(0, bytes, mask.as_ptr()) == 0
    }
}

/// Peak rates of the architecture behind a backend key, as the figures
/// harness takes them: the CPU model's achieved rates, the device specs'
/// FP64 and memory peaks.
fn roofline_peaks(key: &str) -> Option<(f64, f64)> {
    use racc_gpusim::profiles;
    let dev = |d: racc_gpusim::DeviceSpec| (d.fp64_flops_per_sec, d.mem_bw_bytes_per_sec);
    match key {
        "serial" | "threads" => {
            let cpu = racc::CpuSpec::epyc_7742_rome();
            Some((cpu.achieved_flops_per_sec, cpu.achieved_bw_bytes_per_sec))
        }
        "cudasim" => Some(dev(profiles::nvidia_a100())),
        "hipsim" => Some(dev(profiles::amd_mi100())),
        "oneapisim" => Some(dev(profiles::intel_max1550())),
        _ => None,
    }
}

/// Forget the `racc-trace` spans recorded so far (no-op without a tracer).
pub fn racc_trace_begin(ctxs: &[&racc::Ctx]) {
    for ctx in ctxs {
        if let Some(rec) = ctx.tracer() {
            rec.reset();
        }
    }
}

/// Exact per-rep figures from `racc-trace` spans since [`racc_trace_begin`]:
/// computed bytes moved (profile bytes x iterations + transfer payloads —
/// computed from array sizes, cache misses ignored) and the roofline lower
/// bound of the same constructs. Only counts and static annotations are
/// read: the spans carry no start time or parent yet.
pub fn racc_trace_totals(out: &mut RepOutcome, ctxs: &[&racc::Ctx]) {
    let (mut bytes, mut roofline_ns, mut recorded, mut dropped, mut any) =
        (0.0, 0.0, 0.0, 0.0, false);
    let mut pool_chunk_real_ns = 0.0;
    for ctx in ctxs {
        let (Some(rec), Some((flops_peak, bw_peak))) = (ctx.tracer(), roofline_peaks(ctx.key()))
        else {
            continue;
        };
        any = true;
        recorded += rec.recorded() as f64;
        dropped += rec.dropped() as f64;
        for s in rec.spans() {
            if s.backend == "threadpool" {
                // A worker chunk: real time only, no cost annotation.
                pool_chunk_real_ns += s.real_ns as f64;
                continue;
            }
            let iters = s.iterations() as f64;
            let moved = s.bytes_per_iter * iters + s.bytes as f64;
            bytes += moved;
            roofline_ns += 1e9 * (s.flops_per_iter * iters / flops_peak).max(moved / bw_peak);
        }
    }
    if any {
        out.push("bytes_moved_computed", bytes);
        out.push("roofline_ns", roofline_ns);
        out.push("racc_spans", recorded);
        out.push("racc_spans_dropped", dropped);
        out.push("pool_chunk_real_ns", pool_chunk_real_ns);
    }
}

/// The contexts of one cell. `twin` is the `serial` context the reference
/// result of every rep is computed on, in the same child.
pub struct Env {
    pub backend: String,
    pub ctx: racc::Ctx,
    /// A second context on the same backend with `.fusion(true)`, for the
    /// workloads that compare fused against eager.
    pub fused: Option<racc::Ctx>,
    pub twin: racc::Ctx,
}

impl Env {
    pub fn new(backend: &str, fused: bool) -> Env {
        Env {
            backend: backend.to_owned(),
            ctx: spans::span("core.ctx_build", || make_ctx(backend, false)),
            fused: fused.then(|| spans::span("core.ctx_build", || make_ctx(backend, true))),
            // Never traced: the twin is the reference, not the measurement.
            twin: racc::builder()
                .backend("serial")
                .build()
                .expect("serial backend"),
        }
    }
}

/// What one rep reports.
pub struct RepOutcome {
    /// Wall seconds of the timed section (verification excluded).
    pub wall_s: f64,
    /// The same, scaled to the reference clock section by section
    /// (`calib::Sections`), when the workload times itself that way; else
    /// the whole rep is scaled by the calibration around it.
    pub scaled_s: Option<f64>,
    /// Verified against the reference.
    pub ok: bool,
    /// Why not, when `ok` is false.
    pub note: String,
    /// Named numbers of this rep (per-kernel walls, modeled ns, counters).
    pub extra: Vec<(&'static str, f64)>,
}

impl RepOutcome {
    pub fn new(wall_s: f64) -> RepOutcome {
        RepOutcome {
            wall_s,
            scaled_s: None,
            ok: true,
            note: String::new(),
            extra: Vec::new(),
        }
    }

    /// Record a failed check; the first reason is kept.
    pub fn fail(&mut self, why: impl Into<String>) {
        if self.ok {
            self.ok = false;
            self.note = why.into();
        }
    }

    pub fn check(&mut self, cond: bool, why: impl FnOnce() -> String) {
        if !cond {
            self.fail(why());
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64) {
        self.extra.push((name, value));
    }
}

/// A workload as one cell runs it.
pub trait Cell {
    type State<'c>: Runner
    where
        Self: 'c;

    /// Whether [`Env::fused`] is needed.
    const FUSED: bool = false;

    /// Generate inputs from `seed` and upload them.
    fn build<'c>(env: &'c Env, seed: u64) -> Result<Self::State<'c>, String>;
}

pub trait Runner {
    /// One rep: fixed work, timed inside, verified after timing.
    fn rep(&mut self) -> RepOutcome;

    /// A last check over state that is too large to compare every rep.
    fn final_check(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Counters read once, after the last rep.
    fn counters(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Relative agreement for cross-backend float reductions.
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    a == b || (a - b).abs() <= rel * a.abs().max(b.abs())
}

/// FNV-1a over the bit patterns: a compact stand-in for "bit-identical".
pub fn hash_bits(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// [`hash_bits`] squeezed into the 52 bits an `f64` carries exactly, so a
/// digest can travel as a per-rep number and be compared across cells
/// (the simulators are pinned bit-identical to one another).
pub fn digest(values: impl IntoIterator<Item = u64>) -> f64 {
    (hash_bits(values) >> 12) as f64
}

pub fn hash_f64(values: &[f64]) -> u64 {
    hash_bits(values.iter().map(|v| v.to_bits()))
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Write one protocol line and flush it: the supervisor must see a rep
/// before the next one can crash the process.
pub fn emit(line: &Value) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{}", line.encode());
    let _ = out.flush();
}

/// How a child is told to run.
#[derive(Debug, Clone)]
pub struct CellArgs {
    pub workload: String,
    pub backend: String,
    pub seed: u64,
    /// Seconds of timed reps (the child stops starting reps after this).
    pub budget_s: f64,
    pub min_reps: u64,
    pub max_reps: u64,
    /// Record benchmark spans on every other rep and report them.
    pub spans: bool,
}

fn extras(pairs: &[(&'static str, f64)]) -> Value {
    let mut v = Value::obj();
    for (k, x) in pairs {
        v.set(k, *x);
    }
    v
}

/// Run one cell to completion. Protocol lines (`t` is the event type):
/// `setup`, `start` (a rep is about to run), `rep`, `check`, `spans`, `end`.
pub fn run_cell<C: Cell>(args: &CellArgs) {
    // Set-up: context build + input generation/upload + one warm-up rep
    // (plan-cache and pool warm-up), timed apart from the reps.
    spans::set_enabled(args.spans);
    spans::set_rep(0);
    let calib_before = calib::tick();
    let t0 = Instant::now();
    let env = spans::span("bench.setup", || Env::new(&args.backend, C::FUSED));
    let mut state = match spans::span("bench.build", || C::build(&env, args.seed)) {
        Ok(s) => s,
        Err(e) => {
            emit(
                &Value::obj()
                    .with("t", "setup")
                    .with("ok", false)
                    .with("note", e),
            );
            return;
        }
    };
    let warm = spans::span("bench.warmup", || state.rep());
    spans::set_enabled(false);
    let setup_s = t0.elapsed().as_secs_f64();
    emit(
        &Value::obj()
            .with("t", "setup")
            .with("s", setup_s)
            .with("calib_s", (calib_before + calib::tick()) / 2.0)
            .with("rss_mb", peak_rss_mb())
            .with("ok", warm.ok)
            .with("note", warm.note),
    );

    let started = Instant::now();
    let mut i = 0u64;
    while i < args.max_reps
        && (i < args.min_reps || started.elapsed().as_secs_f64() < args.budget_s)
    {
        // With spans on, odd reps record and even reps do not: the ratio
        // of their walls is the recorder's own overhead.
        let traced = args.spans && i % 2 == 1;
        emit(&Value::obj().with("t", "start").with("i", i));
        spans::set_rep(i + 1);
        let calib_before = calib::tick();
        spans::set_enabled(traced);
        let out = spans::span("bench.rep", || state.rep());
        spans::set_enabled(false);
        let calib_s = (calib_before + calib::tick()) / 2.0;
        emit(
            &Value::obj()
                .with("t", "rep")
                .with("i", i)
                .with("ok", out.ok)
                .with("note", out.note)
                .with("wall_s", out.wall_s)
                .with(
                    "scaled_s",
                    out.scaled_s
                        .unwrap_or_else(|| calib::scaled(out.wall_s, calib_s)),
                )
                .with("calib_s", calib_s)
                .with("traced", traced)
                .with("x", extras(&out.extra)),
        );
        i += 1;
    }
    if let Err(why) = state.final_check() {
        emit(
            &Value::obj()
                .with("t", "check")
                .with("ok", false)
                .with("note", why),
        );
    }
    if args.spans {
        let recorded = spans::drain();
        let mut by_name = Value::obj();
        for (name, t) in spans::self_times(&recorded) {
            by_name.set(
                name,
                Value::obj()
                    .with("count", t.count)
                    .with("total_ns", t.total_ns)
                    .with("self_ns", t.self_ns),
            );
        }
        emit(&Value::obj().with("t", "spans").with("self", by_name).with(
            "events",
            spans::chrome_events(&recorded, 0, &format!("{}/{}", args.workload, args.backend)),
        ));
    }
    emit(
        &Value::obj()
            .with("t", "end")
            .with("exit_rss_mb", peak_rss_mb())
            .with("x", extras(&state.counters())),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_is_relative() {
        assert!(close(1.0, 1.0 + 1e-12, 1e-10));
        assert!(!close(1.0, 1.0 + 1e-8, 1e-10));
        assert!(close(0.0, 0.0, 1e-10));
        assert!(!close(f64::NAN, 1.0, 1e-10));
    }

    #[test]
    fn hash_bits_tells_bit_patterns_apart() {
        assert_eq!(hash_f64(&[1.0, 2.0]), hash_f64(&[1.0, 2.0]));
        assert_ne!(hash_f64(&[0.0]), hash_f64(&[-0.0]));
        assert_ne!(hash_f64(&[1.0, 2.0]), hash_f64(&[2.0, 1.0]));
    }

    #[test]
    fn rep_outcome_keeps_the_first_failure() {
        let mut r = RepOutcome::new(1.0);
        r.check(true, || unreachable!());
        r.fail("first");
        r.fail("second");
        assert!(!r.ok);
        assert_eq!(r.note, "first");
    }
}
