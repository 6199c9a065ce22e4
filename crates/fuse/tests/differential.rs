//! Differential property tests: fused execution is **bit-identical** to
//! the eager reference (one launch per statement) for randomized
//! expression programs, on every backend.
//!
//! Programs are decoded from random byte strings (a tiny bytecode), so
//! the generator needs no strategy recursion and every failing case
//! reprints as plain data. Three program families are pinned:
//!
//! * **map-only chains** — assignments over one extent, with value
//!   forwarding (`assign`'s returned `Expr`) and raw reloads mixed in, so
//!   both full fusion and read-after-write boundary splits are exercised;
//! * **map + terminal reduce** — the same chains closed by a `Sum` /
//!   `Min` / `Max` reduction that fuses into the last group when legal;
//! * **partial-fusion boundaries** — statements alternating between two
//!   different extents (a forced materialize at every extent change) plus
//!   explicit barriers.
//!
//! Each case runs three times per backend — compiled (`ctx.lazy()`, the
//! plan-cache default), interpreted (`ctx.lazy().interpreted()`), and
//! eager (`ctx.lazy().eager()`) — and compares every array's bytes and
//! the reduction value via `to_bits`. The same tests must also hold under
//! `--features racecheck` and `RACC_SANITIZER=1` (CI runs both).

use proptest::prelude::*;
use racc_core::{Array1, Backend, Context, SerialBackend, ThreadsBackend};
use racc_fuse::{lit, load, Expr, LazyExt, ReduceKind};

/// Arrays per extent pool.
const N_ARR: usize = 3;

/// A decoded expression over a pool of arrays and earlier statements.
#[derive(Debug, Clone)]
enum TExpr {
    /// `load(arrs[k])` — a raw reload (a fusion hazard if stored earlier
    /// in the group).
    Arr(usize),
    /// The `Expr` returned by statement `k`'s `assign` (value forward).
    Prev(usize),
    Scalar(f64),
    Neg(Box<TExpr>),
    Abs(Box<TExpr>),
    /// Binary op selector 0..6: + - * / min max.
    Bin(u8, Box<TExpr>, Box<TExpr>),
}

fn leaf(b: u8, n_prev: usize) -> TExpr {
    match b % 3 {
        0 => TExpr::Arr(b as usize / 3 % N_ARR),
        1 if n_prev > 0 => TExpr::Prev(b as usize / 3 % n_prev),
        _ => TExpr::Scalar(f64::from(b) / 32.0 - 3.0),
    }
}

/// Recursive-descent decode of one expression from `bytes`, depth- and
/// length-limited so every byte string is a valid program.
fn decode(bytes: &[u8], pos: &mut usize, depth: u32, n_prev: usize) -> TExpr {
    let b = bytes.get(*pos).copied().unwrap_or(7);
    *pos += 1;
    if depth >= 3 || *pos >= bytes.len() {
        return leaf(b, n_prev);
    }
    match b % 8 {
        0..=2 => leaf(b / 8, n_prev),
        3 => TExpr::Neg(Box::new(decode(bytes, pos, depth + 1, n_prev))),
        4 => TExpr::Abs(Box::new(decode(bytes, pos, depth + 1, n_prev))),
        _ => {
            let a = decode(bytes, pos, depth + 1, n_prev);
            let c = decode(bytes, pos, depth + 1, n_prev);
            TExpr::Bin(b / 8 % 6, Box::new(a), Box::new(c))
        }
    }
}

fn build(t: &TExpr, arrs: &[Array1<f64>], prevs: &[Expr]) -> Expr {
    match t {
        TExpr::Arr(k) => load(&arrs[*k]),
        TExpr::Prev(k) => prevs[*k].clone(),
        TExpr::Scalar(v) => lit(*v),
        TExpr::Neg(a) => -build(a, arrs, prevs),
        TExpr::Abs(a) => build(a, arrs, prevs).abs(),
        TExpr::Bin(op, a, b) => {
            let (a, b) = (build(a, arrs, prevs), build(b, arrs, prevs));
            match op {
                0 => a + b,
                1 => a - b,
                2 => a * b,
                3 => a / b,
                4 => a.min(b),
                _ => a.max(b),
            }
        }
    }
}

/// A randomized program: per statement a destination selector and an
/// expression bytecode, optional barriers, optional terminal reduction.
#[derive(Debug, Clone)]
struct Spec {
    stmts: Vec<(u8, Vec<u8>)>,
    barriers: Vec<u8>,
    reduce: Option<(Vec<u8>, u8)>,
}

fn spec_strategy(max_stmts: usize, with_reduce: bool) -> impl Strategy<Value = Spec> {
    (
        prop::collection::vec(
            (0u8..8, prop::collection::vec(0u8..255, 1..10)),
            1..max_stmts + 1,
        ),
        prop::collection::vec(0u8..8, 0..3),
        prop::collection::vec(0u8..255, 1..10),
        0u8..3,
    )
        .prop_map(move |(stmts, barriers, rcode, rkind)| Spec {
            stmts,
            barriers,
            reduce: if with_reduce {
                Some((rcode, rkind))
            } else {
                None
            },
        })
}

/// Deterministic initial contents so fused and eager runs start from the
/// same bytes on every backend.
fn fill<B: Backend>(ctx: &Context<B>, n: usize, salt: usize) -> Vec<Array1<f64>> {
    (0..N_ARR)
        .map(|a| {
            ctx.array_from_fn(n, move |i| {
                ((i * 31 + a * 7 + salt) % 23) as f64 * 0.375 - 4.0
            })
            .expect("alloc")
        })
        .collect()
}

/// Evaluation mode of one differential run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Compiled,
    Interpreted,
    Eager,
}

/// Runs `spec` over `pools.len()` extent pools (statement `dst` selects
/// pool then array) and returns every array's bytes plus the reduction
/// bits. `mode` selects compiled plans, the interpreter, or the eager
/// reference grouping.
fn run_spec<B: Backend>(
    ctx: &Context<B>,
    spec: &Spec,
    sizes: &[usize],
    mode: Mode,
) -> (Vec<Vec<u64>>, Option<u64>, usize) {
    let pools: Vec<Vec<Array1<f64>>> = sizes
        .iter()
        .enumerate()
        .map(|(p, &n)| fill(ctx, n, p))
        .collect();
    let mut f = match mode {
        Mode::Compiled => ctx.lazy(),
        Mode::Interpreted => ctx.lazy().interpreted(),
        Mode::Eager => ctx.lazy().eager(),
    };
    // Forwards are only meaningful within the destination's extent pool.
    let mut prevs: Vec<Vec<Expr>> = vec![Vec::new(); pools.len()];
    for (si, (dst, code)) in spec.stmts.iter().enumerate() {
        if spec.barriers.contains(&(si as u8)) {
            f.barrier();
        }
        let pool = *dst as usize % pools.len();
        let arr = *dst as usize / pools.len() % N_ARR;
        let t = decode(code, &mut 0, 0, prevs[pool].len());
        let e = build(&t, &pools[pool], &prevs[pool]);
        let fw = f.assign(&pools[pool][arr], e);
        prevs[pool].push(fw);
    }
    let red = spec.reduce.as_ref().map(|(code, rkind)| {
        // Reduce over the first pool; anchor with an array load so the
        // expression always has an extent.
        let t = decode(code, &mut 0, 0, prevs[0].len());
        let e = build(&t, &pools[0], &prevs[0]) + 0.0 * load(&pools[0][0]);
        let kind = match rkind % 3 {
            0 => ReduceKind::Sum,
            1 => ReduceKind::Min,
            _ => ReduceKind::Max,
        };
        f.reduce(e, kind).to_bits()
    });
    if spec.reduce.is_none() {
        f.eval();
    }
    let launches = f.count_launches();
    let bits = pools
        .iter()
        .flatten()
        .map(|a| {
            ctx.to_host(a)
                .expect("to_host")
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    (bits, red, launches)
}

/// Compiled and interpreted vs eager on one backend: identical bytes,
/// identical reduction, identical grouping between the two fused modes,
/// and fusion never issues *more* launches than eager. The compiled run
/// goes first and again last, so at least one evaluation per spec is a
/// plan-cache *hit* replaying a cached program against fresh arrays.
fn check_backend<B: Backend>(ctx: &Context<B>, spec: &Spec, sizes: &[usize]) {
    let (compiled, cred, claunch) = run_spec(ctx, spec, sizes, Mode::Compiled);
    let (interp, ired, ilaunch) = run_spec(ctx, spec, sizes, Mode::Interpreted);
    let (eager, ered, elaunch) = run_spec(ctx, spec, sizes, Mode::Eager);
    assert_eq!(
        compiled, eager,
        "compiled arrays diverge from eager: {spec:?}"
    );
    assert_eq!(
        interp, eager,
        "interpreted arrays diverge from eager: {spec:?}"
    );
    assert_eq!(
        cred, ered,
        "compiled reduction diverges from eager: {spec:?}"
    );
    assert_eq!(
        ired, ered,
        "interpreted reduction diverges from eager: {spec:?}"
    );
    assert_eq!(
        claunch, ilaunch,
        "compiled and interpreted grouping diverge: {spec:?}"
    );
    assert!(
        claunch <= elaunch,
        "fusion used {claunch} launches, eager {elaunch}: {spec:?}"
    );
    let (rerun, rred, _) = run_spec(ctx, spec, sizes, Mode::Compiled);
    assert_eq!(
        rerun, eager,
        "cache-hit arrays diverge from eager: {spec:?}"
    );
    assert_eq!(
        rred, ered,
        "cache-hit reduction diverges from eager: {spec:?}"
    );
}

/// One case across all five backends.
fn check_all_backends(spec: &Spec, sizes: &[usize]) {
    check_backend(&Context::new(SerialBackend::new()), spec, sizes);
    check_backend(&Context::new(ThreadsBackend::with_threads(3)), spec, sizes);
    check_backend(
        &Context::new(racc_backend_common::cuda_backend()),
        spec,
        sizes,
    );
    check_backend(
        &Context::new(racc_backend_common::hip_backend()),
        spec,
        sizes,
    );
    check_backend(
        &Context::new(racc_backend_common::oneapi_backend()),
        spec,
        sizes,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Map-only chains over a single extent: full fusion plus hazard
    /// splits from raw reloads.
    #[test]
    fn map_only_chains_match_eager(
        spec in spec_strategy(4, false),
        n in 1usize..48,
    ) {
        check_all_backends(&spec, &[n]);
    }

    /// The same chains closed by a terminal Sum/Min/Max reduction.
    #[test]
    fn map_reduce_chains_match_eager(
        spec in spec_strategy(3, true),
        n in 1usize..48,
    ) {
        check_all_backends(&spec, &[n]);
    }

    /// Two extent pools force materialize boundaries at every extent
    /// change; barriers add more. Partial fusion must still be exact.
    #[test]
    fn partial_fusion_boundaries_match_eager(
        spec in spec_strategy(5, true),
        n1 in 1usize..32,
        n2 in 1usize..32,
    ) {
        prop_assume!(n1 != n2);
        check_all_backends(&spec, &[n1, n2]);
    }
}

/// A directed (non-random) boundary case: forward → raw reload → forward,
/// mixing all three split causes in one program.
#[test]
fn directed_mixed_boundaries() {
    let spec = Spec {
        stmts: vec![
            (0, vec![45, 0, 8]), // pool 0: binary of loads
            (1, vec![45, 1, 1]), // pool 1 (extent change)
            (0, vec![1]),        // pool 0: forward of stmt 0
            (0, vec![0]),        // pool 0: raw reload of arr 0 (hazard)
        ],
        barriers: vec![3],
        reduce: Some((vec![45, 1, 0], 0)),
    };
    check_all_backends(&spec, &[17, 5]);
}
