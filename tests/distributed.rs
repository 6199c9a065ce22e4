//! Distributed-memory scenarios: SPMD ranks (racc-comm) combined with
//! per-rank RACC contexts — the paper's future-work configuration.

use racc::prelude::*;
use racc_comm::World;

/// A distributed dot product: each rank reduces its chunk with the RACC
/// constructs on a *simulated GPU*, then the ranks allreduce.
#[cfg(feature = "backend-cuda")]
#[test]
fn distributed_dot_across_simulated_gpus() {
    let n_total = 40_000usize;
    let ranks = 4usize;
    let per = n_total / ranks;
    let results = World::run(ranks, move |comm| {
        let ctx = racc::context_for("cudasim").unwrap();
        let lo = comm.rank() * per;
        let x = ctx.array_from_fn(per, |i| ((lo + i) % 10) as f64).unwrap();
        let y = ctx
            .array_from_fn(per, |i| (((lo + i) + 5) % 10) as f64)
            .unwrap();
        let (xv, yv) = (x.view(), y.view());
        let local: f64 =
            ctx.parallel_reduce(per, &KernelProfile::dot(), move |i| xv.get(i) * yv.get(i));
        comm.allreduce_sum(local).unwrap()
    });
    let expect: f64 = (0..n_total)
        .map(|i| ((i % 10) as f64) * (((i + 5) % 10) as f64))
        .sum();
    for r in &results {
        assert!((r - expect).abs() < 1e-9 * expect, "{r} vs {expect}");
    }
}

/// Halo exchange correctness: a distributed 1D stencil equals the serial
/// stencil after assembly.
#[test]
fn distributed_stencil_matches_serial() {
    let n = 1000usize;
    let ranks = 3usize;
    let data: Vec<f64> = (0..n).map(|i| ((i * 37) % 23) as f64).collect();
    let serial: Vec<f64> = (0..n)
        .map(|i| {
            let l = if i > 0 { data[i - 1] } else { 0.0 };
            let r = if i + 1 < n { data[i + 1] } else { 0.0 };
            l - 2.0 * data[i] + r
        })
        .collect();

    let data_for_ranks = data.clone();
    let pieces = World::run(ranks, move |comm| {
        let base = n / comm.size();
        let rem = n % comm.size();
        let lo = comm.rank() * base + comm.rank().min(rem);
        let len = base + usize::from(comm.rank() < rem);
        let hi = lo + len;
        let chunk = &data_for_ranks[lo..hi];
        // Exchange halos with neighbors.
        let left = if comm.rank() > 0 {
            comm.send(comm.rank() - 1, chunk[0]).unwrap();
            comm.recv::<f64>(comm.rank() - 1).unwrap()
        } else {
            0.0
        };
        let right = if comm.rank() + 1 < comm.size() {
            comm.send(comm.rank() + 1, chunk[len - 1]).unwrap();
            comm.recv::<f64>(comm.rank() + 1).unwrap()
        } else {
            0.0
        };
        let ctx = racc::context_for("threads").unwrap();
        let a = ctx.array_from(chunk).unwrap();
        let out = ctx.zeros::<f64>(len).unwrap();
        let (av, ov) = (a.view(), out.view_mut());
        ctx.parallel_for(len, &KernelProfile::unknown(), move |i| {
            let l = if i > 0 { av.get(i - 1) } else { left };
            let r = if i + 1 < len { av.get(i + 1) } else { right };
            ov.set(i, l - 2.0 * av.get(i) + r);
        });
        ctx.to_host(&out).unwrap()
    });
    let assembled: Vec<f64> = pieces.into_iter().flatten().collect();
    assert_eq!(assembled, serial);
}

/// Collectives compose with reductions from the front end's operator set.
#[test]
fn allreduce_with_frontend_operators() {
    let results = World::run(5, |comm| {
        let local = (comm.rank() as i64 + 1) * 7;
        (
            comm.allreduce(local, racc::Max).unwrap(),
            comm.allreduce(local, racc::Min).unwrap(),
            comm.allreduce(local, racc::Sum).unwrap(),
        )
    });
    for (max, min, sum) in results {
        assert_eq!(max, 35);
        assert_eq!(min, 7);
        assert_eq!(sum, 7 + 14 + 21 + 28 + 35);
    }
}
