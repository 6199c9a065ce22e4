//! `binning` — particle binning on the device primitives: `histogram` →
//! `exclusive_scan` → `sort_by_key` → scan-compacted frontier, 131072
//! particles into 8192 cells, half uniform and half in one Gaussian
//! cluster. It uses the same pool and simulator as the other workloads
//! *differently*: fixed 256-element tiles, scatter writes, multi-kernel
//! pipelines — so a pool or executor gain bought at the expense of
//! write-heavy tiny-tile launches shows here.

use std::time::Instant;

use racc::prelude::*;

use crate::cell::{digest, racc_trace_begin, racc_trace_totals, Cell, Env, RepOutcome, Runner};
use crate::rng::Rng;
use crate::spans::span;

pub const PARTICLES: usize = 131_072;
pub const CELLS: usize = 8_192;

/// Seeded particles: a cell key and an `f32` payload each. The second
/// half clusters around one seeded centre (sigma = 1/64 of the domain),
/// so a few hundred cells hold half of the particles.
pub fn particles(seed: u64) -> (Vec<u32>, Vec<f32>) {
    let mut r = Rng::stream(seed, "binning");
    let centre = r.uniform(0.25, 0.75) * CELLS as f64;
    let sigma = CELLS as f64 / 64.0;
    let keys = (0..PARTICLES)
        .map(|i| {
            if i < PARTICLES / 2 {
                r.below(CELLS as u64) as u32
            } else {
                (centre + sigma * r.gaussian()).clamp(0.0, (CELLS - 1) as f64) as u32
            }
        })
        .collect();
    let values = (0..PARTICLES)
        .map(|_| r.uniform(-64.0, 64.0) as f32)
        .collect();
    (keys, values)
}

/// Host copies of every stage's output.
#[derive(PartialEq)]
pub struct Binned {
    pub counts: Vec<u64>,
    pub offsets: Vec<u64>,
    pub keys: Vec<u32>,
    pub value_bits: Vec<u32>,
    pub frontier: Vec<u64>,
}

/// The device arrays one pass leaves behind.
pub struct DeviceBinned {
    counts: Array1<u64>,
    offsets: Array1<u64>,
    keys: Array1<u32>,
    values: Array1<f32>,
    frontier: Array1<u64>,
}

/// One binning pass. The read-back of the occupancy scan's last element
/// sizes the frontier, so it is part of the pipeline; the outputs stay on
/// the device.
pub fn pass(
    ctx: &racc::Ctx,
    keys: &Array1<u32>,
    values: &Array1<f32>,
) -> Result<DeviceBinned, String> {
    let e = |e: PrimError| e.to_string();
    let r = |e: racc::Error| e.to_string();
    let counts = span("prim.histogram", || ctx.histogram(keys, CELLS)).map_err(e)?;
    let offsets = span("prim.scan", || ctx.exclusive_scan(&counts)).map_err(e)?;
    let (bk, bv) = span("prim.sort_by_key", || ctx.sort_by_key(keys, values)).map_err(e)?;
    let cv = counts.view();
    let marks = span("core.array_from", || {
        ctx.array_from_fn(CELLS, move |c| u64::from(cv.get(c) > 0))
    })
    .map_err(r)?;
    let pos = span("prim.scan", || ctx.exclusive_scan(&marks)).map_err(e)?;
    let (mh, ph) = span("core.to_host", || (ctx.to_host(&marks), ctx.to_host(&pos)));
    let (mh, ph) = (mh.map_err(r)?, ph.map_err(r)?);
    let active = (ph[CELLS - 1] + mh[CELLS - 1]) as usize;
    let frontier = ctx.zeros::<u64>(active).map_err(r)?;
    let (mv, pv, fv) = (marks.view(), pos.view(), frontier.view_mut());
    span("core.parallel_for", || {
        ctx.parallel_for(CELLS, &KernelProfile::unknown(), move |c| {
            if mv.get(c) == 1 {
                fv.set(pv.get(c) as usize, c as u64);
            }
        })
    });
    Ok(DeviceBinned {
        counts,
        offsets,
        keys: bk,
        values: bv,
        frontier,
    })
}

fn download(ctx: &racc::Ctx, d: &DeviceBinned) -> Result<Binned, String> {
    let r = |e: racc::Error| e.to_string();
    Ok(Binned {
        counts: ctx.to_host(&d.counts).map_err(r)?,
        offsets: ctx.to_host(&d.offsets).map_err(r)?,
        keys: ctx.to_host(&d.keys).map_err(r)?,
        value_bits: ctx
            .to_host(&d.values)
            .map_err(r)?
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        frontier: ctx.to_host(&d.frontier).map_err(r)?,
    })
}

pub struct Binning;

pub struct State<'c> {
    ctx: &'c racc::Ctx,
    keys: Array1<u32>,
    values: Array1<f32>,
    /// The serial twin's outputs (inputs repeat, so one pass suffices).
    want: Binned,
    /// Order-free checksum of the input payload bits.
    payload_sum: u64,
}

impl Cell for Binning {
    type State<'c> = State<'c>;

    fn build<'c>(env: &'c Env, seed: u64) -> Result<State<'c>, String> {
        let r = |e: racc::Error| e.to_string();
        let (hk, hv) = span("bench.generate", || particles(seed));
        let keys = span("core.array_from", || env.ctx.array_from(&hk)).map_err(r)?;
        let values = span("core.array_from", || env.ctx.array_from(&hv)).map_err(r)?;
        let (tk, tv) = (
            env.twin.array_from(&hk).map_err(r)?,
            env.twin.array_from(&hv).map_err(r)?,
        );
        let want = download(&env.twin, &pass(&env.twin, &tk, &tv)?)?;
        let payload_sum = hv
            .iter()
            .fold(0u64, |s, v| s.wrapping_add(u64::from(v.to_bits())));
        Ok(State {
            ctx: &env.ctx,
            keys,
            values,
            want,
            payload_sum,
        })
    }
}

impl Runner for State<'_> {
    fn rep(&mut self) -> RepOutcome {
        racc_trace_begin(&[self.ctx]);
        let before = self.ctx.timeline();
        let t = Instant::now();
        let device = pass(self.ctx, &self.keys, &self.values);
        let mut out = RepOutcome::new(t.elapsed().as_secs_f64());
        let after = self.ctx.timeline();
        racc_trace_totals(&mut out, &[self.ctx]);
        out.push("modeled_ns", (after.modeled_ns - before.modeled_ns) as f64);
        out.push("launches", (after.launches - before.launches) as f64);
        out.push("reductions", (after.reductions - before.reductions) as f64);
        out.push("h2d_bytes", (after.h2d_bytes - before.h2d_bytes) as f64);
        out.push("d2h_bytes", (after.d2h_bytes - before.d2h_bytes) as f64);
        let got = match device.and_then(|d| download(self.ctx, &d)) {
            Ok(g) => g,
            Err(e) => {
                out.fail(e);
                return out;
            }
        };
        // Primitives are pinned bit-identical across backends.
        out.check(got == self.want, || {
            "binning outputs are not bit-identical to the serial twin".into()
        });
        // Invariants that hold whatever the twin says.
        out.check(got.counts.iter().sum::<u64>() == PARTICLES as u64, || {
            "histogram does not count every particle".into()
        });
        out.check(got.keys.windows(2).all(|w| w[0] <= w[1]), || {
            "keys not sorted".into()
        });
        out.check(
            got.offsets.first() == Some(&0)
                && got
                    .offsets
                    .windows(2)
                    .zip(&got.counts)
                    .all(|(w, c)| w[1] - w[0] == *c),
            || "offsets are not the exclusive scan of the counts".into(),
        );
        let sum = got
            .value_bits
            .iter()
            .fold(0u64, |s, b| s.wrapping_add(u64::from(*b)));
        out.check(sum == self.payload_sum, || {
            "payload changed under the sort".into()
        });
        out.check(
            got.frontier.len() == got.counts.iter().filter(|c| **c > 0).count()
                && got.frontier.windows(2).all(|w| w[0] < w[1]),
            || "frontier is not the ascending list of occupied cells".into(),
        );
        out.push("occupied_cells", got.frontier.len() as f64);
        out.push(
            "digest",
            digest(
                got.keys
                    .iter()
                    .map(|k| u64::from(*k))
                    .chain(got.value_bits.iter().map(|b| u64::from(*b))),
            ),
        );
        out
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let prim = self.ctx.stats().prim.unwrap_or_default();
        vec![
            ("prim_scans", prim.scans as f64),
            ("prim_histograms", prim.histograms as f64),
            ("prim_sorts", prim.sorts as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn particles_are_seeded_in_range_and_clustered() {
        let (k1, v1) = particles(11);
        let (k2, v2) = particles(11);
        assert!(k1 == k2 && v1 == v2, "same seed, same particles");
        assert_ne!(k1, particles(12).0);
        assert_eq!(k1.len(), PARTICLES);
        assert!(k1.iter().all(|k| (*k as usize) < CELLS));
        // Half of the particles sit in a few hundred cells.
        let mut counts = vec![0u32; CELLS];
        for k in &k1 {
            counts[*k as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top: u32 = counts[..CELLS / 16].iter().sum();
        assert!(top as usize > PARTICLES / 2, "cluster holds {top}");
    }
}
