//! Loop-scheduling policies, chunk arithmetic, and the tile lowering the
//! work-stealing core executes.

/// How a 1D iteration space is divided among participants.
///
/// `Static` is the OpenMP-style blocked schedule Julia's `Threads.@threads`
/// uses by default; `Dynamic` load-balances via work stealing: the range is
/// split into grain-sized tiles that idle participants steal from busy ones,
/// better for irregular iteration costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Each participant gets one contiguous block of roughly `n / P`
    /// iterations. Blocks may *execute* on any participant (stealing moves
    /// whole blocks), but the block boundaries — and therefore every
    /// reduction's combine order — are fixed by `n` and `P` alone.
    #[default]
    Static,
    /// The range is split into tiles of the given grain that participants
    /// pop locally (LIFO) and steal from each other (FIFO). A grain of 0
    /// picks a heuristic (`n / (8 P)` clamped to `[1, 4096]`).
    Dynamic {
        /// Iterations per tile; 0 selects the heuristic.
        chunk: usize,
    },
}

impl Schedule {
    /// Resolve the chunk size — the tile grain of the work-stealing core —
    /// this schedule uses for `n` iterations across `participants` threads.
    /// `Dynamic { chunk > 0 }` is honored verbatim; `Static` resolves to its
    /// block size (the static tiling does not consume a grain, but callers
    /// may still ask).
    ///
    /// An empty range resolves to 0 for **every** variant: there is nothing
    /// to chunk, matching `chunks(0, c)` yielding no chunks. (Earlier
    /// versions returned `max(1)` for `Static` here, which disagreed with
    /// the chunk iterators and made callers special-case `n == 0`.)
    ///
    /// The auto heuristic (`chunk: 0`) is `n / (8 P)` clamped to
    /// `[1, 4096]`, set by the schedule sweep of EXPERIMENTS.md "Ablations":
    /// eight chunks per participant amortize the per-tile dispatch overhead
    /// — measured ~4x slower with single-iteration tiles on cheap work —
    /// while the cap bounds the tail imbalance a skewed workload can hit
    /// when `n` is huge.
    pub fn dynamic_chunk(self, n: usize, participants: usize) -> usize {
        if n == 0 {
            return 0;
        }
        match self {
            Schedule::Static => split_block(n, participants, 0).1.max(1),
            Schedule::Dynamic { chunk: 0 } => (n / (8 * participants.max(1))).clamp(1, 4096),
            Schedule::Dynamic { chunk } => chunk,
        }
    }
}

/// How a launch's index space is cut into steal-able tiles. Tile boundaries
/// depend only on `(n, schedule, participants)` — never on which participant
/// executes which tile — which is what keeps reductions deterministic under
/// stealing: every tile owns a fixed partial slot and the caller combines
/// slots in ascending tile order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tiling {
    /// `Static`: `parts` contiguous blocks from [`static_block`], sizes
    /// differing by at most one. Whole blocks move when stolen, preserving
    /// the blocked schedule's combine association exactly.
    Blocks { n: usize, parts: usize },
    /// `Dynamic`: fixed-size tiles of `grain` iterations (last one ragged).
    Grain { n: usize, grain: usize },
}

impl Tiling {
    /// Lower a schedule for a `parallel_for` launch.
    pub(crate) fn new(schedule: Schedule, n: usize, participants: usize) -> Tiling {
        match schedule {
            Schedule::Static => Tiling::Blocks {
                n,
                parts: participants.min(n).max(1),
            },
            dynamic => Tiling::Grain {
                n,
                grain: dynamic.dynamic_chunk(n, participants).max(1),
            },
        }
    }

    /// Lower a schedule for a reduction: like [`Tiling::new`], but the tile
    /// count is clamped to `max_tiles` (each tile owns a 128-byte partial
    /// slot in the caller's scratch, so an unbounded tile count would make a
    /// `chunk: 1` reduction allocate `n` slots).
    pub(crate) fn with_max_tiles(
        schedule: Schedule,
        n: usize,
        participants: usize,
        max_tiles: usize,
    ) -> Tiling {
        match Tiling::new(schedule, n, participants) {
            Tiling::Grain { n, grain } => Tiling::Grain {
                n,
                grain: grain.max(n.div_ceil(max_tiles.max(1))),
            },
            blocks => blocks,
        }
    }

    /// Number of tiles in the launch.
    pub(crate) fn tiles(self) -> usize {
        match self {
            Tiling::Blocks { n, parts } => {
                if n == 0 {
                    0
                } else {
                    parts
                }
            }
            Tiling::Grain { n, grain } => n.div_ceil(grain.max(1)).min(n),
        }
    }

    /// The `[start, end)` element range of tile `t`.
    pub(crate) fn tile_range(self, t: usize) -> (usize, usize) {
        match self {
            Tiling::Blocks { n, parts } => static_block(n, parts, t),
            Tiling::Grain { n, grain } => {
                let start = t * grain;
                (start, (start + grain).min(n))
            }
        }
    }

    /// The contiguous element span covered by tiles `[t0, t1)`: what a
    /// `parallel_for` task runs, and how the trace path labels it.
    pub(crate) fn elem_span(self, t0: usize, t1: usize) -> (usize, usize) {
        debug_assert!(t0 < t1);
        (self.tile_range(t0).0, self.tile_range(t1 - 1).1)
    }
}

/// The `[start, end)` range participant `who` of `participants` handles under
/// the static schedule. Remainder iterations go to the lowest-ranked
/// participants, so block sizes differ by at most one.
pub fn static_block(n: usize, participants: usize, who: usize) -> (usize, usize) {
    debug_assert!(who < participants.max(1));
    let p = participants.max(1);
    let base = n / p;
    let rem = n % p;
    let start = who * base + who.min(rem);
    let len = base + usize::from(who < rem);
    (start, start + len)
}

fn split_block(n: usize, participants: usize, who: usize) -> (usize, usize) {
    let (s, e) = static_block(n, participants.max(1), who);
    (s, e - s)
}

/// Number of chunks of size `chunk` covering `n` iterations.
pub fn chunk_count(n: usize, chunk: usize) -> usize {
    n.div_ceil(chunk.max(1))
}

/// Iterate the `[start, end)` ranges of all chunks of size `chunk` over `n`.
pub fn chunks(n: usize, chunk: usize) -> impl Iterator<Item = (usize, usize)> {
    let chunk = chunk.max(1);
    (0..chunk_count(n, chunk)).map(move |c| {
        let start = c * chunk;
        (start, (start + chunk).min(n))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_blocks_partition_exactly() {
        for n in [0usize, 1, 7, 64, 101] {
            for p in [1usize, 2, 3, 8, 13] {
                let mut covered = 0;
                let mut prev_end = 0;
                for who in 0..p {
                    let (s, e) = static_block(n, p, who);
                    assert_eq!(s, prev_end, "blocks must be contiguous");
                    assert!(e >= s);
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, n, "n={n} p={p}");
                assert_eq!(prev_end, n);
            }
        }
    }

    #[test]
    fn static_blocks_balanced_within_one() {
        let p = 7;
        let n = 100;
        let sizes: Vec<usize> = (0..p)
            .map(|w| {
                let (s, e) = static_block(n, p, w);
                e - s
            })
            .collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
    }

    #[test]
    fn chunks_cover_range() {
        for n in [0usize, 1, 9, 10, 11] {
            for c in [1usize, 3, 10, 100] {
                let mut next = 0;
                for (s, e) in chunks(n, c) {
                    assert_eq!(s, next);
                    assert!(e - s <= c);
                    next = e;
                }
                assert_eq!(next, n);
                assert_eq!(chunks(n, c).count(), chunk_count(n, c));
            }
        }
    }

    #[test]
    fn zero_chunk_treated_as_one() {
        assert_eq!(chunk_count(5, 0), 5);
        assert_eq!(chunks(3, 0).count(), 3);
    }

    #[test]
    fn dynamic_chunk_heuristic() {
        assert_eq!(Schedule::Dynamic { chunk: 0 }.dynamic_chunk(1600, 4), 50);
        assert_eq!(Schedule::Dynamic { chunk: 0 }.dynamic_chunk(3, 4), 1);
        // Huge iteration spaces are capped so skewed workloads keep their
        // load balance (at most 4096 iterations ride on one tile).
        assert_eq!(
            Schedule::Dynamic { chunk: 0 }.dynamic_chunk(1_000_000, 4),
            4096
        );
        // An explicit grain is honored verbatim.
        assert_eq!(Schedule::Dynamic { chunk: 7 }.dynamic_chunk(1600, 4), 7);
        assert_eq!(Schedule::Dynamic { chunk: 13 }.dynamic_chunk(1000, 4), 13);
        // Static resolves to the per-participant block size.
        assert_eq!(Schedule::Static.dynamic_chunk(100, 4), 25);
    }

    #[test]
    fn empty_range_resolves_to_zero_for_every_variant() {
        // Unified with `chunks(0, c)` yielding nothing; Static used to
        // return `max(1)` here.
        for sched in [
            Schedule::Static,
            Schedule::Dynamic { chunk: 0 },
            Schedule::Dynamic { chunk: 7 },
        ] {
            assert_eq!(sched.dynamic_chunk(0, 4), 0, "{sched:?}");
        }
    }

    #[test]
    fn tiling_partitions_exactly() {
        for (n, p) in [(0usize, 4usize), (1, 4), (7, 4), (100, 4), (101, 3), (3, 8)] {
            for sched in [
                Schedule::Static,
                Schedule::Dynamic { chunk: 0 },
                Schedule::Dynamic { chunk: 5 },
            ] {
                let tiling = Tiling::new(sched, n, p);
                let tiles = tiling.tiles();
                if n == 0 {
                    assert_eq!(tiles, 0, "{sched:?} n={n}");
                    continue;
                }
                let mut next = 0;
                for t in 0..tiles {
                    let (s, e) = tiling.tile_range(t);
                    assert_eq!(s, next, "{sched:?} n={n} t={t}");
                    assert!(e > s, "{sched:?} n={n} t={t}");
                    next = e;
                }
                assert_eq!(next, n, "{sched:?} n={n}");
                assert_eq!(tiling.elem_span(0, tiles), (0, n));
            }
        }
    }

    #[test]
    fn reduce_tiling_clamps_tile_count() {
        let t = Tiling::with_max_tiles(Schedule::Dynamic { chunk: 1 }, 100_000, 4, 1024);
        assert!(t.tiles() <= 1024, "tiles={}", t.tiles());
        // Static blocks are already bounded by the participant count.
        let t = Tiling::with_max_tiles(Schedule::Static, 100_000, 4, 1024);
        assert_eq!(t.tiles(), 4);
    }
}
