//! The value bits of 2D and 3D reductions, pinned per back end.
//!
//! `vendor_pins.rs` pins what a reduction *costs*, `reduce_pinned.rs` and
//! `threads_reduce_is_deterministic` pin 1D values, and
//! `cross_backend_equivalence.rs` compares with a tolerance; nothing else
//! says which association a multi-dimensional reduction folds in. The bits
//! below were recorded at `21cdc43`, the commit before rank became an
//! argument of one `Backend::parallel_reduce`: serial folds the whole index
//! space column-major in one chain, `threads` folds each column (rank 2) or
//! plane (rank 3) and then the partials in tile order, the simulators
//! tree-reduce the column-major linearisation in 512-thread blocks. A
//! refactor of who owns the traversal may not move one of them, nor may
//! simsan, fusion or chaos (every cell of `common::cells` must match its
//! plain cell).

#![cfg(all(
    feature = "backend-cuda",
    feature = "backend-hip",
    feature = "backend-oneapi"
))]

mod common;

use common::{across, cells};
use racc::prelude::*;
use racc::Ctx;

/// Magnitudes thirteen decades apart with mixed sign, from exactly rounded
/// IEEE operations only: any reassociation of a sum shows in the bits, and
/// the maximum is not at an end of the range.
fn value64(idx: usize) -> f64 {
    const SCALE: [f64; 13] = [
        1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6,
    ];
    let sign = if idx.is_multiple_of(3) { -1.0 } else { 1.0 };
    sign * (1.5 + idx as f64) * SCALE[idx % 13]
}

fn value32(idx: usize) -> f32 {
    const SCALE: [f32; 7] = [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3];
    let sign = if idx.is_multiple_of(3) { -1.0 } else { 1.0 };
    sign * (1.5 + idx as f32) * SCALE[idx % 7]
}

/// Extents, padded with 1s past the rank: 2D with each axis long, short and
/// degenerate (m×1, 1×n), then 3D.
const SHAPES: [(usize, [usize; 3]); 6] = [
    (2, [300, 200, 1]),
    (2, [37, 23, 1]),
    (2, [61, 1, 1]),
    (2, [1, 53, 1]),
    (3, [20, 30, 40]),
    (3, [5, 6, 7]),
];

/// `[Sum f64, Max f64, Sum f32, Max f32]` bits of one shape.
type Bits = [u64; 4];

fn reduce_bits(ctx: &Ctx, rank: usize, [m, n, l]: [usize; 3]) -> Bits {
    let p = KernelProfile::dot();
    let lin = move |i: usize, j: usize, k: usize| (k * n + j) * m + i;
    if rank == 2 {
        let dims = (m, n);
        let f64s = |i, j| value64(lin(i, j, 0));
        let f32s = |i, j| value32(lin(i, j, 0));
        [
            ctx.parallel_reduce_2d_with(dims, &p, Sum, f64s).to_bits(),
            ctx.parallel_reduce_2d_with(dims, &p, Max, f64s).to_bits(),
            ctx.parallel_reduce_2d_with(dims, &p, Sum, f32s).to_bits() as u64,
            ctx.parallel_reduce_2d_with(dims, &p, Max, f32s).to_bits() as u64,
        ]
    } else {
        let dims = (m, n, l);
        let f64s = |i, j, k| value64(lin(i, j, k));
        let f32s = |i, j, k| value32(lin(i, j, k));
        [
            ctx.parallel_reduce_3d_with(dims, &p, Sum, f64s).to_bits(),
            ctx.parallel_reduce_3d_with(dims, &p, Max, f64s).to_bits(),
            ctx.parallel_reduce_3d_with(dims, &p, Sum, f32s).to_bits() as u64,
            ctx.parallel_reduce_3d_with(dims, &p, Max, f32s).to_bits() as u64,
        ]
    }
}

fn table(ctx: &Ctx) -> [Bits; 6] {
    SHAPES.map(|(rank, dims)| reduce_bits(ctx, rank, dims))
}

/// One back end of a test: its label, how to build its context, and the
/// table its plain cell must compute.
type Row = (&'static str, fn() -> racc::ContextBuilder, [Bits; 6]);

/// Compare every back end of one test before failing, printing what was
/// computed in the form of the tables below. Each row runs in every cell
/// `common::cells` gives it; its plain cell is held to its table.
fn check(rows: &[Row]) {
    let runs: Vec<(String, [Bits; 6], [Bits; 6])> = rows
        .iter()
        .flat_map(|&(who, base, want)| {
            across(&cells(who, base), table)
                .into_iter()
                .map(move |(who, got)| (who, got, want))
        })
        .collect();
    let moved: Vec<String> = runs
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(who, got, _)| {
            let rows = got.map(|[a, b, c, d]| format!("    [{a:#x}, {b:#x}, {c:#x}, {d:#x}],\n"));
            format!("{who}:\n{}", rows.concat())
        })
        .collect();
    assert!(
        moved.is_empty(),
        "reduction bits moved; got\n{}",
        moved.concat()
    );
}

const SERIAL: [Bits; 6] = [
    [
        0x42c74e324a04027e,
        0x422bee78a1400000,
        0x51b1793f,
        0x4c64df4f,
    ],
    [
        0x420328689a1ded53,
        0x41c932a730000000,
        0x4b8e366a,
        0x494d3340,
    ],
    [
        0x415f400b89c6cb93,
        0x4182d5c700000000,
        0x47af7548,
        0x475cb400,
    ],
    [
        0x415f45683814b37d,
        0x4182d5c700000000,
        0x4717e8a5,
        0x47260400,
    ],
    [
        0x429dcf4d53a63bd4,
        0x42165696bd800000,
        0x50630a3c,
        0x4bb7142a,
    ],
    [
        0x41bf2acdd8e9c4e5,
        0x41a74e2fc0000000,
        0x49a4a038,
        0x484d9100,
    ],
];
const THREADS_1: [Bits; 6] = [
    [
        0x42c74e324a0402e1,
        0x422bee78a1400000,
        0x51b1794f,
        0x4c64df4f,
    ],
    [
        0x420328689a1ded52,
        0x41c932a730000000,
        0x4b8e366b,
        0x494d3340,
    ],
    [
        0x415f400b89c6cb93,
        0x4182d5c700000000,
        0x47af7548,
        0x475cb400,
    ],
    [
        0x415f45683814b37d,
        0x4182d5c700000000,
        0x4717e8a5,
        0x47260400,
    ],
    [
        0x429dcf4d53a63bea,
        0x42165696bd800000,
        0x50630ac3,
        0x4bb7142a,
    ],
    [
        0x41bf2acdd8e9c4e3,
        0x41a74e2fc0000000,
        0x49a4a03a,
        0x484d9100,
    ],
];
const THREADS_4: [Bits; 6] = [
    [
        0x42c74e324a0402e0,
        0x422bee78a1400000,
        0x51b1794e,
        0x4c64df4f,
    ],
    [
        0x420328689a1ded53,
        0x41c932a730000000,
        0x4b8e366c,
        0x494d3340,
    ],
    [
        0x415f400b89c6cb93,
        0x4182d5c700000000,
        0x47af7548,
        0x475cb400,
    ],
    [
        0x415f45683814b388,
        0x4182d5c700000000,
        0x4717e8a7,
        0x47260400,
    ],
    [
        0x429dcf4d53a63bea,
        0x42165696bd800000,
        0x50630ac5,
        0x4bb7142a,
    ],
    [
        0x41bf2acdd8e9c4e2,
        0x41a74e2fc0000000,
        0x49a4a039,
        0x484d9100,
    ],
];
/// The same on all three vendors: each reduces in 512-thread blocks.
const SIMULATORS: [Bits; 6] = [
    [
        0x42c74e324a0402df,
        0x422bee78a1400000,
        0x51b1794e,
        0x4c64df4f,
    ],
    [
        0x420328689a1ded52,
        0x41c932a730000000,
        0x4b8e366c,
        0x494d3340,
    ],
    [
        0x415f400b89c6cb9c,
        0x4182d5c700000000,
        0x47af754a,
        0x475cb400,
    ],
    [
        0x415f45683814b384,
        0x4182d5c700000000,
        0x4717e8a8,
        0x47260400,
    ],
    [
        0x429dcf4d53a63bea,
        0x42165696bd800000,
        0x50630ac6,
        0x4bb7142a,
    ],
    [
        0x41bf2acdd8e9c4e2,
        0x41a74e2fc0000000,
        0x49a4a03a,
        0x484d9100,
    ],
];

#[test]
fn serial_bits() {
    check(&[("serial", || racc::builder().backend("serial"), SERIAL)]);
}

#[test]
fn threads_bits_with_one_and_four_workers() {
    // `Schedule::Static`, the default.
    check(&[
        (
            "threads x1",
            || racc::builder().backend("threads").threads(1),
            THREADS_1,
        ),
        (
            "threads x4",
            || racc::builder().backend("threads").threads(4),
            THREADS_4,
        ),
    ]);
}

#[test]
fn simulator_bits_on_every_vendor() {
    check(&[
        ("cudasim", || racc::builder().backend("cudasim"), SIMULATORS),
        ("hipsim", || racc::builder().backend("hipsim"), SIMULATORS),
        (
            "oneapisim",
            || racc::builder().backend("oneapisim"),
            SIMULATORS,
        ),
    ]);
}
