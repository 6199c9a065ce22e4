//! The three vendor descriptions, checked once each through the front
//! end: identity, the modeled cost of every construct shape the vendor
//! parameters feed (`racc_launch_extra_ns`, the 2D/3D tiles,
//! `reduce_block`, `reduce_time_factor`), and the behaviours the three
//! vendor crates used to smoke-test one vendor apiece.
//!
//! The `modeled_ns` constants were recorded at the commit before the
//! vendors became data (PR 12, `2f3beae`); a refactor of who owns the
//! parameters may not move one of them.

use std::sync::Arc;

use racc::prelude::*;
use racc::{Ctx, Vendor};
use racc_gpusim::Device;

/// Modeled nanoseconds of each pinned construct, in the order
/// [`measure`] runs them.
const SHAPES: [&str; 11] = [
    "axpy n=65536",
    "dot n=65536",
    "for_2d 300x200",
    "for_3d 20x30x40",
    "reduce_2d 300x200",
    "reduce_3d 20x30x40",
    "empty for_1d",
    "empty for_2d",
    "empty for_3d",
    "empty reduce",
    "inclusive_scan n=5000",
];

struct VendorPin {
    vendor: &'static Vendor,
    key: &'static str,
    device: &'static str,
    modeled_ns: [u64; 11],
}

const PINS: [VendorPin; 3] = [
    VendorPin {
        vendor: &racc::CUDA,
        key: "cudasim",
        device: "A100",
        modeled_ns: [
            8497, 17097, 8034, 7929, 17026, 16935, 1200, 1200, 1200, 1200, 34410,
        ],
    },
    VendorPin {
        vendor: &racc::HIP,
        key: "hipsim",
        device: "MI100",
        modeled_ns: [
            16032, 31516, 14854, 14854, 31512, 31478, 1500, 1500, 1500, 1500, 56592,
        ],
    },
    VendorPin {
        vendor: &racc::ONEAPI,
        key: "oneapisim",
        device: "Max 1550",
        modeled_ns: [
            36472, 83945, 32148, 32148, 83900, 83584, 1500, 1500, 1500, 1500, 296003,
        ],
    },
];

fn modeled(ctx: &Ctx, op: impl FnOnce()) -> u64 {
    ctx.reset_timeline();
    op();
    ctx.modeled_ns()
}

fn measure(ctx: &Ctx) -> [u64; 11] {
    let n = 65_536usize;
    let x = ctx.array_from_fn(n, |i| (i % 17) as f64).unwrap();
    let y = ctx.array_from_fn(n, |i| ((i + 3) % 13) as f64).unwrap();
    let small = ctx.array_from_fn(5_000, |i| (i % 7) as f64).unwrap();
    let unknown = KernelProfile::unknown();
    [
        modeled(ctx, || {
            let (xv, yv) = (x.view_mut(), y.view());
            ctx.parallel_for(n, &KernelProfile::axpy(), move |i| {
                xv.set(i, xv.get(i) + 2.5 * yv.get(i));
            });
        }),
        modeled(ctx, || {
            let (xv, yv) = (x.view(), y.view());
            let _: f64 =
                ctx.parallel_reduce(n, &KernelProfile::dot(), move |i| xv.get(i) * yv.get(i));
        }),
        modeled(ctx, || ctx.parallel_for_2d((300, 200), &unknown, |_, _| {})),
        modeled(ctx, || {
            ctx.parallel_for_3d((20, 30, 40), &unknown, |_, _, _| {})
        }),
        modeled(ctx, || {
            let _: f64 = ctx.parallel_reduce_2d((300, 200), &unknown, |i, j| (i + j) as f64);
        }),
        modeled(ctx, || {
            let _: f64 =
                ctx.parallel_reduce_3d((20, 30, 40), &unknown, |i, j, k| (i + j + k) as f64);
        }),
        modeled(ctx, || ctx.parallel_for(0, &unknown, |_| {})),
        modeled(ctx, || ctx.parallel_for_2d((0, 5), &unknown, |_, _| {})),
        modeled(ctx, || {
            ctx.parallel_for_3d((1, 0, 1), &unknown, |_, _, _| {})
        }),
        modeled(ctx, || {
            let _: f64 = ctx.parallel_reduce(0, &unknown, |_| 1.0);
        }),
        modeled(ctx, || {
            ctx.inclusive_scan(&small).unwrap();
        }),
    ]
}

#[test]
fn identity_and_modeled_costs_are_pinned_per_vendor() {
    for pin in &PINS {
        assert_eq!(pin.vendor.key, pin.key);
        let ctx = racc::context_for(pin.key).unwrap();
        assert_eq!(ctx.key(), pin.key);
        assert!(ctx.is_accelerator(), "{}", pin.key);
        let name = ctx.name();
        assert!(
            name.contains(pin.key) && name.contains(pin.device),
            "{name}"
        );
        let got = measure(&ctx);
        for (shape, (got, want)) in SHAPES.iter().zip(got.iter().zip(&pin.modeled_ns)) {
            assert_eq!(got, want, "{}: modeled ns of {shape}", pin.key);
        }
    }
}

#[test]
fn the_same_racc_code_runs_on_every_vendor() {
    for pin in &PINS {
        let ctx = racc::context_for(pin.key).unwrap();

        // AXPY then a sum through the front end.
        let n = 50_000usize;
        let x = ctx.array_from_fn(n, |i| i as f64).unwrap();
        let y = ctx.array_from_fn(n, |_| 2.0f64).unwrap();
        let (xv, yv) = (x.view_mut(), y.view());
        ctx.parallel_for(n, &KernelProfile::axpy(), move |i| {
            xv.set(i, xv.get(i) + 0.5 * yv.get(i));
        });
        assert_eq!(ctx.to_host(&x).unwrap()[10], 11.0, "{}", pin.key);
        let xv = x.view();
        let total: f64 = ctx.parallel_reduce(n, &KernelProfile::dot(), move |i| xv.get(i));
        let expect = (0..n).map(|i| i as f64 + 1.0).sum::<f64>();
        assert!((total - expect).abs() < 1e-6, "{}: {total}", pin.key);

        // Small integers sum exactly whatever the device's reduction tree.
        let m = 12_345usize;
        let z = ctx.array_from_fn(m, |i| (i % 3) as f64).unwrap();
        let zv = z.view();
        let sum: f64 = ctx.parallel_reduce(m, &KernelProfile::dot(), move |i| zv.get(i));
        let exact = (0..m).map(|i| (i % 3) as f64).sum::<f64>();
        assert_eq!(sum, exact, "{}", pin.key);

        // A guard-heavy 2D kernel like the paper's LBM: interior update.
        let s = 64usize;
        let f = ctx.array2_from_fn(s, s, |i, j| (i + j) as f64).unwrap();
        let out = ctx.zeros2::<f64>(s, s).unwrap();
        let (fv, ov) = (f.view(), out.view_mut());
        ctx.parallel_for_2d((s, s), &KernelProfile::unknown(), move |x, y| {
            if x > 0 && x < s - 1 && y > 0 && y < s - 1 {
                let avg =
                    (fv.get(x - 1, y) + fv.get(x + 1, y) + fv.get(x, y - 1) + fv.get(x, y + 1))
                        / 4.0;
                ov.set(x, y, avg);
            }
        });
        let host = ctx.to_host2(&out).unwrap();
        // f(i,j) = i+j is harmonic: the 4-neighbour average of (1,1) is f(1,1).
        assert_eq!(host[s + 1], 2.0, "{}", pin.key);
        assert_eq!(host[0], 0.0, "{}: boundary untouched", pin.key);
    }
}

#[test]
fn a_racc_launch_advances_the_shared_vendor_clock() {
    // Device-specific code and RACC constructs over one `Device`
    // accumulate on one clock, whatever the vendor description.
    for pin in &PINS {
        let device = Arc::new(Device::new((pin.vendor.stock_device)()));
        let ctx = racc::builder()
            .backend(pin.key)
            .device(Arc::clone(&device))
            .build()
            .unwrap();
        let clock0 = device.clock_ns();
        ctx.parallel_for(1024, &KernelProfile::axpy(), |_| {});
        assert!(device.clock_ns() > clock0, "{}", pin.key);
    }
}
