//! The hand-written vendor kernels under simsan, the simulator's sanitizer.
//!
//! Each vendor's AXPY and two-kernel shared-memory DOT (and the 2D pair)
//! run on a device whose sanitizer is switched on through the vendor
//! shim's own `set_sanitizer(true)`: every device access is tracked
//! against the phases of the DOT's tree, and a thread the DOT kernels
//! declare idle (`active_threads`) panics if it touches device memory.
//! The results must be the plain device's bits, within rounding of the
//! serial reference, and the report clean once the arrays are dropped.

use racc_blas::{reference, vendor};
use racc_gpusim::SanitizerReport;

/// Around the 256- and 512-wide blocks and work-groups of the DOTs, and
/// several blocks.
const SIZES: [usize; 6] = [1, 255, 257, 511, 513, 3000];

/// `m × n` of the 2D pair.
const M: usize = 100;
const N: usize = 60;

fn host(n: usize, salt: usize) -> (Vec<f64>, Vec<f64>) {
    let x = (0..n).map(|i| ((i * 3 + salt) % 13) as f64 * 0.5).collect();
    let y = (0..n)
        .map(|i| ((i * 7 + salt) % 11) as f64 * 0.25)
        .collect();
    (x, y)
}

/// Checks one AXPY + DOT against the reference and returns its bits.
fn checked(hx: &[f64], hy: &[f64], alpha: f64, x: Vec<f64>, dot: f64) -> Vec<u64> {
    let mut want = hx.to_vec();
    reference::axpy(alpha, &mut want, hy);
    assert_eq!(x, want, "axpy, n = {}", hx.len());
    let want_dot = reference::dot(&want, hy);
    assert!(
        (dot - want_dot).abs() <= 1e-9 * want_dot.abs().max(1.0),
        "dot, n = {}: {dot} vs {want_dot}",
        hx.len()
    );
    x.iter().chain([&dot]).map(|v| v.to_bits()).collect()
}

/// Runs every size and the 2D pair on a fresh device of `$api`, with the
/// sanitizer as `$sanitize` says, and returns the result bits and the
/// sanitizer report taken after every array is dropped.
macro_rules! run {
    ($api:ty, $upload:ident, $vendor:ident, $sanitize:expr) => {{
        let api = <$api>::new();
        api.set_sanitizer($sanitize);
        let mut bits = Vec::new();
        for (salt, n) in SIZES.into_iter().enumerate() {
            let (hx, hy) = host(n, salt);
            let (dx, dy) = (api.$upload(&hx).unwrap(), api.$upload(&hy).unwrap());
            vendor::$vendor::axpy(&api, 1.5, &dx, &dy);
            let (dot, _) = vendor::$vendor::dot(&api, &dx, &dy);
            bits.extend(checked(&hx, &hy, 1.5, api.to_host(&dx).unwrap(), dot));
        }
        let (hx, hy) = host(M * N, 7);
        let (dx, dy) = (api.$upload(&hx).unwrap(), api.$upload(&hy).unwrap());
        vendor::$vendor::axpy_2d(&api, -0.75, M, N, &dx, &dy);
        let (dot, _) = vendor::$vendor::dot_2d(&api, M, N, &dx, &dy);
        bits.extend(checked(&hx, &hy, -0.75, api.to_host(&dx).unwrap(), dot));
        drop((dx, dy));
        (bits, api.sanitizer_report())
    }};
}

fn assert_clean(vendor: &str, report: Option<SanitizerReport>) {
    let report = report.unwrap_or_else(|| panic!("{vendor}: the sanitizer is off"));
    assert!(report.live_allocations.is_empty(), "{vendor}: {report}");
    assert_eq!(report.bytes_outstanding, 0, "{vendor}: {report}");
    // 7 AXPYs and 7 DOTs of two launches each, every one checked.
    assert_eq!(report.launches_checked, 21, "{vendor}: {report}");
    assert!(report.reads_tracked > 0, "{vendor}: {report}");
}

#[test]
fn vendor_axpy_and_dot_are_clean_under_simsan() {
    let (plain, off) = run!(racc_cudasim::Cuda, cu_array, cuda, false);
    assert!(off.is_none());
    let (bits, report) = run!(racc_cudasim::Cuda, cu_array, cuda, true);
    assert_eq!(bits, plain, "cuda: simsan changed a bit");
    assert_clean("cuda", report);

    let (plain, _) = run!(racc_hipsim::Hip, roc_array, hip, false);
    let (bits, report) = run!(racc_hipsim::Hip, roc_array, hip, true);
    assert_eq!(bits, plain, "hip: simsan changed a bit");
    assert_clean("hip", report);

    let (plain, _) = run!(racc_oneapisim::OneApi, one_array, oneapi, false);
    let (bits, report) = run!(racc_oneapisim::OneApi, one_array, oneapi, true);
    assert_eq!(bits, plain, "oneapi: simsan changed a bit");
    assert_clean("oneapi", report);
}
