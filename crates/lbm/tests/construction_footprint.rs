//! What building an `LbmSim` costs in host memory and in uploads. The only
//! test in its binary: `VmHWM` is the whole process's peak, which a test
//! running beside it would raise.
#![cfg(target_os = "linux")]

use racc_backend_common::cuda_backend;
use racc_core::{Context, SerialBackend};
use racc_gpusim::OpKind;
use racc_lbm::lattice::Q;
use racc_lbm::portable::LbmSim;

const S: usize = 512;
const LATTICE_BYTES: usize = Q * S * S * 8;

fn fields(x: usize, y: usize) -> (f64, f64, f64) {
    (1.0 + 0.001 * ((x + y) % 7) as f64, 0.01, -0.005)
}

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"));
    let kb: usize = line.trim().trim_end_matches("kB").trim().parse().unwrap();
    kb * 1024
}

#[test]
fn construction_holds_two_lattices_and_uploads_two() {
    // Peak resident memory: the scratch lattice `f` stays the kernel's
    // zero pages, and `f1`/`f2` are written in place — no host lattice
    // beside them. Reset the high-water mark to the current RSS first
    // (`clear_refs` 5); a kernel without it leaves the start-up peak,
    // which only makes the rise smaller.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let before = status_bytes("VmHWM:");
    let ctx = Context::new(SerialBackend::new());
    let sim = LbmSim::new(&ctx, S, 0.8, fields).unwrap();
    let rise = status_bytes("VmHWM:") - before;
    let bound = 2 * LATTICE_BYTES + (4 << 20);
    assert!(
        rise <= bound,
        "VmHWM rose {:.1} MiB building a {S}² lattice set; at most {:.1} MiB (two lattices + 4 MiB)",
        rise as f64 / f64::from(1 << 20),
        bound as f64 / f64::from(1 << 20)
    );
    drop(sim);

    // The simulator: `f` is a reservation, `f1` and `f2` one upload each.
    let ctx = Context::new(cuda_backend());
    let _sim = LbmSim::new(&ctx, S, 0.8, fields).unwrap();
    let log: Vec<(OpKind, u64)> = ctx
        .backend()
        .device()
        .op_log()
        .iter()
        .map(|r| (r.kind, r.bytes))
        .collect();
    let upload = (OpKind::H2D, LATTICE_BYTES as u64);
    assert_eq!(log, [upload, upload]);
}
