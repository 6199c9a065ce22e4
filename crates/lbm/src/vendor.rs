//! Device-specific LBM implementations — the comparison codes of Fig. 11.
//!
//! One implementation per vendor API plus the direct thread-pool CPU code.
//! Each `step()` returns the modeled nanoseconds of the time step.

use racc_core::cpumodel::CpuSpec;
use racc_gpusim::KernelCost;
use racc_threadpool::{Schedule, ThreadPool};

use crate::lattice::{bgk_collide, equilibrium, fidx, is_interior, pull, site, Q};
use crate::lbm_profile;
use crate::reference::SerialLbm;

fn lbm_cost() -> KernelCost {
    let p = lbm_profile();
    KernelCost::new(
        p.flops_per_iter,
        p.bytes_read_per_iter,
        p.bytes_written_per_iter,
        p.coalescing,
    )
}

/// Initial equilibrium distributions for a uniform `(rho, ux, uy)` state.
pub fn uniform_init(s: usize, rho: f64, ux: f64, uy: f64) -> Vec<f64> {
    let mut init = vec![0.0; Q * s * s];
    for k in 0..Q {
        for x in 0..s {
            for y in 0..s {
                init[fidx(k, x, y, s)] = equilibrium(k, rho, ux, uy);
            }
        }
    }
    init
}

/// CUDA-specific LBM: 16×16 thread tiles over the paper's Fig. 10 storage,
/// the fast thread id on the contiguous `y` ([`site`]).
pub struct CudaLbm {
    cuda: racc_cudasim::Cuda,
    s: usize,
    tau: f64,
    f: racc_cudasim::CuArray<f64>,
    f1: racc_cudasim::CuArray<f64>,
    f2: racc_cudasim::CuArray<f64>,
    flip: bool,
}

impl CudaLbm {
    /// Build on a fresh simulated A100 from initial distributions.
    pub fn new(s: usize, tau: f64, init: &[f64]) -> Self {
        assert_eq!(init.len(), Q * s * s);
        let cuda = racc_cudasim::Cuda::new();
        let f = cuda.zeros::<f64>(Q * s * s).expect("scratch");
        let f1 = cuda.cu_array(init).expect("f1");
        let f2 = cuda.cu_array(init).expect("f2");
        CudaLbm {
            cuda,
            s,
            tau,
            f,
            f1,
            f2,
            flip: false,
        }
    }

    /// One time step; returns modeled nanoseconds.
    pub fn step(&mut self) -> u64 {
        let (s, tau) = (self.s, self.tau);
        let (cur, next) = if self.flip {
            (&self.f2, &self.f1)
        } else {
            (&self.f1, &self.f2)
        };
        let f = self.cuda.view_mut(&self.f).expect("own");
        let f1 = self.cuda.view(cur).expect("own");
        let f2 = self.cuda.view_mut(next).expect("own");
        let tiles = 16u32;
        let gx = s.div_ceil(tiles as usize) as u32;
        let gy = s.div_ceil(tiles as usize) as u32;
        let e0 = self.cuda.record_event();
        self.cuda
            .launch_2d((tiles, tiles), (gx, gy), 0, lbm_cost(), |t| {
                let (x, y) = site(t.global_id_x(), t.global_id_y());
                site_update_slices(x, y, s, tau, &f, &f1, &f2);
            })
            .expect("lbm launch");
        let e1 = self.cuda.record_event();
        self.flip = !self.flip;
        e0.elapsed_ns(&e1)
    }

    /// Download the current distributions.
    pub fn distributions(&self) -> Vec<f64> {
        let cur = if self.flip { &self.f2 } else { &self.f1 };
        self.cuda.to_host(cur).expect("download")
    }
}

/// HIP-specific LBM on the simulated MI100 (same launch shape as
/// [`CudaLbm`]).
pub struct HipLbm {
    hip: racc_hipsim::Hip,
    s: usize,
    tau: f64,
    f: racc_hipsim::RocArray<f64>,
    f1: racc_hipsim::RocArray<f64>,
    f2: racc_hipsim::RocArray<f64>,
    flip: bool,
}

impl HipLbm {
    /// Build on a fresh simulated MI100.
    pub fn new(s: usize, tau: f64, init: &[f64]) -> Self {
        assert_eq!(init.len(), Q * s * s);
        let hip = racc_hipsim::Hip::new();
        let f = hip.zeros::<f64>(Q * s * s).expect("scratch");
        let f1 = hip.roc_array(init).expect("f1");
        let f2 = hip.roc_array(init).expect("f2");
        HipLbm {
            hip,
            s,
            tau,
            f,
            f1,
            f2,
            flip: false,
        }
    }

    /// One time step; returns modeled nanoseconds.
    pub fn step(&mut self) -> u64 {
        let (s, tau) = (self.s, self.tau);
        let (cur, next) = if self.flip {
            (&self.f2, &self.f1)
        } else {
            (&self.f1, &self.f2)
        };
        let f = self.hip.view_mut(&self.f).expect("own");
        let f1 = self.hip.view(cur).expect("own");
        let f2 = self.hip.view_mut(next).expect("own");
        let tiles = 16u32;
        let gx = s.div_ceil(tiles as usize) as u32;
        let gy = s.div_ceil(tiles as usize) as u32;
        let e0 = self.hip.record_event();
        self.hip
            .launch_2d((tiles, tiles), (gx, gy), 0, lbm_cost(), |t| {
                let (x, y) = site(t.global_id_x(), t.global_id_y());
                site_update_slices(x, y, s, tau, &f, &f1, &f2);
            })
            .expect("lbm launch");
        let e1 = self.hip.record_event();
        self.flip = !self.flip;
        e0.elapsed_ns(&e1)
    }

    /// Download the current distributions.
    pub fn distributions(&self) -> Vec<f64> {
        let cur = if self.flip { &self.f2 } else { &self.f1 };
        self.hip.to_host(cur).expect("download")
    }
}

/// oneAPI-specific LBM on the simulated Max 1550. SYCL inverts the ids
/// (Fig. 7: dim 1 is the fast one), so dim 1 is what lands on `y`.
pub struct OneApiLbm {
    one: racc_oneapisim::OneApi,
    s: usize,
    tau: f64,
    f: racc_oneapisim::OneArray<f64>,
    f1: racc_oneapisim::OneArray<f64>,
    f2: racc_oneapisim::OneArray<f64>,
    flip: bool,
}

impl OneApiLbm {
    /// Build on a fresh simulated Max 1550.
    pub fn new(s: usize, tau: f64, init: &[f64]) -> Self {
        assert_eq!(init.len(), Q * s * s);
        let one = racc_oneapisim::OneApi::new();
        let f = one.zeros::<f64>(Q * s * s).expect("scratch");
        let f1 = one.one_array(init).expect("f1");
        let f2 = one.one_array(init).expect("f2");
        OneApiLbm {
            one,
            s,
            tau,
            f,
            f1,
            f2,
            flip: false,
        }
    }

    /// One time step; returns modeled nanoseconds.
    pub fn step(&mut self) -> u64 {
        let (s, tau) = (self.s, self.tau);
        let (cur, next) = if self.flip {
            (&self.f2, &self.f1)
        } else {
            (&self.f1, &self.f2)
        };
        let f = self.one.view_mut(&self.f).expect("own");
        let f1 = self.one.view(cur).expect("own");
        let f2 = self.one.view_mut(next).expect("own");
        let tiles = 16u32;
        let gx = s.div_ceil(tiles as usize) as u32;
        let gy = s.div_ceil(tiles as usize) as u32;
        let e0 = self.one.record_event();
        self.one
            .launch_2d((tiles, tiles), (gx, gy), 0, lbm_cost(), |item| {
                let (x, y) = site(item.get_global_id(1), item.get_global_id(0));
                site_update_slices(x, y, s, tau, &f, &f1, &f2);
            })
            .expect("lbm launch");
        let e1 = self.one.record_event();
        self.flip = !self.flip;
        e0.elapsed_ns(&e1)
    }

    /// Download the current distributions.
    pub fn distributions(&self) -> Vec<f64> {
        let cur = if self.flip { &self.f2 } else { &self.f1 };
        self.one.to_host(cur).expect("download")
    }
}

/// The interior site update against simulator slices (shared by the three
/// GPU vendor codes; each passes its own vendor-obtained views).
#[inline]
fn site_update_slices(
    x: usize,
    y: usize,
    s: usize,
    tau: f64,
    f: &racc_gpusim::DeviceSliceMut<f64>,
    f1: &racc_gpusim::DeviceSlice<f64>,
    f2: &racc_gpusim::DeviceSliceMut<f64>,
) {
    if !is_interior(x, y, s) {
        return;
    }
    let pulled = pull(x, y, |k, xs, ys| f1.get(fidx(k, xs, ys, s)));
    let next = bgk_collide(&pulled, tau);
    for (k, &v) in pulled.iter().enumerate() {
        f.set(fidx(k, x, y, s), v);
    }
    for (k, &v) in next.iter().enumerate() {
        f2.set(fidx(k, x, y, s), v);
    }
}

/// Doubles per cache line and per page.
const LINE: usize = 8;
const PAGE: usize = 512;

/// Where the three lattices of `n` doubles start inside one block: lattice
/// `j` on line `j` of a page — the placement `racc-core` gives the portable
/// side's three arrays. Three separate `Vec`s of a 512² lattice start at
/// one page offset, and with planes 2 MiB and rows 4 KiB apart the 27
/// streams of a site then share a single L1 set.
fn lattice_starts(n: usize) -> [usize; 3] {
    let mut starts = [0; 3];
    for j in 1..3 {
        let end = starts[j - 1] + n;
        starts[j] = end + (j * LINE).wrapping_sub(end) % PAGE;
    }
    starts
}

/// CPU device-specific LBM: direct thread-pool code with the column-wise
/// decomposition, timed by the CPU machine model.
pub struct ThreadsLbm {
    pool: ThreadPool,
    cpu: CpuSpec,
    s: usize,
    tau: f64,
    /// One block holding the paper's `f`, `f1` (current) and `f2` (next),
    /// `Q * s * s` doubles each, at `starts`; a step swaps the last two.
    lattices: Vec<f64>,
    starts: [usize; 3],
}

impl ThreadsLbm {
    /// Build over a fresh pool with `threads` participants.
    pub fn new(threads: usize, s: usize, tau: f64, init: &[f64]) -> Self {
        let n = Q * s * s;
        assert_eq!(init.len(), n);
        let starts = lattice_starts(n);
        let mut lattices = vec![0.0; starts[2] + n];
        lattices[starts[1]..][..n].copy_from_slice(init);
        lattices[starts[2]..][..n].copy_from_slice(init);
        ThreadsLbm {
            pool: ThreadPool::new(threads),
            cpu: CpuSpec::epyc_7742_rome(),
            s,
            tau,
            lattices,
            starts,
        }
    }

    /// One time step; returns modeled nanoseconds.
    pub fn step(&mut self) -> u64 {
        let (s, tau) = (self.s, self.tau);
        let n = Q * s * s;
        let [scratch, cur, next] = self.starts;
        let base = self.lattices.as_mut_ptr();
        // SAFETY: the three lattices are disjoint `n`-long ranges of the
        // block; the current one is only read during the step.
        let (fp, f2p, f1s) = unsafe {
            (
                SendMut(base.add(scratch)),
                SendMut(base.add(next)),
                std::slice::from_raw_parts(base.add(cur) as *const f64, n),
            )
        };
        self.pool.parallel_for(s, Schedule::Static, |slow| {
            for fast in 0..s {
                let (x, y) = site(fast, slow);
                if !is_interior(x, y, s) {
                    continue;
                }
                let pulled = pull(x, y, |k, xs, ys| f1s[fidx(k, xs, ys, s)]);
                let next = bgk_collide(&pulled, tau);
                // SAFETY: `fidx` of an interior site is in bounds of both
                // `Q * s * s` lattices, and site (x, y) is written only by
                // this task (rows are the distributed loop; the scratch and
                // next entries of a site are unique to it).
                //
                // All of `f`, then all of `f2`, as in the paper's listing:
                // alternating the two lattices store by store measured
                // ~10% slower at 512².
                unsafe {
                    for (k, &v) in pulled.iter().enumerate() {
                        *fp.get().add(fidx(k, x, y, s)) = v;
                    }
                    for (k, &v) in next.iter().enumerate() {
                        *f2p.get().add(fidx(k, x, y, s)) = v;
                    }
                }
            }
        });
        self.starts.swap(1, 2);
        self.cpu.kernel_time_ns(s * s, &lbm_profile()) as u64
    }

    /// The current distributions.
    pub fn distributions(&self) -> &[f64] {
        &self.lattices[self.starts[1]..][..Q * self.s * self.s]
    }

    /// Addresses of `f`, `f1`, `f2`.
    #[cfg(test)]
    pub(crate) fn lattice_addrs(&self) -> [usize; 3] {
        self.starts.map(|at| self.lattices[at..].as_ptr() as usize)
    }
}

struct SendMut(*mut f64);
unsafe impl Send for SendMut {}
unsafe impl Sync for SendMut {}
impl SendMut {
    fn get(&self) -> *mut f64 {
        self.0
    }
}

/// Run a serial reference for `steps` and return its distributions
/// (test helper shared by the cross-implementation tests).
pub fn reference_after(s: usize, tau: f64, init_rho: f64, init_ux: f64, steps: usize) -> Vec<f64> {
    let mut r = SerialLbm::from_fields(s, tau, |x, y| {
        (
            init_rho + 0.01 * ((x * 7 + y * 3) as f64).sin(),
            init_ux,
            0.0,
        )
    });
    for _ in 0..steps {
        r.step();
    }
    r.f1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn init_fields(s: usize) -> Vec<f64> {
        let r = SerialLbm::from_fields(s, 0.8, |x, y| {
            (1.0 + 0.01 * ((x * 7 + y * 3) as f64).sin(), 0.02, 0.0)
        });
        r.f1
    }

    fn reference_steps(s: usize, init: &[f64], steps: usize) -> Vec<f64> {
        let mut r = SerialLbm {
            s,
            tau: 0.8,
            f: vec![0.0; init.len()],
            f1: init.to_vec(),
            f2: init.to_vec(),
        };
        for _ in 0..steps {
            r.step();
        }
        r.f1
    }

    #[test]
    fn cuda_lbm_matches_reference() {
        let s = 20;
        let init = init_fields(s);
        let mut sim = CudaLbm::new(s, 0.8, &init);
        for _ in 0..5 {
            assert!(sim.step() > 0);
        }
        assert_eq!(sim.distributions(), &reference_steps(s, &init, 5)[..]);
    }

    #[test]
    fn hip_lbm_matches_reference() {
        let s = 20;
        let init = init_fields(s);
        let mut sim = HipLbm::new(s, 0.8, &init);
        for _ in 0..5 {
            sim.step();
        }
        assert_eq!(sim.distributions(), &reference_steps(s, &init, 5)[..]);
    }

    #[test]
    fn oneapi_lbm_matches_reference() {
        let s = 20;
        let init = init_fields(s);
        let mut sim = OneApiLbm::new(s, 0.8, &init);
        for _ in 0..5 {
            sim.step();
        }
        assert_eq!(sim.distributions(), &reference_steps(s, &init, 5)[..]);
    }

    #[test]
    fn lattices_of_a_512_grid_sit_at_different_page_offsets() {
        // At 512² planes are 2 MiB and rows 4 KiB apart: lattices that also
        // share a page offset put every stream of a site into one L1 set.
        let s = 512;
        let ctx = racc_core::Context::new(racc_core::SerialBackend::new());
        let portable = crate::portable::LbmSim::uniform(&ctx, s, 0.8, 1.0, 0.02, 0.0).unwrap();
        let native = ThreadsLbm::new(1, s, 0.8, &uniform_init(s, 1.0, 0.02, 0.0));
        for addrs in [portable.lattice_addrs(), native.lattice_addrs()] {
            let [f, f1, f2] = addrs.map(|a| a % 4096);
            assert!(f != f1 && f != f2 && f1 != f2, "{addrs:x?}");
        }
    }

    #[test]
    fn lattice_starts_rotate_lines_at_any_size() {
        for n in [9 * 20 * 20, 9 * 500 * 500, 9 * 512 * 512, 9 * 513 * 513] {
            let starts = lattice_starts(n);
            assert_eq!(starts.map(|at| at % PAGE), [0, LINE, 2 * LINE], "n = {n}");
            assert!(starts[0] + n <= starts[1] && starts[1] + n <= starts[2]);
        }
    }

    #[test]
    fn threads_lbm_matches_reference() {
        let s = 20;
        let init = init_fields(s);
        let mut sim = ThreadsLbm::new(4, s, 0.8, &init);
        for _ in 0..5 {
            assert!(sim.step() > 0);
        }
        assert_eq!(sim.distributions(), &reference_steps(s, &init, 5)[..]);
    }
}
