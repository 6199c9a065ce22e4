//! D2Q9 lattice constants and indexing.

/// Number of discrete velocities in D2Q9.
pub const Q: usize = 9;

/// Lattice weights `w_k` (rest, 4 axis-aligned, 4 diagonal).
pub const W: [f64; Q] = [
    4.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
];

/// x components of the discrete velocities `c_k`.
pub const CX: [f64; Q] = [0.0, 1.0, 0.0, -1.0, 0.0, 1.0, -1.0, -1.0, 1.0];

/// y components of the discrete velocities `c_k`.
pub const CY: [f64; Q] = [0.0, 0.0, 1.0, 0.0, -1.0, 1.0, 1.0, -1.0, -1.0];

/// Index of the opposite direction of `k` (for bounce-back boundaries).
pub const OPPOSITE: [usize; Q] = [0, 3, 4, 1, 2, 7, 8, 5, 6];

/// Linear index of distribution `k` at site `(x, y)` on an `s × s` grid,
/// matching the paper's `ind = (k-1)*SIZE*SIZE + x*SIZE + y` (0-based).
#[inline]
pub fn fidx(k: usize, x: usize, y: usize, s: usize) -> usize {
    (k * s + x) * s + y
}

/// The site `(x, y)` a D2Q9 kernel updates at launch indices `(fast, slow)`
/// — the one place that decides it, used by every launch site of this
/// crate. The fast index (the construct's first, innermost-running one; a
/// simulated GPU's `x` thread id) is the contiguous `y` of [`fidx`], so
/// neighbouring iterations touch neighbouring addresses on every back end.
#[inline(always)]
pub fn site(fast: usize, slow: usize) -> (usize, usize) {
    (slow, fast)
}

/// The paper's guard: the interior-only scheme leaves the edge rows and
/// columns of the grid untouched.
#[inline(always)]
pub fn is_interior(x: usize, y: usize, s: usize) -> bool {
    x > 0 && x < s - 1 && y > 0 && y < s - 1
}

/// Streaming (pull) at an interior site: `src(k, xs, ys)` reads direction
/// `k` at the upwind neighbour `(x − cx[k], y − cy[k])`.
#[inline(always)]
pub fn pull(x: usize, y: usize, src: impl Fn(usize, usize, usize) -> f64) -> [f64; Q] {
    std::array::from_fn(|k| {
        let xs = (x as isize - CX[k] as isize) as usize;
        let ys = (y as isize - CY[k] as isize) as usize;
        src(k, xs, ys)
    })
}

/// Streaming (pull) with wrap-around neighbours on an `s × s` grid.
#[inline(always)]
pub fn pull_periodic(
    x: usize,
    y: usize,
    s: usize,
    src: impl Fn(usize, usize, usize) -> f64,
) -> [f64; Q] {
    std::array::from_fn(|k| {
        let xs = (x + s).wrapping_sub(CX[k] as isize as usize) % s;
        let ys = (y + s).wrapping_sub(CY[k] as isize as usize) % s;
        src(k, xs, ys)
    })
}

/// The BGK equilibrium distribution for direction `k` at density `rho` and
/// velocity `(ux, uy)`.
#[inline]
pub fn equilibrium(k: usize, rho: f64, ux: f64, uy: f64) -> f64 {
    let cu = CX[k] * ux + CY[k] * uy;
    W[k] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * (ux * ux + uy * uy))
}

/// Density and velocity `(ρ, u_x, u_y)` of one site's nine distributions.
#[inline(always)]
pub fn moments(f: &[f64; Q]) -> (f64, f64, f64) {
    let mut p = 0.0;
    let mut u = 0.0;
    let mut v = 0.0;
    for k in 0..Q {
        p += f[k];
        u += f[k] * CX[k];
        v += f[k] * CY[k];
    }
    (p, u / p, v / p)
}

/// Moments and BGK collision of one site (the second half of the paper's
/// Fig. 10 `lbm` function): from the nine streamed-in values, the
/// post-collision distributions. The single body behind every kernel of
/// this crate — accumulation order and relaxation expression are what the
/// cross-implementation bit-identity tests pin.
#[inline(always)]
pub fn bgk_collide(pulled: &[f64; Q], tau: f64) -> [f64; Q] {
    let (p, u, v) = moments(pulled);
    std::array::from_fn(|k| {
        let feq = equilibrium(k, p, u, v);
        pulled[k] * (1.0 - 1.0 / tau) + feq / tau
    })
}

/// Kinematic viscosity of the BGK collision operator at relaxation time
/// `tau` (lattice units): `ν = (τ − 1/2) / 3`.
#[inline]
pub fn viscosity(tau: f64) -> f64 {
    (tau - 0.5) / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one() {
        let sum: f64 = W.iter().sum();
        assert!((sum - 1.0).abs() < 1e-15);
    }

    #[test]
    fn velocities_sum_to_zero() {
        assert_eq!(CX.iter().sum::<f64>(), 0.0);
        assert_eq!(CY.iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn lattice_isotropy_second_moment() {
        // Σ w_k c_kα c_kβ = c_s² δ_αβ with c_s² = 1/3.
        let mut xx = 0.0;
        let mut yy = 0.0;
        let mut xy = 0.0;
        for k in 0..Q {
            xx += W[k] * CX[k] * CX[k];
            yy += W[k] * CY[k] * CY[k];
            xy += W[k] * CX[k] * CY[k];
        }
        assert!((xx - 1.0 / 3.0).abs() < 1e-15);
        assert!((yy - 1.0 / 3.0).abs() < 1e-15);
        assert!(xy.abs() < 1e-15);
    }

    #[test]
    fn opposite_directions_negate() {
        for k in 0..Q {
            assert_eq!(CX[OPPOSITE[k]], -CX[k]);
            assert_eq!(CY[OPPOSITE[k]], -CY[k]);
            assert_eq!(OPPOSITE[OPPOSITE[k]], k);
        }
    }

    #[test]
    fn equilibrium_moments_recover_inputs() {
        let (rho, ux, uy) = (1.2, 0.05, -0.03);
        let mut m0 = 0.0;
        let mut mx = 0.0;
        let mut my = 0.0;
        for k in 0..Q {
            let fe = equilibrium(k, rho, ux, uy);
            m0 += fe;
            mx += fe * CX[k];
            my += fe * CY[k];
        }
        assert!((m0 - rho).abs() < 1e-12);
        assert!((mx - rho * ux).abs() < 1e-12);
        assert!((my - rho * uy).abs() < 1e-12);
    }

    #[test]
    fn fidx_is_bijective_on_grid() {
        let s = 7;
        let mut seen = vec![false; Q * s * s];
        for k in 0..Q {
            for x in 0..s {
                for y in 0..s {
                    let i = fidx(k, x, y, s);
                    assert!(!seen[i], "collision at ({k},{x},{y})");
                    seen[i] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn fast_launch_index_walks_memory_in_order() {
        let s = 7;
        for k in 0..Q {
            for slow in 0..s {
                for fast in 0..s - 1 {
                    let (x, y) = site(fast, slow);
                    let (xn, yn) = site(fast + 1, slow);
                    assert_eq!(fidx(k, xn, yn, s), fidx(k, x, y, s) + 1);
                }
            }
        }
    }

    #[test]
    fn viscosity_formula() {
        assert!((viscosity(1.0) - 1.0 / 6.0).abs() < 1e-15);
        assert!((viscosity(0.5)).abs() < 1e-15);
    }
}
