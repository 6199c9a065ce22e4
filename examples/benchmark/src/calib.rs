//! A fixed piece of work that measures how fast the host is running right
//! now. The sandbox flips between clock states some 25-30% apart for
//! seconds at a time (see README "Steadiness"); every timed section is
//! bracketed by this loop, and walls are reported scaled to the speed at
//! which the loop takes [`REFERENCE_S`].

use std::hint::black_box;
use std::time::Instant;

/// What the loop takes at reference speed (about its usual time on the
/// 2.1 GHz Xeon the baseline was recorded on).
pub const REFERENCE_S: f64 = 3.5e-4;

const WORDS: usize = 32 * 1024;
const PASSES: usize = 6;

/// One run of the calibration loop, in seconds: integer mixing plus
/// floating-point multiply-adds over a 256 KiB array (L2-resident), the
/// same blend of arithmetic and cache traffic the workloads have. No RACC
/// code runs here, so a change to RACC cannot move it.
///
/// The result is the *fastest* of the timed passes times their number: an
/// interrupt or a cold line lengthens some passes but never shortens one,
/// so the minimum tracks the clock state with a third of the sum's noise
/// (measured: quartile spread 3-6% against 9-12% per tick).
pub fn tick() -> f64 {
    thread_local! {
        static BUF: std::cell::RefCell<Vec<f64>> = std::cell::RefCell::new(
            (0..WORDS).map(|i| 1.0 + i as f64 * 1e-6).collect(),
        );
    }
    BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut fastest = f64::INFINITY;
        // Pass 0 is not timed: it only pulls the array back into cache, so
        // the timed passes do not depend on what the rep before evicted.
        for pass in 0..=PASSES {
            let t = Instant::now();
            let mut acc = 0.0f64;
            for v in buf.iter_mut() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                acc = acc * 0.999_999 + *v;
                *v = *v * 0.999_999_9 + (state & 0xff) as f64 * 1e-12;
            }
            black_box(acc);
            if pass > 0 {
                fastest = fastest.min(t.elapsed().as_secs_f64());
            }
        }
        black_box(state);
        fastest * PASSES as f64
    })
}

/// `wall_s` scaled to reference speed, given the calibration time measured
/// around it.
pub fn scaled(wall_s: f64, calib_s: f64) -> f64 {
    wall_s * REFERENCE_S / calib_s
}

/// A stopwatch for a rep made of several sections: each section is scaled
/// by the calibration measured right before and right after it, so a
/// clock-state flip in the middle of a long rep costs one section's
/// accuracy, not the whole rep's.
pub struct Sections {
    last_tick: f64,
    raw_s: f64,
    scaled_s: f64,
}

impl Sections {
    pub fn start() -> Sections {
        Sections {
            last_tick: tick(),
            raw_s: 0.0,
            scaled_s: 0.0,
        }
    }

    /// Time `f` as one section; returns its raw wall seconds too.
    pub fn section<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let t = Instant::now();
        let out = f();
        let wall = t.elapsed().as_secs_f64();
        let after = tick();
        self.raw_s += wall;
        self.scaled_s += scaled(wall, (self.last_tick + after) / 2.0);
        self.last_tick = after;
        (out, wall)
    }

    /// `(raw, scaled)` seconds over all sections.
    pub fn totals(&self) -> (f64, f64) {
        (self.raw_s, self.scaled_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_proportional() {
        assert_eq!(scaled(2.0, REFERENCE_S), 2.0);
        assert_eq!(scaled(2.0, 2.0 * REFERENCE_S), 1.0);
        let t = tick();
        assert!(t > 0.0 && t.is_finite());
        let mut sections = Sections::start();
        let (v, wall) = sections.section(|| 7);
        assert_eq!(v, 7);
        let (raw, scaled_total) = sections.totals();
        assert!(raw == wall && scaled_total >= 0.0);
    }
}
