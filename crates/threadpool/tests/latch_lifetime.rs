//! Regression test for the `CountLatch` use-after-return.
//!
//! Every launch keeps its `LaunchHeader` — and the latch inside — in the
//! caller's stack frame. `count_down` used to decrement first and take the
//! latch's lock afterwards to notify, so a caller spinning in `wait` could
//! see zero, return and pop the frame while a worker was still about to
//! write that lock word. The next call reuses the same stack for its own
//! frame, and the late write lands in it: a return address or a saved
//! pointer with its low half zeroed. The damage needs two *different*
//! launches from *separate* frames, back to back, on a pool with a worker —
//! an `axpy` then a `dot` is the smallest program that died, within ten
//! iterations, on a 2-hardware-thread host.
//!
//! The failure is a crash or a hang, not a wrong value, so the loop runs on
//! its own thread under a watchdog that fails the test instead of stalling
//! the suite.

use std::sync::mpsc;
use std::time::Duration;

use racc_threadpool::{Schedule, ThreadPool};

const N: usize = 4096;
const ITERS: usize = 2000;

#[inline(never)]
fn axpy(pool: &ThreadPool, alpha: f64, x: &mut [f64], y: &[f64]) {
    pool.parallel_for_slices(x, |offset, block| {
        for (k, xi) in block.iter_mut().enumerate() {
            *xi += alpha * y[offset + k];
        }
    });
}

#[inline(never)]
fn dot(pool: &ThreadPool, x: &[f64], y: &[f64]) -> f64 {
    pool.parallel_reduce(
        x.len(),
        Schedule::Static,
        0.0,
        |i| x[i] * y[i],
        |a, b| a + b,
    )
}

#[test]
fn axpy_then_dot_from_separate_frames_survives() {
    let (done_tx, done_rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let pool = ThreadPool::new(2);
        let mut x = vec![0.0f64; N];
        let y = vec![1.0f64; N];
        let mut last = 0.0;
        for _ in 0..ITERS {
            axpy(&pool, 1.0, &mut x, &y);
            last = dot(&pool, &x, &y);
        }
        done_tx.send(last).expect("watchdog gone");
    });
    match done_rx.recv_timeout(Duration::from_secs(120)) {
        // After k iterations x[i] = k, so the dot is k * N: exact in f64.
        Ok(last) => assert_eq!(last, (ITERS * N) as f64),
        Err(_) => panic!("axpy/dot loop hung or died: a launch never joined"),
    }
    worker.join().expect("loop thread panicked");
}
