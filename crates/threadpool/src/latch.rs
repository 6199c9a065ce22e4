//! A counting latch used to implement the pool's synchronous join.
//!
//! The latch spins briefly before parking: the pool's broadcasts are
//! microsecond-scale (one chunk of a `parallel_for` per worker), and the
//! caller going through a futex sleep/wake per construct used to dominate
//! the fused-launch benchmarks. The count lives in an atomic so the spin
//! phase polls it without the lock; the mutex + condvar pair is the parking
//! fallback for long-running jobs. Wake-ups cannot be missed: waiters
//! re-check the count *while holding the lock*, and decrements happen under
//! that same lock.
//!
//! # Lifetime
//!
//! The pool keeps its latches in the issuing caller's stack frame, so a
//! released waiter may pop the frame at once. `wait` therefore returns only
//! after it has held the lock at a point where the count was zero: every
//! `count_down` runs wholly inside the lock, so by then the last decrementer
//! has finished touching the latch. (Decrementing first and locking after —
//! the original design — let a spinning waiter return while a worker was
//! still about to write the lock word of a frame the caller had already
//! reused; see `tests/latch_lifetime.rs`.)

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::{Condvar, Mutex};

/// Spin iterations before a waiter parks on the condvar. Sized so that
/// typical broadcast turnarounds (a few microseconds) finish inside the
/// spin, while genuinely long jobs park within ~tens of microseconds.
///
/// Spinning only pays when the waiter and the threads it waits on can run
/// *simultaneously*: on a single-hardware-thread host the spinner is
/// stealing the very core its peers need to finish, turning microsecond
/// joins into scheduler-quantum stalls. There the spin phase is disabled
/// and waiters park immediately.
pub(crate) fn spin_iters() -> usize {
    static ITERS: OnceLock<usize> = OnceLock::new();
    *ITERS.get_or_init(|| match std::thread::available_parallelism() {
        Ok(n) if n.get() > 1 => 1 << 14,
        _ => 0,
    })
}

/// A latch initialized with a count; waiters block until the count reaches
/// zero. Unlike a barrier it is single-use per count and the decrementers
/// need not be the waiters.
#[derive(Debug)]
pub struct CountLatch {
    remaining: AtomicUsize,
    lock: Mutex<()>,
    cond: Condvar,
}

impl CountLatch {
    /// Create a latch that releases waiters after `count` decrements.
    pub fn new(count: usize) -> Self {
        CountLatch {
            remaining: AtomicUsize::new(count),
            lock: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    /// Increment the count by `k` before the matching decrements arrive.
    ///
    /// Safe only while the count provably cannot have reached zero with a
    /// waiter already released — the pool's wake-chain protocol guarantees
    /// this by only adding (a) from the issuing caller before it waits, or
    /// (b) from an executor that has not yet decremented the launch's
    /// outstanding-tile count (the caller cannot reach its wait until that
    /// count hits zero).
    pub fn add(&self, k: usize) {
        self.remaining.fetch_add(k, Ordering::AcqRel);
    }

    /// Decrement the count, waking waiters if it reaches zero.
    ///
    /// The decrement happens under the lock, so a waiter that has seen zero
    /// and then taken the lock knows this call no longer touches the latch.
    ///
    /// # Panics
    /// Panics if decremented below zero — that is always a bookkeeping bug.
    pub fn count_down(&self) {
        let _guard = self.lock.lock();
        let old = self.remaining.fetch_sub(1, Ordering::AcqRel);
        assert!(old > 0, "CountLatch decremented below zero");
        if old == 1 {
            self.cond.notify_all();
        }
    }

    /// Block until the count reaches zero: bounded spin first, then park.
    /// Either way the lock is held once after the count read zero, so no
    /// `count_down` is still inside the latch when this returns (see the
    /// module docs).
    pub fn wait(&self) {
        for _ in 0..spin_iters() {
            if self.remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock();
        while self.remaining.load(Ordering::Acquire) > 0 {
            self.cond.wait(&mut guard);
        }
    }

    /// Current count (racy; for diagnostics and tests).
    pub fn count(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn zero_count_releases_immediately() {
        let latch = CountLatch::new(0);
        latch.wait();
    }

    #[test]
    fn waits_for_all_decrements() {
        let latch = Arc::new(CountLatch::new(4));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let latch = Arc::clone(&latch);
            handles.push(std::thread::spawn(move || latch.count_down()));
        }
        latch.wait();
        assert_eq!(latch.count(), 0);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn multiple_waiters_all_wake() {
        let latch = Arc::new(CountLatch::new(1));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let latch = Arc::clone(&latch);
            handles.push(std::thread::spawn(move || latch.wait()));
        }
        latch.count_down();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "below zero")]
    fn over_decrement_panics() {
        let latch = CountLatch::new(0);
        latch.count_down();
    }
}
