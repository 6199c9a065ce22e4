//! The one collective: a sum allreduce, built on point-to-point sends.
//!
//! It fans in to rank 0 in rank order and fans the total back out (latency
//! O(P)), so the result is deterministic for floats. It returns
//! `Result<_, CommError>`: a peer that died mid-collective (its rank body
//! returned early or panicked) surfaces as [`CommError::Disconnected`] at
//! the survivors rather than poisoning the world with a panic.
//!
//! Every internal receive — the fan-in legs at the root as much as the
//! fan-out legs at the leaves — goes through the rank's collective
//! timeout ([`Rank::set_collective_timeout`]). A rank can die *between*
//! stages (after contributing to the fan-in but before the fan-out), and
//! its buffered messages keep the channel readable for the legs it already
//! ran; only the timeout bounds the legs it never reached.

use std::ops::Add;

use crate::world::{CommError, Rank};

impl Rank {
    /// Sum `value` across all ranks; every rank receives the total. The
    /// terms are added in rank order, so the result is deterministic.
    pub fn allreduce_sum<T>(&self, value: T) -> Result<T, CommError>
    where
        T: Copy + Add<Output = T> + Send + 'static,
    {
        if self.rank() != 0 {
            self.send(0, value)?;
            return self.recv_timeout(0, self.collective_timeout());
        }
        let mut total = value;
        for peer in 1..self.size() {
            total = total + self.recv_timeout::<T>(peer, self.collective_timeout())?;
        }
        for peer in 1..self.size() {
            self.send(peer, total)?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {

    use crate::world::{CommError, World};

    #[test]
    fn allreduce_sum_sums_and_folds_in_rank_order() {
        let ints = World::run(5, |c| c.allreduce_sum((c.rank() + 1) as i64).unwrap());
        assert!(ints.iter().all(|&s| s == 15));

        let term = |r: usize| 0.1f64 * (r as f64 + 1.0);
        let folded = (1..4).fold(term(0), |acc, r| acc + term(r));
        let floats = World::run(4, move |c| c.allreduce_sum(term(c.rank())).unwrap());
        assert!(floats.iter().all(|s| s.to_bits() == folded.to_bits()));
    }

    #[test]
    fn world_of_one_allreduces_without_traffic() {
        let results = World::run(1, |c| c.allreduce_sum(2.5f64));
        assert_eq!(results, vec![Ok(2.5)]);
    }

    #[test]
    fn dead_rank_surfaces_as_disconnected_in_collectives() {
        // Rank 2 dies (returns early, dropping its channel endpoints)
        // before contributing to the allreduce. The survivors must get
        // `Disconnected`, not a deadlock or a panic.
        let results = World::run(3, |c| {
            if c.rank() == 2 {
                return None; // dies without participating
            }
            Some(c.allreduce_sum(c.rank() as f64))
        });
        assert_eq!(results[0], Some(Err(CommError::Disconnected)));
        assert_eq!(results[1], Some(Err(CommError::Disconnected)));
        assert_eq!(results[2], None);
    }

    #[test]
    fn rank_death_between_allreduce_stages_is_detected_not_hung() {
        use std::time::Duration;
        // Rank 2 contributes to the fan-in leg and then dies *between* the
        // allreduce stages, before its fan-out leg. Rank 1 waits until the
        // death is observable (its probe of rank 2 disconnects) so the
        // outcome is deterministic: the root adds rank 2's buffered
        // contribution, then surfaces `Disconnected` on the dead fan-out
        // leg. Nobody blocks forever.
        let results = World::run(3, |c| {
            if c.rank() == 2 {
                c.send(0, 2.0f64).unwrap(); // fan-in leg only
                return None; // dies before the fan-out leg
            }
            if c.rank() == 1 {
                // Blocks until rank 2's channels drop, i.e. it is dead.
                let probe = c.recv_timeout::<u8>(2, Duration::from_secs(120));
                assert_eq!(probe, Err(CommError::Disconnected));
            }
            Some(c.allreduce_sum(c.rank() as f64))
        });
        assert_eq!(results[0], Some(Err(CommError::Disconnected)));
        // The root sends the fan-out legs in rank order, so rank 1 already
        // has the total by the time the dead leg errors the root out.
        assert_eq!(results[1], Some(Ok(3.0)));
        assert_eq!(results[2], None);
    }

    #[test]
    fn wedged_rank_mid_allreduce_times_out_instead_of_hanging() {
        use std::time::{Duration, Instant};
        // Rank 2 holds its channels open (alive) but never enters the
        // collective — the shape of a rank wedged in recovery or stalled
        // under fault injection. Every internal receive honors the
        // collective timeout, so neither the root's fan-in nor the leaf's
        // fan-out blocks forever.
        let t0 = Instant::now();
        let results = World::run(3, |c| {
            if c.rank() == 2 {
                // Stay alive past the others' deadline; rank 0 releases us.
                let _ = c.recv_timeout::<u8>(0, Duration::from_secs(120));
                return None;
            }
            c.set_collective_timeout(Duration::from_millis(50));
            let r = c.allreduce_sum(1.0f64);
            if c.rank() == 0 {
                let _ = c.send(2, 1u8); // release the wedged rank
            }
            Some(r)
        });
        assert!(results[0].clone().unwrap().is_err(), "root must not hang");
        assert!(results[1].clone().unwrap().is_err(), "leaf must not hang");
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "collective must abort well before the wedged rank exits"
        );
    }

    #[test]
    fn collective_timeout_is_configurable_and_clamped() {
        let results = World::run(1, |c| {
            let default = c.collective_timeout();
            c.set_collective_timeout(std::time::Duration::from_micros(3));
            let floor = c.collective_timeout();
            c.set_collective_timeout(std::time::Duration::from_secs(9));
            (default, floor, c.collective_timeout())
        });
        let (default, floor, set) = results[0];
        assert_eq!(default, crate::world::DEFAULT_COLLECTIVE_TIMEOUT);
        assert_eq!(floor, std::time::Duration::from_millis(1));
        assert_eq!(set, std::time::Duration::from_secs(9));
    }

    #[test]
    fn barrier_synchronizes_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let results = World::run(4, move |c| {
            c2.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier, every rank must see all increments.
            c2.load(Ordering::SeqCst)
        });
        assert!(results.iter().all(|&v| v == 4));
    }
}
