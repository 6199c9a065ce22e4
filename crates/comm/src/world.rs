//! The SPMD world: rank spawning, point-to-point messaging and the
//! barrier.

use std::any::Any;
use std::panic::resume_unwind;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crossbeam::channel::{unbounded, Receiver, Sender};

/// Errors from communication calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A rank index outside `0..size`.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// World size.
        size: usize,
    },
    /// A received message had a different payload type than requested.
    TypeMismatch,
    /// The peer's channel is gone (its rank body returned or panicked).
    Disconnected,
    /// Self-send/self-recv, which would deadlock.
    SelfMessage,
    /// [`Rank::recv_timeout`] expired with the peer still alive but
    /// silent.
    Timeout,
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} out of range for world of {size}")
            }
            CommError::TypeMismatch => write!(f, "received message of unexpected type"),
            CommError::Disconnected => write!(f, "peer rank terminated"),
            CommError::SelfMessage => write!(f, "send/recv to self would deadlock"),
            CommError::Timeout => write!(f, "timed out waiting for a message"),
        }
    }
}

impl std::error::Error for CommError {}

type Payload = Box<dyn Any + Send>;

/// The world barrier. Unlike `std::sync::Barrier` it learns when a rank
/// terminates (its [`Rank`] drops, on return or unwind), so a wait that
/// can never complete fails instead of hanging. It shares no channel with
/// the ranks' messages, which keep their per-pair FIFO order across it.
struct WorldBarrier {
    size: usize,
    /// Arrivals over every barrier so far (barrier `b` completes at
    /// arrival `(b + 1) * size`), and the first rank that terminated.
    state: Mutex<(usize, Option<usize>)>,
    turn: Condvar,
}

impl WorldBarrier {
    /// Every update below leaves the state valid, so a poisoned lock (a
    /// rank panicked elsewhere while holding it) is still usable.
    fn lock(&self) -> MutexGuard<'_, (usize, Option<usize>)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait until every rank has arrived; `Err(rank)` once `rank` has
    /// terminated, since it can never arrive.
    fn wait(&self) -> Result<(), usize> {
        let mut state = self.lock();
        if let Some(dead) = state.1 {
            return Err(dead);
        }
        let complete = (state.0 / self.size + 1) * self.size;
        state.0 += 1;
        if state.0 == complete {
            self.turn.notify_all();
        }
        while state.0 < complete {
            if let Some(dead) = state.1 {
                return Err(dead);
            }
            state = self
                .turn
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        Ok(())
    }

    fn depart(&self, rank: usize) {
        self.lock().1.get_or_insert(rank);
        self.turn.notify_all();
    }
}

/// Default bound on how long a collective waits on any single internal
/// receive before giving up with [`CommError::Timeout`]. Generous: rank
/// threads time-slice on small machines, so a healthy-but-descheduled peer
/// must not be mistaken for a dead one.
pub const DEFAULT_COLLECTIVE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(60);

/// A rank's endpoint in the world: its identity plus channels to every
/// peer. Messages between a fixed (sender, receiver) pair are FIFO.
pub struct Rank {
    rank: usize,
    size: usize,
    /// `receivers[p]` receives messages *from* rank p. Declared before
    /// `senders` so that it is dropped first: when a rank's body returns, a
    /// peer that sees the death (a receive from it disconnects, because
    /// its senders are gone) must also find it unable to receive — else a
    /// send issued after that observation can still succeed into the dead
    /// rank's open receiver.
    receivers: Vec<Receiver<Payload>>,
    /// `senders[p]` sends to rank p; entry for self unused.
    senders: Vec<Sender<Payload>>,
    /// Per-receive deadline (in milliseconds) applied to every internal
    /// receive of `allreduce_sum`, so a rank dying mid-collective surfaces
    /// as an error at the survivors instead of hanging them.
    collective_timeout_ms: std::sync::atomic::AtomicU64,
    barrier: Arc<WorldBarrier>,
}

impl Drop for Rank {
    /// The rank's body has returned or is unwinding: it will reach no
    /// further barrier.
    fn drop(&mut self) {
        self.barrier.depart(self.rank);
    }
}

impl Rank {
    /// This rank's index in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    fn check_peer(&self, peer: usize) -> Result<(), CommError> {
        if peer >= self.size {
            return Err(CommError::InvalidRank {
                rank: peer,
                size: self.size,
            });
        }
        if peer == self.rank {
            return Err(CommError::SelfMessage);
        }
        Ok(())
    }

    /// Send a value to `peer` (non-blocking: buffered channel).
    pub fn send<T: Send + 'static>(&self, peer: usize, value: T) -> Result<(), CommError> {
        self.check_peer(peer)?;
        self.senders[peer]
            .send(Box::new(value))
            .map_err(|_| CommError::Disconnected)
    }

    /// Receive the next value sent by `peer` (blocking).
    pub fn recv<T: Send + 'static>(&self, peer: usize) -> Result<T, CommError> {
        self.check_peer(peer)?;
        let payload = self.receivers[peer]
            .recv()
            .map_err(|_| CommError::Disconnected)?;
        payload
            .downcast::<T>()
            .map(|b| *b)
            .map_err(|_| CommError::TypeMismatch)
    }

    /// Receive the next value sent by `peer`, waiting at most `timeout`.
    /// A dead rank (body returned or panicked, dropping its channels)
    /// surfaces as [`CommError::Disconnected`]; a live-but-silent peer as
    /// [`CommError::Timeout`] — either way the caller gets an error it
    /// can act on instead of deadlocking in [`recv`](Self::recv).
    pub fn recv_timeout<T: Send + 'static>(
        &self,
        peer: usize,
        timeout: std::time::Duration,
    ) -> Result<T, CommError> {
        self.check_peer(peer)?;
        let payload = self.receivers[peer]
            .recv_timeout(timeout)
            .map_err(|e| match e {
                crossbeam::channel::RecvTimeoutError::Timeout => CommError::Timeout,
                crossbeam::channel::RecvTimeoutError::Disconnected => CommError::Disconnected,
            })?;
        payload
            .downcast::<T>()
            .map(|b| *b)
            .map_err(|_| CommError::TypeMismatch)
    }

    /// The per-receive deadline currently applied inside collectives.
    pub fn collective_timeout(&self) -> std::time::Duration {
        std::time::Duration::from_millis(
            self.collective_timeout_ms
                .load(std::sync::atomic::Ordering::Relaxed),
        )
    }

    /// Bound every internal receive of subsequent collectives on this rank
    /// to `timeout` (defaults to [`DEFAULT_COLLECTIVE_TIMEOUT`]). Sub-
    /// millisecond values round up to 1ms so the bound is never zero.
    pub fn set_collective_timeout(&self, timeout: std::time::Duration) {
        let ms = timeout.as_millis().clamp(1, u64::MAX as u128) as u64;
        self.collective_timeout_ms
            .store(ms, std::sync::atomic::Ordering::Relaxed);
    }

    /// Block until every rank has reached this barrier.
    ///
    /// # Panics
    ///
    /// If a rank has terminated (returned or panicked) without reaching
    /// it: that barrier can never complete.
    pub fn barrier(&self) {
        if let Err(dead) = self.barrier.wait() {
            panic!(
                "Rank::barrier on rank {}: rank {dead} has terminated and can never arrive",
                self.rank
            );
        }
    }
}

/// The SPMD launcher.
pub struct World;

impl World {
    /// Run `body` on `size` ranks concurrently; returns each rank's result
    /// in rank order. Ranks are joined in rank order, and the first one
    /// that panicked re-raises its panic here.
    pub fn run<T, F>(size: usize, body: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(&Rank) -> T + Send + Sync + 'static,
    {
        assert!(size > 0, "world needs at least one rank");
        // channels[from][to]
        let mut senders: Vec<Vec<Sender<Payload>>> = Vec::with_capacity(size);
        let mut receivers: Vec<Vec<Option<Receiver<Payload>>>> = (0..size)
            .map(|_| (0..size).map(|_| None).collect())
            .collect();
        #[allow(clippy::needless_range_loop)] // (from, to) symmetry is clearer
        for from in 0..size {
            let mut row = Vec::with_capacity(size);
            for to in 0..size {
                let (tx, rx) = unbounded::<Payload>();
                row.push(tx);
                receivers[to][from] = Some(rx);
            }
            senders.push(row);
        }
        let barrier = Arc::new(WorldBarrier {
            size,
            state: Mutex::new((0, None)),
            turn: Condvar::new(),
        });
        let body = Arc::new(body);

        let mut handles = Vec::with_capacity(size);
        for (rank_id, (rank_senders, rank_receivers)) in
            senders.into_iter().zip(receivers).enumerate()
        {
            let rank = Rank {
                rank: rank_id,
                size,
                senders: rank_senders,
                receivers: rank_receivers
                    .into_iter()
                    .map(|r| r.expect("fully wired"))
                    .collect(),
                collective_timeout_ms: std::sync::atomic::AtomicU64::new(
                    DEFAULT_COLLECTIVE_TIMEOUT.as_millis() as u64,
                ),
                barrier: Arc::clone(&barrier),
            };
            let body = Arc::clone(&body);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("racc-rank-{rank_id}"))
                    .spawn(move || body(&rank))
                    .expect("spawn rank"),
            );
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_know_their_identity() {
        let ids = World::run(5, |c| (c.rank(), c.size()));
        for (i, (rank, size)) in ids.iter().enumerate() {
            assert_eq!(*rank, i);
            assert_eq!(*size, 5);
        }
    }

    #[test]
    fn ring_pass_accumulates() {
        // Each rank adds its id and forwards around the ring.
        let results = World::run(4, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            if c.rank() == 0 {
                c.send(next, 0usize).unwrap();
                c.recv::<usize>(prev).unwrap()
            } else {
                let v = c.recv::<usize>(prev).unwrap();
                c.send(next, v + c.rank()).unwrap();
                usize::MAX // only rank 0's total matters
            }
        });
        assert_eq!(results[0], 1 + 2 + 3);
    }

    #[test]
    fn pairwise_exchange_is_deadlock_free() {
        let results = World::run(6, |c| {
            // Both partners send first: sends are buffered.
            let partner = c.rank() ^ 1; // 0<->1, 2<->3, 4<->5
            c.send(partner, c.rank() * 10).unwrap();
            c.recv::<usize>(partner).unwrap()
        });
        assert_eq!(results, vec![10, 0, 30, 20, 50, 40]);
    }

    #[test]
    fn fifo_order_per_pair() {
        let results = World::run(2, |c| {
            if c.rank() == 0 {
                for i in 0..50 {
                    c.send(1, i as u64).unwrap();
                }
                0
            } else {
                let mut last = -1i64;
                for _ in 0..50 {
                    let v = c.recv::<u64>(0).unwrap() as i64;
                    assert_eq!(v, last + 1, "messages must arrive in order");
                    last = v;
                }
                last
            }
        });
        assert_eq!(results[1], 49);
    }

    #[test]
    fn typed_payloads_and_mismatch() {
        let results = World::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, vec![1.0f64, 2.0]).unwrap();
                c.send(1, "hello".to_string()).unwrap();
                Ok(0.0)
            } else {
                let v: Vec<f64> = c.recv(0).unwrap();
                assert_eq!(v, vec![1.0, 2.0]);
                // Wrong type requested:
                c.recv::<u32>(0).map(|_| 1.0)
            }
        });
        assert!(matches!(results[1], Err(CommError::TypeMismatch)));
    }

    #[test]
    fn invalid_peers_are_rejected() {
        let results = World::run(2, |c| {
            let bad = c.send(7, 1u8).unwrap_err();
            let own = c.send(c.rank(), 1u8).unwrap_err();
            (bad, own)
        });
        assert!(matches!(
            results[0].0,
            CommError::InvalidRank { rank: 7, size: 2 }
        ));
        assert!(matches!(results[0].1, CommError::SelfMessage));
    }

    #[test]
    fn recv_timeout_times_out_on_a_silent_live_peer() {
        use std::time::Duration;
        let results = World::run(2, |c| {
            if c.rank() == 0 {
                let r = c.recv_timeout::<u8>(1, Duration::from_millis(20));
                c.barrier();
                r
            } else {
                // Stay alive (holding the channel open) past rank 0's
                // window, but never send.
                c.barrier();
                Ok(0)
            }
        });
        assert_eq!(results[0], Err(CommError::Timeout));
    }

    #[test]
    fn dead_rank_surfaces_as_disconnected_within_the_timeout() {
        use std::time::Duration;
        // Rank 2 dies immediately; the survivors block on it with a
        // generous timeout and must see `Disconnected` (the drop of the
        // dead rank's senders), NOT `Timeout` — i.e. well before the
        // deadline, the moment the channel closes.
        let t0 = std::time::Instant::now();
        let results = World::run(3, |c| {
            if c.rank() == 2 {
                return None;
            }
            Some(c.recv_timeout::<f64>(2, Duration::from_secs(30)))
        });
        assert_eq!(results[0], Some(Err(CommError::Disconnected)));
        assert_eq!(results[1], Some(Err(CommError::Disconnected)));
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "disconnect must not wait out the timeout"
        );
    }

    #[test]
    fn single_rank_world_works() {
        let r = World::run(1, |c| {
            c.barrier();
            c.rank() + 100
        });
        assert_eq!(r, vec![100]);
    }

    #[test]
    fn barrier_with_a_terminated_rank_panics_instead_of_hanging() {
        use std::time::{Duration, Instant};
        let t0 = Instant::now();
        let outcome = std::panic::catch_unwind(|| {
            World::run(3, |c| {
                if c.rank() < 2 {
                    c.barrier();
                }
            })
        });
        let panic = outcome.expect_err("World::run must panic");
        let message = panic
            .downcast_ref::<String>()
            .expect("the barrier's panic message");
        assert!(
            message.contains("Rank::barrier") && message.contains("rank 2 has terminated"),
            "{message}"
        );
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        World::run(0, |_| ());
    }
}
