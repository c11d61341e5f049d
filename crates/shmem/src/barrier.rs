//! A sense-reversing spin barrier (no OS blocking), used for
//! `shmem_barrier_all` and step synchronization in the functional runtime.

use crate::shared::Slots;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A barrier round failed to complete before its deadline. The barrier is
/// poisoned from this point on (the timed-out participant's arrival is
/// already registered) — abandon the world, don't reuse it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierTimeout;

/// Reusable barrier for a fixed number of participants. The two cells
/// (arrival count, generation) live in `Slots` storage so forked PEs
/// rendezvous on the same physical words as PE threads do.
#[derive(Debug)]
pub struct SenseBarrier {
    n: usize,
    /// `cells[0]` = arrival count, `cells[1]` = generation.
    cells: Slots<AtomicUsize>,
}

impl SenseBarrier {
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        SenseBarrier {
            n,
            cells: Slots::alloc(2).unwrap_or_else(|e| panic!("{e}")),
        }
    }

    #[inline]
    fn count(&self) -> &AtomicUsize {
        &self.cells[0]
    }

    #[inline]
    fn generation(&self) -> &AtomicUsize {
        &self.cells[1]
    }

    pub fn participants(&self) -> usize {
        self.n
    }

    /// Block (spin) until all `n` participants have arrived. Returns true
    /// for exactly one participant per round (the last arriver), like
    /// `std::sync::Barrier`'s leader flag.
    pub fn wait(&self) -> bool {
        let gen = self.generation().load(Ordering::Acquire);
        let arrived = self.count().fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.n {
            self.count().store(0, Ordering::Relaxed);
            // Release so that waiters observing the new generation also
            // observe everything written before any participant arrived.
            self.generation().fetch_add(1, Ordering::Release);
            true
        } else {
            let mut spins = 0u32;
            while self.generation().load(Ordering::Acquire) == gen {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            false
        }
    }

    /// Deadline-bounded [`SenseBarrier::wait`]: `Err(BarrierTimeout)` if
    /// the round did not complete by `deadline`. The clock is checked only
    /// past the spin bound, so a barrier that completes promptly never
    /// reads it.
    ///
    /// A timed-out participant has already registered its arrival, so the
    /// barrier must be considered poisoned afterwards: this is strictly an
    /// abandon-on-error primitive (the collectives layer uses it so a
    /// stalled peer expires every *other* PE's collective too, instead of
    /// hanging the world — DESIGN.md §3.2 "every wait is bounded or
    /// acked").
    pub fn wait_deadline(&self, deadline: Instant) -> Result<bool, BarrierTimeout> {
        let gen = self.generation().load(Ordering::Acquire);
        let arrived = self.count().fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.n {
            self.count().store(0, Ordering::Relaxed);
            self.generation().fetch_add(1, Ordering::Release);
            Ok(true)
        } else {
            let mut spins = 0u32;
            while self.generation().load(Ordering::Acquire) == gen {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    if Instant::now() >= deadline {
                        return Err(BarrierTimeout);
                    }
                    std::thread::yield_now();
                }
            }
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    #[test]
    fn single_participant_never_blocks() {
        let b = SenseBarrier::new(1);
        assert!(b.wait());
        assert!(b.wait());
    }

    #[test]
    fn exactly_one_leader_per_round() {
        let b = SenseBarrier::new(4);
        let leaders = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        if b.wait() {
                            leaders.fetch_add(1, Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Relaxed), 100);
    }

    #[test]
    fn wait_deadline_completes_when_all_arrive() {
        use std::time::{Duration, Instant};
        let b = SenseBarrier::new(3);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..50 {
                        b.wait_deadline(Instant::now() + Duration::from_secs(5))
                            .expect("all participants present: must not expire");
                    }
                });
            }
        });
    }

    #[test]
    fn wait_deadline_expires_on_missing_participant() {
        use std::time::{Duration, Instant};
        let b = SenseBarrier::new(2);
        let t0 = Instant::now();
        assert!(b.wait_deadline(t0 + Duration::from_millis(30)).is_err());
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn barrier_orders_phases() {
        // No participant may enter phase k+1 before all finished phase k.
        let b = SenseBarrier::new(3);
        let phase_counts = [
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        ];
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for (phase, _) in phase_counts.iter().enumerate() {
                        phase_counts[phase].fetch_add(1, Relaxed);
                        b.wait();
                        // After the barrier, everyone must have bumped.
                        assert_eq!(phase_counts[phase].load(Relaxed), 3);
                    }
                });
            }
        });
    }
}
