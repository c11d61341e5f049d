//! A sense-reversing barrier, the one rendezvous of a world: `barrier_all`
//! and both barriers of the all-reduce wait on it.

use crate::shared::Slots;
use crate::signal::wait_until;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Reusable barrier for a fixed number of participants. The two cells
/// (arrival count, generation) live in `Slots` storage so forked PEs
/// rendezvous on the same physical words as PE threads do.
#[derive(Debug)]
pub(crate) struct SenseBarrier {
    n: usize,
    /// `cells[0]` = arrival count, `cells[1]` = generation.
    cells: Slots<AtomicUsize>,
}

impl SenseBarrier {
    pub(crate) fn new(n: usize) -> Self {
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

    /// Block until all `n` participants have arrived, walking the signal
    /// wait ladder. `None` if a `Some` deadline passed first (`None` waits
    /// without a bound).
    ///
    /// A timed-out participant has already registered its arrival, so the
    /// barrier is poisoned afterwards: this is strictly an abandon-on-error
    /// exit (a stalled peer expires every *other* PE's collective too,
    /// instead of hanging the world — DESIGN.md §3.2 "every wait is bounded
    /// or acked").
    pub(crate) fn wait(&self, deadline: Option<Instant>) -> Option<()> {
        let gen = self.generation().load(Ordering::Acquire);
        let arrived = self.count().fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.n {
            self.count().store(0, Ordering::Relaxed);
            // Release so that waiters observing the new generation also
            // observe everything written before any participant arrived.
            self.generation().fetch_add(1, Ordering::Release);
            return Some(());
        }
        wait_until(deadline, || {
            (self.generation().load(Ordering::Acquire) != gen).then_some(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::time::Duration;

    #[test]
    fn single_participant_never_blocks() {
        let b = SenseBarrier::new(1);
        assert!(b.wait(None).is_some());
        assert!(b.wait(None).is_some());
    }

    #[test]
    fn wait_deadline_completes_when_all_arrive() {
        let b = SenseBarrier::new(3);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..50 {
                        b.wait(Some(Instant::now() + Duration::from_secs(5)))
                            .expect("all participants present: must not expire");
                    }
                });
            }
        });
    }

    #[test]
    fn wait_deadline_expires_on_missing_participant() {
        let b = SenseBarrier::new(2);
        let t0 = Instant::now();
        assert!(b.wait(Some(t0 + Duration::from_millis(30))).is_none());
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
                        b.wait(None);
                        // After the barrier, everyone must have bumped.
                        assert_eq!(phase_counts[phase].load(Relaxed), 3);
                    }
                });
            }
        });
    }
}
