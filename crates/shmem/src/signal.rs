//! Device-visible signals with release/acquire semantics.
//!
//! The paper's fused kernels notify receivers with `st.release.sys.global`
//! (after data writes) or `st.relaxed.sys.global` (when nothing needs
//! flushing), and consumers spin with acquire loads. [`SignalSet`] provides
//! exactly those three operations on a cache-padded `AtomicU64` array, one
//! slot per pulse (coordinate and force exchanges use disjoint slots).
//!
//! Signal values are monotonically increasing per step (`sigVal` in the
//! paper's `CommContext`), so slots never need resetting between steps.

use crate::shared::Slots;
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Spin iterations before a waiter starts yielding the core.
const SPIN_BOUND: u32 = 64;
/// Yield iterations before a waiter escalates to parked sleeps. Until this
/// bound a wait is pure spin/yield — the fault-free fast path never touches
/// the clock or the scheduler's sleep queue.
const YIELD_BOUND: u32 = 4096;
/// Sleep quantum once escalated. Long enough that a stalled-PE wait stops
/// burning a core, short enough to add negligible latency to recovery.
const PARK_SLEEP: Duration = Duration::from_micros(50);

/// A fixed-size array of signal slots owned by one PE, in symmetric storage
/// so PE threads and forked PEs spin on and release the same physical words.
#[derive(Debug)]
pub struct SignalSet {
    slots: Slots<CachePadded<AtomicU64>>,
}

impl SignalSet {
    pub fn new(n_slots: usize) -> Self {
        SignalSet {
            slots: Slots::alloc(n_slots).unwrap_or_else(|e| panic!("{e}")),
        }
    }

    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Release-store: makes all prior (relaxed) data writes visible to any
    /// thread that acquire-reads `val` from this slot. The paper's
    /// `system_release_store`.
    ///
    /// Only safe when this thread is the *sole* writer of the slot for the
    /// current step — a plain store can move the value backwards if another
    /// sender raced a larger value in first. Delivery paths where two
    /// senders can target one slot (direct NVLink store racing a proxied IB
    /// signal) must use [`SignalSet::release_max`] instead.
    #[inline]
    pub fn release_store(&self, slot: usize, val: u64) {
        self.slots[slot].store(val, Ordering::Release);
    }

    /// Monotone release: advance the slot to at least `val` without ever
    /// regressing it (`fetch_max`). With `AcqRel` ordering the RMW both
    /// publishes this thread's prior writes and joins the slot's existing
    /// release chain, so concurrent senders into one slot compose: a
    /// consumer that observes `max(a, b)` is ordered after *both* senders.
    /// This is the safe delivery primitive for signal slots that several
    /// transports may hit in the same step.
    #[inline]
    pub fn release_max(&self, slot: usize, val: u64) {
        self.slots[slot].fetch_max(val, Ordering::AcqRel);
    }

    /// Spin until the slot reaches at least `val`, with acquire ordering —
    /// the paper's `acquire_wait(signal == sigVal)`. Values are monotone, so
    /// `>=` is the robust comparison. Returns the value actually observed
    /// (>= `val`), which protocol tracing records to pair the acquire with
    /// the releases it synchronised with.
    ///
    /// Escalates spin → yield → parked sleep, so a waiter stuck behind a
    /// stalled producer stops burning a core instead of spinning forever.
    #[inline]
    pub fn acquire_wait(&self, slot: usize, val: u64) -> u64 {
        let mut rounds = 0u32;
        loop {
            let observed = self.slots[slot].load(Ordering::Acquire);
            if observed >= val {
                return observed;
            }
            rounds += 1;
            Self::backoff(rounds);
        }
    }

    /// One step of the spin → yield → sleep escalation ladder, for the
    /// `rounds`-th consecutive unsatisfied probe. Returns true once the spin
    /// rung is exhausted — the point from which a bounded wait consults its
    /// clock. Waits that poll several slots at once (the fused exchange's
    /// pulse scheduler) walk the same ladder between sweeps.
    #[inline]
    pub fn backoff(rounds: u32) -> bool {
        if rounds < SPIN_BOUND {
            std::hint::spin_loop();
        } else if rounds < YIELD_BOUND {
            // PEs may be oversubscribed on the test machine: yield so the
            // producing thread can run.
            std::thread::yield_now();
        } else {
            std::thread::sleep(PARK_SLEEP);
        }
        rounds >= SPIN_BOUND
    }

    /// Non-blocking acquire probe.
    #[inline]
    pub fn try_acquire(&self, slot: usize, val: u64) -> bool {
        self.probe(slot, val).is_some()
    }

    /// [`SignalSet::try_acquire`] returning the value the acquire load saw.
    #[inline]
    pub(crate) fn probe(&self, slot: usize, val: u64) -> Option<u64> {
        let observed = self.slots[slot].load(Ordering::Acquire);
        (observed >= val).then_some(observed)
    }

    /// Acquire-wait with a deadline; returns false on timeout. Used by
    /// debugging harnesses to turn protocol deadlocks into diagnosable
    /// failures instead of hangs.
    pub fn acquire_wait_timeout(&self, slot: usize, val: u64, timeout: Duration) -> bool {
        self.acquire_wait_deadline(slot, val, Instant::now() + timeout)
            .is_ok()
    }

    /// The watchdog wait: acquire-wait until `deadline`.
    ///
    /// Returns `Ok(observed)` on success (same contract as
    /// [`SignalSet::acquire_wait`]) or `Err(last_observed)` when the
    /// deadline expires with the slot still below `val` — the stale value
    /// feeds a `StallReport`'s expected-vs-observed diagnosis. The deadline
    /// is only consulted once the spin bound is exhausted, so a satisfied
    /// wait (the fault-free hot path) never touches the clock; a wait that
    /// does escalate follows the same spin → yield → sleep ladder as
    /// [`SignalSet::acquire_wait`].
    pub fn acquire_wait_deadline(
        &self,
        slot: usize,
        val: u64,
        deadline: Instant,
    ) -> Result<u64, u64> {
        let mut rounds = 0u32;
        loop {
            let observed = self.slots[slot].load(Ordering::Acquire);
            if observed >= val {
                return Ok(observed);
            }
            rounds += 1;
            if rounds >= SPIN_BOUND && Instant::now() >= deadline {
                return Err(observed);
            }
            Self::backoff(rounds);
        }
    }

    /// Current value (relaxed; diagnostics only).
    pub fn peek(&self, slot: usize) -> u64 {
        self.slots[slot].load(Ordering::Relaxed)
    }

    /// Reset all slots to zero. Only safe between phases when no thread is
    /// waiting (used by tests and world teardown).
    pub fn reset(&self) {
        for s in self.slots.iter() {
            s.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

    #[test]
    fn wait_returns_when_signalled() {
        let s = SignalSet::new(2);
        s.release_store(1, 7);
        s.acquire_wait(1, 7); // must not hang
        assert!(s.try_acquire(1, 7));
        assert!(!s.try_acquire(0, 1));
    }

    #[test]
    fn monotone_comparison_accepts_larger_values() {
        let s = SignalSet::new(1);
        s.release_store(0, 10);
        s.acquire_wait(0, 3);
        assert!(s.try_acquire(0, 10));
    }

    #[test]
    fn release_acquire_publishes_data() {
        // The message-passing litmus test: data written relaxed before a
        // release signal must be visible after an acquire wait.
        let sig = SignalSet::new(1);
        let data = AtomicU32::new(0);
        for round in 1..200u64 {
            std::thread::scope(|sc| {
                sc.spawn(|| {
                    data.store(round as u32, Relaxed);
                    sig.release_store(0, round);
                });
                sc.spawn(|| {
                    sig.acquire_wait(0, round);
                    assert_eq!(data.load(Relaxed), round as u32);
                });
            });
        }
    }

    #[test]
    fn cross_thread_handoff_many_slots() {
        let sig = SignalSet::new(8);
        std::thread::scope(|sc| {
            sc.spawn(|| {
                for slot in 0..8 {
                    sig.release_store(slot, (slot + 1) as u64);
                }
            });
            sc.spawn(|| {
                for slot in (0..8).rev() {
                    sig.acquire_wait(slot, (slot + 1) as u64);
                }
            });
        });
    }

    #[test]
    fn timeout_wait_reports_missing_signal() {
        let s = SignalSet::new(1);
        assert!(!s.acquire_wait_timeout(0, 1, std::time::Duration::from_millis(5)));
        s.release_store(0, 1);
        assert!(s.acquire_wait_timeout(0, 1, std::time::Duration::from_millis(5)));
    }

    #[test]
    fn release_max_never_regresses() {
        let s = SignalSet::new(1);
        s.release_max(0, 5);
        s.release_max(0, 3); // late smaller value must not regress the slot
        assert_eq!(s.peek(0), 5);
        s.release_max(0, 9);
        assert_eq!(s.peek(0), 9);
    }

    #[test]
    fn racing_senders_compose_via_release_max() {
        // Two senders race different values into one slot; a consumer that
        // observes the max must see BOTH senders' prior data writes (the
        // RMW chain makes every earlier release in the modification order
        // visible).
        use std::sync::atomic::AtomicU32;
        for _ in 0..200 {
            let sig = SignalSet::new(1);
            let a = AtomicU32::new(0);
            let b = AtomicU32::new(0);
            std::thread::scope(|sc| {
                sc.spawn(|| {
                    a.store(11, Relaxed);
                    sig.release_max(0, 1);
                });
                sc.spawn(|| {
                    b.store(22, Relaxed);
                    sig.release_max(0, 2);
                });
                sc.spawn(|| {
                    let obs = sig.acquire_wait(0, 2);
                    assert!(obs >= 2);
                    // value 2's sender data must be visible ...
                    assert_eq!(b.load(Relaxed), 22);
                    // ... and if 1 was already merged into the chain the
                    // max is still 2, so we can't assert on `a` — but the
                    // slot itself must never show a regressed value.
                    assert!(sig.peek(0) >= 2);
                });
            });
        }
    }

    #[test]
    fn acquire_wait_returns_observed_value() {
        let s = SignalSet::new(1);
        s.release_store(0, 10);
        assert_eq!(s.acquire_wait(0, 3), 10);
    }

    #[test]
    fn reset_clears() {
        let s = SignalSet::new(3);
        s.release_store(2, 5);
        s.reset();
        assert_eq!(s.peek(2), 0);
    }

    #[test]
    fn timeout_wait_already_satisfied_ignores_deadline() {
        // A satisfied slot must succeed even with a zero timeout — the
        // deadline is only consulted when the wait actually blocks.
        let s = SignalSet::new(1);
        s.release_store(0, 3);
        assert!(s.acquire_wait_timeout(0, 3, Duration::from_secs(0)));
        assert!(s.acquire_wait_timeout(0, 1, Duration::from_secs(0)));
    }

    #[test]
    fn timeout_wait_zero_timeout_unsatisfied_returns_fast() {
        let s = SignalSet::new(1);
        let t0 = Instant::now();
        assert!(!s.acquire_wait_timeout(0, 1, Duration::from_secs(0)));
        // Must return promptly (spin bound only), not sleep-escalate.
        assert!(t0.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn deadline_wait_reports_last_observed_value() {
        let s = SignalSet::new(1);
        s.release_store(0, 4);
        // Expecting 9, slot stuck at 4: the Err carries the stale value for
        // the stall report's expected-vs-observed diagnosis.
        let r = s.acquire_wait_deadline(0, 9, Instant::now() + Duration::from_millis(5));
        assert_eq!(r, Err(4));
        // Success returns the observed value like acquire_wait.
        let r = s.acquire_wait_deadline(0, 2, Instant::now() + Duration::from_millis(5));
        assert_eq!(r, Ok(4));
    }

    #[test]
    fn deadline_wait_satisfied_at_deadline_race() {
        // A producer racing the deadline: whichever way the race resolves,
        // the outcome must be coherent — Ok(v >= val) or Err(v < val) —
        // and a retry after the signal landed must succeed.
        for _ in 0..50 {
            let s = SignalSet::new(1);
            std::thread::scope(|sc| {
                sc.spawn(|| {
                    std::thread::sleep(Duration::from_micros(500));
                    s.release_store(0, 1);
                });
                let deadline = Instant::now() + Duration::from_micros(500);
                match s.acquire_wait_deadline(0, 1, deadline) {
                    Ok(v) => assert!(v >= 1),
                    Err(v) => assert!(v < 1),
                }
                // The signal is (eventually) there; a bounded retry sees it.
                assert!(s.acquire_wait_timeout(0, 1, Duration::from_secs(5)));
            });
        }
    }

    #[test]
    fn escalated_wait_still_observes_late_signal() {
        // Force the waiter past the yield bound into parked sleeps, then
        // satisfy the slot; the waiter must wake and return.
        let s = SignalSet::new(1);
        std::thread::scope(|sc| {
            sc.spawn(|| {
                std::thread::sleep(Duration::from_millis(30));
                s.release_store(0, 1);
            });
            assert_eq!(s.acquire_wait(0, 1), 1);
        });
    }
}
