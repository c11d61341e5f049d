//! Collective operations over the PE world: sum all-reduce (used for global
//! kinetic-energy reduction by the thermostat) and min/max variants.
//!
//! Implemented as deposit — barrier — reduce — barrier over per-PE slots.
//! Every PE stores its contribution into its own slot, then (after the
//! arrival barrier has published all deposits) reduces the slots **in PE
//! index order**. Floating-point addition is not associative, so a shared
//! `fetch_add` accumulator — the previous implementation — made the total
//! depend on thread arrival order: two runs of the same system disagreed in
//! the last ulp, and a threaded run could never be bitwise-equal to the
//! serial driver's rank-order sum. The per-slot scheme costs one extra
//! read pass but makes every PE compute the identical, schedule-independent
//! bit pattern. The trailing barrier keeps the slots reusable: nobody may
//! deposit round k+1 until everyone has read round k.
//!
//! Deadline-bounded variants (`*_deadline`) back the engine's watchdog:
//! a PE that never reaches the collective expires every other PE's wait
//! instead of hanging the world (DESIGN.md §3.2).

use crate::barrier::SenseBarrier;
use crate::shared::Slots;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// An atomic `f64` built on `AtomicU64` bit-casting.
#[derive(Debug, Default)]
pub struct AtomicF64 {
    bits: AtomicU64,
}

impl AtomicF64 {
    pub fn new(v: f64) -> Self {
        AtomicF64 {
            bits: AtomicU64::new(v.to_bits()),
        }
    }

    #[inline]
    pub fn load(&self, order: Ordering) -> f64 {
        f64::from_bits(self.bits.load(order))
    }

    #[inline]
    pub fn store(&self, v: f64, order: Ordering) {
        self.bits.store(v.to_bits(), order);
    }

    /// Atomic `+= v` via compare-exchange; returns the previous value.
    #[inline]
    pub fn fetch_add(&self, v: f64, order: Ordering) -> f64 {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, new, order, Ordering::Relaxed)
            {
                Ok(prev) => return f64::from_bits(prev),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Atomic `max` via compare-exchange; returns the previous value.
    #[inline]
    pub fn fetch_max(&self, v: f64, order: Ordering) -> f64 {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let c = f64::from_bits(cur);
            if c >= v {
                return c;
            }
            match self
                .bits
                .compare_exchange_weak(cur, v.to_bits(), order, Ordering::Relaxed)
            {
                Ok(prev) => return f64::from_bits(prev),
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Reusable collective context for a fixed PE count: one deposit slot per
/// PE, reduced in PE index order by every participant.
#[derive(Debug)]
pub struct Collectives {
    slots: Slots<AtomicF64>,
    barrier: SenseBarrier,
}

impl Collectives {
    pub fn new(npes: usize) -> Self {
        Collectives {
            slots: Slots::alloc(npes).unwrap_or_else(|e| panic!("{e}")),
            barrier: SenseBarrier::new(npes),
        }
    }

    pub fn npes(&self) -> usize {
        self.slots.len()
    }

    /// Sum `my` over all PEs; every PE gets the total, reduced in PE index
    /// order so the bit pattern is independent of thread scheduling. All
    /// PEs of the world must participate, and must pass their own index.
    pub fn allreduce_sum(&self, pe: usize, my: f64) -> f64 {
        self.slots[pe].store(my, Ordering::Relaxed);
        // Arrival barrier publishes every deposit (the barrier's AcqRel
        // arrival chain + Release generation bump order the relaxed stores
        // before any post-barrier load).
        self.barrier.wait();
        let total = self.reduce_sum();
        // Departure barrier: nobody deposits the next round until everyone
        // has read this one.
        self.barrier.wait();
        total
    }

    /// Max of `my` over all PEs (same slot protocol as the sum).
    pub fn allreduce_max(&self, pe: usize, my: f64) -> f64 {
        self.slots[pe].store(my, Ordering::Relaxed);
        self.barrier.wait();
        let total = self.reduce_max();
        self.barrier.wait();
        total
    }

    /// Deadline-bounded [`Collectives::allreduce_sum`]: `None` if the world
    /// did not complete the collective by `deadline` (a peer crashed or
    /// stalled). The shared barrier is poisoned after an expiry — callers
    /// must abandon the world, exactly like an expired exchange wait.
    pub fn allreduce_sum_deadline(&self, pe: usize, my: f64, deadline: Instant) -> Option<f64> {
        self.slots[pe].store(my, Ordering::Relaxed);
        self.barrier.wait_deadline(deadline).ok()?;
        let total = self.reduce_sum();
        self.barrier.wait_deadline(deadline).ok()?;
        Some(total)
    }

    fn reduce_sum(&self) -> f64 {
        let mut total = 0.0;
        for s in self.slots.iter() {
            total += s.load(Ordering::Relaxed);
        }
        total
    }

    fn reduce_max(&self) -> f64 {
        let mut m = f64::NEG_INFINITY;
        for s in self.slots.iter() {
            m = m.max(s.load(Ordering::Relaxed));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::Relaxed;

    #[test]
    fn atomic_f64_ops() {
        let a = AtomicF64::new(1.5);
        assert_eq!(a.fetch_add(2.5, Relaxed), 1.5);
        assert_eq!(a.load(Relaxed), 4.0);
        assert_eq!(a.fetch_max(3.0, Relaxed), 4.0);
        assert_eq!(a.fetch_max(5.0, Relaxed), 4.0);
        assert_eq!(a.load(Relaxed), 5.0);
    }

    #[test]
    fn allreduce_sum_over_threads() {
        let c = Collectives::new(4);
        std::thread::scope(|s| {
            for pe in 0..4 {
                let c = &c;
                s.spawn(move || {
                    for round in 0..50 {
                        let total = c.allreduce_sum(pe, (pe + 1) as f64 * (round + 1) as f64);
                        assert_eq!(total, 10.0 * (round + 1) as f64, "round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn allreduce_max_over_threads() {
        let c = Collectives::new(3);
        std::thread::scope(|s| {
            for pe in 0..3 {
                let c = &c;
                s.spawn(move || {
                    for round in 0..20 {
                        let m = c.allreduce_max(pe, pe as f64 - round as f64);
                        assert_eq!(m, 2.0 - round as f64);
                    }
                });
            }
        });
    }

    #[test]
    fn allreduce_sum_is_bitwise_deterministic_across_schedules() {
        // Values chosen so that summation order changes the last ulp:
        // (a + b) + c != a + (b + c) for these. The per-slot reduction must
        // return the PE-index-order sum on every PE, every round, no matter
        // how threads interleave — jitter injected to vary arrival order.
        let vals = [1e16, 1.0, -1e16, 3.0];
        let expected = vals.iter().fold(0.0f64, |acc, v| acc + v); // index order
        let c = Collectives::new(4);
        for trial in 0..30 {
            std::thread::scope(|s| {
                for pe in 0..4 {
                    let c = &c;
                    s.spawn(move || {
                        if (pe + trial) % 2 == 0 {
                            std::thread::sleep(std::time::Duration::from_micros(
                                ((pe * 37 + trial * 13) % 90) as u64,
                            ));
                        }
                        let total = c.allreduce_sum(pe, vals[pe]);
                        assert_eq!(
                            total.to_bits(),
                            expected.to_bits(),
                            "trial {trial}: {total} vs {expected}"
                        );
                    });
                }
            });
        }
    }

    #[test]
    fn allreduce_deadline_completes_when_all_participate() {
        use std::time::{Duration, Instant};
        let c = Collectives::new(3);
        std::thread::scope(|s| {
            for pe in 0..3 {
                let c = &c;
                s.spawn(move || {
                    let d = Instant::now() + Duration::from_secs(5);
                    assert_eq!(c.allreduce_sum_deadline(pe, 1.0, d), Some(3.0));
                });
            }
        });
    }

    #[test]
    fn allreduce_deadline_expires_on_absent_peer() {
        use std::time::{Duration, Instant};
        // PE 1 never shows up: PE 0's bounded collective must expire
        // instead of spinning forever.
        let c = Collectives::new(2);
        let d = Instant::now() + Duration::from_millis(30);
        assert_eq!(c.allreduce_sum_deadline(0, 1.0, d), None);
    }
}
