//! Wall-clock phase timing for the functional engine.
//!
//! The paper instruments kernels with the GPU `%globaltimer` register
//! (§6.3) and derives *Local work*, *Non-local work* and *Non-overlap*
//! intervals. The functional plane is host-threaded, so the analogue is a
//! per-rank phase timer collecting wall-clock durations of the step phases;
//! the simulated device-side metrics for Figs 6-8 live in
//! `halox_core::sched::metrics`.

use halox_md::nb::PhaseClock;
use halox_shmem::{Wire, WireError, WireReader};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Named phase accumulator.
#[derive(Debug, Default, Clone)]
pub struct PhaseTimer {
    acc: BTreeMap<&'static str, (Duration, u64)>,
}

impl PhaseTimer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Book one invocation of `phase` that took `dt` — for an interval
    /// [`PhaseClock::time`] cannot wrap, such as one with a nested phase
    /// subtracted.
    pub(crate) fn add(&mut self, phase: &'static str, dt: Duration) {
        let e = self.acc.entry(phase).or_insert((Duration::ZERO, 0));
        e.0 += dt;
        e.1 += 1;
    }

    /// Total time spent in a phase.
    pub fn total(&self, phase: &str) -> Duration {
        self.acc
            .get(phase)
            .map(|&(d, _)| d)
            .unwrap_or(Duration::ZERO)
    }

    /// Mean time per invocation of a phase, if any.
    pub fn mean(&self, phase: &str) -> Option<Duration> {
        self.acc
            .get(phase)
            .and_then(|&(d, n)| (n > 0).then(|| d / n as u32))
    }

    /// Iterate `(phase, total, count)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Duration, u64)> + '_ {
        self.acc.iter().map(|(&k, &(d, n))| (k, d, n))
    }

    /// Merge another timer into this one (cross-rank aggregation).
    pub fn merge(&mut self, other: &PhaseTimer) {
        for (k, d, n) in other.iter() {
            let e = self.acc.entry(k).or_insert((Duration::ZERO, 0));
            e.0 += d;
            e.1 += n;
        }
    }

    /// The phase with the largest total, if any phase was timed.
    ///
    /// Regression note: report consumers used `iter().next().unwrap()`,
    /// which panics on a timer that never saw a phase (e.g. a zero-step
    /// run). Empty timers are legal; use the `Option`.
    pub fn slowest(&self) -> Option<(&'static str, Duration)> {
        self.acc
            .iter()
            .max_by_key(|(_, &(d, _))| d)
            .map(|(&k, &(d, _))| (k, d))
    }

    /// Multi-line human-readable report: one `phase total mean count` line
    /// per phase in name order. An empty timer formats as an empty report
    /// (no lines, no panic).
    pub fn report(&self) -> String {
        let mut out = String::new();
        for (k, d, n) in self.iter() {
            let mean = d / (n.max(1) as u32);
            out.push_str(&format!(
                "{k:<24} total {:>10.3?}  mean {:>10.3?}  n {n}\n",
                d, mean
            ));
        }
        out
    }
}

/// Every phase is timed through this one method: the engine's own and the
/// ones the non-bonded evaluator books (`pairlist`, `pack`, `pack_overlap`,
/// `nb_local`, `nb_halo`).
impl PhaseClock for PhaseTimer {
    fn time<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(phase, t0.elapsed());
        out
    }
}

/// Wire encoding so per-rank timers can cross the process boundary of the
/// `procs` world backend (entry count, then `(name, total, count)` in name
/// order — the `BTreeMap` iteration order, so encoding is deterministic).
impl Wire for PhaseTimer {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.acc.len() as u64).encode(out);
        for (&k, &(d, n)) in &self.acc {
            k.encode(out);
            d.encode(out);
            n.encode(out);
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        let len = u64::decode(r)? as usize;
        let mut acc = BTreeMap::new();
        for _ in 0..len {
            let k = <&'static str>::decode(r)?;
            let d = Duration::decode(r)?;
            let n = u64::decode(r)?;
            acc.insert(k, (d, n));
        }
        Ok(PhaseTimer { acc })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trip_preserves_phases() {
        let mut t = PhaseTimer::new();
        t.time("exchange", || ());
        t.time("forces", || ());
        t.time("forces", || ());
        let back = PhaseTimer::from_bytes(&t.to_bytes()).expect("round trip");
        let a: Vec<_> = t.iter().collect();
        let b: Vec<_> = back.iter().collect();
        assert_eq!(a, b);
        // Decoding twice interns to the same static name.
        let again = PhaseTimer::from_bytes(&t.to_bytes()).expect("round trip");
        let (k1, _, _) = back.iter().next().unwrap();
        let (k2, _, _) = again.iter().next().unwrap();
        assert!(std::ptr::eq(k1, k2) || k1 == k2);
    }

    #[test]
    fn accumulates_phases() {
        let mut t = PhaseTimer::new();
        let x = t.time("work", || 21 * 2);
        assert_eq!(x, 42);
        t.time("work", || std::thread::sleep(Duration::from_millis(1)));
        assert!(t.total("work") >= Duration::from_millis(1));
        assert_eq!(t.iter().count(), 1);
        let (_, _, n) = t.iter().next().expect("one phase was timed");
        assert_eq!(n, 2);
        assert!(t.mean("work").is_some());
        assert!(t.mean("absent").is_none());
        let (name, d) = t.slowest().expect("one phase was timed");
        assert_eq!(name, "work");
        assert!(d >= Duration::from_millis(1));
    }

    #[test]
    fn empty_timer_formats_as_empty_report() {
        // Regression: reporting off an untouched timer must not panic —
        // `slowest()` is None and `report()` is the empty string.
        let t = PhaseTimer::new();
        assert!(t.slowest().is_none());
        assert_eq!(t.report(), "");
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.total("anything"), Duration::ZERO);
    }

    #[test]
    fn report_lists_each_phase_once() {
        let mut t = PhaseTimer::new();
        t.time("exchange", || ());
        t.time("forces", || ());
        t.time("forces", || ());
        let rep = t.report();
        assert_eq!(rep.lines().count(), 2);
        assert!(rep.contains("exchange"));
        assert!(rep.contains("forces"));
        assert!(rep.contains("n 2"));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = PhaseTimer::new();
        a.time("p", || ());
        let mut b = PhaseTimer::new();
        b.time("p", || ());
        b.time("q", || ());
        a.merge(&b);
        let counts: Vec<_> = a.iter().map(|(k, _, n)| (k, n)).collect();
        assert_eq!(counts, vec![("p", 2), ("q", 1)]);
    }
}
