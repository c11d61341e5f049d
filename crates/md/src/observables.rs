//! Per-step energy bookkeeping and drift measurement.

use serde::{Deserialize, Serialize};

/// Energies of one MD step (kJ/mol) plus the scalar virial.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    pub nonbonded: f64,
    pub bonds: f64,
    pub angles: f64,
    pub kinetic: f64,
    /// Scalar virial `W = sum f.r` over all interactions (0 when the
    /// producer does not track it).
    pub virial: f64,
}

impl EnergyReport {
    pub fn potential(&self) -> f64 {
        self.nonbonded + self.bonds + self.angles
    }

    pub fn total(&self) -> f64 {
        self.potential() + self.kinetic
    }

    /// Instantaneous pressure (bar) for a box of `volume_nm3`.
    pub fn pressure_bar(&self, volume_nm3: f64) -> f64 {
        crate::forces::virial::pressure_bar(self.kinetic, self.virial, volume_nm3)
    }

    /// Every term's bit pattern, in field order.
    pub fn to_bits(&self) -> [u64; 5] {
        [
            self.nonbonded,
            self.bonds,
            self.angles,
            self.kinetic,
            self.virial,
        ]
        .map(f64::to_bits)
    }
}

/// Assert two energy histories are the same length and equal entry by
/// entry, every term to the bit. The one comparison the equivalence tests
/// make: a bare `zip` would let a history that dropped entries pass.
#[track_caller]
pub fn assert_energies_bitwise(label: &str, a: &[EnergyReport], b: &[EnergyReport]) {
    assert_eq!(
        a.len(),
        b.len(),
        "{label}: energy histories differ in length"
    );
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: energy entry {k}: {x:?} vs {y:?}"
        );
    }
}

/// Tracks conserved-quantity drift over a run.
#[derive(Debug, Clone, Default)]
pub struct DriftTracker {
    samples: Vec<(f64, f64)>, // (time ps, total energy)
}

impl DriftTracker {
    pub fn record(&mut self, time_ps: f64, total_energy: f64) {
        self.samples.push((time_ps, total_energy));
    }

    /// Least-squares drift slope in kJ/mol/ps, or None with < 2 samples.
    pub fn drift_per_ps(&self) -> Option<f64> {
        if self.samples.len() < 2 {
            return None;
        }
        let n = self.samples.len() as f64;
        let (st, se): (f64, f64) = self
            .samples
            .iter()
            .fold((0.0, 0.0), |(a, b), &(t, e)| (a + t, b + e));
        let (mt, me) = (st / n, se / n);
        let mut num = 0.0;
        let mut den = 0.0;
        for &(t, e) in &self.samples {
            num += (t - mt) * (e - me);
            den += (t - mt) * (t - mt);
        }
        if den == 0.0 {
            None
        } else {
            Some(num / den)
        }
    }

    /// Max |E - E0| / |E0| relative excursion from the first sample.
    pub fn max_relative_excursion(&self) -> Option<f64> {
        let &(_, e0) = self.samples.first()?;
        if e0 == 0.0 {
            return None;
        }
        self.samples
            .iter()
            .map(|&(_, e)| ((e - e0) / e0).abs())
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_sums() {
        let r = EnergyReport {
            nonbonded: 1.0,
            bonds: 2.0,
            angles: 3.0,
            kinetic: 4.0,
            virial: 0.0,
        };
        assert_eq!(r.potential(), 6.0);
        assert_eq!(r.total(), 10.0);
        // Ideal-gas limit: P V = 2/3 K.
        let p = r.pressure_bar(1.0);
        assert!((p - 2.0 / 3.0 * 4.0 * 16.605_39).abs() < 1e-6);
    }

    #[test]
    fn drift_of_linear_series_is_slope() {
        let mut d = DriftTracker::default();
        for i in 0..10 {
            d.record(i as f64, 100.0 + 2.5 * i as f64);
        }
        let s = d.drift_per_ps().unwrap();
        assert!((s - 2.5).abs() < 1e-9);
    }

    #[test]
    fn drift_of_flat_series_is_zero() {
        let mut d = DriftTracker::default();
        for i in 0..10 {
            d.record(i as f64, 42.0);
        }
        assert!(d.drift_per_ps().unwrap().abs() < 1e-12);
        assert_eq!(d.max_relative_excursion().unwrap(), 0.0);
    }

    #[test]
    fn insufficient_samples() {
        let mut d = DriftTracker::default();
        assert!(d.drift_per_ps().is_none());
        d.record(0.0, 1.0);
        assert!(d.drift_per_ps().is_none());
        assert_eq!(d.max_relative_excursion(), Some(0.0));
    }

    #[test]
    fn excursion_tracks_peak() {
        let mut d = DriftTracker::default();
        d.record(0.0, 100.0);
        d.record(1.0, 103.0);
        d.record(2.0, 99.0);
        let m = d.max_relative_excursion().unwrap();
        assert!((m - 0.03).abs() < 1e-12);
    }
}
