//! Structure-of-arrays coordinate/force buffers.
//!
//! The cluster-pair kernel ([`crate::cluster`]) wants contiguous per-lane
//! `f32` arrays so its 4×4 micro-tiles auto-vectorize; the rest of the
//! engine speaks `Vec3` (AoS). These buffers are the bridge. Conversions
//! are element-by-element copies in index order — no arithmetic — so a
//! round trip is bitwise exact and the bridge can never perturb a
//! trajectory.

use crate::vec3::Vec3;

/// SoA coordinates: `x[i], y[i], z[i]` mirror `positions[i]`.
#[derive(Debug, Clone, Default)]
pub struct SoaCoords {
    pub x: Vec<f32>,
    pub y: Vec<f32>,
    pub z: Vec<f32>,
}

impl SoaCoords {
    pub fn with_len(n: usize) -> Self {
        SoaCoords {
            x: vec![0.0; n],
            y: vec![0.0; n],
            z: vec![0.0; n],
        }
    }

    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    pub fn resize(&mut self, n: usize) {
        self.x.resize(n, 0.0);
        self.y.resize(n, 0.0);
        self.z.resize(n, 0.0);
    }

    /// Build from an AoS slice (index-preserving).
    pub fn from_aos(positions: &[Vec3]) -> Self {
        let mut s = SoaCoords::with_len(positions.len());
        s.fill_from_aos(positions);
        s
    }

    /// Overwrite every lane from an AoS slice of the same length.
    pub fn fill_from_aos(&mut self, positions: &[Vec3]) {
        self.resize(positions.len());
        for (i, p) in positions.iter().enumerate() {
            self.x[i] = p.x;
            self.y[i] = p.y;
            self.z[i] = p.z;
        }
    }

    #[inline]
    pub fn set(&mut self, i: usize, p: Vec3) {
        self.x[i] = p.x;
        self.y[i] = p.y;
        self.z[i] = p.z;
    }

    #[inline]
    pub fn get(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }
}

/// SoA force accumulators with the same layout contract as [`SoaCoords`].
#[derive(Debug, Clone, Default)]
pub struct SoaForces {
    pub x: Vec<f32>,
    pub y: Vec<f32>,
    pub z: Vec<f32>,
}

impl SoaForces {
    pub fn with_len(n: usize) -> Self {
        SoaForces {
            x: vec![0.0; n],
            y: vec![0.0; n],
            z: vec![0.0; n],
        }
    }

    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Resize and zero every lane (start of a force pass).
    pub fn reset(&mut self, n: usize) {
        self.x.clear();
        self.y.clear();
        self.z.clear();
        self.x.resize(n, 0.0);
        self.y.resize(n, 0.0);
        self.z.resize(n, 0.0);
    }

    #[inline]
    pub fn get(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aos_soa_round_trip_is_bitwise() {
        let aos: Vec<Vec3> = (0..97)
            .map(|i| {
                let f = i as f32;
                Vec3::new(f * 0.1 + 0.3, -f * 0.7, 1.0 / (f + 1.0))
            })
            .collect();
        let soa = SoaCoords::from_aos(&aos);
        let back: Vec<Vec3> = (0..soa.len()).map(|i| soa.get(i)).collect();
        assert_eq!(aos.len(), back.len());
        for (a, b) in aos.iter().zip(&back) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
    }

    #[test]
    fn fill_resizes_and_overwrites() {
        let mut soa = SoaCoords::with_len(3);
        let aos = vec![Vec3::new(1.0, 2.0, 3.0); 8];
        soa.fill_from_aos(&aos);
        assert_eq!(soa.len(), 8);
        assert_eq!(soa.get(7), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn forces_reset_zeroes() {
        let mut f = SoaForces::with_len(4);
        f.x[2] = 5.0;
        f.reset(6);
        assert_eq!(f.len(), 6);
        assert!(f.x.iter().all(|&v| v == 0.0));
        assert_eq!(f.get(2), Vec3::ZERO);
    }
}
