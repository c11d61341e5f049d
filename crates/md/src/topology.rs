//! Molecular topology: atom types, non-bonded parameters, and the simplified
//! water / ethanol molecule templates used to build "grappa"-like benchmark
//! systems.
//!
//! The paper's grappa benchmark set is a homogeneous water–ethanol mixture
//! chosen so the workload resembles biomolecular simulation while remaining
//! uniform — ideal for scaling studies. We reproduce that character with a
//! 3-site flexible water (SPC-like geometry, harmonic bonds/angle instead of
//! constraints) and a 3-site united-atom ethanol (CH3–CH2–OH).

use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// Non-bonded atom type. Indexes into [`lj_table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AtomKind {
    /// Water oxygen.
    Ow,
    /// Water hydrogen.
    Hw,
    /// United-atom methyl (CH3).
    Ch3,
    /// United-atom methylene (CH2).
    Ch2,
    /// Hydroxyl oxygen+hydrogen lumped site (OH).
    Oh,
}

impl AtomKind {
    pub const COUNT: usize = 5;

    #[inline]
    pub fn index(self) -> usize {
        match self {
            AtomKind::Ow => 0,
            AtomKind::Hw => 1,
            AtomKind::Ch3 => 2,
            AtomKind::Ch2 => 3,
            AtomKind::Oh => 4,
        }
    }

    /// Atomic / united-atom mass in amu.
    #[inline]
    pub fn mass(self) -> f32 {
        match self {
            AtomKind::Ow => 15.999,
            AtomKind::Hw => 1.008,
            AtomKind::Ch3 => 15.035,
            AtomKind::Ch2 => 14.027,
            AtomKind::Oh => 17.007,
        }
    }

    /// Partial charge in e.
    #[inline]
    pub fn charge(self) -> f32 {
        match self {
            AtomKind::Ow => -0.82,
            AtomKind::Hw => 0.41,
            AtomKind::Ch3 => 0.0,
            AtomKind::Ch2 => 0.25,
            AtomKind::Oh => -0.25,
        }
    }
}

/// Lennard-Jones parameters (sigma in nm, epsilon in kJ/mol).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LjParams {
    pub sigma: f32,
    pub epsilon: f32,
}

impl LjParams {
    /// Lorentz-Berthelot combination of two atom types.
    #[inline]
    pub fn combine(a: LjParams, b: LjParams) -> LjParams {
        LjParams {
            sigma: 0.5 * (a.sigma + b.sigma),
            epsilon: (a.epsilon * b.epsilon).sqrt(),
        }
    }

    /// Precomputed C6/C12 form: `(c6, c12)` with `c6 = 4*eps*sigma^6`.
    #[inline]
    pub fn c6_c12(self) -> (f32, f32) {
        let s6 = self.sigma.powi(6);
        let c6 = 4.0 * self.epsilon * s6;
        let c12 = c6 * s6;
        (c6, c12)
    }
}

/// Per-kind LJ parameter table (SPC-ish water, GROMOS-ish united atoms).
pub fn lj_table() -> [LjParams; AtomKind::COUNT] {
    [
        LjParams {
            sigma: 0.3166,
            epsilon: 0.650,
        }, // Ow
        // Hw gets a small LJ core (unlike SPC) so that intermolecular O-H
        // Coulomb attraction cannot collapse without constraint algorithms.
        LjParams {
            sigma: 0.1200,
            epsilon: 0.10,
        }, // Hw
        LjParams {
            sigma: 0.3748,
            epsilon: 0.867,
        }, // Ch3
        LjParams {
            sigma: 0.3905,
            epsilon: 0.494,
        }, // Ch2
        LjParams {
            sigma: 0.3066,
            epsilon: 0.880,
        }, // Oh
    ]
}

/// A harmonic bond between two atoms of a molecule (local indices).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bond {
    pub i: u32,
    pub j: u32,
    /// Equilibrium length (nm).
    pub r0: f32,
    /// Force constant (kJ/mol/nm^2).
    pub k: f32,
}

/// A harmonic angle i-j-k (j is the vertex).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Angle {
    pub i: u32,
    pub j: u32,
    pub k_atom: u32,
    /// Equilibrium angle (radians).
    pub theta0: f32,
    /// Force constant (kJ/mol/rad^2).
    pub k: f32,
}

/// A molecule template: site kinds, reference geometry, bonded terms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MoleculeTemplate {
    pub name: &'static str,
    pub kinds: Vec<AtomKind>,
    /// Reference site positions relative to the molecule anchor (nm).
    pub geometry: Vec<Vec3>,
    pub bonds: Vec<Bond>,
    pub angles: Vec<Angle>,
}

impl MoleculeTemplate {
    pub fn n_sites(&self) -> usize {
        self.kinds.len()
    }

    /// Total molecular mass (amu).
    pub fn mass(&self) -> f32 {
        self.kinds.iter().map(|k| k.mass()).sum()
    }

    /// Net molecular charge (e); both templates are neutral.
    pub fn net_charge(&self) -> f32 {
        self.kinds.iter().map(|k| k.charge()).sum()
    }

    /// Flexible 3-site water: O at the anchor, two H at SPC geometry
    /// (r(OH)=0.1 nm, HOH angle 109.47 deg).
    pub fn water() -> Self {
        let r_oh = 0.1_f32;
        let half = (109.47_f32).to_radians() * 0.5;
        MoleculeTemplate {
            name: "water",
            kinds: vec![AtomKind::Ow, AtomKind::Hw, AtomKind::Hw],
            geometry: vec![
                Vec3::ZERO,
                Vec3::new(r_oh * half.sin(), r_oh * half.cos(), 0.0),
                Vec3::new(-r_oh * half.sin(), r_oh * half.cos(), 0.0),
            ],
            bonds: vec![
                Bond {
                    i: 0,
                    j: 1,
                    r0: r_oh,
                    k: 345_000.0,
                },
                Bond {
                    i: 0,
                    j: 2,
                    r0: r_oh,
                    k: 345_000.0,
                },
            ],
            angles: vec![Angle {
                i: 1,
                j: 0,
                k_atom: 2,
                theta0: (109.47_f32).to_radians(),
                k: 383.0,
            }],
        }
    }

    /// United-atom ethanol: CH3–CH2–OH chain.
    pub fn ethanol() -> Self {
        let r_cc = 0.153_f32;
        let r_co = 0.143_f32;
        let theta = (109.5_f32).to_radians();
        MoleculeTemplate {
            name: "ethanol",
            kinds: vec![AtomKind::Ch3, AtomKind::Ch2, AtomKind::Oh],
            geometry: vec![
                Vec3::ZERO,
                Vec3::new(r_cc, 0.0, 0.0),
                Vec3::new(
                    r_cc + r_co * (std::f32::consts::PI - theta).cos().abs(),
                    r_co * theta.sin(),
                    0.0,
                ),
            ],
            bonds: vec![
                Bond {
                    i: 0,
                    j: 1,
                    r0: r_cc,
                    k: 224_000.0,
                },
                Bond {
                    i: 1,
                    j: 2,
                    r0: r_co,
                    k: 268_000.0,
                },
            ],
            angles: vec![Angle {
                i: 0,
                j: 1,
                k_atom: 2,
                theta0: theta,
                k: 520.0,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_is_neutral_three_sites() {
        let w = MoleculeTemplate::water();
        assert_eq!(w.n_sites(), 3);
        assert!(w.net_charge().abs() < 1e-6);
        assert!((w.mass() - 18.015).abs() < 1e-2);
    }

    #[test]
    fn ethanol_is_neutral_three_sites() {
        let e = MoleculeTemplate::ethanol();
        assert_eq!(e.n_sites(), 3);
        assert!(e.net_charge().abs() < 1e-6);
        assert!((e.mass() - 46.069).abs() < 1e-2);
    }

    #[test]
    fn water_geometry_matches_bond_lengths() {
        let w = MoleculeTemplate::water();
        for b in &w.bonds {
            let d = (w.geometry[b.i as usize] - w.geometry[b.j as usize]).norm();
            assert!((d - b.r0).abs() < 1e-5, "bond {b:?} length {d}");
        }
    }

    #[test]
    fn ethanol_geometry_matches_bond_lengths() {
        let e = MoleculeTemplate::ethanol();
        for b in &e.bonds {
            let d = (e.geometry[b.i as usize] - e.geometry[b.j as usize]).norm();
            assert!((d - b.r0).abs() < 1e-3, "bond {b:?} length {d}");
        }
    }

    #[test]
    fn water_angle_matches_geometry() {
        let w = MoleculeTemplate::water();
        let a = w.angles[0];
        let v1 = (w.geometry[a.i as usize] - w.geometry[a.j as usize]).normalized();
        let v2 = (w.geometry[a.k_atom as usize] - w.geometry[a.j as usize]).normalized();
        let theta = v1.dot(v2).clamp(-1.0, 1.0).acos();
        assert!((theta - a.theta0).abs() < 1e-3);
    }

    #[test]
    fn lorentz_berthelot() {
        let t = lj_table();
        let c = LjParams::combine(t[0], t[2]);
        assert!((c.sigma - 0.5 * (0.3166 + 0.3748)).abs() < 1e-6);
        assert!((c.epsilon - (0.650_f32 * 0.867).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn c6_c12_consistent() {
        let p = LjParams {
            sigma: 0.3,
            epsilon: 0.5,
        };
        let (c6, c12) = p.c6_c12();
        // At r = sigma the LJ potential is zero: c12/r^12 == c6/r^6.
        let r6 = p.sigma.powi(6);
        assert!((c12 / r6 - c6).abs() < 1e-6);
    }

    #[test]
    fn kind_indices_are_dense() {
        let kinds = [
            AtomKind::Ow,
            AtomKind::Hw,
            AtomKind::Ch3,
            AtomKind::Ch2,
            AtomKind::Oh,
        ];
        let mut seen = [false; AtomKind::COUNT];
        for k in kinds {
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
