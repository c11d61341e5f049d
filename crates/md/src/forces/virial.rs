//! Scalar virial and pressure: `W = sum_pairs f_ij . r_ij`, with
//! `P = (2 K + W) / (3 V)` for pairwise-additive forces.

use crate::forces::nonbonded::NonbondedParams;
use crate::frame::Frame;
use crate::pairlist::PairList;
use crate::pbc::PbcBox;
use crate::topology::{Angle, AtomKind, Bond};
use crate::vec3::Vec3;

/// Non-bonded energy + forces + scalar virial in one pass — the crate's one
/// scalar pair loop ([`crate::forces::compute_nonbonded`] is its energy
/// half). Forces accumulate into `forces` (length = positions length).
pub fn compute_nonbonded_virial(
    frame: &Frame,
    positions: &[Vec3],
    kinds: &[AtomKind],
    pairs: &PairList,
    params: &NonbondedParams,
    forces: &mut [Vec3],
) -> (f64, f64) {
    assert_eq!(positions.len(), kinds.len());
    assert_eq!(positions.len(), forces.len());
    let rc2 = params.cutoff * params.cutoff;
    // One charge gather per atom instead of two `charge()` calls per pair;
    // same f32 values, so results are bitwise unchanged.
    let charges = crate::forces::nonbonded::charge_table(kinds);
    let mut energy = 0.0f64;
    let mut virial = 0.0f64;
    for i in 0..pairs.n_rows() {
        let pi = positions[i];
        let ki = kinds[i];
        let qi = charges[i];
        let lo = pairs.starts[i] as usize;
        let hi = pairs.starts[i + 1] as usize;
        let mut fi = Vec3::ZERO;
        for &j in &pairs.j_atoms[lo..hi] {
            let j = j as usize;
            let d = frame.displacement(pi, positions[j]);
            let r2 = d.norm2();
            if r2 >= rc2 || r2 == 0.0 {
                continue;
            }
            let (v, f_over_r) = params.pair(ki, kinds[j], qi, charges[j], r2);
            energy += v as f64;
            let f = d * f_over_r;
            // f . r for this pair: f_over_r * r2.
            virial += (f_over_r * r2) as f64;
            fi += f;
            forces[j] -= f;
        }
        forces[i] += fi;
    }
    (energy, virial)
}

/// Bond-term virial (harmonic bonds are pairwise: f . r).
pub fn bond_virial(pbc: &PbcBox, positions: &[Vec3], bonds: &[Bond]) -> f64 {
    let mut w = 0.0f64;
    for b in bonds {
        let d = pbc.min_image(positions[b.i as usize], positions[b.j as usize]);
        let r = d.norm();
        if r == 0.0 {
            continue;
        }
        let f_over_r = -b.k * (r - b.r0) / r;
        w += (f_over_r * r * r) as f64;
    }
    w
}

/// Angle-term virial via the atomic form `W = sum_i f_i . r_i` evaluated
/// with angle forces only (valid for a whole periodic system when molecule
/// geometries are compact; we evaluate in the local frame of each angle).
pub fn angle_virial(pbc: &PbcBox, positions: &[Vec3], angles: &[Angle]) -> f64 {
    let mut w = 0.0f64;
    for a in angles {
        let rij = pbc.min_image(positions[a.i as usize], positions[a.j as usize]);
        let rkj = pbc.min_image(positions[a.k_atom as usize], positions[a.j as usize]);
        let nij = rij.norm();
        let nkj = rkj.norm();
        if nij == 0.0 || nkj == 0.0 {
            continue;
        }
        let cos_t = (rij.dot(rkj) / (nij * nkj)).clamp(-1.0, 1.0);
        let theta = cos_t.acos();
        let dt = theta - a.theta0;
        let sin_t = (1.0 - cos_t * cos_t).sqrt().max(1e-6);
        let coeff = a.k * dt / sin_t;
        let fi = (rkj / (nij * nkj) - rij * (cos_t / (nij * nij))) * coeff;
        let fk = (rij / (nij * nkj) - rkj * (cos_t / (nkj * nkj))) * coeff;
        // In the j-centred frame: r_i = rij, r_k = rkj, r_j = 0.
        w += (fi.dot(rij) + fk.dot(rkj)) as f64;
    }
    w
}

/// Instantaneous pressure (bar) from kinetic energy, total virial, and the
/// box volume. MD units: kJ/mol, nm -> 1 kJ/(mol nm^3) = 16.6054 bar.
pub fn pressure_bar(kinetic: f64, virial: f64, volume_nm3: f64) -> f64 {
    const KJ_PER_MOL_NM3_TO_BAR: f64 = 16.605_39;
    (2.0 * kinetic + virial) / (3.0 * volume_nm3) * KJ_PER_MOL_NM3_TO_BAR
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_particle_virial_is_f_dot_r() {
        // Two uncharged CH3 atoms at distance r: W = f/r * r^2.
        let pbc = PbcBox::cubic(6.0);
        let frame = Frame::fully_periodic(&pbc);
        let positions = vec![Vec3::new(1.0, 1.0, 1.0), Vec3::new(1.5, 1.0, 1.0)];
        let kinds = vec![AtomKind::Ch3, AtomKind::Ch3];
        let all = |_: usize, _: usize| true;
        let pl = PairList::build(&pbc, &positions, 1.0, &all);
        let params = NonbondedParams::new(0.9);
        let mut forces = vec![Vec3::ZERO; 2];
        let (_, w) =
            compute_nonbonded_virial(&frame, &positions, &kinds, &pl, &params, &mut forces);
        let (_, f_over_r) = params.pair(AtomKind::Ch3, AtomKind::Ch3, 0.0, 0.0, 0.25);
        assert!((w - (f_over_r * 0.25) as f64).abs() < 1e-9, "{w}");
    }

    #[test]
    fn bond_at_equilibrium_has_zero_virial() {
        let pbc = PbcBox::cubic(5.0);
        let positions = vec![Vec3::splat(1.0), Vec3::new(1.1, 1.0, 1.0)];
        let bonds = vec![Bond {
            i: 0,
            j: 1,
            r0: 0.1,
            k: 1000.0,
        }];
        let w = bond_virial(&pbc, &positions, &bonds);
        assert!(w.abs() < 1e-4, "{w}");
        // Stretched bond: attractive force, negative virial.
        let positions = vec![Vec3::splat(1.0), Vec3::new(1.2, 1.0, 1.0)];
        let w = bond_virial(&pbc, &positions, &bonds);
        assert!(w < 0.0, "{w}");
    }

    #[test]
    fn ideal_gas_pressure_matches_kinetic_theory() {
        // W = 0: P V = 2/3 K; with K = 1.5 N kB T this is the ideal gas law.
        let n = 1000.0;
        let t = 300.0;
        let v = 100.0;
        let k = 1.5 * n * crate::system::KB as f64 * t;
        let p = pressure_bar(k, 0.0, v);
        let expect = n * crate::system::KB as f64 * t / v * 16.605_39;
        assert!((p - expect).abs() / expect < 1e-9);
        // ~415 bar for 10 atoms/nm^3 at 300 K.
        assert!((expect - 414.0).abs() < 5.0, "{expect}");
    }

    #[test]
    fn angle_virial_is_zero_for_pure_rotation_terms() {
        // Angle forces are orthogonal-ish to bond directions; at equilibrium
        // theta the virial vanishes.
        let pbc = PbcBox::cubic(5.0);
        let tmpl = crate::topology::MoleculeTemplate::water();
        let positions: Vec<Vec3> = tmpl
            .geometry
            .iter()
            .map(|&g| g + Vec3::splat(2.0))
            .collect();
        let w = angle_virial(&pbc, &positions, &tmpl.angles);
        assert!(w.abs() < 1e-4, "{w}");
    }
}
