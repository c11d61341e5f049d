//! Non-bonded pair forces: Lennard-Jones plus reaction-field electrostatics.
//!
//! The paper's benchmarks use a reaction-field model "to allow focusing the
//! analysis on short-range interactions and halo exchange" (§6.1); we do the
//! same. Both terms are potential-shifted to zero at the cutoff so that
//! truncation does not inject energy.

use crate::forces::virial::compute_nonbonded_virial;
use crate::frame::Frame;
use crate::pairlist::PairList;
use crate::topology::{lj_table, AtomKind, LjParams};
use crate::vec3::Vec3;

/// Coulomb conversion factor in MD units (kJ mol^-1 nm e^-2).
pub const F_ELEC: f32 = 138.935_46;

/// Relative permittivity beyond the cutoff for the reaction field.
pub const EPS_RF: f32 = 78.0;

/// Precomputed parameters for the non-bonded kernel.
#[derive(Debug, Clone)]
pub struct NonbondedParams {
    pub cutoff: f32,
    /// Reaction-field quadratic coefficient k_rf (nm^-3).
    pub k_rf: f32,
    /// Reaction-field shift constant c_rf (nm^-1).
    pub c_rf: f32,
    /// Dense (kind, kind) -> (c6, c12) table ([`lj_coefficients`]; the
    /// cluster-pair list bakes its per-cluster rows from the same function).
    pub(crate) c6: KindTable,
    pub(crate) c12: KindTable,
    /// LJ potential shift per kind pair: value of LJ at the cutoff.
    /// Crate-visible so the cluster-pair kernel (`crate::cluster`) can lay
    /// it out per cluster for its energy flavour.
    pub(crate) vshift_lj: KindTable,
}

impl NonbondedParams {
    pub fn new(cutoff: f32) -> Self {
        assert!(cutoff > 0.0);
        // k_rf = (eps_rf - 1) / (2 eps_rf + 1) / rc^3 with eps1 = 1.
        let k_rf = (EPS_RF - 1.0) / (2.0 * EPS_RF + 1.0) / cutoff.powi(3);
        let c_rf = 1.0 / cutoff + k_rf * cutoff * cutoff;

        let (c6, c12) = lj_coefficients();
        let mut vshift_lj = [[0.0; AtomKind::COUNT]; AtomKind::COUNT];
        for a in 0..AtomKind::COUNT {
            for b in 0..AtomKind::COUNT {
                let rc6 = cutoff.powi(6);
                vshift_lj[a][b] = c12[a][b] / (rc6 * rc6) - c6[a][b] / rc6;
            }
        }
        NonbondedParams {
            cutoff,
            k_rf,
            c_rf,
            c6,
            c12,
            vshift_lj,
        }
    }

    /// LJ + RF pair energy and force scalar `f/r` for kinds (a, b), charges
    /// (qa, qb), squared distance `r2`. Returns `(energy, f_over_r)`.
    #[inline(always)]
    pub fn pair(&self, a: AtomKind, b: AtomKind, qa: f32, qb: f32, r2: f32) -> (f32, f32) {
        let ai = a.index();
        let bi = b.index();
        let inv_r2 = 1.0 / r2;
        let inv_r6 = inv_r2 * inv_r2 * inv_r2;
        let c6 = self.c6[ai][bi];
        let c12 = self.c12[ai][bi];
        let v_lj = c12 * inv_r6 * inv_r6 - c6 * inv_r6 - self.vshift_lj[ai][bi];
        let f_lj = (12.0 * c12 * inv_r6 * inv_r6 - 6.0 * c6 * inv_r6) * inv_r2;

        let qq = F_ELEC * qa * qb;
        let inv_r = inv_r2.sqrt();
        let v_rf = qq * (inv_r + self.k_rf * r2 - self.c_rf);
        let f_rf = qq * (inv_r * inv_r2 - 2.0 * self.k_rf);

        (v_lj + v_rf, f_lj + f_rf)
    }
}

/// The dense (kind, kind) `(c6, c12)` tables: combination rule over
/// [`lj_table`], no cutoff. [`NonbondedParams::new`] and the per-cluster LJ
/// rows `ClusterPairList::build` bakes both come from here, so they hold the
/// same bits.
pub(crate) fn lj_coefficients() -> (KindTable, KindTable) {
    let table = lj_table();
    let mut c6 = [[0.0; AtomKind::COUNT]; AtomKind::COUNT];
    let mut c12 = [[0.0; AtomKind::COUNT]; AtomKind::COUNT];
    for a in 0..AtomKind::COUNT {
        for b in 0..AtomKind::COUNT {
            (c6[a][b], c12[a][b]) = LjParams::combine(table[a], table[b]).c6_c12();
        }
    }
    (c6, c12)
}

/// One `f32` per (kind, kind) pair.
pub(crate) type KindTable = [[f32; AtomKind::COUNT]; AtomKind::COUNT];

/// Precompute the per-atom charge table once per force pass. `charge()` is
/// a match on the kind, and the inner pair loop used to evaluate it twice
/// per pair; one gather per atom up front replaces millions of calls per
/// pass with a slice index, and the looked-up values are the same f32s, so
/// energies and forces stay bitwise identical (asserted in tests).
pub fn charge_table(kinds: &[AtomKind]) -> Vec<f32> {
    kinds.iter().map(|k| k.charge()).collect()
}

/// Compute non-bonded forces over `pairs`, accumulating into `forces`
/// (length = positions length: home forces and halo forces both accumulate;
/// halo forces are returned to owners by the force halo exchange).
///
/// Returns the total potential energy (f64 accumulation): the energy half
/// of [`compute_nonbonded_virial`], which is the one scalar pair loop.
pub fn compute_nonbonded(
    frame: &Frame,
    positions: &[Vec3],
    kinds: &[AtomKind],
    pairs: &PairList,
    params: &NonbondedParams,
    forces: &mut [Vec3],
) -> f64 {
    compute_nonbonded_virial(frame, positions, kinds, pairs, params, forces).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairlist::PairList;
    use crate::system::GrappaBuilder;

    fn params() -> NonbondedParams {
        NonbondedParams::new(1.0)
    }

    #[test]
    fn potential_is_zero_at_cutoff() {
        let p = params();
        let rc2 = p.cutoff * p.cutoff;
        let (v, _) = p.pair(AtomKind::Ow, AtomKind::Ow, -0.82, -0.82, rc2);
        assert!(v.abs() < 1e-4, "V(rc) = {v}");
    }

    #[test]
    fn lj_repulsive_at_short_range() {
        let p = params();
        // Two uncharged CH3 sites very close: strong repulsion.
        let (v, f) = p.pair(AtomKind::Ch3, AtomKind::Ch3, 0.0, 0.0, 0.05);
        assert!(v > 0.0);
        assert!(f > 0.0);
    }

    #[test]
    fn lj_attractive_near_minimum() {
        let p = params();
        let table = lj_table();
        let sigma = table[AtomKind::Ch3.index()].sigma;
        let r_min = sigma * 2f32.powf(1.0 / 6.0);
        // Slightly beyond the minimum: force pulls inward (f/r < 0).
        let r = r_min * 1.1;
        let (_, f) = p.pair(AtomKind::Ch3, AtomKind::Ch3, 0.0, 0.0, r * r);
        assert!(f < 0.0, "expected attraction, got f/r = {f}");
    }

    #[test]
    fn force_is_negative_energy_gradient() {
        let p = params();
        let r = 0.45f32;
        let h = 1e-3f32;
        let (v_p, _) = p.pair(AtomKind::Ow, AtomKind::Ow, -0.82, -0.82, (r + h) * (r + h));
        let (v_m, _) = p.pair(AtomKind::Ow, AtomKind::Ow, -0.82, -0.82, (r - h) * (r - h));
        let (_, f_over_r) = p.pair(AtomKind::Ow, AtomKind::Ow, -0.82, -0.82, r * r);
        let f_numeric = -(v_p - v_m) / (2.0 * h);
        let f_analytic = f_over_r * r;
        assert!(
            (f_numeric - f_analytic).abs() / f_analytic.abs().max(1.0) < 2e-2,
            "numeric {f_numeric} vs analytic {f_analytic}"
        );
    }

    #[test]
    fn newtons_third_law_total_force_zero() {
        let mut sys = GrappaBuilder::new(3000).seed(5).build();
        // Relax close contacts so f32 cancellation residuals stay small.
        crate::minimize::steepest_descent(&mut sys, crate::minimize::MinimizeOptions::default());
        let sys = sys;
        let rule = |a: usize, b: usize| !sys.is_excluded(a, b);
        let pl = PairList::build(&sys.pbc, &sys.positions, 1.1, &rule);
        let p = params();
        let frame = Frame::fully_periodic(&sys.pbc);
        let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
        let _ = compute_nonbonded(&frame, &sys.positions, &sys.kinds, &pl, &p, &mut forces);
        let total: Vec3 = forces.iter().copied().sum();
        // f32 accumulation over many pairs: allow small residual.
        assert!(total.norm() < 0.5, "net force {total:?}");
    }

    #[test]
    fn energy_independent_of_pair_order() {
        let sys = GrappaBuilder::new(1500).seed(6).build();
        let rule = |a: usize, b: usize| !sys.is_excluded(a, b);
        let pl = PairList::build(&sys.pbc, &sys.positions, 1.1, &rule);
        let p = params();
        let frame = Frame::fully_periodic(&sys.pbc);
        let mut f1 = vec![Vec3::ZERO; sys.n_atoms()];
        let e1 = compute_nonbonded(&frame, &sys.positions, &sys.kinds, &pl, &p, &mut f1);
        let mut f2 = vec![Vec3::ZERO; sys.n_atoms()];
        let e2 = compute_nonbonded(&frame, &sys.positions, &sys.kinds, &pl, &p, &mut f2);
        assert_eq!(e1, e2);
        assert_eq!(f1, f2);
    }

    /// The pre-hoist kernel: `charge()` evaluated inline per pair. Kept as
    /// the oracle that the charge-table hoist is bitwise inert.
    fn compute_nonbonded_charges_inline(
        frame: &Frame,
        positions: &[Vec3],
        kinds: &[AtomKind],
        pairs: &PairList,
        p: &NonbondedParams,
        forces: &mut [Vec3],
    ) -> f64 {
        let rc2 = p.cutoff * p.cutoff;
        let mut energy = 0.0f64;
        for i in 0..pairs.n_rows() {
            let pi = positions[i];
            let ki = kinds[i];
            let qi = ki.charge();
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
                let kj = kinds[j];
                let (v, f_over_r) = p.pair(ki, kj, qi, kj.charge(), r2);
                energy += v as f64;
                let f = d * f_over_r;
                fi += f;
                forces[j] -= f;
            }
            forces[i] += fi;
        }
        energy
    }

    #[test]
    fn charge_hoist_is_bitwise_identical() {
        let sys = GrappaBuilder::new(2000).seed(17).build();
        let rule = |a: usize, b: usize| !sys.is_excluded(a, b);
        let pl = PairList::build(&sys.pbc, &sys.positions, 0.8, &rule);
        let p = params();
        let frame = Frame::fully_periodic(&sys.pbc);
        let mut f_hoisted = vec![Vec3::ZERO; sys.n_atoms()];
        let e_hoisted =
            compute_nonbonded(&frame, &sys.positions, &sys.kinds, &pl, &p, &mut f_hoisted);
        let mut f_inline = vec![Vec3::ZERO; sys.n_atoms()];
        let e_inline = compute_nonbonded_charges_inline(
            &frame,
            &sys.positions,
            &sys.kinds,
            &pl,
            &p,
            &mut f_inline,
        );
        assert_eq!(e_hoisted.to_bits(), e_inline.to_bits());
        for (a, b) in f_hoisted.iter().zip(&f_inline) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
    }

    #[test]
    fn rf_parameters_match_definition() {
        let p = NonbondedParams::new(1.2);
        let k = (EPS_RF - 1.0) / (2.0 * EPS_RF + 1.0) / 1.2f32.powi(3);
        assert!((p.k_rf - k).abs() < 1e-6);
        assert!((p.c_rf - (1.0 / 1.2 + k * 1.44)).abs() < 1e-5);
    }
}
