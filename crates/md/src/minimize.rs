//! Force-capped steepest-descent energy minimization.
//!
//! Freshly built lattice systems contain close contacts; a few dozen
//! displacement-capped steepest-descent sweeps relax them enough for stable
//! dynamics (the role `gmx grompp`-prepared inputs play for the paper's
//! benchmarks).

use crate::forces::{compute_angles, compute_bonds, compute_nonbonded, NonbondedParams};
use crate::pairlist::PairList;
use crate::system::System;
use crate::vec3::Vec3;

/// Options for [`steepest_descent`].
#[derive(Debug, Clone, Copy)]
pub struct MinimizeOptions {
    /// Number of sweeps.
    pub steps: usize,
    /// Maximum per-atom displacement per sweep (nm).
    pub max_disp: f32,
    /// Non-bonded cutoff used during minimization (nm).
    pub cutoff: f32,
}

impl Default for MinimizeOptions {
    fn default() -> Self {
        MinimizeOptions {
            steps: 40,
            max_disp: 0.01,
            cutoff: 0.7,
        }
    }
}

/// Relax `system` in place; returns (initial, final) potential energy.
pub fn steepest_descent(system: &mut System, opts: MinimizeOptions) -> (f64, f64) {
    let n = system.n_atoms();
    let params = NonbondedParams::new(opts.cutoff);
    let mut e_first = None;
    let mut e_last = 0.0;
    let mut forces = vec![Vec3::ZERO; n];
    for _ in 0..opts.steps {
        for p in &mut system.positions {
            *p = system.pbc.wrap(*p);
        }
        // Rebuild each sweep: atoms move up to max_disp, lists go stale fast.
        let pl = PairList::single_rank(system, opts.cutoff + 0.05);
        forces.clear();
        forces.resize(n, Vec3::ZERO);
        let id = |g: u32| if (g as usize) < n { Some(g) } else { None };
        let frame = crate::frame::Frame::fully_periodic(&system.pbc);
        let mut e = compute_nonbonded(
            &frame,
            &system.positions,
            &system.kinds,
            &pl,
            &params,
            &mut forces,
        );
        e += compute_bonds(
            &system.pbc,
            &system.positions,
            &system.bonds,
            &id,
            &mut forces,
        );
        e += compute_angles(
            &system.pbc,
            &system.positions,
            &system.angles,
            &id,
            &mut forces,
        );
        e_first.get_or_insert(e);
        e_last = e;
        for (p, f) in system.positions.iter_mut().zip(&forces) {
            let norm = f.norm();
            if norm > 0.0 && norm.is_finite() {
                // Move along the force, capped displacement.
                let step = (norm * 2e-5).min(opts.max_disp);
                *p += *f * (step / norm);
            } else if !norm.is_finite() {
                // Singular contact: nudge deterministically to break it.
                *p += Vec3::new(opts.max_disp, 0.5 * opts.max_disp, 0.25 * opts.max_disp);
            }
        }
    }
    for p in &mut system.positions {
        *p = system.pbc.wrap(*p);
    }
    (e_first.unwrap_or(0.0), e_last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::GrappaBuilder;

    #[test]
    fn minimization_reduces_energy() {
        let mut sys = GrappaBuilder::new(900).seed(21).build();
        let (e0, e1) = steepest_descent(&mut sys, MinimizeOptions::default());
        assert!(e1 < e0, "e0 = {e0}, e1 = {e1}");
        assert!(e1.is_finite());
    }

    #[test]
    fn positions_stay_wrapped() {
        let mut sys = GrappaBuilder::new(600).seed(22).build();
        steepest_descent(
            &mut sys,
            MinimizeOptions {
                steps: 5,
                ..Default::default()
            },
        );
        for &p in &sys.positions {
            assert!(sys.pbc.contains(p));
        }
    }

    #[test]
    fn zero_steps_is_identity_on_energy_reporting() {
        let mut sys = GrappaBuilder::new(300).seed(23).build();
        let before = sys.positions.clone();
        let (e0, e1) = steepest_descent(
            &mut sys,
            MinimizeOptions {
                steps: 0,
                ..Default::default()
            },
        );
        assert_eq!(e0, 0.0);
        assert_eq!(e1, 0.0);
        // Final wrap only; positions already wrapped by the builder.
        assert_eq!(before, sys.positions);
    }
}
