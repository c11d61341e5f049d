//! Force-capped steepest-descent energy minimization.
//!
//! Freshly built lattice systems contain close contacts; a few dozen
//! displacement-capped steepest-descent sweeps relax them enough for stable
//! dynamics (the role `gmx grompp`-prepared inputs play for the paper's
//! benchmarks).
//!
//! Non-bonded forces come from the engine's own pipeline (DESIGN.md §3.4),
//! with the whole system as one rank (`cluster::ClusterForces`, which
//! [`crate::ReferenceSimulation`] shares). The list is Verlet-buffered by
//! `LIST_BUFFER` and kept across sweeps until some atom has moved more than
//! half of it.

use crate::cluster::ClusterForces;
use crate::forces::{compute_angles, compute_bonds, NonbondedParams};
use crate::system::System;
use crate::vec3::Vec3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Verlet buffer of the minimiser's pair list (nm): the list is built out to
/// `cutoff + LIST_BUFFER`.
const LIST_BUFFER: f32 = 0.05;

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
    let params = NonbondedParams::new(opts.cutoff);
    let mut nb = ClusterForces::new(system, LIST_BUFFER);
    descend(system, opts, |system, forces| {
        nb.add(system, &params, forces).0
    })
}

/// The sweep loop — wrap, forces, force-capped step — given where its
/// non-bonded forces come from: `nonbonded(system, forces)` adds them at
/// `system.positions` into `forces` and returns their energy.
fn descend(
    system: &mut System,
    opts: MinimizeOptions,
    mut nonbonded: impl FnMut(&System, &mut [Vec3]) -> f64,
) -> (f64, f64) {
    let n = system.n_atoms();
    let mut e_first = None;
    let mut e_last = 0.0;
    let mut forces = vec![Vec3::ZERO; n];
    let id = |g: u32| if (g as usize) < n { Some(g) } else { None };
    for _ in 0..opts.steps {
        for p in &mut system.positions {
            *p = system.pbc.wrap(*p);
        }
        forces.fill(Vec3::ZERO);
        let mut e = nonbonded(system, &mut forces);
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
        for (i, (p, f)) in system.positions.iter_mut().zip(&forces).enumerate() {
            let norm = f.norm();
            if norm > 0.0 && norm.is_finite() {
                // Move along the force, capped displacement.
                let step = (norm * 2e-5).min(opts.max_disp);
                *p += *f * (step / norm);
            } else if !norm.is_finite() {
                // Singular contact: both partners overflow, so each must be
                // nudged its own way or the pair moves as one.
                *p += nudge_direction(i) * opts.max_disp;
            }
        }
    }
    for p in &mut system.positions {
        *p = system.pbc.wrap(*p);
    }
    (e_first.unwrap_or(0.0), e_last)
}

/// A unit vector drawn from a generator seeded with atom index `i`: a
/// deterministic function of the atom alone, different for each partner of
/// a contact.
fn nudge_direction(i: usize) -> Vec3 {
    let mut rng = StdRng::seed_from_u64(i as u64);
    let mut c = || rng.gen_range(-1.0f32..1.0);
    Vec3::new(c(), c(), c()).normalized()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::compute_nonbonded;
    use crate::frame::Frame;
    use crate::pairlist::{brute_force_pairs, PairList};
    use crate::system::GrappaBuilder;

    /// The minimiser before the cluster pipeline: the scalar list rebuilt
    /// every sweep and the scalar pair loop. The oracle the cluster sweep is
    /// held to.
    fn scalar_steepest_descent(system: &mut System, opts: MinimizeOptions) -> (f64, f64) {
        let params = NonbondedParams::new(opts.cutoff);
        descend(system, opts, |system, forces| {
            let pl = PairList::single_rank(system, opts.cutoff + LIST_BUFFER);
            let frame = Frame::fully_periodic(&system.pbc);
            compute_nonbonded(
                &frame,
                &system.positions,
                &system.kinds,
                &pl,
                &params,
                forces,
            )
        })
    }

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

    #[test]
    fn cluster_sweep_tracks_the_scalar_oracle() {
        for atoms in [600, 1500, 3000] {
            for seed in [11, 29] {
                let built = GrappaBuilder::new(atoms).seed(seed).build();
                let mut cluster = built.clone();
                let mut scalar = built;
                let opts = MinimizeOptions::default();
                let (c0, c1) = steepest_descent(&mut cluster, opts);
                let (s0, s1) = scalar_steepest_descent(&mut scalar, opts);
                let rel = |a: f64, b: f64| (a - b).abs() / b.abs();
                assert!(rel(c0, s0) < 1e-6, "{atoms}/{seed}: first {c0} vs {s0}");
                assert!(rel(c1, s1) < 1e-4, "{atoms}/{seed}: final {c1} vs {s1}");
                let worst = cluster
                    .positions
                    .iter()
                    .zip(&scalar.positions)
                    .map(|(&a, &b)| cluster.pbc.dist2(a, b).sqrt())
                    .fold(0.0f32, f32::max);
                assert!(
                    worst <= 5e-3,
                    "{atoms}/{seed}: positions apart by {worst} nm"
                );
            }
        }
    }

    #[test]
    fn reused_list_covers_every_pair_inside_the_cutoff() {
        // At 0.03 nm a sweep can move an atom more than half the buffer, so
        // only the full displacement scan keeps the list sound; the default
        // 0.01 is where lists actually live several sweeps. The 600-atom box
        // is under three list radii per side: every range query wraps.
        for max_disp in [0.01, 0.03] {
            let opts = MinimizeOptions {
                max_disp,
                ..Default::default()
            };
            for (atoms, seed) in [(600, 22), (1500, 23)] {
                let mut sys = GrappaBuilder::new(atoms).seed(seed).build();
                if atoms == 600 {
                    assert!(sys.pbc.lengths().x < 3.0 * (opts.cutoff + LIST_BUFFER));
                }
                let params = NonbondedParams::new(opts.cutoff);
                let mut nb = ClusterForces::new(&sys, LIST_BUFFER);
                let (mut sweeps, mut builds) = (0, 0);
                descend(&mut sys, opts, |system, forces| {
                    let positions = &system.positions;
                    builds += nb.stale(positions) as usize;
                    let (energy, _) = nb.add(system, &params, forces);
                    let listed = nb.list().unwrap().all_pairs();
                    let frame = Frame::fully_periodic(&system.pbc);
                    let rule = |a: usize, b: usize| !system.is_excluded(a, b);
                    for pair in brute_force_pairs(&frame, positions, opts.cutoff, &rule) {
                        assert!(
                            listed.binary_search(&pair).is_ok(),
                            "{atoms} atoms, max_disp {max_disp}, sweep {sweeps}: \
                             {pair:?} inside the cutoff, not listed"
                        );
                    }
                    sweeps += 1;
                    energy
                });
                assert_eq!(sweeps, opts.steps);
                assert!(builds > 1, "{atoms} atoms: the list was never rebuilt");
                if max_disp < 0.5 * LIST_BUFFER {
                    assert!(builds < sweeps / 2, "{atoms} atoms: {builds} builds");
                }
            }
        }
    }

    #[test]
    fn two_runs_are_bitwise_equal() {
        let built = GrappaBuilder::new(1500).seed(24).build();
        let (mut a, mut b) = (built.clone(), built);
        let ea = steepest_descent(&mut a, MinimizeOptions::default());
        let eb = steepest_descent(&mut b, MinimizeOptions::default());
        assert_eq!(ea.0.to_bits(), eb.0.to_bits());
        assert_eq!(ea.1.to_bits(), eb.1.to_bits());
        assert_eq!(a.positions, b.positions);
    }

    #[test]
    fn singular_contact_is_separated() {
        // Atom 3 almost on top of atom 0: the pair's force overflows, so
        // both are nudged — in different directions, or they never part.
        let mut sys = GrappaBuilder::new(600).seed(22).build();
        sys.positions[3] = sys.positions[0] + Vec3::new(1e-5, 0.0, 0.0);
        let (_, e1) = steepest_descent(&mut sys, MinimizeOptions::default());
        assert!(e1.is_finite(), "e1 = {e1}");
        let apart = sys.pbc.dist2(sys.positions[0], sys.positions[3]).sqrt();
        assert!(apart >= 0.01, "pair still {apart} nm apart");
    }
}
