//! # halox-md — molecular dynamics substrate
//!
//! A compact, from-scratch MD engine providing everything the halo-exchange
//! study needs from "GROMACS": synthetic water–ethanol benchmark systems
//! (the paper's "grappa" set), binned Verlet and cluster pair lists,
//! Lennard-Jones + reaction-field non-bonded forces, harmonic bonded forces,
//! and leapfrog integration in GROMACS-style mixed precision (f32 state, f64
//! accumulators).
//!
//! The crate is deliberately independent of the parallel layers: everything
//! here operates on plain slices so the domain-decomposition and halo
//! exchange crates can feed it per-rank views.

// Index-based loops across parallel arrays are the dominant idiom in these
// kernels; clippy's iterator rewrites obscure the cross-array indexing.
#![allow(clippy::needless_range_loop)]
pub mod analysis;
pub mod cluster;
pub mod forces;
pub mod frame;
pub mod integrate;
pub mod minimize;
pub mod observables;
pub mod pairlist;
pub mod pbc;
pub mod simd4;
pub mod soa;
pub mod system;
pub mod topology;
pub mod trajectory;
pub mod vec3;

pub use analysis::{MsdTracker, Rdf};
pub use cluster::{
    compute_nonbonded_cluster_forces, compute_nonbonded_clusters, compute_nonbonded_clusters_aos,
    ClusterPairList, ClusterPairs, NbPartition, CLUSTER,
};
pub use forces::{compute_angles, compute_bonds, NonbondedParams};
pub use frame::Frame;
pub use minimize::{steepest_descent, MinimizeOptions};
pub use observables::{assert_energies_bitwise, DriftTracker, EnergyReport};
pub use pairlist::PairList;
pub use pbc::PbcBox;
pub use soa::{SoaCoords, SoaForces};
pub use system::{GrappaBuilder, SkewProfile, SkewedBuilder, System, GRAPPA_ATOM_DENSITY, KB};
pub use topology::{Angle, AtomKind, Bond, LjParams, MoleculeTemplate};
pub use trajectory::{read_xyz_frame, write_xyz_frame, TrajectoryWriter};
pub use vec3::{DVec3, Vec3};

use cluster::ClusterForces;

/// A single-rank reference MD stepper used as ground truth by the
/// domain-decomposition tests: non-bonded and bonded forces and leapfrog
/// integration on one coordinate array. The non-bonded forces come from the
/// cluster pipeline with the whole system as one rank, exactly as the
/// minimiser's do, so a decomposed run compared with this one tests the
/// decomposition, not the kernel.
pub struct ReferenceSimulation {
    pub system: System,
    pub params: NonbondedParams,
    pub cutoff: f32,
    pub buffer: f32,
    nonbonded: ClusterForces,
    pub forces: Vec<Vec3>,
    pub step_count: u64,
}

impl ReferenceSimulation {
    pub fn new(system: System, cutoff: f32, buffer: f32) -> Self {
        let n = system.n_atoms();
        ReferenceSimulation {
            params: NonbondedParams::new(cutoff),
            nonbonded: ClusterForces::new(&system, buffer),
            system,
            cutoff,
            buffer,
            forces: vec![Vec3::ZERO; n],
            step_count: 0,
        }
    }

    /// Compute forces at current positions; returns the energy report
    /// (kinetic evaluated at the current velocities).
    pub fn compute_forces(&mut self) -> EnergyReport {
        let (nb, params) = (&mut self.nonbonded, &self.params);
        all_forces(&self.system, &mut self.forces, |system, forces| {
            nb.add(system, params, forces)
        })
    }

    /// Advance one step of size `dt` ps; rebuilds the pair list when the
    /// Verlet buffer is exhausted. Returns the pre-step energies.
    pub fn step(&mut self, dt: f32) -> EnergyReport {
        if self.nonbonded.stale(&self.system.positions) {
            // Wrap coordinates at neighbour-search steps, like GROMACS.
            for p in &mut self.system.positions {
                *p = self.system.pbc.wrap(*p);
            }
        }
        let report = self.compute_forces();
        integrate::leapfrog_step(
            &mut self.system.positions,
            &mut self.system.velocities,
            &self.forces,
            &self.system.inv_mass,
            dt,
        );
        self.step_count += 1;
        report
    }
}

/// Every force on `system` into `forces` (reset first): the non-bonded ones
/// from `nonbonded`, which adds them and returns their `(energy, virial)`,
/// then bonds and angles. Returns the energy report, kinetic at the current
/// velocities.
fn all_forces(
    system: &System,
    forces: &mut Vec<Vec3>,
    nonbonded: impl FnOnce(&System, &mut [Vec3]) -> (f64, f64),
) -> EnergyReport {
    let n = system.n_atoms();
    forces.clear();
    forces.resize(n, Vec3::ZERO);
    let id = |g: u32| if (g as usize) < n { Some(g) } else { None };
    let (pbc, positions) = (&system.pbc, &system.positions);
    let (nonbonded, w_nb) = nonbonded(system, forces);
    let bonds = compute_bonds(pbc, positions, &system.bonds, &id, forces);
    let angles = compute_angles(pbc, positions, &system.angles, &id, forces);
    let virial = w_nb
        + forces::bond_virial(pbc, positions, &system.bonds)
        + forces::angle_virial(pbc, positions, &system.angles);
    EnergyReport {
        nonbonded,
        bonds,
        angles,
        kinetic: integrate::kinetic_energy(&system.velocities, &system.inv_mass),
        virial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::compute_nonbonded_virial;

    /// `ReferenceSimulation` before the cluster pipeline: the scalar list,
    /// rebuilt after a wrap once some atom has left half the buffer, and the
    /// scalar pair loop. The oracle the cluster stepper is held to.
    struct ScalarStepper {
        system: System,
        params: NonbondedParams,
        buffer: f32,
        list: Option<PairList>,
        forces: Vec<Vec3>,
    }

    impl ScalarStepper {
        fn new(system: System, cutoff: f32, buffer: f32) -> Self {
            ScalarStepper {
                system,
                params: NonbondedParams::new(cutoff),
                buffer,
                list: None,
                forces: Vec::new(),
            }
        }

        fn compute_forces(&mut self) -> EnergyReport {
            let sys = &mut self.system;
            if self
                .list
                .as_ref()
                .is_none_or(|list| list.needs_rebuild_full(&sys.positions, self.buffer))
            {
                for p in &mut sys.positions {
                    *p = sys.pbc.wrap(*p);
                }
                let r_list = self.params.cutoff + self.buffer;
                self.list = Some(PairList::single_rank(sys, r_list));
            }
            let (list, params) = (self.list.as_ref().unwrap(), &self.params);
            all_forces(sys, &mut self.forces, |system, forces| {
                let frame = Frame::fully_periodic(&system.pbc);
                let (positions, kinds) = (&system.positions, &system.kinds);
                compute_nonbonded_virial(&frame, positions, kinds, list, params, forces)
            })
        }

        fn step(&mut self, dt: f32) {
            self.compute_forces();
            let sys = &mut self.system;
            let (x, v) = (&mut sys.positions, &mut sys.velocities);
            integrate::leapfrog_step(x, v, &self.forces, &sys.inv_mass, dt);
        }
    }

    fn relaxed(atoms: usize, seed: u64) -> System {
        let mut sys = GrappaBuilder::new(atoms)
            .seed(seed)
            .temperature(250.0)
            .build();
        minimize::steepest_descent(&mut sys, MinimizeOptions::default());
        sys
    }

    #[test]
    fn first_step_matches_the_scalar_stepper() {
        let sys = relaxed(1500, 14);
        let mut cluster = ReferenceSimulation::new(sys.clone(), 0.7, 0.1);
        let mut scalar = ScalarStepper::new(sys, 0.7, 0.1);
        let (c, s) = (cluster.compute_forces(), scalar.compute_forces());
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1.0);
        assert!(rel(c.nonbonded, s.nonbonded) < 1e-9, "{c:?} vs {s:?}");
        assert!(rel(c.virial, s.virial) < 1e-9, "{c:?} vs {s:?}");
        assert_eq!(c.bonds.to_bits(), s.bonds.to_bits());
        assert_eq!(c.angles.to_bits(), s.angles.to_bits());
        for (i, (a, b)) in cluster.forces.iter().zip(&scalar.forces).enumerate() {
            assert!(
                (*a - *b).norm() <= 1e-3 * b.norm().max(1.0),
                "force on {i}: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn trajectory_tracks_the_scalar_stepper_across_rebuilds() {
        // A 0.05 nm buffer lasts a handful of steps at 250 K.
        let sys = relaxed(1500, 15);
        let mut cluster = ReferenceSimulation::new(sys.clone(), 0.7, 0.05);
        let mut scalar = ScalarStepper::new(sys, 0.7, 0.05);
        let mut builds = 0;
        for _ in 0..30 {
            builds += cluster.nonbonded.stale(&cluster.system.positions) as usize;
            cluster.step(0.0005);
            scalar.step(0.0005);
        }
        assert!(builds >= 2, "the list was never rebuilt");
        let worst = cluster
            .system
            .positions
            .iter()
            .zip(&scalar.system.positions)
            .map(|(&a, &b)| cluster.system.pbc.dist2(a, b).sqrt())
            .fold(0.0f32, f32::max);
        assert!(worst < 2e-4, "positions apart by {worst} nm");
    }

    #[test]
    fn reference_simulation_runs_stably() {
        let mut sys = GrappaBuilder::new(600).seed(11).temperature(250.0).build();
        minimize::steepest_descent(&mut sys, MinimizeOptions::default());
        let mut sim = ReferenceSimulation::new(sys, 0.7, 0.1);
        let mut tracker = DriftTracker::default();
        let dt = 0.0005; // 0.5 fs for the flexible bonds
        for s in 0..200 {
            let e = sim.step(dt);
            tracker.record(s as f64 * dt as f64, e.total());
            assert!(e.total().is_finite(), "energy blew up at step {s}");
        }
        // A fresh lattice still equilibrates, so allow a generous but
        // bounded excursion; instability shows up as orders of magnitude.
        let exc = tracker.max_relative_excursion().unwrap();
        assert!(exc < 0.25, "energy excursion {exc}");
    }

    #[test]
    fn forces_are_finite() {
        let sys = GrappaBuilder::new(900).seed(12).build();
        let mut sim = ReferenceSimulation::new(sys, 0.8, 0.1);
        sim.compute_forces();
        assert!(sim.forces.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn step_counter_increments() {
        let sys = GrappaBuilder::new(300).seed(13).build();
        let mut sim = ReferenceSimulation::new(sys, 0.6, 0.05);
        sim.step(0.001);
        sim.step(0.001);
        assert_eq!(sim.step_count, 2);
    }
}
