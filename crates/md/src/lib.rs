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
pub use forces::{compute_angles, compute_bonds, compute_nonbonded, NonbondedParams};
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

/// A single-rank reference MD stepper used as ground truth by the
/// domain-decomposition tests: plain pair list + forces + leapfrog on one
/// coordinate array.
pub struct ReferenceSimulation {
    pub system: System,
    pub params: NonbondedParams,
    pub cutoff: f32,
    pub buffer: f32,
    pairlist: PairList,
    pub forces: Vec<Vec3>,
    pub step_count: u64,
}

impl ReferenceSimulation {
    pub fn new(system: System, cutoff: f32, buffer: f32) -> Self {
        let pairlist = PairList::single_rank(&system, cutoff + buffer);
        let n = system.n_atoms();
        ReferenceSimulation {
            params: NonbondedParams::new(cutoff),
            system,
            cutoff,
            buffer,
            pairlist,
            forces: vec![Vec3::ZERO; n],
            step_count: 0,
        }
    }

    /// Compute forces at current positions; returns the energy report
    /// (kinetic evaluated at the current velocities).
    pub fn compute_forces(&mut self) -> EnergyReport {
        let n = self.system.n_atoms();
        self.forces.clear();
        self.forces.resize(n, Vec3::ZERO);
        let id = |g: u32| if (g as usize) < n { Some(g) } else { None };
        let frame = Frame::fully_periodic(&self.system.pbc);
        let (nonbonded, w_nb) = forces::compute_nonbonded_virial(
            &frame,
            &self.system.positions,
            &self.system.kinds,
            &self.pairlist,
            &self.params,
            &mut self.forces,
        );
        let bonds = compute_bonds(
            &self.system.pbc,
            &self.system.positions,
            &self.system.bonds,
            &id,
            &mut self.forces,
        );
        let angles = compute_angles(
            &self.system.pbc,
            &self.system.positions,
            &self.system.angles,
            &id,
            &mut self.forces,
        );
        let virial = w_nb
            + forces::bond_virial(&self.system.pbc, &self.system.positions, &self.system.bonds)
            + forces::angle_virial(
                &self.system.pbc,
                &self.system.positions,
                &self.system.angles,
            );
        EnergyReport {
            nonbonded,
            bonds,
            angles,
            kinetic: integrate::kinetic_energy(&self.system.velocities, &self.system.inv_mass),
            virial,
        }
    }

    /// Advance one step of size `dt` ps; rebuilds the pair list when the
    /// Verlet buffer is exhausted. Returns the pre-step energies.
    pub fn step(&mut self, dt: f32) -> EnergyReport {
        if self
            .pairlist
            .needs_rebuild(&self.system.positions, self.buffer)
        {
            self.rebuild_pairlist();
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

    pub fn rebuild_pairlist(&mut self) {
        // Wrap coordinates at neighbour-search steps, like GROMACS.
        for p in &mut self.system.positions {
            *p = self.system.pbc.wrap(*p);
        }
        self.pairlist = PairList::single_rank(&self.system, self.cutoff + self.buffer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
