//! Admission estimation: predicted step-time per topology from the
//! `gpusim` cost models.
//!
//! The scheduler needs a cost signal *before* a job runs — to reject work
//! that would exceed the service's latency budget and to accrue fair-share
//! virtual time in proportion to the service a slice actually represents.
//! Rather than invent a second cost model, this reuses the calibrated
//! [`MachineModel`] kernel/link costs the timing plane validates against
//! the paper's figures.

use halox_dd::{DdBounds, DdGrid, PlanError, WorkloadModel};
use halox_gpusim::MachineModel;
use halox_md::System;

/// Predicts per-step wall time for a (system, grid) pairing on a machine.
#[derive(Debug, Clone)]
pub struct AdmissionEstimator {
    machine: MachineModel,
}

/// What the estimator promises about one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    pub n_ranks: usize,
    /// Predicted wall time of one MD step on this topology, ns.
    pub step_ns: u64,
    /// Predicted whole-job run time, ms.
    pub total_ms: f64,
}

impl AdmissionEstimator {
    pub fn new(machine: MachineModel) -> Self {
        AdmissionEstimator { machine }
    }

    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Predict one rank's step time for `system` decomposed over `grid`
    /// with halo radius `r_comm`, and the whole-job total over `steps`.
    ///
    /// The halo population is the analytic model's eighth-shell zones at
    /// the system's density ([`WorkloadModel`], the plan's own pulse
    /// counts): the halo atom count feeding the non-local kernel and
    /// wire-payload costs. A geometry the plan would refuse is its typed
    /// [`PlanError`].
    pub fn predict(
        &self,
        system: &System,
        grid: [usize; 3],
        r_comm: f32,
        steps: usize,
    ) -> Result<Prediction, PlanError> {
        let grid = DdGrid::new(grid);
        let model = WorkloadModel {
            n_atoms: system.n_atoms(),
            density: system.density(),
            r_comm,
            grid,
            box_lengths: system.pbc.lengths(),
        };
        let halo: f64 = model
            .try_pulse_sizes_with(&DdBounds::uniform(&grid))?
            .iter()
            .map(|p| p.send_atoms)
            .sum();
        let n_ranks = grid.n_ranks();
        let n_local = model.atoms_per_rank();
        let comm_dims = grid.n_decomposed();
        let m = &self.machine;
        let compute_ns = (m.nb_local_ns(n_local)
            + m.nb_nonlocal_ns(halo)
            + m.bonded_ns(n_local)
            + m.pack_work_ns(halo)
            + m.other_ns(n_local)) as f64;
        // Coordinate + force halos each cross the slowest link the
        // decomposition touches once per step (Gbit/s == bits/ns).
        let gbps = if n_ranks > m.gpus_per_node && !m.multi_node_nvlink {
            m.ib_gbps
        } else {
            m.nvlink_gbps
        };
        let wire_ns = if comm_dims > 0 {
            2.0 * m.payload_bytes(halo) * 8.0 / gbps + m.proxy_service_ns() as f64
        } else {
            0.0
        };
        let step_ns = (compute_ns * m.sm_slowdown(comm_dims) + wire_ns).round() as u64;
        Ok(Prediction {
            n_ranks,
            step_ns,
            total_ms: step_ns as f64 * steps as f64 / 1e6,
        })
    }
}

impl Default for AdmissionEstimator {
    fn default() -> Self {
        Self::new(MachineModel::dgx_h100())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halox_md::GrappaBuilder;

    #[test]
    fn prediction_monotone_in_system_size_and_steps() {
        let est = AdmissionEstimator::default();
        let small = GrappaBuilder::new(3_000).seed(1).build();
        let large = GrappaBuilder::new(24_000).seed(1).build();
        let ps = est.predict(&small, [2, 2, 1], 0.8, 100).expect("feasible");
        let pl = est.predict(&large, [2, 2, 1], 0.8, 100).expect("feasible");
        assert!(pl.step_ns > ps.step_ns, "{} !> {}", pl.step_ns, ps.step_ns);
        let longer = est.predict(&small, [2, 2, 1], 0.8, 1000).expect("feasible");
        assert!(longer.total_ms > ps.total_ms);
        assert_eq!(longer.step_ns, ps.step_ns);
    }

    #[test]
    fn splitting_pays_off_only_past_fixed_costs() {
        let est = AdmissionEstimator::default();
        // Large system: per-atom work dwarfs the fixed kernel/halo costs,
        // so decomposing is predicted faster per step...
        let large = GrappaBuilder::new(48_000).seed(2).build();
        let serial = est.predict(&large, [1, 1, 1], 0.8, 10).expect("feasible");
        let split = est.predict(&large, [2, 2, 1], 0.8, 10).expect("feasible");
        assert_eq!(serial.n_ranks, 1);
        assert_eq!(split.n_ranks, 4);
        assert!(split.step_ns < serial.step_ns);
        // ...while a small system is dominated by fixed + halo costs and
        // the estimator prices the split *slower* — the signal admission
        // bin-packing exists to exploit.
        let small = GrappaBuilder::new(3_000).seed(2).build();
        let serial = est.predict(&small, [1, 1, 1], 0.8, 10).expect("feasible");
        let split = est.predict(&small, [2, 2, 1], 0.8, 10).expect("feasible");
        assert!(split.step_ns > serial.step_ns);
    }
}
