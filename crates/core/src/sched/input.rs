//! Inputs to the timing-plane schedule builders.

use halox_dd::{DdGrid, PulseSizeModel, WorkloadModel};
use halox_gpusim::MachineModel;
use serde::{Deserialize, Serialize};

/// A complete timing scenario: machine, decomposition, workload sizes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScheduleInput {
    pub machine: MachineModel,
    pub grid: DdGrid,
    pub atoms_per_rank: f64,
    /// Per-pulse sizes in global pulse order (uniform across ranks for the
    /// homogeneous grappa workload), as [`WorkloadModel::pulse_sizes`]
    /// returns them.
    pub pulses: Vec<PulseSizeModel>,
    /// Schedule §5.4: dedicated low-priority prune stream + medium-priority
    /// update stream (on in all paper results; ablation toggles it).
    pub prune_stream_opt: bool,
    /// §5.3: capture the whole step (including NVSHMEM communication) in a
    /// CUDA graph — one launch per step instead of one per kernel. Only
    /// meaningful for the NVSHMEM schedule; the MPI path cannot be captured
    /// across its CPU synchronizations.
    pub cuda_graphs: bool,
}

impl ScheduleInput {
    /// Build from an analytic workload model on a machine.
    pub fn from_workload(machine: MachineModel, model: &WorkloadModel) -> Self {
        ScheduleInput {
            machine,
            grid: model.grid,
            atoms_per_rank: model.atoms_per_rank(),
            pulses: model.pulse_sizes(),
            prune_stream_opt: true,
            cuda_graphs: false,
        }
    }

    pub fn n_ranks(&self) -> usize {
        self.grid.n_ranks()
    }

    /// Halo atoms received per rank per step.
    pub fn halo_atoms(&self) -> f64 {
        self.pulses.iter().map(|p| p.send_atoms).sum()
    }

    /// The down neighbour (send target) of `rank` for pulse `p`.
    pub fn send_rank(&self, rank: usize, p: usize) -> usize {
        self.grid.down_neighbor(rank, self.pulses[p].dim)
    }

    /// The up neighbour (receive source) of `rank` for pulse `p`.
    pub fn recv_rank(&self, rank: usize, p: usize) -> usize {
        self.grid.up_neighbor(rank, self.pulses[p].dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input() -> ScheduleInput {
        let grid = DdGrid::new([2, 2, 1]);
        let model = WorkloadModel::cubic(720_000, 100.0, 1.05, grid);
        ScheduleInput::from_workload(MachineModel::eos(), &model)
    }

    #[test]
    fn pulses_follow_global_order() {
        let inp = input();
        assert_eq!(inp.pulses.len(), 2);
        assert_eq!(inp.pulses[0].dim, 1); // y before x
        assert_eq!(inp.pulses[1].dim, 0);
        assert_eq!(inp.pulses[0].dep_fraction, 0.0);
        assert!(inp.pulses[1].dep_fraction > 0.0);
    }

    #[test]
    fn neighbours_come_from_grid() {
        let inp = input();
        let r = 0;
        assert_eq!(inp.send_rank(r, 0), inp.grid.down_neighbor(r, 1));
        assert_eq!(inp.recv_rank(r, 1), inp.grid.up_neighbor(r, 0));
    }
}
