//! Ablation studies for the design choices DESIGN.md calls out.

use crate::figures::{grid_for, run_config, DT_FS, R_COMM};
use halox_core::sched::{simulate, Backend, ScheduleInput};
use halox_dd::WorkloadModel;
use halox_gpusim::MachineModel;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    pub study: &'static str,
    pub variant: String,
    pub backend: &'static str,
    pub ns_per_day: f64,
    pub delta_vs_base_pct: f64,
}

/// §5.4: dedicated prune/update streams on vs off, both backends.
pub fn prune_stream() -> Vec<AblationRow> {
    let machine = MachineModel::dgx_h100();
    let mut rows = Vec::new();
    let grid = grid_for(180_000, 4, Some([4, 1, 1]));
    let model = WorkloadModel::grappa(180_000, R_COMM, grid);
    for backend in [Backend::Mpi, Backend::Nvshmem] {
        let mut input = ScheduleInput::from_workload(machine.clone(), &model);
        input.prune_stream_opt = true;
        let on = simulate(backend, &input, 8, 3).ns_per_day(DT_FS);
        input.prune_stream_opt = false;
        let off = simulate(backend, &input, 8, 3).ns_per_day(DT_FS);
        rows.push(AblationRow {
            study: "prune_stream",
            variant: "off (pre-5.4 schedule)".into(),
            backend: backend.label(),
            ns_per_day: off,
            delta_vs_base_pct: 0.0,
        });
        rows.push(AblationRow {
            study: "prune_stream",
            variant: "on (dedicated streams)".into(),
            backend: backend.label(),
            ns_per_day: on,
            delta_vs_base_pct: (on / off - 1.0) * 100.0,
        });
    }
    rows
}

/// §5.5: proxy-thread pinning — free core vs contended core.
pub fn proxy_pinning() -> Vec<AblationRow> {
    let mut rows = Vec::new();
    let grid = grid_for(720_000, 8, Some([8, 1, 1]));
    for (label, contention) in [("free core", 1.0f64), ("contended core", 50.0)] {
        let mut machine = MachineModel::eos();
        machine.proxy_contention = contention;
        let m = run_config(&machine, 720_000, grid, Backend::Nvshmem);
        rows.push(AblationRow {
            study: "proxy_pinning",
            variant: label.into(),
            backend: "NVSHMEM",
            ns_per_day: m.ns_per_day(DT_FS),
            delta_vs_base_pct: 0.0,
        });
    }
    let base = rows[0].ns_per_day;
    for r in rows.iter_mut() {
        r.delta_vs_base_pct = (r.ns_per_day / base - 1.0) * 100.0;
    }
    rows
}

/// §5.3: CUDA-graph capture of the NVSHMEM step (one launch per step).
///
/// Finding: in every multi-GPU regime we model, the effect is ~0 — the
/// sync-free NVSHMEM schedule already pipelines its launches behind GPU
/// work, so removing them does not shorten the critical path. This matches
/// the paper's framing: graph capture is *compatible* with the NVSHMEM
/// exchange (§5.3) and pays off in launch-bound settings (single-GPU /
/// sync-heavy steps, \[15\]), not in the halo-exchange-bound ones studied.
pub fn cuda_graphs() -> Vec<AblationRow> {
    let machine = MachineModel::gb200_nvl72();
    let grid = grid_for(45_000, 32, None);
    let model = WorkloadModel::grappa(45_000, R_COMM, grid);
    let mut input = ScheduleInput::from_workload(machine, &model);
    let mut rows = Vec::new();
    for (label, graphs) in [("per-kernel launches", false), ("captured graph", true)] {
        input.cuda_graphs = graphs;
        let m = simulate(Backend::Nvshmem, &input, 8, 3);
        rows.push(AblationRow {
            study: "cuda_graphs",
            variant: label.into(),
            backend: "NVSHMEM",
            ns_per_day: m.ns_per_day(DT_FS),
            delta_vs_base_pct: 0.0,
        });
    }
    let base = rows[0].ns_per_day;
    for r in rows.iter_mut() {
        r.delta_vs_base_pct = (r.ns_per_day / base - 1.0) * 100.0;
    }
    rows
}

/// Fusion ablation: the fused NVSHMEM schedule vs the serialized MPI
/// schedule at a 3D multi-node configuration (isolates what dependency
/// partitioning + pulse concurrency buy).
pub fn fusion() -> Vec<AblationRow> {
    let machine = MachineModel::eos();
    let grid = grid_for(2_880_000, 32, Some([8, 2, 2]));
    let mut rows = Vec::new();
    for (variant, backend) in [
        ("serialized pulses (MPI)", Backend::Mpi),
        ("fused pulses (NVSHMEM)", Backend::Nvshmem),
    ] {
        let m = run_config(&machine, 2_880_000, grid, backend);
        rows.push(AblationRow {
            study: "fusion",
            variant: variant.into(),
            backend: backend.label(),
            ns_per_day: m.ns_per_day(DT_FS),
            delta_vs_base_pct: 0.0,
        });
    }
    let base = rows[0].ns_per_day;
    for r in rows.iter_mut() {
        r.delta_vs_base_pct = (r.ns_per_day / base - 1.0) * 100.0;
    }
    rows
}
