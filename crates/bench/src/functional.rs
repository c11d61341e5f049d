//! Four timing-plane views of one simulated step beyond the figures: the
//! Chrome trace of the NVSHMEM schedule (`trace`), its critical-path
//! attribution (`critical-path`), a terminal Gantt chart (`gantt`) and a
//! one-off scaling point (`sweep`). None of them runs the engine.

use crate::figures::R_COMM;
use halox_core::sched::{self, Backend, ScheduleInput};
use halox_dd::{DdGrid, WorkloadModel};
use halox_gpusim::MachineModel;
use std::path::Path;

/// Export a Chrome trace of the simulated NVSHMEM step schedule (Fig 2
/// anatomy) for the paper's intra-node headline configuration.
pub fn export_trace(path: &Path) {
    let grid = DdGrid::new([4, 1, 1]);
    let model = WorkloadModel::grappa(45_000, R_COMM, grid);
    let input = ScheduleInput::from_workload(MachineModel::dgx_h100(), &model);
    let run = sched::build(Backend::Nvshmem, &input, 4);
    let t = run.timeline();
    let json = run.graph.chrome_trace(&t);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(path, json).expect("write trace");
}

/// Print the critical-path attribution of one step for both backends — the
/// paper's §6.3 analysis: with MPI the chain runs through syncs and MPI
/// calls; with NVSHMEM it stays on the GPU.
pub fn print_critical_paths() {
    let grid = DdGrid::new([4, 1, 1]);
    let model = WorkloadModel::grappa(45_000, R_COMM, grid);
    let input = ScheduleInput::from_workload(MachineModel::dgx_h100(), &model);
    let prefixes = [
        "local_nb", "nl_nb", "bonded", "xpack", "xunpack", "xwire", "xsync", "xmpi", "xwait",
        "fpack", "funpack", "fwire", "fsync", "fmpi", "fwait", "update", "launch", "misc",
        "xarrive", "fget", "fready", "graph",
    ];
    for backend in [Backend::Mpi, Backend::Nvshmem] {
        let run = sched::build(backend, &input, 6);
        let t = run.timeline();
        println!(
            "
== Critical path breakdown, 45k @ 4 GPUs, {} ==",
            backend.label()
        );
        let breakdown = run.graph.critical_path_breakdown(&t, &prefixes);
        let total: u64 = breakdown.iter().map(|(_, v)| *v).sum();
        for (name, ns) in breakdown.iter().filter(|(_, v)| *v > 0) {
            println!(
                "  {:<10} {:>9.1} us  ({:>4.1}%)",
                name,
                *ns as f64 / 1e3 / 6.0,
                *ns as f64 / total as f64 * 100.0
            );
        }
        // Top utilized resources.
        println!("  busiest resources:");
        for (r, busy, frac) in run.graph.utilization(&t).into_iter().take(4) {
            println!(
                "    {r:?}: {:.1} us busy ({:.0}%)",
                busy as f64 / 1e3,
                frac * 100.0
            );
        }
    }
}

/// Terminal Gantt view of one NVSHMEM step vs one MPI step.
pub fn print_gantt() {
    let grid = DdGrid::new([4, 1, 1]);
    let model = WorkloadModel::grappa(45_000, R_COMM, grid);
    let input = ScheduleInput::from_workload(MachineModel::dgx_h100(), &model);
    for backend in [Backend::Mpi, Backend::Nvshmem] {
        let run = sched::build(backend, &input, 6);
        let t = run.timeline();
        // Window on the 4th step of rank 0.
        let span = t.makespan();
        let t0 = span * 3 / 6;
        let t1 = span * 4 / 6;
        println!(
            "
== One {} step (rank 0) ==",
            backend.label()
        );
        print!(
            "{}",
            halox_gpusim::gantt::render_rank(&run.graph, &t, 0, t0, t1, 100)
        );
    }
}

/// One-off scaling point from the command line.
pub fn print_sweep(atoms: usize, nodes: usize, machine_name: &str) {
    let machine = match machine_name {
        "dgx" | "dgx_h100" => MachineModel::dgx_h100(),
        "a100" | "dgx_a100" => MachineModel::dgx_a100(),
        "gb200" | "nvl72" => MachineModel::gb200_nvl72(),
        _ => MachineModel::eos(),
    };
    let gpus = nodes * machine.gpus_per_node;
    let box_l = halox_dd::grappa_box(atoms, 100.0);
    let opts = halox_dd::GridOptions {
        r_comm: R_COMM,
        ..Default::default()
    };
    let grid = halox_dd::choose_grid(gpus, box_l, &opts);
    let model = WorkloadModel::grappa(atoms, R_COMM, grid);
    let input = ScheduleInput::from_workload(machine.clone(), &model);
    println!(
        "{} atoms on {nodes} nodes x {} GPUs ({}), grid {:?}:",
        atoms, machine.gpus_per_node, machine.name, grid.dims
    );
    for backend in [Backend::Mpi, Backend::Nvshmem] {
        let m = sched::simulate(backend, &input, 8, 3);
        println!(
            "  {:<8} {:>8.0} ns/day  {:>8.1} us/step  (local {:.1} us, non-local {:.1} us, non-overlap {:.1} us)",
            backend.label(),
            m.ns_per_day(2.0),
            m.time_per_step_ns / 1e3,
            m.local_work_ns / 1e3,
            m.nonlocal_work_ns / 1e3,
            m.nonoverlap_ns / 1e3,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_export_writes_valid_json() {
        let dir = std::env::temp_dir().join("halox_trace_test");
        let path = dir.join("trace.json");
        export_trace(&path);
        let s = std::fs::read_to_string(&path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&s).unwrap();
        assert!(v["traceEvents"].as_array().unwrap().len() > 50);
        std::fs::remove_dir_all(&dir).ok();
    }
}
