//! `halox-dd` and `halox-core` probes on the workload's own system:
//! partition and context construction, the fused and two-sided exchange
//! call by call, exact traffic counts, and the timing plane (`sched`,
//! `halox-gpusim`).

use crate::harness::{median, time_reps, Outcome};
use crate::inputs::{GRID_2PE, R_COMM};
use crate::span::Spans;
use crate::workloads::halo::HaloRig;
use halox_core::sched::{simulate, Backend, ScheduleInput};
use halox_core::{build_contexts, FusedBuffers};
use halox_dd::{build_partition, choose_grid, grappa_box, DdGrid, GridOptions, WorkloadModel};
use halox_gpusim::MachineModel;
use halox_md::System;
use halox_shmem::Topology;
use std::time::Instant;

/// Halo distance of the paper's timing-plane configurations (nm).
const MODEL_R_COMM: f32 = 1.05;
const MODEL_DT_FS: f64 = 2.0;
const SIM_STEPS: usize = 8;
const SIM_WARMUP: usize = 3;

/// Paper Fig 3 values for 45k atoms on 4 GPUs and `halox-bench validate`'s
/// band around them.
const PAPER_NS_DAY_MPI: f64 = 1126.0;
const PAPER_NS_DAY_NVSHMEM: f64 = 1649.0;
const VALIDATE_BAND: f64 = 0.15;

pub fn run(system: &System, spans: &mut Spans, out: &mut Outcome) {
    spans.scope("probe.core", |spans| {
        exchange(system, spans, out);
        timing_plane(spans, out);
    });
}

fn exchange(system: &System, spans: &mut Spans, out: &mut Outcome) {
    let grid = DdGrid::new(GRID_2PE);
    let (parts, _) = spans.scope("dd.partition", |_| {
        time_reps(15, || build_partition(system, &grid, R_COMM))
    });
    out.set_value("dd.partition_build_ms", median(&parts) * 1e3);
    let opts = GridOptions {
        r_comm: R_COMM,
        ..GridOptions::default()
    };
    let lengths = system.pbc.lengths();
    out.set_value(
        "dd.choose_grid_us",
        median(&time_reps(200, || choose_grid(2, lengths, &opts))) * 1e6,
    );

    let mut rig = HaloRig::new(system, GRID_2PE, Topology::all_nvlink, spans);
    let ranks = rig.part.n_ranks() as f64;
    out.set_value(
        "dd.home_atoms_per_rank",
        rig.part.ranks.iter().map(|r| r.n_home).max().unwrap_or(0) as f64,
    );
    out.set_value(
        "dd.halo_atoms_per_rank",
        rig.part.total_halo_atoms() as f64 / ranks,
    );
    out.set_value("dd.pulses", rig.part.total_pulses() as f64);

    let (ctxs, _) = spans.scope("core.contexts", |_| {
        time_reps(100, || build_contexts(&rig.part))
    });
    out.set_value("core.build_contexts_us", median(&ctxs) * 1e6);
    let (allocs, _) = spans.scope("core.buffers", |_| {
        time_reps(60, || FusedBuffers::alloc(2, &rig.ctxs[0]))
    });
    out.set_value("core.buffers_alloc_us", median(&allocs) * 1e6);

    // Call-by-call cost inside one world.run, engine order.
    const ROUNDS: u64 = 2_000;
    rig.checked_fused_block("core probe warm-up", 200, false, spans, out);
    if let Some(b) = rig.checked_fused_block("core probe", ROUNDS, true, spans, out) {
        out.set_value("core.pack_x_us", b.call_us[0]);
        out.set_value("core.wait_x_us", b.call_us[1]);
        out.set_value("core.ack_x_us", b.call_us[2]);
        out.set_value("core.unpack_f_us", b.call_us[3]);
    }
    if let Some(b) = rig.checked_mpi_block("core probe mpi", ROUNDS, spans, out) {
        out.set_value("core.mpi_coord_us", b.call_us[0]);
        out.set_value("core.mpi_force_us", b.call_us[1]);
    }
    let (msgs, bytes, signals) = rig.traffic_per_round();
    out.set_value("core.msgs_per_round", msgs as f64);
    out.set_value("core.bytes_per_round", bytes as f64);
    out.set_value("core.signals_per_round", signals as f64);

    // Every put proxied (one PE per "node"): the InfiniBand path.
    let mut ib = HaloRig::new(system, GRID_2PE, |n| Topology::islands(n, 1), spans);
    ib.checked_fused_block("ib warm-up", 50, false, spans, out);
    if let Some(b) = ib.checked_fused_block("ib probe", 500, false, spans, out) {
        out.set_value("core.round_us.ib", b.round_us);
    }

    // 8 PEs x 3 pulses on 2 cores: the counts are the metric, the time is
    // oversubscribed and only says how the runtime copes with that.
    let mut cube = HaloRig::new(system, [2, 2, 2], Topology::all_nvlink, spans);
    cube.checked_fused_block("grid222 warm-up", 20, false, spans, out);
    if let Some(b) = cube.checked_fused_block("grid222 probe", 200, false, spans, out) {
        out.set_value("core.round_us.grid222", b.round_us);
    }
    let (msgs, bytes, _) = cube.traffic_per_round();
    out.set_value("core.msgs_per_round.grid222", msgs as f64);
    out.set_value("core.bytes_per_round.grid222", bytes as f64);
}

fn model_input(machine: &MachineModel, atoms: usize, gpus: usize) -> ScheduleInput {
    let opts = GridOptions {
        r_comm: MODEL_R_COMM,
        ..GridOptions::default()
    };
    let grid = choose_grid(gpus, grappa_box(atoms, 100.0), &opts);
    let model = WorkloadModel::grappa(atoms, MODEL_R_COMM, grid);
    ScheduleInput::from_workload(machine.clone(), &model)
}

fn timing_plane(spans: &mut Spans, out: &mut Outcome) {
    let dgx = MachineModel::dgx_h100();
    let eos = MachineModel::eos();

    // The paper's headline point, both backends.
    let input = model_input(&dgx, 45_000, 4);
    let t0 = Instant::now();
    let mpi = simulate(Backend::Mpi, &input, SIM_STEPS, SIM_WARMUP);
    let nvs = simulate(Backend::Nvshmem, &input, SIM_STEPS, SIM_WARMUP);
    out.set_value("core.sched_simulate_ms", t0.elapsed().as_secs_f64() * 1e3);
    let (mpi, nvs) = (mpi.ns_per_day(MODEL_DT_FS), nvs.ns_per_day(MODEL_DT_FS));
    out.set_value("core.model_ns_day.mpi_45k_4gpu", mpi);
    out.set_value("core.model_ns_day.nvshmem_45k_4gpu", nvs);
    for (label, ours, paper) in [
        ("MPI", mpi, PAPER_NS_DAY_MPI),
        ("NVSHMEM", nvs, PAPER_NS_DAY_NVSHMEM),
    ] {
        out.check(((ours - paper) / paper).abs() <= VALIDATE_BAND, || {
            format!("model {label} 45k@4 = {ours:.0} ns/day, outside ±15% of the paper's {paper}")
        });
    }

    // The Fig 3 and Fig 5 points `halox-bench validate` checks, without its
    // 1152-GPU point (2 s on its own).
    let points: [(&MachineModel, usize, usize); 7] = [
        (&dgx, 45_000, 4),
        (&dgx, 180_000, 4),
        (&dgx, 180_000, 8),
        (&dgx, 360_000, 4),
        (&dgx, 360_000, 8),
        (&eos, 720_000, 32),
        (&eos, 5_760_000, 512),
    ];
    let mut rank_steps = 0usize;
    let (_, sweep_s) = spans.scope("core.sched_sweep", |_| {
        for (machine, atoms, gpus) in points {
            let input = model_input(machine, atoms, gpus);
            for backend in [Backend::Mpi, Backend::Nvshmem] {
                std::hint::black_box(simulate(backend, &input, SIM_STEPS, SIM_WARMUP));
                rank_steps += gpus * SIM_STEPS;
            }
        }
    });
    out.set_value("core.sched_sweep_ms", sweep_s * 1e3);
    out.set_value("gpusim.rank_steps_per_s", rank_steps as f64 / sweep_s);

    // One mid-size point across every machine preset.
    let presets = [
        MachineModel::dgx_h100(),
        MachineModel::dgx_a100(),
        MachineModel::eos(),
        MachineModel::gb200_nvl72(),
    ];
    let (_, presets_s) = spans.scope("gpusim.sweep", |_| {
        for machine in &presets {
            let input = model_input(machine, 180_000, 8);
            std::hint::black_box(simulate(Backend::Nvshmem, &input, SIM_STEPS, SIM_WARMUP));
        }
    });
    out.set_value("gpusim.sweep_ms", presets_s * 1e3);
}
