//! Device-side timing breakdowns (the paper's Figs 6-8 methodology):
//! Local work / Non-local work / Non-overlap / Time-per-step, plus a
//! functional-plane phase-timer demo on a real multi-threaded run.
//!
//! ```sh
//! cargo run --release --example device_timing
//! ```

use halox::core::sched::{simulate, Backend};
use halox::engine::PhaseTimer;
use halox::md::nb::PhaseClock;
use halox::prelude::*;

fn breakdown(machine: &MachineModel, atoms: usize, dims: [usize; 3]) {
    let grid = DdGrid::new(dims);
    let model = WorkloadModel::grappa(atoms, 1.05, grid);
    let input = ScheduleInput::from_workload(machine.clone(), &model);
    for backend in [Backend::Mpi, Backend::Nvshmem] {
        let m = simulate(backend, &input, 8, 3);
        println!(
            "{:>9} {:>9} {:>8} local {:>7.1}us  nonlocal {:>7.1}us  nonoverlap {:>7.1}us  step {:>7.1}us",
            atoms,
            format!("{}x{}x{}", dims[0], dims[1], dims[2]),
            backend.label(),
            m.local_work_ns / 1e3,
            m.nonlocal_work_ns / 1e3,
            m.nonoverlap_ns / 1e3,
            m.time_per_step_ns / 1e3,
        );
    }
}

fn main() {
    println!("== Simulated device-side timing, intra-node 4xH100 (Fig 6 scenario) ==");
    let dgx = MachineModel::dgx_h100();
    for atoms in [45_000usize, 180_000, 360_000] {
        breakdown(&dgx, atoms, [4, 1, 1]);
    }

    println!("\n== Multi-node, 11.25k atoms/GPU: 1D -> 2D -> 3D DD (Fig 7 scenario) ==");
    let eos = MachineModel::eos();
    breakdown(&eos, 90_000, [8, 1, 1]);
    breakdown(&eos, 180_000, [8, 2, 1]);
    breakdown(&eos, 360_000, [8, 2, 2]);

    println!("\n== Functional plane: wall-clock phases of a real threaded run ==");
    let mut system = GrappaBuilder::new(6_000).seed(7).temperature(200.0).build();
    steepest_descent(&mut system, MinimizeOptions::default());
    let mut timer = PhaseTimer::new();
    let mut engine = Engine::new(
        system,
        DdGrid::new([2, 2, 1]),
        EngineConfig::new(ExchangeBackend::NvshmemFused),
    );
    let stats = timer.time("md_run", || engine.run(20));
    for (phase, total, count) in timer.iter() {
        println!(
            "  {phase}: {:.1} ms total over {count} call(s); engine reported {:.3} s wall",
            total.as_secs_f64() * 1e3,
            stats.wall_seconds
        );
    }
}
