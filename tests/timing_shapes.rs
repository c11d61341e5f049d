//! Integration tests pinning the paper's headline *shapes* on the timing
//! plane: who wins, by roughly what factor, and where the crossovers fall.
//! (EXPERIMENTS.md records the full paper-vs-measured comparison.)

use halox::core::sched::{simulate, Backend, ScheduleInput};
use halox::prelude::*;

fn ns_day(machine: &MachineModel, atoms: usize, dims: [usize; 3], backend: Backend) -> f64 {
    let model = WorkloadModel::grappa(atoms, 1.05, DdGrid::new(dims));
    let input = ScheduleInput::from_workload(machine.clone(), &model);
    simulate(backend, &input, 8, 3).ns_per_day(2.0)
}

#[test]
fn headline_45k_intranode_speedup() {
    // Paper Fig 3: 45k @ 4 GPUs: 1649 vs 1126 ns/day (+46%).
    let m = MachineModel::dgx_h100();
    let mpi = ns_day(&m, 45_000, [4, 1, 1], Backend::Mpi);
    let nvs = ns_day(&m, 45_000, [4, 1, 1], Backend::Nvshmem);
    let ratio = nvs / mpi;
    assert!(
        (1.25..1.65).contains(&ratio),
        "speedup {ratio} (paper 1.46)"
    );
    assert!(
        (mpi - 1126.0).abs() / 1126.0 < 0.15,
        "MPI {mpi} (paper 1126)"
    );
    assert!(
        (nvs - 1649.0).abs() / 1649.0 < 0.15,
        "NVSHMEM {nvs} (paper 1649)"
    );
}

#[test]
fn convergence_at_360k_intranode() {
    // Paper Fig 3: 360k @ 4 GPUs: performance converges (671 vs 670).
    let m = MachineModel::dgx_h100();
    let mpi = ns_day(&m, 360_000, [4, 1, 1], Backend::Mpi);
    let nvs = ns_day(&m, 360_000, [4, 1, 1], Backend::Nvshmem);
    let ratio = nvs / mpi;
    assert!((0.95..1.10).contains(&ratio), "ratio {ratio} (paper ~1.00)");
}

#[test]
fn eight_gpu_advantages_match_paper() {
    // Paper Fig 3: 180k @ 8: +28%; 360k @ 8: +17%.
    let m = MachineModel::dgx_h100();
    let r180 = ns_day(&m, 180_000, [8, 1, 1], Backend::Nvshmem)
        / ns_day(&m, 180_000, [8, 1, 1], Backend::Mpi);
    let r360 = ns_day(&m, 360_000, [4, 2, 1], Backend::Nvshmem)
        / ns_day(&m, 360_000, [4, 2, 1], Backend::Mpi);
    assert!(
        (1.10..1.40).contains(&r180),
        "180k@8 ratio {r180} (paper 1.28)"
    );
    assert!(
        (1.05..1.30).contains(&r360),
        "360k@8 ratio {r360} (paper 1.17)"
    );
}

#[test]
fn multinode_advantage_grows_with_scale() {
    // Paper Fig 5: 5760k: 1.3x at 128 nodes; small or reversed at 2 nodes.
    let m = MachineModel::eos();
    let low = ns_day(&m, 5_760_000, [8, 1, 1], Backend::Nvshmem)
        / ns_day(&m, 5_760_000, [8, 1, 1], Backend::Mpi);
    let high = ns_day(&m, 5_760_000, [16, 8, 4], Backend::Nvshmem)
        / ns_day(&m, 5_760_000, [16, 8, 4], Backend::Mpi);
    assert!(low < 1.05, "2-node ratio {low} should be ~1 or below");
    assert!(
        (1.15..1.45).contains(&high),
        "128-node ratio {high} (paper ~1.3)"
    );
    assert!(high > low);
}

#[test]
fn mpi_marginally_wins_compute_bound_low_node_counts() {
    // Paper §6.2: "for larger systems at low node counts, MPI marginally
    // outperforms NVSHMEM" (1-3%), from NVSHMEM's SM-resource sharing.
    let m = MachineModel::eos();
    let mpi = ns_day(&m, 23_040_000, [4, 4, 2], Backend::Mpi);
    let nvs = ns_day(&m, 23_040_000, [4, 4, 2], Backend::Nvshmem);
    assert!(mpi > nvs, "MPI {mpi} must edge out NVSHMEM {nvs} here");
    assert!(
        mpi / nvs < 1.10,
        "MPI edge must stay marginal: {}",
        mpi / nvs
    );
}

#[test]
fn gb200_parallel_efficiency_ladder() {
    // Paper Fig 4: 720k: 84% @2 nodes, 55% @4, 32% @8 (4 GPUs/node);
    // 1440k scales better than 720k at every node count.
    let m = MachineModel::gb200_nvl72();
    let eff = |atoms: usize, dims_1: [usize; 3], dims_n: [usize; 3], nodes: f64| {
        ns_day(&m, atoms, dims_n, Backend::Nvshmem)
            / (ns_day(&m, atoms, dims_1, Backend::Nvshmem) * nodes)
    };
    let e720_2 = eff(720_000, [4, 1, 1], [8, 1, 1], 2.0);
    let e720_8 = eff(720_000, [4, 1, 1], [8, 4, 1], 8.0);
    let e1440_8 = eff(1_440_000, [4, 1, 1], [8, 4, 1], 8.0);
    assert!(e720_2 > e720_8, "efficiency must fall with scale");
    assert!(
        (0.2..0.55).contains(&e720_8),
        "720k@8 nodes eff {e720_8} (paper 0.32)"
    );
    assert!(
        e1440_8 > e720_8,
        "larger system scales better (paper 48% vs 32%)"
    );
}

#[test]
fn nonlocal_work_progression_fig7_fig8() {
    // Fig 7/8: non-local work grows with DD dimensionality; the NVSHMEM
    // advantage in non-local time grows too (28us at 2D, 50-60us at 3D for
    // 90k atoms/GPU).
    let m = MachineModel::eos();
    let metrics = |atoms: usize, dims: [usize; 3], b: Backend| {
        let model = WorkloadModel::grappa(atoms, 1.05, DdGrid::new(dims));
        let input = ScheduleInput::from_workload(m.clone(), &model);
        simulate(b, &input, 8, 3)
    };
    let configs = [
        (720_000usize, [8, 1, 1]),
        (1_440_000, [8, 2, 1]),
        (2_880_000, [8, 2, 2]),
    ];
    let mut prev_gap = 0.0;
    for (atoms, dims) in configs {
        let mpi = metrics(atoms, dims, Backend::Mpi);
        let nvs = metrics(atoms, dims, Backend::Nvshmem);
        let gap = mpi.nonlocal_work_ns - nvs.nonlocal_work_ns;
        assert!(gap > 0.0, "NVSHMEM non-local must be shorter at {dims:?}");
        assert!(
            gap >= prev_gap * 0.9,
            "gap should grow with dims: {gap} after {prev_gap}"
        );
        prev_gap = gap;
        // SM interference: NVSHMEM local work is slower.
        assert!(nvs.local_work_ns > mpi.local_work_ns);
    }
    // 3D gap in the paper's 50-60us band (ours in ns).
    assert!(
        (30_000.0..80_000.0).contains(&prev_gap),
        "3D gap {prev_gap} ns"
    );
}

#[test]
fn prune_stream_ablation_within_paper_band() {
    // §5.4: up to 10% improvement, for every backend.
    let m = MachineModel::dgx_h100();
    let model = WorkloadModel::grappa(180_000, 1.05, DdGrid::new([4, 1, 1]));
    for backend in [Backend::Mpi, Backend::ThreadMpi, Backend::Nvshmem] {
        let mut input = ScheduleInput::from_workload(m.clone(), &model);
        input.prune_stream_opt = true;
        let on = simulate(backend, &input, 8, 3).time_per_step_ns;
        input.prune_stream_opt = false;
        let off = simulate(backend, &input, 8, 3).time_per_step_ns;
        let gain = off / on;
        assert!(gain > 1.0, "{backend:?}: prune streams must help");
        assert!(gain < 1.15, "{backend:?}: gain {gain} exceeds paper band");
    }
}

#[test]
fn proxy_contention_degrades_multinode_performance() {
    // §5.5: a proxy thread pinned to a busy core causes large slowdowns.
    let mut m = MachineModel::eos();
    let base = ns_day(&m, 720_000, [8, 1, 1], Backend::Nvshmem);
    m.proxy_contention = 50.0;
    let contended = ns_day(&m, 720_000, [8, 1, 1], Backend::Nvshmem);
    assert!(
        contended < base * 0.9,
        "contention must hurt: {base} -> {contended}"
    );
}
