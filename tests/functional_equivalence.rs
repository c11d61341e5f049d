//! Cross-crate integration: the fused GPU-initiated halo exchange must make
//! multi-rank MD indistinguishable from single-rank MD, for every grid
//! dimensionality and transport mix.

use halox::prelude::*;

fn relaxed(n: usize, seed: u64) -> System {
    let mut sys = GrappaBuilder::new(n).seed(seed).temperature(200.0).build();
    steepest_descent(&mut sys, MinimizeOptions::default());
    sys
}

fn max_deviation(a: &System, b: &System) -> f32 {
    a.positions
        .iter()
        .zip(&b.positions)
        .map(|(p, q)| a.pbc.dist2(*p, *q).sqrt())
        .fold(0.0, f32::max)
}

fn run(
    sys: &System,
    dims: [usize; 3],
    backend: ExchangeBackend,
    gpus_per_node: Option<usize>,
    steps: usize,
) -> System {
    let mut cfg = EngineConfig::new(backend);
    cfg.nstlist = 5;
    cfg.topology_gpus_per_node = gpus_per_node;
    let mut engine = Engine::new(sys.clone(), DdGrid::new(dims), cfg);
    engine.run(steps);
    engine.system
}

#[test]
fn one_dimensional_decomposition_matches_reference() {
    let sys = relaxed(3000, 501);
    let mut reference = ReferenceSimulation::new(sys.clone(), 0.7, 0.1);
    for _ in 0..10 {
        reference.step(0.0005);
    }
    let dd = run(&sys, [4, 1, 1], ExchangeBackend::NvshmemFused, None, 10);
    let dev = max_deviation(&dd, &reference.system);
    assert!(dev < 2e-4, "1D deviation {dev} nm");
}

#[test]
fn three_dimensional_decomposition_matches_reference() {
    let sys = relaxed(12_000, 502);
    let mut reference = ReferenceSimulation::new(sys.clone(), 0.7, 0.1);
    for _ in 0..8 {
        reference.step(0.0005);
    }
    let dd = run(&sys, [2, 2, 2], ExchangeBackend::NvshmemFused, None, 8);
    let dev = max_deviation(&dd, &reference.system);
    assert!(dev < 2e-4, "3D deviation {dev} nm");
}

#[test]
fn mixed_transport_matches_all_nvlink() {
    // 8 ranks in 2 "nodes" of 4: x pulses cross the network.
    let sys = relaxed(12_000, 503);
    let a = run(&sys, [2, 2, 2], ExchangeBackend::NvshmemFused, None, 8);
    let b = run(&sys, [2, 2, 2], ExchangeBackend::NvshmemFused, Some(4), 8);
    let dev = max_deviation(&a, &b);
    assert!(dev < 2e-4, "transport deviation {dev} nm");
}

#[test]
fn backends_agree_on_3d_grid() {
    let sys = relaxed(12_000, 504);
    let a = run(&sys, [2, 2, 2], ExchangeBackend::Mpi, None, 8);
    let b = run(&sys, [2, 2, 2], ExchangeBackend::NvshmemFused, Some(2), 8);
    let dev = max_deviation(&a, &b);
    assert!(dev < 2e-4, "backend deviation {dev} nm");
    let c = run(&sys, [2, 2, 2], ExchangeBackend::ThreadMpi, None, 8);
    let dev = max_deviation(&a, &c);
    assert!(dev < 2e-4, "thread-MPI deviation {dev} nm");
}

#[test]
fn energy_conserved_under_decomposition() {
    // NVE drift of the decomposed run must match the reference's order of
    // magnitude (the exchange must not create or destroy energy).
    let sys = relaxed(3000, 505);
    let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
    cfg.nstlist = 10;
    let mut engine = Engine::new(sys, DdGrid::new([2, 2, 1]), cfg);
    let stats = engine.run(40);
    let e: Vec<f64> = stats.energies.iter().map(|e| e.total()).collect();
    let e0 = e[0];
    for (s, &ei) in e.iter().enumerate() {
        assert!(ei.is_finite());
        assert!(
            ((ei - e0) / e0.abs().max(1.0)).abs() < 0.3,
            "step {s}: energy excursion from {e0} to {ei}"
        );
    }
}

#[test]
fn repartitioning_preserves_atom_count_and_molecules() {
    let sys = relaxed(3000, 506);
    let n = sys.n_atoms();
    let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
    cfg.nstlist = 3; // force several repartitions
    let mut engine = Engine::new(sys, DdGrid::new([2, 2, 1]), cfg);
    engine.run(12);
    assert_eq!(engine.system.n_atoms(), n);
    // Molecules must stay intact: bond lengths bounded.
    for b in &engine.system.bonds {
        let d = engine
            .system
            .pbc
            .dist2(
                engine.system.positions[b.i as usize],
                engine.system.positions[b.j as usize],
            )
            .sqrt();
        assert!(d < 3.0 * b.r0, "bond {b:?} stretched to {d} nm");
    }
}
