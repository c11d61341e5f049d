//! End-to-end "downstream user" test: equilibrate with the thermostat,
//! stream frames through the observer hook, and compute structure/dynamics
//! observables — all on top of the fused GPU-initiated halo exchange.

use halox::engine::Thermostat;
use halox::md::analysis::{MsdTracker, Rdf};
use halox::md::AtomKind;
use halox::prelude::*;

#[test]
fn trajectory_rdf_and_msd_from_decomposed_run() {
    let mut system = GrappaBuilder::new(6_000)
        .seed(2025)
        .temperature(250.0)
        .build();
    steepest_descent(&mut system, MinimizeOptions::default());

    let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
    cfg.nstlist = 10;
    cfg.thermostat = Some(Thermostat {
        t_ref: 300.0,
        tau_ps: 0.01,
    });
    let mut engine = Engine::new(system, DdGrid::new([2, 2, 1]), cfg);

    let mut rdf = Rdf::new(1.0, 50);
    let mut msd = MsdTracker::new();
    let dt = engine.config.dt_ps as f64;
    engine.run_with_observer(50, |done, sys| {
        rdf.accumulate(
            &sys.pbc,
            &sys.positions,
            &sys.kinds,
            AtomKind::Ow,
            AtomKind::Ow,
        );
        msd.record(&sys.pbc, done as f64 * dt, &sys.positions);
    });

    // Structure: empty steric core, non-trivial first peak.
    let g = rdf.g_of_r();
    let g_small: f64 = g.iter().take(8).map(|&(_, v)| v).sum();
    assert!(g_small < 0.5, "steric core not empty: {g_small}");
    let peak = g.iter().map(|&(_, v)| v).fold(0.0, f64::max);
    assert!(peak > 1.2, "no liquid structure: peak g = {peak}");

    // Dynamics: atoms moved, MSD monotone-ish and finite.
    let series = msd.series();
    assert_eq!(series.len(), 5);
    let last = series.last().unwrap().1;
    assert!(last > 0.0 && last.is_finite());
    assert!(last < 1.0, "MSD {last} nm^2 implausible for 25 fs");
}
