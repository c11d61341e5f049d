//! # halox-bench — figure regeneration and correctness soaks
//!
//! Two jobs, nothing else: reproduce the paper's figures on the timing plane
//! (one function per figure 3-8, ablations, `validate`) and soak the
//! functional plane for correctness (`ftrace`, `soak`, `serve`). Sweeps the
//! test suite already asserts — fault plans (`tests/chaos_engine.rs`),
//! backend agreement (`tests/functional_equivalence.rs`) — are not repeated
//! here.
//! The `halox-bench` binary prints tables and writes CSV / JSON under
//! `results/`. Wall-clock numbers are not measured here: the perf ledger
//! (`benchmarks/`, see its README) owns every timing.

pub mod ablation;
pub mod chart;
pub mod figures;
pub mod ftrace;
pub mod functional;
pub mod report;
pub mod serve;
pub mod soak;
pub mod validate;

use halox_md::{minimize, EnergyReport, GrappaBuilder, MinimizeOptions, System};

/// The system every functional-plane subcommand steps: a grappa box
/// minimised before use (an unminimised one blows up at nonzero temperature).
pub fn relaxed_system(atoms: usize, seed: u64, temperature: f32) -> System {
    let mut sys = GrappaBuilder::new(atoms)
        .seed(seed)
        .temperature(temperature)
        .build();
    minimize::steepest_descent(&mut sys, MinimizeOptions::default());
    sys
}

/// The one trajectory comparison of the soaks: final state and every step's
/// energies equal, value for value.
pub fn same_trajectory(
    a: &System,
    a_energies: &[EnergyReport],
    b: &System,
    b_energies: &[EnergyReport],
) -> bool {
    a == b && a_energies == b_energies
}
