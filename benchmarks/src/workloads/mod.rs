//! The four workloads. Each one sets the end-to-end metrics on an untraced
//! run; on a traced run it records spans around its layer calls, reports
//! the tracing overhead, and hands its inputs to the layer probes.

pub mod halo;
pub mod md;
pub mod serve;

use halox_engine::EngineConfig;
use halox_md::System;
use std::time::Instant;

/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Run a workload's set-up — once on a traced run, [`SETUP_REPS`] times
/// otherwise — keeping the last result and every repetition's wall (s).
pub fn repeat_setup<T>(trace: bool, mut setup: impl FnMut() -> (T, f64)) -> (T, Vec<f64>) {
    let (mut last, first_s) = setup();
    let mut walls = vec![first_s];
    for _ in 1..if trace { 1 } else { SETUP_REPS } {
        let (next, s) = setup();
        last = next;
        walls.push(s);
    }
    (last, walls)
}
/// Fewest timed rounds of a run, however short `--seconds` is.
pub const MIN_ROUNDS: usize = 5;

/// Call `round(k)` for k = 0, 1, ... until `seconds` have passed and at
/// least `min_rounds` rounds have run.
pub fn run_rounds(seconds: f64, min_rounds: usize, mut round: impl FnMut(usize)) -> usize {
    let t0 = Instant::now();
    let mut k = 0;
    while k < min_rounds || t0.elapsed().as_secs_f64() < seconds {
        round(k);
        k += 1;
    }
    k
}

/// What the layer probes of a traced run measure on: the workload's own
/// system and primary engine configuration.
pub struct ProbeInputs {
    pub system: System,
    pub config: EngineConfig,
}
