//! `md_large` and `md_small`: full engine runs on a `[2,1,1]` grid.
//!
//! The unit of work (`op`) is one MD step of the serial executor
//! (`RunMode::Serial`): one host thread advances both ranks through the
//! same decomposition, pair lists, kernels and integration as the threaded
//! executor, bit for bit, with the reference exchanges in place of the
//! signal protocol. It is the end-to-end path because it is the one this
//! host can time: two PE threads on two shared vCPUs slow down by 25-45 %
//! for minutes at a time whenever the host takes part of one vCPU away,
//! while a single thread moves to the free one. The threaded fused and
//! two-sided MPI paths run once before the timed rounds, for the bitwise
//! and trajectory checks; their timings are the traced run's
//! `engine.fused_step_ms_p50` / `engine.mpi_step_ms_p50`.
//!
//! A round is one engine over the same relaxed system, built, run and torn
//! down; a timing sample is the per-step time of one warm segment, a rate
//! sample one round's steps over its wall.

use super::{repeat_setup, run_rounds, ProbeInputs, MIN_ROUNDS};
use crate::harness::{overhead_frac, Outcome, RunArgs, Sample};
use crate::inputs::{
    energies_bounded, engine_config, max_displacement, relaxed_system, state_hash, timed_run,
    TimedRun, GRID_2PE,
};
use crate::span::Spans;
use halox_engine::{EngineConfig, ExchangeBackend, RunMode};
use halox_md::System;

/// Step at which fused and MPI trajectories are compared position by
/// position (they differ only in force accumulation order, so they agree
/// closely this early); capped by the round length.
const COMPARE_AT_STEP: usize = 50;
const COMPARE_TOL_NM: f32 = 1e-3;
const NSTLIST: usize = 10;
const TEMPERATURE_K: f32 = 250.0;

struct MdSpec {
    atoms: usize,
    /// Berendsen coupling on: one ordered all-reduce per step.
    thermostat: bool,
    steps_per_round: usize,
}

fn spec(workload: &str) -> MdSpec {
    match workload {
        // Compute-bound: big enough that pair work dwarfs everything else,
        // small enough that a run has some thirty rounds. Rounds are short
        // on purpose: many short rounds find the host's quiet moments, few
        // long ones average its bursts in.
        "md_large" => MdSpec {
            atoms: 9_000,
            thermostat: false,
            steps_per_round: 40,
        },
        // 750 atoms/PE: the box is ~3 halo widths across, the smallest
        // compute per step this decomposition allows.
        "md_small" => MdSpec {
            atoms: 1_500,
            thermostat: true,
            steps_per_round: 100,
        },
        other => unreachable!("not an md workload: {other}"),
    }
}

/// The threaded configuration of `backend`: what the checks and the layer
/// probes run.
fn config(spec: &MdSpec, backend: ExchangeBackend) -> EngineConfig {
    engine_config(
        backend,
        NSTLIST,
        spec.thermostat.then_some(f64::from(TEMPERATURE_K)),
    )
}

fn setup(spec: &MdSpec, seed: u64, spans: &mut Spans) -> (System, f64) {
    spans.scope("setup", |spans| {
        relaxed_system(spec.atoms, seed, TEMPERATURE_K, spans)
    })
}

/// Per-variant samples collected over rounds.
#[derive(Default)]
struct Variant {
    /// Per-step time of every warm segment of every round, in run order.
    step_ms: Vec<f64>,
    /// Steps over the whole run's wall, one per round.
    steps_per_s: Vec<f64>,
    hash: Option<u64>,
    snapshot: Option<Vec<halox_md::Vec3>>,
}

impl Variant {
    fn record(&mut self, label: &str, run: &TimedRun, steps: usize, out: &mut Outcome) {
        self.step_ms.extend(run.warm_step_ms());
        self.steps_per_s.push(steps as f64 / run.wall_s);
        out.attempted += steps as u64;
        out.failed += run.failed_steps();
        let hash = state_hash(&run.system, &run.stats.energies);
        let first = *self.hash.get_or_insert(hash);
        out.check(hash == first, || {
            format!("{label}: round state hash {hash:#x} differs from the first round's {first:#x}")
        });
        out.check(energies_bounded(&run.stats.energies), || {
            format!("{label}: energies not finite or out of bounds")
        });
        if self.snapshot.is_none() {
            self.snapshot.clone_from(&run.snapshot);
        }
    }
}

pub fn run(args: &RunArgs, spans: &mut Spans, out: &mut Outcome) -> ProbeInputs {
    let spec = spec(&args.workload);
    let (system, setup_s) = repeat_setup(args.trace, || setup(&spec, args.seed, spans));

    let fused_cfg = config(&spec, ExchangeBackend::NvshmemFused);
    let mpi_cfg = config(&spec, ExchangeBackend::Mpi);
    let mut serial_cfg = fused_cfg.clone();
    serial_cfg.run_mode = RunMode::Serial;
    let steps = spec.steps_per_round;
    let compare_at = COMPARE_AT_STEP.min(steps);

    let run_variant = |label: &str,
                       steps: usize,
                       cfg: &EngineConfig,
                       variant: &mut Variant,
                       spans: &mut Spans,
                       out: &mut Outcome| {
        match timed_run(&system, GRID_2PE, cfg, steps, Some(compare_at), spans) {
            Ok(run) => variant.record(label, &run, steps, out),
            Err(e) => {
                out.attempted += steps as u64;
                out.failed += steps as u64;
                out.check(false, || format!("{label}: engine run failed: {e}"));
            }
        }
    };

    // Before anything is timed: a full round on the threaded fused path and
    // the two-sided baseline up to the step the trajectories are compared
    // at, then one serial segment so allocator arenas and page tables are
    // warm.
    let mut scratch = Spans::new(false);
    let (mut fused, mut mpi) = (Variant::default(), Variant::default());
    run_variant("fused", steps, &fused_cfg, &mut fused, &mut scratch, out);
    run_variant("mpi", compare_at, &mpi_cfg, &mut mpi, &mut scratch, out);
    timed_run(&system, GRID_2PE, &serial_cfg, NSTLIST, None, &mut scratch).expect("warm-up run");

    let mut serial = Variant::default();
    if args.trace {
        // Traced pass: recorded and unrecorded rounds interleaved; their
        // ratio is the tracing overhead.
        let mut plain = Variant::default();
        run_rounds(args.seconds / 2.0, 4, |k| {
            if k % 2 == 0 {
                spans.scope("round", |spans| {
                    run_variant("serial", steps, &serial_cfg, &mut serial, spans, out)
                });
            } else {
                spans.scope("round.unrecorded", |_| {
                    run_variant("serial", steps, &serial_cfg, &mut plain, &mut scratch, out)
                });
            }
        });
        out.set_value(
            "bench.trace_overhead_frac",
            overhead_frac(&serial.step_ms, &plain.step_ms),
        );
    } else {
        run_rounds(args.seconds, MIN_ROUNDS, |_| {
            run_variant("serial", steps, &serial_cfg, &mut serial, spans, out);
        });
        out.set("op_ms", Sample::trimmed(&serial.step_ms));
        out.set("ops_per_s", Sample::trimmed(&serial.steps_per_s));
        out.set("setup_s", Sample::median_of(&setup_s));
    }
    if let (Some(threaded), Some(serial)) = (fused.hash, serial.hash) {
        out.check(serial == threaded, || {
            format!("fused-threaded state {threaded:#x} is not bitwise the serial executor's {serial:#x}")
        });
    }
    if let (Some(a), Some(b)) = (&fused.snapshot, &mpi.snapshot) {
        let d = max_displacement(&system, a, b);
        out.check(d < COMPARE_TOL_NM, || {
            format!("fused and MPI positions differ by {d} nm at step {compare_at}")
        });
    } else {
        out.check(false, || "missing fused/MPI snapshot".to_string());
    }
    ProbeInputs {
        system,
        config: fused_cfg,
    }
}
