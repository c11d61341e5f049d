//! `halox-bench soak` — seeded kill-loop soak of checkpoint/restart
//! (DESIGN.md §3.6).
//!
//! The harness drives one trajectory to completion through a gauntlet of
//! process kills, in two phases:
//!
//! 1. **Hard kills** — the engine runs with checkpointing but *zero*
//!    recovery headroom (fallback pinned to the primary, no retries, no
//!    replays), and a one-shot `KillPe` scheduled by the seed. Every kill
//!    is terminal: the run dies with `SegmentFailed`, the engine is thrown
//!    away — the process-death analogue — and a fresh engine resumes from
//!    the newest checkpoint on disk. The kill schedule adapts: a cycle
//!    that makes no forward progress doubles the fault's operation offset
//!    so the next kill lands later, guaranteeing the loop converges
//!    instead of re-killing the same segment forever. Mid-soak, one
//!    checkpoint is deliberately bit-flipped on disk to exercise the
//!    corrupt-fallback path under fire.
//! 2. **In-run recovery** — the final leg re-enables `max_recoveries` and
//!    schedules further kills; the engine must absorb them by replaying
//!    the failed segment from its own frontier, without dying.
//!
//! The trajectory target *extends* until at least [`MIN_KILL_CYCLES`]
//! kill/recover cycles have happened, then the survivor's full state and
//! energy history are compared **bitwise** against an
//! uninterrupted serial-reference run of the same length — the
//! checkpoint-resume contract end to end. Every loop is bounded by cycle
//! and wall-clock caps: the harness completes or diagnoses, never hangs.
//! Results go to `results/soak.json`; any violation exits non-zero.
//!
//! The PE substrate follows `HALOX_BACKEND` (threads or procs), which is
//! how the CI soak job runs both worlds. Under `procs` a kill severs a
//! child's proxy socket and a real process dies; under `threads` the kill
//! degrades to crash-drop semantics and the watchdog deadline converts it
//! into the same terminal segment failure.

use halox_dd::DdGrid;
use halox_engine::{
    Checkpoint, CheckpointConfig, Engine, EngineConfig, EngineError, ExchangeBackend, RunMode,
    Thermostat,
};
use halox_md::System;
use halox_shmem::{FaultKind, FaultOp, FaultPlan, FaultRule};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Kill/recover cycles required before the soak may conclude (hard kills
/// plus in-run replays).
pub const MIN_KILL_CYCLES: usize = 20;
/// Initial trajectory length; extended in [`EXTEND_STEPS`] increments while
/// the kill quota is unmet. Multiples of `NSTLIST` keep every resume on a
/// segment boundary — the alignment the bitwise contract requires.
const BASE_STEPS: usize = 100;
const EXTEND_STEPS: usize = 50;
/// Steps of the final in-run-recovery leg.
const FINAL_LEG_STEPS: usize = 30;
const NSTLIST: usize = 5;
/// Hard caps that turn a stuck soak into a diagnosis instead of a hang.
const MAX_CYCLES: usize = 300;
const MAX_WALL: Duration = Duration::from_secs(15 * 60);
/// Hard-kill cycle after which the newest checkpoint gets bit-flipped.
const CORRUPT_AT_CYCLE: usize = 3;

/// One kill/recover cycle.
#[derive(Debug, Clone, Serialize)]
pub struct CycleRow {
    pub cycle: usize,
    /// "hard-kill" (process death + resume) or "in-run" (replay rung).
    pub kind: String,
    /// Steps completed when the kill landed.
    pub killed_at_step: usize,
    /// Steps at the checkpoint the trajectory restarted from.
    pub resumed_from_step: usize,
    /// Forward progress since the previous cycle's resume point.
    pub progress_steps: usize,
}

/// The soak verdict persisted to `results/soak.json`.
#[derive(Debug, Clone, Serialize)]
pub struct SoakReport {
    pub backend: String,
    pub seed: u64,
    pub completed: bool,
    pub bitwise_match: bool,
    pub total_steps: usize,
    pub kill_cycles: usize,
    pub in_run_recoveries: usize,
    /// Steps lost to hard kills (completed, then re-executed after resume).
    pub rewound_steps_hard: usize,
    /// Steps of the segments the in-run replays re-ran
    /// (`RunStats::rewound_steps`).
    pub rewound_steps_in_run: usize,
    pub corrupt_checkpoints_skipped: usize,
    pub checkpoints_written: usize,
    pub wall_seconds: f64,
    /// Why the soak stopped short, when it did.
    pub diagnosis: Option<String>,
    pub cycles: Vec<CycleRow>,
}

/// The soaked configuration: fused transport, every edge proxied
/// (`islands(4,1)`) so a procs-backend kill always crosses a parent proxy,
/// thermostat on so the global reduction is in the bitwise contract, and
/// the fallback pinned to the primary so a kill cannot be absorbed by a
/// transport downgrade — checkpoint recovery is the only way through.
fn soak_config(dir: &Path, max_recoveries: usize) -> EngineConfig {
    let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
    cfg.nstlist = NSTLIST;
    cfg.topology_gpus_per_node = Some(1);
    cfg.thermostat = Some(Thermostat {
        t_ref: 220.0,
        tau_ps: 0.5,
    });
    cfg.watchdog.deadline = Duration::from_millis(250);
    cfg.watchdog.max_retries = 0;
    cfg.watchdog.fallback = ExchangeBackend::NvshmemFused;
    let mut ckpt = CheckpointConfig::in_dir(dir);
    ckpt.max_recoveries = max_recoveries;
    cfg.checkpoint = Some(ckpt);
    cfg
}

fn kill_plan(seed: u64, after_ops: u64, rules: &[(usize, u64)]) -> FaultPlan {
    FaultPlan {
        name: format!("soak-kill@{after_ops}"),
        seed,
        rules: rules
            .iter()
            .map(|&(pe, extra)| FaultRule {
                pe: Some(pe),
                op: FaultOp::Any,
                after_ops: after_ops + extra,
                every: None,
                kind: FaultKind::KillPe,
            })
            .collect(),
    }
}

/// Flip one payload bit of the newest checkpoint on disk.
fn corrupt_newest(dir: &Path) -> bool {
    let Some((_, path)) = Checkpoint::list(dir).pop() else {
        return false;
    };
    let Ok(mut bytes) = std::fs::read(&path) else {
        return false;
    };
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&path, bytes).is_ok()
}

struct SoakOutcome {
    report: SoakReport,
    failures: Vec<String>,
}

/// The soak itself, reusable from tests. Pure driver logic — all
/// pass/fail conditions are collected into `failures`.
fn soak(seed: u64, dir: &PathBuf) -> SoakOutcome {
    let t0 = Instant::now();
    let _ = std::fs::remove_dir_all(dir);
    let sys = crate::relaxed_system(3000, 29, 220.0);
    let grid = [2, 2, 1];
    let backend_label = EngineConfig::new(ExchangeBackend::NvshmemFused)
        .world_backend
        .label()
        .to_string();
    println!("== soak: backend {backend_label}, seed {seed}, {MIN_KILL_CYCLES}+ kill cycles ==");

    let mut cycles: Vec<CycleRow> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut diagnosis: Option<String> = None;
    let mut rewound_hard = 0usize;
    let mut corrupt_skipped = 0usize;
    let mut checkpoints_written = 0usize;

    // -------------------------------------------------------------------
    // Phase 1: hard kills. Zero recovery headroom; every kill is fatal to
    // the engine and survived only through the files on disk.
    // -------------------------------------------------------------------
    let mut target = BASE_STEPS;
    let mut frontier = 0usize; // trusted progress: resume point of the current engine
    let mut after_ops: u64 = seed % 7; // seeded kill schedule
    let mut corrupted_once = false;
    loop {
        if t0.elapsed() > MAX_WALL || cycles.len() >= MAX_CYCLES {
            diagnosis = Some(format!(
                "hard-kill phase hit the {} cap at {} cycles, step {frontier}/{target}",
                if cycles.len() >= MAX_CYCLES {
                    "cycle"
                } else {
                    "wall-clock"
                },
                cycles.len(),
            ));
            break;
        }
        if frontier >= target {
            if cycles.len() >= MIN_KILL_CYCLES {
                break; // trajectory done, quota met
            }
            target += EXTEND_STEPS; // quota unmet: keep the gauntlet going
            println!(
                "  kill quota {}/{MIN_KILL_CYCLES}: extending target to {target}",
                cycles.len()
            );
        }
        let mut cfg = soak_config(dir, 0);
        cfg.chaos = Some(kill_plan(seed, after_ops, &[(1, 0)]));
        let mut engine = if frontier == 0 && Checkpoint::list(dir).is_empty() {
            Engine::new(sys.clone(), DdGrid::new(grid), cfg)
        } else {
            match Engine::resume_latest(dir, cfg) {
                Ok(e) => e,
                Err(e) => {
                    failures.push(format!("resume failed at step {frontier}: {e}"));
                    diagnosis = Some("unresumable checkpoint directory".into());
                    break;
                }
            }
        };
        let resume_step = engine.resumed().map_or(0, |(s, _)| s as usize);
        corrupt_skipped += engine.resumed().map_or(0, |(_, c)| c);
        let rewound = frontier.saturating_sub(resume_step);
        rewound_hard += rewound;
        match engine.try_run(target - resume_step) {
            Err(EngineError::SegmentFailed { at_step, .. }) => {
                let progress = at_step.saturating_sub(resume_step);
                cycles.push(CycleRow {
                    cycle: cycles.len() + 1,
                    kind: "hard-kill".into(),
                    killed_at_step: at_step,
                    resumed_from_step: resume_step,
                    progress_steps: progress,
                });
                // The checkpoint cadence (every segment) means everything
                // completed is persisted: the next resume starts at at_step
                // unless we corrupt the file below.
                frontier = at_step;
                if progress == 0 {
                    // The kill outran the first segment again: push it
                    // later so the soak always converges. (Once after_ops
                    // lands inside the post-resume window, every cycle
                    // advances ~one segment and then dies — the steady
                    // state the soak wants.)
                    after_ops = (after_ops * 2).max(8);
                }
                // Corrupt the newest checkpoint once, but only when an
                // older sibling exists to fall back to — losing the only
                // checkpoint is unrecoverable by design.
                if cycles.len() >= CORRUPT_AT_CYCLE
                    && !corrupted_once
                    && Checkpoint::list(dir).len() >= 2
                {
                    corrupted_once = corrupt_newest(dir);
                    if corrupted_once {
                        println!(
                            "  cycle {}: bit-flipped newest checkpoint on disk",
                            cycles.len()
                        );
                    }
                }
            }
            Err(e) => {
                failures.push(format!("unexpected engine error at step {frontier}: {e}"));
                diagnosis = Some("non-SegmentFailed error during hard-kill phase".into());
                break;
            }
            Ok(stats) => {
                frontier = stats.steps;
                checkpoints_written = stats.checkpoints_written;
            }
        }
        if cycles.len().is_multiple_of(5) && !cycles.is_empty() {
            println!(
                "  {} cycles, step {frontier}/{target}, {:.1}s",
                cycles.len(),
                t0.elapsed().as_secs_f64()
            );
        }
    }
    let hard_kills = cycles.len();
    if corrupted_once && corrupt_skipped == 0 {
        failures.push("bit-flipped checkpoint was never detected/skipped".into());
    }

    // -------------------------------------------------------------------
    // Phase 2: in-run recovery. Same kills, but the engine absorbs them
    // by replaying the failed segment from its frontier.
    // -------------------------------------------------------------------
    let total = frontier + FINAL_LEG_STEPS;
    let mut in_run_recoveries = 0usize;
    let mut rewound_in_run = 0usize;
    let mut final_state: Option<(System, Vec<halox_md::EnergyReport>)> = None;
    if diagnosis.is_none() {
        let mut cfg = soak_config(dir, 5);
        cfg.chaos = Some(kill_plan(seed, 10, &[(1, 0), (2, 50)]));
        match Engine::resume_latest(dir, cfg) {
            Ok(mut engine) => {
                let resume_step = engine.resumed().map_or(0, |(s, _)| s as usize);
                match engine.try_run(total - resume_step) {
                    Ok(stats) => {
                        in_run_recoveries = stats.recoveries;
                        rewound_in_run = stats.rewound_steps;
                        checkpoints_written = stats.checkpoints_written;
                        if stats.steps != total {
                            failures.push(format!(
                                "final leg stopped at {} of {total} steps",
                                stats.steps
                            ));
                        }
                        for _ in 0..stats.recoveries {
                            cycles.push(CycleRow {
                                cycle: cycles.len() + 1,
                                kind: "in-run".into(),
                                killed_at_step: 0, // interior to the run; not observable here
                                resumed_from_step: resume_step,
                                progress_steps: 0,
                            });
                        }
                        final_state = Some((engine.system.clone(), stats.energies));
                    }
                    Err(e) => {
                        failures.push(format!("in-run recovery leg failed: {e}"));
                        diagnosis = Some("supervised recovery could not finish".into());
                    }
                }
            }
            Err(e) => {
                failures.push(format!("final-leg resume failed: {e}"));
                diagnosis = Some("unresumable checkpoint directory".into());
            }
        }
        if in_run_recoveries == 0 && diagnosis.is_none() {
            failures.push("final leg absorbed no kills in-run (schedule never fired)".into());
        }
    }

    // -------------------------------------------------------------------
    // Verdict: the survivor must be bitwise-identical to a trajectory that
    // was never interrupted (serial reference — substrate-invariance is
    // established by the conformance suite).
    // -------------------------------------------------------------------
    let mut bitwise_match = false;
    if let Some((soaked_sys, soaked_energies)) = &final_state {
        let mut cfg = soak_config(dir, 0);
        cfg.checkpoint = None;
        cfg.run_mode = RunMode::Serial;
        let mut reference = Engine::new(sys.clone(), DdGrid::new(grid), cfg);
        let ref_stats = reference.run(total);
        bitwise_match = crate::same_trajectory(
            &reference.system,
            &ref_stats.energies,
            soaked_sys,
            soaked_energies,
        );
        if !bitwise_match {
            failures.push("soaked trajectory diverged from the uninterrupted reference".into());
        }
    }
    let kill_cycles = cycles.len();
    if kill_cycles < MIN_KILL_CYCLES && diagnosis.is_none() {
        failures.push(format!(
            "only {kill_cycles} kill/recover cycles (need {MIN_KILL_CYCLES})"
        ));
    }

    let report = SoakReport {
        backend: backend_label,
        seed,
        completed: diagnosis.is_none() && final_state.is_some(),
        bitwise_match,
        total_steps: total,
        kill_cycles,
        in_run_recoveries,
        rewound_steps_hard: rewound_hard,
        rewound_steps_in_run: rewound_in_run,
        corrupt_checkpoints_skipped: corrupt_skipped,
        checkpoints_written,
        wall_seconds: t0.elapsed().as_secs_f64(),
        diagnosis,
        cycles,
    };
    println!(
        "== soak done: {} hard kills + {} in-run recoveries, {} steps, rewound {}+{}, \
         {} corrupt skipped, bitwise {} in {:.1}s ==",
        hard_kills,
        report.in_run_recoveries,
        report.total_steps,
        report.rewound_steps_hard,
        report.rewound_steps_in_run,
        report.corrupt_checkpoints_skipped,
        if report.bitwise_match {
            "OK"
        } else {
            "MISMATCH"
        },
        report.wall_seconds,
    );
    SoakOutcome { report, failures }
}

/// The `soak` subcommand: run the kill loop, persist `soak.json`, exit
/// non-zero on any violated invariant (with the diagnosis printed — the
/// soak completes or explains itself, it never hangs).
pub fn run(results: &Path, seed: u64) {
    let dir = std::env::temp_dir().join(format!("halox-soak-{}", std::process::id()));
    let outcome = soak(seed, &dir);
    if outcome.failures.is_empty() {
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        eprintln!(
            "soak: keeping checkpoint dir {} for post-mortem",
            dir.display()
        );
    }
    crate::report::write_json(&results.join("soak.json"), &outcome.report)
        .expect("write soak.json");
    if !outcome.failures.is_empty() {
        for f in &outcome.failures {
            eprintln!("soak FAILURE: {f}");
        }
        if let Some(d) = &outcome.report.diagnosis {
            eprintln!("diagnosis: {d}");
        }
        std::process::exit(1);
    }
}
