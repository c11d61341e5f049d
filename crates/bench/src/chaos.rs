//! `halox-bench chaos` — fault-plan sweep over the functional engine.
//!
//! Runs a short trajectory under every built-in [`FaultPlan`] on each
//! signal-driven transport (fused NVSHMEM path over all-NVLink and over a
//! mixed NVLink/IB topology — exercising both the direct and the proxied
//! delivery paths — plus thread-MPI), with a tight watchdog deadline so
//! stall diagnosis and the degradation ladder actually engage. Every run
//! must end in one of three accounted states:
//!
//! * **clean** — completed on the primary transport, no recovery activity;
//! * **retried** — transient faults absorbed by segment retries;
//! * **degraded** — the run flipped to the two-sided fallback and finished;
//! * **failed** — even the fallback could not complete (this is a bug).
//!
//! Never a hang: the suite inherits "every wait is bounded or acked"
//! (DESIGN.md §3.2). Results go to `results/chaos.json`.

use halox_dd::DdGrid;
use halox_engine::{Engine, EngineConfig, ExchangeBackend};
use halox_md::System;
use halox_shmem::FaultPlan;
use serde::Serialize;
use std::path::Path;
use std::time::Duration;

/// One (plan × transport × topology) cell of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosRow {
    pub plan: String,
    pub backend: String,
    pub topology: String,
    pub completed: bool,
    pub outcome: String,
    pub retries: usize,
    pub downgrades: usize,
    pub degraded_steps: usize,
    pub stalls: usize,
    pub repromotions: usize,
    pub faults_injected: u64,
    /// Max position deviation (nm) vs the fault-free run of the same
    /// transport; -1 when the run failed (state is mid-trajectory).
    pub max_dev_nm: f64,
}

/// Steps per run: long enough to span several neighbour-search segments
/// (nstlist = 10), so quarantine → probation → re-promotion can play out.
const STEPS: usize = 100;
/// Watchdog deadline: small so diagnosis is cheap to exercise, but far
/// above the delay-class fault magnitudes (100-500 µs).
const DEADLINE: Duration = Duration::from_millis(250);

fn config(backend: ExchangeBackend, gpus_per_node: Option<usize>) -> EngineConfig {
    let mut cfg = EngineConfig::new(backend);
    cfg.nstlist = 10;
    cfg.topology_gpus_per_node = gpus_per_node;
    cfg.watchdog.deadline = DEADLINE;
    cfg
}

fn max_deviation(sys: &System, a: &System, b: &System) -> f64 {
    a.positions
        .iter()
        .zip(&b.positions)
        .map(|(&p, &q)| sys.pbc.dist2(p, q).sqrt() as f64)
        .fold(0.0, f64::max)
}

fn sweep_transport(
    sys: &System,
    label_backend: &str,
    label_topology: &str,
    backend: ExchangeBackend,
    gpus_per_node: Option<usize>,
    plans: &[FaultPlan],
    rows: &mut Vec<ChaosRow>,
) {
    // Fault-free reference trajectory for this transport.
    let mut reference = Engine::new(
        sys.clone(),
        DdGrid::new([4, 1, 1]),
        config(backend, gpus_per_node),
    );
    reference.run(STEPS);

    for plan in plans {
        let mut cfg = config(backend, gpus_per_node);
        cfg.chaos = Some(plan.clone());
        let mut engine = Engine::new(sys.clone(), DdGrid::new([4, 1, 1]), cfg);
        let result = engine.try_run(STEPS);
        let row = match result {
            Ok(stats) => {
                let outcome = if !stats.downgrades.is_empty() {
                    "degraded"
                } else if stats.retries > 0 {
                    "retried"
                } else {
                    "clean"
                };
                ChaosRow {
                    plan: plan.name.clone(),
                    backend: label_backend.to_string(),
                    topology: label_topology.to_string(),
                    completed: true,
                    outcome: outcome.to_string(),
                    retries: stats.retries,
                    downgrades: stats.downgrades.len(),
                    degraded_steps: stats.degraded_steps,
                    stalls: stats.stall_reports.len(),
                    repromotions: stats.repromotions,
                    faults_injected: stats.faults_injected,
                    max_dev_nm: max_deviation(sys, &engine.system, &reference.system),
                }
            }
            Err(e) => ChaosRow {
                plan: plan.name.clone(),
                backend: label_backend.to_string(),
                topology: label_topology.to_string(),
                completed: false,
                outcome: format!("failed: {e}"),
                retries: 0,
                downgrades: 0,
                degraded_steps: 0,
                stalls: 0,
                repromotions: 0,
                faults_injected: 0,
                max_dev_nm: -1.0,
            },
        };
        rows.push(row);
    }
}

/// The sweep itself, reusable from tests: every built-in plan (stall sized
/// above the deadline so stall *diagnosis* engages) across the fused path
/// on both topologies plus thread-MPI.
pub fn sweep(seed: u64) -> Vec<ChaosRow> {
    let sys = crate::relaxed_system(6_000, 47, 250.0);
    // 4 PEs; stall well past the deadline so StallPe trips the watchdog
    // rather than being absorbed as a long delay.
    let plans = FaultPlan::builtins(seed, 4, 2 * DEADLINE);
    let mut rows = Vec::new();
    sweep_transport(
        &sys,
        "NVSHMEM",
        "all-NVLink",
        ExchangeBackend::NvshmemFused,
        None,
        &plans,
        &mut rows,
    );
    sweep_transport(
        &sys,
        "NVSHMEM",
        "islands(4,2)",
        ExchangeBackend::NvshmemFused,
        Some(2),
        &plans,
        &mut rows,
    );
    sweep_transport(
        &sys,
        "tMPI",
        "all-NVLink",
        ExchangeBackend::ThreadMpi,
        None,
        &plans,
        &mut rows,
    );
    rows
}

pub fn print_table(rows: &[ChaosRow]) {
    println!("\n== chaos sweep: {STEPS} steps, deadline {DEADLINE:?} ==");
    println!(
        "{:<24} {:<8} {:<13} {:<9} {:>7} {:>10} {:>9} {:>7} {:>7} {:>11}",
        "plan",
        "backend",
        "topology",
        "outcome",
        "retries",
        "downgrades",
        "degraded",
        "stalls",
        "faults",
        "max_dev_nm"
    );
    for r in rows {
        println!(
            "{:<24} {:<8} {:<13} {:<9} {:>7} {:>10} {:>9} {:>7} {:>7} {:>11.2e}",
            r.plan,
            r.backend,
            r.topology,
            if r.completed { &r.outcome } else { "FAILED" },
            r.retries,
            r.downgrades,
            r.degraded_steps,
            r.stalls,
            r.faults_injected,
            r.max_dev_nm
        );
    }
}

/// The `chaos` subcommand: sweep, print, persist, and exit non-zero if any
/// cell hung out of its accounted states (a `failed` cell is a bug in the
/// degradation ladder — the fallback transport is immune to every built-in
/// fault class).
pub fn run(results: &Path, seed: u64) {
    let rows = sweep(seed);
    print_table(&rows);
    println!();
    crate::report::write_json(&results.join("chaos.json"), &rows).expect("write chaos.json");
    let failed = rows.iter().filter(|r| !r.completed).count();
    if failed > 0 {
        eprintln!("{failed} chaos cell(s) failed even on the fallback transport");
        std::process::exit(1);
    }
}
