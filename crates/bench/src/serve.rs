//! `halox-bench serve` — the multi-tenant service acceptance load
//! (DESIGN.md §3.7).
//!
//! Drives hundreds of short seeded jobs at mixed priorities through a
//! [`JobService`] with a small world pool (≤4 leased worlds), then holds the
//! run to the service contracts:
//!
//! - every job reaches `Done` (zero failed jobs),
//! - every job's trajectory is **bitwise-identical** to a solo
//!   single-engine run of the same spec (serial reference — substrate
//!   invariance is pinned by the conformance suite),
//! - one job carries a one-shot `KillPe` fault plan with the fallback
//!   pinned shut, so its first slice *must* die — the service reschedules
//!   it onto a fresh lease and it still finishes, bitwise (at least one
//!   reschedule recorded).
//!
//! Results go to `results/serve.json`; any violated contract exits
//! non-zero. The PE substrate follows `HALOX_BACKEND`, which is how the CI
//! soak job runs both worlds. Throughput and queue-wait percentiles are the
//! perf ledger's (`serve_batch` `ops_per_s`, `serve.queue_wait_ms_p50/p90`).

use halox_dd::DdGrid;
use halox_engine::{Engine, EngineConfig, ExchangeBackend, RunMode, Thermostat};
use halox_md::{EnergyReport, System};
use halox_serve::{JobService, JobSpec, JobState, Priority, ServeConfig};
use halox_shmem::{FaultKind, FaultOp, FaultPlan, FaultRule};
use serde::Serialize;
use std::collections::HashMap;
use std::path::Path;
use std::time::Duration;

const N_BASE_SYSTEMS: usize = 6;
const NSTLIST: usize = 5;
const GRID: [usize; 3] = [2, 1, 1];
/// Index of the job that carries the kill plan.
const CHAOS_JOB: usize = 0;

#[derive(Debug, Clone, Serialize)]
pub struct JobRow {
    pub id: u64,
    pub name: String,
    pub priority: String,
    pub state: String,
    pub steps: usize,
    pub reschedules: usize,
    pub recoveries: usize,
    pub bitwise_vs_solo: bool,
}

#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    pub backend: String,
    pub jobs: usize,
    pub pool_worlds: usize,
    pub workers: usize,
    pub completed_jobs: usize,
    pub failed_jobs: usize,
    pub total_reschedules: usize,
    pub total_recoveries: usize,
    pub bitwise_all: bool,
    pub worlds_built: usize,
    pub worlds_reused: usize,
    pub worlds_poisoned: usize,
    pub leases: usize,
    pub rows: Vec<JobRow>,
}

/// The shared job configuration: fused transport, thermostat on (the global
/// reduction is part of the bitwise contract), disk checkpointing off (the
/// service suspends in memory).
fn job_config() -> EngineConfig {
    let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
    cfg.nstlist = NSTLIST;
    cfg.thermostat = Some(Thermostat {
        t_ref: 220.0,
        tau_ps: 0.5,
    });
    cfg.checkpoint = None;
    cfg
}

/// The chaos job's configuration: every edge proxied (`islands(.,1)`) so a
/// procs-backend kill always crosses a parent proxy, zero watchdog headroom
/// and the fallback pinned to the primary, so the injected kill cannot be
/// absorbed inside the slice — rescheduling is the only way through.
fn chaos_config(seed: u64) -> EngineConfig {
    let mut cfg = job_config();
    cfg.topology_gpus_per_node = Some(1);
    cfg.watchdog.deadline = Duration::from_millis(250);
    cfg.watchdog.max_retries = 0;
    cfg.watchdog.fallback = ExchangeBackend::NvshmemFused;
    cfg.chaos = Some(FaultPlan {
        name: "serve-kill".into(),
        seed,
        rules: vec![FaultRule {
            pe: Some(1),
            op: FaultOp::Any,
            after_ops: 0,
            every: None,
            kind: FaultKind::KillPe,
        }],
    });
    cfg
}

fn steps_for(i: usize) -> usize {
    [10, 15, 20][i % 3]
}

fn priority_for(i: usize) -> Priority {
    [Priority::Low, Priority::Normal, Priority::High][i % 3]
}

/// Solo single-engine reference for a (base-system, steps) pairing, serial
/// driver, no chaos — what every service job must match bitwise.
fn solo_reference(sys: &System, steps: usize) -> (System, Vec<EnergyReport>) {
    let mut cfg = job_config();
    cfg.run_mode = RunMode::Serial;
    let mut engine = Engine::new(sys.clone(), DdGrid::new(GRID), cfg);
    let stats = engine.run(steps);
    (engine.system, stats.energies)
}

/// The `serve` subcommand: run the load, persist `serve.json`, exit
/// non-zero on any violated service contract.
pub fn run(results: &Path, n_jobs: usize, pool_worlds: usize) {
    let backend = EngineConfig::new(ExchangeBackend::NvshmemFused)
        .world_backend
        .label()
        .to_string();
    let workers = 4;
    println!(
        "== serve: backend {backend}, {n_jobs} jobs over {pool_worlds} pooled worlds, \
         {workers} workers =="
    );

    println!("  preparing {N_BASE_SYSTEMS} base systems...");
    let bases: Vec<System> = (0..N_BASE_SYSTEMS)
        .map(|i| crate::relaxed_system(3000, 101 + i as u64, 220.0))
        .collect();

    let mut svc = JobService::new(ServeConfig {
        pool_worlds,
        workers,
        slice_steps: 10,
        max_queue: n_jobs + 16,
        max_predicted_ms: None,
        max_reschedules: 8,
        ..ServeConfig::default()
    });

    // Submit everything up front, so every lease is contended.
    let mut handles = Vec::with_capacity(n_jobs);
    for i in 0..n_jobs {
        let base = i % N_BASE_SYSTEMS;
        let steps = steps_for(i);
        let config = if i == CHAOS_JOB {
            chaos_config(42)
        } else {
            job_config()
        };
        let spec = JobSpec {
            name: format!("job-{i:04}"),
            system: bases[base].clone(),
            grid: GRID,
            config,
            steps,
            priority: priority_for(i),
        };
        let handle = svc.submit(spec).expect("admission");
        handles.push((i, base, steps, handle));
    }
    println!("  {n_jobs} jobs submitted, waiting...");

    let mut failures: Vec<String> = Vec::new();
    let mut references: HashMap<(usize, usize), (System, Vec<EnergyReport>)> = HashMap::new();
    let mut rows: Vec<JobRow> = Vec::with_capacity(n_jobs);
    for (i, base, steps, handle) in &handles {
        let (status, result) = handle.wait();
        let bitwise = match (&status.state, &result) {
            (JobState::Done, Some(res)) => {
                let (ref_sys, ref_energies) = references
                    .entry((*base, *steps))
                    .or_insert_with(|| solo_reference(&bases[*base], *steps));
                crate::same_trajectory(ref_sys, ref_energies, &res.system, &res.energies)
            }
            _ => false,
        };
        if status.state != JobState::Done {
            failures.push(format!(
                "job {i} ({}) ended {:?}: {}",
                status.name,
                status.state,
                status.error.as_deref().unwrap_or("-")
            ));
        } else if !bitwise {
            failures.push(format!(
                "job {i} ({}) diverged from its solo reference",
                status.name
            ));
        }
        rows.push(JobRow {
            id: status.id,
            name: status.name.clone(),
            priority: status.priority.label().into(),
            state: format!("{:?}", status.state),
            steps: status.steps_done,
            reschedules: status.reschedules,
            recoveries: status.recoveries,
            bitwise_vs_solo: bitwise,
        });
    }
    svc.shutdown();
    let pool = svc.pool_stats();

    let total_reschedules: usize = rows.iter().map(|r| r.reschedules).sum();
    let total_recoveries: usize = rows.iter().map(|r| r.recoveries).sum();
    let failed_jobs = rows.iter().filter(|r| r.state != "Done").count();
    let bitwise_all = rows.iter().all(|r| r.bitwise_vs_solo);
    let chaos_row = &rows[CHAOS_JOB];
    if chaos_row.reschedules == 0 {
        failures.push(format!(
            "chaos job {} absorbed its kill without a reschedule (the fault story went untested)",
            chaos_row.name
        ));
    }

    let report = ServeReport {
        backend,
        jobs: n_jobs,
        pool_worlds,
        workers,
        completed_jobs: rows.iter().filter(|r| r.state == "Done").count(),
        failed_jobs,
        total_reschedules,
        total_recoveries,
        bitwise_all,
        worlds_built: pool.built,
        worlds_reused: pool.reused,
        worlds_poisoned: pool.poisoned,
        leases: pool.leases,
        rows,
    };
    println!(
        "== serve done: {}/{} jobs, {} reschedules, {} worlds built / {} reused (cap {}), \
         bitwise {} ==",
        report.completed_jobs,
        report.jobs,
        report.total_reschedules,
        report.worlds_built,
        report.worlds_reused,
        report.pool_worlds,
        if report.bitwise_all { "OK" } else { "MISMATCH" },
    );

    crate::report::write_json(&results.join("serve.json"), &report).expect("write serve.json");
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("serve FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
