//! `serve_batch`: short jobs through `JobService`.
//!
//! Every round submits a batch up front (closed system: one generator, one
//! worker, two pooled worlds) and waits for all of it. The unit of work is
//! one `Priority::High` job, submit to `Done`. A timing sample is the
//! median High latency of one batch (the four High jobs of a batch finish
//! at four different queue positions by design), a rate sample one batch's
//! jobs over its makespan. Solo engine runs of the same specs — no queue,
//! no slicing, no leased world — are the traced run's
//! `serve.slice_overhead_frac`.

use super::{repeat_setup, run_rounds, ProbeInputs, MIN_ROUNDS};
use crate::harness::{median, overhead_frac, Outcome, RunArgs, Sample};
use crate::inputs::{engine_config, relaxed_system, state_hash, timed_run, GRID_2PE};
use crate::span::Spans;
use halox_engine::{EngineConfig, ExchangeBackend, PoolStats, RunMode};
use halox_md::System;
use halox_serve::{JobService, JobSpec, JobState, Priority, ServeConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// One period of the (base, steps, priority) pattern: small batches make
/// many rounds, and many rounds find the host's quiet moments.
pub const JOBS_PER_ROUND: usize = 12;
const BASE_ATOMS: [usize; 4] = [1_500, 3_000, 1_500, 3_000];
const TEMPERATURE_K: f32 = 220.0;
const NSTLIST: usize = 5;
pub const SLICE_STEPS: usize = 10;
const STEPS: [usize; 3] = [10, 20, 40];
const PRIORITIES: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];

pub fn steps_for(i: usize) -> usize {
    STEPS[i % 3]
}

fn priority_for(i: usize) -> Priority {
    PRIORITIES[i % 3]
}

/// A job's engine configuration: fused transport, thermostat on (the
/// ordered all-reduce is part of what a slice must reproduce bitwise). The
/// timed batches run `RunMode::Serial`, so the worker is the only busy
/// thread, for the reason `workloads/md.rs` gives; the layer probe's batch
/// runs `RunMode::Threaded`, which is what leases pooled worlds.
pub fn job_config(run_mode: RunMode) -> EngineConfig {
    let mut cfg = engine_config(
        ExchangeBackend::NvshmemFused,
        NSTLIST,
        Some(f64::from(TEMPERATURE_K)),
    );
    cfg.run_mode = run_mode;
    cfg
}

/// Base systems plus the solo serial reference hash of every distinct
/// (base, steps) pairing a batch contains.
pub struct Bases {
    pub systems: Vec<System>,
    references: BTreeMap<(usize, usize), u64>,
}

impl Bases {
    pub fn new(systems: Vec<System>, spans: &mut Spans) -> Self {
        let cfg = job_config(RunMode::Serial);
        let mut references = BTreeMap::new();
        for (b, sys) in systems.iter().enumerate() {
            for &steps in &STEPS {
                let run = timed_run(sys, GRID_2PE, &cfg, steps, None, spans)
                    .expect("solo serial reference");
                references.insert((b, steps), state_hash(&run.system, &run.stats.energies));
            }
        }
        Bases {
            systems,
            references,
        }
    }
}

/// Everything one batch produced.
pub struct Round {
    pub jobs: usize,
    pub makespan_s: f64,
    /// Submit-to-Done latency (ms) per job, by priority index (Low..High).
    pub latency_ms: [Vec<f64>; 3],
    pub queue_wait_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub reschedules: usize,
    pub pool: PoolStats,
    /// Jobs that did not reach `Done` bitwise-equal to their reference.
    pub failed: usize,
}

/// Submit `n_jobs` up front, wait for all, check each against its solo
/// reference.
pub fn round(
    bases: &Bases,
    n_jobs: usize,
    run_mode: RunMode,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Round {
    let mut svc = JobService::new(ServeConfig {
        pool_worlds: 2,
        workers: 1,
        slice_steps: SLICE_STEPS,
        max_queue: n_jobs + 16,
        max_predicted_ms: None,
        max_reschedules: 8,
        ..ServeConfig::default()
    });
    let n_bases = bases.systems.len();
    // Specs are cloned before the clock starts: the batch measures the
    // service, not `System::clone`.
    let specs: Vec<JobSpec> = (0..n_jobs)
        .map(|i| JobSpec {
            name: format!("job-{i:03}"),
            system: bases.systems[i % n_bases].clone(),
            grid: GRID_2PE,
            config: job_config(run_mode),
            steps: steps_for(i),
            priority: priority_for(i),
        })
        .collect();

    let t0 = Instant::now();
    let mut submitted = Vec::with_capacity(n_jobs);
    let mut handles = Vec::with_capacity(n_jobs);
    for spec in specs {
        let at = Instant::now();
        let handle = svc.submit(spec).expect("admission of a benchmark job");
        submitted.push((at, Instant::now()));
        handles.push(handle);
    }
    // One parked waiter per job stamps its completion the moment the
    // service signals it; waiting in submit order would charge early
    // finishers for the jobs ahead of them.
    let finished: Vec<_> = std::thread::scope(|s| {
        let waiters: Vec<_> = handles
            .iter()
            .map(|h| {
                s.spawn(move || {
                    let (status, result) = h.wait();
                    (Instant::now(), status, result)
                })
            })
            .collect();
        waiters
            .into_iter()
            .map(|w| w.join().expect("waiter thread"))
            .collect()
    });
    svc.shutdown();

    let mut r = Round {
        jobs: n_jobs,
        makespan_s: 0.0,
        latency_ms: [Vec::new(), Vec::new(), Vec::new()],
        queue_wait_ms: Vec::new(),
        submit_us: Vec::new(),
        reschedules: 0,
        pool: svc.pool_stats(),
        failed: 0,
    };
    let mut last_done = t0;
    for (i, (done_at, status, result)) in finished.into_iter().enumerate() {
        let (sub_start, sub_end) = submitted[i];
        spans.leaf_at("serve.submit", sub_start, sub_end);
        spans.leaf_at("serve.wait", sub_end, done_at);
        last_done = last_done.max(done_at);
        r.submit_us.push((sub_end - sub_start).as_secs_f64() * 1e6);
        r.latency_ms[i % 3].push((done_at - sub_start).as_secs_f64() * 1e3);
        r.queue_wait_ms.push(status.queue_wait.as_secs_f64() * 1e3);
        r.reschedules += status.reschedules;
        let want = bases.references[&(i % n_bases, steps_for(i))];
        let ok = match (&status.state, &result) {
            (JobState::Done, Some(res)) => state_hash(&res.system, &res.energies) == want,
            _ => false,
        };
        if !ok {
            r.failed += 1;
            out.check(false, || {
                format!(
                    "{} ended {:?} ({}) or diverged from its solo serial reference",
                    status.name,
                    status.state,
                    status.error.as_deref().unwrap_or("no error")
                )
            });
        }
    }
    r.makespan_s = (last_done - t0).as_secs_f64();
    out.attempted += n_jobs as u64;
    out.failed += r.failed as u64;
    r
}

fn setup(seed: u64, spans: &mut Spans) -> (Bases, f64) {
    spans.scope("setup", |spans| {
        let systems = BASE_ATOMS
            .iter()
            .enumerate()
            .map(|(k, &atoms)| relaxed_system(atoms, seed + k as u64, TEMPERATURE_K, spans))
            .collect();
        Bases::new(systems, spans)
    })
}

pub fn run(args: &RunArgs, spans: &mut Spans, out: &mut Outcome) -> (ProbeInputs, Bases) {
    let (bases, setup_s) = repeat_setup(args.trace, || setup(args.seed, spans));

    let mut scratch = Spans::new(false);
    // Warm-up: a third of a batch, untimed.
    round(
        &bases,
        JOBS_PER_ROUND / 3,
        RunMode::Serial,
        &mut scratch,
        out,
    );

    let mut high_ms = Vec::new();
    if args.trace {
        let mut plain_ms = Vec::new();
        run_rounds(args.seconds / 2.0, 4, |k| {
            if k % 2 == 0 {
                let (r, _) = spans.scope("serve.round", |spans| {
                    round(&bases, JOBS_PER_ROUND, RunMode::Serial, spans, out)
                });
                high_ms.push(median(&r.latency_ms[2]));
            } else {
                let (r, _) = spans.scope("round.unrecorded", |_| {
                    round(&bases, JOBS_PER_ROUND, RunMode::Serial, &mut scratch, out)
                });
                plain_ms.push(median(&r.latency_ms[2]));
            }
        });
        out.set_value(
            "bench.trace_overhead_frac",
            overhead_frac(&high_ms, &plain_ms),
        );
    } else {
        let mut jobs_per_s = Vec::new();
        run_rounds(args.seconds, MIN_ROUNDS, |_| {
            let r = round(&bases, JOBS_PER_ROUND, RunMode::Serial, spans, out);
            high_ms.push(median(&r.latency_ms[2]));
            jobs_per_s.push((r.jobs - r.failed) as f64 / r.makespan_s);
        });
        out.set("op_ms", Sample::trimmed(&high_ms));
        out.set("ops_per_s", Sample::trimmed(&jobs_per_s));
        out.set("setup_s", Sample::median_of(&setup_s));
    }
    let inputs = ProbeInputs {
        system: bases.systems[0].clone(),
        config: job_config(RunMode::Threaded),
    };
    (inputs, bases)
}
