//! `halox-serve` probes: one recorded batch on the threaded executor (the
//! one that leases pooled worlds), the admission estimator on its own, and
//! the same specs as solo engine runs for the slicing overhead.

use crate::harness::{median, percentile, time_reps, Outcome};
use crate::inputs::{timed_run, GRID_2PE};
use crate::span::Spans;
use crate::workloads::serve::{job_config, round, steps_for, Bases, SLICE_STEPS};
use halox_engine::RunMode;
use halox_gpusim::MachineModel;
use halox_serve::AdmissionEstimator;
use std::collections::BTreeMap;

pub fn run(bases: &Bases, n_jobs: usize, spans: &mut Spans, out: &mut Outcome) {
    spans.scope("probe.serve", |spans| probe(bases, n_jobs, spans, out));
}

fn probe(bases: &Bases, n_jobs: usize, spans: &mut Spans, out: &mut Outcome) {
    let (r, _) = spans.scope("serve.round", |spans| {
        round(bases, n_jobs, RunMode::Threaded, spans, out)
    });
    out.set_value("serve.submit_us", median(&r.submit_us));
    out.set_value("serve.queue_wait_ms_p50", median(&r.queue_wait_ms));
    out.set_value(
        "serve.queue_wait_ms_p90",
        percentile(&r.queue_wait_ms, 90.0),
    );
    out.set_value("serve.lo_job_latency_ms_p50", median(&r.latency_ms[0]));
    out.set_value("serve.worlds_built", r.pool.built as f64);
    out.set_value("serve.reschedules", r.reschedules as f64);
    out.set_value(
        "shmem.pool_reuse_frac",
        r.pool.reused as f64 / r.pool.leases.max(1) as f64,
    );
    // Only a job's final slice may be partial, so the slice count follows
    // from the spec.
    let slices: usize = (0..n_jobs)
        .map(|i| steps_for(i).div_ceil(SLICE_STEPS))
        .sum();
    out.set_value("serve.slices_per_job", slices as f64 / n_jobs as f64);

    let estimator = AdmissionEstimator::new(MachineModel::dgx_h100());
    let cfg = job_config(RunMode::Threaded);
    let sys = &bases.systems[0];
    let predicts = time_reps(200, || estimator.predict(sys, GRID_2PE, cfg.r_comm(), 40));
    out.set_value("serve.predict_us", median(&predicts) * 1e6);

    // The same specs as solo `Engine::run`s: what the batch would cost with
    // no queue, no slicing and a world per segment.
    let n_bases = bases.systems.len();
    let mut solo_wall: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut solo_total = 0.0;
    for i in 0..n_jobs {
        let key = (i % n_bases, steps_for(i));
        solo_total += *solo_wall.entry(key).or_insert_with(|| {
            timed_run(&bases.systems[key.0], GRID_2PE, &cfg, key.1, None, spans)
                .expect("solo run of a job spec")
                .wall_s
        });
    }
    out.set_value("serve.slice_overhead_frac", r.makespan_s / solo_total - 1.0);
}
