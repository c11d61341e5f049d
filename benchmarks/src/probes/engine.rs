//! `halox-engine` probes: short runs of the workload's system under the
//! primary configuration and its one-lever variations, the step-phase
//! breakdown the engine already publishes in `RunStats.phases`, suspend /
//! resume / checkpoint costs, and the DLB counter ratio.

use crate::harness::{median, percentile, time_reps, Outcome};
use crate::inputs::{state_hash, timed_run, TimedRun, GRID_2PE};
use crate::span::Spans;
use crate::workloads::ProbeInputs;
use halox_dd::DdGrid;
use halox_engine::{
    Checkpoint, DlbMode, Engine, EngineConfig, ExchangeBackend, RunMode, StatsSnapshot,
};
use halox_md::{
    minimize, MinimizeOptions, ReferenceSimulation, SkewProfile, SkewedBuilder, System,
};
use halox_trace::Recorder;
use std::sync::Arc;
use std::time::Instant;

/// Segments per probe run: enough samples for a p90, short enough that
/// eight variants of the largest system stay within a few seconds.
pub fn probe_segments(atoms: usize) -> usize {
    if atoms > 5_000 {
        5
    } else if atoms > 2_500 {
        10
    } else {
        20
    }
}

/// What the attribution in [`super::attribute`] needs from this probe.
pub struct EngineProbe {
    pub step_ms_p50: f64,
    pub steps: usize,
    /// State hash of the primary run, for the procs child to match.
    pub hash: u64,
}

fn step_p50(run: &TimedRun) -> f64 {
    median(&run.warm_step_ms())
}

pub fn run(inputs: &ProbeInputs, seed: u64, spans: &mut Spans, out: &mut Outcome) -> EngineProbe {
    let (probe, _) = spans.scope("probe.engine", |spans| probe(inputs, seed, spans, out));
    probe
}

fn probe(inputs: &ProbeInputs, seed: u64, spans: &mut Spans, out: &mut Outcome) -> EngineProbe {
    let sys = &inputs.system;
    let cfg = &inputs.config;
    let steps = probe_segments(sys.n_atoms()) * cfg.nstlist;
    let mut go = |cfg: &EngineConfig, grid: [usize; 3], out: &mut Outcome| -> Option<TimedRun> {
        out.attempted += steps as u64;
        match timed_run(sys, grid, cfg, steps, None, spans) {
            Ok(run) => {
                out.failed += run.failed_steps();
                Some(run)
            }
            Err(e) => {
                out.failed += steps as u64;
                out.check(false, || format!("engine probe run failed: {e}"));
                None
            }
        }
    };
    let with = |f: &dyn Fn(&mut EngineConfig)| {
        let mut c = cfg.clone();
        f(&mut c);
        c
    };

    // Primary first (untimed warm-up segment), then the variants with the
    // primary repeated in the middle so drift shows up as a spread.
    go(cfg, GRID_2PE, out);
    let primary = go(cfg, GRID_2PE, out).expect("primary engine probe");
    let mpi = go(&with(&|c| c.backend = ExchangeBackend::Mpi), GRID_2PE, out);
    let serial = go(&with(&|c| c.run_mode = RunMode::Serial), GRID_2PE, out);
    let no_overlap = go(&with(&|c| c.nb_overlap = false), GRID_2PE, out);
    let recorder = Arc::new(Recorder::new());
    let traced = go(
        &with(&|c| c.trace = Some(Arc::clone(&recorder))),
        GRID_2PE,
        out,
    );
    let single = go(cfg, [1, 1, 1], out);
    let primary2 = go(cfg, GRID_2PE, out).expect("primary engine probe");

    let p50 = median(&[step_p50(&primary), step_p50(&primary2)]);
    out.set_value("engine.fused_step_ms_p50", p50);
    let or_nan = |r: &Option<TimedRun>| r.as_ref().map_or(f64::NAN, step_p50);
    out.set_value("engine.mpi_step_ms_p50", or_nan(&mpi));
    out.set_value("engine.serial_step_ms_p50", or_nan(&serial));
    let single_ms = or_nan(&single);
    out.set_value("engine.single_rank_step_ms", single_ms);
    out.set_value("engine.parallel_eff_pe2", single_ms / (2.0 * p50));
    out.set_value("engine.overlap_gain_frac", or_nan(&no_overlap) / p50 - 1.0);
    out.set_value("trace.recorder_overhead_frac", or_nan(&traced) / p50 - 1.0);
    out.set_value(
        "trace.events_per_step",
        recorder.drain().events.len() as f64 / steps as f64,
    );

    let hash = state_hash(&primary.system, &primary.stats.energies);
    if let Some(serial) = &serial {
        out.check(
            state_hash(&serial.system, &serial.stats.energies) == hash,
            || "engine probe: serial executor is not bitwise the threaded one".to_string(),
        );
    }

    out.set_value("engine.first_segment_ms", primary.segment_ms[0]);
    let warm: Vec<f64> = primary
        .segment_ms
        .iter()
        .skip(1)
        .chain(primary2.segment_ms.iter().skip(1))
        .copied()
        .collect();
    out.set_value("engine.segment_ms_p50", median(&warm));
    out.set_value("engine.segment_ms_p90", percentile(&warm, 90.0));
    let mut warm_steps = primary.warm_step_ms();
    warm_steps.extend(primary2.warm_step_ms());
    out.set_value("engine.step_ms_p90", percentile(&warm_steps, 90.0));

    // RunStats.phases sums over ranks; report mean per-rank ms per step.
    let stats = &primary.stats;
    let ranks = 2.0;
    let per_step =
        |phase: &str| stats.phases.total(phase).as_secs_f64() * 1e3 / (steps as f64 * ranks);
    out.set_value("engine.phase_ms_per_step.nb_local", per_step("nb_local"));
    out.set_value("engine.phase_ms_per_step.nb_halo", per_step("nb_halo"));
    out.set_value("engine.phase_ms_per_step.pairlist", per_step("pairlist"));
    out.set_value("engine.phase_ms_per_step.pack", per_step("pack"));
    out.set_value(
        "engine.phase_ms_per_step.pack_overlap",
        per_step("pack_overlap"),
    );
    let timed: f64 = stats.phases.iter().map(|(_, d, _)| d.as_secs_f64()).sum();
    out.set_value(
        "engine.untimed_frac",
        1.0 - timed / (ranks * primary.wall_s),
    );
    out.set_value("engine.retries", stats.retries as f64);
    out.set_value("engine.degraded_steps", stats.degraded_steps as f64);
    out.set_value("engine.critical_load", stats.critical_load as f64);
    out.set_value("engine.load_ratio", stats.load_ratio().unwrap_or(f64::NAN));

    spans.scope("engine.slice_cycle", |spans| {
        suspend_resume(sys, cfg, spans, out)
    });
    spans.scope("engine.dlb", |spans| dlb_ratio(seed, spans, out));

    EngineProbe {
        step_ms_p50: p50,
        steps,
        hash,
    }
}

/// The service's slice cycle on one engine: resume from an in-memory
/// checkpoint, run one slice, suspend; then the same state through the
/// durable `.hxck` file format.
fn suspend_resume(sys: &System, cfg: &EngineConfig, spans: &mut Spans, out: &mut Outcome) {
    let template = Engine::new(sys.clone(), DdGrid::new(GRID_2PE), cfg.clone());
    let baseline = Checkpoint {
        fingerprint: template.fingerprint(),
        step: 0,
        bounds: template.bounds().clone(),
        system: template.system,
        energies: Vec::new(),
        stats: StatsSnapshot::default(),
    };
    let (mut resumes, mut suspends) = (Vec::new(), Vec::new());
    let mut frontier = None;
    for _ in 0..10 {
        let ck = baseline.clone();
        let t = Instant::now();
        let mut engine = Engine::resume_from_checkpoint(ck, cfg.clone()).expect("resume");
        resumes.push(t.elapsed().as_secs_f64());
        engine.try_run(cfg.nstlist).expect("one slice");
        let t = Instant::now();
        let ck = engine.suspend().expect("a frontier after one slice");
        let end = Instant::now();
        suspends.push((end - t).as_secs_f64());
        spans.leaf_at("engine.suspend", t, end);
        frontier = Some(ck);
    }
    out.set_value("engine.resume_us", median(&resumes) * 1e6);
    out.set_value("engine.suspend_us", median(&suspends) * 1e6);

    let ck = frontier.expect("ten slices ran");
    out.set_value("engine.ckpt_bytes", ck.file_bytes().len() as f64);
    let dir = crate::harness::out_dir().join(format!("ckpt-probe-{}", std::process::id()));
    let writes = time_reps(5, || ck.write_atomic(&dir).expect("checkpoint write"));
    out.set_value("engine.ckpt_write_ms", median(&writes) * 1e3);
    let path = dir.join(Checkpoint::file_name(ck.step));
    let reads = time_reps(5, || Checkpoint::read(&path).expect("checkpoint read"));
    out.set_value("engine.ckpt_read_ms", median(&reads) * 1e3);
    out.check(Checkpoint::read(&path).ok().as_ref() == Some(&ck), || {
        "checkpoint does not read back equal".to_string()
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Critical-path load (Σ per-segment max rank load, deterministic work
/// units) with the counter DLB over the static decomposition, on a skewed
/// interface system. Serial executor: the counts are executor-invariant and
/// four ranks would oversubscribe two cores.
fn dlb_ratio(seed: u64, spans: &mut Spans, out: &mut Outcome) {
    const ATOMS: usize = 6_000;
    const GRID: [usize; 3] = [4, 1, 1];
    const WARM: usize = 20;
    const MEASURE: usize = 20;
    /// Relaxed systems peak around 3e4 kJ/mol/nm; an overlap is >1e20.
    const MAX_RELAXED_FORCE: f32 = 1e6;
    // The skewed builder can place two atoms (almost) on top of each other;
    // the force between them is then astronomically large, no minimiser recovers it and
    // the run blows up. Step the seed until every relaxed force is sane.
    let sys = (0..8).find_map(|k| {
        let (mut sys, _) = spans.scope("md.system_build", |_| {
            SkewedBuilder::new(ATOMS, SkewProfile::Interface)
                .seed(seed + 1_000 * k)
                .temperature(240.0)
                .build()
        });
        spans.scope("md.minimize", |_| {
            minimize::steepest_descent(&mut sys, MinimizeOptions::default())
        });
        let mut reference = ReferenceSimulation::new(sys.clone(), 0.7, 0.1);
        reference.compute_forces();
        let sane = |c: f32| c.abs() < MAX_RELAXED_FORCE;
        reference
            .forces
            .iter()
            .all(|f| sane(f.x) && sane(f.y) && sane(f.z))
            .then_some(sys)
    });
    let Some(sys) = sys else {
        out.check(false, || {
            "DLB probe: no finite skewed system in 8 seeds".to_string()
        });
        return;
    };
    let critical = |dlb: DlbMode| -> Option<u64> {
        let mut cfg = crate::inputs::engine_config(ExchangeBackend::NvshmemFused, 5, None);
        cfg.run_mode = RunMode::Serial;
        cfg.dlb = dlb;
        let mut engine = Engine::new(sys.clone(), DdGrid::new(GRID), cfg);
        engine.try_run(WARM).ok()?;
        engine.try_run(MEASURE).ok().map(|s| s.critical_load)
    };
    match (critical(DlbMode::Off), critical(DlbMode::Counter)) {
        (Some(off), Some(counter)) if off > 0 => {
            out.set_value(
                "engine.dlb_critical_load_ratio",
                counter as f64 / off as f64,
            );
        }
        _ => out.check(false, || "DLB probe run failed".to_string()),
    }
}
