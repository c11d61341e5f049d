//! Workload inputs: seeded systems, fully pinned engine configurations, and
//! the trajectory fingerprints the correctness checks compare.

use crate::span::Spans;
use halox_dd::DdGrid;
use halox_engine::{
    DlbMode, Engine, EngineConfig, EngineError, ExchangeBackend, NbKernel, RunMode, RunStats,
    Thermostat, WorldBackend,
};
use halox_md::{minimize, EnergyReport, GrappaBuilder, MinimizeOptions, System, Vec3};
use std::time::Instant;

/// Halo distance of every configuration here (cutoff 0.7 + buffer 0.1 nm).
pub const R_COMM: f32 = 0.8;
pub const GRID_2PE: [usize; 3] = [2, 1, 1];

/// A relaxed grappa system. Unminimised systems blow up, so every input is
/// built and then relaxed by steepest descent; both halves are spans.
pub fn relaxed_system(atoms: usize, seed: u64, temperature: f32, spans: &mut Spans) -> System {
    let (mut sys, _) = spans.scope("md.system_build", |_| {
        GrappaBuilder::new(atoms)
            .seed(seed)
            .temperature(temperature)
            .build()
    });
    spans.scope("md.minimize", |_| {
        minimize::steepest_descent(&mut sys, MinimizeOptions::default())
    });
    sys
}

/// An engine configuration with every lever set explicitly, so no
/// environment default can change what a workload measures.
pub fn engine_config(
    backend: ExchangeBackend,
    nstlist: usize,
    thermostat_k: Option<f64>,
) -> EngineConfig {
    let mut cfg = EngineConfig::new(backend);
    cfg.run_mode = RunMode::Threaded;
    cfg.nb_kernel = NbKernel::Cluster;
    cfg.dlb = DlbMode::Off;
    cfg.world_backend = WorldBackend::Threads;
    cfg.checkpoint = None;
    cfg.nstlist = nstlist;
    cfg.nb_overlap = true;
    cfg.link_delay_us = 0;
    cfg.topology_gpus_per_node = None;
    cfg.trace = None;
    cfg.chaos = None;
    cfg.thermostat = thermostat_k.map(|t_ref| Thermostat { t_ref, tau_ps: 0.5 });
    cfg
}

/// One engine run with its per-segment timing from observer timestamps.
pub struct TimedRun {
    pub system: System,
    pub stats: RunStats,
    /// Wall of `run_with_observer`, seconds.
    pub wall_s: f64,
    /// Wall of each neighbour-search segment, ms, in run order.
    pub segment_ms: Vec<f64>,
    /// Steps in each segment (the last may be partial).
    pub segment_steps: Vec<usize>,
    /// Positions at the `snapshot_at` step boundary, if requested.
    pub snapshot: Option<Vec<Vec3>>,
}

impl TimedRun {
    /// Per-step times (segment wall / steps in it) of every segment after
    /// the first, which pays first-touch and buffer allocation.
    pub fn warm_step_ms(&self) -> Vec<f64> {
        self.segment_ms
            .iter()
            .zip(&self.segment_steps)
            .skip(1)
            .map(|(ms, &n)| ms / n as f64)
            .collect()
    }

    /// Steps that ran degraded or were rewound — the engine's failed work.
    pub fn failed_steps(&self) -> u64 {
        (self.stats.degraded_steps + self.stats.rewound_steps) as u64
    }
}

/// Run `steps` on a fresh engine over `system`, timing every segment from
/// the observer callback. Each segment becomes an `engine.segment` span
/// under an `engine.run` span.
pub fn timed_run(
    system: &System,
    grid: [usize; 3],
    cfg: &EngineConfig,
    steps: usize,
    snapshot_at: Option<usize>,
    spans: &mut Spans,
) -> Result<TimedRun, EngineError> {
    let mut engine = Engine::new(system.clone(), DdGrid::new(grid), cfg.clone());
    let mut stamps: Vec<(usize, Instant)> = Vec::with_capacity(steps / cfg.nstlist.max(1) + 2);
    let mut snapshot = None;
    let (result, wall_s) = spans.scope("engine.run", |spans| {
        stamps.push((0, Instant::now()));
        let result = engine.try_run_with_observer(steps, |done, sys| {
            stamps.push((done, Instant::now()));
            if snapshot_at == Some(done) {
                snapshot = Some(sys.positions.clone());
            }
        });
        for w in stamps.windows(2) {
            spans.leaf_at("engine.segment", w[0].1, w[1].1);
        }
        result
    });
    let stats = result?;
    let segment_ms = stamps
        .windows(2)
        .map(|w| (w[1].1 - w[0].1).as_secs_f64() * 1e3)
        .collect();
    let segment_steps = stamps.windows(2).map(|w| w[1].0 - w[0].0).collect();
    Ok(TimedRun {
        system: engine.system,
        stats,
        wall_s,
        segment_ms,
        segment_steps,
        snapshot,
    })
}

fn mix(h: u64, bits: u64) -> u64 {
    // FNV-1a over 64-bit words.
    (h ^ bits).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Fingerprint of a trajectory end state: every position and velocity
/// component and every energy term of every step, bit for bit.
pub fn state_hash(system: &System, energies: &[EnergyReport]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in system.positions.iter().chain(&system.velocities) {
        for c in [v.x, v.y, v.z] {
            h = mix(h, u64::from(c.to_bits()));
        }
    }
    for e in energies {
        for t in [e.nonbonded, e.bonds, e.angles, e.kinetic, e.virial] {
            h = mix(h, t.to_bits());
        }
    }
    h
}

/// Largest displacement between two position sets (nm), minimum image.
pub fn max_displacement(system: &System, a: &[Vec3], b: &[Vec3]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(p, q)| system.pbc.min_image(*p, *q).norm())
        .fold(0.0, f32::max)
}

/// Energies stay finite and within a bounded excursion of the first step.
pub fn energies_bounded(energies: &[EnergyReport]) -> bool {
    let Some(first) = energies.first().map(EnergyReport::total) else {
        return false;
    };
    let scale = first.abs().max(1.0);
    energies
        .iter()
        .all(|e| e.total().is_finite() && (e.total() - first).abs() <= 0.5 * scale)
}
