//! `halox-bench backends` — threads vs procs world-backend sweep.
//!
//! Measures the put-with-signal round-trip of the two PGAS world backends
//! (in-process threads vs forked processes, DESIGN.md §3.5) on both
//! delivery paths — direct NVLink-style
//! stores and proxied "IB" puts through the per-PE proxy (threads) or
//! Unix-socket engine (procs) — across message sizes, and writes the
//! table to `results/backends.json`. An engine-level row compares full
//! trajectory throughput of the two backends and checks the trajectories
//! agree bitwise: the process boundary may cost latency, never physics.

use halox_dd::DdGrid;
use halox_engine::{Engine, EngineConfig, ExchangeBackend, RunMode, RunStats, WorldBackend};
use halox_md::{minimize, GrappaBuilder, MinimizeOptions, System, Vec3};
use halox_shmem::{ShmemWorld, SymVec3, Topology};
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// One (fabric × message size) cell, with per-backend round-trip latency.
#[derive(Debug, Clone, Serialize)]
pub struct BackendRow {
    /// `direct` (all-NVLink store path) or `proxied` (IB-proxy path).
    pub fabric: String,
    /// Payload of each put, in `Vec3`s (12 bytes each).
    pub vec3s: usize,
    pub iters: usize,
    /// Mean put+signal+wait round-trip, threads backend (µs).
    pub threads_rtt_us: f64,
    /// Mean put+signal+wait round-trip, procs backend (µs).
    pub procs_rtt_us: f64,
    /// Procs-over-threads latency ratio (>1 = process boundary costs).
    pub procs_over_threads: f64,
}

/// Engine-level comparison: same trajectory, both backends.
#[derive(Debug, Clone, Serialize)]
pub struct EngineRow {
    pub backend: String,
    pub npes: usize,
    pub atoms: usize,
    pub steps: usize,
    pub threads_steps_per_sec: f64,
    pub procs_steps_per_sec: f64,
    /// Threads and procs trajectories agree to the last bit.
    pub bitwise_identical: bool,
}

/// Top-level report written to `results/backends.json`.
#[derive(Debug, Clone, Serialize)]
pub struct BackendsReport {
    pub host_threads: usize,
    pub rows: Vec<BackendRow>,
    pub engine: EngineRow,
    pub all_bitwise_identical: bool,
}

const ITERS: usize = 200;
const SIZES: [usize; 3] = [8, 512, 4096];

/// Ping-pong `iters` put-with-signal round trips between PE 0 and PE 1 on
/// the given backend and fabric; returns the mean round trip in µs,
/// measured inside PE 0 (under procs that is the child process — the
/// elapsed time crosses back over the result socket).
fn ping_pong(backend: WorldBackend, topology: Topology, vec3s: usize, iters: usize) -> f64 {
    let w = ShmemWorld::new_with_backend(backend, topology, 1);
    let buf = SymVec3::alloc(2, vec3s);
    let b = &buf;
    let out = w.run(|pe| {
        let payload = vec![Vec3::splat(pe.id as f32 + 1.0); vec3s];
        let peer = 1 - pe.id;
        let t0 = Instant::now();
        for i in 0..iters as u64 {
            if pe.id == 0 {
                pe.put_vec3_signal_nbi(b, peer, 0, &payload, 0, i + 1);
                pe.quiet();
                pe.wait_signal(0, i + 1);
            } else {
                pe.wait_signal(0, i + 1);
                pe.put_vec3_signal_nbi(b, peer, 0, &payload, 0, i + 1);
                pe.quiet();
            }
        }
        t0.elapsed().as_secs_f64()
    });
    out[0] / iters as f64 * 1e6
}

fn base_system() -> System {
    let mut sys = GrappaBuilder::new(3_000)
        .seed(61)
        .temperature(220.0)
        .build();
    minimize::steepest_descent(&mut sys, MinimizeOptions::default());
    sys
}

fn run_engine(sys: &System, world: WorldBackend, steps: usize) -> (System, RunStats) {
    let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
    cfg.nstlist = 10;
    cfg.run_mode = RunMode::Threaded;
    cfg.world_backend = world;
    cfg.topology_gpus_per_node = Some(2);
    let mut engine = Engine::new(sys.clone(), DdGrid::new([2, 2, 1]), cfg);
    let stats = engine.run(steps);
    (engine.system, stats)
}

fn bitwise_equal(a: &System, b: &System, ea: &RunStats, eb: &RunStats) -> bool {
    let v3 = |p: &Vec3, q: &Vec3| {
        p.x.to_bits() == q.x.to_bits()
            && p.y.to_bits() == q.y.to_bits()
            && p.z.to_bits() == q.z.to_bits()
    };
    a.positions.iter().zip(&b.positions).all(|(p, q)| v3(p, q))
        && a.velocities
            .iter()
            .zip(&b.velocities)
            .all(|(p, q)| v3(p, q))
        && ea.energies.len() == eb.energies.len()
        && ea
            .energies
            .iter()
            .zip(&eb.energies)
            .all(|(x, y)| x.total().to_bits() == y.total().to_bits())
}

/// The sweep itself, reusable from tests.
pub fn sweep() -> BackendsReport {
    let fabrics = [
        ("direct", Topology::all_nvlink(2)),
        ("proxied", Topology::islands(2, 1)),
    ];
    let mut rows = Vec::new();
    for (fabric, topo) in &fabrics {
        for &vec3s in &SIZES {
            let threads = ping_pong(WorldBackend::Threads, *topo, vec3s, ITERS);
            let procs = ping_pong(WorldBackend::Procs, *topo, vec3s, ITERS);
            rows.push(BackendRow {
                fabric: fabric.to_string(),
                vec3s,
                iters: ITERS,
                threads_rtt_us: threads,
                procs_rtt_us: procs,
                procs_over_threads: if threads > 0.0 { procs / threads } else { 0.0 },
            });
        }
    }

    let steps = 20;
    let sys = base_system();
    let (t_sys, t_stats) = run_engine(&sys, WorldBackend::Threads, steps);
    let (p_sys, p_stats) = run_engine(&sys, WorldBackend::Procs, steps);
    let sps = |st: &RunStats| {
        if st.wall_seconds > 0.0 {
            st.steps as f64 / st.wall_seconds
        } else {
            0.0
        }
    };
    let engine = EngineRow {
        backend: ExchangeBackend::NvshmemFused.label().to_string(),
        npes: 4,
        atoms: sys.n_atoms(),
        steps,
        threads_steps_per_sec: sps(&t_stats),
        procs_steps_per_sec: sps(&p_stats),
        bitwise_identical: bitwise_equal(&t_sys, &p_sys, &t_stats, &p_stats),
    };
    let all_bitwise_identical = engine.bitwise_identical;
    BackendsReport {
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows,
        engine,
        all_bitwise_identical,
    }
}

pub fn print_table(report: &BackendsReport) {
    println!(
        "\n== backends sweep: put+signal round trip, {ITERS} iters, host_threads {} ==",
        report.host_threads
    );
    println!(
        "{:<10} {:>7} {:>14} {:>12} {:>8}",
        "fabric", "vec3s", "threads_us", "procs_us", "ratio"
    );
    for r in &report.rows {
        println!(
            "{:<10} {:>7} {:>14.2} {:>12.2} {:>7.2}x",
            r.fabric, r.vec3s, r.threads_rtt_us, r.procs_rtt_us, r.procs_over_threads
        );
    }
    let e = &report.engine;
    println!(
        "engine ({} {} PEs, {} atoms, {} steps): threads {:.2} sps, procs {:.2} sps, bitwise {}",
        e.backend,
        e.npes,
        e.atoms,
        e.steps,
        e.threads_steps_per_sec,
        e.procs_steps_per_sec,
        e.bitwise_identical
    );
}

/// The `backends` subcommand: sweep, print, persist; exit non-zero if the
/// two backends' engine trajectories disagree in even one bit.
pub fn run(results: &Path) {
    let report = sweep();
    print_table(&report);
    std::fs::create_dir_all(results).expect("create results dir");
    let path = results.join("backends.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize backends report");
    std::fs::write(&path, json).expect("write backends.json");
    println!("wrote {}", path.display());
    if !report.all_bitwise_identical {
        eprintln!("threads and procs backends disagree — determinism bug");
        std::process::exit(1);
    }
}
