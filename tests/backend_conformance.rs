//! Backend conformance suite (DESIGN.md §3.5): the cross-process `procs`
//! world — forked PEs with socket proxies, over the same fork-shared
//! symmetric mappings — must be observationally equivalent to the
//! in-process `threads` world.
//! Every suite here runs the same scenario on both backends and compares
//! outcomes bitwise: the signal protocol (direct stores and proxied puts),
//! the deterministic collectives, world reset/reuse, and full engine
//! trajectories, which must be identical across serial ≡ threaded ≡ procs
//! on every transport at 2 and 4 PEs. Fault paths conform too: a chaos
//! plan (seed via `HALOX_CHAOS_SEED`, as in the chaos suite) must end in
//! an accounted outcome under `procs`, and a PE process that dies mid-run
//! must drain to a `PeFailure::Died` report — never a hang — with the
//! next world (the engine's fresh segment fork) unaffected.
//!
//! Backend selection is programmatic (`ShmemWorld::new_with_backend`,
//! `EngineConfig::world_backend`) rather than via `HALOX_BACKEND` only
//! because this binary runs both backends side by side and one env value
//! cannot say "both"; nothing about the symmetric heap forces it any more
//! (it is the same owned mapping under either backend).

use halox::dd::{build_partition, DdGrid};
use halox::engine::{
    Checkpoint, CheckpointConfig, CheckpointError, DlbMode, Engine, EngineConfig, EngineError,
    ExchangeBackend, PeerState, RunMode, RunStats, Thermostat, WorldBackend,
};
use halox::md::minimize::{steepest_descent, MinimizeOptions};
use halox::md::{GrappaBuilder, System, Vec3};
use halox::shmem::{
    shared, ChaosEngine, ChaosReport, FaultKind, FaultOp, FaultPlan, FaultRule, PeFailure,
    ShmemWorld, SymVec3, Topology,
};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const BACKENDS: [WorldBackend; 2] = [WorldBackend::Threads, WorldBackend::Procs];
const DEADLINE: Duration = Duration::from_millis(200);
const NSTLIST: usize = 5;
const STALL: Duration = Duration::from_millis(400);

/// One relaxed system shared by every engine case in this binary —
/// minimisation dominates test wall-clock and the cases only need a
/// common, reproducible starting point.
fn relaxed_system() -> &'static System {
    static SYS: OnceLock<System> = OnceLock::new();
    SYS.get_or_init(|| {
        let mut sys = GrappaBuilder::new(3000).seed(11).temperature(210.0).build();
        steepest_descent(&mut sys, MinimizeOptions::default());
        sys
    })
}

// ---------------------------------------------------------------------------
// World-level conformance: signal protocol, collectives, reset/reuse.
// ---------------------------------------------------------------------------

/// Neighbour-ring put-with-signal on a mixed fabric: islands(4, 2) makes
/// half the edges direct NVLink stores and half proxied "IB" puts, so one
/// scenario covers both delivery paths of each backend.
fn signal_ring(backend: WorldBackend) -> Vec<(f32, f32, f32)> {
    let n = 4;
    let w = ShmemWorld::new_with_backend(backend, Topology::islands(n, 2), 1);
    let buf = SymVec3::alloc(n, 2);
    let b = &buf;
    w.run(|pe| {
        let dst = (pe.id + 1) % pe.npes();
        let payload = [Vec3::new(pe.id as f32, 2.5 * pe.id as f32, -1.0)];
        pe.put_vec3_signal_nbi(b, dst, 0, &payload, 0, pe.id as u64 + 1);
        pe.quiet();
        let left = (pe.id + pe.npes() - 1) % pe.npes();
        pe.wait_signal(0, left as u64 + 1);
        // The doorbell is level-satisfied after the wait.
        assert!(pe.try_signal(0, left as u64 + 1));
        let mut got = [Vec3::ZERO; 1];
        pe.get_vec3(b, pe.id, 0, &mut got);
        (got[0].x, got[0].y, got[0].z)
    })
}

#[test]
fn signal_protocol_conforms_across_backends() {
    let threads = signal_ring(WorldBackend::Threads);
    let procs = signal_ring(WorldBackend::Procs);
    assert_eq!(threads, procs);
    for (pe, &(x, y, z)) in threads.iter().enumerate() {
        let left = (pe + 3) % 4;
        assert_eq!((x, y, z), (left as f32, 2.5 * left as f32, -1.0));
    }
}

/// An order-sensitive f64 reduction: the contributions are scaled so a
/// different summation order changes the low bits. Both backends must
/// produce the one canonical (tree-ordered) result, run after run.
fn collective_round(backend: WorldBackend) -> Vec<u64> {
    let w = ShmemWorld::new_with_backend(backend, Topology::all_nvlink(4), 1);
    w.run(|pe| {
        let v = (pe.id as f64 + 1.0) * 1e-3 + 1e10 * ((pe.id % 2) as f64);
        pe.allreduce_sum(v).to_bits()
    })
}

#[test]
fn collectives_are_bitwise_deterministic_across_backends() {
    let reference = collective_round(WorldBackend::Threads);
    for backend in BACKENDS {
        for round in 0..3 {
            assert_eq!(
                collective_round(backend),
                reference,
                "{} round {round} diverged",
                backend.label()
            );
        }
    }
}

#[test]
fn world_reset_and_reuse_conforms() {
    for backend in BACKENDS {
        let w = ShmemWorld::new_with_backend(backend, Topology::all_nvlink(2), 1);
        let buf = SymVec3::alloc(2, 1);
        let b = &buf;
        for round in 0u64..2 {
            let out = w.run(|pe| {
                if pe.id == 0 {
                    pe.put_vec3_signal_nbi(b, 1, 0, &[Vec3::splat(round as f32 + 1.0)], 0, 1);
                    pe.quiet();
                    0.0
                } else {
                    pe.wait_signal(0, 1);
                    b.get(1, 0).x
                }
            });
            assert_eq!(
                out,
                vec![0.0, round as f32 + 1.0],
                "{} round {round}",
                backend.label()
            );
            // Reset is what makes the monotone slot reusable: without it
            // the next round's wait on value 1 would be pre-satisfied.
            w.reset_signals();
        }
    }
}

// ---------------------------------------------------------------------------
// Engine-level conformance: serial ≡ threaded ≡ procs, bitwise.
// ---------------------------------------------------------------------------

fn engine_config(backend: ExchangeBackend, gpus_per_node: Option<usize>) -> EngineConfig {
    let mut cfg = EngineConfig::new(backend);
    cfg.nstlist = NSTLIST;
    cfg.topology_gpus_per_node = gpus_per_node;
    cfg.watchdog.deadline = Duration::from_secs(5);
    // Thermostat on: every step runs the global kinetic-energy allreduce,
    // the one place a schedule- or backend-dependent reduction order would
    // break bitwise identity.
    cfg.thermostat = Some(Thermostat {
        t_ref: 210.0,
        tau_ps: 0.5,
    });
    cfg
}

fn run_engine(
    grid: [usize; 3],
    mut cfg: EngineConfig,
    mode: RunMode,
    world: WorldBackend,
) -> (System, RunStats) {
    cfg.run_mode = mode;
    cfg.world_backend = world;
    let mut engine = Engine::new(relaxed_system().clone(), DdGrid::new(grid), cfg);
    let stats = engine.run(10);
    (engine.system, stats)
}

fn assert_bitwise(label: &str, a: &(System, RunStats), b: &(System, RunStats)) {
    let bit3 = |p: &Vec3, q: &Vec3| {
        p.x.to_bits() == q.x.to_bits()
            && p.y.to_bits() == q.y.to_bits()
            && p.z.to_bits() == q.z.to_bits()
    };
    for (i, (p, q)) in a.0.positions.iter().zip(&b.0.positions).enumerate() {
        assert!(bit3(p, q), "{label}: position {i} differs: {p:?} vs {q:?}");
    }
    for (i, (p, q)) in a.0.velocities.iter().zip(&b.0.velocities).enumerate() {
        assert!(bit3(p, q), "{label}: velocity {i} differs: {p:?} vs {q:?}");
    }
    assert_eq!(a.1.steps, b.1.steps, "{label}: step count");
    halox::md::assert_energies_bitwise(label, &a.1.energies, &b.1.energies);
}

/// The acceptance matrix: every transport × {2, 4} PEs, three executors,
/// one trajectory. The serial driver is ground truth; threaded and procs
/// must match it to the last bit (same physics, same reduction trees —
/// only the PE substrate differs).
#[test]
fn trajectories_bitwise_serial_threaded_procs() {
    let cases: [(ExchangeBackend, Option<usize>, [usize; 3]); 6] = [
        (ExchangeBackend::NvshmemFused, Some(1), [2, 1, 1]),
        (ExchangeBackend::NvshmemFused, Some(2), [2, 2, 1]),
        (ExchangeBackend::Mpi, Some(1), [2, 1, 1]),
        (ExchangeBackend::Mpi, Some(2), [2, 2, 1]),
        // ThreadMpi needs one NVLink island (event-driven direct copies).
        (ExchangeBackend::ThreadMpi, None, [2, 1, 1]),
        (ExchangeBackend::ThreadMpi, None, [2, 2, 1]),
    ];
    for (backend, gpus, grid) in cases {
        let label = format!("{} {grid:?}", backend.label());
        let cfg = engine_config(backend, gpus);
        let serial = run_engine(grid, cfg.clone(), RunMode::Serial, WorldBackend::Threads);
        let threaded = run_engine(grid, cfg.clone(), RunMode::Threaded, WorldBackend::Threads);
        let procs = run_engine(grid, cfg, RunMode::Threaded, WorldBackend::Procs);
        assert_bitwise(&format!("{label}: serial vs threaded"), &serial, &threaded);
        assert_bitwise(&format!("{label}: threaded vs procs"), &threaded, &procs);
    }
}

/// Dynamic load balancing in counter mode moves cell boundaries from a
/// deterministic work metric (pairs evaluated + owned atoms), so the
/// boundary trajectory — and with it the whole MD trajectory — must stay
/// bitwise identical across all three executors. The thermostat stays on:
/// shifted slabs change per-rank atom counts, and the kinetic-energy
/// allreduce must still produce the one canonical tree-ordered sum.
#[test]
fn dlb_counter_trajectories_bitwise_serial_threaded_procs() {
    let cases: [(ExchangeBackend, Option<usize>, [usize; 3]); 2] = [
        (ExchangeBackend::NvshmemFused, Some(1), [4, 1, 1]),
        (ExchangeBackend::Mpi, Some(2), [2, 2, 1]),
    ];
    for (backend, gpus, grid) in cases {
        let label = format!("dlb {} {grid:?}", backend.label());
        let mut cfg = engine_config(backend, gpus);
        cfg.dlb = DlbMode::Counter;
        let serial = run_engine(grid, cfg.clone(), RunMode::Serial, WorldBackend::Threads);
        let threaded = run_engine(grid, cfg.clone(), RunMode::Threaded, WorldBackend::Threads);
        let procs = run_engine(grid, cfg, RunMode::Threaded, WorldBackend::Procs);
        // The controller really ran (one update per gathered segment) and
        // the deterministic load metric agrees to the last integer.
        assert_eq!(serial.1.dlb_updates, 2, "{label}: updates");
        assert_eq!(serial.1.dlb_updates, threaded.1.dlb_updates, "{label}");
        assert_eq!(serial.1.rank_loads, threaded.1.rank_loads, "{label}: loads");
        assert_eq!(serial.1.rank_loads, procs.1.rank_loads, "{label}: loads");
        assert_bitwise(&format!("{label}: serial vs threaded"), &serial, &threaded);
        assert_bitwise(&format!("{label}: threaded vs procs"), &threaded, &procs);
    }
}

/// Multi-pulse forwarding conformance: a communication radius larger than
/// one cell makes every x pulse a two-hop chain (halo atoms forwarded
/// through the intermediate rank), and the executors must still agree
/// bitwise. The second case layers DLB counter mode on top — the pulse
/// count is pinned at the start-of-run geometry, so boundary moves change
/// slab widths but never the signal-slot layout.
#[test]
fn multipulse_trajectories_bitwise_serial_threaded_procs() {
    let grid = [4, 1, 1];
    for dlb in [DlbMode::Off, DlbMode::Counter] {
        let mut cfg = engine_config(ExchangeBackend::NvshmemFused, Some(1));
        cfg.cutoff = 1.0;
        cfg.buffer = 0.2;
        cfg.dlb = dlb;
        // The scenario really is multi-pulse: r_comm exceeds one uniform
        // cell, so the x dimension needs two pulses.
        let part = build_partition(relaxed_system(), &DdGrid::new(grid), cfg.r_comm());
        assert_eq!(part.total_pulses(), 2, "expected a 2-pulse x chain");
        let label = format!("multipulse dlb={}", dlb.label());
        let serial = run_engine(grid, cfg.clone(), RunMode::Serial, WorldBackend::Threads);
        let threaded = run_engine(grid, cfg.clone(), RunMode::Threaded, WorldBackend::Threads);
        let procs = run_engine(grid, cfg, RunMode::Threaded, WorldBackend::Procs);
        assert_bitwise(&format!("{label}: serial vs threaded"), &serial, &threaded);
        assert_bitwise(&format!("{label}: threaded vs procs"), &threaded, &procs);
    }
}

// ---------------------------------------------------------------------------
// Checkpoint/restart conformance: kill-at-k ≡ uninterrupted, bitwise.
// ---------------------------------------------------------------------------

fn ckpt_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("halox-conf-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Checkpoint at step 5, "kill" the process (drop the engine), resume from
/// the newest file under a possibly different executor, finish to step 10.
fn run_interrupted(
    grid: [usize; 3],
    mut cfg: EngineConfig,
    first: (RunMode, WorldBackend),
    second: (RunMode, WorldBackend),
    dir: &PathBuf,
) -> (System, RunStats) {
    cfg.checkpoint = Some(CheckpointConfig::in_dir(dir));
    cfg.run_mode = first.0;
    cfg.world_backend = first.1;
    let mut engine = Engine::new(relaxed_system().clone(), DdGrid::new(grid), cfg.clone());
    let stats = engine.run(5);
    assert_eq!(stats.steps, 5);
    drop(engine); // the kill: only the checkpoint files survive

    cfg.run_mode = second.0;
    cfg.world_backend = second.1;
    let mut resumed = Engine::resume_latest(dir, cfg).expect("resume from newest checkpoint");
    assert_eq!(resumed.resumed(), Some((5, 0)));
    let stats = resumed.run(5);
    assert_eq!(stats.steps, 10, "stats must span the whole trajectory");
    (resumed.system, stats)
}

/// The bitwise-resume contract of DESIGN.md §3.6 across the executor
/// matrix: checkpoint at step k + kill + resume equals the uninterrupted
/// run to the last bit — positions, velocities, every per-step energy.
/// Resume deliberately crosses executors (threads-written checkpoints
/// resumed under procs and serial, and vice versa): the execution substrate
/// is excluded from the config fingerprint precisely because the
/// trajectory is substrate-invariant.
#[test]
fn checkpoint_kill_resume_bitwise_across_executors() {
    type Exec = (RunMode, WorldBackend);
    const SERIAL: Exec = (RunMode::Serial, WorldBackend::Threads);
    const THREADS: Exec = (RunMode::Threaded, WorldBackend::Threads);
    const PROCS: Exec = (RunMode::Threaded, WorldBackend::Procs);
    let cases: [(ExchangeBackend, Exec, Exec, &str); 6] = [
        (
            ExchangeBackend::NvshmemFused,
            SERIAL,
            SERIAL,
            "serial-serial",
        ),
        (
            ExchangeBackend::NvshmemFused,
            THREADS,
            THREADS,
            "threads-threads",
        ),
        (ExchangeBackend::NvshmemFused, PROCS, PROCS, "procs-procs"),
        (
            ExchangeBackend::NvshmemFused,
            THREADS,
            PROCS,
            "threads-procs",
        ),
        (ExchangeBackend::Mpi, PROCS, SERIAL, "procs-serial"),
        (ExchangeBackend::Mpi, THREADS, THREADS, "threads-threads"),
    ];
    for (backend, first, second, label) in cases {
        let label = format!("{} {label}", backend.label());
        let cfg = engine_config(backend, Some(2));
        let reference = run_engine(
            [2, 2, 1],
            cfg.clone(),
            RunMode::Threaded,
            WorldBackend::Threads,
        );
        let dir = ckpt_dir(&format!("kill-{}", label.replace(' ', "-")));
        let interrupted = run_interrupted([2, 2, 1], cfg, first, second, &dir);
        assert_bitwise(
            &format!("{label}: kill+resume vs uninterrupted"),
            &interrupted,
            &reference,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Checkpoint/resume mid-DLB-run: boundaries shifted by the controller are
/// trajectory state, carried in the checkpoint body (format v2). A kill
/// after the first segment — when the bounds have already moved off
/// uniform — must resume under a different executor and still match the
/// uninterrupted DLB run to the last bit.
#[test]
fn dlb_shifted_bounds_kill_resume_bitwise() {
    let grid = [4, 1, 1];
    let mut cfg = engine_config(ExchangeBackend::NvshmemFused, Some(1));
    cfg.dlb = DlbMode::Counter;
    let reference = run_engine(grid, cfg.clone(), RunMode::Threaded, WorldBackend::Threads);
    assert!(reference.1.dlb_updates >= 1, "controller must have run");

    let dir = ckpt_dir("dlb-resume");
    cfg.checkpoint = Some(CheckpointConfig::in_dir(&dir));
    cfg.run_mode = RunMode::Threaded;
    cfg.world_backend = WorldBackend::Threads;
    let mut engine = Engine::new(relaxed_system().clone(), DdGrid::new(grid), cfg.clone());
    let stats = engine.run(5);
    assert_eq!(stats.steps, 5);
    assert!(
        !engine.bounds().is_uniform(),
        "one segment of skew must shift boundaries"
    );
    drop(engine); // the kill: only the checkpoint files survive

    // Resume under the cross-process executor: the step-5 checkpoint body
    // must hand the resumed engine the shifted boundaries, or its second
    // segment would repartition on uniform cells and diverge.
    cfg.world_backend = WorldBackend::Procs;
    let mut resumed = Engine::resume_latest(&dir, cfg).expect("resume from newest checkpoint");
    assert_eq!(resumed.resumed(), Some((5, 0)));
    assert!(
        !resumed.bounds().is_uniform(),
        "resume must restore the shifted boundaries"
    );
    let stats = resumed.run(5);
    assert_eq!(stats.steps, 10);
    assert_bitwise(
        "dlb kill+resume vs uninterrupted",
        &(resumed.system, stats),
        &reference,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupt-checkpoint tolerance: a bit-flipped newest file (plus a garbage
/// impostor) must fall back to the previous checkpoint with a warning
/// counter — never a panic — and the resumed trajectory still matches the
/// uninterrupted run bitwise from the older rewind point.
#[test]
fn corrupt_checkpoint_falls_back_to_previous() {
    let cfg = engine_config(ExchangeBackend::NvshmemFused, Some(2));
    let reference = run_engine(
        [2, 2, 1],
        cfg.clone(),
        RunMode::Threaded,
        WorldBackend::Threads,
    );

    let dir = ckpt_dir("corrupt");
    let mut first_cfg = cfg.clone();
    first_cfg.checkpoint = Some(CheckpointConfig::in_dir(&dir));
    let mut engine = Engine::new(
        relaxed_system().clone(),
        DdGrid::new([2, 2, 1]),
        first_cfg.clone(),
    );
    engine.run(10); // checkpoints at 0, 5, 10
    drop(engine);

    // Bit-flip the newest checkpoint and add a garbage file that sorts even
    // newer.
    let newest = dir.join(Checkpoint::file_name(10));
    let mut bytes = std::fs::read(&newest).expect("checkpoint written");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&newest, &bytes).unwrap();
    std::fs::write(dir.join(Checkpoint::file_name(11)), b"HXCKgarbage").unwrap();

    let mut resumed = Engine::resume_latest(&dir, first_cfg).expect("fall back to step 5");
    assert_eq!(
        resumed.resumed(),
        Some((5, 2)),
        "resumed from 5, skipping two corrupt files"
    );
    let stats = resumed.run(5);
    assert_eq!(stats.corrupt_checkpoints_skipped, 2);
    assert_bitwise(
        "corrupt fallback vs uninterrupted",
        &(resumed.system, stats),
        &reference,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming under a different transport is refused with the typed
/// fingerprint mismatch naming the field — on a checkpoint written by the
/// cross-process executor, closing the loop on config identity.
#[test]
fn resume_with_mismatched_transport_is_refused() {
    let dir = ckpt_dir("fingerprint");
    let mut cfg = engine_config(ExchangeBackend::NvshmemFused, Some(2));
    cfg.checkpoint = Some(CheckpointConfig::in_dir(&dir));
    cfg.world_backend = WorldBackend::Procs;
    let mut engine = Engine::new(
        relaxed_system().clone(),
        DdGrid::new([2, 2, 1]),
        cfg.clone(),
    );
    engine.run(5);
    drop(engine);

    let mut other = cfg.clone();
    other.backend = ExchangeBackend::ThreadMpi;
    match Engine::resume_latest(&dir, other) {
        Err(EngineError::Checkpoint(CheckpointError::Mismatch { field, .. })) => {
            assert_eq!(field, "transport");
        }
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("mismatched transport must not resume"),
    }
    // Same config resumes fine — including under the threads executor.
    let mut same = cfg;
    same.world_backend = WorldBackend::Threads;
    assert!(Engine::resume_latest(&dir, same).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Supervised in-run recovery on the cross-process backend: a one-shot
/// `KillPe` severs a real child's proxy socket mid-segment, the child dies,
/// `waitpid` reports it, the peer goes `Failed` — and with no fallback
/// headroom (fallback pinned to the primary) the segment fails terminally.
/// The replay rung must re-run the segment from the frontier on a freshly
/// forked world, and finish with a trajectory bitwise-equal to a fault-free run;
/// the revived peer ends healthy after its probation trial.
#[test]
fn killed_pe_process_recovers_via_rewind_on_procs() {
    // islands(4, 1): every edge is proxied, so the kill is guaranteed to
    // hit a parent-side proxy (the path that severs the socket).
    let mk_cfg = || {
        let mut cfg = engine_config(ExchangeBackend::NvshmemFused, Some(1));
        cfg.watchdog.deadline = DEADLINE;
        cfg.watchdog.max_retries = 0;
        cfg.watchdog.fallback = ExchangeBackend::NvshmemFused;
        cfg.world_backend = WorldBackend::Procs;
        cfg
    };
    // The fault-free reference runs serially: it never waits, so the
    // deadline cannot fail it on a busy host, and serial ≡ threaded ≡ procs
    // bitwise (DESIGN.md §3.3).
    let reference = run_engine([2, 2, 1], mk_cfg(), RunMode::Serial, WorldBackend::Procs);

    let dir = ckpt_dir("killpe");
    let mut cfg = mk_cfg();
    cfg.checkpoint = Some(CheckpointConfig::in_dir(&dir));
    cfg.chaos = Some(FaultPlan {
        name: "kill-child-once".into(),
        seed: FaultPlan::env_seed(),
        rules: vec![FaultRule {
            pe: Some(1),
            op: FaultOp::Any,
            after_ops: 0,
            every: None,
            kind: FaultKind::KillPe,
        }],
    });
    let mut engine = Engine::new(relaxed_system().clone(), DdGrid::new([2, 2, 1]), cfg);
    let stats = engine
        .try_run(10)
        .expect("rewind-and-replay must absorb a killed child process");
    assert!(stats.recoveries >= 1, "at least one rewind");
    assert!(stats.faults_injected >= 1);
    assert_eq!(stats.steps, 10);
    assert_bitwise(
        "procs kill recovery vs fault-free",
        &(engine.system.clone(), stats),
        &reference,
    );
    let health = engine.health();
    assert_eq!(health.state(1), PeerState::Healthy, "victim rehabilitated");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Fault-path conformance.
// ---------------------------------------------------------------------------

/// One chaos plan (selected by `HALOX_CHAOS_SEED`, like the chaos suite's
/// matrix) against the full engine on the procs backend: the run must end
/// in an accounted state — completed, retried, or downgraded — and never
/// hang, with the same bookkeeping invariants the threads backend obeys.
#[test]
fn chaos_plan_accounted_on_procs_backend() {
    let seed = FaultPlan::env_seed();
    let plans = FaultPlan::builtins(seed, 4, STALL);
    let plan = plans[seed as usize % plans.len()].clone();
    let mut cfg = engine_config(ExchangeBackend::NvshmemFused, Some(2));
    cfg.watchdog.deadline = DEADLINE;
    cfg.world_backend = WorldBackend::Procs;
    cfg.chaos = Some(plan.clone());
    let mut engine = Engine::new(relaxed_system().clone(), DdGrid::new([2, 2, 1]), cfg);
    let stats = engine
        .try_run(10)
        .unwrap_or_else(|e| panic!("plan {:?}: even the fallback failed: {e}", plan.name));
    assert_eq!(stats.steps, 10, "plan {:?}: incomplete", plan.name);
    assert_eq!(stats.energies.len(), 10usize.div_ceil(NSTLIST));
    for (k, e) in stats.energies.iter().enumerate() {
        assert!(
            e.total().is_finite(),
            "plan {:?}: energy diverged at step {}",
            plan.name,
            k * NSTLIST
        );
    }
    if !stats.downgrades.is_empty() {
        assert!(stats.degraded_steps > 0, "plan {:?}", plan.name);
    }
}

/// The fault schedule is a function of (plan, PE program), not of the
/// backend or the thread schedule. On `islands(4, 2)` pe0's first op crosses
/// the network to pe2 and its second is an NVLink op to pe1; a one-shot rule
/// at pe0's op 1 must hit the *second* op in program order, every time, on
/// both backends — one thread (pe0's proxy) decides both, in order. Returns
/// what landed where: `[pe2, pe1]` as (signal slot, payload x).
fn faulted_pair(backend: WorldBackend, kind: FaultKind) -> ([(u64, f32); 2], ChaosReport) {
    let plan = FaultPlan {
        name: "second-op".into(),
        seed: 0,
        rules: vec![FaultRule {
            pe: Some(0),
            op: FaultOp::Any,
            after_ops: 1,
            every: None,
            kind,
        }],
    };
    let chaos = Arc::new(ChaosEngine::new(plan, 4));
    let mut w = ShmemWorld::new_with_backend(backend, Topology::islands(4, 2), 1);
    w.set_chaos(Some(Arc::clone(&chaos)));
    let buf = SymVec3::alloc(4, 1);
    let b = &buf;
    w.run(|pe| {
        if pe.id == 0 {
            pe.put_vec3_signal_nbi(b, 2, 0, &[Vec3::splat(2.0)], 0, 1);
            pe.put_vec3_signal_nbi(b, 1, 0, &[Vec3::splat(1.0)], 0, 1);
            pe.quiet();
        }
        pe.id as u64
    });
    let landed = [2, 1].map(|pe| (w.signal_set(pe).peek(0), buf.get(pe, 0).x));
    (landed, chaos.report())
}

#[test]
fn fault_schedule_is_identical_across_backends() {
    for (kind, second_op) in [
        (FaultKind::DropSignalOnce, (0, 1.0)), // data lands, doorbell lost
        (FaultKind::TransientPutFailure, (0, 0.0)),
        (FaultKind::ReorderNext, (0, 0.0)), // held, and nothing follows it
    ] {
        let mut reports = Vec::new();
        for backend in BACKENDS {
            for rep in 0..50 {
                let (landed, report) = faulted_pair(backend, kind);
                assert_eq!(
                    landed,
                    [(1, 2.0), second_op],
                    "{} rep {rep}: {} did not hit pe0's second op",
                    backend.label(),
                    kind.name()
                );
                reports.push(report);
            }
        }
        assert_eq!(reports[0].total(), 1, "{}", kind.name());
        assert!(
            reports.iter().all(|r| *r == reports[0]),
            "{}: reports differ across backends or runs: {reports:?}",
            kind.name()
        );
    }
}

/// A PE process that dies without a result frame must drain: `try_run`
/// reports `PeFailure::Died` for exactly that PE (via `waitpid`, not a
/// timeout race), and the *next* procs world forks fresh children and
/// completes — the property the engine's segment-retry/fallback ladder
/// relies on after it marks the peer `Failed`.
#[test]
fn killed_pe_drains_and_next_world_recovers() {
    let w = ShmemWorld::new_with_backend(WorldBackend::Procs, Topology::all_nvlink(4), 1);
    let err = w
        .try_run(|pe| {
            pe.barrier_all();
            if pe.id == 2 {
                shared::exit_now(9);
            }
            pe.id as u64
        })
        .expect_err("PE 2 died mid-run");
    assert_eq!(err.failures.len(), 1, "{err}");
    let (pe, cause) = &err.failures[0];
    assert_eq!(*pe, 2);
    assert!(matches!(cause, PeFailure::Died { .. }), "got {cause}");

    // Fresh world, fresh forks: the dead child must not poison the heap or
    // the proxy endpoints for subsequent segments.
    let w2 = ShmemWorld::new_with_backend(WorldBackend::Procs, Topology::all_nvlink(4), 1);
    let out = w2.run(|pe| {
        pe.barrier_all();
        pe.allreduce_sum(pe.id as f64)
    });
    assert_eq!(out, vec![6.0; 4]);
}
