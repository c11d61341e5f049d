//! Concurrency stress suite for the two executors (DESIGN.md §3.3): the
//! threaded per-PE runner must produce trajectories **bitwise identical**
//! to the serial reference driver — same positions, velocities and every
//! energy term to the last bit — across transports and topologies, with
//! the global-collective thermostat enabled (the schedule-sensitive path).
//! Under chaos the threaded executor must never deadlock: every run ends
//! inside the watchdog ladder as completed, retried or downgraded, and a
//! peer that dies mid-collective surfaces a bounded `CollectiveTimeout`
//! error instead of a hang.
//!
//! CI runs this file with `--test-threads=1` so each case owns the host's
//! cores; `HALOX_CHAOS_SEED` selects the fault-plan seed as in the chaos
//! suite.

use halox::dd::DdGrid;
use halox::engine::{Engine, EngineConfig, ExchangeBackend, RunMode, RunStats, Thermostat};
use halox::md::minimize::{steepest_descent, MinimizeOptions};
use halox::md::{GrappaBuilder, System};
use halox::shmem::{FaultKind, FaultPlan};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_millis(200);
const NSTLIST: usize = 5;
const STALL: Duration = Duration::from_millis(400);

fn relaxed_system(seed: u64, atoms: usize) -> System {
    let mut sys = GrappaBuilder::new(atoms)
        .seed(seed)
        .temperature(220.0)
        .build();
    steepest_descent(&mut sys, MinimizeOptions::default());
    sys
}

fn config(backend: ExchangeBackend, gpus_per_node: Option<usize>, mode: RunMode) -> EngineConfig {
    let mut cfg = EngineConfig::new(backend);
    cfg.nstlist = NSTLIST;
    cfg.run_mode = mode;
    cfg.topology_gpus_per_node = gpus_per_node;
    cfg.watchdog.deadline = DEADLINE;
    // Thermostat on: exercises the allreduce over kinetic energy, the one
    // place a schedule-dependent reduction order would break bitwise
    // identity between executors.
    cfg.thermostat = Some(Thermostat {
        t_ref: 220.0,
        tau_ps: 0.5,
    });
    cfg
}

fn run(sys: &System, grid: [usize; 3], cfg: EngineConfig, steps: usize) -> (System, RunStats) {
    let mut engine = Engine::new(sys.clone(), DdGrid::new(grid), cfg);
    let stats = engine.run(steps);
    (engine.system, stats)
}

/// Panics with a diagnostic if the two runs differ in even one bit.
fn assert_bitwise(label: &str, a: &(System, RunStats), b: &(System, RunStats)) {
    let bit3 = |p: &halox::md::Vec3, q: &halox::md::Vec3| {
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

#[test]
fn threaded_matches_serial_bitwise_across_transports() {
    // One serial reference trajectory; every threaded transport/topology
    // must reproduce it bit-for-bit. This also proves the transports are
    // bitwise interchangeable with each other.
    let sys = relaxed_system(401, 3000);
    let steps = 10;
    let serial = run(
        &sys,
        [2, 2, 1],
        config(ExchangeBackend::NvshmemFused, None, RunMode::Serial),
        steps,
    );
    let scenarios: [(ExchangeBackend, Option<usize>); 4] = [
        (ExchangeBackend::NvshmemFused, None), // all-NVLink direct stores
        (ExchangeBackend::NvshmemFused, Some(2)), // mixed NVLink/proxied-IB islands
        (ExchangeBackend::ThreadMpi, None),
        (ExchangeBackend::Mpi, None),
    ];
    for (backend, gpus) in scenarios {
        let mut cfg = config(backend, gpus, RunMode::Threaded);
        // No faults are injected here, so the deadline is purely a hang
        // backstop: under the suite's tight default a loaded host can skew
        // one clean wait past it, and the run retries.
        cfg.watchdog.deadline = Duration::from_secs(2);
        let threaded = run(&sys, [2, 2, 1], cfg, steps);
        let label = format!("{:?}/gpus_per_node={gpus:?}", backend);
        assert_bitwise(&label, &serial, &threaded);
        assert_eq!(threaded.1.retries, 0, "{label}: clean run must not retry");
        assert!(threaded.1.downgrades.is_empty(), "{label}: no downgrade");
    }
}

#[test]
fn overlap_choice_stays_bitwise_between_executors() {
    // The overlap window (DESIGN.md §3.4): the serial driver and the
    // threaded executor agree to the bit, and evaluating the local tiles
    // before halo arrivals is bitwise inert — same tiles, same fold order,
    // only wall-clock moves.
    let sys = relaxed_system(406, 3000);
    let steps = 10;
    let mk = |mode, overlap| {
        let mut cfg = config(ExchangeBackend::NvshmemFused, Some(2), mode);
        cfg.nb_overlap = overlap;
        cfg
    };
    let serial = run(&sys, [2, 2, 1], mk(RunMode::Serial, true), steps);
    let on = run(&sys, [2, 2, 1], mk(RunMode::Threaded, true), steps);
    let off = run(&sys, [2, 2, 1], mk(RunMode::Threaded, false), steps);
    assert_bitwise("overlap-on", &serial, &on);
    assert_bitwise("overlap-off", &serial, &off);
}

#[test]
fn eight_pe_stress_stays_bitwise_with_link_latency() {
    // Widest topology in the suite: 8 PE threads plus proxy threads on a
    // two-island fabric, with modeled inter-node latency in flight while
    // compute proceeds — maximum schedule jitter between runs. Still one
    // answer, to the bit.
    let sys = relaxed_system(403, 4000);
    let steps = 15;
    let mk = |mode| {
        let mut cfg = config(ExchangeBackend::NvshmemFused, Some(4), mode);
        cfg.link_delay_us = 200;
        // No faults are injected here, so the deadline is purely a hang
        // backstop; eight PE threads timeslicing one core under the
        // (heavier) cluster kernel can legitimately skew a collective past
        // the suite's tight default in unoptimized builds.
        cfg.watchdog.deadline = Duration::from_secs(2);
        cfg
    };
    let serial = run(&sys, [4, 2, 1], mk(RunMode::Serial), steps);
    let threaded = run(&sys, [4, 2, 1], mk(RunMode::Threaded), steps);
    assert_bitwise("8-PE islands(8,4)", &serial, &threaded);
    assert_eq!(threaded.1.steps, steps);
    assert_eq!(threaded.1.energies.len(), steps.div_ceil(NSTLIST));
    assert_eq!(threaded.1.retries, 0, "clean stress run must not retry");
}

#[test]
fn chaos_runs_never_deadlock_and_clean_survivors_stay_bitwise() {
    // Every built-in fault plan, on both signal-driven transports, with the
    // thermostat collective in the loop. Each run must end inside the
    // watchdog ladder (complete / retried / downgraded — never hang; the
    // harness-level guarantee is the CI job timeout, the in-process one is
    // that every wait is deadline-bounded). Crash plans are excluded here:
    // a dead PE can never rejoin a global collective, which is exactly the
    // graceful-failure case covered by the test below.
    let sys = relaxed_system(404, 3000);
    let serial = run(
        &sys,
        [2, 2, 1],
        config(ExchangeBackend::NvshmemFused, None, RunMode::Serial),
        12,
    );
    for (backend, gpus) in [
        (ExchangeBackend::NvshmemFused, Some(2)),
        (ExchangeBackend::ThreadMpi, None),
    ] {
        for plan in FaultPlan::builtins(FaultPlan::env_seed(), 4, STALL) {
            if plan
                .rules
                .iter()
                .any(|r| matches!(r.kind, FaultKind::CrashPe))
            {
                continue;
            }
            let mut cfg = config(backend, gpus, RunMode::Threaded);
            cfg.chaos = Some(plan.clone());
            let mut engine = Engine::new(sys.clone(), DdGrid::new([2, 2, 1]), cfg);
            let stats = engine.try_run(12).unwrap_or_else(|e| {
                panic!(
                    "plan {:?} on {backend:?}: even the fallback failed: {e}",
                    plan.name
                )
            });
            assert_eq!(stats.steps, 12, "plan {:?}: incomplete", plan.name);
            assert_eq!(stats.energies.len(), 12usize.div_ceil(NSTLIST));
            if stats.retries == 0 && stats.downgrades.is_empty() {
                // Faults the transport absorbed in-band may cost time,
                // never physics — absorbed runs stay bitwise identical.
                assert_bitwise(
                    &format!("chaos {:?} on {backend:?}", plan.name),
                    &serial,
                    &(engine.system, stats),
                );
            }
        }
    }
}

#[test]
fn crashed_peer_with_thermostat_recovers_instead_of_hanging() {
    // The regression this PR fixes. A crash plan kills a PE's *deliveries*:
    // its neighbours stall in the exchange wait while the unaffected PEs
    // sail on to the kinetic-energy allreduce and park there waiting for
    // the stalled ones. With the old unbounded collectives those parked
    // PEs could never be reclaimed — the watchdog diagnosed the exchange
    // stall but the segment never unwound, and crash-plus-thermostat
    // deadlocked forever (hence the old rule "chaos runs must not enable
    // the thermostat"). With deadline-bounded collectives every parked PE
    // times out, the segment unwinds, and the ladder downgrades to the
    // two-sided fallback and completes — in bounded wall time.
    let sys = relaxed_system(405, 2400);
    let crash_plan = FaultPlan::builtins(FaultPlan::env_seed(), 4, STALL)
        .into_iter()
        .find(|p| p.rules.iter().any(|r| matches!(r.kind, FaultKind::CrashPe)))
        .expect("builtins include a crash plan");
    let mut cfg = config(ExchangeBackend::NvshmemFused, Some(2), RunMode::Threaded);
    cfg.chaos = Some(crash_plan);
    cfg.watchdog.max_retries = 0; // shortest path through the ladder
    let mut engine = Engine::new(sys.clone(), DdGrid::new([2, 2, 1]), cfg);
    let armed = Instant::now();
    let stats = engine
        .try_run(20)
        .expect("crash with thermostat must downgrade and complete, not hang");
    let elapsed = armed.elapsed();
    assert_eq!(stats.steps, 20);
    assert_eq!(stats.energies.len(), 20usize.div_ceil(NSTLIST));
    assert!(
        !stats.downgrades.is_empty(),
        "a crashed PE must force a transport downgrade"
    );
    assert!(
        !stats.stall_reports.is_empty(),
        "the stall must be diagnosed, not silently absorbed"
    );
    assert!(
        elapsed < Duration::from_secs(60),
        "recovery must be bounded by the watchdog ladder, took {elapsed:?}"
    );
}
