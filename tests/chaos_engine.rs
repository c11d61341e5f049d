//! Chaos suite: every built-in fault plan against the full engine, on both
//! signal-driven transports. Each run must end in one of the accounted
//! states — complete with trajectories agreeing with the fault-free run,
//! retried, or cleanly degraded to the two-sided fallback — and must never
//! hang (every wait is bounded, DESIGN.md §3.2) and never corrupt silently
//! (positions checked against the fault-free trajectory; the functional
//! trace replayed through the protocol checker for delay-class plans).
//!
//! `HALOX_CHAOS_SEED` selects the fault-plan seed (victim PEs and trigger
//! points); CI runs a small matrix of fixed seeds.

use halox::dd::DdGrid;
use halox::engine::{Engine, EngineConfig, ExchangeBackend, PeerState, RunStats};
use halox::md::minimize::{steepest_descent, MinimizeOptions};
use halox::md::{GrappaBuilder, System};
use halox::shmem::{FaultKind, FaultPlan};
use halox::trace::{check, Recorder};
use std::sync::Arc;
use std::time::Duration;

const DEADLINE: Duration = Duration::from_millis(200);
const NSTLIST: usize = 5;
/// Stall plans are sized past the deadline so StallPe exercises stall
/// *diagnosis* (watchdog expiry → retry), not silent absorption.
const STALL: Duration = Duration::from_millis(400);

fn relaxed_system(seed: u64) -> System {
    let mut sys = GrappaBuilder::new(3000)
        .seed(seed)
        .temperature(200.0)
        .build();
    steepest_descent(&mut sys, MinimizeOptions::default());
    sys
}

fn chaos_config(
    backend: ExchangeBackend,
    gpus_per_node: Option<usize>,
    plan: Option<FaultPlan>,
) -> EngineConfig {
    let mut cfg = EngineConfig::new(backend);
    cfg.nstlist = NSTLIST;
    cfg.topology_gpus_per_node = gpus_per_node;
    cfg.watchdog.deadline = DEADLINE;
    cfg.chaos = plan;
    cfg
}

/// Run one plan; the engine must return (never hang) and the result must be
/// an accounted outcome: Ok with either no recovery activity, retries, or a
/// recorded downgrade. Returns the stats for further assertions.
fn run_accounted(
    sys: &System,
    backend: ExchangeBackend,
    gpus_per_node: Option<usize>,
    plan: &FaultPlan,
    steps: usize,
) -> (Engine, RunStats) {
    let cfg = chaos_config(backend, gpus_per_node, Some(plan.clone()));
    let mut engine = Engine::new(sys.clone(), DdGrid::new([2, 2, 1]), cfg);
    let stats = engine
        .try_run(steps)
        .unwrap_or_else(|e| panic!("plan {:?}: even the fallback failed: {e}", plan.name));
    assert_eq!(stats.steps, steps, "plan {:?}: incomplete run", plan.name);
    assert_eq!(stats.energies.len(), steps.div_ceil(NSTLIST));
    for (k, e) in stats.energies.iter().enumerate() {
        assert!(
            e.total().is_finite(),
            "plan {:?}: energy diverged at step {}",
            plan.name,
            k * NSTLIST
        );
    }
    // Degradation bookkeeping is consistent: downgrades imply degraded
    // steps, and every downgrade is diagnosed — by a stall report, or by a
    // suspect the health board holds as `Failed` (a PE process that died
    // surfaces as `PeDied`, which carries no stall report). Only a kill
    // plan can take the second way.
    if !stats.downgrades.is_empty() {
        assert!(stats.degraded_steps > 0, "plan {:?}", plan.name);
        let can_kill = plan
            .rules
            .iter()
            .any(|r| matches!(r.kind, FaultKind::KillPe));
        for d in &stats.downgrades {
            let dead = can_kill
                && d.suspects
                    .iter()
                    .any(|&p| engine.health().state(p) == PeerState::Failed);
            assert!(
                dead || !stats.stall_reports.is_empty(),
                "plan {:?}: undiagnosed downgrade {d:?}",
                plan.name
            );
        }
    }
    (engine, stats)
}

fn max_dev_nm(sys: &System, a: &System, b: &System) -> f32 {
    a.positions
        .iter()
        .zip(&b.positions)
        .map(|(&p, &q)| sys.pbc.dist2(p, q).sqrt())
        .fold(0.0, f32::max)
}

#[test]
fn every_builtin_plan_accounted_on_fused_mixed_topology() {
    // islands(4,2): half the edges are direct NVLink stores, half proxied
    // "IB" puts — both chaos choke points exercised.
    let sys = relaxed_system(301);
    for plan in FaultPlan::builtins(FaultPlan::env_seed(), 4, STALL) {
        let crash = plan
            .rules
            .iter()
            .any(|r| matches!(r.kind, FaultKind::CrashPe));
        let (_, stats) = run_accounted(&sys, ExchangeBackend::NvshmemFused, Some(2), &plan, 20);
        if crash {
            assert!(
                !stats.downgrades.is_empty(),
                "a crashed PE must force a transport downgrade"
            );
        }
    }
}

#[test]
fn every_builtin_plan_accounted_on_tmpi() {
    let sys = relaxed_system(302);
    for plan in FaultPlan::builtins(FaultPlan::env_seed(), 4, STALL) {
        run_accounted(&sys, ExchangeBackend::ThreadMpi, None, &plan, 20);
    }
}

#[test]
fn surviving_runs_match_fault_free_trajectory() {
    // Plans the primary transport absorbs (delays, reorder, one-shot drops)
    // must yield the same trajectory as the fault-free run — faults may
    // cost retries, never physics.
    let sys = relaxed_system(303);
    let fault_free = {
        let cfg = chaos_config(ExchangeBackend::NvshmemFused, Some(2), None);
        let mut engine = Engine::new(sys.clone(), DdGrid::new([2, 2, 1]), cfg);
        engine.run(10);
        engine.system
    };
    for plan in FaultPlan::builtins(FaultPlan::env_seed(), 4, STALL) {
        let (engine, stats) =
            run_accounted(&sys, ExchangeBackend::NvshmemFused, Some(2), &plan, 10);
        let dev = max_dev_nm(&sys, &engine.system, &fault_free);
        assert!(
            dev < 2e-4,
            "plan {:?}: trajectory deviates {dev} nm from fault-free \
             (retries {}, downgrades {})",
            plan.name,
            stats.retries,
            stats.downgrades.len()
        );
    }
}

#[test]
fn delay_chaos_trace_is_checker_clean() {
    // Delay-class faults shuffle timing but deliver everything; the
    // recorded event stream must replay with zero protocol violations —
    // chaos must not be able to provoke a signal-ordering bug.
    let sys = relaxed_system(304);
    let plans = FaultPlan::builtins(FaultPlan::env_seed(), 4, Duration::from_millis(10));
    let delay_plan = plans
        .iter()
        .find(|p| p.name.contains("delay"))
        .expect("builtins include a delay plan")
        .clone();
    let rec = Arc::new(Recorder::new());
    let mut cfg = chaos_config(ExchangeBackend::NvshmemFused, Some(2), Some(delay_plan));
    cfg.trace = Some(Arc::clone(&rec));
    let mut engine = Engine::new(sys, DdGrid::new([2, 2, 1]), cfg);
    let stats = engine.try_run(10).expect("delay plan must complete");
    assert!(stats.faults_injected > 0, "delay plan must actually fire");
    let trace = rec.drain();
    assert!(!trace.events.is_empty());
    let report = check(&trace);
    assert!(
        report.is_clean(),
        "protocol violations under delay chaos:\n{report}"
    );
}

#[test]
fn permanent_crash_reports_full_diagnosis() {
    // The StallReport surfaced on a crashed peer must carry an actionable
    // diagnosis: the stuck slot, expected vs observed signal values, the
    // suspect peer, and a non-empty per-slot snapshot.
    let sys = relaxed_system(305);
    let crash_plan = FaultPlan::builtins(FaultPlan::env_seed(), 4, STALL)
        .into_iter()
        .find(|p| p.rules.iter().any(|r| matches!(r.kind, FaultKind::CrashPe)))
        .expect("builtins include a crash plan");
    let victim = crash_plan.rules[0].pe.expect("crash rule targets one PE");
    let (engine, stats) = run_accounted(
        &sys,
        ExchangeBackend::NvshmemFused,
        Some(2),
        &crash_plan,
        20,
    );
    assert!(!stats.stall_reports.is_empty());
    for r in &stats.stall_reports {
        assert!(r.expected > r.observed, "stall must report missing signal");
        assert!(!r.slot_snapshot.is_empty());
        assert!(r.waited_ms as u128 >= DEADLINE.as_millis());
    }
    assert!(
        stats
            .stall_reports
            .iter()
            .any(|r| r.suspect_peer == Some(victim)),
        "at least one diagnosis must finger the crashed PE {victim}"
    );
    // The victim is off the fused path for good.
    let health = engine.health();
    assert!(
        !matches!(health.state(victim), PeerState::Healthy),
        "crashed peer must not be considered healthy"
    );
}
