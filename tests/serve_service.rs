//! Service-layer conformance (DESIGN.md §3.7): the multiplexed job service
//! must be invisible in the physics. Every suite here runs on BOTH world
//! backends — in-process threads and forked-process PEs — and holds the
//! same contracts:
//!
//! - jobs sliced over a shared [`WorldPool`] finish bitwise-identical to a
//!   solo single-engine run of the same spec;
//! - one pooled world leased through ≥10 consecutive jobs produces
//!   trajectories bitwise-identical to fresh-world runs (the reset story:
//!   `reused` leases carry no state across tenants);
//! - a job whose PE is killed mid-slice is *rescheduled* onto a fresh
//!   lease — never failed — and still finishes bitwise-identical to a
//!   fault-free run.
//!
//! Backend selection is programmatic (`EngineConfig::world_backend`), like
//! the conformance suite: this binary runs both backends side by side,
//! which one `HALOX_BACKEND` value cannot say. Mixing them in one process
//! needs no care — symmetric memory is the same under either backend.

use halox::dd::DdGrid;
use halox::engine::{Engine, EngineConfig, ExchangeBackend, Thermostat, WorldBackend};
use halox::md::minimize::{steepest_descent, MinimizeOptions};
use halox::md::{EnergyReport, GrappaBuilder, System};
use halox::serve::{Job, JobService, JobSpec, JobState, Priority, ServeConfig};
use halox::shmem::{FaultKind, FaultOp, FaultPlan, FaultRule, WorldPool};
use std::sync::OnceLock;
use std::time::Duration;

const BACKENDS: [WorldBackend; 2] = [WorldBackend::Threads, WorldBackend::Procs];

fn relaxed_system() -> &'static System {
    static SYS: OnceLock<System> = OnceLock::new();
    SYS.get_or_init(|| {
        let mut sys = GrappaBuilder::new(3000).seed(41).temperature(215.0).build();
        steepest_descent(&mut sys, MinimizeOptions::default());
        sys
    })
}

fn job_config(backend: WorldBackend) -> EngineConfig {
    let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
    cfg.nstlist = 5;
    cfg.world_backend = backend;
    cfg.checkpoint = None;
    // Thermostat on: the global kinetic-energy allreduce is the reduction
    // most sensitive to any scheduling- or tenancy-dependent ordering.
    cfg.thermostat = Some(Thermostat {
        t_ref: 215.0,
        tau_ps: 0.5,
    });
    cfg
}

fn spec(name: &str, cfg: EngineConfig, steps: usize, priority: Priority) -> JobSpec {
    JobSpec {
        name: name.into(),
        system: relaxed_system().clone(),
        grid: [2, 1, 1],
        config: cfg,
        steps,
        priority,
    }
}

/// Fresh-engine, fresh-world reference run of the same spec.
fn solo_run(cfg: EngineConfig, steps: usize) -> (System, Vec<EnergyReport>) {
    let mut engine = Engine::new(relaxed_system().clone(), DdGrid::new([2, 1, 1]), cfg);
    let stats = engine.run(steps);
    (engine.system, stats.energies)
}

fn assert_bitwise(label: &str, a: &(System, Vec<EnergyReport>), b: &(System, Vec<EnergyReport>)) {
    assert_eq!(a.1.len(), b.1.len(), "{label}: step count");
    for (s, (e, f)) in a.1.iter().zip(&b.1).enumerate() {
        assert_eq!(
            e.total().to_bits(),
            f.total().to_bits(),
            "{label}: step {s} energy differs: {} vs {}",
            e.total(),
            f.total()
        );
    }
    for (i, (p, q)) in a.0.positions.iter().zip(&b.0.positions).enumerate() {
        assert!(
            p.x.to_bits() == q.x.to_bits()
                && p.y.to_bits() == q.y.to_bits()
                && p.z.to_bits() == q.z.to_bits(),
            "{label}: position {i} differs: {p:?} vs {q:?}"
        );
    }
    for (i, (p, q)) in a.0.velocities.iter().zip(&b.0.velocities).enumerate() {
        assert!(
            p.x.to_bits() == q.x.to_bits()
                && p.y.to_bits() == q.y.to_bits()
                && p.z.to_bits() == q.z.to_bits(),
            "{label}: velocity {i} differs: {p:?} vs {q:?}"
        );
    }
}

/// Several jobs of differing lengths and priorities multiplexed over a
/// 2-world pool: every one must finish `Done` and match its solo reference
/// bitwise, on both backends.
#[test]
fn multiplexed_jobs_match_solo_bitwise_on_both_backends() {
    for backend in BACKENDS {
        let mut svc = JobService::new(ServeConfig {
            pool_worlds: 2,
            workers: 2,
            slice_steps: 5,
            ..ServeConfig::default()
        });
        let cases = [
            (10, Priority::High),
            (15, Priority::Normal),
            (10, Priority::Low),
            (12, Priority::Normal),
        ];
        let handles: Vec<_> = cases
            .iter()
            .enumerate()
            .map(|(i, &(steps, priority))| {
                let s = spec(
                    &format!("{}-job-{i}", backend.label()),
                    job_config(backend),
                    steps,
                    priority,
                );
                (steps, svc.submit(s).unwrap())
            })
            .collect();
        for (steps, h) in &handles {
            let (status, result) = h.wait();
            assert_eq!(
                status.state,
                JobState::Done,
                "{}: {:?}",
                status.name,
                status.error
            );
            let result = result.unwrap();
            let solo = solo_run(job_config(backend), *steps);
            assert_bitwise(
                &format!("{} service vs solo", status.name),
                &solo,
                &(result.system, result.energies),
            );
        }
        svc.shutdown();
        let stats = svc.pool_stats();
        assert!(
            stats.built <= 2,
            "{}: pool must cap world builds: {stats:?}",
            backend.label()
        );
        assert!(
            stats.reused >= 1,
            "{}: worlds must recycle: {stats:?}",
            backend.label()
        );
    }
}

/// The reset story (satellite of the pool layer): ONE pooled world leased
/// through ten consecutive jobs — every lease after the first a reuse —
/// gives each tenant a trajectory bitwise-identical to a run on a fresh
/// world. A single leaked signal, chaos hook, or proxy setting across
/// tenants would break this on the spot.
#[test]
fn one_world_lease_cycled_through_ten_jobs_is_bitwise_clean() {
    for backend in BACKENDS {
        let pool = WorldPool::with_capacity(1);
        let reference = solo_run(job_config(backend), 10);
        for i in 0..10 {
            let mut job = Job::new(
                i,
                spec(
                    &format!("{}-tenant-{i}", backend.label()),
                    job_config(backend),
                    10,
                    Priority::Normal,
                ),
            )
            .unwrap();
            while !job.done() {
                let lease = pool.lease(job.key());
                let (lease, res) = job.advance(lease, 5);
                res.unwrap_or_else(|e| panic!("{} tenant {i}: {e}", backend.label()));
                drop(lease);
            }
            let (system, energies) = job.into_result();
            assert_bitwise(
                &format!("{} tenant {i} vs fresh world", backend.label()),
                &reference,
                &(system, energies),
            );
        }
        let stats = pool.stats();
        assert_eq!(
            stats.built,
            1,
            "{}: one world serves all ten tenants: {stats:?}",
            backend.label()
        );
        assert!(
            stats.reused >= 19,
            "{}: every lease after the first reuses it: {stats:?}",
            backend.label()
        );
        assert_eq!(stats.poisoned, 0, "{}: {stats:?}", backend.label());
    }
}

/// The fault story: a one-shot `KillPe` with the watchdog's fallback pinned
/// shut guarantees the job's first slice dies terminally. The service must
/// *reschedule* it — rewind to the frontier, poison the lease, replay on a
/// fresh world — and the job still finishes `Done`, bitwise-identical to a
/// fault-free run. On the procs backend the kill severs a real child
/// process's proxy socket.
#[test]
fn killed_pe_job_is_rescheduled_not_failed_on_both_backends() {
    for backend in BACKENDS {
        let mut cfg = job_config(backend);
        // islands(.,1): every edge proxied, so the kill always lands on the
        // parent-side proxy path; no watchdog headroom and the fallback
        // pinned to the primary make the slice unrecoverable in place.
        cfg.topology_gpus_per_node = Some(1);
        cfg.watchdog.deadline = Duration::from_millis(250);
        cfg.watchdog.max_retries = 0;
        cfg.watchdog.fallback = ExchangeBackend::NvshmemFused;
        let fault_free = {
            let mut clean = cfg.clone();
            clean.chaos = None;
            solo_run(clean, 10)
        };
        cfg.chaos = Some(FaultPlan {
            name: "serve-kill".into(),
            seed: 7,
            rules: vec![FaultRule {
                pe: Some(1),
                op: FaultOp::Any,
                after_ops: 0,
                every: None,
                kind: FaultKind::KillPe,
            }],
        });
        let mut svc = JobService::new(ServeConfig {
            pool_worlds: 2,
            workers: 2,
            slice_steps: 5,
            ..ServeConfig::default()
        });
        let handle = svc
            .submit(spec(
                &format!("{}-chaos", backend.label()),
                cfg,
                10,
                Priority::Normal,
            ))
            .unwrap();
        let (status, result) = handle.wait();
        assert_eq!(
            status.state,
            JobState::Done,
            "{}: a killed PE must cost a reschedule, not the job: {:?}",
            backend.label(),
            status.error
        );
        assert!(
            status.reschedules >= 1,
            "{}: the kill must have forced at least one reschedule: {status:?}",
            backend.label()
        );
        let result = result.unwrap();
        assert_bitwise(
            &format!("{} rescheduled vs fault-free", backend.label()),
            &fault_free,
            &(result.system, result.energies),
        );
        svc.shutdown();
        assert!(
            svc.pool_stats().poisoned >= 1,
            "{}: the failed slice's world must have been dropped: {:?}",
            backend.label(),
            svc.pool_stats()
        );
    }
}
