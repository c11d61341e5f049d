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
use halox::shmem::shared::live_mappings;
use halox::shmem::{FaultKind, FaultOp, FaultPlan, FaultRule, WorldPool};
use std::sync::{OnceLock, PoisonError, RwLock};
use std::time::Duration;

const BACKENDS: [WorldBackend; 2] = [WorldBackend::Threads, WorldBackend::Procs];

/// The live-mapping count is process-wide: the one test that compares it
/// takes this for writing, every other test (they all allocate) for reading.
static HEAP_QUIET: RwLock<()> = RwLock::new(());

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
    halox::md::assert_energies_bitwise(label, &a.1, &b.1);
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
    let _others_may_allocate = HEAP_QUIET.read().unwrap_or_else(PoisonError::into_inner);
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
    let _others_may_allocate = HEAP_QUIET.read().unwrap_or_else(PoisonError::into_inner);
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
                job.advance(pool.lease(job.key()), 5)
                    .unwrap_or_else(|e| panic!("{} tenant {i}: {e}", backend.label()));
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

/// A job config that cannot absorb a kill in place — islands(.,1): every
/// edge proxied, so the kill always lands on the parent-side proxy path; no
/// watchdog headroom and the fallback pinned to the primary — and the same
/// with a one-shot `KillPe` of PE 1 after `after_ops` of its ops.
fn unrecoverable_configs(backend: WorldBackend, after_ops: u64) -> (EngineConfig, EngineConfig) {
    let mut clean = job_config(backend);
    clean.topology_gpus_per_node = Some(1);
    clean.watchdog.deadline = Duration::from_millis(250);
    clean.watchdog.max_retries = 0;
    clean.watchdog.fallback = ExchangeBackend::NvshmemFused;
    let mut killed = clean.clone();
    killed.chaos = Some(FaultPlan {
        name: "serve-kill".into(),
        seed: 7,
        rules: vec![FaultRule {
            pe: Some(1),
            op: FaultOp::Any,
            after_ops,
            every: None,
            kind: FaultKind::KillPe,
        }],
    });
    (clean, killed)
}

/// Ops of PE 1 before the kill that lands in the *second* segment of a
/// two-segment slice: on [2,1,1] with `nstlist = 5` a segment is between 15
/// and 30 of its ops.
const KILL_IN_SECOND_SEGMENT: u64 = 30;

/// The fault story: a one-shot `KillPe` with the watchdog's fallback pinned
/// shut guarantees the slice it lands in dies terminally. The service must
/// *reschedule* the job — poison the lease, replay from the last good
/// segment on a fresh world — and the job still finishes `Done`,
/// bitwise-identical to a fault-free run, whether the kill lands in a
/// slice's first op or in the second segment of a two-segment slice
/// (`steps_done` never goes back). On the procs backend the kill severs a
/// real child process's proxy socket.
#[test]
fn killed_pe_job_is_rescheduled_not_failed_on_both_backends() {
    let _others_may_allocate = HEAP_QUIET.read().unwrap_or_else(PoisonError::into_inner);
    for backend in BACKENDS {
        for (slice_steps, steps, after_ops) in [(5, 10, 0), (10, 20, KILL_IN_SECOND_SEGMENT)] {
            let label = format!("{} kill@{after_ops}", backend.label());
            let (clean, killed) = unrecoverable_configs(backend, after_ops);
            let fault_free = solo_run(clean, steps);
            let mut svc = JobService::new(ServeConfig {
                pool_worlds: 2,
                workers: 2,
                slice_steps,
                ..ServeConfig::default()
            });
            let handle = svc
                .submit(spec(&label, killed, steps, Priority::Normal))
                .unwrap();
            let mut seen = vec![0];
            while !matches!(handle.status().state, JobState::Done | JobState::Failed) {
                seen.push(handle.status().steps_done);
                std::thread::sleep(Duration::from_millis(1));
            }
            let (status, result) = handle.wait();
            seen.push(status.steps_done);
            assert!(
                seen.windows(2).all(|w| w[0] <= w[1]),
                "{label}: steps_done went back: {seen:?}"
            );
            assert_eq!(
                status.state,
                JobState::Done,
                "{label}: a killed PE must cost a reschedule, not the job: {:?}",
                status.error
            );
            assert!(
                status.reschedules >= 1,
                "{label}: the kill must have forced at least one reschedule: {status:?}"
            );
            let result = result.unwrap();
            assert_bitwise(
                &format!("{label} rescheduled vs fault-free"),
                &fault_free,
                &(result.system, result.energies),
            );
            svc.shutdown();
            assert!(
                svc.pool_stats().poisoned >= 1,
                "{label}: the failed slice's world must have been dropped: {:?}",
                svc.pool_stats()
            );
        }
    }
}

/// What a failed slice leaves behind, and what a parked job holds. A kill in
/// the second segment of a two-segment slice fails the slice, but the first
/// segment stuck: the job replays from step 5, not from the slice start.
/// And fifty jobs parked mid-trajectory on forked-process PEs hold no world
/// and no symmetric buffer — once the pool is gone, the process maps exactly
/// what it mapped before the first of them ran.
#[test]
fn failed_slice_keeps_its_good_segments_and_parked_jobs_hold_no_mappings() {
    let _nobody_else_allocates = HEAP_QUIET.write().unwrap_or_else(PoisonError::into_inner);
    for backend in BACKENDS {
        let (clean, killed) = unrecoverable_configs(backend, KILL_IN_SECOND_SEGMENT);
        let fault_free = solo_run(clean, 20);
        let pool = WorldPool::with_capacity(1);
        let mut job = Job::new(0, spec("second-segment", killed, 20, Priority::Normal)).unwrap();
        job.advance(pool.lease(job.key()), 10)
            .expect_err("the kill lands inside the first slice");
        assert_eq!(job.step(), 5, "{}: the good segment stuck", backend.label());
        while !job.done() {
            job.advance(pool.lease(job.key()), 10).unwrap();
        }
        assert_eq!(pool.stats().poisoned, 1, "{}", backend.label());
        assert_bitwise(
            &format!("{} replay from the last good segment", backend.label()),
            &fault_free,
            &job.into_result(),
        );
    }

    let start = live_mappings();
    let pool = WorldPool::with_capacity(1);
    let parked: Vec<Job> = (0..50)
        .map(|i| {
            let cfg = job_config(WorldBackend::Procs);
            let mut job = Job::new(i, spec("parked", cfg, 10, Priority::Normal)).unwrap();
            job.advance(pool.lease(job.key()), 5).unwrap();
            assert_eq!(job.step(), 5);
            job
        })
        .collect();
    assert!(live_mappings() > start, "the pooled world is mapped");
    drop(pool);
    assert_eq!(live_mappings(), start, "a parked job holds a mapping");
    drop(parked);
}
