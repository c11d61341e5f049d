//! The job service: admission, weighted fair-share scheduling, and
//! reschedule-not-fail fault handling over a bounded world pool.
//!
//! Scheduling is start-time fair queueing in miniature: each job carries a
//! virtual time that advances by `predicted_step_ns * slice / weight` per
//! slice it receives, and workers always dispatch the queued job with the
//! lowest virtual time (ties broken toward higher priority, then FIFO).
//! High-weight jobs therefore accrue virtual time slower and get
//! proportionally more slices under contention, without starving anyone —
//! every job's virtual time eventually becomes the minimum.

use crate::estimator::AdmissionEstimator;
use crate::job::{Job, JobId, JobSpec, Priority};
use halox_engine::{EngineError, RunStats};
use halox_gpusim::MachineModel;
use halox_md::{EnergyReport, System};
use halox_shmem::{PoolStats, WorldPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service sizing and policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// World-pool capacity: at most this many `ShmemWorld`s exist at once.
    pub pool_worlds: usize,
    /// Worker threads advancing job slices.
    pub workers: usize,
    /// Steps per dispatch slice (each job rounds this down to whole
    /// neighbour-search segments; see [`Job::next_slice`]).
    pub slice_steps: usize,
    /// Admission: reject (`QueueFull`) past this many queued jobs.
    pub max_queue: usize,
    /// Admission: reject (`PredictedTooLong`) jobs whose estimated total
    /// run time exceeds this, when set.
    pub max_predicted_ms: Option<f64>,
    /// Backstop on the reschedule-not-fail contract: a job rescheduled this
    /// many times without completing is declared `Failed` (it is making no
    /// progress; infinite retries would wedge a pool slot forever).
    pub max_reschedules: usize,
    /// Machine the admission estimator prices jobs on.
    pub machine: MachineModel,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            pool_worlds: 4,
            workers: 4,
            slice_steps: 10,
            max_queue: 4096,
            max_predicted_ms: None,
            max_reschedules: 8,
            machine: MachineModel::dgx_h100(),
        }
    }
}

/// Why a submission was refused at the door.
#[derive(Debug)]
pub enum AdmissionError {
    QueueFull {
        queued: usize,
        max: usize,
    },
    PredictedTooLong {
        predicted_ms: f64,
        max_ms: f64,
    },
    /// The spec cannot run at all (infeasible decomposition): the same
    /// typed error a solo engine would surface at configuration time.
    Infeasible(EngineError),
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { queued, max } => {
                write!(f, "queue full: {queued} jobs queued (max {max})")
            }
            AdmissionError::PredictedTooLong {
                predicted_ms,
                max_ms,
            } => write!(
                f,
                "predicted run time {predicted_ms:.1} ms exceeds admission limit {max_ms:.1} ms"
            ),
            AdmissionError::Infeasible(e) => write!(f, "infeasible job: {e}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Lifecycle of an admitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
}

/// A point-in-time view of one job, cheap to clone out of the service.
#[derive(Debug, Clone)]
pub struct JobStatus {
    pub id: JobId,
    pub name: String,
    pub state: JobState,
    pub priority: Priority,
    pub steps_done: usize,
    pub steps_total: usize,
    /// Reschedules after a failed slice, each a replay from the job's last
    /// good segment (the fault story's currency: a dead PE costs a
    /// reschedule, never the job).
    pub reschedules: usize,
    /// In-slice segment replays absorbed by the engine.
    pub recoveries: usize,
    /// Submission-to-first-dispatch wait.
    pub queue_wait: Duration,
    /// The admission estimator's per-step price (also the fair-share
    /// charging rate).
    pub predicted_step_ns: u64,
    /// Terminal error text, for `Failed` jobs.
    pub error: Option<String>,
}

/// Final trajectory of a `Done` job.
#[derive(Debug, Clone)]
pub struct JobResult {
    pub system: System,
    /// Full energy history: one report per `nstlist` steps, from step 0.
    pub energies: Vec<EnergyReport>,
}

struct SlotInner {
    status: JobStatus,
    result: Option<JobResult>,
}

impl SlotInner {
    /// The one place a dispatched job's progress becomes visible: every
    /// status field that moves after the first dispatch is written here,
    /// from the job and its slice's outcome.
    fn publish(&mut self, job: &Job, state: JobState, outcome: Result<&RunStats, String>) {
        self.status.state = state;
        self.status.steps_done = job.step();
        self.status.reschedules = job.reschedules;
        match outcome {
            Ok(stats) => self.status.recoveries = stats.recoveries,
            Err(error) => self.status.error = Some(error),
        }
    }
}

struct Slot {
    m: Mutex<SlotInner>,
    cv: Condvar,
}

/// The caller's view of a submitted job.
#[derive(Clone)]
pub struct JobHandle {
    slot: Arc<Slot>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("status", &self.status())
            .finish()
    }
}

impl JobHandle {
    pub fn status(&self) -> JobStatus {
        self.slot.m.lock().unwrap().status.clone()
    }

    /// Block until the job is `Done` or `Failed`; returns the terminal
    /// status and, for `Done`, the final trajectory.
    pub fn wait(&self) -> (JobStatus, Option<JobResult>) {
        let mut inner = self.slot.m.lock().unwrap();
        while !matches!(inner.status.state, JobState::Done | JobState::Failed) {
            inner = self.slot.cv.wait(inner).unwrap();
        }
        (inner.status.clone(), inner.result.clone())
    }
}

struct QueuedJob {
    job: Job,
    slot: Arc<Slot>,
    /// Fair-share virtual time: service received / priority weight.
    vtime: u128,
    /// FIFO tiebreak.
    seq: u64,
    predicted_step_ns: u64,
    submitted: Instant,
}

/// Lowest virtual time wins; ties go to the higher weight, then FIFO.
fn pick_index(queue: &[QueuedJob]) -> Option<usize> {
    queue
        .iter()
        .enumerate()
        .min_by_key(|(_, q)| (q.vtime, u64::MAX - q.job.priority().weight(), q.seq))
        .map(|(i, _)| i)
}

struct SchedState {
    queue: Vec<QueuedJob>,
    /// Jobs currently held by workers (they may re-queue themselves, so
    /// workers must not exit while any are in flight).
    running: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<SchedState>,
    cv: Condvar,
}

/// The multi-tenant job service. Dropping it drains the queue: workers
/// finish every admitted job before joining.
pub struct JobService {
    cfg: ServeConfig,
    estimator: AdmissionEstimator,
    pool: Arc<WorldPool>,
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
    next_seq: AtomicU64,
}

impl JobService {
    pub fn new(cfg: ServeConfig) -> Self {
        assert!(cfg.workers >= 1 && cfg.pool_worlds >= 1);
        let pool = WorldPool::with_capacity(cfg.pool_worlds);
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                queue: Vec::new(),
                running: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let workers = (0..cfg.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let pool = Arc::clone(&pool);
                let slice_steps = cfg.slice_steps;
                let max_reschedules = cfg.max_reschedules;
                std::thread::spawn(move || worker_loop(shared, pool, slice_steps, max_reschedules))
            })
            .collect();
        JobService {
            estimator: AdmissionEstimator::new(cfg.machine.clone()),
            cfg,
            pool,
            shared,
            workers,
            next_id: AtomicU64::new(1),
            next_seq: AtomicU64::new(0),
        }
    }

    /// Admit a job or refuse it with a typed [`AdmissionError`]. An
    /// accepted job WILL reach a terminal state — `Done`, or `Failed` only
    /// past the reschedule backstop.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, AdmissionError> {
        let prediction =
            self.estimator
                .predict(&spec.system, spec.grid, spec.config.r_comm(), spec.steps);
        if let Some(max_ms) = self.cfg.max_predicted_ms {
            if prediction.total_ms > max_ms {
                return Err(AdmissionError::PredictedTooLong {
                    predicted_ms: prediction.total_ms,
                    max_ms,
                });
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Job::new(id, spec).map_err(AdmissionError::Infeasible)?;
        let slot = Arc::new(Slot {
            m: Mutex::new(SlotInner {
                status: JobStatus {
                    id,
                    name: job.name().to_string(),
                    state: JobState::Queued,
                    priority: job.priority(),
                    steps_done: 0,
                    steps_total: job.steps_total(),
                    reschedules: 0,
                    recoveries: 0,
                    queue_wait: Duration::ZERO,
                    predicted_step_ns: prediction.step_ns,
                    error: None,
                },
                result: None,
            }),
            cv: Condvar::new(),
        });
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        {
            let mut st = self.shared.state.lock().unwrap();
            if st.queue.len() >= self.cfg.max_queue {
                return Err(AdmissionError::QueueFull {
                    queued: st.queue.len(),
                    max: self.cfg.max_queue,
                });
            }
            // Late arrivals start at the current minimum virtual time so
            // they compete fairly instead of starving incumbents.
            let vtime = st.queue.iter().map(|q| q.vtime).min().unwrap_or(0);
            st.queue.push(QueuedJob {
                job,
                slot: Arc::clone(&slot),
                vtime,
                seq,
                predicted_step_ns: prediction.step_ns,
                submitted: Instant::now(),
            });
        }
        self.shared.cv.notify_all();
        Ok(JobHandle { slot })
    }

    /// Pool accounting (world builds, reuses, poisoned returns).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Stop accepting progress once the queue drains, and join the
    /// workers. Every already-admitted job still runs to a terminal state.
    pub fn shutdown(&mut self) {
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(
    shared: Arc<Shared>,
    pool: Arc<WorldPool>,
    slice_steps: usize,
    max_reschedules: usize,
) {
    loop {
        let mut entry = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(i) = pick_index(&st.queue) {
                    st.running += 1;
                    break st.queue.remove(i);
                }
                // Only exit when nothing queued AND nothing in flight: a
                // running job may fail and re-queue itself.
                if st.shutdown && st.running == 0 {
                    return;
                }
                st = shared.cv.wait(st).unwrap();
            }
        };
        {
            let mut inner = entry.slot.m.lock().unwrap();
            if inner.status.state == JobState::Queued {
                inner.status.queue_wait = entry.submitted.elapsed();
            }
            inner.status.state = JobState::Running;
        }
        let before = entry.job.step();
        // The lease is back with the pool (or its poisoned slot freed) when
        // `advance` returns, so a blocked worker can proceed immediately.
        let outcome = entry.job.advance(pool.lease(entry.job.key()), slice_steps);
        // Fair share charges the steps that stuck, failed slice or not.
        entry.vtime += entry.predicted_step_ns as u128 * (entry.job.step() - before) as u128
            / entry.job.priority().weight() as u128;
        let (state, outcome) = match &outcome {
            Ok(stats) if entry.job.done() => (JobState::Done, Ok(stats)),
            Ok(stats) => (JobState::Running, Ok(stats)),
            // Reschedule, not fail: the job sits at its last good segment
            // and the next dispatch replays from there on a fresh world.
            Err(e) if entry.job.reschedules < max_reschedules => {
                entry.job.reschedules += 1;
                (JobState::Running, Err(format!("rescheduled after: {e}")))
            }
            Err(e) => (JobState::Failed, Err(e.to_string())),
        };
        let mut inner = entry.slot.m.lock().unwrap();
        inner.publish(&entry.job, state, outcome);
        if state == JobState::Running {
            drop(inner);
            finish_dispatch(&shared, Some(entry));
            continue;
        }
        if state == JobState::Done {
            let (system, energies) = entry.job.into_result();
            inner.result = Some(JobResult { system, energies });
        }
        drop(inner);
        entry.slot.cv.notify_all();
        finish_dispatch(&shared, None);
    }
}

/// A worker is done with its job: back in the queue, or terminal.
fn finish_dispatch(shared: &Shared, requeue: Option<QueuedJob>) {
    let mut st = shared.state.lock().unwrap();
    st.running -= 1;
    st.queue.extend(requeue);
    drop(st);
    shared.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use halox_engine::{EngineConfig, ExchangeBackend};
    use halox_md::{GrappaBuilder, MinimizeOptions};
    use halox_shmem::WorldBackend;

    fn relaxed_system(n: usize, seed: u64) -> System {
        let mut sys = GrappaBuilder::new(n).seed(seed).temperature(200.0).build();
        halox_md::minimize::steepest_descent(&mut sys, MinimizeOptions::default());
        sys
    }

    fn spec(name: &str, sys: &System, steps: usize, priority: Priority) -> JobSpec {
        let mut config = EngineConfig::new(ExchangeBackend::NvshmemFused);
        config.nstlist = 5;
        config.world_backend = WorldBackend::Threads;
        config.checkpoint = None;
        JobSpec {
            name: name.into(),
            system: sys.clone(),
            grid: [2, 1, 1],
            config,
            steps,
            priority,
        }
    }

    #[test]
    fn service_runs_jobs_to_done_bitwise() {
        let sys = relaxed_system(3000, 31);
        let solo = {
            let s = spec("solo", &sys, 10, Priority::Normal);
            let mut engine = halox_engine::Engine::new(
                sys.clone(),
                halox_dd::DdGrid::new(s.grid),
                s.config.clone(),
            );
            engine.run(10)
        };
        let mut svc = JobService::new(ServeConfig {
            pool_worlds: 2,
            workers: 2,
            slice_steps: 5,
            ..ServeConfig::default()
        });
        let handles: Vec<JobHandle> = (0..4)
            .map(|i| {
                svc.submit(spec(&format!("job-{i}"), &sys, 10, Priority::Normal))
                    .unwrap()
            })
            .collect();
        for h in &handles {
            let (status, result) = h.wait();
            assert_eq!(status.state, JobState::Done, "{:?}", status.error);
            assert_eq!(status.steps_done, 10);
            let result = result.unwrap();
            assert_eq!(result.energies.len(), 10usize.div_ceil(5));
            halox_md::assert_energies_bitwise("job vs solo", &solo.energies, &result.energies);
        }
        svc.shutdown();
        let stats = svc.pool_stats();
        assert!(stats.built <= 2, "pool must cap world builds: {stats:?}");
        assert!(stats.reused >= 1, "worlds must recycle: {stats:?}");
    }

    #[test]
    fn admission_rejects_overlong_and_overfull() {
        let sys = relaxed_system(3000, 32);
        let svc = JobService::new(ServeConfig {
            pool_worlds: 1,
            workers: 1,
            max_queue: 0,
            max_predicted_ms: Some(0.000_001),
            ..ServeConfig::default()
        });
        let err = svc
            .submit(spec("too-long", &sys, 1_000_000, Priority::Normal))
            .expect_err("must exceed the latency budget");
        assert!(
            matches!(err, AdmissionError::PredictedTooLong { .. }),
            "{err}"
        );

        let svc = JobService::new(ServeConfig {
            pool_worlds: 1,
            workers: 1,
            max_queue: 0,
            ..ServeConfig::default()
        });
        let err = svc
            .submit(spec("no-room", &sys, 10, Priority::Normal))
            .expect_err("zero-length queue admits nothing");
        assert!(matches!(err, AdmissionError::QueueFull { .. }), "{err}");
    }

    #[test]
    fn fair_share_pick_prefers_low_vtime_then_weight() {
        let sys = relaxed_system(3000, 33);
        let mk = |name: &str, p: Priority, vtime: u128, seq: u64| QueuedJob {
            job: Job::new(seq, spec(name, &sys, 10, p)).unwrap(),
            slot: Arc::new(Slot {
                m: Mutex::new(SlotInner {
                    status: JobStatus {
                        id: seq,
                        name: name.into(),
                        state: JobState::Queued,
                        priority: p,
                        steps_done: 0,
                        steps_total: 10,
                        reschedules: 0,
                        recoveries: 0,
                        queue_wait: Duration::ZERO,
                        predicted_step_ns: 1,
                        error: None,
                    },
                    result: None,
                }),
                cv: Condvar::new(),
            }),
            vtime,
            seq,
            predicted_step_ns: 1,
            submitted: Instant::now(),
        };
        // Lowest vtime wins outright.
        let q = vec![
            mk("a", Priority::High, 100, 0),
            mk("b", Priority::Low, 10, 1),
        ];
        assert_eq!(pick_index(&q), Some(1));
        // Equal vtime: the heavier priority goes first.
        let q = vec![
            mk("a", Priority::Low, 50, 0),
            mk("b", Priority::High, 50, 1),
        ];
        assert_eq!(pick_index(&q), Some(1));
        // Full tie: FIFO.
        let q = vec![
            mk("a", Priority::Normal, 50, 0),
            mk("b", Priority::Normal, 50, 1),
        ];
        assert_eq!(pick_index(&q), Some(0));
    }
}
