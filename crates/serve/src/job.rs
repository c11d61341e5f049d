//! A trajectory as a schedulable value.
//!
//! [`Job`] owns one [`Engine`] for its whole lifetime — the engine *is* the
//! trajectory frontier (DESIGN.md §3.6) — and lends it a leased world for
//! one slice at a time. Between slices the job is parked: no world, no
//! symmetric buffers, just the gathered system and its history, so a job
//! can hop workers (and worlds) between slices while staying
//! bitwise-identical to a solo run.

use halox_dd::DdGrid;
use halox_engine::{Engine, EngineConfig, EngineError, RunStats, WorldKey, WorldLease};
use halox_md::{EnergyReport, System};

pub type JobId = u64;

/// Scheduling priority; the weight is the job's fair-share of service time
/// (a `High` job accrues virtual time at a quarter of a `Low` job's rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    Low,
    Normal,
    High,
}

impl Priority {
    pub fn weight(self) -> u64 {
        match self {
            Priority::Low => 1,
            Priority::Normal => 2,
            Priority::High => 4,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// Everything needed to admit and run one trajectory.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub name: String,
    pub system: System,
    pub grid: [usize; 3],
    pub config: EngineConfig,
    /// Total MD steps the job must complete.
    pub steps: usize,
    pub priority: Priority,
}

/// One admitted trajectory: its engine, plus what the service schedules by.
pub struct Job {
    id: JobId,
    name: String,
    priority: Priority,
    steps_total: usize,
    key: WorldKey,
    /// The trajectory, always at a segment boundary (or the job end). Its
    /// chaos engine and health board live as long as the job, so a one-shot
    /// fault trigger consumed before a reschedule stays consumed.
    engine: Engine,
    /// Times this job was re-queued after a failed slice (the service
    /// increments this).
    pub reschedules: usize,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("priority", &self.priority)
            .field("step", &self.step())
            .field("steps_total", &self.steps_total)
            .field("reschedules", &self.reschedules)
            .field("chaotic", &self.engine.config.chaos.is_some())
            .finish_non_exhaustive()
    }
}

impl Job {
    /// Admit a spec: validate that the system decomposes on its grid (the
    /// same typed errors a run would surface) and fix the world key.
    pub fn new(id: JobId, spec: JobSpec) -> Result<Self, EngineError> {
        let engine = Engine::new(spec.system, DdGrid::new(spec.grid), spec.config);
        Ok(Job {
            id,
            name: spec.name,
            priority: spec.priority,
            steps_total: spec.steps,
            key: engine.world_key()?,
            engine,
            reschedules: 0,
        })
    }

    pub fn id(&self) -> JobId {
        self.id
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The pool key this job's slices lease worlds under.
    pub fn key(&self) -> WorldKey {
        self.key
    }

    /// Steps completed (the engine's frontier).
    pub fn step(&self) -> usize {
        self.engine.resumed().map_or(0, |(step, _)| step as usize)
    }

    pub fn steps_total(&self) -> usize {
        self.steps_total
    }

    pub fn done(&self) -> bool {
        self.step() >= self.steps_total
    }

    /// The next slice length: at most `max_steps`, rounded down to whole
    /// neighbour-search segments so suspension lands on a segment boundary
    /// — a mid-segment suspend would change repartition points and break
    /// the bitwise-vs-solo contract. Only the job's final slice may be a
    /// partial segment (the solo run ends on the same partial segment).
    pub fn next_slice(&self, max_steps: usize) -> usize {
        let remaining = self.steps_total.saturating_sub(self.step());
        let nst = self.engine.config.nstlist.max(1);
        let aligned = (max_steps / nst).max(1) * nst;
        remaining.min(aligned)
    }

    /// Run one slice on `lease` and park again: the lease is back with its
    /// pool (poisoned, after a failure) before this returns. Every segment
    /// that completed moved the frontier, so after an `Err` the job sits at
    /// its last good segment, ready to replay from there on a fresh world —
    /// the caller only has to re-queue it. The stats are the engine's:
    /// cumulative over the job, like a solo run's.
    pub fn advance(
        &mut self,
        lease: WorldLease,
        max_steps: usize,
    ) -> Result<RunStats, EngineError> {
        let slice = self.next_slice(max_steps);
        self.engine.attach_world(lease);
        let result = self.engine.try_run(slice);
        drop(self.engine.take_world());
        if result.is_err() {
            self.engine.prepare_replay();
        }
        result
    }

    /// Consume the finished job into its final system and full energy
    /// history (one report per `nstlist` steps, from step 0).
    pub fn into_result(self) -> (System, Vec<EnergyReport>) {
        let energies = self
            .engine
            .suspend()
            .map_or_else(Vec::new, |ck| ck.energies);
        (self.engine.system, energies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halox_engine::ExchangeBackend;
    use halox_md::{GrappaBuilder, MinimizeOptions};
    use halox_shmem::WorldBackend;

    fn relaxed_system(n: usize, seed: u64) -> System {
        let mut sys = GrappaBuilder::new(n).seed(seed).temperature(200.0).build();
        halox_md::minimize::steepest_descent(&mut sys, MinimizeOptions::default());
        sys
    }

    fn spec(name: &str, sys: &System, steps: usize) -> JobSpec {
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
            priority: Priority::Normal,
        }
    }

    #[test]
    fn sliced_job_matches_solo_run_bitwise() {
        let sys = relaxed_system(3000, 21);
        let solo_spec = spec("solo", &sys, 12);
        let mut solo = Engine::new(
            sys.clone(),
            DdGrid::new(solo_spec.grid),
            solo_spec.config.clone(),
        );
        let solo_stats = solo.run(12);

        let mut job = Job::new(1, spec("sliced", &sys, 12)).unwrap();
        let mut slices = 0;
        while !job.done() {
            job.advance(WorldLease::solo(job.key()), 5).unwrap();
            slices += 1;
        }
        // 5 + 5 + 2: the final slice is the trailing partial segment.
        assert_eq!(slices, 3);
        assert_eq!(job.step(), 12);
        let (system, energies) = job.into_result();
        assert_eq!(energies.len(), 12usize.div_ceil(5), "energy steps 0, 5, 10");
        halox_md::assert_energies_bitwise("sliced vs solo", &solo_stats.energies, &energies);
        for (a, b) in solo.system.positions.iter().zip(&system.positions) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
    }

    #[test]
    fn slices_align_to_segments() {
        let sys = relaxed_system(3000, 22);
        let job = Job::new(2, spec("align", &sys, 23)).unwrap();
        assert_eq!(job.next_slice(7), 5, "rounded down to one segment");
        assert_eq!(job.next_slice(10), 10);
        assert_eq!(job.next_slice(3), 5, "never a mid-trajectory partial");
        assert_eq!(job.next_slice(100), 23, "final stretch runs to the end");
    }

    #[test]
    fn job_debug_is_a_summary() {
        let sys = relaxed_system(3000, 23);
        let job = Job::new(3, spec("dbg", &sys, 10)).unwrap();
        let dbg = format!("{job:?}");
        assert!(dbg.contains("Job") && dbg.contains("steps_total"), "{dbg}");
        assert!(dbg.len() < 500, "{}", dbg.len());
    }
}
