//! The domain-decomposed MD engine: multi-PE time stepping over a halo
//! exchange backend.
//!
//! This module is the run loop around the step program of `crate::step`
//! (the GPU-resident step skeleton of the paper's Algorithm 2): every
//! `nstlist` steps the decomposition is rebuilt centrally (the role of
//! GROMACS' neighbour-search / DD repartition step), each rank runs the
//! segment — one PE per DD rank over a `ShmemWorld`, or every rank on the
//! calling thread under [`RunMode::Serial`] — and home atoms are gathered
//! back into the global system. Around that sit the failure ladder (retry
//! → transport downgrade → replay from the frontier, in the order of
//! [`crate::health::next_rung`]) and the run statistics.

use crate::checkpoint::{Checkpoint, CheckpointError, ConfigFingerprint, StatsSnapshot};
use crate::config::{CheckpointConfig, DlbMode, EngineConfig, ExchangeBackend, RunMode};
use crate::devtimer::PhaseTimer;
use crate::dlb::DlbController;
use crate::health::{next_rung, HealthBoard, Rung};
use crate::step::{self, PeTransport, RankResult, ReferenceTransport};
use halox_core::{build_contexts, CommContext, ExchangeError, FusedBuffers, StallReport, Watchdog};
use halox_dd::{
    try_build_partition_with, try_choose_grid, DdGrid, DdPartition, GridError, GridOptions,
    PlanError,
};
use halox_md::{EnergyReport, System};
use halox_shmem::{
    ChaosEngine, ProxyConfig, ShmemWorld, TwoSidedComm, WireError, WorldKey, WorldLease,
};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sleep before a retry on the same transport (lets a transient fault
/// clear).
const RETRY_BACKOFF: Duration = Duration::from_millis(5);

/// Aggregated results of a run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Global energies (summed over ranks) of the energy steps: entry `k`
    /// is absolute step `k · nstlist`, so a trajectory `steps` long holds
    /// `steps.div_ceil(nstlist)` of them. The steps in between compute
    /// forces only (DESIGN.md §3.3).
    pub energies: Vec<EnergyReport>,
    pub steps: usize,
    pub wall_seconds: f64,
    /// ns/day achieved by the functional engine (wall-clock based — this is
    /// host performance of the reproduction, not the paper's GPU numbers;
    /// those come from the timing plane).
    pub ns_per_day: f64,
    /// Segment retries on the same transport after a diagnosed stall.
    pub retries: usize,
    /// Transport downgrades (fused → fallback), in run order.
    pub downgrades: Vec<Downgrade>,
    /// Every stall diagnosis collected across the run (retried segments
    /// included — a recovered run still documents what it survived).
    pub stall_reports: Vec<StallReport>,
    /// Steps executed on the fallback transport.
    pub degraded_steps: usize,
    /// Peers re-promoted to the primary transport after rehabilitation.
    pub repromotions: usize,
    /// Faults the chaos engine actually injected (0 for fault-free runs).
    pub faults_injected: u64,
    /// Replays: segment failures survived, after retries and the fallback,
    /// by re-running the failed segment from the frontier on a fresh world
    /// (DESIGN.md §3.6). Cumulative across resumes.
    pub recoveries: usize,
    /// Steps of the segments those replays re-ran — the work a replay
    /// discards (one segment each). Cumulative across resumes.
    pub rewound_steps: usize,
    /// Checkpoints persisted during the trajectory (cumulative).
    pub checkpoints_written: usize,
    /// Corrupt checkpoint files skipped while resolving the resume point —
    /// the warning counter behind the fall-back-to-previous-checkpoint
    /// tolerance (0 unless this engine came from [`Engine::resume_latest`]).
    pub corrupt_checkpoints_skipped: usize,
    /// Orphaned pid-qualified `*.tmp` files (atomic-rename leftovers from
    /// crashed writers) swept from the checkpoint directory when this
    /// engine first opened it (0 with checkpointing off).
    pub orphan_tmp_swept: usize,
    /// Wall-clock step-phase breakdown, aggregated over ranks and segments
    /// (`nb_local`, `nb_halo`, `pack_overlap`, `pairlist`, ...). Sums of
    /// per-rank wall time, so with N threaded ranks a phase can total more
    /// than `wall_seconds`.
    pub phases: PhaseTimer,
    /// Per-rank DLB load totals summed over this call's segments (the
    /// counter metric). Also populated with DLB off — it is how the
    /// static baseline's imbalance is measured. Only a segment's successful
    /// attempt counts, so a run with faults reads like a fault-free one.
    pub rank_loads: Vec<u64>,
    /// Σ over segments of the *maximum* per-rank load — the critical-path
    /// work a perfectly synchronized machine would execute serially.
    pub critical_load: u64,
    /// Boundary updates the DLB controller applied during this call.
    pub dlb_updates: usize,
}

impl RunStats {
    /// Energies of the last energy step completed — step
    /// `(energies.len() - 1) · nstlist`, not necessarily the last step —
    /// `None` for a zero-step run. Prefer this over indexing `energies`:
    /// `run(0)` is a legal request (e.g. a partition-only warm-up) and must
    /// not panic downstream.
    pub fn final_energy(&self) -> Option<&EnergyReport> {
        self.energies.last()
    }

    /// Max/mean ratio of the per-rank load totals — 1.0 is perfect
    /// balance; `None` for a zero-step (or zero-load) run.
    pub fn load_ratio(&self) -> Option<f64> {
        let n = self.rank_loads.len();
        let total: u64 = self.rank_loads.iter().sum();
        if n == 0 || total == 0 {
            return None;
        }
        let max = *self.rank_loads.iter().max().expect("n > 0") as f64;
        Some(max / (total as f64 / n as f64))
    }
}

/// One transport downgrade event: at which step the run flipped from the
/// primary exchange path to the fallback, and which peers were implicated.
#[derive(Debug, Clone)]
pub struct Downgrade {
    /// Global step count completed when the downgrade happened.
    pub at_step: usize,
    pub from: ExchangeBackend,
    pub to: ExchangeBackend,
    /// Suspect peers named by the stall reports that triggered it.
    pub suspects: Vec<usize>,
}

/// A run that could not be completed even on the fallback transport, or a
/// configuration the decomposition machinery rejects outright.
#[derive(Debug)]
pub enum EngineError {
    /// A segment failed on `backend` after exhausting retries and (when
    /// available) the downgrade and the replays.
    SegmentFailed {
        /// Global step count completed when the segment gave up.
        at_step: usize,
        backend: ExchangeBackend,
        /// Per-rank exchange errors from the final attempt.
        errors: Vec<ExchangeError>,
    },
    /// Configuration time: no feasible DD grid for the requested rank count
    /// on this box (the inner error carries both).
    InfeasibleGrid(GridError),
    /// Configuration time: the decomposition plan could not be built (a
    /// bonded term spans more than two domains, cells too thin for the pulse
    /// chain, or a periodic non-decomposed dimension narrower than
    /// `2 · r_comm`; the inner error names atoms, dimension and lengths).
    PlanFailed(PlanError),
    /// Checkpoint subsystem failure: an unwritable checkpoint directory, no
    /// valid file to resume from, or a fingerprint mismatch between the
    /// checkpoint and the resuming configuration.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::SegmentFailed {
                at_step,
                backend,
                errors,
            } => {
                write!(
                    f,
                    "segment at step {} failed on {} with {} rank error(s)",
                    at_step,
                    backend.label(),
                    errors.len()
                )?;
                for e in errors {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
            EngineError::InfeasibleGrid(e) => write!(f, "{e}"),
            EngineError::PlanFailed(e) => write!(f, "{e}"),
            EngineError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Why one segment attempt failed (internal to the recovery ladder).
enum SegmentFailure {
    /// Plan construction failed before any world existed: a configuration
    /// error no retry or transport downgrade can fix.
    Plan(PlanError),
    /// Per-rank exchange errors from this attempt (stalls, dead PEs).
    Ranks(Vec<ExchangeError>),
}

/// The engine owns the global system and runs it decomposed over `grid`.
///
/// It is its own trajectory frontier (DESIGN.md §3.6): `system`, the DLB
/// bounds, `step`, `energies` and `stats` advance together, in place, once
/// per successful segment and at no other time (the recovery counters of
/// `stats` also count the failures survived on the way). After any `Ok` or
/// `Err` from `try_run*` they describe one segment boundary, so the engine
/// can be run again, suspended or checkpointed.
pub struct Engine {
    /// The gathered global state at the frontier.
    pub system: System,
    pub grid: DdGrid,
    pub config: EngineConfig,
    /// Steps completed. Durable numbering: every `try_run*` continues it.
    step: usize,
    /// Energy history of the energy steps in `[0, step)`
    /// (`step.div_ceil(nstlist)` reports; see [`RunStats::energies`]).
    energies: Vec<EnergyReport>,
    /// Durable recovery counters up to `step` (cumulative across resumes).
    stats: StatsSnapshot,
    /// Movable DD cell boundaries + the balancing policy (DESIGN.md §3.8).
    /// Always present; with `config.dlb == Off` the bounds simply stay
    /// uniform and `update` is never called. The bounds are frontier state:
    /// checkpointed and restored on resume.
    dlb: DlbController,
    /// Corrupt files skipped while resolving the resume point (0 unless
    /// this engine came from [`Engine::resume_latest`]).
    corrupt_skipped: usize,
    /// Symmetric buffers kept across segments (GROMACS-style
    /// over-allocation, paper §5.3: "thanks to the over-allocation strategy,
    /// resizing is rarely required"). Dropped with the world lease
    /// ([`Engine::take_world`]) and before a replay.
    cached_buffers: Option<(FusedBuffers, usize, usize)>,
    /// How many times a segment had to reallocate the symmetric buffers.
    pub realloc_count: usize,
    /// Chaos engine shared by every segment's world, built lazily at the
    /// first segment (when the PE count is known). One engine for the whole
    /// run keeps operation counters — and thus fault schedules —
    /// deterministic across segment boundaries.
    chaos: Option<Arc<ChaosEngine>>,
    /// Per-peer degradation ladder, one entry per DD rank.
    health: HealthBoard,
    /// Step-phase wall-clock accumulator for the current run (reset at the
    /// start of every `try_run*`, merged from each segment's ranks).
    phases: PhaseTimer,
    /// The world lease segments run on: attached ([`Engine::attach_world`],
    /// pool-recycled) or, from the first segment of an engine nobody
    /// attached one to, a solo lease. Poisoned on any failed attempt so
    /// retries and replays get a fresh world.
    leased: Option<WorldLease>,
    /// `Some(n)` once the checkpoint directory has been opened and swept of
    /// orphaned writer tmp files; the sweep runs once per engine.
    orphans_swept: Option<usize>,
    /// Per-rank load totals of the current run (reset per `try_run*`).
    run_loads: Vec<u64>,
    /// Σ of per-segment maximum loads of the current run.
    run_critical: u64,
    /// DLB updates applied during the current run.
    run_dlb_updates: usize,
}

/// A summary, not a dump: `system` alone is tens of thousands of floats.
impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("n_atoms", &self.system.n_atoms())
            .field("grid", &self.grid.dims)
            .field("backend", &self.config.backend)
            .field("run_mode", &self.config.run_mode)
            .field("world_backend", &self.config.world_backend)
            .field("frontier_step", &self.step)
            .field("leased_world", &self.leased.is_some())
            .finish_non_exhaustive()
    }
}

impl Engine {
    pub fn new(system: System, grid: DdGrid, config: EngineConfig) -> Self {
        let dlb = DlbController::new(&grid, system.pbc.lengths(), config.r_comm());
        let health = HealthBoard::new(grid.dims.iter().product());
        Engine {
            system,
            grid,
            config,
            step: 0,
            energies: Vec::new(),
            stats: StatsSnapshot::default(),
            dlb,
            corrupt_skipped: 0,
            cached_buffers: None,
            realloc_count: 0,
            chaos: None,
            health,
            phases: PhaseTimer::new(),
            leased: None,
            orphans_swept: None,
            run_loads: Vec::new(),
            run_critical: 0,
            run_dlb_updates: 0,
        }
    }

    /// The movable cell boundaries the next segment will partition under
    /// (uniform until a DLB update shifts them or a resume restores
    /// shifted ones).
    pub fn bounds(&self) -> &halox_dd::DdBounds {
        &self.dlb.bounds
    }

    /// Build an engine with an automatically chosen DD grid for `n_ranks`,
    /// surfacing an infeasible decomposition as a typed configuration-time
    /// error — the message carries the rank count and box — instead of a
    /// panic from deep inside grid selection.
    pub fn try_new_auto(
        system: System,
        n_ranks: usize,
        opts: &GridOptions,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        let grid = try_choose_grid(n_ranks, system.pbc.lengths(), opts)
            .map_err(EngineError::InfeasibleGrid)?;
        Ok(Engine::new(system, grid, config))
    }

    /// Reconstruct a run mid-trajectory from one checkpoint file: the next
    /// `run(n)` advances `n` *further* steps and its `RunStats` — steps,
    /// energies, recovery counters — reads as if the trajectory had never
    /// been interrupted (bitwise, per the conformance suite). The
    /// checkpoint's fingerprint must match `config`; a resume under a
    /// different transport/kernel/timestep/grid is refused with
    /// [`EngineError::Checkpoint`] carrying the offending field.
    pub fn resume_from(path: &Path, config: EngineConfig) -> Result<Self, EngineError> {
        let ck = Checkpoint::read(path).map_err(EngineError::Checkpoint)?;
        Self::from_checkpoint(ck, 0, config)
    }

    /// [`Engine::resume_from`] the newest *readable* checkpoint in `dir`:
    /// corrupt files (torn writes, bit flips) are skipped with a warning
    /// counter — surfaced as `RunStats::corrupt_checkpoints_skipped` —
    /// falling back to the previous checkpoint rather than failing.
    pub fn resume_latest(dir: &Path, config: EngineConfig) -> Result<Self, EngineError> {
        let (ck, skipped) = Checkpoint::latest_valid(dir).map_err(EngineError::Checkpoint)?;
        Self::from_checkpoint(ck, skipped, config)
    }

    fn from_checkpoint(
        ck: Checkpoint,
        corrupt_skipped: usize,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        let (gx, gy, gz) = ck.fingerprint.grid;
        // Validate before DdGrid::new, which asserts — corrupt-but-CRC-valid
        // input must surface as a typed error, never a panic. One energy
        // per energy step (checkpoint v3).
        let want_energies = usize::try_from(ck.step)
            .map(|step| step::energy_steps_before(step, ck.fingerprint.nstlist));
        if gx == 0 || gy == 0 || gz == 0 || want_energies != Ok(ck.energies.len()) {
            return Err(EngineError::Checkpoint(CheckpointError::Decode(
                WireError::malformed(format!(
                    "inconsistent checkpoint: grid {:?}, {} energies for step {} at nstlist {}",
                    ck.fingerprint.grid,
                    ck.energies.len(),
                    ck.step,
                    ck.fingerprint.nstlist
                )),
            )));
        }
        let grid = DdGrid::new([gx, gy, gz]);
        // Same discipline as the grid/energies check above: CRC-valid but
        // inconsistent boundary vectors must be a typed error, not a panic
        // (or worse, a silent mis-partition) downstream.
        if let Err(e) = ck.bounds.validate(&grid) {
            return Err(EngineError::Checkpoint(CheckpointError::Decode(
                WireError::malformed(format!("inconsistent checkpoint bounds: {e}")),
            )));
        }
        let expected = ConfigFingerprint::of(&config, grid.dims, ck.system.n_atoms());
        ck.fingerprint
            .check(&expected)
            .map_err(EngineError::Checkpoint)?;
        let mut engine = Engine::new(ck.system, grid, config);
        engine.dlb.bounds = ck.bounds;
        engine.step = ck.step as usize;
        engine.energies = ck.energies;
        engine.stats = ck.stats;
        engine.corrupt_skipped = corrupt_skipped;
        Ok(engine)
    }

    /// [`Engine::resume_from`] without the filesystem: resume directly from
    /// an in-memory checkpoint. This is the suspend/resume path of the job
    /// service, where trajectory state travels between workers as a value
    /// rather than a file. Same fingerprint discipline as the file path: a
    /// resume under a different transport/kernel/timestep/grid is refused.
    pub fn resume_from_checkpoint(
        ck: Checkpoint,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        Self::from_checkpoint(ck, 0, config)
    }

    /// Snapshot the trajectory frontier as an in-memory checkpoint — the
    /// counterpart of [`Engine::resume_from_checkpoint`]. Suspending between
    /// runs (after an `Ok` or an `Err`) and resuming on another engine is
    /// bitwise-equivalent to running straight through. Always `Some`: an
    /// engine is its own frontier from construction on (the `Option` is the
    /// signature callers were written against).
    pub fn suspend(&self) -> Option<Checkpoint> {
        Some(self.checkpoint())
    }

    /// The frontier as a [`Checkpoint`] — the one place engine state
    /// becomes one; `suspend` and the cadence write both come here.
    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            fingerprint: self.fingerprint(),
            step: self.step as u64,
            system: self.system.clone(),
            energies: self.energies.clone(),
            stats: self.stats,
            bounds: self.dlb.bounds.clone(),
        }
    }

    /// Persist the frontier to `cfg.dir`. A snapshot counts itself, so the
    /// tally stays exact across resumes; a failed write counts nothing and
    /// leaves the frontier where it was.
    fn write_checkpoint(&mut self, cfg: &CheckpointConfig) -> Result<(), EngineError> {
        let mut ck = self.checkpoint();
        ck.stats.checkpoints_written += 1;
        ck.write_atomic(&cfg.dir).map_err(EngineError::Checkpoint)?;
        self.stats = ck.stats;
        Ok(())
    }

    /// Attach a world lease: segments run on the leased world (reset
    /// between uses, rebuilt when poisoned). [`Engine::take_world`] returns
    /// the lease — e.g. to give it back to a [`halox_shmem::WorldPool`]
    /// when the job suspends. An engine that never had a lease attached
    /// runs on a [`WorldLease::solo`] of its own, created by its first
    /// segment; attaching replaces (and drops) it.
    pub fn attach_world(&mut self, lease: WorldLease) {
        self.leased = Some(lease);
    }

    /// Detach and return the world lease, if any: the attached one, or the
    /// engine's own solo lease once a segment has run (`None` before that).
    /// The symmetric buffers cached for it go too, so an engine without a
    /// world holds no symmetric memory. After a failed run the returned
    /// lease is poisoned — dropping it frees the pool slot without
    /// recycling the world.
    pub fn take_world(&mut self) -> Option<WorldLease> {
        self.cached_buffers = None;
        self.leased.take()
    }

    /// Make the engine ready to replay from its frontier after a terminal
    /// segment failure: failed peers get a probation trial (the replay runs
    /// on a fresh world — fresh forks under the procs backend), chaos-killed
    /// PEs are revived, and the buffers of the abandoned attempt are
    /// dropped. Chaos op counters are NOT reset — one-shot fault triggers
    /// stay consumed, so kill schedules advance rather than re-killing every
    /// replay. Used by the replay rung and by a caller that re-runs an
    /// engine whose `try_run*` returned [`EngineError::SegmentFailed`].
    pub fn prepare_replay(&mut self) {
        self.cached_buffers = None;
        self.health.recover_failed();
        if let Some(c) = &self.chaos {
            c.revive_all();
        }
    }

    /// The pool key segments of this engine run under: world backend,
    /// topology for the DD rank count, and the signal-slot budget of the
    /// pulse schedule. Fails when the system cannot be decomposed on this
    /// grid (same typed error a run would hit).
    pub fn world_key(&self) -> Result<WorldKey, EngineError> {
        let part = try_build_partition_with(
            &self.system,
            &self.grid,
            &self.dlb.bounds,
            self.config.r_comm(),
            Some(self.dlb.pinned_pulses()),
        )
        .map_err(EngineError::PlanFailed)?;
        Ok(WorldKey {
            backend: self.config.world_backend,
            topology: self.config.topology(part.n_ranks()),
            n_signal_slots: CommContext::slots_needed(part.total_pulses()),
        })
    }

    /// `(steps completed, corrupt files skipped while resolving the resume
    /// point)` of the frontier. Always `Some`, like [`Engine::suspend`].
    pub fn resumed(&self) -> Option<(u64, usize)> {
        Some((self.step as u64, self.corrupt_skipped))
    }

    /// The configuration identity a checkpoint of this engine would carry.
    pub fn fingerprint(&self) -> ConfigFingerprint {
        ConfigFingerprint::of(&self.config, self.grid.dims, self.system.n_atoms())
    }

    /// Peer health: every peer `Healthy` until a run records otherwise.
    pub fn health(&self) -> &HealthBoard {
        &self.health
    }

    /// Step-phase timings of the most recent run (also in
    /// [`RunStats::phases`]).
    pub fn phases(&self) -> &PhaseTimer {
        &self.phases
    }

    /// Advance `n_steps`; returns the energy-step energies and throughput.
    /// Panics if the run fails even on the fallback transport — use
    /// [`Engine::try_run`] to handle that as a value.
    pub fn run(&mut self, n_steps: usize) -> RunStats {
        self.try_run(n_steps).expect("engine run failed")
    }

    /// Like [`Engine::run`], calling `observer(steps_done, &system)` after
    /// every neighbour-search segment, when the gathered global system is
    /// coherent — the hook for trajectory writing and on-the-fly analysis.
    pub fn run_with_observer(
        &mut self,
        n_steps: usize,
        observer: impl FnMut(usize, &System),
    ) -> RunStats {
        self.try_run_with_observer(n_steps, observer)
            .expect("engine run failed")
    }

    /// Fallible run: a segment that stalls past the watchdog deadline is
    /// retried, then downgraded to the fallback transport; only when even
    /// the fallback fails does the run abort with [`EngineError`].
    pub fn try_run(&mut self, n_steps: usize) -> Result<RunStats, EngineError> {
        self.try_run_with_observer(n_steps, |_, _| {})
    }

    /// Fallible [`Engine::run_with_observer`].
    ///
    /// `n_steps` means *additional* steps: numbering continues from the
    /// frontier, and the returned stats describe the whole trajectory
    /// (`steps` = frontier + `n_steps`, `energies` = every energy step's),
    /// so an interrupted run reads bitwise-identically to one that never
    /// crashed. On `Err` the frontier stays at the last segment boundary
    /// reached and the engine can be run again.
    ///
    /// Every failed segment attempt climbs the failure ladder of
    /// [`next_rung`] — retry, downgrade, replay, fail — and re-runs the same
    /// segment from the frontier, which a failed attempt never moves. With
    /// [`EngineConfig::checkpoint`] set, a snapshot is persisted every
    /// `every_segments` neighbour-search segments, and the replay rung is
    /// armed with `max_recoveries` replays per call. Observers see each
    /// segment boundary exactly once; the steps of replayed segments are
    /// counted in [`RunStats::rewound_steps`].
    pub fn try_run_with_observer(
        &mut self,
        n_steps: usize,
        mut observer: impl FnMut(usize, &System),
    ) -> Result<RunStats, EngineError> {
        let t0 = Instant::now();
        self.phases = PhaseTimer::new();
        self.run_loads.clear();
        self.run_critical = 0;
        self.run_dlb_updates = 0;
        // The chaos engine is built lazily, once per engine.
        if let (None, Some(plan)) = (&self.chaos, &self.config.chaos) {
            let n_ranks = self.grid.dims.iter().product();
            self.chaos = Some(Arc::new(ChaosEngine::new(plan.clone(), n_ranks)));
        }
        // Per-call diagnostics: they describe this `try_run*`, not the
        // trajectory (the durable counters are the frontier's `stats`).
        let mut downgrades = Vec::new();
        let mut stall_reports = Vec::new();
        let target = self.step + n_steps;
        let ckpt_cfg = self.config.checkpoint.clone();
        if let Some(cfg) = &ckpt_cfg {
            // First touch of the checkpoint directory: sweep orphaned
            // `.ckpt-*.hxck.tmp.<pid>` files another writer left behind when
            // it crashed between create and rename (once per engine;
            // surfaced as `RunStats::orphan_tmp_swept`).
            if self.orphans_swept.is_none() {
                self.orphans_swept = Some(Checkpoint::sweep_orphan_tmp(&cfg.dir));
            }
            // Baseline snapshot: a trajectory with no checkpoint yet gets
            // one of its starting frontier before any steps run.
            if self.stats.checkpoints_written == 0 {
                self.write_checkpoint(cfg)?;
            }
        }
        let wd = self.config.watchdog;
        let (primary, fallback) = (self.config.backend, wd.fallback);
        let mut replays_left = ckpt_cfg.as_ref().map_or(0, |c| c.max_recoveries);
        let mut seg_index = 0usize;
        while self.step < target {
            let steps = self.config.nstlist.min(target - self.step);
            let mut backend = self.board_backend();
            let mut retries_used = 0;
            // Vacuous under `RunMode::Serial`: the reference transport
            // performs no deliveries, so nothing can stall or be faulted.
            loop {
                let errors = match self.run_segment(steps, backend) {
                    Ok(()) => {
                        if backend == primary {
                            self.stats.repromotions += self.health.record_primary_success();
                        } else {
                            self.stats.degraded_steps += steps;
                            self.health.record_fallback_success(wd.repromote_after);
                        }
                        break;
                    }
                    // A mis-decomposed system: no rung can fix it, so
                    // surface it as a configuration error.
                    Err(SegmentFailure::Plan(e)) => return Err(EngineError::PlanFailed(e)),
                    Err(SegmentFailure::Ranks(errors)) => errors,
                };
                stall_reports.extend(errors.iter().filter_map(|e| e.stall().cloned()));
                let (suspects, any_died) = self.record_failure(&errors);
                match next_rung(
                    any_died,
                    backend == fallback,
                    retries_used,
                    replays_left,
                    &wd,
                ) {
                    Rung::Retry => {
                        retries_used += 1;
                        self.stats.retries += 1;
                        std::thread::sleep(RETRY_BACKOFF);
                    }
                    Rung::Downgrade => {
                        for &p in &suspects {
                            self.health.quarantine(p);
                        }
                        downgrades.push(Downgrade {
                            at_step: self.step,
                            from: backend,
                            to: fallback,
                            suspects,
                        });
                        backend = fallback;
                        retries_used = 0;
                    }
                    Rung::Replay => {
                        replays_left -= 1;
                        self.stats.recoveries += 1;
                        self.stats.rewound_steps += steps;
                        self.prepare_replay();
                        backend = self.board_backend();
                        retries_used = 0;
                    }
                    Rung::Fail => {
                        return Err(EngineError::SegmentFailed {
                            at_step: self.step,
                            backend,
                            errors,
                        })
                    }
                }
            }
            seg_index += 1;
            observer(self.step, &self.system);
            if let Some(cfg) = &ckpt_cfg {
                if seg_index.is_multiple_of(cfg.every_segments.max(1)) {
                    self.write_checkpoint(cfg)?;
                    Checkpoint::prune(&cfg.dir, cfg.keep.max(1));
                }
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        Ok(RunStats {
            steps: self.step,
            wall_seconds: wall,
            ns_per_day: if wall > 0.0 {
                (n_steps as f64 * self.config.dt_ps as f64 * 1e-3) / (wall / 86_400.0)
            } else {
                0.0
            },
            energies: self.energies.clone(),
            retries: self.stats.retries,
            downgrades,
            stall_reports,
            degraded_steps: self.stats.degraded_steps,
            repromotions: self.stats.repromotions,
            faults_injected: self.chaos.as_ref().map_or(0, |c| c.report().total()),
            recoveries: self.stats.recoveries,
            rewound_steps: self.stats.rewound_steps,
            checkpoints_written: self.stats.checkpoints_written,
            corrupt_checkpoints_skipped: self.corrupt_skipped,
            orphan_tmp_swept: self.orphans_swept.unwrap_or(0),
            phases: self.phases.clone(),
            rank_loads: self.run_loads.clone(),
            critical_load: self.run_critical,
            dlb_updates: self.run_dlb_updates,
        })
    }

    /// Record a failed attempt: poison the leased world — the attempt can
    /// have abandoned it mid-protocol (barrier sense, collective slots), so
    /// the next attempt, whatever its rung, runs on a fresh one — and put
    /// the attempt on the board: its suspects stalled, its dead PEs failed.
    /// Returns the suspects (sorted, without repeats) and whether a PE died.
    fn record_failure(&mut self, errors: &[ExchangeError]) -> (Vec<usize>, bool) {
        if let Some(lease) = self.leased.as_mut() {
            lease.poison();
        }
        let mut suspects: Vec<usize> = errors
            .iter()
            .filter_map(ExchangeError::suspect_peer)
            .collect();
        suspects.sort_unstable();
        suspects.dedup();
        for &p in &suspects {
            self.health.record_stall(p);
        }
        let mut any_died = false;
        for e in errors {
            if let ExchangeError::PeDied { peer, .. } = e {
                self.health.fail(*peer);
                any_died = true;
            }
        }
        (suspects, any_died)
    }

    /// The transport a segment (or a replay of it) starts on: the fallback
    /// while any peer is quarantined or failed, the primary otherwise.
    fn board_backend(&self) -> ExchangeBackend {
        if self.health.needs_fallback() {
            self.config.watchdog.fallback
        } else {
            self.config.backend
        }
    }

    /// One neighbour-search segment on one transport: partition, the step
    /// program of [`crate::step`] on every rank, then advance the frontier.
    /// A failed attempt leaves the frontier untouched (it moves only when
    /// every rank succeeds), so the caller can retry on a fresh world.
    fn run_segment(
        &mut self,
        steps: usize,
        backend: ExchangeBackend,
    ) -> Result<(), SegmentFailure> {
        let mut cfg = self.config.clone();
        cfg.backend = backend;
        let t0 = Instant::now();
        let part = try_build_partition_with(
            &self.system,
            &self.grid,
            &self.dlb.bounds,
            cfg.r_comm(),
            Some(self.dlb.pinned_pulses()),
        )
        .map_err(SegmentFailure::Plan)?;
        let n_ranks = part.n_ranks();
        // Every rank waits for the partition: one invocation each, whole
        // on a PE (the PEs wait side by side), in equal shares under the
        // serial executor, whose ranks' phases add up to its wall time.
        let built = match cfg.run_mode {
            RunMode::Serial => t0.elapsed() / n_ranks as u32,
            RunMode::Threaded => t0.elapsed(),
        };
        for _ in 0..n_ranks {
            self.phases.add("partition", built);
        }
        let ranks = match cfg.run_mode {
            // Every rank on this thread, phase by phase, over the reference
            // exchanges: no world, and `backend` plays no part.
            RunMode::Serial => {
                let transport = ReferenceTransport::new(&part);
                let (system, first) = (&self.system, self.step);
                step::run_segment(&transport, &part, 0..n_ranks, system, &cfg, first, steps)
                    .map_err(|e| SegmentFailure::Ranks(vec![e]))?
            }
            RunMode::Threaded => self.run_pes(&part, &cfg, steps)?,
        };

        self.advance_frontier(&part, &ranks, steps);
        Ok(())
    }

    /// The one place the frontier moves forward, called exactly once per
    /// *successful* segment, identically on both executors: gather home
    /// atoms back into the global system, append the segment's energy-step
    /// reports (folded in rank order), count the steps, fold the per-rank
    /// loads into the run accounting and, when DLB is on, shift the
    /// boundaries for the next segment.
    fn advance_frontier(&mut self, part: &DdPartition, ranks: &[RankResult], steps: usize) {
        let base = self.energies.len();
        let nstlist = self.config.nstlist;
        let recorded = step::energy_steps_before(self.step + steps, nstlist);
        debug_assert_eq!(base, step::energy_steps_before(self.step, nstlist));
        self.energies.resize(recorded, EnergyReport::default());
        let mut loads = Vec::with_capacity(ranks.len());
        for (plan, r) in part.ranks.iter().zip(ranks) {
            self.phases.merge(&r.phases);
            loads.push(r.work);
            for (k, &g) in plan.global_ids[..plan.n_home].iter().enumerate() {
                self.system.positions[g as usize] = self.system.pbc.wrap(r.positions[k]);
                self.system.velocities[g as usize] = r.velocities[k];
            }
            debug_assert_eq!(r.energies.len(), recorded - base);
            for (total, e) in self.energies[base..].iter_mut().zip(&r.energies) {
                total.nonbonded += e.nonbonded;
                total.bonds += e.bonds;
                total.angles += e.angles;
                total.kinetic += e.kinetic;
                total.virial += e.virial;
            }
        }
        self.step += steps;
        if self.run_loads.len() != loads.len() {
            self.run_loads = vec![0; loads.len()];
        }
        for (acc, &w) in self.run_loads.iter_mut().zip(&loads) {
            *acc += w;
        }
        self.run_critical += loads.iter().copied().max().unwrap_or(0);
        if self.config.dlb != DlbMode::Off {
            self.dlb.update(&loads);
            self.run_dlb_updates += 1;
        }
    }

    /// The [`RunMode::Threaded`] executor of one segment attempt: one PE
    /// per DD rank over the leased world, each advancing its own
    /// rank. Returns the ranks' results in rank order, or every PE's error.
    fn run_pes(
        &mut self,
        part: &DdPartition,
        cfg: &EngineConfig,
        steps: usize,
    ) -> Result<Vec<RankResult>, SegmentFailure> {
        let ctxs = build_contexts(part);
        let n_ranks = part.n_ranks();

        // The backend only picks how PEs are launched: the buffers and comm
        // below are fork-shared whichever it is, and need only exist before
        // `try_run`.
        let key = WorldKey {
            backend: cfg.world_backend,
            topology: cfg.topology(n_ranks),
            n_signal_slots: CommContext::slots_needed(part.total_pulses()),
        };
        // Modeled interconnect latency: the proxy thread pays it per
        // inter-node message, asynchronously to PE compute (see
        // `EngineConfig::link_delay_us`).
        let proxy_cfg = if cfg.link_delay_us > 0 {
            ProxyConfig {
                injected_delay: Some(Duration::from_micros(cfg.link_delay_us)),
                random_delay: None,
            }
        } else {
            ProxyConfig::default()
        };
        // The chaos engine targets signal/put deliveries, so it only bites
        // on the signal-driven transports — attaching it under the MPI
        // fallback is harmless (two-sided rendezvous performs no symmetric
        // deliveries), and keeps one engine for the whole run.
        // An engine nobody attached a lease to holds a solo one, so there is
        // one way to obtain a world: reuse the held world when clean and
        // the key matches, rebuild in place otherwise. Attachments are
        // per-tenant state, so they are (re)applied every segment.
        let lease = self.leased.get_or_insert_with(|| WorldLease::solo(key));
        let world = lease.world_for(key);
        world.set_trace(cfg.trace.clone());
        world.set_proxy_config(proxy_cfg);
        world.set_chaos(self.chaos.clone());
        let world: &ShmemWorld = world;
        // Symmetric allocation with over-allocation: reuse the buffers from
        // the previous segment when capacities still fit, else grow by 10%.
        let need_buf = ctxs[0].buf_capacity;
        let need_stage = ctxs[0].stage_capacity.max(1);
        let bufs = match self.cached_buffers.take() {
            Some((b, cap_buf, cap_stage)) if cap_buf >= need_buf && cap_stage >= need_stage => b,
            _ => {
                self.realloc_count += 1;
                let mut padded = ctxs[0].clone();
                padded.buf_capacity = need_buf + need_buf / 10;
                padded.stage_capacity = need_stage + need_stage / 10;
                FusedBuffers::alloc(n_ranks, &padded)
            }
        };
        let comm = TwoSidedComm::new(n_ranks);

        let (system, first_step) = (&self.system, self.step);
        let run = world.try_run(|pe| {
            let transport = PeTransport {
                pe,
                ctx: &ctxs[pe.id],
                bufs: &bufs,
                comm: &comm,
                cfg,
                wd: Watchdog::new(cfg.watchdog.deadline),
            };
            step::run_segment(
                &transport,
                part,
                pe.id..pe.id + 1,
                system,
                cfg,
                first_step,
                steps,
            )
        });

        // Capacity survives a failed attempt, so cache either way.
        self.cached_buffers = Some((bufs.clone(), bufs.coords.len(), bufs.force_stage.len()));

        // A PE died (process exit, or an uncaught panic): report one PeDied
        // per failure so the recovery ladder can mark the peer Failed and
        // flip to the fallback — never a hang, never an engine panic.
        let outcomes = run.map_err(|world_err| {
            SegmentFailure::Ranks(
                world_err
                    .failures
                    .into_iter()
                    .map(|(pe, cause)| ExchangeError::PeDied {
                        rank: pe,
                        peer: pe,
                        detail: cause.to_string(),
                    })
                    .collect(),
            )
        })?;
        let mut ranks = Vec::with_capacity(n_ranks);
        let mut errors = Vec::new();
        for outcome in outcomes {
            match outcome {
                Ok(advanced) => ranks.extend(advanced),
                Err(e) => errors.push(e),
            }
        }
        if errors.is_empty() {
            Ok(ranks)
        } else {
            Err(SegmentFailure::Ranks(errors))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halox_md::{
        assert_energies_bitwise, GrappaBuilder, MinimizeOptions, ReferenceSimulation, Vec3,
    };

    fn relaxed_system(n: usize, seed: u64) -> System {
        let mut sys = GrappaBuilder::new(n).seed(seed).temperature(200.0).build();
        halox_md::minimize::steepest_descent(&mut sys, MinimizeOptions::default());
        sys
    }

    fn run_engine(
        sys: &System,
        dims: [usize; 3],
        backend: ExchangeBackend,
        steps: usize,
    ) -> (System, RunStats) {
        let mut cfg = EngineConfig::new(backend);
        cfg.nstlist = 5;
        let mut engine = Engine::new(sys.clone(), DdGrid::new(dims), cfg);
        let stats = engine.run(steps);
        (engine.system, stats)
    }

    #[test]
    fn decomposed_forces_match_reference_first_step() {
        // Run one step with dt=0 on both the reference and the engine: the
        // recorded potential energies must agree (all pairs found once).
        let sys = relaxed_system(3000, 77);
        let mut reference = ReferenceSimulation::new(sys.clone(), 0.7, 0.1);
        let e_ref = reference.compute_forces();

        let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
        cfg.nstlist = 1;
        cfg.dt_ps = 0.0;
        let mut engine = Engine::new(sys, DdGrid::new([2, 2, 1]), cfg);
        let stats = engine.run(1);
        let e_dd = stats.energies[0];
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1.0);
        assert!(
            rel(e_dd.nonbonded, e_ref.nonbonded) < 1e-5,
            "{} vs {}",
            e_dd.nonbonded,
            e_ref.nonbonded
        );
        assert!(rel(e_dd.bonds, e_ref.bonds) < 1e-5);
        assert!(rel(e_dd.angles, e_ref.angles) < 1e-5);
        assert!(rel(e_dd.kinetic, e_ref.kinetic) < 1e-9);
    }

    #[test]
    fn decomposed_pressure_matches_reference() {
        let sys = relaxed_system(3000, 86);
        let volume = sys.pbc.volume();
        let mut reference = ReferenceSimulation::new(sys.clone(), 0.7, 0.1);
        let e_ref = reference.compute_forces();
        let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
        cfg.nstlist = 1;
        cfg.dt_ps = 0.0;
        let mut engine = Engine::new(sys, DdGrid::new([2, 2, 1]), cfg);
        let stats = engine.run(1);
        let p_dd = stats.energies[0].pressure_bar(volume);
        let p_ref = e_ref.pressure_bar(volume);
        assert!(
            (p_dd - p_ref).abs() < 1e-3 * p_ref.abs().max(1.0),
            "pressure {p_dd} vs {p_ref} bar"
        );
    }

    #[test]
    fn trajectory_matches_single_rank_reference() {
        let sys = relaxed_system(3000, 78);
        let steps = 10;
        let mut reference = ReferenceSimulation::new(sys.clone(), 0.7, 0.1);
        for _ in 0..steps {
            reference.step(0.0005);
        }
        let (dd_sys, _) = run_engine(&sys, [2, 2, 1], ExchangeBackend::NvshmemFused, steps);
        let mut max_err = 0.0f32;
        for (a, b) in dd_sys.positions.iter().zip(&reference.system.positions) {
            max_err = max_err.max(sys.pbc.dist2(*a, *b).sqrt());
        }
        assert!(max_err < 2e-4, "max position deviation {max_err} nm");
    }

    #[test]
    fn all_three_backends_agree() {
        let sys = relaxed_system(3000, 79);
        let steps = 10;
        let (a, _) = run_engine(&sys, [2, 2, 1], ExchangeBackend::Mpi, steps);
        let (b, _) = run_engine(&sys, [2, 2, 1], ExchangeBackend::NvshmemFused, steps);
        let (c, _) = run_engine(&sys, [2, 2, 1], ExchangeBackend::ThreadMpi, steps);
        let mut max_err = 0.0f32;
        for ((pa, pb), pc) in a.positions.iter().zip(&b.positions).zip(&c.positions) {
            max_err = max_err.max(sys.pbc.dist2(*pa, *pb).sqrt());
            max_err = max_err.max(sys.pbc.dist2(*pa, *pc).sqrt());
        }
        assert!(max_err < 2e-4, "backend position deviation {max_err} nm");
    }

    #[test]
    fn fused_backend_consistent_across_topologies() {
        let sys = relaxed_system(3000, 80);
        let steps = 6;
        let (a, _) = run_engine(&sys, [4, 1, 1], ExchangeBackend::NvshmemFused, steps);
        let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
        cfg.nstlist = 5;
        cfg.topology_gpus_per_node = Some(2); // half the PEs across "IB"
        let mut engine = Engine::new(sys.clone(), DdGrid::new([4, 1, 1]), cfg);
        engine.run(steps);
        let b = engine.system;
        let mut max_err = 0.0f32;
        for (pa, pb) in a.positions.iter().zip(&b.positions) {
            max_err = max_err.max(sys.pbc.dist2(*pa, *pb).sqrt());
        }
        assert!(max_err < 2e-4, "transport position deviation {max_err} nm");
    }

    #[test]
    fn observer_sees_every_segment() {
        let sys = relaxed_system(3000, 85);
        let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
        cfg.nstlist = 4;
        let mut engine = Engine::new(sys, DdGrid::new([2, 1, 1]), cfg);
        let mut seen = Vec::new();
        engine.run_with_observer(10, |done, system| {
            assert_eq!(system.n_atoms(), 3000);
            seen.push(done);
        });
        assert_eq!(seen, vec![4, 8, 10]);
    }

    #[test]
    fn symmetric_buffers_reused_across_segments() {
        let sys = relaxed_system(3000, 83);
        let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
        cfg.nstlist = 3;
        let mut engine = Engine::new(sys, DdGrid::new([2, 2, 1]), cfg);
        engine.run(15); // 5 segments
        assert!(
            engine.realloc_count <= 2,
            "over-allocation should avoid reallocations: {} reallocs",
            engine.realloc_count
        );
    }

    #[test]
    fn thermostat_pulls_temperature_toward_target() {
        use crate::config::Thermostat;
        // A freshly relaxed lattice still converts potential into kinetic
        // energy while equilibrating, so compare against an uncoupled run:
        // the thermostat must hold the temperature closer to the target.
        let sys = relaxed_system(3000, 82);
        let n = sys.n_atoms() as f64;
        let temp =
            |e: &halox_md::EnergyReport| 2.0 * e.kinetic / ((3.0 * n - 3.0) * halox_md::KB as f64);
        let run = |thermostat: Option<Thermostat>| {
            let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
            cfg.nstlist = 10;
            cfg.thermostat = thermostat;
            let mut engine = Engine::new(sys.clone(), DdGrid::new([2, 2, 1]), cfg);
            let stats = engine.run(60);
            temp(
                stats
                    .final_energy()
                    .expect("60-step run has a final energy"),
            )
        };
        let t_free = run(None);
        let t_coupled = run(Some(Thermostat {
            t_ref: 300.0,
            tau_ps: 0.005,
        }));
        assert!(
            (t_coupled - 300.0).abs() < (t_free - 300.0).abs(),
            "coupled {t_coupled} K must be closer to 300 K than free {t_free} K"
        );
        assert!(
            t_coupled < t_free,
            "thermostat must remove equilibration heat"
        );
    }

    #[test]
    fn zero_step_run_is_graceful() {
        // Regression: consumers used `stats.energies.last().unwrap()`,
        // which panicked on `run(0)`. A zero-step run is a legal warm-up
        // request and must produce an empty — not exploding — report.
        let sys = relaxed_system(3000, 91);
        let mut engine = Engine::new(
            sys,
            DdGrid::new([2, 1, 1]),
            EngineConfig::new(ExchangeBackend::NvshmemFused),
        );
        let stats = engine.run(0);
        assert_eq!(stats.steps, 0);
        assert!(stats.energies.is_empty());
        assert!(stats.final_energy().is_none());
        assert_eq!(stats.ns_per_day, 0.0);
    }

    #[test]
    fn energy_steps_are_absolute_multiples_of_nstlist() {
        // 7 + 8 steps at nstlist 5 run segments [0,5) [5,7) [7,12) [12,15):
        // energies are still steps 0, 5 and 10 — the last one mid-segment.
        // Steps 0 and 5 open a segment on the same inputs as in an aligned
        // 15-step run, so those two entries are that run's bit for bit.
        let sys = relaxed_system(1500, 58);
        let engine = || {
            let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
            cfg.nstlist = 5;
            cfg.run_mode = RunMode::Serial;
            Engine::new(sys.clone(), DdGrid::new([2, 1, 1]), cfg)
        };
        let mut cut = engine();
        assert_eq!(cut.run(7).energies.len(), 2);
        let stats = cut.run(8);
        assert_eq!(stats.steps, 15);
        assert_eq!(stats.energies.len(), 3);
        assert!(stats.energies.iter().all(|e| e.total().is_finite()));
        let aligned = engine().run(15);
        assert_energies_bitwise("leapfrog", &aligned.energies[..2], &stats.energies[..2]);
    }

    #[test]
    fn serial_mode_matches_threaded_bitwise() {
        use crate::config::RunMode;
        // The tentpole invariant in miniature (the full matrix lives in
        // tests/threaded_equivalence.rs): the serial reference driver and
        // the threaded per-PE executor must agree to the last bit —
        // positions, velocities and every term of every recorded energy.
        let sys = relaxed_system(3000, 92);
        let run_mode = |mode: RunMode| {
            let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
            cfg.nstlist = 5;
            cfg.run_mode = mode;
            cfg.thermostat = Some(crate::config::Thermostat {
                t_ref: 300.0,
                tau_ps: 0.01,
            });
            let mut engine = Engine::new(sys.clone(), DdGrid::new([2, 2, 1]), cfg);
            let stats = engine.run(8);
            (engine.system, stats)
        };
        let (s_sys, s_stats) = run_mode(RunMode::Serial);
        let (t_sys, t_stats) = run_mode(RunMode::Threaded);
        for (a, b) in s_sys.positions.iter().zip(&t_sys.positions) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
        for (a, b) in s_sys.velocities.iter().zip(&t_sys.velocities) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
        assert_energies_bitwise("serial vs threaded", &s_stats.energies, &t_stats.energies);
        assert_eq!(s_stats.energies.len(), 2, "energy steps 0 and 5");
    }

    #[test]
    fn both_executors_time_the_same_phases() {
        use crate::config::RunMode;
        // Each phase exists once in the step program, so both executors
        // report the same phase names (the overlap window adds
        // `pack_overlap` on a PE) and, for the per-round phases, one
        // invocation per rank per force round: one round per step.
        let sys = relaxed_system(1500, 93);
        let (steps, nstlist, ranks) = (10, 5, 2);
        let phases = |mode: RunMode| {
            let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
            cfg.nstlist = nstlist;
            cfg.run_mode = mode;
            let mut engine = Engine::new(sys.clone(), DdGrid::new([ranks, 1, 1]), cfg);
            engine.run(steps).phases
        };
        let (serial, threaded) = (phases(RunMode::Serial), phases(RunMode::Threaded));
        let names = |t: &PhaseTimer| -> Vec<&str> {
            let all = t.iter().map(|(name, _, _)| name);
            all.filter(|&name| name != "pack_overlap").collect()
        };
        assert_eq!(names(&serial), names(&threaded));
        let count = |t: &PhaseTimer, phase: &str| {
            let found = t.iter().find(|(name, _, _)| *name == phase);
            found.map_or(0, |(_, _, n)| n as usize)
        };
        for phase in ["halo_x", "nb_halo", "bonded", "halo_f"] {
            assert_eq!(count(&serial, phase), ranks * steps, "{phase}");
            assert_eq!(count(&threaded, phase), ranks * steps, "{phase}");
        }
        assert!(count(&serial, "integrate") >= ranks * steps);
        assert_eq!(count(&serial, "integrate"), count(&threaded, "integrate"));
    }

    #[test]
    fn fault_free_run_reports_no_recovery_activity() {
        let sys = relaxed_system(3000, 87);
        let (_, stats) = run_engine(&sys, [2, 2, 1], ExchangeBackend::NvshmemFused, 10);
        assert_eq!(stats.retries, 0);
        assert!(stats.downgrades.is_empty());
        assert!(stats.stall_reports.is_empty());
        assert_eq!(stats.degraded_steps, 0);
        assert_eq!(stats.faults_injected, 0);
    }

    #[test]
    fn transient_fault_recovers_by_retry() {
        use halox_shmem::{FaultKind, FaultOp, FaultPlan, FaultRule};
        // Drop one signal once: the first fused segment stalls and is
        // diagnosed; the retry runs on a fresh world with the one-shot rule
        // already consumed, so the run completes on the primary transport.
        let sys = relaxed_system(3000, 88);
        let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
        cfg.nstlist = 5;
        cfg.watchdog.deadline = std::time::Duration::from_millis(200);
        cfg.chaos = Some(FaultPlan {
            name: "drop-once".into(),
            seed: 7,
            rules: vec![FaultRule {
                pe: Some(1),
                op: FaultOp::Signal,
                after_ops: 3,
                every: None,
                kind: FaultKind::DropSignalOnce,
            }],
        });
        let mut engine = Engine::new(sys, DdGrid::new([2, 2, 1]), cfg);
        let stats = engine
            .try_run(10)
            .expect("retry must absorb a one-shot fault");
        assert_eq!(stats.retries, 1, "exactly one retry expected");
        assert!(stats.downgrades.is_empty(), "no downgrade for a transient");
        assert!(!stats.stall_reports.is_empty());
        assert!(stats.faults_injected >= 1);
        assert_eq!(stats.degraded_steps, 0);
    }

    #[test]
    fn crashed_peer_degrades_to_fallback_and_completes() {
        use halox_shmem::{FaultKind, FaultOp, FaultPlan, FaultRule};
        // A permanently crashed PE defeats every fused attempt; the ladder
        // must flip the run to the two-sided fallback (immune: no symmetric
        // deliveries) and finish all steps there.
        let sys = relaxed_system(3000, 89);
        let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
        cfg.nstlist = 5;
        cfg.watchdog.deadline = std::time::Duration::from_millis(150);
        cfg.chaos = Some(FaultPlan {
            name: "crash".into(),
            seed: 7,
            rules: vec![FaultRule {
                pe: Some(1),
                op: FaultOp::Any,
                after_ops: 0,
                every: None,
                kind: FaultKind::CrashPe,
            }],
        });
        let mut engine = Engine::new(sys, DdGrid::new([2, 2, 1]), cfg);
        let stats = engine.try_run(10).expect("fallback must complete the run");
        assert_eq!(stats.steps, 10);
        assert_eq!(stats.energies.len(), 10usize.div_ceil(5));
        assert_eq!(stats.downgrades.len(), 1, "one downgrade to the fallback");
        let d = &stats.downgrades[0];
        assert_eq!(d.from, ExchangeBackend::NvshmemFused);
        assert_eq!(d.to, ExchangeBackend::Mpi);
        assert!(!d.suspects.is_empty());
        assert!(stats.degraded_steps > 0);
        let health = engine.health();
        assert!(d
            .suspects
            .iter()
            .any(|&p| { !matches!(health.state(p), crate::health::PeerState::Healthy) }));
    }

    #[test]
    fn recovered_peer_is_repromoted_to_fused_path() {
        use halox_shmem::{FaultKind, FaultOp, FaultPlan, FaultRule};
        // A one-shot stall big enough to blow both attempts' deadlines
        // forces a downgrade; the fault never fires again, so after
        // `repromote_after` clean fallback segments the peer walks
        // quarantine → probation → healthy and the run finishes fused.
        let sys = relaxed_system(3000, 90);
        let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
        cfg.nstlist = 2;
        // The dropped signal is rank 0's first force-ready signal: rank 1's
        // force-data wait and rank 0's ack fence then hold with nothing left
        // to raise either slot, so a 1 s deadline detects the same stall,
        // later, and no clean round after re-promotion comes near it.
        cfg.watchdog.deadline = std::time::Duration::from_secs(1);
        cfg.watchdog.max_retries = 0; // stall → immediate downgrade
        cfg.watchdog.repromote_after = 1;
        cfg.chaos = Some(FaultPlan {
            name: "drop-once".into(),
            seed: 7,
            rules: vec![FaultRule {
                pe: Some(0),
                op: FaultOp::Signal,
                after_ops: 2,
                every: None,
                kind: FaultKind::DropSignalOnce,
            }],
        });
        let mut engine = Engine::new(sys, DdGrid::new([2, 1, 1]), cfg);
        let stats = engine.try_run(10).expect("run must complete");
        assert_eq!(stats.downgrades.len(), 1);
        assert!(stats.repromotions >= 1, "suspect peer must be re-promoted");
        let health = engine.health();
        for p in 0..2 {
            assert_eq!(health.state(p), crate::health::PeerState::Healthy);
        }
        // Degraded span is bounded: quarantine (1 segment) + probation
        // entry; the tail of the run is fused again.
        assert!(stats.degraded_steps < stats.steps);
    }

    #[test]
    fn infeasible_grid_is_a_config_time_error() {
        // 4096 ranks on a ~3 k atom box: every factorization is too thin.
        let sys = GrappaBuilder::new(3000).seed(93).build();
        let err = Engine::try_new_auto(
            sys,
            4096,
            &GridOptions::default(),
            EngineConfig::new(ExchangeBackend::Mpi),
        )
        .expect_err("infeasible decomposition must be rejected");
        assert!(matches!(err, EngineError::InfeasibleGrid(_)), "{err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains("4096") && msg.contains("box"),
            "message must carry rank count and box: {msg}"
        );
    }

    #[test]
    fn box_under_twice_r_comm_is_a_config_time_error() {
        // 300 atoms make a 1.44 nm box; r_comm is 0.8 nm, so on a single
        // domain every dimension is periodic and too narrow for the pair
        // search. Both executors (and the pool key a service computes at
        // submit time) must reject the plan with the typed error — not
        // reach the search's half-box assertion, unwind or retry.
        let sys = GrappaBuilder::new(300).seed(94).build();
        for mode in [RunMode::Serial, RunMode::Threaded] {
            let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
            cfg.run_mode = mode;
            let mut engine = Engine::new(sys.clone(), DdGrid::new([1, 1, 1]), cfg);
            for err in [
                engine.world_key().expect_err("no pool key for this box"),
                engine.try_run(1).expect_err("plan must be rejected"),
            ] {
                let EngineError::PlanFailed(PlanError::BoxTooNarrow {
                    dim,
                    box_len,
                    r_comm,
                }) = err
                else {
                    panic!("{mode:?}: expected BoxTooNarrow, got {err:?}");
                };
                assert_eq!(dim, 0);
                assert!((box_len - 1.44).abs() < 0.01 && r_comm == 0.8, "{err}");
                assert!(err.to_string().contains("r_comm"), "{err}");
            }
            // Nothing was attempted, so nothing was retried or blamed.
            assert_eq!(engine.health().state(0), crate::health::PeerState::Healthy);
        }
    }

    #[test]
    fn spanning_bonded_term_surfaces_as_plan_error() {
        use halox_md::topology::Angle;
        use halox_md::{AtomKind, PbcBox};
        // An angle strung across all three domains of a [3,1,1] grid: the
        // run must fail with a typed plan error naming the atoms, on both
        // the threaded and the serial driver — not panic mid-plan.
        let positions = vec![
            Vec3::new(1.5, 4.5, 4.5),
            Vec3::new(4.5, 4.5, 4.5),
            Vec3::new(7.5, 4.5, 4.5),
        ];
        let n = positions.len();
        let sys = System {
            pbc: PbcBox::cubic(9.0),
            positions,
            velocities: vec![Vec3::ZERO; n],
            kinds: vec![AtomKind::Ow; n],
            inv_mass: vec![1.0; n],
            bonds: vec![],
            angles: vec![Angle {
                i: 0,
                j: 1,
                k_atom: 2,
                theta0: 1.9,
                k: 400.0,
            }],
            molecule_of: vec![0; n],
            exclusions: vec![vec![]; n],
        };
        for mode in [RunMode::Threaded, RunMode::Serial] {
            let mut cfg = EngineConfig::new(ExchangeBackend::Mpi);
            cfg.run_mode = mode;
            let mut engine = Engine::new(sys.clone(), DdGrid::new([3, 1, 1]), cfg);
            let err = engine.try_run(1).expect_err("plan must be rejected");
            assert!(matches!(err, EngineError::PlanFailed(_)), "{err:?}");
            assert!(err.to_string().contains("[0, 1, 2]"), "{err}");
        }
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("halox-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn assert_same_trajectory(a: &System, b: &System, ea: &[EnergyReport], eb: &[EnergyReport]) {
        for (pa, pb) in a.positions.iter().zip(&b.positions) {
            assert_eq!(pa.x.to_bits(), pb.x.to_bits());
            assert_eq!(pa.y.to_bits(), pb.y.to_bits());
            assert_eq!(pa.z.to_bits(), pb.z.to_bits());
        }
        for (va, vb) in a.velocities.iter().zip(&b.velocities) {
            assert_eq!(va.x.to_bits(), vb.x.to_bits());
            assert_eq!(va.y.to_bits(), vb.y.to_bits());
            assert_eq!(va.z.to_bits(), vb.z.to_bits());
        }
        assert_energies_bitwise("trajectory", ea, eb);
    }

    #[test]
    fn resume_continues_trajectory_bitwise() {
        use crate::config::CheckpointConfig;
        // Kill-at-k contract in miniature (the executor × transport matrix
        // lives in tests/backend_conformance.rs): run 5 steps with
        // checkpointing, throw the engine away — the "kill" — resume from
        // the newest file, run 5 more. The result must be bitwise-equal to
        // an uninterrupted 10-step run without checkpointing at all.
        let sys = relaxed_system(3000, 94);
        let mk_cfg = |dir: Option<&std::path::Path>| {
            let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
            cfg.nstlist = 5;
            cfg.run_mode = RunMode::Serial;
            cfg.thermostat = Some(crate::config::Thermostat {
                t_ref: 300.0,
                tau_ps: 0.01,
            });
            cfg.checkpoint = dir.map(CheckpointConfig::in_dir);
            cfg
        };
        let mut reference = Engine::new(sys.clone(), DdGrid::new([2, 2, 1]), mk_cfg(None));
        let ref_stats = reference.run(10);

        let dir = ckpt_dir("resume");
        let mut first = Engine::new(sys.clone(), DdGrid::new([2, 2, 1]), mk_cfg(Some(&dir)));
        let first_stats = first.run(5);
        assert_eq!(first_stats.steps, 5);
        // Baseline at step 0 plus one per segment.
        assert_eq!(first_stats.checkpoints_written, 2);
        drop(first);

        let mut resumed = Engine::resume_latest(&dir, mk_cfg(Some(&dir))).expect("resume");
        assert_eq!(resumed.resumed(), Some((5, 0)));
        let stats = resumed.run(5);
        assert_eq!(stats.steps, 10, "stats describe the whole trajectory");
        assert_eq!(stats.corrupt_checkpoints_skipped, 0);
        assert!(stats.checkpoints_written > first_stats.checkpoints_written);
        assert_same_trajectory(
            &reference.system,
            &resumed.system,
            &ref_stats.energies,
            &stats.energies,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_under_mismatched_config_is_refused() {
        use crate::config::CheckpointConfig;
        let sys = relaxed_system(3000, 95);
        let dir = ckpt_dir("mismatch");
        let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
        cfg.nstlist = 5;
        cfg.run_mode = RunMode::Serial;
        cfg.checkpoint = Some(CheckpointConfig::in_dir(&dir));
        let mut engine = Engine::new(sys, DdGrid::new([2, 2, 1]), cfg.clone());
        engine.run(5);
        drop(engine);

        let mut other = cfg.clone();
        other.backend = ExchangeBackend::Mpi;
        let err = Engine::resume_latest(&dir, other).expect_err("transport changed");
        assert!(
            matches!(
                &err,
                EngineError::Checkpoint(CheckpointError::Mismatch {
                    field: "transport",
                    ..
                })
            ),
            "{err}"
        );
        let mut other = cfg.clone();
        other.dt_ps = 0.001;
        let err = Engine::resume_latest(&dir, other).expect_err("timestep changed");
        assert!(
            matches!(
                &err,
                EngineError::Checkpoint(CheckpointError::Mismatch { field: "dt_ps", .. })
            ),
            "{err}"
        );
        // The matching config still resumes fine.
        assert!(Engine::resume_latest(&dir, cfg).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_pe_recovers_by_rewind_and_replay_bitwise() {
        use crate::config::CheckpointConfig;
        use halox_shmem::{FaultKind, FaultOp, FaultPlan, FaultRule};
        // Terminal-failure recovery under the threads backend: the fallback
        // is pinned to the primary and retries are off, so the one-shot
        // KillPe (crash-drop semantics in-process) makes the first segment
        // fail terminally. The replay rung must revive the peer, re-run the
        // segment from the frontier, and finish — and because the one-shot
        // trigger stays consumed across the replay, the trajectory must be
        // bitwise-identical to a fault-free run.
        let sys = relaxed_system(3000, 96);
        let dir = ckpt_dir("rewind");
        let mk_cfg = |ckpt: Option<CheckpointConfig>| {
            let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
            cfg.nstlist = 5;
            cfg.watchdog.deadline = std::time::Duration::from_millis(150);
            cfg.watchdog.max_retries = 0;
            cfg.watchdog.fallback = ExchangeBackend::NvshmemFused;
            cfg.checkpoint = ckpt;
            cfg
        };
        // The fault-free reference runs serially (never waits, so the
        // 150 ms deadline cannot fail it; serial ≡ threaded, DESIGN.md §3.3).
        let mut ref_cfg = mk_cfg(None);
        ref_cfg.run_mode = RunMode::Serial;
        let mut reference = Engine::new(sys.clone(), DdGrid::new([2, 2, 1]), ref_cfg);
        let ref_stats = reference.run(10);

        let mut cfg = mk_cfg(Some(CheckpointConfig::in_dir(&dir)));
        cfg.chaos = Some(FaultPlan {
            name: "kill-once".into(),
            seed: 7,
            rules: vec![FaultRule {
                pe: Some(1),
                op: FaultOp::Any,
                after_ops: 0,
                every: None,
                kind: FaultKind::KillPe,
            }],
        });
        let mut engine = Engine::new(sys, DdGrid::new([2, 2, 1]), cfg);
        let stats = engine
            .try_run(10)
            .expect("rewind-and-replay must absorb the kill");
        assert_eq!(stats.recoveries, 1, "exactly one rewind");
        assert_eq!(stats.steps, 10);
        assert!(stats.faults_injected >= 1);
        assert_same_trajectory(
            &reference.system,
            &engine.system,
            &ref_stats.energies,
            &stats.energies,
        );
        // The revived peer served its probation and is healthy again.
        let health = engine.health();
        assert_eq!(health.state(1), crate::health::PeerState::Healthy);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two one-shot kills of PE 1: the first after `first` of its ops, the
    /// second `gap` ops into whatever runs after the revival (a dead PE's
    /// ops are not counted). On [2,2,1] with `nstlist = 5` a segment is
    /// some 40 ops, so (140, 60) kills in the fourth segment and again one
    /// or two segments after its replay.
    fn two_kills(first: u64, gap: u64) -> halox_shmem::FaultPlan {
        use halox_shmem::{FaultKind, FaultOp, FaultPlan, FaultRule};
        FaultPlan {
            name: "kill-twice".into(),
            seed: 7,
            rules: [first, first + gap]
                .into_iter()
                .map(|after_ops| FaultRule {
                    pe: Some(1),
                    op: FaultOp::Any,
                    after_ops,
                    every: None,
                    kind: FaultKind::KillPe,
                })
                .collect(),
        }
    }

    #[test]
    fn engine_is_usable_after_a_failed_run() {
        use crate::config::CheckpointConfig;
        // Fallback pinned, no retries, ONE replay per call and two kills:
        // the first is absorbed by a replay, the second — after it —
        // exhausts the headroom, so `try_run(40)` fails after good segments.
        // The engine must then sit at the last good boundary with its step,
        // energy history and counters intact: a second `try_run` for the
        // remaining steps (which starts against the still-dead peer, so it
        // replays once more) finishes the same trajectory an uninterrupted
        // engine produces.
        let sys = relaxed_system(3000, 98);
        let dir = ckpt_dir("after-failure");
        let mk_cfg = |ckpt: Option<CheckpointConfig>| {
            let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
            cfg.nstlist = 5;
            cfg.watchdog.deadline = std::time::Duration::from_millis(150);
            cfg.watchdog.max_retries = 0;
            cfg.watchdog.fallback = ExchangeBackend::NvshmemFused;
            cfg.checkpoint = ckpt;
            cfg
        };
        // The fault-free reference runs serially: it never waits, so the
        // 150 ms deadline cannot fail it on a busy host, and serial ≡
        // threaded bitwise (DESIGN.md §3.3).
        let mut ref_cfg = mk_cfg(None);
        ref_cfg.run_mode = RunMode::Serial;
        let mut reference = Engine::new(sys.clone(), DdGrid::new([2, 2, 1]), ref_cfg);
        let ref_stats = reference.run(40);

        let mut ckpt = CheckpointConfig::in_dir(&dir);
        ckpt.every_segments = 2;
        ckpt.max_recoveries = 1;
        let mut cfg = mk_cfg(Some(ckpt));
        cfg.chaos = Some(two_kills(140, 60));
        let mut engine = Engine::new(sys, DdGrid::new([2, 2, 1]), cfg);
        let err = engine.try_run(40).expect_err("two kills, one rewind");
        let EngineError::SegmentFailed { at_step, .. } = err else {
            panic!("expected SegmentFailed, got {err}");
        };
        assert!((5..40).contains(&at_step), "failed at step {at_step}");
        assert_eq!(at_step % 5, 0, "the frontier is a segment boundary");
        // The failed run left a coherent frontier behind.
        let parked = engine.suspend().expect("an engine is its own frontier");
        assert_eq!(parked.step as usize, at_step);
        assert_eq!(parked.energies.len(), at_step.div_ceil(5));
        assert_eq!(parked.stats.recoveries, 1);
        assert_same_trajectory(
            &parked.system,
            &engine.system,
            &ref_stats.energies[..at_step.div_ceil(5)],
            &parked.energies,
        );

        let stats = engine
            .try_run(40 - at_step)
            .expect("the same engine finishes the trajectory");
        assert_eq!(stats.steps, 40);
        assert_eq!(stats.recoveries, 2, "the dead peer costs one more rewind");
        assert!(stats.rewound_steps <= 40, "{}", stats.rewound_steps);
        assert_same_trajectory(
            &reference.system,
            &engine.system,
            &ref_stats.energies,
            &stats.energies,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_resumes_at_the_frontier() {
        use crate::config::CheckpointConfig;
        // One kill of PE 1 in the fourth segment, no retries, fallback
        // pinned and no cadence write after the baseline: the replay rung
        // re-runs only that segment, from the frontier the failed attempt
        // left untouched. The observer therefore sees every boundary once,
        // the replay discards one segment's steps, and nothing but the
        // baseline reaches the disk.
        let sys = relaxed_system(3000, 98);
        let dir = ckpt_dir("frontier-replay");
        let mk_cfg = |ckpt: Option<CheckpointConfig>| {
            let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
            cfg.nstlist = 5;
            cfg.watchdog.deadline = std::time::Duration::from_millis(150);
            cfg.watchdog.max_retries = 0;
            cfg.watchdog.fallback = ExchangeBackend::NvshmemFused;
            cfg.checkpoint = ckpt;
            cfg
        };
        // The fault-free reference runs serially (never waits, so the
        // 150 ms deadline cannot fail it; serial ≡ threaded, DESIGN.md §3.3).
        let mut ref_cfg = mk_cfg(None);
        ref_cfg.run_mode = RunMode::Serial;
        let mut reference = Engine::new(sys.clone(), DdGrid::new([2, 2, 1]), ref_cfg);
        let ref_stats = reference.run(30);

        let mut ckpt = CheckpointConfig::in_dir(&dir);
        ckpt.every_segments = 100;
        let mut cfg = mk_cfg(Some(ckpt));
        let mut plan = two_kills(140, 60);
        plan.rules.truncate(1);
        cfg.chaos = Some(plan);
        let mut engine = Engine::new(sys, DdGrid::new([2, 2, 1]), cfg);
        let mut seen = Vec::new();
        let stats = engine
            .try_run_with_observer(30, |done, _| seen.push(done))
            .expect("one replay absorbs the kill");
        assert_eq!(seen, vec![5, 10, 15, 20, 25, 30], "each boundary once");
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.rewound_steps, 5, "one segment re-run");
        assert_eq!(stats.checkpoints_written, 1, "the baseline only");
        assert!(stats.faults_injected >= 1);
        assert_same_trajectory(
            &reference.system,
            &engine.system,
            &ref_stats.energies,
            &stats.energies,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_write_error_leaves_the_boundary_just_reached() {
        use crate::config::CheckpointConfig;
        // The checkpoint directory turns into a plain file after the first
        // segment, so that segment's cadence write fails. The `Err` must
        // leave step, energies and counters at the boundary just reached —
        // only the snapshot is missing — and once the directory is back the
        // same engine continues the trajectory.
        let sys = relaxed_system(3000, 99);
        let dir = ckpt_dir("unwritable");
        let mk_cfg = |ckpt: Option<CheckpointConfig>| {
            let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
            cfg.nstlist = 5;
            cfg.run_mode = RunMode::Serial;
            cfg.checkpoint = ckpt;
            cfg
        };
        let mut reference = Engine::new(sys.clone(), DdGrid::new([2, 2, 1]), mk_cfg(None));
        let ref_stats = reference.run(10);

        let cfg = mk_cfg(Some(CheckpointConfig::in_dir(&dir)));
        let mut engine = Engine::new(sys, DdGrid::new([2, 2, 1]), cfg);
        let err = engine
            .try_run_with_observer(10, |done, _| {
                assert_eq!(done, 5, "the run must stop at the failed write");
                std::fs::remove_dir_all(&dir).unwrap();
                std::fs::write(&dir, b"not a directory").unwrap();
            })
            .expect_err("the cadence write cannot succeed");
        assert!(
            matches!(err, EngineError::Checkpoint(CheckpointError::Io(_))),
            "{err}"
        );
        let parked = engine.suspend().expect("an engine is its own frontier");
        assert_eq!(parked.step, 5);
        assert_eq!(parked.energies.len(), 1, "step 0's");
        assert_eq!(parked.stats.checkpoints_written, 1, "the baseline only");

        std::fs::remove_file(&dir).unwrap();
        let stats = engine.run(5);
        assert_eq!(stats.steps, 10);
        assert_eq!(stats.checkpoints_written, 2, "baseline + step 10");
        assert_same_trajectory(
            &reference.system,
            &engine.system,
            &ref_stats.energies,
            &stats.energies,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_without_headroom_still_fails_typed() {
        use halox_shmem::{FaultKind, FaultOp, FaultPlan, FaultRule};
        // Same terminal kill, but checkpointing disabled: no replay budget,
        // so the run must surface the typed SegmentFailed — never hang,
        // never panic.
        let sys = relaxed_system(3000, 97);
        let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
        cfg.nstlist = 5;
        cfg.watchdog.deadline = std::time::Duration::from_millis(150);
        cfg.watchdog.max_retries = 0;
        cfg.watchdog.fallback = ExchangeBackend::NvshmemFused;
        cfg.chaos = Some(FaultPlan {
            name: "kill".into(),
            seed: 7,
            rules: vec![FaultRule {
                pe: Some(1),
                op: FaultOp::Any,
                after_ops: 0,
                every: None,
                kind: FaultKind::KillPe,
            }],
        });
        let mut engine = Engine::new(sys, DdGrid::new([2, 2, 1]), cfg);
        let err = engine.try_run(10).expect_err("no checkpoint, no recovery");
        assert!(
            matches!(err, EngineError::SegmentFailed { at_step: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn keep_pruning_deletes_old_checkpoints_and_latest_resolves() {
        use crate::config::CheckpointConfig;
        let dir = ckpt_dir("keep-prune");
        let sys = relaxed_system(3000, 55);
        let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
        cfg.nstlist = 5;
        cfg.run_mode = RunMode::Serial;
        let mut ck = CheckpointConfig::in_dir(&dir);
        ck.every_segments = 1;
        ck.keep = 2;
        cfg.checkpoint = Some(ck);
        let mut engine = Engine::new(sys, DdGrid::new([2, 2, 1]), cfg.clone());
        // 6 segments: snapshots at 0 (baseline), 5, 10, ..., 30.
        let stats = engine.run(30);
        assert_eq!(stats.checkpoints_written, 7);
        let steps: Vec<u64> = Checkpoint::list(&dir).into_iter().map(|(s, _)| s).collect();
        assert_eq!(
            steps,
            vec![25, 30],
            "only the newest `keep` files may survive pruning"
        );
        let (latest, skipped) = Checkpoint::latest_valid(&dir).expect("latest resolves");
        assert_eq!(latest.step, 30);
        assert_eq!(skipped, 0);
        // And the survivors are genuinely resumable.
        assert!(Engine::resume_latest(&dir, cfg).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphan_tmp_files_are_swept_on_checkpoint_dir_open() {
        use crate::config::CheckpointConfig;
        let dir = ckpt_dir("orphan-sweep");
        std::fs::create_dir_all(&dir).unwrap();
        // A crashed writer's leftovers (foreign pid) and a live writer's
        // in-flight tmp (our pid): only the former may be reclaimed.
        let orphan_a = dir.join(".ckpt-000000000005.hxck.tmp.999991");
        let orphan_b = dir.join(".ckpt-000000000010.hxck.tmp.999992");
        let live = dir.join(format!(
            ".ckpt-000000000099.hxck.tmp.{}",
            std::process::id()
        ));
        for p in [&orphan_a, &orphan_b, &live] {
            std::fs::write(p, b"torn").unwrap();
        }
        let sys = relaxed_system(3000, 56);
        let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
        cfg.nstlist = 5;
        cfg.run_mode = RunMode::Serial;
        cfg.checkpoint = Some(CheckpointConfig::in_dir(&dir));
        let mut engine = Engine::new(sys, DdGrid::new([2, 2, 1]), cfg);
        let stats = engine.run(5);
        assert_eq!(stats.orphan_tmp_swept, 2);
        assert!(!orphan_a.exists() && !orphan_b.exists());
        assert!(live.exists(), "current-pid tmp files must be left alone");
        // The sweep is once-per-engine: a second run reports the same tally
        // without re-counting.
        let stats = engine.run(5);
        assert_eq!(stats.orphan_tmp_swept, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_debug_is_a_summary() {
        let sys = relaxed_system(3000, 57);
        let engine = Engine::new(
            sys,
            DdGrid::new([2, 2, 1]),
            EngineConfig::new(ExchangeBackend::NvshmemFused),
        );
        let dbg = format!("{engine:?}");
        assert!(dbg.contains("Engine") && dbg.contains("n_atoms"), "{dbg}");
        // The summary must not dump per-atom state.
        assert!(dbg.len() < 500, "{}", dbg.len());
    }

    fn relaxed_skewed(n: usize, seed: u64) -> System {
        use halox_md::{SkewProfile, SkewedBuilder};
        let mut sys = SkewedBuilder::new(n, SkewProfile::Interface)
            .seed(seed)
            .temperature(220.0)
            .build();
        halox_md::minimize::steepest_descent(&mut sys, MinimizeOptions::default());
        sys
    }

    #[test]
    fn dlb_counter_mode_is_bitwise_across_executors() {
        use crate::config::DlbMode;
        // The §3.8 contract in miniature: with the deterministic counter
        // metric, both executors feed the controller identical loads, so
        // boundaries — and therefore trajectories — stay bitwise equal
        // even though the decomposition is being re-shaped mid-run.
        let sys = relaxed_skewed(3000, 41);
        let run = |mode: RunMode| {
            let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
            cfg.nstlist = 5;
            cfg.dlb = DlbMode::Counter;
            cfg.run_mode = mode;
            let mut engine = Engine::new(sys.clone(), DdGrid::new([4, 1, 1]), cfg);
            let stats = engine.run(15);
            (engine, stats)
        };
        let (s_eng, s_stats) = run(RunMode::Serial);
        let (t_eng, t_stats) = run(RunMode::Threaded);
        assert_eq!(s_stats.dlb_updates, 3, "one update per segment");
        assert!(
            !s_eng.bounds().is_uniform(),
            "a skewed interface system must move boundaries"
        );
        for d in 0..3 {
            for (a, b) in s_eng.bounds().fracs[d].iter().zip(&t_eng.bounds().fracs[d]) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert_eq!(s_stats.rank_loads, t_stats.rank_loads);
        assert_eq!(s_stats.critical_load, t_stats.critical_load);
        for (a, b) in s_eng.system.positions.iter().zip(&t_eng.system.positions) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
    }

    #[test]
    fn dlb_reduces_load_imbalance_on_skewed_system() {
        use crate::config::DlbMode;
        // 6000 atoms over three slabs: cells of 1.3 nm against a 0.8 nm
        // floor, so the boundaries have room to move (on four slabs of a
        // 4000-atom box every cell already sits at the floor and the
        // controller is clamped still).
        let sys = relaxed_skewed(6000, 42);
        let run = |dlb: DlbMode| {
            let mut cfg = EngineConfig::new(ExchangeBackend::NvshmemFused);
            cfg.nstlist = 5;
            cfg.run_mode = RunMode::Serial;
            cfg.dlb = dlb;
            let mut engine = Engine::new(sys.clone(), DdGrid::new([3, 1, 1]), cfg);
            // Warm-up run lets the controller converge; the second run's
            // loads measure the balanced steady state.
            engine.run(15);
            engine.run(15)
        };
        let (fixed, balanced) = (run(DlbMode::Off), run(DlbMode::Counter));
        let r_static = fixed.load_ratio().expect("loads recorded");
        let r_dlb = balanced.load_ratio().expect("loads recorded");
        assert!(
            r_dlb < r_static,
            "DLB must improve max/mean load: static {r_static:.3}, dlb {r_dlb:.3}"
        );
        assert!(r_static > 1.2, "interface system must start imbalanced");
        // The payoff a machine with one PE per device sees: Σ over segments
        // of the slowest rank's work. A ratio of deterministic counters, so
        // the bound is the same on every host.
        let cut = 1.0 - balanced.critical_load as f64 / fixed.critical_load as f64;
        assert!(
            cut >= 0.15,
            "DLB must cut the critical path by 15%: static {}, dlb {} ({:.1}%)",
            fixed.critical_load,
            balanced.critical_load,
            100.0 * cut
        );
    }

    #[test]
    fn dlb_off_reports_static_loads_without_moving_bounds() {
        let sys = relaxed_system(3000, 43);
        let (mut cfg, dims) = (EngineConfig::new(ExchangeBackend::NvshmemFused), [2, 2, 1]);
        cfg.nstlist = 5;
        let mut engine = Engine::new(sys, DdGrid::new(dims), cfg);
        let stats = engine.run(10);
        assert_eq!(stats.dlb_updates, 0);
        assert!(engine.bounds().is_uniform());
        assert_eq!(stats.rank_loads.len(), 4);
        assert!(stats.rank_loads.iter().all(|&w| w > 0));
        assert!(stats.critical_load >= *stats.rank_loads.iter().max().unwrap() / 2);
        let ratio = stats.load_ratio().expect("loads recorded");
        assert!(ratio >= 1.0);
    }

    #[test]
    fn energy_stays_bounded_across_repartitions() {
        let sys = relaxed_system(3000, 81);
        let (_, stats) = run_engine(&sys, [2, 2, 1], ExchangeBackend::NvshmemFused, 30);
        assert_eq!(stats.steps, 30);
        assert_eq!(stats.energies.len(), 30usize.div_ceil(5));
        let e0 = stats.energies[0].total();
        for (k, e) in stats.energies.iter().enumerate() {
            let s = 5 * k;
            assert!(e.total().is_finite(), "energy diverged at step {s}");
            let rel = ((e.total() - e0) / e0.abs().max(1.0)).abs();
            assert!(rel < 0.3, "energy excursion {rel} at step {s}");
        }
        assert!(stats.ns_per_day > 0.0);
    }
}
