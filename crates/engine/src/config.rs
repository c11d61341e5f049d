//! Engine configuration.

use halox_shmem::{FaultPlan, Topology, WorldBackend};
use halox_trace::Recorder;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Which functional halo-exchange backend drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExchangeBackend {
    /// Serialized pulses over two-sided messaging (GPU-aware-MPI analogue).
    Mpi,
    /// Fused GPU-initiated exchange over the PGAS runtime (NVSHMEM
    /// analogue).
    NvshmemFused,
    /// Serialized pulses with event-driven direct copies (thread-MPI
    /// analogue; single NVLink island only).
    ThreadMpi,
}

impl ExchangeBackend {
    pub fn label(&self) -> &'static str {
        match self {
            ExchangeBackend::Mpi => "MPI",
            ExchangeBackend::NvshmemFused => "NVSHMEM",
            ExchangeBackend::ThreadMpi => "tMPI",
        }
    }
}

/// How the per-PE step loops are executed.
///
/// `Threaded` is the real execution model: one OS thread per PE driving its
/// own fused-exchange + MD step loop concurrently against the shared
/// `ShmemWorld`. `Serial` is a host-serialized reference driver: a single
/// thread advances every rank phase-by-phase using the domain-decomposition
/// reference exchanges (`halox_dd::reference_*_exchange`) — no world, no
/// signals, no chaos deliveries. The two modes are required to produce
/// **bitwise-identical** trajectories (DESIGN.md §3.3); the serial driver is
/// the ground truth the concurrent protocol is checked against, and also
/// models the host-driven blocking baseline when a link delay is configured
/// (see [`EngineConfig::link_delay_us`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunMode {
    /// Single-thread reference driver (deterministic by construction).
    Serial,
    /// One OS thread per PE (the default; deterministic by protocol).
    Threaded,
}

impl RunMode {
    pub fn label(&self) -> &'static str {
        match self {
            RunMode::Serial => "serial",
            RunMode::Threaded => "threaded",
        }
    }
}

/// The non-bonded kernel: the NBNXM-style 4×4 cluster-pair SoA kernel is
/// the only one (DESIGN.md §3.4), so there is nothing to choose. The type
/// and [`EngineConfig::nb_kernel`] remain only because the frozen perf
/// ledger (`benchmarks/src/inputs.rs`) assigns `NbKernel::Cluster`; both go
/// when the ledger stops naming them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NbKernel {
    Cluster,
}

/// Dynamic load balancing policy (DESIGN.md §3.8).
///
/// `Counter` feeds the boundary controller a deterministic work metric
/// (pair interactions + owned atoms per segment), so DLB-on runs stay
/// inside the serial ≡ threaded ≡ procs bitwise contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DlbMode {
    /// Static decomposition: boundaries stay uniform (default).
    Off,
    /// Deterministic work-counter metric (bitwise-safe).
    Counter,
}

impl DlbMode {
    pub fn label(&self) -> &'static str {
        match self {
            DlbMode::Off => "off",
            DlbMode::Counter => "counter",
        }
    }
}

/// Time-stepping scheme (GROMACS `integrator = md` vs `md-vv`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Integrator {
    /// Leapfrog (GROMACS default): velocities at half steps.
    Leapfrog,
    /// Velocity Verlet: positions and velocities synchronous; needs forces
    /// both before and after the position update, i.e. one extra force
    /// computation per segment.
    VelocityVerlet,
}

/// Weak-coupling thermostat parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Thermostat {
    /// Target temperature (K).
    pub t_ref: f64,
    /// Coupling time constant (ps).
    pub tau_ps: f64,
}

/// Watchdog and graceful-degradation policy (DESIGN.md §3.2).
///
/// Every signal wait in the exchange paths is bounded by `deadline`; an
/// expiry surfaces as a [`halox_core::StallReport`]-carrying error instead
/// of a hang. The runner then climbs this ladder: retry the segment up to
/// `max_retries` times (sleeping `backoff` between attempts), then downgrade
/// the run to the `fallback` transport; `repromote_after` consecutive clean
/// fallback segments put the suspect peers on probation for re-promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Per-wait deadline before a stall is diagnosed.
    pub deadline: Duration,
    /// Segment retries on the same transport before downgrading.
    pub max_retries: usize,
    /// Sleep between segment retries (lets transient faults clear).
    pub backoff: Duration,
    /// Consecutive clean fallback segments before quarantined peers are
    /// put on probation.
    pub repromote_after: u32,
    /// Transport to degrade to. [`ExchangeBackend::Mpi`] is the natural
    /// choice: two-sided rendezvous, no symmetric signal slots, so the
    /// fault classes that stall the fused path cannot touch it.
    pub fallback: ExchangeBackend,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            deadline: Duration::from_secs(5),
            max_retries: 1,
            backoff: Duration::from_millis(5),
            repromote_after: 2,
            fallback: ExchangeBackend::Mpi,
        }
    }
}

/// Durable checkpoint / supervised-recovery policy (DESIGN.md §3.6).
///
/// Checkpoints are written at segment boundaries — the retry/replay unit:
/// a failed segment never gathers into the engine's `System`, so the state
/// at a boundary is exactly the state an uninterrupted run had there, and
/// a resume from it is bitwise-equal by construction. Enabling this also
/// arms the last rung of the failure ladder: a segment that fails
/// *terminally* (retries and fallback exhausted, or a dead PE) rewinds to
/// the most recent checkpoint and replays with a fresh world instead of
/// surfacing the error, up to `max_recoveries` times per run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory the `ckpt-<step>.hxck` files are written to (created on
    /// first write).
    pub dir: PathBuf,
    /// Snapshot every N completed segments (min 1).
    pub every_segments: usize,
    /// On-disk checkpoints retained (older ones are pruned after each
    /// write). Keep at least 2 so a corrupt latest file still leaves a
    /// fallback.
    pub keep: usize,
    /// Rewind-and-replay attempts per `run()` call before a terminal
    /// segment failure is surfaced to the caller after all.
    pub max_recoveries: usize,
}

impl CheckpointConfig {
    pub fn in_dir(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every_segments: 1,
            keep: 3,
            max_recoveries: 3,
        }
    }
}

/// Parameters of a domain-decomposed MD run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Non-bonded cutoff (nm).
    pub cutoff: f32,
    /// Verlet buffer (nm); halo distance = cutoff + buffer.
    pub buffer: f32,
    /// Time step (ps).
    pub dt_ps: f32,
    /// Steps between neighbour-search / repartition events.
    pub nstlist: usize,
    pub backend: ExchangeBackend,
    /// Executor: threaded per-PE loops (default) or the serial reference
    /// driver. Chaos injection and transport selection only apply to
    /// `Threaded` — the serial driver performs no deliveries to fault.
    pub run_mode: RunMode,
    /// Read by nothing: see [`NbKernel`].
    pub nb_kernel: NbKernel,
    /// Dynamic load balancing: off, or the deterministic counter metric.
    pub dlb: DlbMode,
    /// Evaluate the local (home–home) tile partition between posting the
    /// coordinate halo sends and waiting for arrivals, hiding halo latency
    /// under home-atom compute. Off, the
    /// local partition runs after the wait like everything else. Forces,
    /// energies, and trajectories are identical either way — the same
    /// tiles are folded in the same order; only wall-clock changes.
    pub nb_overlap: bool,
    /// Modeled interconnect latency per proxied (inter-node) message, in
    /// microseconds; 0 disables it. In `Threaded` mode the per-PE proxy
    /// thread pays it asynchronously (GPU-initiated one-sided semantics:
    /// latency overlaps with other PEs' work). In `Serial` mode the driver
    /// sleeps it inline per message — the host-driven blocking-send
    /// baseline of the paper. Values are unaffected either way; only
    /// wall-clock changes (`tests/threaded_equivalence.rs` pins the former
    /// with `link_delay_us = 200` on `islands(8,4)`).
    pub link_delay_us: u64,
    /// PE fabric (NVLink islands vs all-NVLink); PEs == DD ranks.
    pub topology_gpus_per_node: Option<usize>,
    /// Optional Berendsen-style weak coupling (needs a global kinetic-energy
    /// all-reduce every step — a collective the GPU-resident schedule
    /// normally avoids, which is why GROMACS couples only every nsttcouple
    /// steps; we apply it per step for simplicity).
    pub thermostat: Option<Thermostat>,
    pub integrator: Integrator,
    /// Functional-plane event recorder. When set, every segment's world is
    /// built with the recorder attached and the exchange paths emit
    /// signal/region/span events into it (see `halox-trace`); the caller
    /// drains it after the run for Chrome-trace export or protocol checking.
    pub trace: Option<Arc<Recorder>>,
    /// PGAS world backend: PEs as threads (default) or forked processes
    /// over the shared symmetric heap.
    pub world_backend: WorldBackend,
    /// Bounded-wait and degradation policy.
    pub watchdog: WatchdogConfig,
    /// Deterministic fault injection: when set, every segment's PGAS world
    /// carries this plan's chaos engine (one engine for the whole run, so
    /// operation counters — and thus fault schedules — span segments).
    pub chaos: Option<FaultPlan>,
    /// Durable checkpoints + supervised rewind-and-replay recovery
    /// (DESIGN.md §3.6). `None` disables both.
    pub checkpoint: Option<CheckpointConfig>,
}

impl EngineConfig {
    /// Defaults, with `world_backend` taken from the `HALOX_BACKEND` lever
    /// (README has the table). A value it does not accept panics here.
    pub fn new(backend: ExchangeBackend) -> Self {
        EngineConfig {
            cutoff: 0.7,
            buffer: 0.1,
            dt_ps: 0.0005,
            nstlist: 10,
            backend,
            run_mode: RunMode::Threaded,
            nb_kernel: NbKernel::Cluster,
            dlb: DlbMode::Off,
            nb_overlap: true,
            link_delay_us: 0,
            topology_gpus_per_node: None,
            thermostat: None,
            integrator: Integrator::Leapfrog,
            trace: None,
            world_backend: WorldBackend::from_env(),
            watchdog: WatchdogConfig::default(),
            chaos: None,
            checkpoint: None,
        }
    }

    pub fn r_comm(&self) -> f32 {
        self.cutoff + self.buffer
    }

    pub fn topology(&self, n_ranks: usize) -> Topology {
        match self.topology_gpus_per_node {
            Some(g) => Topology::islands(n_ranks, g),
            None => Topology::all_nvlink(n_ranks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = EngineConfig::new(ExchangeBackend::NvshmemFused);
        assert!((c.r_comm() - 0.8).abs() < 1e-6);
        assert!(c.topology(4).nvlink_reachable(0, 3));
        let c2 = EngineConfig {
            topology_gpus_per_node: Some(2),
            ..EngineConfig::new(ExchangeBackend::Mpi)
        };
        assert!(!c2.topology(4).nvlink_reachable(0, 3));
    }
}
