//! # halox-engine — the domain-decomposed MD engine
//!
//! Runs real multi-PE molecular dynamics over the functional halo-exchange
//! backends (fused NVSHMEM-style or serialized MPI-style): one thread per DD
//! rank, eighth-shell zone-pair force computation on home+halo copies,
//! leapfrog integration of home atoms, and central repartitioning at
//! neighbour-search boundaries. Correctness is established against the
//! single-rank [`halox_md::ReferenceSimulation`].

pub mod checkpoint;
pub mod config;
pub mod devtimer;
pub mod dlb;
pub mod health;
pub mod runner;
mod step;

pub use checkpoint::{Checkpoint, CheckpointError, ConfigFingerprint, StatsSnapshot};
pub use config::{
    CheckpointConfig, DlbMode, EngineConfig, ExchangeBackend, NbKernel, RunMode, Thermostat,
    WatchdogConfig,
};
pub use devtimer::PhaseTimer;
pub use dlb::DlbController;
pub use health::{HealthBoard, PeerState};
pub use runner::{Downgrade, Engine, EngineError, RunStats};

// Re-exported so engine users can select the PGAS world backend, pool and
// lease worlds for [`Engine::attach_world`], and match on the decomposition
// errors surfaced through [`EngineError`].
pub use halox_dd::{DdBounds, GridError, GridOptions, PlanError};
pub use halox_shmem::{PoolStats, WorldBackend, WorldKey, WorldLease, WorldPool};
