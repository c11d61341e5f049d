//! # halox — GPU-initiated fused halo exchange for MD strong scaling
//!
//! A Rust reproduction of *"Redesigning GROMACS Halo Exchange: Improving
//! Strong Scaling with GPU-initiated NVSHMEM"* (SC Workshops '25): the fused
//! pack+communicate+notify halo exchange with dependency partitioning, built
//! on from-scratch substrates — an MD engine, a neutral-territory
//! eighth-shell domain decomposition, a thread-based PGAS runtime standing
//! in for NVSHMEM, and a discrete-event GPU-cluster timing simulator that
//! regenerates the paper's evaluation figures.
//!
//! ```
//! use halox::prelude::*;
//!
//! // Build a small water-ethanol system, relax it, and run 10 steps of
//! // domain-decomposed MD with the fused NVSHMEM-style halo exchange.
//! let mut system = GrappaBuilder::new(3000).seed(1).temperature(200.0).build();
//! steepest_descent(&mut system, MinimizeOptions::default());
//! let mut engine = Engine::new(
//!     system,
//!     DdGrid::new([2, 2, 1]),
//!     EngineConfig::new(ExchangeBackend::NvshmemFused),
//! );
//! let stats = engine.run(10);
//! assert_eq!(stats.steps, 10);
//! // Energies are recorded every `nstlist` (default 10) steps: step 0 here.
//! assert_eq!(stats.energies.len(), 10usize.div_ceil(engine.config.nstlist));
//! ```

pub use halox_core as core;
pub use halox_dd as dd;
pub use halox_engine as engine;
pub use halox_gpusim as gpusim;
pub use halox_md as md;
pub use halox_serve as serve;
pub use halox_shmem as shmem;
pub use halox_trace as trace;

/// The most common entry points.
pub mod prelude {
    pub use halox_core::sched::{simulate, Backend, ScheduleInput, StepMetrics};
    pub use halox_core::{build_contexts, CommContext, FusedBuffers};
    pub use halox_dd::{build_partition, choose_grid, DdGrid, GridOptions, WorkloadModel};
    pub use halox_engine::{Engine, EngineConfig, ExchangeBackend, RunStats};
    pub use halox_gpusim::MachineModel;
    pub use halox_md::minimize::{steepest_descent, MinimizeOptions};
    pub use halox_md::{GrappaBuilder, ReferenceSimulation, System, Vec3};
    pub use halox_serve::{JobService, JobSpec, Priority, ServeConfig};
    pub use halox_shmem::{Pe, ShmemWorld, Topology, WorldPool};
}
