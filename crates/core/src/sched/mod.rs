//! Timing plane: lower the halo-exchange step schedules onto the cluster
//! simulator and extract the paper's device-side metrics.
//!
//! One step schedule (`step`, Algorithm 2) and three exchange lowerings
//! (`mpi`, `tmpi`, `nvshmem`) that say only what differs between Fig 1 and
//! Fig 2. As on the functional plane (`halox-engine::step`) the skeleton is
//! shared by construction, so what the shape tests prove is exactly the
//! lowerings.

pub mod input;
pub mod metrics;
mod mpi;
mod nvshmem;
mod step;
mod tmpi;

pub use input::ScheduleInput;
pub use metrics::{ScheduleRun, StepMetrics};

/// Which halo-exchange implementation a schedule models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Backend {
    /// GPU-aware MPI, serialized pulses, CPU-synchronized (Fig 1).
    Mpi,
    /// Thread-MPI event-driven DMA copies (intra-node only).
    ThreadMpi,
    /// Fused GPU-initiated NVSHMEM exchange (Fig 2).
    Nvshmem,
}

impl Backend {
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Mpi => "MPI",
            Backend::ThreadMpi => "tMPI",
            Backend::Nvshmem => "NVSHMEM",
        }
    }
}

/// Build a schedule for a backend.
pub fn build(backend: Backend, input: &ScheduleInput, n_steps: usize) -> ScheduleRun {
    match backend {
        Backend::Mpi => step::build::<mpi::Mpi>(input, n_steps),
        Backend::ThreadMpi => step::build::<tmpi::ThreadMpi>(input, n_steps),
        Backend::Nvshmem => step::build::<nvshmem::Nvshmem>(input, n_steps),
    }
}

/// Convenience: build, run, and extract steady-state metrics.
pub fn simulate(
    backend: Backend,
    input: &ScheduleInput,
    n_steps: usize,
    warmup: usize,
) -> StepMetrics {
    build(backend, input, n_steps).metrics(warmup)
}
