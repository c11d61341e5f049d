//! # halox-core — GPU-initiated fused halo exchange
//!
//! The paper's primary contribution, in two execution planes sharing the
//! same pulse metadata ([`halox_dd::PulseData`]):
//!
//! * [`exec`] — *functional*: the fused pack+communicate+notify coordinate
//!   exchange and the fused communicate+unpack force exchange (paper
//!   Algorithms 3-6) running over the thread-based PGAS runtime, next to the
//!   serialized-pulse two-sided baseline. Used to prove algorithmic
//!   correctness (multi-rank MD trajectories match a single-rank reference).
//! * [`sched`] — *timing*: the same schedules lowered to task graphs on the
//!   cluster simulator, regenerating the paper's performance figures.

// Index-based loops across parallel arrays are the dominant idiom in these
// kernels; clippy's iterator rewrites obscure the cross-array indexing.
#![allow(clippy::needless_range_loop)]
//! ```
//! use halox_core::sched::{simulate, Backend, ScheduleInput};
//! use halox_dd::{DdGrid, WorkloadModel};
//! use halox_gpusim::MachineModel;
//!
//! // The paper's headline configuration: 45k atoms on 4 H100s.
//! let model = WorkloadModel::grappa(45_000, 1.05, DdGrid::new([4, 1, 1]));
//! let input = ScheduleInput::from_workload(MachineModel::dgx_h100(), &model);
//! let mpi = simulate(Backend::Mpi, &input, 8, 3);
//! let nvs = simulate(Backend::Nvshmem, &input, 8, 3);
//! assert!(nvs.time_per_step_ns < mpi.time_per_step_ns);
//! ```

pub mod ctx;
pub mod error;
pub mod exec;
pub mod sched;

pub use ctx::{build_contexts, CommContext};
pub use error::{ExchangeError, ExchangePhase, StallReport, Watchdog};
pub use exec::{fused_comm_unpack_f, fused_pack_comm_x, wait_coordinate_arrivals, FusedBuffers};
pub use sched::{simulate, Backend, ScheduleInput, ScheduleRun, StepMetrics};
