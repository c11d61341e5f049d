//! # halox-shmem — a thread-based PGAS runtime standing in for NVSHMEM
//!
//! The functional execution plane of the halo-exchange study needs NVSHMEM's
//! semantics without NVSHMEM hardware: a partitioned global address space,
//! one-sided puts/gets, put-with-signal, acquire/release signal ordering,
//! and the NVLink-direct vs network-proxy transport split. PEs are OS
//! threads (or forked processes); "GPU memory" is per-PE segments of relaxed
//! atomic words in fork-shared mappings their owner frees on drop
//! ([`shared`]); all inter-PE ordering flows through release/acquire
//! signals, mirroring the paper's use of PTX `st.release.sys` / acquire
//! loads (§5.2).
//!
//! Also provided: a two-sided message fabric ([`twosided`]) as the GPU-aware
//! MPI stand-in for the baseline halo exchange, and a sense-reversing
//! barrier.
//!
//! ```
//! use halox_shmem::{ShmemWorld, SymVec3, Topology};
//! use halox_md::Vec3;
//!
//! let world = ShmemWorld::new(Topology::islands(2, 1), 1); // 2 PEs over "IB"
//! let buf = SymVec3::alloc(2, 4);
//! let b = &buf;
//! world.run(|pe| {
//!     if pe.id == 0 {
//!         // put-with-signal: data lands on PE 1, then its signal fires.
//!         pe.put_vec3_signal_nbi(b, 1, 0, &[Vec3::splat(7.0)], 0, 1);
//!     } else {
//!         pe.wait_signal(0, 1);
//!         assert_eq!(b.get(1, 0), Vec3::splat(7.0));
//!     }
//! });
//! ```

// Index-based loops across parallel arrays are the dominant idiom in these
// kernels; clippy's iterator rewrites obscure the cross-array indexing.
#![allow(clippy::needless_range_loop)]
pub mod barrier;
pub mod chaos;
pub mod collectives;
pub mod pool;
pub mod shared;
pub mod signal;
pub mod sym;
pub mod twosided;
pub mod wire;
pub mod world;

pub use barrier::{BarrierTimeout, SenseBarrier};
pub use chaos::{ChaosEngine, ChaosReport, FaultKind, FaultOp, FaultPlan, FaultRule};
pub use collectives::{AtomicF64, Collectives};
pub use pool::{PoolStats, WorldKey, WorldLease, WorldPool};
pub use shared::{Slots, SymAllocError};
pub use signal::SignalSet;
pub use sym::SymVec3;
pub use twosided::TwoSidedComm;
pub use wire::{crc32, Wire, WireError, WireReader};
pub use world::{
    Fabric, Pe, PeFailure, ProxyConfig, ShmemWorld, Topology, WorldBackend, WorldError,
};
