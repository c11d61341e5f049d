//! # halox-dd — neutral-territory eighth-shell domain decomposition
//!
//! The GROMACS-style decomposition substrate the halo exchange operates on:
//!
//! * [`grid`] — DD grid selection (rank factorization over the box) and
//!   rank/coordinate maps with periodic up/down neighbours;
//! * [`bounds`] — movable per-dimension cell boundaries ([`bounds::DdBounds`]),
//!   the state dynamic load balancing adjusts while the grid topology stays
//!   fixed;
//! * [`pulse`] — per-pulse metadata ([`pulse::PulseData`], the paper's
//!   Algorithm 1), including the `depOffset` dependency partition and the
//!   global `[z.., y.., x..]` pulse order;
//! * [`plan`] — central construction of per-rank plans: home assignment,
//!   staged forwarding index maps, zone displacement tracking, bonded-term
//!   assignment, plus *serial reference* coordinate/force exchanges that
//!   define the semantics every concurrent backend must reproduce;
//! * [`density`] — analytic halo-size model for systems too large to
//!   materialize (validated against exact plans), at the plan's own pulse
//!   counts ([`plan::pulse_counts`]); the grid chooser and the service's
//!   admission estimate price halos with it.
//!
//! ```
//! use halox_dd::{build_partition, DdGrid};
//! use halox_md::GrappaBuilder;
//!
//! let system = GrappaBuilder::new(6_000).seed(1).build();
//! let part = build_partition(&system, &DdGrid::new([2, 2, 1]), 0.8);
//! assert_eq!(part.total_pulses(), 2); // y pulse then x pulse
//! // Every pulse's index map is split: home entries first (independent),
//! // forwarded entries after `dep_offset`.
//! for rank in &part.ranks {
//!     for pulse in &rank.pulses {
//!         assert!(pulse.independent().iter().all(|&i| (i as usize) < rank.n_home));
//!     }
//! }
//! ```

// Index-based loops across parallel arrays are the dominant idiom in these
// kernels; clippy's iterator rewrites obscure the cross-array indexing.
#![allow(clippy::needless_range_loop)]
pub mod bounds;
pub mod density;
pub mod grid;
pub mod plan;
pub mod pulse;

pub use bounds::{BoundsError, DdBounds};
pub use density::{grappa_box, PulseSizeModel, WorkloadModel};
pub use grid::{choose_grid, factorizations, try_choose_grid, DdGrid, GridError, GridOptions};
pub use plan::{
    build_partition, pulse_counts, reference_coordinate_exchange, reference_force_exchange,
    try_build_partition, try_build_partition_with, DdPartition, Displacement, HaloEntry, PlanError,
    RankPlan,
};
pub use pulse::{pulses_needed, PulseData, PulseLayout};
