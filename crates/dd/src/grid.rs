//! Domain-decomposition grid selection and rank <-> grid-coordinate maps.
//!
//! GROMACS chooses the DD grid from the box shape and rank count
//! (`dd_choose_grid`); the paper's runs span 1D (4-8 GPUs) to 3D (32+ GPUs)
//! decompositions. We implement a cost-based chooser — the analytic model's
//! eighth-shell halo per candidate factorization, at the plan's pulse
//! counts, plus a per-pulse latency penalty — and, like `mdrun -dd`, an
//! explicit override used by the figure harnesses to pin the exact grids the
//! paper reports.

use crate::bounds::DdBounds;
use crate::density::WorkloadModel;
use halox_md::Vec3;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why DD grid selection failed. Carries the rank count and box so the
/// engine can surface a config-time error instead of panicking mid-setup.
#[derive(Debug, Clone, PartialEq)]
pub enum GridError {
    /// `GridOptions::force_grid` names a factorization whose rank product
    /// disagrees with the requested rank count.
    ForcedMismatch { forced: [usize; 3], n_ranks: usize },
    /// Every factorization of `n_ranks` needs more than `max_pulses` pulses
    /// in some dimension, or is a geometry the plan refuses; no feasible
    /// decomposition exists.
    Infeasible { n_ranks: usize, box_lengths: Vec3 },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::ForcedMismatch { forced, n_ranks } => {
                write!(f, "forced grid {forced:?} != {n_ranks} ranks")
            }
            GridError::Infeasible {
                n_ranks,
                box_lengths,
            } => write!(
                f,
                "no feasible DD grid for {n_ranks} ranks on box {box_lengths:?}"
            ),
        }
    }
}

impl std::error::Error for GridError {}

/// A DD grid: number of domains along x, y, z.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DdGrid {
    pub dims: [usize; 3],
}

impl DdGrid {
    pub fn new(dims: [usize; 3]) -> Self {
        assert!(
            dims.iter().all(|&d| d >= 1),
            "grid dims must be >= 1: {dims:?}"
        );
        DdGrid { dims }
    }

    pub fn n_ranks(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Number of decomposed dimensions (dims > 1).
    pub fn n_decomposed(&self) -> usize {
        self.dims.iter().filter(|&&d| d > 1).count()
    }

    /// Decomposed dimensions in the paper's communication phase order:
    /// z first, then y, then x.
    pub fn comm_dims(&self) -> Vec<usize> {
        [2usize, 1, 0]
            .into_iter()
            .filter(|&d| self.dims[d] > 1)
            .collect()
    }

    /// Rank id of grid coordinates (x-major, like GROMACS' default order).
    #[inline]
    pub fn rank_of(&self, c: [usize; 3]) -> usize {
        debug_assert!(c[0] < self.dims[0] && c[1] < self.dims[1] && c[2] < self.dims[2]);
        (c[0] * self.dims[1] + c[1]) * self.dims[2] + c[2]
    }

    /// Grid coordinates of a rank id.
    #[inline]
    pub fn coords_of(&self, rank: usize) -> [usize; 3] {
        debug_assert!(rank < self.n_ranks());
        let z = rank % self.dims[2];
        let y = (rank / self.dims[2]) % self.dims[1];
        let x = rank / (self.dims[1] * self.dims[2]);
        [x, y, z]
    }

    /// Neighbour rank one step "down" (toward lower coordinate, periodic)
    /// in dimension `dim`: the destination of halo *sends*.
    pub fn down_neighbor(&self, rank: usize, dim: usize) -> usize {
        let mut c = self.coords_of(rank);
        c[dim] = (c[dim] + self.dims[dim] - 1) % self.dims[dim];
        self.rank_of(c)
    }

    /// Neighbour rank one step "up" (toward higher coordinate, periodic)
    /// in dimension `dim`: the source of halo *receives*.
    pub fn up_neighbor(&self, rank: usize, dim: usize) -> usize {
        let mut c = self.coords_of(rank);
        c[dim] = (c[dim] + 1) % self.dims[dim];
        self.rank_of(c)
    }

    /// Per-rank domain edge lengths for a box.
    pub fn domain_lengths(&self, box_lengths: Vec3) -> Vec3 {
        Vec3::new(
            box_lengths.x / self.dims[0] as f32,
            box_lengths.y / self.dims[1] as f32,
            box_lengths.z / self.dims[2] as f32,
        )
    }
}

/// Latency penalty per forwarding pulse, in "equivalent halo atoms": the
/// per-pulse launch/latency overhead that makes GROMACS prefer fewer
/// communication phases at small scale.
const PULSE_PENALTY_ATOMS: f64 = 1200.0;

/// Options for [`choose_grid`].
#[derive(Debug, Clone)]
pub struct GridOptions {
    /// Halo communication distance (cutoff + Verlet buffer), nm.
    pub r_comm: f32,
    /// Atom number density used to convert zone volumes to atom counts.
    pub density: f64,
    /// Explicit grid override (like `mdrun -dd x y z`); must match n_ranks.
    pub force_grid: Option<[usize; 3]>,
    /// Maximum forwarding pulses per dimension a candidate grid may need.
    /// The default of 1 keeps the chooser in the paper's single-pulse
    /// regime; raising it admits thin-cell grids whose halos arrive via
    /// multi-pulse forwarding (each extra pulse also pays the per-pulse
    /// latency penalty).
    pub max_pulses: usize,
}

impl Default for GridOptions {
    fn default() -> Self {
        GridOptions {
            r_comm: 1.05,
            density: halox_md::GRAPPA_ATOM_DENSITY,
            force_grid: None,
            max_pulses: 1,
        }
    }
}

/// Enumerate all factorizations of `n` into [nx, ny, nz].
pub fn factorizations(n: usize) -> Vec<[usize; 3]> {
    let mut out = Vec::new();
    for nx in 1..=n {
        if !n.is_multiple_of(nx) {
            continue;
        }
        let rem = n / nx;
        for ny in 1..=rem {
            if !rem.is_multiple_of(ny) {
                continue;
            }
            out.push([nx, ny, rem / ny]);
        }
    }
    out
}

/// What the chooser weighs for one grid: the analytic model's halo atoms
/// per rank and its pulse count. `None` for a grid the plan refuses or one
/// needing more than `opts.max_pulses` pulses in a dimension. (`n_atoms`
/// only scales per-rank figures; the halo needs the density alone.)
fn candidate(grid: DdGrid, box_lengths: Vec3, opts: &GridOptions) -> Option<(f64, usize)> {
    let model = WorkloadModel {
        n_atoms: 0,
        density: opts.density,
        r_comm: opts.r_comm,
        grid,
        box_lengths,
    };
    let sizes = model.try_pulse_sizes_with(&DdBounds::uniform(&grid)).ok()?;
    let pulses_in = |d| sizes.iter().filter(|p| p.dim == d).count();
    if (0..3).any(|d| pulses_in(d) > opts.max_pulses) {
        return None;
    }
    Some((sizes.iter().map(|p| p.send_atoms).sum(), sizes.len()))
}

/// Choose a DD grid for `n_ranks` on a box, minimizing the analytic model's
/// halo atoms ([`WorkloadModel`]) plus a per-pulse latency penalty. Every
/// pick builds with [`crate::try_build_partition`] within
/// `opts.max_pulses` pulses per dimension. Returns [`GridError::Infeasible`]
/// if no feasible grid exists (every factorization needs more pulses than
/// allowed, or is a geometry the plan refuses) and
/// [`GridError::ForcedMismatch`] for a bad override.
pub fn try_choose_grid(
    n_ranks: usize,
    box_lengths: Vec3,
    opts: &GridOptions,
) -> Result<DdGrid, GridError> {
    assert!(n_ranks >= 1);
    if let Some(f) = opts.force_grid {
        let g = DdGrid::new(f);
        if g.n_ranks() != n_ranks {
            return Err(GridError::ForcedMismatch { forced: f, n_ranks });
        }
        return Ok(g);
    }
    let mut best: Option<(f64, DdGrid)> = None;
    for dims in factorizations(n_ranks) {
        let g = DdGrid::new(dims);
        let Some((halo, pulses)) = candidate(g, box_lengths, opts) else {
            continue;
        };
        let cost = halo + PULSE_PENALTY_ATOMS * pulses as f64;
        let better = match &best {
            None => true,
            Some((c, bg)) => {
                cost < *c - 1e-9
                    || ((cost - *c).abs() <= 1e-9
                        && (dims[0], dims[1], dims[2]) > (bg.dims[0], bg.dims[1], bg.dims[2]))
            }
        };
        if better {
            best = Some((cost, g));
        }
    }
    best.map(|(_, g)| g).ok_or(GridError::Infeasible {
        n_ranks,
        box_lengths,
    })
}

/// Panicking convenience wrapper over [`try_choose_grid`], for harnesses and
/// tests where an infeasible grid is a programming error.
pub fn choose_grid(n_ranks: usize, box_lengths: Vec3, opts: &GridOptions) -> DdGrid {
    try_choose_grid(n_ranks, box_lengths, opts).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The analytic model of a grid at the chooser's density and radius.
    fn model(grid: &DdGrid, box_lengths: Vec3, opts: &GridOptions) -> WorkloadModel {
        WorkloadModel {
            n_atoms: 0,
            density: opts.density,
            r_comm: opts.r_comm,
            grid: *grid,
            box_lengths,
        }
    }

    #[test]
    fn rank_coord_round_trip() {
        let g = DdGrid::new([4, 3, 2]);
        assert_eq!(g.n_ranks(), 24);
        for r in 0..24 {
            assert_eq!(g.rank_of(g.coords_of(r)), r);
        }
    }

    #[test]
    fn neighbors_wrap_periodically() {
        let g = DdGrid::new([4, 1, 1]);
        let r0 = g.rank_of([0, 0, 0]);
        let r3 = g.rank_of([3, 0, 0]);
        assert_eq!(g.down_neighbor(r0, 0), r3);
        assert_eq!(g.up_neighbor(r3, 0), r0);
        assert_eq!(g.up_neighbor(r0, 0), g.rank_of([1, 0, 0]));
    }

    #[test]
    fn comm_dims_order_z_y_x() {
        assert_eq!(DdGrid::new([4, 2, 2]).comm_dims(), vec![2, 1, 0]);
        assert_eq!(DdGrid::new([4, 2, 1]).comm_dims(), vec![1, 0]);
        assert_eq!(DdGrid::new([4, 1, 1]).comm_dims(), vec![0]);
        assert_eq!(DdGrid::new([1, 1, 1]).comm_dims(), Vec::<usize>::new());
    }

    #[test]
    fn factorizations_complete() {
        let f = factorizations(12);
        assert!(f.contains(&[12, 1, 1]));
        assert!(f.contains(&[3, 2, 2]));
        assert!(f.contains(&[1, 1, 12]));
        for dims in &f {
            assert_eq!(dims[0] * dims[1] * dims[2], 12);
        }
    }

    #[test]
    fn forced_grid_respected() {
        let opts = GridOptions {
            force_grid: Some([8, 1, 1]),
            ..Default::default()
        };
        let g = choose_grid(8, Vec3::splat(10.0), &opts);
        assert_eq!(g.dims, [8, 1, 1]);
    }

    #[test]
    #[should_panic]
    fn forced_grid_must_match_ranks() {
        let opts = GridOptions {
            force_grid: Some([4, 1, 1]),
            ..Default::default()
        };
        let _ = choose_grid(8, Vec3::splat(10.0), &opts);
    }

    #[test]
    fn try_choose_grid_reports_infeasible_with_context() {
        // 4096 ranks on a 7.66 nm box: every factorization is too thin.
        let err = try_choose_grid(4096, Vec3::splat(7.66), &GridOptions::default()).unwrap_err();
        match &err {
            GridError::Infeasible { n_ranks, .. } => assert_eq!(*n_ranks, 4096),
            other => panic!("wrong error: {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("4096") && msg.contains("7.66"), "{msg}");
    }

    #[test]
    fn try_choose_grid_reports_forced_mismatch() {
        let opts = GridOptions {
            force_grid: Some([4, 1, 1]),
            ..Default::default()
        };
        let err = try_choose_grid(8, Vec3::splat(10.0), &opts).unwrap_err();
        assert_eq!(
            err,
            GridError::ForcedMismatch {
                forced: [4, 1, 1],
                n_ranks: 8
            }
        );
    }

    #[test]
    fn small_rank_counts_prefer_1d() {
        // 4 ranks on the 45k-atom box (edge ~7.7 nm): paper runs 1D.
        let g = choose_grid(4, Vec3::splat(7.66), &GridOptions::default());
        assert_eq!(g.n_decomposed(), 1, "grid {:?}", g.dims);
    }

    #[test]
    fn infeasible_thin_domains_rejected() {
        let opts = GridOptions::default();
        // 32 ranks on a small box: 32x1x1 would give 0.24 nm domains.
        let est = candidate(DdGrid::new([32, 1, 1]), Vec3::splat(7.66), &opts);
        assert!(est.is_none());
    }

    #[test]
    fn max_pulses_relaxation_admits_thin_grids() {
        // 8x1x1 on an 8 nm box with r_comm 1.05: 1.0 nm cells need 2
        // pulses — rejected by default, admitted when opted in.
        let g = DdGrid::new([8, 1, 1]);
        let box_l = Vec3::splat(8.0);
        assert!(candidate(g, box_l, &GridOptions::default()).is_none());
        let opts = GridOptions {
            max_pulses: 2,
            ..Default::default()
        };
        let (est, pulses) = candidate(g, box_l, &opts).unwrap();
        assert_eq!(pulses, 2);
        // Total slab depth is still rc regardless of pulse count.
        assert!((est - 1.05 * 8.0 * 8.0 * 100.0).abs() < 1e-3, "{est}");
        // But a chain as long as the grid stays infeasible even opted-in.
        let opts = GridOptions {
            max_pulses: 8,
            ..Default::default()
        };
        assert!(candidate(DdGrid::new([8, 1, 1]), Vec3::splat(1.0), &opts).is_none());
        // And the chooser pays the per-pulse penalty: with relaxation on,
        // 8 ranks on the thin box prefer a 2D split over a 2-pulse 1D one
        // only when the extra halo beats the extra pulse latency.
        let chosen = choose_grid(8, box_l, &opts);
        let (est_chosen, _) = candidate(chosen, box_l, &opts).unwrap();
        assert!(est_chosen.is_finite());
    }

    #[test]
    fn halo_estimate_matches_hand_computation_1d() {
        let opts = GridOptions {
            r_comm: 1.0,
            density: 100.0,
            ..Default::default()
        };
        let g = DdGrid::new([4, 1, 1]);
        let est = model(&g, Vec3::splat(8.0), &opts).halo_atoms_per_rank();
        // Single pulse in x: rc * Ly * Lz * rho = 1 * 8 * 8 * 100.
        assert!((est - 6400.0).abs() < 1e-6, "{est}");
    }

    #[test]
    fn halo_estimate_includes_corner_forwarding_3d() {
        let opts = GridOptions {
            r_comm: 1.0,
            density: 1.0,
            ..Default::default()
        };
        let g = DdGrid::new([2, 2, 2]);
        let l = 4.0f32; // domain edge
        let est = model(&g, Vec3::splat(8.0), &opts).halo_atoms_per_rank();
        // z pulse: rc*lx*ly = 16; y: rc*lx*(lz+rc) = 20; x: rc*(ly+rc)*(lz+rc) = 25.
        let expect = (l as f64) * (l as f64)
            + (l as f64) * (l as f64 + 1.0)
            + (l as f64 + 1.0) * (l as f64 + 1.0);
        assert!((est - expect).abs() < 1e-6, "{est} vs {expect}");
    }

    /// A grappa-density system in a box of `lengths`: the grappa cube of the
    /// same volume, stretched per dimension.
    fn system_in(lengths: Vec3) -> halox_md::System {
        let n = (lengths.x * lengths.y * lengths.z * 100.0).round() as usize;
        let mut sys = halox_md::GrappaBuilder::new(n).seed(7).build();
        let edge = sys.pbc.lengths();
        for p in &mut sys.positions {
            *p = Vec3::new(
                p.x * lengths.x / edge.x,
                p.y * lengths.y / edge.y,
                p.z * lengths.z / edge.z,
            );
        }
        sys.pbc = halox_md::PbcBox::new(lengths);
        sys
    }

    #[test]
    fn every_pick_builds_within_max_pulses() {
        use crate::plan::{try_build_partition, PlanError};
        use std::collections::HashMap;
        // Boxes whose cells fit r_comm exactly at some rank count, where f32
        // decides between one pulse and two.
        let boxes = [
            (Vec3::splat(3.0), 1.0), // the 2 700-atom grappa cube
            (Vec3::new(3.0, 3.0, 1.5), 1.0),
            (Vec3::splat(4.0), 1.0),
            (Vec3::splat(3.15), 1.05),
            (Vec3::new(2.4, 4.8, 2.4), 0.8),
        ];
        let systems: Vec<_> = boxes.iter().map(|&(box_l, _)| system_in(box_l)).collect();
        let ranks = (1..=12).chain([16, 18, 24, 27]);
        let mut built: HashMap<(usize, [usize; 3]), Result<[usize; 3], PlanError>> = HashMap::new();
        let mut picks = 0;
        for n_ranks in ranks {
            for (b, &(box_l, r_comm)) in boxes.iter().enumerate() {
                let sys = &systems[b];
                for max_pulses in 1..=3 {
                    let opts = GridOptions {
                        r_comm,
                        density: sys.density(),
                        max_pulses,
                        ..Default::default()
                    };
                    let Ok(grid) = try_choose_grid(n_ranks, box_l, &opts) else {
                        continue;
                    };
                    let pulses = built.entry((b, grid.dims)).or_insert_with(|| {
                        let part = try_build_partition(sys, &grid, r_comm)?;
                        let mut pulses = [0; 3];
                        for &(d, n) in &part.layout.per_dim {
                            pulses[d] = n;
                        }
                        Ok(pulses)
                    });
                    let pulses = pulses.as_ref().unwrap_or_else(|e| {
                        panic!(
                            "{n_ranks} ranks on {box_l:?}: {:?} does not build: {e}",
                            grid.dims
                        )
                    });
                    assert!(
                        pulses.iter().all(|&n| n <= max_pulses),
                        "{n_ranks} ranks on {box_l:?}, max_pulses {max_pulses}: {:?} builds {pulses:?}",
                        grid.dims
                    );
                    picks += 1;
                }
            }
        }
        assert!(picks > 100, "only {picks} picks");
        // The 2 700-atom cube's three 1.0 nm cells are 0.99999994 nm in f32:
        // two pulses, so one-pulse grids do not exist for 3 ranks...
        let cube = Vec3::splat(3.0);
        let one = GridOptions {
            r_comm: 1.0,
            ..Default::default()
        };
        assert!(try_choose_grid(3, cube, &one).is_err());
        let two = GridOptions {
            max_pulses: 2,
            ..one.clone()
        };
        assert_eq!(try_choose_grid(3, cube, &two).unwrap().dims, [3, 1, 1]);
        // ...and 27 ranks on 3 x 3 x 1.5 nm have no grid the plan builds:
        // three z cells need three pulses, one z cell is under 2 r_comm.
        let slab = Vec3::new(3.0, 3.0, 1.5);
        assert!(matches!(
            try_choose_grid(27, slab, &two),
            Err(GridError::Infeasible { n_ranks: 27, .. })
        ));
    }

    #[test]
    fn grappa_progression_matches_paper_1d_2d_3d() {
        // Paper Figs 7/8: at fixed atoms/GPU, 8 ranks run 1D, 16 ranks 2D,
        // 32 ranks 3D — driven by the replicated grappa box shapes.
        let opts = GridOptions::default();
        let g8 = choose_grid(8, crate::density::grappa_box(90_000, 100.0), &opts);
        assert_eq!(g8.n_decomposed(), 1, "8 ranks: {:?}", g8.dims);
        let g16 = choose_grid(16, crate::density::grappa_box(180_000, 100.0), &opts);
        assert_eq!(g16.n_decomposed(), 2, "16 ranks: {:?}", g16.dims);
        let g32 = choose_grid(32, crate::density::grappa_box(360_000, 100.0), &opts);
        assert_eq!(g32.n_decomposed(), 3, "32 ranks: {:?}", g32.dims);
        // And 4 ranks intra-node stay 1D (Figs 3/6).
        let g4 = choose_grid(4, crate::density::grappa_box(45_000, 100.0), &opts);
        assert_eq!(g4.n_decomposed(), 1, "4 ranks: {:?}", g4.dims);
    }

    #[test]
    fn more_ranks_eventually_need_more_dims() {
        // 64 ranks on a 15.3 nm box cannot stay 1D (0.24 nm domains).
        let g = choose_grid(64, Vec3::splat(15.33), &GridOptions::default());
        assert!(g.n_decomposed() >= 2, "grid {:?}", g.dims);
        for (i, &d) in g.dims.iter().enumerate() {
            if d > 1 {
                assert!(15.33 / d as f32 >= 1.05, "dim {i} too thin in {:?}", g.dims);
            }
        }
    }
}
