//! Deterministic dynamic load balancing (DESIGN.md §3.8).
//!
//! At every neighbour-search boundary the engine gathers one load figure
//! per PE and hands it to the [`DlbController`], which shifts the movable
//! DD cell boundaries ([`halox_dd::DdBounds`]) toward the overloaded slabs
//! with bounded, deterministic moves. The load metric is a work counter:
//! pair interactions in the rank's cluster-pair list plus owned atoms,
//! summed over the segment's force rounds. A pure function of coordinates,
//! so serial ≡ threaded ≡ procs feed the controller bit-identical inputs and
//! the boundary trajectory — hence the MD trajectory — stays inside the
//! bitwise contract.
//!
//! Boundary moves are clamped so no cell ever drops below `r_comm /
//! pinned_pulses` in any dimension: the pulse counts chosen at engine
//! construction are pinned (forwarded as `min_pulses` into
//! [`halox_dd::try_build_partition_with`]), so the signal-slot layout — and
//! with it the `WorldKey` of pooled worlds — never changes mid-run no
//! matter where the boundaries wander.

use halox_dd::{pulses_needed, DdBounds, DdGrid};
use halox_md::Vec3;

/// Fraction of the relative slab imbalance converted into a boundary move
/// per update (an under-relaxation factor; 1.0 would slam the boundary to
/// the balance point in one step and oscillate).
const GAIN: f64 = 0.5;
/// Hard cap on one boundary move, as a fraction of the smaller adjacent
/// cell — keeps a single noisy segment from folding a cell.
const MAX_MOVE: f32 = 0.25;
/// Safety margin over the exact `r_comm / pulses` minimum cell length, so
/// float fuzz in [`pulses_needed`] can never push the needed pulse count
/// past the pinned one.
const MIN_CELL_MARGIN: f32 = 1.0625;

/// Owns the movable cell boundaries and applies bounded deterministic
/// shifts from per-PE load figures. Lives on the [`crate::Engine`] for the
/// whole run (bounds are trajectory state: they are checkpointed and
/// restored on resume).
#[derive(Debug, Clone)]
pub struct DlbController {
    /// Current per-dimension fractional cell boundaries. Public: the
    /// engine reads them for every partition build and overwrites them on
    /// checkpoint restore.
    pub bounds: DdBounds,
    dims: [usize; 3],
    box_len: [f32; 3],
    r_comm: f32,
    /// Per-dimension pulse counts the plan needs for the *uniform*
    /// decomposition (its own rule, [`pulses_needed`]), computed at
    /// construction and held fixed for the run (see module docs).
    pinned: [usize; 3],
    /// Completed boundary updates (diagnostics).
    pub updates: usize,
}

impl DlbController {
    pub fn new(grid: &DdGrid, box_lengths: Vec3, r_comm: f32) -> Self {
        let box_len = [box_lengths.x, box_lengths.y, box_lengths.z];
        let bounds = DdBounds::uniform(grid);
        let mut pinned = [1usize; 3];
        for d in grid.comm_dims() {
            pinned[d] = pulses_needed(r_comm, bounds.min_cell_len(d, box_len[d]));
        }
        DlbController {
            bounds,
            dims: grid.dims,
            box_len,
            r_comm,
            pinned,
            updates: 0,
        }
    }

    /// The pulse counts pinned at construction — passed as `min_pulses`
    /// into every partition build, so padding pulses keep the slot layout
    /// fixed while boundaries move. With DLB off the bounds stay uniform
    /// and the pins are exactly the counts the geometry decides.
    pub fn pinned_pulses(&self) -> [usize; 3] {
        self.pinned
    }

    /// Smallest legal fractional cell length in dimension `d`: the pinned
    /// pulse count must stay sufficient (`cell_len >= r_comm / pulses`,
    /// with margin), and never larger than the uniform cell so a tight
    /// decomposition simply freezes instead of erroring.
    fn min_frac(&self, d: usize) -> f32 {
        let uniform = 1.0 / self.dims[d] as f32;
        (MIN_CELL_MARGIN * self.r_comm / (self.pinned[d] as f32 * self.box_len[d])).min(uniform)
    }

    /// One balancing pass from per-PE loads (indexed by DD rank). For each
    /// decomposed dimension the loads are aggregated into per-slab totals;
    /// each interior boundary then moves toward its heavier neighbour
    /// (shrinking the overloaded cell) by `GAIN` times the relative
    /// imbalance, capped at `MAX_MOVE` of the smaller adjacent cell and
    /// clamped to the minimum cell length. Fixed iteration order and plain
    /// IEEE arithmetic: identical loads produce bit-identical boundaries
    /// on every executor.
    pub fn update(&mut self, loads: &[u64]) {
        debug_assert_eq!(loads.len(), self.dims.iter().product::<usize>());
        let grid = DdGrid::new(self.dims);
        self.updates += 1;
        for d in 0..3 {
            let n = self.dims[d];
            if n < 2 {
                continue;
            }
            let mut slab = vec![0u64; n];
            for (rank, &w) in loads.iter().enumerate() {
                slab[grid.coords_of(rank)[d]] += w;
            }
            let min_frac = self.min_frac(d);
            for b in 1..n {
                let lo = slab[b - 1] as f64;
                let hi = slab[b] as f64;
                if lo + hi == 0.0 {
                    continue;
                }
                // > 0 when the lower slab is heavier: the boundary moves
                // down, shrinking it.
                let imbalance = (lo - hi) / (lo + hi);
                let len_lo = self.bounds.fracs[d][b] - self.bounds.fracs[d][b - 1];
                let len_hi = self.bounds.fracs[d][b + 1] - self.bounds.fracs[d][b];
                let scale = len_lo.min(len_hi);
                let cap = MAX_MOVE * scale;
                let delta = (-(GAIN * imbalance) as f32 * scale).clamp(-cap, cap);
                self.bounds.shift_boundary(d, b, delta, min_frac);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid4() -> DdGrid {
        DdGrid::new([4, 1, 1])
    }

    #[test]
    fn boundary_moves_toward_loaded_slab() {
        let mut c = DlbController::new(&grid4(), Vec3::splat(8.0), 0.8);
        // Slab 0 does 10x the work of the rest: its upper boundary must
        // move down, shrinking it.
        c.update(&[1000, 100, 100, 100]);
        assert!(
            c.bounds.fracs[0][1] < 0.25,
            "overloaded cell must shrink: {:?}",
            c.bounds.fracs[0]
        );
        // Balanced slabs further along barely move.
        assert!((c.bounds.fracs[0][3] - 0.75).abs() < 0.02);
        c.bounds.validate(&grid4()).expect("bounds stay valid");
    }

    #[test]
    fn updates_are_deterministic() {
        let loads = [900u64, 120, 340, 560];
        let mut a = DlbController::new(&grid4(), Vec3::splat(8.0), 0.8);
        let mut b = DlbController::new(&grid4(), Vec3::splat(8.0), 0.8);
        for _ in 0..5 {
            a.update(&loads);
            b.update(&loads);
        }
        for d in 0..3 {
            for (x, y) in a.bounds.fracs[d].iter().zip(&b.bounds.fracs[d]) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(a.updates, 5);
    }

    #[test]
    fn min_cell_clamp_holds_under_extreme_skew() {
        // Hammer one slab with all the load for many updates: cells must
        // never shrink below r_comm / pinned_pulses (the pulse-count pin).
        let r_comm = 0.8f32;
        let box_l = 8.0f32;
        let mut c = DlbController::new(&grid4(), Vec3::splat(box_l), r_comm);
        let np = c.pinned_pulses()[0] as f32;
        for _ in 0..200 {
            c.update(&[1_000_000, 1, 1, 1]);
        }
        c.bounds.validate(&grid4()).expect("bounds stay valid");
        let min_len = c.bounds.min_cell_len(0, box_l);
        assert!(
            min_len >= r_comm / np,
            "cell {min_len} nm violates the {np}-pulse floor"
        );
    }

    #[test]
    fn pinned_pulses_match_uniform_geometry() {
        // 8 nm box, 4 cells of 2 nm, r_comm 0.8 -> 1 pulse; a thin [7,1,1]
        // split of the same box (1.14 nm cells) still 1; r_comm 2.5 on
        // 2 nm cells -> 2 pulses.
        let c = DlbController::new(&grid4(), Vec3::splat(8.0), 0.8);
        assert_eq!(c.pinned_pulses(), [1, 1, 1]);
        let c = DlbController::new(&grid4(), Vec3::splat(8.0), 2.5);
        assert_eq!(c.pinned_pulses(), [2, 1, 1]);
    }

    #[test]
    fn pinned_pulses_are_the_plans_at_an_exact_fit() {
        // Three 1.0 nm cells at r_comm 1.0: the thinnest is 0.99999994 nm
        // in f32, so the plan builds two pulses and DLB pins two.
        let grid = DdGrid::new([3, 1, 1]);
        let c = DlbController::new(&grid, Vec3::splat(3.0), 1.0);
        assert_eq!(c.pinned_pulses(), [2, 1, 1]);
        let sys = halox_md::GrappaBuilder::new(2_700).seed(3).build();
        assert_eq!(sys.pbc.lengths(), Vec3::splat(3.0));
        let part = halox_dd::build_partition(&sys, &grid, 1.0);
        assert_eq!(part.layout.per_dim, vec![(0, 2)]);
    }

    #[test]
    fn zero_and_uniform_loads_leave_bounds_unchanged() {
        let mut c = DlbController::new(&grid4(), Vec3::splat(8.0), 0.8);
        let before = c.bounds.clone();
        c.update(&[0, 0, 0, 0]);
        c.update(&[500, 500, 500, 500]);
        assert_eq!(c.bounds, before);
    }
}
