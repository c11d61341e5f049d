//! Verlet pair lists with a buffer, and the two pieces every list in this
//! crate is made of: the `CellGrid` neighbour search and the
//! [`Staleness`] rebuild state.
//!
//! The list is built over a *local* coordinate array (for domain
//! decomposition: home atoms followed by pre-shifted halo copies; for a
//! single rank: everything) under a [`Frame`] metric — minimum-image only in
//! non-decomposed dimensions, direct distance in decomposed ones, exactly
//! like GROMACS' shift-resolved DD frame.
//!
//! Pair assignment is delegated to a caller-supplied `rule` evaluated once
//! per candidate pair `(i, j)` with `i < j`:
//!
//! * single rank: `rule = !excluded(i, j)`;
//! * eighth-shell DD: [`eighth_shell_rule`] — a pair is kept iff the two
//!   copies' up-displacement supports are disjoint in every dimension (and
//!   not excluded). Home atoms have zero displacement, so home-home and
//!   home-halo pairs always pass; halo-halo pairs pass only for "corner"
//!   zone pairs — the zone-pair interactions of the GROMACS neutral-territory
//!   scheme, which make every global pair materialize on precisely one rank.
//!
//! `CellGrid` is the crate's one uniform grid, used three ways: its
//! cell-sorted `order` is what the cluster build chunks into clusters,
//! `CellGrid::for_each_adjacent` is this list's neighbour search, and
//! `CellGrid::for_each_near` is the cluster list's tile search. Periodic
//! dimensions wrap by cell index in all three, so a coordinate that has
//! drifted out of the box bins like its in-box image.

use crate::frame::Frame;
use crate::pbc::PbcBox;
use crate::system::System;
use crate::vec3::Vec3;
use std::cell::Cell;

/// CSR-layout pair list: the neighbours of local atom `i` are
/// `j_atoms[starts[i]..starts[i+1]]`, all with index `> i`.
#[derive(Debug, Clone)]
pub struct PairList {
    pub starts: Vec<u32>,
    pub j_atoms: Vec<u32>,
    /// What the list was built under, and whether it still holds.
    pub staleness: Staleness,
}

/// What a pair list was built under — metric, search radius, coordinates —
/// and the Verlet-buffer test for whether it still covers every pair inside
/// the cutoff. Both list types hold one, so they make the same rebuild
/// decisions by construction.
#[derive(Debug, Clone)]
pub struct Staleness {
    /// Metric the list was built under.
    pub frame: Frame,
    /// Search radius the list was built with (cutoff + buffer).
    pub r_list: f32,
    /// Coordinates at build time.
    ref_positions: Vec<Vec3>,
    /// Consumed by the first `needs_rebuild` call after a build; lets that
    /// call skip the displacement scan (see `needs_rebuild`).
    fresh: Cell<bool>,
}

impl Staleness {
    pub(crate) fn new(frame: &Frame, positions: &[Vec3], r_list: f32) -> Staleness {
        Staleness {
            frame: *frame,
            r_list,
            ref_positions: positions.to_vec(),
            fresh: Cell::new(true),
        }
    }

    /// True if any atom has moved more than `buffer / 2` since the list was
    /// built, meaning an unlisted pair could now be inside the cutoff.
    ///
    /// Two fast paths over the naive full scan:
    ///
    /// * the first call after a build skips the scan entirely — at most one
    ///   integration step has elapsed, and a single step moving an atom
    ///   `buffer / 2` is the same catastrophic regime in which the Verlet
    ///   buffer itself (sized to cover ~`nstlist` steps of drift) is
    ///   already invalid, so the decision is identical for every
    ///   trajectory the list is sound for;
    /// * the scan early-exits on the first offending atom instead of
    ///   measuring every displacement.
    ///
    /// [`Staleness::needs_rebuild_full`] is the unconditional scan; the
    /// regression test in `crates/md/tests` asserts both make identical
    /// decisions along a live trajectory.
    pub fn needs_rebuild(&self, positions: &[Vec3], buffer: f32) -> bool {
        if self.fresh.replace(false) {
            return false;
        }
        self.needs_rebuild_full(positions, buffer)
    }

    /// The unconditional displacement scan backing
    /// [`Staleness::needs_rebuild`] (no first-step skip) — the reference
    /// oracle for rebuild decisions. A coordinate array of another length is
    /// always stale: a list says nothing about atoms it was not built over.
    pub fn needs_rebuild_full(&self, positions: &[Vec3], buffer: f32) -> bool {
        let lim2 = (0.5 * buffer) * (0.5 * buffer);
        positions.len() != self.ref_positions.len()
            || positions
                .iter()
                .zip(&self.ref_positions)
                .any(|(p, q)| self.frame.dist2(*p, *q) > lim2)
    }
}

impl PairList {
    pub fn n_pairs(&self) -> usize {
        self.j_atoms.len()
    }

    pub fn n_rows(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Build a pair list under a fully periodic box (single-rank case).
    pub fn build(
        pbc: &PbcBox,
        positions: &[Vec3],
        r_list: f32,
        rule: &dyn Fn(usize, usize) -> bool,
    ) -> PairList {
        Self::build_in_frame(&Frame::fully_periodic(pbc), positions, r_list, rule)
    }

    /// The single-rank list of a whole system: every non-excluded pair
    /// within `r_list` under the fully periodic frame.
    pub(crate) fn single_rank(system: &System, r_list: f32) -> PairList {
        let rule = |a: usize, b: usize| !system.is_excluded(a, b);
        Self::build(&system.pbc, &system.positions, r_list, &rule)
    }

    /// Build a pair list with search radius `r_list = cutoff + buffer` under
    /// an arbitrary frame metric.
    ///
    /// `rule(i, j)` (with `i < j`) decides whether a candidate pair within
    /// `r_list` belongs to this list (ownership rule + exclusions).
    pub fn build_in_frame(
        frame: &Frame,
        positions: &[Vec3],
        r_list: f32,
        rule: &dyn Fn(usize, usize) -> bool,
    ) -> PairList {
        let n = positions.len();
        let grid = CellGrid::new(frame, positions, 0..n as u32, r_list, r_list);
        let r2 = r_list * r_list;
        let mut starts = Vec::with_capacity(n + 1);
        let mut j_atoms = Vec::new();
        starts.push(0u32);
        for i in 0..n {
            grid.for_each_adjacent(positions[i], |j| {
                let j = j as usize;
                if j <= i {
                    return;
                }
                if frame.dist2(positions[i], positions[j]) >= r2 {
                    return;
                }
                if !rule(i, j) {
                    return;
                }
                j_atoms.push(j as u32);
            });
            starts.push(j_atoms.len() as u32);
        }

        PairList {
            starts,
            j_atoms,
            staleness: Staleness::new(frame, positions, r_list),
        }
    }

    /// See [`Staleness::needs_rebuild`].
    pub fn needs_rebuild(&self, positions: &[Vec3], buffer: f32) -> bool {
        self.staleness.needs_rebuild(positions, buffer)
    }

    /// See [`Staleness::needs_rebuild_full`].
    pub fn needs_rebuild_full(&self, positions: &[Vec3], buffer: f32) -> bool {
        self.staleness.needs_rebuild_full(positions, buffer)
    }

    /// Iterate `(i, j)` local-index pairs (`i < j`).
    pub fn iter_pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n_rows()).flat_map(move |i| {
            let lo = self.starts[i] as usize;
            let hi = self.starts[i + 1] as usize;
            self.j_atoms[lo..hi].iter().map(move |&j| (i as u32, j))
        })
    }
}

/// Uniform cell grid over a subset of a point array, in counting-sort (CSR)
/// layout. Periodic dimensions span the box and wrap by cell index, so an
/// out-of-box coordinate bins like its in-box image; non-periodic ones cover
/// `[min, max]` of the binned points and clip at the edges.
///
/// Queries visit cells x-outermost, z-innermost, starting from the low end
/// of the range (wrapped), each cell once, and ids ascending inside a cell.
/// That order is part of the contract: it fixes the order of a scalar list's
/// rows, and with it every force sum downstream.
pub(crate) struct CellGrid {
    periodic: [bool; 3],
    dims: [usize; 3],
    lo: Vec3,
    hi: Vec3,
    cell_len: Vec3,
    /// Row offsets into `order`, cells flattened z fastest.
    starts: Vec<u32>,
    /// Binned ids sorted by cell, ascending inside each cell.
    pub(crate) order: Vec<u32>,
}

impl CellGrid {
    /// Slack, in cells, added to each end of a [`CellGrid::for_each_near`]
    /// range so that rounding in the index arithmetic can never drop a
    /// boundary cell.
    const ROUND_GUARD: f32 = 1e-3;

    /// Bin `points[id]` for every `id` in `ids` into cells at least
    /// `min_cell` long, for searches of radius `r_search`.
    ///
    /// This is where the half-box rule lives: [`Frame::displacement`] shifts
    /// by one box length at most, and a neighbourhood must not meet the same
    /// point through two images, so `r_search` has to stay under half of
    /// every periodic box length.
    pub(crate) fn new(
        frame: &Frame,
        points: &[Vec3],
        ids: impl Iterator<Item = u32> + Clone,
        min_cell: f32,
        r_search: f32,
    ) -> CellGrid {
        let mut lo = Vec3::ZERO;
        let mut hi = frame.box_lengths;
        for k in 0..3 {
            if frame.periodic[k] {
                assert!(
                    r_search < 0.5 * frame.box_lengths[k],
                    "search radius {r_search} must be < half the box {:?} in periodic dim {k}",
                    frame.box_lengths
                );
                continue;
            }
            let (mut mn, mut mx) = (f32::INFINITY, f32::NEG_INFINITY);
            for id in ids.clone() {
                mn = mn.min(points[id as usize][k]);
                mx = mx.max(points[id as usize][k]);
            }
            if mn > mx {
                (mn, mx) = (0.0, 1.0);
            }
            // Pad a whisker so max falls strictly inside the last cell.
            lo[k] = mn;
            hi[k] = mx + 1e-4;
        }
        let mut dims = [1usize; 3];
        let mut cell_len = Vec3::ZERO;
        for k in 0..3 {
            let extent = (hi[k] - lo[k]).max(1e-6);
            dims[k] = ((extent / min_cell).floor() as usize).max(1);
            cell_len[k] = extent / dims[k] as f32;
        }
        let mut grid = CellGrid {
            periodic: frame.periodic,
            dims,
            lo,
            hi,
            cell_len,
            starts: vec![0; dims[0] * dims[1] * dims[2] + 1],
            order: vec![0; ids.clone().count()],
        };
        // Counting sort, stable in `ids` order.
        let cells: Vec<u32> = ids
            .clone()
            .map(|id| grid.flat(grid.cell_of(points[id as usize])) as u32)
            .collect();
        for &cell in &cells {
            grid.starts[cell as usize + 1] += 1;
        }
        for c in 1..grid.starts.len() {
            grid.starts[c] += grid.starts[c - 1];
        }
        let mut cursor = grid.starts.clone();
        for (id, &cell) in ids.zip(&cells) {
            grid.order[cursor[cell as usize] as usize] = id;
            cursor[cell as usize] += 1;
        }
        grid
    }

    #[inline]
    fn flat(&self, c: [usize; 3]) -> usize {
        (c[0] * self.dims[1] + c[1]) * self.dims[2] + c[2]
    }

    /// Fractional cell index of coordinate `x` along dimension `k`.
    #[inline]
    fn cell_coord(&self, k: usize, x: f32) -> f32 {
        (x - self.lo[k]) / self.cell_len[k]
    }

    /// Cell holding `p`. Inside the extent, rounding at the top edge clamps
    /// into the last cell; outside a periodic extent `p` bins as its image.
    #[inline]
    fn cell_of(&self, p: Vec3) -> [usize; 3] {
        let mut c = [0usize; 3];
        for k in 0..3 {
            let u = self.cell_coord(k, p[k]);
            let inside = self.lo[k] <= p[k] && p[k] < self.hi[k];
            c[k] = if self.periodic[k] && !inside {
                (u.floor() as i64).rem_euclid(self.dims[k] as i64) as usize
            } else {
                (u as usize).min(self.dims[k] - 1)
            };
        }
        c
    }

    /// Cells `a..=b` along dimension `k` as `(first, count)`: a periodic
    /// range starts at the wrapped `a` and is cut to one full turn, so no
    /// cell repeats; a non-periodic one is clipped to the grid.
    fn clip(&self, k: usize, a: i64, b: i64) -> (usize, usize) {
        let n = self.dims[k] as i64;
        if self.periodic[k] {
            let count = b.saturating_sub(a).saturating_add(1);
            (a.rem_euclid(n) as usize, count.clamp(1, n) as usize)
        } else {
            let (a, b) = (a.clamp(0, n - 1), b.clamp(0, n - 1));
            (a as usize, (b - a + 1) as usize)
        }
    }

    /// Visit every id binned in the box of cells `ranges` (one
    /// [`CellGrid::clip`] per dimension).
    fn for_each_in(&self, ranges: [(usize, usize); 3], mut visit: impl FnMut(u32)) {
        let [nx, ny, nz] = self.dims;
        let [(x0, cx), (y0, cy), (z0, cz)] = ranges;
        // Cells consecutive in z are consecutive in `starts`: one run, or
        // two where the range wraps.
        let first = cz.min(nz - z0);
        for tx in 0..cx {
            let x = (x0 + tx) % nx;
            for ty in 0..cy {
                let row = (x * ny + (y0 + ty) % ny) * nz;
                for (z, n) in [(z0, first), (0, cz - first)] {
                    let lo = self.starts[row + z] as usize;
                    let hi = self.starts[row + z + n] as usize;
                    self.order[lo..hi].iter().copied().for_each(&mut visit);
                }
            }
        }
    }

    /// Visit every id binned in the cell holding `p` or one of its (up to
    /// 26) neighbours: everything within one cell length of `p`.
    pub(crate) fn for_each_adjacent(&self, p: Vec3, visit: impl FnMut(u32)) {
        let c = self.cell_of(p);
        let ranges = [0, 1, 2].map(|k| self.clip(k, c[k] as i64 - 1, c[k] as i64 + 1));
        self.for_each_in(ranges, visit);
    }

    /// Visit every id whose point lies within `reach` (per dimension) of
    /// `center`, and possibly some beyond: the span is conservative.
    pub(crate) fn for_each_near(&self, center: Vec3, reach: Vec3, visit: impl FnMut(u32)) {
        let ranges = [0, 1, 2].map(|k| {
            let a = self.cell_coord(k, center[k] - reach[k]) - Self::ROUND_GUARD;
            let b = self.cell_coord(k, center[k] + reach[k]) + Self::ROUND_GUARD;
            self.clip(k, a.floor() as i64, b.floor() as i64)
        });
        self.for_each_in(ranges, visit);
    }
}

/// Reference O(N^2) pair enumeration with the same rule protocol, for
/// validating [`PairList::build_in_frame`]. Returns sorted `(i, j)` pairs
/// (`i < j`) strictly within `radius`.
pub fn brute_force_pairs(
    frame: &Frame,
    positions: &[Vec3],
    radius: f32,
    rule: &dyn Fn(usize, usize) -> bool,
) -> Vec<(u32, u32)> {
    let r2 = radius * radius;
    let mut out = Vec::new();
    for i in 0..positions.len() {
        for j in (i + 1)..positions.len() {
            if frame.dist2(positions[i], positions[j]) >= r2 {
                continue;
            }
            if !rule(i, j) {
                continue;
            }
            out.push((i as u32, j as u32));
        }
    }
    out
}

/// The eighth-shell pair ownership rule: a local pair is computed on this
/// rank iff the two copies' up-displacement supports are disjoint in every
/// dimension. `disp` holds, per local atom, how many domains "up" in each
/// dimension the copy travelled to get here (home atoms: `[0, 0, 0]`).
#[inline]
pub fn eighth_shell_rule(disp: &[[u8; 3]], i: usize, j: usize) -> bool {
    let a = disp[i];
    let b = disp[j];
    (a[0] == 0 || b[0] == 0) && (a[1] == 0 || b[1] == 0) && (a[2] == 0 || b[2] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::GrappaBuilder;

    fn sorted_pairs(pl: &PairList) -> Vec<(u32, u32)> {
        let mut v: Vec<_> = pl.iter_pairs().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn matches_brute_force_single_rank() {
        let sys = GrappaBuilder::new(600).seed(1).build();
        let excl = |a: usize, b: usize| !sys.is_excluded(a, b);
        let frame = Frame::fully_periodic(&sys.pbc);
        let pl = PairList::build(&sys.pbc, &sys.positions, 0.7, &excl);
        let bf = brute_force_pairs(&frame, &sys.positions, 0.7, &excl);
        assert_eq!(sorted_pairs(&pl), bf);
        assert!(!bf.is_empty());
    }

    #[test]
    fn matches_brute_force_mixed_frame() {
        // Decompose x: shift some atoms past the box edge as halo copies.
        let sys = GrappaBuilder::new(900).seed(9).build();
        let frame = Frame::for_decomposition(&sys.pbc, [2, 1, 1]);
        let mut pos = sys.positions.clone();
        let l = sys.pbc.lengths().x;
        for p in pos.iter_mut().take(100) {
            if p.x < 0.7 {
                p.x += l; // pretend these are +L-shifted halo copies
            }
        }
        let all = |_: usize, _: usize| true;
        let pl = PairList::build_in_frame(&frame, &pos, 0.7, &all);
        let bf = brute_force_pairs(&frame, &pos, 0.7, &all);
        assert_eq!(sorted_pairs(&pl), bf);
    }

    #[test]
    fn respects_exclusions() {
        let sys = GrappaBuilder::new(300).seed(2).build();
        let excl = |a: usize, b: usize| !sys.is_excluded(a, b);
        let pl = PairList::build(&sys.pbc, &sys.positions, 0.6, &excl);
        for (i, j) in pl.iter_pairs() {
            assert!(
                !sys.is_excluded(i as usize, j as usize),
                "excluded pair listed: {i} {j}"
            );
            assert_ne!(sys.molecule_of[i as usize], sys.molecule_of[j as usize]);
        }
    }

    #[test]
    fn eighth_shell_rule_home_and_halo() {
        let disp = [
            [0, 0, 0], // 0: home
            [0, 0, 0], // 1: home
            [0, 0, 1], // 2: z-halo
            [1, 0, 0], // 3: x-halo
            [0, 0, 1], // 4: z-halo
        ];
        // home-home and home-halo always pass.
        assert!(eighth_shell_rule(&disp, 0, 1));
        assert!(eighth_shell_rule(&disp, 0, 2));
        assert!(eighth_shell_rule(&disp, 1, 3));
        // halo-halo with disjoint supports passes (corner zone pair).
        assert!(eighth_shell_rule(&disp, 2, 3));
        // halo-halo within the same zone does not (home-home elsewhere).
        assert!(!eighth_shell_rule(&disp, 2, 4));
    }

    #[test]
    fn eighth_shell_rule_two_pulse_displacements() {
        let disp = [[0, 0, 2], [0, 0, 1], [2, 0, 0]];
        assert!(!eighth_shell_rule(&disp, 0, 1)); // both displaced in z
        assert!(eighth_shell_rule(&disp, 0, 2)); // z vs x: disjoint
    }

    #[test]
    fn wrapping_finds_cross_boundary_pairs() {
        let pbc = PbcBox::cubic(5.0);
        let positions = vec![Vec3::new(0.1, 2.0, 2.0), Vec3::new(4.9, 2.0, 2.0)];
        let all = |_: usize, _: usize| true;
        let pl = PairList::build(&pbc, &positions, 1.0, &all);
        assert_eq!(sorted_pairs(&pl), vec![(0, 1)]);
    }

    #[test]
    fn out_of_box_coordinate_pairs_through_its_image() {
        // An atom that drifted 0.04 nm out through the bottom x face pairs
        // with one 0.79 nm below the top face: binned as its in-box image,
        // not clamped into the bottom cell where the search would miss it.
        let frame = Frame::fully_periodic(&PbcBox::cubic(4.1));
        let positions = vec![Vec3::new(-0.04, 1.0, 1.0), Vec3::new(3.27, 1.0, 1.0)];
        let all = |_: usize, _: usize| true;
        let pl = PairList::build_in_frame(&frame, &positions, 0.8, &all);
        assert_eq!(sorted_pairs(&pl), vec![(0, 1)]);
        assert_eq!(brute_force_pairs(&frame, &positions, 0.8, &all), [(0, 1)]);
    }

    /// The neighbourhood of `p` as the pre-`CellGrid` binning enumerated
    /// it: cell offsets -1..=1 per dimension, x outermost, wrapped in
    /// periodic dimensions and dropped outside the grid in the others, each
    /// cell once at its first occurrence.
    fn neighbourhood_27(grid: &CellGrid, p: Vec3) -> Vec<u32> {
        let c = grid.cell_of(p);
        let mut cells: Vec<usize> = Vec::new();
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                'cell: for dz in -1i64..=1 {
                    let mut n = [0usize; 3];
                    for (k, d) in [dx, dy, dz].into_iter().enumerate() {
                        let (v, m) = (c[k] as i64 + d, grid.dims[k] as i64);
                        if !grid.periodic[k] && !(0..m).contains(&v) {
                            continue 'cell;
                        }
                        n[k] = v.rem_euclid(m) as usize;
                    }
                    if !cells.contains(&grid.flat(n)) {
                        cells.push(grid.flat(n));
                    }
                }
            }
        }
        cells
            .iter()
            .flat_map(|&f| &grid.order[grid.starts[f] as usize..grid.starts[f + 1] as usize])
            .copied()
            .collect()
    }

    #[test]
    fn adjacent_query_visits_the_27_neighbourhood_in_its_order() {
        // 1, 2, 3 and more cells per axis, periodic and not: the candidate
        // sequence is what fixes the order of a scalar list's rows.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen_dims = std::collections::BTreeSet::new();
        for lengths in [[0.9, 1.7, 2.5], [3.3, 4.9, 1.7], [2.5, 0.9, 5.7]] {
            for dd in [[1, 1, 1], [2, 1, 1], [1, 2, 2]] {
                let pbc = PbcBox::new(Vec3::new(lengths[0], lengths[1], lengths[2]));
                let frame = Frame::for_decomposition(&pbc, dd);
                let points: Vec<Vec3> = (0..400)
                    .map(|_| {
                        let mut p = Vec3::ZERO;
                        for k in 0..3 {
                            p[k] = rng.gen_range(0.0..lengths[k]);
                        }
                        p
                    })
                    .collect();
                let grid = CellGrid::new(&frame, &points, 0..400, 0.8, 0.4);
                seen_dims.extend(grid.dims);
                for &p in &points {
                    let mut got = Vec::new();
                    grid.for_each_adjacent(p, |id| got.push(id));
                    assert_eq!(got, neighbourhood_27(&grid, p), "{lengths:?} {dd:?} {p:?}");
                }
            }
        }
        assert!(
            seen_dims.is_superset(&[1, 2, 3, 4, 6].into()),
            "{seen_dims:?}"
        );
    }

    #[test]
    fn direct_metric_separates_wrapped_copies() {
        // In a decomposed dim, a +L-shifted copy must NOT pair with an atom
        // near the bottom of the box (they are truly far apart).
        let pbc = PbcBox::cubic(5.0);
        let frame = Frame::for_decomposition(&pbc, [2, 1, 1]);
        let positions = vec![
            Vec3::new(0.2, 2.0, 2.0), // home near bottom
            Vec3::new(5.1, 2.0, 2.0), // halo copy of an atom at 0.1, shifted +L
        ];
        let all = |_: usize, _: usize| true;
        let pl = PairList::build_in_frame(&frame, &positions, 1.0, &all);
        assert_eq!(pl.n_pairs(), 0, "wrapped copy must not min-image back");
    }

    #[test]
    fn out_of_box_halo_coordinates_are_handled() {
        let pbc = PbcBox::cubic(5.0);
        let frame = Frame::for_decomposition(&pbc, [2, 1, 1]);
        let positions = vec![
            Vec3::new(4.8, 2.0, 2.0), // home
            Vec3::new(5.3, 2.0, 2.0), // halo, shifted image of an atom at 0.3
        ];
        let all = |_: usize, _: usize| true;
        let pl = PairList::build_in_frame(&frame, &positions, 1.0, &all);
        assert_eq!(sorted_pairs(&pl), vec![(0, 1)]);
    }

    #[test]
    fn rebuild_detection() {
        let sys = GrappaBuilder::new(1500).seed(3).build();
        let all = |_: usize, _: usize| true;
        let pl = PairList::build(&sys.pbc, &sys.positions, 1.2, &all);
        assert!(!pl.needs_rebuild(&sys.positions, 0.2));
        let mut moved = sys.positions.clone();
        moved[5].x += 0.15; // > buffer/2 = 0.1
        assert!(pl.needs_rebuild(&moved, 0.2));
        let mut slight = sys.positions.clone();
        slight[5].x += 0.05;
        assert!(!pl.needs_rebuild(&slight, 0.2));
    }

    #[test]
    fn length_mismatch_is_stale() {
        let sys = GrappaBuilder::new(300).seed(5).build();
        let all = |_: usize, _: usize| true;
        let pl = PairList::build(&sys.pbc, &sys.positions, 0.7, &all);
        assert!(!pl.needs_rebuild_full(&sys.positions, 0.2));
        let mut longer = sys.positions.clone();
        longer.push(longer[0]);
        assert!(pl.needs_rebuild_full(&longer, 0.2));
        assert!(pl.needs_rebuild_full(&sys.positions[1..], 0.2));
    }

    #[test]
    #[should_panic]
    fn rejects_radius_over_half_box() {
        let pbc = PbcBox::cubic(1.5);
        let positions = vec![Vec3::ZERO];
        let all = |_: usize, _: usize| true;
        let _ = PairList::build(&pbc, &positions, 1.0, &all);
    }

    #[test]
    fn csr_layout_consistent() {
        let sys = GrappaBuilder::new(600).seed(4).build();
        let all = |_: usize, _: usize| true;
        let pl = PairList::build(&sys.pbc, &sys.positions, 0.7, &all);
        assert_eq!(pl.n_rows(), sys.n_atoms());
        assert_eq!(*pl.starts.last().unwrap() as usize, pl.j_atoms.len());
        assert_eq!(pl.iter_pairs().count(), pl.n_pairs());
        for (i, j) in pl.iter_pairs() {
            assert!(i < j);
        }
    }
}
