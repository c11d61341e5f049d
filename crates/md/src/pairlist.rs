//! Verlet pair lists with a buffer.
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

use crate::frame::Frame;
use crate::pbc::PbcBox;
use crate::vec3::Vec3;
use std::cell::Cell;

/// CSR-layout pair list: the neighbours of local atom `i` are
/// `j_atoms[starts[i]..starts[i+1]]`, all with index `> i`.
#[derive(Debug, Clone)]
pub struct PairList {
    pub starts: Vec<u32>,
    pub j_atoms: Vec<u32>,
    /// Search radius the list was built with (cutoff + buffer).
    pub r_list: f32,
    /// Metric the list was built under.
    pub frame: Frame,
    /// Coordinates at build time, for displacement-based rebuild checks.
    ref_positions: Vec<Vec3>,
    /// Consumed by the first `needs_rebuild` call after a build; lets that
    /// call skip the displacement scan (see `needs_rebuild`).
    fresh: Cell<bool>,
}

/// True if any atom's displacement from its build-time position exceeds
/// `lim2` (squared), early-exiting on the first offender — or if the two
/// arrays differ in length, since a list says nothing about atoms it was
/// not built over. Shared by the plain and cluster pair lists so both make
/// identical rebuild decisions.
#[inline]
pub(crate) fn any_displacement_exceeds(
    frame: &Frame,
    positions: &[Vec3],
    reference: &[Vec3],
    lim2: f32,
) -> bool {
    if positions.len() != reference.len() {
        return true;
    }
    for (p, q) in positions.iter().zip(reference) {
        if frame.dist2(*p, *q) > lim2 {
            return true;
        }
    }
    false
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
        for k in 0..3 {
            if frame.periodic[k] {
                assert!(
                    r_list < 0.5 * frame.box_lengths[k],
                    "search radius {r_list} must be < half the box {:?} in periodic dim {k}",
                    frame.box_lengths
                );
            }
        }
        let bins = Binning::new(frame, positions, r_list);
        let r2 = r_list * r_list;
        let n = positions.len();
        let mut starts = Vec::with_capacity(n + 1);
        let mut j_atoms = Vec::new();
        starts.push(0u32);

        let mut neighbor_cells = Vec::with_capacity(27);
        for i in 0..n {
            let c = bins.cell_of(positions[i]);
            neighbor_cells.clear();
            bins.neighbors(c, &mut neighbor_cells);
            for &cell in &neighbor_cells {
                let lo = bins.starts[cell] as usize;
                let hi = bins.starts[cell + 1] as usize;
                for &j in &bins.order[lo..hi] {
                    let j = j as usize;
                    if j <= i {
                        continue;
                    }
                    if frame.dist2(positions[i], positions[j]) >= r2 {
                        continue;
                    }
                    if !rule(i, j) {
                        continue;
                    }
                    j_atoms.push(j as u32);
                }
            }
            starts.push(j_atoms.len() as u32);
        }

        PairList {
            starts,
            j_atoms,
            r_list,
            frame: *frame,
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
    /// [`PairList::needs_rebuild_full`] is the unconditional scan; the
    /// regression test in `crates/md/tests` asserts both make identical
    /// decisions along a live trajectory.
    pub fn needs_rebuild(&self, positions: &[Vec3], buffer: f32) -> bool {
        if self.fresh.replace(false) {
            return false;
        }
        self.needs_rebuild_full(positions, buffer)
    }

    /// The unconditional displacement scan backing [`PairList::needs_rebuild`]
    /// (no first-step skip) — the reference oracle for rebuild decisions.
    pub fn needs_rebuild_full(&self, positions: &[Vec3], buffer: f32) -> bool {
        let lim2 = (0.5 * buffer) * (0.5 * buffer);
        any_displacement_exceeds(&self.frame, positions, &self.ref_positions, lim2)
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

/// Cell binning over the local bounding extent: periodic dims wrap their
/// neighbourhoods; non-periodic dims cover `[min, max]` of the data and
/// clamp at the edges. Shared with the cluster-pair build (`crate::cluster`),
/// which sorts atoms into clusters with it.
pub(crate) struct Binning {
    dims: [usize; 3],
    lo: Vec3,
    cell_len: Vec3,
    periodic: [bool; 3],
    pub(crate) starts: Vec<u32>,
    pub(crate) order: Vec<u32>,
}

impl Binning {
    pub(crate) fn new(frame: &Frame, positions: &[Vec3], min_cell: f32) -> Binning {
        // Extent per dim.
        let mut lo = Vec3::ZERO;
        let mut hi = frame.box_lengths;
        for k in 0..3 {
            if !frame.periodic[k] {
                let mut mn = f32::INFINITY;
                let mut mx = f32::NEG_INFINITY;
                for p in positions {
                    mn = mn.min(p[k]);
                    mx = mx.max(p[k]);
                }
                if positions.is_empty() {
                    mn = 0.0;
                    mx = 1.0;
                }
                // Pad a whisker so max falls strictly inside the last cell.
                lo[k] = mn;
                hi[k] = mx + 1e-4;
            }
        }
        let mut dims = [1usize; 3];
        let mut cell_len = Vec3::ZERO;
        for k in 0..3 {
            let extent = (hi[k] - lo[k]).max(1e-6);
            dims[k] = ((extent / min_cell).floor() as usize).max(1);
            cell_len[k] = extent / dims[k] as f32;
        }
        let ncells = dims[0] * dims[1] * dims[2];
        let flat = |c: [usize; 3]| (c[0] * dims[1] + c[1]) * dims[2] + c[2];

        let mut counts = vec![0u32; ncells + 1];
        let mut cell_of_atom = Vec::with_capacity(positions.len());
        for &p in positions {
            let mut c = [0usize; 3];
            for k in 0..3 {
                c[k] = (((p[k] - lo[k]) / cell_len[k]) as usize).min(dims[k] - 1);
            }
            let f = flat(c);
            cell_of_atom.push(f as u32);
            counts[f + 1] += 1;
        }
        for i in 0..ncells {
            counts[i + 1] += counts[i];
        }
        let starts = counts.clone();
        let mut cursor = counts;
        let mut order = vec![0u32; positions.len()];
        for (atom, &c) in cell_of_atom.iter().enumerate() {
            order[cursor[c as usize] as usize] = atom as u32;
            cursor[c as usize] += 1;
        }
        Binning {
            dims,
            lo,
            cell_len,
            periodic: frame.periodic,
            starts,
            order,
        }
    }

    #[inline]
    pub(crate) fn cell_of(&self, p: Vec3) -> [usize; 3] {
        let mut c = [0usize; 3];
        for k in 0..3 {
            c[k] = (((p[k] - self.lo[k]) / self.cell_len[k]) as usize).min(self.dims[k] - 1);
        }
        c
    }

    /// Collect unique flat indices of the (up to 27) neighbouring cells.
    pub(crate) fn neighbors(&self, c: [usize; 3], out: &mut Vec<usize>) {
        let flat = |c: [usize; 3]| (c[0] * self.dims[1] + c[1]) * self.dims[2] + c[2];
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                for dz in -1i64..=1 {
                    let mut n = [0usize; 3];
                    let mut ok = true;
                    for (k, d) in [dx, dy, dz].into_iter().enumerate() {
                        let v = c[k] as i64 + d;
                        if self.periodic[k] {
                            let m = self.dims[k] as i64;
                            n[k] = (((v % m) + m) % m) as usize;
                        } else if v < 0 || v >= self.dims[k] as i64 {
                            ok = false;
                            break;
                        } else {
                            n[k] = v as usize;
                        }
                    }
                    if !ok {
                        continue;
                    }
                    let f = flat(n);
                    if !out.contains(&f) {
                        out.push(f);
                    }
                }
            }
        }
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
