//! Verlet pair lists with a buffer, and the two pieces every list in this
//! crate is made of: the `CellGrid` neighbour search and the
//! [`Staleness`] rebuild state with its [`Verdict`].
//!
//! The list is built over a *local* coordinate array (for domain
//! decomposition: home atoms followed by pre-shifted halo copies; for a
//! single rank: everything) under a [`Frame`] metric — minimum-image only in
//! non-decomposed dimensions, direct distance in decomposed ones, exactly
//! like GROMACS' shift-resolved DD frame.
//!
//! Pair assignment is a [`PairFilter`] asked about candidate pairs `(i, j)`
//! with `i < j`:
//!
//! * single rank: `!excluded(i, j)`;
//! * eighth-shell DD: [`eighth_shell_rule`] — a pair is kept iff the two
//!   copies' up-displacement supports are disjoint in every dimension (and
//!   not excluded). Home atoms have zero displacement, so home-home and
//!   home-halo pairs always pass; halo-halo pairs pass only for "corner"
//!   zone pairs — the zone-pair interactions of the GROMACS neutral-territory
//!   scheme, which make every global pair materialize on precisely one rank.
//!
//! The engine's filter is data — [`ZoneFilter`], zone bits and an exclusion
//! CSR the DD plan computes once per partition, or
//! `ZoneFilter::whole_system` for one rank (the minimiser, the reference
//! stepper); any `Fn(usize, usize) -> bool` is a filter too, asked pair by
//! pair, which is what tests and oracles pass.
//!
//! `CellGrid` is the crate's one uniform grid, used three ways: its
//! cell-sorted `order` is what the cluster build chunks into clusters,
//! `CellGrid::for_each_adjacent` is this list's neighbour search, and
//! `CellGrid::for_each_run_near` over the same clustering grids is the
//! cluster list's tile search. Periodic dimensions wrap by cell index in
//! all three, so a coordinate that has drifted out of the box bins like its
//! in-box image.

use crate::cluster::{CLUSTER, PAD};
use crate::frame::Frame;
use crate::pbc::PbcBox;
use crate::system::System;
use crate::vec3::Vec3;
use std::ops::Range;

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
}

/// What [`Staleness::verdict`] finds at new coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No atom moved more than `buffer / 2` since the build, none wrapped.
    Holds,
    /// Some raw move exceeds `buffer / 2`, no minimum-image move does: a
    /// periodic wrap. The pairs still hold; the image bits do not.
    Wrapped,
    /// Some minimum-image move exceeds `buffer / 2`, or the length differs.
    Stale,
}

impl Staleness {
    pub(crate) fn new(frame: &Frame, positions: &[Vec3], r_list: f32) -> Staleness {
        Staleness {
            frame: *frame,
            r_list,
            ref_positions: positions.to_vec(),
        }
    }

    /// The Verlet-buffer check: one scan that tells a wrap from a move. Per
    /// atom it takes the raw move from the build position, and the minimum
    /// image only when that exceeds `buffer / 2`. The minimum image is never
    /// longer (in `f32` too: rounding is monotone), so `Stale` is exactly a
    /// move past `buffer / 2` under the frame metric; the scan exits at the
    /// first one. Another length is stale: a list says nothing about atoms
    /// it was not built over. Asking changes nothing.
    pub fn verdict(&self, positions: &[Vec3], buffer: f32) -> Verdict {
        if positions.len() != self.ref_positions.len() {
            return Verdict::Stale;
        }
        let lim2 = (0.5 * buffer) * (0.5 * buffer);
        let mut verdict = Verdict::Holds;
        for (p, q) in positions.iter().zip(&self.ref_positions) {
            if (*p - *q).norm2() > lim2 {
                if self.frame.dist2(*p, *q) > lim2 {
                    return Verdict::Stale;
                }
                verdict = Verdict::Wrapped;
            }
        }
        verdict
    }

    /// [`Verdict::Stale`]: an unlisted pair could now be inside the cutoff.
    pub fn needs_rebuild(&self, positions: &[Vec3], buffer: f32) -> bool {
        self.verdict(positions, buffer) == Verdict::Stale
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
    pub fn build<F: PairFilter + ?Sized>(
        pbc: &PbcBox,
        positions: &[Vec3],
        r_list: f32,
        filter: &F,
    ) -> PairList {
        Self::build_in_frame(&Frame::fully_periodic(pbc), positions, r_list, filter)
    }

    /// The single-rank list of a whole system: every non-excluded pair
    /// within `r_list` under the fully periodic frame (the test oracles').
    #[cfg(test)]
    pub(crate) fn single_rank(system: &System, r_list: f32) -> PairList {
        let filter = ZoneFilter::whole_system(system);
        Self::build(&system.pbc, &system.positions, r_list, &filter)
    }

    /// Build a pair list with search radius `r_list = cutoff + buffer` under
    /// an arbitrary frame metric.
    ///
    /// `filter.keeps(i, j)` (with `i < j`) decides whether a candidate pair
    /// within `r_list` belongs to this list (ownership rule + exclusions).
    pub fn build_in_frame<F: PairFilter + ?Sized>(
        frame: &Frame,
        positions: &[Vec3],
        r_list: f32,
        filter: &F,
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
                if !filter.keeps(i, j) {
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
/// Queries visit each cell of their range once, x-outermost, z-innermost.
/// [`CellGrid::for_each_adjacent`] starts from the low end of the (wrapped)
/// range and yields ids ascending inside a cell, and that order is part of
/// the contract: it fixes the order of a scalar list's rows, and with it
/// every force sum downstream. [`CellGrid::for_each_run_near`] goes in
/// ascending cell order instead, so what it yields ascends in `order`.
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
    /// Slack, in cells, added to each end of a
    /// [`CellGrid::for_each_run_near`] range so that rounding in the index
    /// arithmetic can never drop a boundary cell.
    const ROUND_GUARD: f32 = 1e-3;

    /// Cells a grid may have per binned point, plus [`Self::MIN_CELL_BUDGET`]:
    /// dense systems sit near one cell per few points, so only a runaway
    /// extent in a non-periodic dimension (one coordinate at 1e12 nm) ever
    /// meets the cap. It then halves the longest axis' cell count until the
    /// grid fits — cells get longer, searches stay exact.
    const MAX_CELLS_PER_POINT: usize = 64;
    const MIN_CELL_BUDGET: usize = 1 << 16;

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
        let n_points = ids.clone().count();
        let mut dims = [1usize; 3];
        for k in 0..3 {
            let extent = (hi[k] - lo[k]).max(1e-6);
            dims[k] = ((extent / min_cell).floor() as usize).max(1);
        }
        let budget = (Self::MAX_CELLS_PER_POINT * n_points + Self::MIN_CELL_BUDGET) as u128;
        let cells =
            |dims: &[usize; 3]| dims.iter().fold(1u128, |n, &d| n.saturating_mul(d as u128));
        while cells(&dims) > budget {
            let longest = (0..3).max_by_key(|&k| dims[k]).expect("three axes");
            dims[longest] = dims[longest].div_ceil(2);
        }
        let mut cell_len = Vec3::ZERO;
        for k in 0..3 {
            cell_len[k] = (hi[k] - lo[k]).max(1e-6) / dims[k] as f32;
        }
        let mut grid = CellGrid {
            periodic: frame.periodic,
            dims,
            lo,
            hi,
            cell_len,
            starts: vec![0; dims[0] * dims[1] * dims[2] + 1],
            order: vec![0; n_points],
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
    /// cell repeats; a non-periodic one is clipped to the grid, and is
    /// empty where it lies wholly beyond either end (no binned point lies
    /// there).
    fn clip(&self, k: usize, a: i64, b: i64) -> (usize, usize) {
        let n = self.dims[k] as i64;
        if self.periodic[k] {
            let count = b.saturating_sub(a).saturating_add(1);
            (a.rem_euclid(n) as usize, count.clamp(1, n) as usize)
        } else {
            let (a, b) = (a.max(0), b.min(n - 1));
            (a.min(n - 1) as usize, (b - a + 1).max(0) as usize)
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

    /// The cells along dimension `k` that a point within `reach` of the
    /// interval `center ± half` can be binned in (as itself or as a periodic
    /// image): the span is conservative.
    fn cells_near(&self, k: usize, center: f32, half: f32, reach: f32) -> AxisCells {
        let a = (self.cell_coord(k, center - half - reach) - Self::ROUND_GUARD).floor() as i64;
        let b = (self.cell_coord(k, center + half + reach) + Self::ROUND_GUARD).floor() as i64;
        let n = self.dims[k];
        let (start, count) = self.clip(k, a, b);
        let first = count.min(n - start);
        // A non-periodic cell is its own unwrapped index; a periodic range
        // counts up from `a` at `start`.
        let t_start = if self.periodic[k] { a } else { start as i64 };
        AxisCells {
            parts: [
                (
                    0,
                    count - first,
                    t_start.saturating_add(first as i64) as f32,
                ),
                (start, first, t_start as f32),
            ],
            lo: self.cell_coord(k, center - half),
            hi: self.cell_coord(k, center + half),
            slack: Self::ROUND_GUARD + 4.0 * f32::EPSILON * n as f32,
            cell_len: self.cell_len[k],
            bounded: !(self.periodic[k] && count == n)
                && a.unsigned_abs().max(b.unsigned_abs()) < 1 << 24,
        }
    }

    /// Visit, as ascending ranges `lo..hi` of positions in `order`
    /// (possibly empty), every binned point that lies within `r` of the box
    /// `center ± half` under the grid's metric, and possibly some beyond.
    ///
    /// The range of cells is the box widened by `r`, less the columns of
    /// cells further than `r` from the box in the xy plane.
    pub(crate) fn for_each_run_near(
        &self,
        center: Vec3,
        half: Vec3,
        r: f32,
        mut visit: impl FnMut(usize, usize),
    ) {
        let [_, ny, nz] = self.dims;
        let xs = self.cells_near(0, center.x, half.x, r);
        let ys = self.cells_near(1, center.y, half.y, r);
        let zs = self.cells_near(2, center.z, half.z, r).parts;
        xs.for_each(|x, gx| {
            ys.for_each(|y, gy| {
                if gx * gx + gy * gy < r * r {
                    let row = (x * ny + y) * nz;
                    for (z, n, _) in zs {
                        visit(
                            self.starts[row + z] as usize,
                            self.starts[row + z + n] as usize,
                        );
                    }
                }
            })
        });
    }
}

/// A wrapped range of cells along one dimension, in ascending cell order,
/// that can bound how far each cell is from the interval it was taken for.
#[derive(Clone, Copy)]
struct AxisCells {
    /// `(first cell, count, unwrapped index of the first)`: the wrapped
    /// low cells, then the cells from the range's start.
    parts: [(usize, usize, f32); 2],
    /// The interval, in cell coordinates.
    lo: f32,
    hi: f32,
    /// Rounding allowance of the cell coordinates, in cells.
    slack: f32,
    cell_len: f32,
    /// False where the indices bound nothing: a periodic range covering
    /// the whole turn meets every cell through an unknown image, and
    /// indices beyond `f32`'s integers (a blown-up coordinate) are not
    /// arithmetic.
    bounded: bool,
}

impl AxisCells {
    /// Visit each cell with a lower bound on the distance along this
    /// dimension between the interval and any point binned in the cell —
    /// taken in cell coordinates, the arithmetic points were binned with.
    #[inline]
    fn for_each(&self, mut visit: impl FnMut(usize, f32)) {
        for (cell, count, t) in self.parts {
            for i in 0..count {
                let t = t + i as f32;
                let gap = ((t - self.hi).max(self.lo - (t + 1.0)) - self.slack).max(0.0);
                visit(
                    cell + i,
                    if self.bounded {
                        gap * self.cell_len
                    } else {
                        0.0
                    },
                );
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

/// Which candidate pairs a list keeps: the ownership rule and the
/// exclusions, as one symmetric relation over local atoms.
///
/// Both list builds are generic over it. [`ZoneFilter`] is the engine's
/// implementation — data, answering a whole tile row at a time; every
/// `Fn(usize, usize) -> bool` implements it pair by pair, so tests, oracles
/// and the perf ledger keep passing closures.
pub trait PairFilter {
    /// Whether the local pair `(i, j)`, `i < j`, belongs to the list.
    fn keeps(&self, i: usize, j: usize) -> bool;

    /// The same relation over the clusters of `lane_atoms` (four lanes per
    /// cluster, short ones padded with [`PAD`](crate::cluster::PAD)), for
    /// the cluster list's mask bake.
    fn tiles<'a>(&'a self, lane_atoms: &'a [u32]) -> impl TileFilter + 'a;
}

/// A [`PairFilter`] bound to one clustering, asked a whole tile row at a
/// time. The build walks i-clusters in ascending order.
pub trait TileFilter {
    /// Zone bits every atom of `clusters` shares, or 0 where the filter
    /// cannot say. Where this is nonzero for an i-cluster and for a whole
    /// clustering grid, every tile between them is rejected, so the build
    /// does not search that grid for it.
    fn shared_zone(&self, clusters: Range<usize>) -> u8;

    /// Clear from `bits[t]` the pairs the filter rejects of tile
    /// `(ci, cj[t])`: bit `CLUSTER * u + v` stands for i-lane `u` × j-lane
    /// `v`, and is set on real lanes only. `cj` ascends, each `>= ci`.
    fn row(&mut self, ci: usize, cj: &[u32], bits: &mut [u16]);
}

/// Any pair predicate is a filter, asked once per pair (`i < j`) — and in
/// tile form once per set bit.
impl<F: Fn(usize, usize) -> bool + ?Sized> PairFilter for F {
    fn keeps(&self, i: usize, j: usize) -> bool {
        self(i, j)
    }

    fn tiles<'a>(&'a self, lane_atoms: &'a [u32]) -> impl TileFilter + 'a {
        PerBit {
            rule: self,
            lane_atoms,
        }
    }
}

struct PerBit<'a, F: ?Sized> {
    rule: &'a F,
    lane_atoms: &'a [u32],
}

impl<F: Fn(usize, usize) -> bool + ?Sized> TileFilter for PerBit<'_, F> {
    fn shared_zone(&self, _: Range<usize>) -> u8 {
        0
    }

    fn row(&mut self, ci: usize, cj: &[u32], bits: &mut [u16]) {
        for (&cj, bits) in cj.iter().zip(bits) {
            let mut pending = *bits;
            while pending != 0 {
                let bit = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let a = self.lane_atoms[CLUSTER * ci + bit / CLUSTER] as usize;
                let b = self.lane_atoms[CLUSTER * cj as usize + bit % CLUSTER] as usize;
                if !(self.rule)(a.min(b), a.max(b)) {
                    *bits &= !(1 << bit);
                }
            }
        }
    }
}

/// The eighth-shell rule and the exclusions of one rank as data: per local
/// atom three "travelled up in x / y / z" bits and a CSR row of the local
/// atoms it must not pair with. The DD plan builds one per rank per
/// partition (it owns global → local, duplicate copies included); the lists
/// then decide [`eighth_shell_rule`]` && !excluded` without a callback.
///
/// The exclusion relation must be symmetric, as `System::exclusions` is:
/// a tile consults the rows of its i-cluster's atoms only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ZoneFilter {
    /// Bit `k` set: the copy travelled at least one domain up in dim `k`.
    zone: Vec<u8>,
    /// Row offsets into `partners`; `len = n_atoms + 1`.
    starts: Vec<u32>,
    /// Excluded local partners, ascending inside a row.
    partners: Vec<u32>,
}

impl ZoneFilter {
    /// A filter over `displacement.len()` local atoms. `partners_of(i, row)`
    /// appends the local atoms excluded from pairing with `i`, in any order.
    pub fn new(
        displacement: &[[u8; 3]],
        mut partners_of: impl FnMut(usize, &mut Vec<u32>),
    ) -> ZoneFilter {
        let zone = displacement
            .iter()
            .map(|d| (d[0] != 0) as u8 | ((d[1] != 0) as u8) << 1 | ((d[2] != 0) as u8) << 2)
            .collect();
        let mut starts = Vec::with_capacity(displacement.len() + 1);
        // Three-site molecules: two partners each.
        let mut partners = Vec::with_capacity(2 * displacement.len());
        starts.push(0);
        for i in 0..displacement.len() {
            let row = partners.len();
            partners_of(i, &mut partners);
            partners[row..].sort_unstable();
            starts.push(partners.len() as u32);
        }
        ZoneFilter {
            zone,
            starts,
            partners,
        }
    }

    /// The filter of a whole system on one rank: no atom travelled (every
    /// zone bit 0), so it keeps exactly the pairs `System::exclusions` does
    /// not name.
    pub(crate) fn whole_system(system: &System) -> ZoneFilter {
        ZoneFilter::new(&vec![[0; 3]; system.n_atoms()], |i, row| {
            row.extend_from_slice(&system.exclusions[i])
        })
    }

    /// Local atoms excluded from pairing with `i`, ascending.
    pub fn excluded(&self, i: usize) -> &[u32] {
        &self.partners[self.starts[i] as usize..self.starts[i + 1] as usize]
    }
}

impl PairFilter for ZoneFilter {
    #[inline]
    fn keeps(&self, i: usize, j: usize) -> bool {
        self.zone[i] & self.zone[j] == 0 && !self.excluded(i).contains(&(j as u32))
    }

    fn tiles<'a>(&'a self, lane_atoms: &'a [u32]) -> impl TileFilter + 'a {
        let n_clusters = lane_atoms.len() / CLUSTER;
        assert_eq!(
            lane_atoms.iter().filter(|&&a| a != PAD).count(),
            self.zone.len(),
            "filter and clustering cover different atoms"
        );
        let mut lane_of = vec![0u32; self.zone.len()];
        let mut zone_lanes = vec![0u16; n_clusters];
        let mut all_zone = vec![!0u8; n_clusters];
        for (l, &a) in lane_atoms.iter().enumerate() {
            if a != PAD {
                let (c, v) = (l / CLUSTER, l % CLUSTER);
                let z = self.zone[a as usize];
                lane_of[a as usize] = l as u32;
                for k in 0..3 {
                    zone_lanes[c] |= u16::from(z >> k & 1) << (CLUSTER * k + v);
                }
                all_zone[c] &= z;
            }
        }
        ZoneTiles {
            filter: self,
            lane_atoms,
            lane_of,
            zone_lanes,
            all_zone,
            excluded: Vec::new(),
        }
    }
}

/// [`ZoneFilter`] in tile-row form. The zone step runs only on rows whose
/// i-cluster holds a travelled copy: per zone bit, the i-lanes holding it
/// times the j-lanes holding it is the set of pairs it rejects, three
/// multiplies per tile. The exclusion step is per row: the handful of
/// partners of the i-cluster's atoms become `(cj, bits to clear)` entries,
/// sorted once and merged into the row's ascending tiles.
struct ZoneTiles<'a> {
    filter: &'a ZoneFilter,
    lane_atoms: &'a [u32],
    /// Lane holding each atom.
    lane_of: Vec<u32>,
    /// Per cluster, nibble `k` holds the lanes whose zone bit `k` is set.
    zone_lanes: Vec<u16>,
    /// Per cluster, the zone bits all its atoms share.
    all_zone: Vec<u8>,
    /// The row's `(cj, bits to clear)`, ascending in `cj`.
    excluded: Vec<(u32, u16)>,
}

/// A 4-bit lane set `n` spread to one bit per tile row: bit `CLUSTER * u`
/// set for each lane `u` in `n`, so `spread(n) * m` is the tile mask of
/// rows `n` × columns `m` (`m < 16`, no carries).
const fn spread(n: u16) -> u16 {
    (n & 1) | (n & 2) << 3 | (n & 4) << 6 | (n & 8) << 9
}

impl TileFilter for ZoneTiles<'_> {
    fn shared_zone(&self, clusters: Range<usize>) -> u8 {
        self.all_zone[clusters].iter().fold(!0, |acc, &z| acc & z)
    }

    fn row(&mut self, ci: usize, cj: &[u32], bits: &mut [u16]) {
        if cj.is_empty() {
            return;
        }
        self.excluded.clear();
        for u in 0..CLUSTER {
            let a = self.lane_atoms[CLUSTER * ci + u];
            if a == PAD {
                continue;
            }
            for &b in self.filter.excluded(a as usize) {
                let lane = self.lane_of[b as usize] as usize;
                // A partner in an earlier cluster is that cluster's entry.
                if lane / CLUSTER >= ci {
                    let bit = 1 << (CLUSTER * u + lane % CLUSTER);
                    self.excluded.push(((lane / CLUSTER) as u32, bit));
                }
            }
        }
        self.excluded.sort_unstable();
        let mut t = 0;
        for &(c, bit) in &self.excluded {
            t += cj[t..].partition_point(|&j| j < c);
            if let Some(b) = bits.get_mut(t).filter(|_| cj[t] == c) {
                *b &= !bit;
            }
        }

        let zi = self.zone_lanes[ci];
        if zi != 0 {
            let rows = [0, 1, 2].map(|k| spread(zi >> (CLUSTER * k) & 0xF));
            for (&cj, b) in cj.iter().zip(bits.iter_mut()) {
                let zj = self.zone_lanes[cj as usize];
                let rejected = [0, 1, 2]
                    .map(|k| rows[k] * (zj >> (CLUSTER * k) & 0xF))
                    .into_iter()
                    .fold(0, |acc, m| acc | m);
                *b &= !rejected;
            }
        }
    }
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
    fn whole_system_filter_builds_the_closure_list() {
        for seed in [1, 8, 21] {
            let sys = GrappaBuilder::new(900).seed(seed).build();
            let rule = |a: usize, b: usize| !sys.is_excluded(a, b);
            let by_rule = PairList::build(&sys.pbc, &sys.positions, 0.75, &rule);
            let by_data = PairList::single_rank(&sys, 0.75);
            assert_eq!(by_data.starts, by_rule.starts, "seed {seed}");
            assert_eq!(by_data.j_atoms, by_rule.j_atoms, "seed {seed}");
        }
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
    fn periodic_search_finds_cross_boundary_pairs() {
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

    #[test]
    fn runaway_coordinate_does_not_size_the_grid() {
        // One atom flung to 1e12 nm along the decomposed (non-periodic)
        // dimension: sized from the extent alone the grid would ask for
        // ~1e14 cells. Capped, the build completes and stays exact.
        let sys = GrappaBuilder::new(1000).seed(6).build();
        let frame = Frame::for_decomposition(&sys.pbc, [2, 1, 1]);
        let mut positions = sys.positions.clone();
        positions.push(Vec3::new(1e12, 1.0, 1.0));
        let grid = CellGrid::new(&frame, &positions, 0..positions.len() as u32, 0.7, 0.7);
        assert!(grid.starts.len() <= 64 * positions.len() + (1 << 16) + 1);
        let all = |_: usize, _: usize| true;
        let pl = PairList::build_in_frame(&frame, &positions, 0.7, &all);
        let bf = brute_force_pairs(&frame, &positions, 0.7, &all);
        assert_eq!(sorted_pairs(&pl), bf);
        assert!(bf.len() > 10_000);

        let mut kinds = sys.kinds.clone();
        kinds.push(kinds[0]);
        let cl = crate::ClusterPairList::build(&frame, &positions, &kinds, 700, 0.7, &all);
        assert_eq!(cl.all_pairs(), bf);
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
    fn out_of_extent_queries_visit_no_cells() {
        // x is decomposed (non-periodic): its extent is the binned points'
        // own, [1.0, 1.9] nm, three cells. A range of cells beyond either
        // end is empty; one that overlaps is cut to the grid.
        let pbc = PbcBox::cubic(4.0);
        let frame = Frame::for_decomposition(&pbc, [2, 1, 1]);
        let points: Vec<Vec3> = (0..200)
            .map(|i| Vec3::new(1.0 + (i % 10) as f32 * 0.1, (i / 10) as f32 * 0.2, 1.5))
            .collect();
        let grid = CellGrid::new(&frame, &points, 0..200, 0.3, 0.5);
        assert_eq!(grid.dims[0], 3);
        for (a, b) in [(-7, -4), (-2, -1), (3, 3), (5, 9), (i64::MAX, i64::MAX)] {
            assert_eq!(grid.clip(0, a, b).1, 0, "cells {a}..={b}");
        }
        for (a, b, cut) in [
            (-3, 0, (0, 1)),
            (1, 1, (1, 1)),
            (2, 8, (2, 1)),
            (-9, 9, (0, 3)),
        ] {
            assert_eq!(grid.clip(0, a, b), cut, "cells {a}..={b}");
        }
        // Through the run query: a box flung out along x visits nothing,
        // though its span is too far out to bound a column's distance.
        let visited = |x: f32| {
            let mut ids = 0;
            let half = Vec3::new(0.05, 0.05, 0.05);
            grid.for_each_run_near(Vec3::new(x, 2.0, 1.5), half, 0.5, |lo, hi| ids += hi - lo);
            ids
        };
        for x in [-0.5, 2.6, 1e30, -1e30] {
            assert_eq!(visited(x), 0, "box at x = {x}");
        }
        for x in [0.5, 1.5, 2.3] {
            assert!(visited(x) > 0, "box at x = {x}");
        }
        // The adjacent query never asks beyond the extent: its 27-cell
        // order is unchanged.
        for &p in &points {
            let mut got = Vec::new();
            grid.for_each_adjacent(p, |id| got.push(id));
            assert_eq!(got, neighbourhood_27(&grid, p), "{p:?}");
        }
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
        assert!(!pl.needs_rebuild(&sys.positions, 0.2));
        let mut longer = sys.positions.clone();
        longer.push(longer[0]);
        assert!(pl.needs_rebuild(&longer, 0.2));
        assert!(pl.needs_rebuild(&sys.positions[1..], 0.2));
    }

    #[test]
    fn verdict_tells_a_wrap_from_a_move() {
        let sys = GrappaBuilder::new(300).seed(5).build();
        let l = sys.pbc.lengths();
        let buffer = 0.2;
        let moved = |edits: &[(usize, Vec3)]| {
            let mut p = sys.positions.clone();
            for &(i, d) in edits {
                p[i] += d;
            }
            p
        };
        let (x, y) = (Vec3::new(l.x, 0.0, 0.0), Vec3::new(0.0, l.y, 0.0));
        let step = Vec3::new(0.15, 0.0, 0.0); // > buffer / 2
        let nudge = Vec3::new(0.0, 0.05, 0.0); // < buffer / 2
        let mut longer = sys.positions.clone();
        longer.push(longer[0]);
        use Verdict::{Holds, Stale, Wrapped};
        // (case, positions, verdict fully periodic, verdict under [2,1,1])
        let rows = [
            ("unmoved", moved(&[]), Holds, Holds),
            ("nudged", moved(&[(5, nudge)]), Holds, Holds),
            ("wrapped in x", moved(&[(5, -x)]), Wrapped, Stale),
            ("wrap+nudge", moved(&[(5, y + nudge)]), Wrapped, Wrapped),
            ("two wrapped", moved(&[(5, -y), (9, y)]), Wrapped, Wrapped),
            ("moved", moved(&[(5, step)]), Stale, Stale),
            ("wrap, move", moved(&[(5, -y), (9, step)]), Stale, Stale),
            ("move, wrap", moved(&[(5, step), (9, -y)]), Stale, Stale),
            ("one atom more", longer, Stale, Stale),
            ("one atom fewer", sys.positions[1..].to_vec(), Stale, Stale),
        ];
        let frames = [
            ("fully periodic", Frame::fully_periodic(&sys.pbc)),
            ("[2,1,1]", Frame::for_decomposition(&sys.pbc, [2, 1, 1])),
        ];
        for (case, positions, periodic, decomposed) in rows {
            for ((label, frame), want) in frames.iter().zip([periodic, decomposed]) {
                let staleness = Staleness::new(frame, &sys.positions, 0.9);
                let got = staleness.verdict(&positions, buffer);
                assert_eq!(got, want, "{case}, {label}");
                let stale = staleness.needs_rebuild(&positions, buffer);
                assert_eq!(stale, want == Stale, "{case}, {label}");
            }
        }
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
