//! Cluster-pair non-bonded kernels (the NBNXM scheme of Páll & Hess 2013,
//! the paper's reference [40]).
//!
//! GROMACS' GPU/SIMD kernels do not iterate atom pairs: atoms are sorted
//! into spatial *clusters* of M=4, the pair list pairs clusters, and the
//! kernel evaluates all M×M distances — trading a few wasted interactions
//! for regular, vectorizable data access. We reproduce the scheme on the
//! CPU:
//!
//! * clusters are built from cell-sorted order, **home atoms and halo
//!   copies clustered separately** so a cluster is never mixed-ownership;
//! * cluster pairs are found in time linear in the cluster count: cluster
//!   bounding-box centres are binned on a uniform grid whose cell is half
//!   of `r_list`, each i-cluster range-queries the cells its box can reach
//!   (periodic dims wrap by cell index, each cell visited once), and
//!   candidates are pruned with per-dimension axis-aligned bounding-box gaps
//!   under the [`Frame`] metric. The few per cent of clusters longer than
//!   `r_list` (chunks of the sorted order that straddle a column end, up to
//!   a box length long) stay out of the grid in a side list: each makes one
//!   range query of its own and is tested directly against the other
//!   side-listed clusters;
//! * each surviving 4×4 tile carries a `u16` interaction bitmask baked at
//!   build time (ownership rule + exclusions + `i < j` dedup + `r_list`
//!   distance pruning), so the masked pair set is **exactly** the set a
//!   [`PairList`](crate::pairlist::PairList) built with the same inputs
//!   would enumerate. The sixteen distance decisions of a tile are four
//!   [`F4`] rows using the kernel's own minimum-image expression, which
//!   matches [`Frame::displacement`] bit for bit; the rule is asked only
//!   about pairs in range;
//! * the tile list is split into a *local* partition (both clusters home)
//!   and a *halo* partition (either cluster holds halo copies), letting
//!   the engine evaluate local tiles while the coordinate halo exchange is
//!   still in flight.
//!
//! Determinism contract: the kernel folds energy/virial as per-i-cluster
//! `f64` partials accumulated in cluster-index (CSR row) order, and force
//! lanes are combined in a fixed order, so any executor that walks the
//! rows in order — serial or one thread per PE — produces bitwise
//! identical results.

use crate::forces::nonbonded::{NonbondedParams, F_ELEC};
use crate::frame::Frame;
use crate::pairlist::{any_displacement_exceeds, Binning};
#[cfg(target_arch = "x86_64")]
use crate::simd4::F8;
use crate::simd4::{D2, F4};
use crate::soa::{SoaCoords, SoaForces};
use crate::topology::AtomKind;
use crate::vec3::Vec3;
use std::cell::Cell;

/// Cluster size (atoms per cluster), GROMACS' GPU i-cluster width.
pub const CLUSTER: usize = 4;

/// Sentinel for padding incomplete clusters.
pub const PAD: u32 = u32::MAX;

/// Which tile partition to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NbPartition {
    /// Tiles where both clusters hold home atoms only: computable before
    /// the coordinate halo exchange completes.
    Local,
    /// Tiles where at least one cluster holds halo copies: requires the
    /// halo coordinates to have arrived.
    Halo,
}

/// One partition of the cluster-pair adjacency, CSR over i-clusters.
///
/// Row `r` pairs i-cluster `i_clusters[r]` with j-clusters
/// `j_clusters[starts[r]..starts[r+1]]` (ascending, each `>= i_clusters[r]`),
/// and `masks` carries one `u16` per tile: bit `u * CLUSTER + v` enables the
/// interaction between i-lane `u` and j-lane `v`. Rows appear in strictly
/// increasing i-cluster order; empty rows are omitted.
#[derive(Debug, Clone, Default)]
pub struct ClusterPairs {
    pub i_clusters: Vec<u32>,
    /// Row offsets into `j_clusters` / `masks`; `len = i_clusters.len() + 1`.
    pub starts: Vec<u32>,
    pub j_clusters: Vec<u32>,
    pub masks: Vec<u16>,
}

impl ClusterPairs {
    pub fn n_rows(&self) -> usize {
        self.i_clusters.len()
    }

    pub fn n_tiles(&self) -> usize {
        self.j_clusters.len()
    }

    /// Exact number of enabled atom pairs (mask popcount).
    pub fn n_pairs(&self) -> usize {
        self.masks.iter().map(|m| m.count_ones() as usize).sum()
    }
}

/// Atoms grouped into spatial clusters plus a masked, partitioned cluster
/// pair list. See the module docs for the scheme.
#[derive(Debug, Clone)]
pub struct ClusterPairList {
    /// Atom index per lane, `PAD`-padded: cluster `c` owns lanes
    /// `CLUSTER*c .. CLUSTER*(c+1)`.
    pub lane_atoms: Vec<u32>,
    /// Clusters `[0, n_home_clusters)` hold home atoms; the rest halo.
    pub n_home_clusters: usize,
    /// Home atoms occupy indices `[0, n_home)` of the build positions.
    pub n_home: usize,
    /// Per-lane kind table index (padded lanes: 0).
    pub lane_kinds: Vec<u8>,
    /// Per-lane charge (padded lanes: 0, so they contribute no RF term
    /// even if a mask bug ever enabled one).
    pub lane_charges: Vec<f32>,
    /// Axis-aligned bounding-box centre / half-extent per cluster (raw
    /// coordinates; conservative across a periodic wrap).
    pub bb_center: Vec<Vec3>,
    pub bb_half: Vec<Vec3>,
    /// Home–home tiles.
    pub local: ClusterPairs,
    /// Tiles touching at least one halo cluster.
    pub halo: ClusterPairs,
    /// Search radius the masks were pruned with (cutoff + buffer).
    pub r_list: f32,
    /// Metric the list was built under.
    pub frame: Frame,
    /// Coordinates at build time, for displacement-based rebuild checks.
    ref_positions: Vec<Vec3>,
    /// Consumed by the first `needs_rebuild` call after a build.
    fresh: Cell<bool>,
}

impl ClusterPairList {
    /// Build clusters and the masked tile list over a local coordinate
    /// array: home atoms `[0, n_home)` followed by pre-shifted halo copies.
    ///
    /// `rule(i, j)` (with `i < j`) is the same ownership/exclusion
    /// predicate [`PairList::build_in_frame`](crate::pairlist::PairList)
    /// takes; the masked pair set equals that list's pair set exactly.
    pub fn build(
        frame: &Frame,
        positions: &[Vec3],
        kinds: &[AtomKind],
        n_home: usize,
        r_list: f32,
        rule: &dyn Fn(usize, usize) -> bool,
    ) -> ClusterPairList {
        assert!(n_home <= positions.len());
        assert_eq!(positions.len(), kinds.len());
        for k in 0..3 {
            if frame.periodic[k] {
                assert!(
                    r_list < 0.5 * frame.box_lengths[k],
                    "search radius {r_list} must be < half the box {:?} in periodic dim {k}",
                    frame.box_lengths
                );
            }
        }

        // --- Cluster construction: spatially sort home and halo ranges
        // separately, then chunk the sorted order into clusters of 4.
        let mut lane_atoms: Vec<u32> = Vec::new();
        let cluster_range = |lo: usize, hi: usize, lane_atoms: &mut Vec<u32>| {
            if lo == hi {
                return;
            }
            let slice = &positions[lo..hi];
            let cell = clustering_cell(slice, r_list);
            let bins = Binning::new(frame, slice, cell);
            for chunk in bins.order.chunks(CLUSTER) {
                let mut lanes = [PAD; CLUSTER];
                for (l, &a) in chunk.iter().enumerate() {
                    lanes[l] = a + lo as u32;
                }
                lane_atoms.extend_from_slice(&lanes);
            }
        };
        cluster_range(0, n_home, &mut lane_atoms);
        let n_home_clusters = lane_atoms.len() / CLUSTER;
        cluster_range(n_home, positions.len(), &mut lane_atoms);
        let n_clusters = lane_atoms.len() / CLUSTER;

        // --- Per-lane parameters (kinds are fixed between repartitions,
        // so charges can be baked once here instead of gathered per step).
        let mut lane_kinds = vec![0u8; lane_atoms.len()];
        let mut lane_charges = vec![0.0f32; lane_atoms.len()];
        for (l, &a) in lane_atoms.iter().enumerate() {
            if a != PAD {
                let k = kinds[a as usize];
                lane_kinds[l] = k.index() as u8;
                lane_charges[l] = k.charge();
            }
        }

        // --- Bounding boxes (raw coordinates; a cluster straddling a
        // periodic wrap just gets a conservative box).
        let mut bb_center = Vec::with_capacity(n_clusters);
        let mut bb_half = Vec::with_capacity(n_clusters);
        for c in 0..n_clusters {
            let mut lo = Vec3::new(f32::INFINITY, f32::INFINITY, f32::INFINITY);
            let mut hi = Vec3::new(f32::NEG_INFINITY, f32::NEG_INFINITY, f32::NEG_INFINITY);
            for l in 0..CLUSTER {
                let a = lane_atoms[CLUSTER * c + l];
                if a == PAD {
                    continue;
                }
                let p = positions[a as usize];
                for k in 0..3 {
                    lo[k] = lo[k].min(p[k]);
                    hi[k] = hi[k].max(p[k]);
                }
            }
            bb_center.push((lo + hi) * 0.5);
            bb_half.push((hi - lo) * 0.5);
        }

        // --- Tiles: per i-cluster, the clusters whose bounding box passes
        // the gap test — gridded ones from a range query, box-spanning ones
        // from the side list. Only those survivors are sorted, then their
        // masks are baked.
        let r2 = r_list * r_list;
        let near_boxes =
            |ci: u32, cj: u32| bb_gap2(frame, &bb_center, &bb_half, ci as usize, cj as usize) < r2;
        let grid = ClusterGrid::new(frame, &bb_center, &bb_half, r_list);
        // Tiles between a box-spanning cluster and a gridded one, as
        // `(ci, cj)` with `ci < cj`: one range query per spanning cluster.
        let mut wide_tiles: Vec<(u32, u32)> = Vec::new();
        for &w in &grid.wide {
            grid.for_each_near(bb_center[w as usize], bb_half[w as usize], |c| {
                if near_boxes(c, w) {
                    wide_tiles.push((c.min(w), c.max(w)));
                }
            });
        }
        wide_tiles.sort_unstable();
        let mut wide_tiles = wide_tiles.into_iter().peekable();

        let baker = TileBaker::new(frame, positions, &lane_atoms, r2);
        let mut local = ClusterPairsBuilder::default();
        let mut halo = ClusterPairsBuilder::default();
        let mut near: Vec<u32> = Vec::new();
        for ci in 0..n_clusters as u32 {
            near.clear();
            let (center, half) = (bb_center[ci as usize], bb_half[ci as usize]);
            if is_wide(half, r_list) {
                let later = grid.wide.partition_point(|&w| w < ci);
                near.extend(grid.wide[later..].iter().filter(|&&cj| near_boxes(ci, cj)));
            } else {
                grid.for_each_near(center, half, |cj| {
                    if cj >= ci && near_boxes(ci, cj) {
                        near.push(cj);
                    }
                });
            }
            while let Some((_, cj)) = wide_tiles.next_if(|&(c, _)| c == ci) {
                near.push(cj);
            }
            near.sort_unstable();
            for &cj in &near {
                let mask = baker.mask(ci as usize, cj as usize, rule);
                if mask != 0 {
                    if (cj as usize) < n_home_clusters {
                        local.push(ci, cj, mask);
                    } else {
                        halo.push(ci, cj, mask);
                    }
                }
            }
        }

        ClusterPairList {
            lane_atoms,
            n_home_clusters,
            n_home,
            lane_kinds,
            lane_charges,
            bb_center,
            bb_half,
            local: local.finish(),
            halo: halo.finish(),
            r_list,
            frame: *frame,
            ref_positions: positions.to_vec(),
            fresh: Cell::new(true),
        }
    }

    pub fn n_clusters(&self) -> usize {
        self.lane_atoms.len() / CLUSTER
    }

    pub fn n_lanes(&self) -> usize {
        self.lane_atoms.len()
    }

    /// Total enabled atom pairs across both partitions.
    pub fn n_pairs(&self) -> usize {
        self.local.n_pairs() + self.halo.n_pairs()
    }

    pub fn partition(&self, which: NbPartition) -> &ClusterPairs {
        match which {
            NbPartition::Local => &self.local,
            NbPartition::Halo => &self.halo,
        }
    }

    /// Lane-space cluster range holding home atoms.
    pub fn home_clusters(&self) -> std::ops::Range<usize> {
        0..self.n_home_clusters
    }

    /// Lane-space cluster range holding halo copies.
    pub fn halo_clusters(&self) -> std::ops::Range<usize> {
        self.n_home_clusters..self.n_clusters()
    }

    /// Gather atom coordinates into lane order for `clusters`. Padded lanes
    /// replicate the cluster's first atom — a finite in-range coordinate —
    /// so dead lanes can never overflow; their mask bits are always 0.
    pub fn pack_coords(
        &self,
        positions: &[Vec3],
        out: &mut SoaCoords,
        clusters: std::ops::Range<usize>,
    ) {
        out.resize(self.n_lanes());
        for c in clusters {
            let base = CLUSTER * c;
            let anchor = self.lane_atoms[base];
            for l in 0..CLUSTER {
                let a = self.lane_atoms[base + l];
                let a = if a == PAD { anchor } else { a } as usize;
                let p = positions[a];
                out.x[base + l] = p.x;
                out.y[base + l] = p.y;
                out.z[base + l] = p.z;
            }
        }
    }

    /// Scatter lane-space force accumulators back to per-atom AoS forces
    /// (additive). Each atom lives in exactly one lane, so the scatter is
    /// deterministic regardless of tile order.
    pub fn fold_forces(&self, lane_forces: &SoaForces, forces: &mut [Vec3]) {
        for (l, &a) in self.lane_atoms.iter().enumerate() {
            if a == PAD {
                continue;
            }
            let f = &mut forces[a as usize];
            f.x += lane_forces.x[l];
            f.y += lane_forces.y[l];
            f.z += lane_forces.z[l];
        }
    }

    /// Same two fast paths and the same decision sequence as
    /// [`PairList::needs_rebuild`](crate::pairlist::PairList::needs_rebuild).
    pub fn needs_rebuild(&self, positions: &[Vec3], buffer: f32) -> bool {
        if self.fresh.replace(false) {
            return false;
        }
        self.needs_rebuild_full(positions, buffer)
    }

    /// Unconditional displacement scan (reference oracle for rebuilds).
    pub fn needs_rebuild_full(&self, positions: &[Vec3], buffer: f32) -> bool {
        let lim2 = (0.5 * buffer) * (0.5 * buffer);
        any_displacement_exceeds(&self.frame, positions, &self.ref_positions, lim2)
    }

    /// Enumerate the enabled `(i, j)` atom pairs (`i < j`, sorted) of one
    /// partition — the coverage oracle for tests.
    pub fn partition_pairs(&self, which: NbPartition) -> Vec<(u32, u32)> {
        let part = self.partition(which);
        let mut out = Vec::with_capacity(part.n_pairs());
        for (row, &ci) in part.i_clusters.iter().enumerate() {
            let ci = ci as usize;
            let lo = part.starts[row] as usize;
            let hi = part.starts[row + 1] as usize;
            for t in lo..hi {
                let cj = part.j_clusters[t] as usize;
                let mask = part.masks[t];
                for u in 0..CLUSTER {
                    for v in 0..CLUSTER {
                        if mask & (1 << (u * CLUSTER + v)) == 0 {
                            continue;
                        }
                        let a = self.lane_atoms[CLUSTER * ci + u];
                        let b = self.lane_atoms[CLUSTER * cj + v];
                        out.push((a.min(b), a.max(b)));
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// All enabled pairs across both partitions, sorted.
    pub fn all_pairs(&self) -> Vec<(u32, u32)> {
        let mut out = self.partition_pairs(NbPartition::Local);
        out.extend(self.partition_pairs(NbPartition::Halo));
        out.sort_unstable();
        out
    }
}

/// Incremental CSR row builder for one partition.
#[derive(Default)]
struct ClusterPairsBuilder {
    out: ClusterPairs,
}

impl ClusterPairsBuilder {
    fn push(&mut self, ci: u32, cj: u32, mask: u16) {
        if self.out.i_clusters.last() != Some(&ci) {
            if self.out.starts.is_empty() {
                self.out.starts.push(0);
            }
            self.out.i_clusters.push(ci);
            self.out.starts.push(*self.out.starts.last().unwrap());
        }
        self.out.j_clusters.push(cj);
        self.out.masks.push(mask);
        *self.out.starts.last_mut().unwrap() = self.out.j_clusters.len() as u32;
    }

    fn finish(mut self) -> ClusterPairs {
        if self.out.starts.is_empty() {
            self.out.starts.push(0);
        }
        self.out
    }
}

/// Squared per-dimension gap between the bounding boxes of clusters `ci`
/// and `cj` under the frame metric: a lower bound on any member distance
/// (triangle inequality; valid on the circle for periodic dims).
#[inline]
fn bb_gap2(frame: &Frame, bb_center: &[Vec3], bb_half: &[Vec3], ci: usize, cj: usize) -> f32 {
    let d = frame.displacement(bb_center[ci], bb_center[cj]);
    let mut gap2 = 0.0f32;
    for k in 0..3 {
        let g = (d[k].abs() - (bb_half[ci][k] + bb_half[cj][k])).max(0.0);
        gap2 += g * g;
    }
    gap2
}

/// True for the few per cent of clusters (chunks of the cell-sorted order
/// that straddle a column or plane boundary) whose bounding box is too long
/// to bin by its centre; they go to [`ClusterGrid::wide`] instead.
#[inline]
fn is_wide(half: Vec3, r_list: f32) -> bool {
    half.x.max(half.y).max(half.z) > 0.5 * r_list
}

/// Uniform grid over cluster bounding-box centres, range-queried for the
/// clusters whose box can come within `r_list` of a given one.
///
/// The cell is `r_list / 2` wide (rounded so a whole number fits a periodic
/// box). Box-spanning clusters stay out of the grid, so a query has to
/// reach no further than `half_i + r_list + (largest gridded half-extent)`
/// from the centre of cluster `i` in each dimension. Periodic dimensions
/// wrap by cell index, so coordinates that have drifted out of the box bin
/// like their in-box image; non-periodic ones cover the centres' extent.
struct ClusterGrid {
    periodic: [bool; 3],
    dims: [usize; 3],
    origin: Vec3,
    inv_cell: Vec3,
    /// `r_list` plus the largest gridded half-extent, per dimension.
    reach: Vec3,
    /// CSR over cells (z fastest) of gridded clusters, ascending per cell.
    starts: Vec<u32>,
    order: Vec<u32>,
    /// Box-spanning clusters, ascending: tested directly by the caller.
    wide: Vec<u32>,
}

impl ClusterGrid {
    /// Slack, in cells, added to each end of a query range so that rounding
    /// in the index arithmetic can never drop a boundary cell.
    const ROUND_GUARD: f32 = 1e-3;

    fn new(frame: &Frame, bb_center: &[Vec3], bb_half: &[Vec3], r_list: f32) -> ClusterGrid {
        let mut wide = Vec::new();
        let mut gridded = Vec::with_capacity(bb_center.len());
        let mut max_half = Vec3::ZERO;
        let mut lo = Vec3::splat(f32::INFINITY);
        let mut hi = Vec3::splat(f32::NEG_INFINITY);
        for (c, (&p, &h)) in bb_center.iter().zip(bb_half).enumerate() {
            if is_wide(h, r_list) {
                wide.push(c as u32);
                continue;
            }
            gridded.push(c as u32);
            for k in 0..3 {
                max_half[k] = max_half[k].max(h[k]);
                lo[k] = lo[k].min(p[k]);
                hi[k] = hi[k].max(p[k]);
            }
        }
        // Sparse input must not buy an unbounded cell array: at most about
        // four cells per gridded cluster.
        let dim_cap = ((4 * gridded.len()) as f32).cbrt() as usize + 1;
        let mut dims = [1usize; 3];
        let mut origin = Vec3::ZERO;
        let mut inv_cell = Vec3::ZERO;
        for k in 0..3 {
            let (start, extent) = if frame.periodic[k] {
                (0.0, frame.box_lengths[k])
            } else {
                (lo[k], hi[k] - lo[k])
            };
            // A flat (or empty) dimension keeps one cell everything maps to.
            if extent > 0.0 {
                origin[k] = start;
                dims[k] = ((extent / (0.5 * r_list)) as usize).clamp(1, dim_cap);
                inv_cell[k] = dims[k] as f32 / extent;
            }
        }

        let mut grid = ClusterGrid {
            periodic: frame.periodic,
            dims,
            origin,
            inv_cell,
            reach: max_half + Vec3::splat(r_list),
            starts: vec![0; dims[0] * dims[1] * dims[2] + 1],
            order: vec![0; gridded.len()],
            wide,
        };
        // Counting sort in ascending cluster order.
        let cells: Vec<u32> = gridded
            .iter()
            .map(|&c| grid.cell_of(bb_center[c as usize]) as u32)
            .collect();
        for &cell in &cells {
            grid.starts[cell as usize + 1] += 1;
        }
        for i in 1..grid.starts.len() {
            grid.starts[i] += grid.starts[i - 1];
        }
        let mut cursor = grid.starts.clone();
        for (&c, &cell) in gridded.iter().zip(&cells) {
            grid.order[cursor[cell as usize] as usize] = c;
            cursor[cell as usize] += 1;
        }
        grid
    }

    /// Flat index of the cell holding centre `p`.
    fn cell_of(&self, p: Vec3) -> usize {
        let mut c = [0usize; 3];
        for k in 0..3 {
            let n = self.dims[k] as i64;
            let i = ((p[k] - self.origin[k]) * self.inv_cell[k]).floor() as i64;
            c[k] = if self.periodic[k] {
                i.rem_euclid(n)
            } else {
                i.clamp(0, n - 1)
            } as usize;
        }
        (c[0] * self.dims[1] + c[1]) * self.dims[2] + c[2]
    }

    /// First cell and cell count, along dimension `k`, of the range that
    /// covers `[c - reach, c + reach]`. A periodic range that would wrap
    /// past its own start is cut to one full turn, so no cell repeats.
    fn span(&self, k: usize, c: f32, reach: f32) -> (usize, usize) {
        let n = self.dims[k] as i64;
        let cell =
            |x: f32, guard: f32| ((x - self.origin[k]) * self.inv_cell[k] + guard).floor() as i64;
        let a = cell(c - reach, -Self::ROUND_GUARD);
        let b = cell(c + reach, Self::ROUND_GUARD);
        if self.periodic[k] {
            let count = b.saturating_sub(a).saturating_add(1);
            (a.rem_euclid(n) as usize, count.clamp(1, n) as usize)
        } else {
            let (a, b) = (a.clamp(0, n - 1), b.clamp(0, n - 1));
            (a as usize, (b - a + 1) as usize)
        }
    }

    /// Call `visit` exactly once for every gridded cluster whose centre is
    /// within reach of a box with this centre and half-extent.
    fn for_each_near(&self, center: Vec3, half: Vec3, mut visit: impl FnMut(u32)) {
        let [nx, ny, nz] = self.dims;
        let (x0, cx) = self.span(0, center.x, half.x + self.reach.x);
        let (y0, cy) = self.span(1, center.y, half.y + self.reach.y);
        let (z0, cz) = self.span(2, center.z, half.z + self.reach.z);
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
}

/// Bakes one tile's interaction mask: the sixteen `d² < r_list²` decisions
/// as four [`F4`] rows over lane-space SoA coordinates, with the kernel's
/// own minimum-image expression ([`MinImage4`]), then `rule` on the
/// surviving bits only — exactly the [`PairList`](crate::pairlist::PairList)
/// predicate for finite coordinates.
struct TileBaker<'a> {
    lane_atoms: &'a [u32],
    /// Lane coordinates; padded lanes hold NaN, so no comparison on them is
    /// ever true and their bits stay clear without a validity mask.
    lanes: SoaCoords,
    image: [MinImage4; 3],
    r2: F4,
}

impl<'a> TileBaker<'a> {
    /// Bits `u * CLUSTER + v` with `u < v`, one nibble per row `u` (row 0
    /// lowest): a self-tile lists each pair once.
    const UPPER_TRIANGLE: u32 = 0b0000_1000_1100_1110;

    fn new(frame: &Frame, positions: &[Vec3], lane_atoms: &'a [u32], r2: f32) -> Self {
        let nan = vec![f32::NAN; lane_atoms.len()];
        let mut lanes = SoaCoords {
            x: nan.clone(),
            y: nan.clone(),
            z: nan,
        };
        for (l, &a) in lane_atoms.iter().enumerate() {
            if a != PAD {
                lanes.set(l, positions[a as usize]);
            }
        }
        TileBaker {
            lane_atoms,
            lanes,
            image: MinImage4::axes(frame),
            r2: F4::splat(r2),
        }
    }

    fn mask(&self, ci: usize, cj: usize, rule: &dyn Fn(usize, usize) -> bool) -> u16 {
        let (ibase, jbase) = (CLUSTER * ci, CLUSTER * cj);
        let [ix, iy, iz] = self.image;
        let xj = F4::load(&self.lanes.x, jbase);
        let yj = F4::load(&self.lanes.y, jbase);
        let zj = F4::load(&self.lanes.z, jbase);
        let mut bits = 0u32;
        for u in 0..CLUSTER {
            let dx = ix.apply(F4::splat(self.lanes.x[ibase + u]) - xj);
            let dy = iy.apply(F4::splat(self.lanes.y[ibase + u]) - yj);
            let dz = iz.apply(F4::splat(self.lanes.z[ibase + u]) - zj);
            let d2 = dx * dx + dy * dy + dz * dz;
            bits |= d2.lt(self.r2).movemask() << (u * CLUSTER);
        }
        if ci == cj {
            bits &= Self::UPPER_TRIANGLE;
        }
        let mut pending = bits;
        while pending != 0 {
            let bit = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let a = self.lane_atoms[ibase + bit / CLUSTER] as usize;
            let b = self.lane_atoms[jbase + bit % CLUSTER] as usize;
            if !rule(a.min(b), a.max(b)) {
                bits &= !(1 << bit);
            }
        }
        bits as u16
    }
}

/// Half box lengths for the branchless minimum image: in periodic dims the
/// displacement is compared against `L/2` and shifted by `±L`; non-periodic
/// dims get an infinite threshold (never shifts).
fn image_half_lengths(frame: &Frame) -> [f32; 3] {
    [0, 1, 2].map(|k| {
        if frame.periodic[k] {
            0.5 * frame.box_lengths[k]
        } else {
            f32::INFINITY
        }
    })
}

/// Branchless minimum image along one axis, four lanes at a time.
/// Bitwise-matches [`Frame::displacement`].
#[derive(Clone, Copy)]
struct MinImage4 {
    half: F4,
    neg_half: F4,
    len: F4,
}

impl MinImage4 {
    fn axes(frame: &Frame) -> [MinImage4; 3] {
        let half = image_half_lengths(frame);
        [0, 1, 2].map(|k| MinImage4 {
            half: F4::splat(half[k]),
            neg_half: F4::splat(-half[k]),
            len: F4::splat(frame.box_lengths[k]),
        })
    }

    #[inline(always)]
    fn apply(self, d: F4) -> F4 {
        d - (d.gt(self.half).and(self.len) - d.lt(self.neg_half).and(self.len))
    }
}

/// Pick a clustering cell so ~CLUSTER atoms land per cell (tight clusters),
/// clamped to a sane range.
fn clustering_cell(positions: &[Vec3], r_list: f32) -> f32 {
    let mut lo = Vec3::new(f32::INFINITY, f32::INFINITY, f32::INFINITY);
    let mut hi = Vec3::new(f32::NEG_INFINITY, f32::NEG_INFINITY, f32::NEG_INFINITY);
    for p in positions {
        for k in 0..3 {
            lo[k] = lo[k].min(p[k]);
            hi[k] = hi[k].max(p[k]);
        }
    }
    let mut vol = 1.0f32;
    for k in 0..3 {
        vol *= (hi[k] - lo[k]).max(0.05);
    }
    let per_atom = vol / positions.len() as f32;
    (CLUSTER as f32 * per_atom)
        .cbrt()
        .clamp(0.15, r_list.max(0.3))
}

/// Cluster-pair non-bonded kernel: same physics as
/// [`crate::forces::compute_nonbonded`], evaluated as masked 4×4 tiles over
/// lane-space SoA coordinates (see [`ClusterPairList::pack_coords`]) with
/// explicit 4-wide SIMD arithmetic ([`F4`]).
///
/// The inner micro-tile is branchless: lane selection (mask bit, cutoff,
/// `r2 > 0`) becomes a 0/1 multiplier, and dead lanes are computed on a
/// blended `r2' = sel*r2 + (1-sel)` so no lane ever divides by zero. For
/// live lanes `r2'` is bitwise `r2`, so per-pair energies match the scalar
/// kernel bit for bit; only the fold orders differ.
///
/// Accumulates forces into `lane_forces` (lane space, additive) and returns
/// `(energy, virial)`. All folds run in a fixed order — i-lane force
/// partials per j-lane across the row, then one `(v0+v1)+(v2+v3)`
/// horizontal sum; energy/virial as packed f64 lane partials in CSR tile
/// order — so repeated evaluation of the same list is bitwise reproducible
/// no matter how rows are distributed across calls.
///
/// On x86_64 hosts with AVX2 an 8-wide variant ([`nb_clusters_avx2`]) is
/// selected at runtime. It evaluates two tile rows per 256-bit operation
/// but performs the *same* IEEE operations per half, folds in the same
/// order, and dead rows riding along in a live pair add exact `±0.0`
/// (bitwise inert against the `+0.0`-rooted accumulators) — so its results
/// are bitwise identical to the baseline path, and hence portable across
/// hosts.
pub fn compute_nonbonded_clusters(
    frame: &Frame,
    coords: &SoaCoords,
    list: &ClusterPairList,
    which: NbPartition,
    params: &NonbondedParams,
    lane_forces: &mut SoaForces,
) -> (f64, f64) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: feature presence checked on this exact host above.
        return unsafe { nb_clusters_avx2(frame, coords, list, which, params, lane_forces) };
    }
    nb_clusters_body(frame, coords, list, which, params, lane_forces)
}

/// 8-wide AVX2 variant of [`nb_clusters_body`]: two tile rows per
/// iteration, with row `u` in lanes 0–3 and row `u+1` in lanes 4–7 of each
/// 256-bit vector, sharing one load of the j-cluster data.
///
/// Bitwise equality with the baseline path holds by construction:
/// * every [`F8`] op performs the identical IEEE operation per 128-bit
///   half, in the same expression order as the 4-wide body;
/// * j-side force and energy/virial folds extract the halves and
///   accumulate row `u` before row `u+1` — the baseline's row order;
/// * a dead row paired with a live one contributes `sel = 0` terms, i.e.
///   exact `±0.0` adds, which cannot change any accumulator that started
///   at `+0.0` (adds of finite values never produce `-0.0` under
///   round-to-nearest).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn nb_clusters_avx2(
    frame: &Frame,
    coords: &SoaCoords,
    list: &ClusterPairList,
    which: NbPartition,
    params: &NonbondedParams,
    lane_forces: &mut SoaForces,
) -> (f64, f64) {
    let part = list.partition(which);
    assert_eq!(coords.len(), list.n_lanes());
    assert_eq!(lane_forces.len(), list.n_lanes());
    let bl = frame.box_lengths;
    let half = image_half_lengths(frame);
    let rc2v = F8::splat(params.cutoff * params.cutoff);
    let zero = F8::splat(0.0);
    let one = F8::splat(1.0);
    let (blx, bly, blz) = (F8::splat(bl.x), F8::splat(bl.y), F8::splat(bl.z));
    let (hx, hy, hz) = (F8::splat(half[0]), F8::splat(half[1]), F8::splat(half[2]));
    let nhx = F8::splat(-half[0]);
    let nhy = F8::splat(-half[1]);
    let nhz = F8::splat(-half[2]);
    let krfv = F8::splat(params.k_rf);
    let crfv = F8::splat(params.c_rf);
    let two_krf = F8::splat(2.0 * params.k_rf);
    let twelve = F8::splat(12.0);
    let six = F8::splat(6.0);
    const NK: usize = AtomKind::COUNT;
    const LJT_LEN: usize = (NK * NK).next_power_of_two();
    const LJT_MASK: usize = LJT_LEN - 1;
    const ROW_PAIRS: usize = CLUSTER / 2;
    let mut ljt = [[0.0f32; 4]; LJT_LEN];
    for a in 0..NK {
        for b in 0..NK {
            ljt[a * NK + b] = [
                params.c6[a][b],
                params.c12[a][b],
                params.vshift_lj[a][b],
                0.0,
            ];
        }
    }

    let mut e_lo = D2::zero();
    let mut e_hi = D2::zero();
    let mut w_lo = D2::zero();
    let mut w_hi = D2::zero();
    for (row, &ci) in part.i_clusters.iter().enumerate() {
        let ibase = CLUSTER * ci as usize;
        let xi = load4(&coords.x, ibase);
        let yi = load4(&coords.y, ibase);
        let zi = load4(&coords.z, ibase);
        let qi = load4(&list.lane_charges, ibase);
        let ki = [
            list.lane_kinds[ibase] as usize,
            list.lane_kinds[ibase + 1] as usize,
            list.lane_kinds[ibase + 2] as usize,
            list.lane_kinds[ibase + 3] as usize,
        ];
        // Row-pair broadcasts: entry `p` carries row `2p` in the low half
        // and row `2p+1` in the high half.
        let pxi = [F8::splat2(xi[0], xi[1]), F8::splat2(xi[2], xi[3])];
        let pyi = [F8::splat2(yi[0], yi[1]), F8::splat2(yi[2], yi[3])];
        let pzi = [F8::splat2(zi[0], zi[1]), F8::splat2(zi[2], zi[3])];
        let eqi = [
            F8::splat2(F_ELEC * qi[0], F_ELEC * qi[1]),
            F8::splat2(F_ELEC * qi[2], F_ELEC * qi[3]),
        ];
        let trow = [NK * ki[0], NK * ki[1], NK * ki[2], NK * ki[3]];
        let mut fxi = [F8::splat(0.0); ROW_PAIRS];
        let mut fyi = [F8::splat(0.0); ROW_PAIRS];
        let mut fzi = [F8::splat(0.0); ROW_PAIRS];

        let lo = part.starts[row] as usize;
        let hi = part.starts[row + 1] as usize;
        for t in lo..hi {
            let jbase = CLUSTER * part.j_clusters[t] as usize;
            let mask = part.masks[t];
            let xj4 = F4::load(&coords.x, jbase);
            let yj4 = F4::load(&coords.y, jbase);
            let zj4 = F4::load(&coords.z, jbase);
            let qj4 = F4::load(&list.lane_charges, jbase);
            let kj = [
                list.lane_kinds[jbase] as usize,
                list.lane_kinds[jbase + 1] as usize,
                list.lane_kinds[jbase + 2] as usize,
                list.lane_kinds[jbase + 3] as usize,
            ];
            // One j-cluster load feeds both rows of every pair.
            let xj = F8::pair(xj4);
            let yj = F8::pair(yj4);
            let zj = F8::pair(zj4);
            let qj = F8::pair(qj4);
            let mut fxj = F4::splat(0.0);
            let mut fyj = F4::splat(0.0);
            let mut fzj = F4::splat(0.0);

            for p in 0..ROW_PAIRS {
                let m0 = (mask >> (2 * p * CLUSTER)) & 0xF;
                let m1 = (mask >> ((2 * p + 1) * CLUSTER)) & 0xF;
                if (m0 | m1) == 0 {
                    continue;
                }
                let (c6a, c12a, vsa, _) = F4::transpose(
                    F4::from_array(ljt[(trow[2 * p] + kj[0]) & LJT_MASK]),
                    F4::from_array(ljt[(trow[2 * p] + kj[1]) & LJT_MASK]),
                    F4::from_array(ljt[(trow[2 * p] + kj[2]) & LJT_MASK]),
                    F4::from_array(ljt[(trow[2 * p] + kj[3]) & LJT_MASK]),
                );
                let (c6b, c12b, vsb, _) = F4::transpose(
                    F4::from_array(ljt[(trow[2 * p + 1] + kj[0]) & LJT_MASK]),
                    F4::from_array(ljt[(trow[2 * p + 1] + kj[1]) & LJT_MASK]),
                    F4::from_array(ljt[(trow[2 * p + 1] + kj[2]) & LJT_MASK]),
                    F4::from_array(ljt[(trow[2 * p + 1] + kj[3]) & LJT_MASK]),
                );
                let c6 = F8::join(c6a, c6b);
                let c12 = F8::join(c12a, c12b);
                let vs = F8::join(vsa, vsb);
                let msk = F8::join(
                    F4::from_array(MASK_LANES[m0 as usize]),
                    F4::from_array(MASK_LANES[m1 as usize]),
                );

                let mut dx = pxi[p].sub(xj);
                let mut dy = pyi[p].sub(yj);
                let mut dz = pzi[p].sub(zj);
                dx = dx.sub(dx.gt(hx).and(blx).sub(dx.lt(nhx).and(blx)));
                dy = dy.sub(dy.gt(hy).and(bly).sub(dy.lt(nhy).and(bly)));
                dz = dz.sub(dz.gt(hz).and(blz).sub(dz.lt(nhz).and(blz)));
                let r2 = dx.mul(dx).add(dy.mul(dy)).add(dz.mul(dz));

                let sel = r2.lt(rc2v).and(zero.lt(r2)).and(msk);
                if !sel.any_nonzero() {
                    continue;
                }
                let r2e = sel.mul(r2).add(one.sub(sel));

                let inv_r2 = one.div(r2e);
                let inv_r6 = inv_r2.mul(inv_r2).mul(inv_r2);
                let v_lj = c12.mul(inv_r6).mul(inv_r6).sub(c6.mul(inv_r6)).sub(vs);
                let f_lj = twelve
                    .mul(c12)
                    .mul(inv_r6)
                    .mul(inv_r6)
                    .sub(six.mul(c6).mul(inv_r6))
                    .mul(inv_r2);
                let qq = eqi[p].mul(qj);
                let inv_r = inv_r2.sqrt();
                let v_rf = qq.mul(inv_r.add(krfv.mul(r2e)).sub(crfv));
                let f_rf = qq.mul(inv_r.mul(inv_r2).sub(two_krf));

                let fs = sel.mul(f_lj.add(f_rf));
                let ev = sel.mul(v_lj.add(v_rf));
                let wv = fs.mul(r2e);
                let fx = fs.mul(dx);
                let fy = fs.mul(dy);
                let fz = fs.mul(dz);

                fxi[p] = fxi[p].add(fx);
                fyi[p] = fyi[p].add(fy);
                fzi[p] = fzi[p].add(fz);
                // Half extraction puts the folds back in the baseline's
                // row order: row 2p first, then row 2p+1.
                fxj = (fxj - fx.lo()) - fx.hi();
                fyj = (fyj - fy.lo()) - fy.hi();
                fzj = (fzj - fz.lo()) - fz.hi();
                let (evl, evh) = (ev.lo(), ev.hi());
                let (wvl, wvh) = (wv.lo(), wv.hi());
                e_lo = e_lo + evl.to_f64_lo();
                e_hi = e_hi + evl.to_f64_hi();
                e_lo = e_lo + evh.to_f64_lo();
                e_hi = e_hi + evh.to_f64_hi();
                w_lo = w_lo + wvl.to_f64_lo();
                w_hi = w_hi + wvl.to_f64_hi();
                w_lo = w_lo + wvh.to_f64_lo();
                w_hi = w_hi + wvh.to_f64_hi();
            }

            let (fxja, fyja, fzja) = (fxj.to_array(), fyj.to_array(), fzj.to_array());
            for v in 0..CLUSTER {
                lane_forces.x[jbase + v] += fxja[v];
                lane_forces.y[jbase + v] += fyja[v];
                lane_forces.z[jbase + v] += fzja[v];
            }
        }

        for p in 0..ROW_PAIRS {
            let rows = [
                (2 * p, fxi[p].lo(), fyi[p].lo(), fzi[p].lo()),
                (2 * p + 1, fxi[p].hi(), fyi[p].hi(), fzi[p].hi()),
            ];
            for (u, fx4, fy4, fz4) in rows {
                let (fxa, fya, fza) = (fx4.to_array(), fy4.to_array(), fz4.to_array());
                lane_forces.x[ibase + u] += (fxa[0] + fxa[1]) + (fxa[2] + fxa[3]);
                lane_forces.y[ibase + u] += (fya[0] + fya[1]) + (fya[2] + fya[3]);
                lane_forces.z[ibase + u] += (fza[0] + fza[1]) + (fza[2] + fza[3]);
            }
        }
    }
    let (ea, eb) = (e_lo.to_array(), e_hi.to_array());
    let (wa, wb) = (w_lo.to_array(), w_hi.to_array());
    (
        (ea[0] + ea[1]) + (eb[0] + eb[1]),
        (wa[0] + wa[1]) + (wb[0] + wb[1]),
    )
}

#[inline(always)]
fn nb_clusters_body(
    frame: &Frame,
    coords: &SoaCoords,
    list: &ClusterPairList,
    which: NbPartition,
    params: &NonbondedParams,
    lane_forces: &mut SoaForces,
) -> (f64, f64) {
    let part = list.partition(which);
    assert_eq!(coords.len(), list.n_lanes());
    assert_eq!(lane_forces.len(), list.n_lanes());
    let k_rf = params.k_rf;
    let c_rf = params.c_rf;
    // Loop-invariant lane broadcasts for the 4-wide tile arithmetic.
    let [ix, iy, iz] = MinImage4::axes(frame);
    let rc2v = F4::splat(params.cutoff * params.cutoff);
    let zero = F4::splat(0.0);
    let one = F4::splat(1.0);
    let krfv = F4::splat(k_rf);
    let crfv = F4::splat(c_rf);
    let two_krf = F4::splat(2.0 * k_rf);
    let twelve = F4::splat(12.0);
    let six = F4::splat(6.0);
    // Interleaved LJ parameter table: one aligned `[c6, c12, vshift, _]`
    // quad per kind pair, so each tile row gathers four 16-byte quads and
    // transposes, instead of twelve scattered scalar loads. Sized to the
    // next power of two so a flat `& LJT_MASK` index is provably in bounds
    // — no bounds-check branches inside the tile loop.
    const NK: usize = AtomKind::COUNT;
    const LJT_LEN: usize = (NK * NK).next_power_of_two();
    const LJT_MASK: usize = LJT_LEN - 1;
    let mut ljt = [[0.0f32; 4]; LJT_LEN];
    for a in 0..NK {
        for b in 0..NK {
            ljt[a * NK + b] = [
                params.c6[a][b],
                params.c12[a][b],
                params.vshift_lj[a][b],
                0.0,
            ];
        }
    }

    // Energy/virial accumulate as packed f64 lane partials (widened from
    // the bitwise per-pair f32 terms) and fold once at the end, in a fixed
    // lane order — deterministic across runs and executors.
    let mut e_lo = D2::zero();
    let mut e_hi = D2::zero();
    let mut w_lo = D2::zero();
    let mut w_hi = D2::zero();
    for (row, &ci) in part.i_clusters.iter().enumerate() {
        let ibase = CLUSTER * ci as usize;
        let xi = load4(&coords.x, ibase);
        let yi = load4(&coords.y, ibase);
        let zi = load4(&coords.z, ibase);
        let qi = load4(&list.lane_charges, ibase);
        let ki = [
            list.lane_kinds[ibase] as usize,
            list.lane_kinds[ibase + 1] as usize,
            list.lane_kinds[ibase + 2] as usize,
            list.lane_kinds[ibase + 3] as usize,
        ];
        // i-lane broadcasts and `F_ELEC * q_i` products are tile-invariant:
        // splat them once per CSR row instead of once per tile row.
        let pxi = [0, 1, 2, 3].map(|u| F4::splat(xi[u]));
        let pyi = [0, 1, 2, 3].map(|u| F4::splat(yi[u]));
        let pzi = [0, 1, 2, 3].map(|u| F4::splat(zi[u]));
        let eqi = [0, 1, 2, 3].map(|u| F4::splat(F_ELEC * qi[u]));
        let trow = [0, 1, 2, 3].map(|u| NK * ki[u]);
        // Per-i-lane force partials stay as 4-wide j-lane vectors across
        // the whole row; the horizontal (v0+v1)+(v2+v3) fold happens once
        // per row instead of once per tile.
        let mut fxi = [F4::splat(0.0); CLUSTER];
        let mut fyi = [F4::splat(0.0); CLUSTER];
        let mut fzi = [F4::splat(0.0); CLUSTER];

        let lo = part.starts[row] as usize;
        let hi = part.starts[row + 1] as usize;
        for t in lo..hi {
            let jbase = CLUSTER * part.j_clusters[t] as usize;
            let mask = part.masks[t];
            let xj = F4::load(&coords.x, jbase);
            let yj = F4::load(&coords.y, jbase);
            let zj = F4::load(&coords.z, jbase);
            let qj = F4::load(&list.lane_charges, jbase);
            let kj = [
                list.lane_kinds[jbase] as usize,
                list.lane_kinds[jbase + 1] as usize,
                list.lane_kinds[jbase + 2] as usize,
                list.lane_kinds[jbase + 3] as usize,
            ];
            let mut fxj = F4::splat(0.0);
            let mut fyj = F4::splat(0.0);
            let mut fzj = F4::splat(0.0);

            for u in 0..CLUSTER {
                let mrow = (mask >> (u * CLUSTER)) & 0xF;
                if mrow == 0 {
                    continue;
                }
                // Per-pair LJ parameter quads and the row's mask lookup —
                // the only scalar work per row; everything after is 4-wide.
                let (c6, c12, vs, _) = F4::transpose(
                    F4::from_array(ljt[(trow[u] + kj[0]) & LJT_MASK]),
                    F4::from_array(ljt[(trow[u] + kj[1]) & LJT_MASK]),
                    F4::from_array(ljt[(trow[u] + kj[2]) & LJT_MASK]),
                    F4::from_array(ljt[(trow[u] + kj[3]) & LJT_MASK]),
                );
                let msk = F4::from_array(MASK_LANES[mrow as usize]);

                let dx = ix.apply(pxi[u] - xj);
                let dy = iy.apply(pyi[u] - yj);
                let dz = iz.apply(pzi[u] - zj);
                let r2 = dx * dx + dy * dy + dz * dz;

                // Live lanes: sel == 1.0 and r2e == r2 bitwise. Dead lanes
                // (masked, beyond cutoff, or self): sel == 0.0 and
                // r2e == 1.0, so no lane ever divides by zero.
                let sel = r2.lt(rc2v).and(zero.lt(r2)).and(msk);
                if !sel.any_nonzero() {
                    // Listed row, but every pair is masked or outside the
                    // cutoff this step (Verlet skin) — all lanes would
                    // contribute exact zeros.
                    continue;
                }
                let r2e = sel * r2 + (one - sel);

                let inv_r2 = one / r2e;
                let inv_r6 = inv_r2 * inv_r2 * inv_r2;
                let v_lj = c12 * inv_r6 * inv_r6 - c6 * inv_r6 - vs;
                let f_lj = (twelve * c12 * inv_r6 * inv_r6 - six * c6 * inv_r6) * inv_r2;
                let qq = eqi[u] * qj;
                let inv_r = inv_r2.sqrt();
                let v_rf = qq * (inv_r + krfv * r2e - crfv);
                let f_rf = qq * (inv_r * inv_r2 - two_krf);

                let fs = sel * (f_lj + f_rf);
                let ev = sel * (v_lj + v_rf);
                let wv = fs * r2e;
                let fx = fs * dx;
                let fy = fs * dy;
                let fz = fs * dz;

                // Fixed fold order: i-lanes and j-lanes accumulate per
                // j-lane, energy/virial as widened f64 lane partials.
                fxi[u] = fxi[u] + fx;
                fyi[u] = fyi[u] + fy;
                fzi[u] = fzi[u] + fz;
                fxj = fxj - fx;
                fyj = fyj - fy;
                fzj = fzj - fz;
                e_lo = e_lo + ev.to_f64_lo();
                e_hi = e_hi + ev.to_f64_hi();
                w_lo = w_lo + wv.to_f64_lo();
                w_hi = w_hi + wv.to_f64_hi();
            }

            let (fxja, fyja, fzja) = (fxj.to_array(), fyj.to_array(), fzj.to_array());
            for v in 0..CLUSTER {
                lane_forces.x[jbase + v] += fxja[v];
                lane_forces.y[jbase + v] += fyja[v];
                lane_forces.z[jbase + v] += fzja[v];
            }
        }

        for u in 0..CLUSTER {
            let (fxa, fya, fza) = (fxi[u].to_array(), fyi[u].to_array(), fzi[u].to_array());
            lane_forces.x[ibase + u] += (fxa[0] + fxa[1]) + (fxa[2] + fxa[3]);
            lane_forces.y[ibase + u] += (fya[0] + fya[1]) + (fya[2] + fya[3]);
            lane_forces.z[ibase + u] += (fza[0] + fza[1]) + (fza[2] + fza[3]);
        }
    }
    let (ea, eb) = (e_lo.to_array(), e_hi.to_array());
    let (wa, wb) = (w_lo.to_array(), w_hi.to_array());
    (
        (ea[0] + ea[1]) + (eb[0] + eb[1]),
        (wa[0] + wa[1]) + (wb[0] + wb[1]),
    )
}

/// Convenience wrapper over AoS buffers: pack all lanes, evaluate local
/// then halo, fold forces back. Returns `(energy, virial)`.
pub fn compute_nonbonded_clusters_aos(
    frame: &Frame,
    positions: &[Vec3],
    list: &ClusterPairList,
    params: &NonbondedParams,
    forces: &mut [Vec3],
) -> (f64, f64) {
    let mut coords = SoaCoords::default();
    list.pack_coords(positions, &mut coords, 0..list.n_clusters());
    let mut lane_forces = SoaForces::default();
    lane_forces.reset(list.n_lanes());
    let (e_l, w_l) = compute_nonbonded_clusters(
        frame,
        &coords,
        list,
        NbPartition::Local,
        params,
        &mut lane_forces,
    );
    let (e_h, w_h) = compute_nonbonded_clusters(
        frame,
        &coords,
        list,
        NbPartition::Halo,
        params,
        &mut lane_forces,
    );
    list.fold_forces(&lane_forces, forces);
    (e_l + e_h, w_l + w_h)
}

#[inline(always)]
fn load4(src: &[f32], base: usize) -> [f32; CLUSTER] {
    [src[base], src[base + 1], src[base + 2], src[base + 3]]
}

/// Lane selectors for a 4-bit tile-row mask: bit `v` set ⇒ lane `v` is 1.0.
/// One 16-byte load replaces four shift/mask/convert chains per row.
const MASK_LANES: [[f32; 4]; 16] = [
    [0.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [1.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [1.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 1.0, 0.0],
    [1.0, 1.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 1.0],
    [0.0, 1.0, 0.0, 1.0],
    [1.0, 1.0, 0.0, 1.0],
    [0.0, 0.0, 1.0, 1.0],
    [1.0, 0.0, 1.0, 1.0],
    [0.0, 1.0, 1.0, 1.0],
    [1.0, 1.0, 1.0, 1.0],
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::{compute_nonbonded, compute_nonbonded_virial};
    use crate::pairlist::{brute_force_pairs, eighth_shell_rule, PairList};
    use crate::pbc::PbcBox;
    use crate::system::GrappaBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sorted_pairs(pl: &PairList) -> Vec<(u32, u32)> {
        let mut v: Vec<_> = pl.iter_pairs().collect();
        v.sort_unstable();
        v
    }

    /// Reference tile enumeration over `list`'s clustering: every cluster
    /// pair gap-tested, every mask bit decided by scalar [`Frame::dist2`].
    /// Complete by construction; quadratic, so an oracle only.
    fn all_pairs_tiles(
        list: &ClusterPairList,
        positions: &[Vec3],
        rule: &dyn Fn(usize, usize) -> bool,
    ) -> (ClusterPairs, ClusterPairs) {
        let r2 = list.r_list * list.r_list;
        let mut local = ClusterPairsBuilder::default();
        let mut halo = ClusterPairsBuilder::default();
        for ci in 0..list.n_clusters() {
            for cj in ci..list.n_clusters() {
                if bb_gap2(&list.frame, &list.bb_center, &list.bb_half, ci, cj) >= r2 {
                    continue;
                }
                let mut mask = 0u16;
                for u in 0..CLUSTER {
                    let a = list.lane_atoms[CLUSTER * ci + u];
                    if a == PAD {
                        continue;
                    }
                    let vstart = if ci == cj { u + 1 } else { 0 };
                    for v in vstart..CLUSTER {
                        let b = list.lane_atoms[CLUSTER * cj + v];
                        if b == PAD {
                            continue;
                        }
                        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                        if list
                            .frame
                            .dist2(positions[a as usize], positions[b as usize])
                            >= r2
                        {
                            continue;
                        }
                        if !rule(lo as usize, hi as usize) {
                            continue;
                        }
                        mask |= 1 << (u * CLUSTER + v);
                    }
                }
                if mask != 0 {
                    if cj < list.n_home_clusters {
                        local.push(ci as u32, cj as u32, mask);
                    } else {
                        halo.push(ci as u32, cj as u32, mask);
                    }
                }
            }
        }
        (local.finish(), halo.finish())
    }

    /// Field-by-field equality of the built tiles with the oracle's.
    fn assert_tiles_equal_reference(
        list: &ClusterPairList,
        positions: &[Vec3],
        rule: &dyn Fn(usize, usize) -> bool,
    ) {
        let (local, halo) = all_pairs_tiles(list, positions, rule);
        for (got, want) in [(&list.local, &local), (&list.halo, &halo)] {
            assert_eq!(got.i_clusters, want.i_clusters);
            assert_eq!(got.starts, want.starts);
            assert_eq!(got.j_clusters, want.j_clusters);
            assert_eq!(got.masks, want.masks);
        }
    }

    /// A random local frame on DD grid `dd`: periodic dims hold coordinates
    /// up to 0.3 nm outside the box, decomposed dims a home half plus a
    /// halo shell. `tight` makes the periodic edges barely over `2 r_list`,
    /// so every grid range query wraps the whole dimension.
    fn drifted_frame(
        seed: u64,
        n: usize,
        dd: [usize; 3],
        tight: bool,
        r_list: f32,
    ) -> (Frame, Vec<Vec3>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let edge = (n as f32 / 100.0).cbrt().max(2.1 * r_list);
        let mut lengths = Vec3::ZERO;
        for k in 0..3 {
            lengths[k] = if tight {
                r_list * rng.gen_range(2.05f32..2.4)
            } else {
                edge * rng.gen_range(1.0f32..1.5)
            };
        }
        let frame = Frame::for_decomposition(&PbcBox::new(lengths), dd);
        let positions = (0..n)
            .map(|_| {
                let mut p = Vec3::ZERO;
                for k in 0..3 {
                    p[k] = if frame.periodic[k] {
                        rng.gen_range(-0.3..lengths[k] + 0.3)
                    } else {
                        rng.gen_range(0.0..0.5 * lengths[k] + r_list)
                    };
                }
                p
            })
            .collect();
        (frame, positions)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        #[test]
        fn grid_search_equals_all_pairs_reference(
            seed in 0u64..u64::MAX,
            atoms in 1usize..601,
            dd in 0usize..4,
            home in 0usize..4,
            tight in 0usize..2,
            r_list in 0.4f32..1.0,
        ) {
            let dd = [[1, 1, 1], [2, 1, 1], [2, 2, 1], [2, 2, 2]][dd];
            let (frame, positions) = drifted_frame(seed, atoms, dd, tight == 1, r_list);
            let n_home = [0, atoms, atoms / 2, atoms - atoms / 4][home];
            // Halo copies travelled one domain up in some decomposed dims.
            let disp: Vec<[u8; 3]> = (0..atoms)
                .map(|a| {
                    [0, 1, 2]
                        .map(|k| (a >= n_home && !frame.periodic[k] && (a >> k) & 1 == 1) as u8)
                })
                .collect();
            let rule = |a: usize, b: usize| {
                eighth_shell_rule(&disp, a, b) && (31 * a + 17 * b) % 11 < 9
            };
            let kinds = vec![AtomKind::Ow; atoms];
            let list = ClusterPairList::build(&frame, &positions, &kinds, n_home, r_list, &rule);
            assert_tiles_equal_reference(&list, &positions, &rule);
        }
    }

    #[test]
    fn box_spanning_cluster_is_side_listed_and_complete() {
        // Cluster 0: four atoms strung along the whole z edge. Cluster 1:
        // four atoms bunched one x-cell further on, in reach of two of them.
        let pbc = PbcBox::cubic(5.0);
        let frame = Frame::fully_periodic(&pbc);
        let positions = vec![
            Vec3::new(1.0, 1.0, 0.1),
            Vec3::new(1.0, 1.0, 1.5),
            Vec3::new(1.0, 1.0, 3.0),
            Vec3::new(1.0, 1.0, 4.4),
            Vec3::new(1.6, 1.0, 4.7),
            Vec3::new(1.6, 1.05, 4.8),
            Vec3::new(1.6, 1.0, 4.9),
            Vec3::new(1.6, 1.05, 4.95),
        ];
        let kinds = vec![AtomKind::Ow; positions.len()];
        let all = |_: usize, _: usize| true;
        let r_list = 1.0;
        let list = ClusterPairList::build(&frame, &positions, &kinds, 8, r_list, &all);
        assert_eq!(list.lane_atoms, [0, 1, 2, 3, 4, 5, 6, 7]);
        let grid = ClusterGrid::new(&frame, &list.bb_center, &list.bb_half, r_list);
        assert_eq!(grid.wide, [0], "cluster 0 spans the box");
        assert_eq!(grid.order, [1]);
        assert_tiles_equal_reference(&list, &positions, &all);
        assert_eq!(
            list.all_pairs(),
            brute_force_pairs(&frame, &positions, r_list, &all)
        );
        // Reached both directly (3-4..7) and through the wrap (0-4..7).
        assert!(list.all_pairs().contains(&(0, 7)));
        assert!(list.all_pairs().contains(&(3, 4)));
    }

    #[test]
    fn drifted_cluster_bins_like_its_in_box_image() {
        // Home cluster just inside the top x face; halo cluster drifted out
        // through the bottom one. They pair through the wrap, and the query
        // from the home cluster only finds the other in the top cell.
        let pbc = PbcBox::cubic(5.0);
        let frame = Frame::fully_periodic(&pbc);
        let xs = [4.3, 4.32, 4.34, 4.36, -0.25, -0.24, -0.23, -0.22];
        let positions: Vec<Vec3> = xs.iter().map(|&x| Vec3::new(x, 1.0, 1.0)).collect();
        let kinds = vec![AtomKind::Ow; positions.len()];
        let all = |_: usize, _: usize| true;
        let list = ClusterPairList::build(&frame, &positions, &kinds, 4, 0.6, &all);
        assert_tiles_equal_reference(&list, &positions, &all);
        assert_eq!(list.local.n_pairs(), 6);
        assert_eq!(list.halo.j_clusters, [1, 1]);
        assert_eq!(list.halo.n_pairs(), 16 + 6);
    }

    #[test]
    fn atoms_flung_far_out_of_a_periodic_box_do_not_overflow_the_query() {
        // A blown-up system: one cluster reaching from -1e30 to 1e30. Its
        // range query saturates instead of overflowing, and the pairs that
        // are still in range are found.
        let frame = Frame::fully_periodic(&PbcBox::cubic(5.0));
        let xs = [-1e30, 1.0, 1.2, 1e30, 1.4, 1.5, 1.6, 1.7];
        let positions: Vec<Vec3> = xs.iter().map(|&x| Vec3::new(x, 1.0, 1.0)).collect();
        let kinds = vec![AtomKind::Ow; positions.len()];
        let all = |_: usize, _: usize| true;
        let list = ClusterPairList::build(&frame, &positions, &kinds, 4, 0.8, &all);
        assert_tiles_equal_reference(&list, &positions, &all);
        assert!(list.all_pairs().contains(&(1, 7)));
    }

    #[test]
    fn empty_home_or_halo_range_builds_one_partition() {
        let sys = GrappaBuilder::new(600).seed(43).build();
        let frame = Frame::for_decomposition(&sys.pbc, [2, 1, 1]);
        let all = |_: usize, _: usize| true;
        for n_home in [sys.n_atoms(), 0] {
            let list =
                ClusterPairList::build(&frame, &sys.positions, &sys.kinds, n_home, 0.7, &all);
            assert_tiles_equal_reference(&list, &sys.positions, &all);
            let (full, empty) = if n_home == 0 {
                (&list.halo, &list.local)
            } else {
                (&list.local, &list.halo)
            };
            assert!(full.n_tiles() > 0);
            assert_eq!(empty.n_tiles(), 0);
            assert_eq!(empty.starts, [0]);
            assert_eq!(list.halo_clusters().is_empty(), n_home != 0);
        }
    }

    #[test]
    fn every_atom_in_exactly_one_cluster() {
        let sys = GrappaBuilder::new(1500).seed(31).build();
        let frame = Frame::fully_periodic(&sys.pbc);
        let all = |_: usize, _: usize| true;
        let list = ClusterPairList::build(
            &frame,
            &sys.positions,
            &sys.kinds,
            sys.n_atoms(),
            0.75,
            &all,
        );
        let mut seen = vec![false; sys.n_atoms()];
        for &a in list.lane_atoms.iter().filter(|&&a| a != PAD) {
            assert!(!seen[a as usize]);
            seen[a as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(list.n_clusters(), sys.n_atoms().div_ceil(CLUSTER));
        assert_eq!(list.n_home_clusters, list.n_clusters());
        assert_eq!(list.halo.n_tiles(), 0, "no halo atoms, no halo tiles");
    }

    #[test]
    fn clusters_are_spatially_tight() {
        let sys = GrappaBuilder::new(3000).seed(32).build();
        let frame = Frame::fully_periodic(&sys.pbc);
        let all = |_: usize, _: usize| true;
        let list = ClusterPairList::build(
            &frame,
            &sys.positions,
            &sys.kinds,
            sys.n_atoms(),
            0.75,
            &all,
        );
        let mean_r: f32 =
            list.bb_half.iter().map(|h| h.norm()).sum::<f32>() / list.bb_half.len() as f32;
        assert!(mean_r < 0.5, "mean cluster half-diagonal {mean_r}");
    }

    #[test]
    fn masked_pairs_equal_scalar_pair_list() {
        let sys = GrappaBuilder::new(1200).seed(35).build();
        let frame = Frame::fully_periodic(&sys.pbc);
        let rule = |a: usize, b: usize| !sys.is_excluded(a, b);
        let pl = PairList::build_in_frame(&frame, &sys.positions, 0.75, &rule);
        let list = ClusterPairList::build(
            &frame,
            &sys.positions,
            &sys.kinds,
            sys.n_atoms(),
            0.75,
            &rule,
        );
        assert_eq!(list.all_pairs(), sorted_pairs(&pl));
        assert_eq!(list.n_pairs(), pl.n_pairs());
    }

    #[test]
    fn partitions_split_by_halo_and_cover_exactly() {
        // Synthetic DD-like frame: x decomposed, last 300 atoms are "halo"
        // copies shifted +L in x with an eighth-shell displacement table.
        let sys = GrappaBuilder::new(1200).seed(36).build();
        let frame = Frame::for_decomposition(&sys.pbc, [2, 1, 1]);
        let n_home = 900;
        let pos = sys.positions.clone();
        let mut disp = vec![[0u8; 3]; pos.len()];
        for d in disp.iter_mut().skip(n_home) {
            *d = [1, 0, 0];
        }
        let excl = &sys;
        let rule =
            move |a: usize, b: usize| eighth_shell_rule(&disp, a, b) && !excl.is_excluded(a, b);
        let pl = PairList::build_in_frame(&frame, &pos, 0.7, &rule);
        let list = ClusterPairList::build(&frame, &pos, &sys.kinds, n_home, 0.7, &rule);

        // Exact coverage: local ∪ halo == unsplit pair set, disjoint.
        let local = list.partition_pairs(NbPartition::Local);
        let halo = list.partition_pairs(NbPartition::Halo);
        let mut union = local.clone();
        union.extend(halo.iter().copied());
        union.sort_unstable();
        assert_eq!(union.len(), local.len() + halo.len(), "partitions overlap");
        assert_eq!(union, sorted_pairs(&pl));

        // Local touches only home atoms; every halo pair touches a halo atom.
        for &(a, b) in &local {
            assert!((a as usize) < n_home && (b as usize) < n_home);
        }
        for &(a, b) in &halo {
            assert!((a as usize) >= n_home || (b as usize) >= n_home);
        }
        assert!(!halo.is_empty(), "test should exercise halo tiles");
    }

    #[test]
    fn cluster_kernel_matches_scalar_kernel() {
        let sys = GrappaBuilder::new(1500).seed(33).build();
        let frame = Frame::fully_periodic(&sys.pbc);
        let params = NonbondedParams::new(0.7);
        let rule = |a: usize, b: usize| !sys.is_excluded(a, b);

        let pl = PairList::build(&sys.pbc, &sys.positions, 0.75, &rule);
        let mut f_plain = vec![Vec3::ZERO; sys.n_atoms()];
        let (e_plain, w_plain) = compute_nonbonded_virial(
            &frame,
            &sys.positions,
            &sys.kinds,
            &pl,
            &params,
            &mut f_plain,
        );

        let list = ClusterPairList::build(
            &frame,
            &sys.positions,
            &sys.kinds,
            sys.n_atoms(),
            0.75,
            &rule,
        );
        let mut f_cluster = vec![Vec3::ZERO; sys.n_atoms()];
        let (e_cluster, w_cluster) =
            compute_nonbonded_clusters_aos(&frame, &sys.positions, &list, &params, &mut f_cluster);

        let rel = (e_plain - e_cluster).abs() / e_plain.abs().max(1.0);
        assert!(rel < 1e-9, "energy {e_plain} vs {e_cluster}");
        let relw = (w_plain - w_cluster).abs() / w_plain.abs().max(1.0);
        assert!(relw < 1e-9, "virial {w_plain} vs {w_cluster}");
        for (i, (a, b)) in f_plain.iter().zip(&f_cluster).enumerate() {
            assert!(
                (*a - *b).norm() <= 1e-3 * a.norm().max(1.0),
                "force mismatch at {i}: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn cluster_energy_matches_plain_energy_kernel() {
        // Same check against the energy-only scalar kernel (the other oracle).
        let sys = GrappaBuilder::new(900).seed(37).build();
        let frame = Frame::fully_periodic(&sys.pbc);
        let params = NonbondedParams::new(0.6);
        let rule = |a: usize, b: usize| !sys.is_excluded(a, b);
        let pl = PairList::build(&sys.pbc, &sys.positions, 0.65, &rule);
        let mut f1 = vec![Vec3::ZERO; sys.n_atoms()];
        let e1 = compute_nonbonded(&frame, &sys.positions, &sys.kinds, &pl, &params, &mut f1);
        let list = ClusterPairList::build(
            &frame,
            &sys.positions,
            &sys.kinds,
            sys.n_atoms(),
            0.65,
            &rule,
        );
        let mut f2 = vec![Vec3::ZERO; sys.n_atoms()];
        let (e2, _) =
            compute_nonbonded_clusters_aos(&frame, &sys.positions, &list, &params, &mut f2);
        assert!((e1 - e2).abs() < 1e-9 * e1.abs().max(1.0), "{e1} vs {e2}");
    }

    #[test]
    fn dispatched_kernel_matches_baseline_body_bitwise() {
        // The runtime-dispatched entry (the AVX2 8-wide instantiation on
        // hosts that have it) must be bitwise identical to the baseline
        // 4-wide body — forces, energy, and virial. On hosts without AVX2
        // the dispatcher *is* the baseline and this passes trivially.
        let sys = GrappaBuilder::new(1200).seed(41).build();
        let frame = Frame::fully_periodic(&sys.pbc);
        let params = NonbondedParams::new(0.7);
        let rule = |a: usize, b: usize| !sys.is_excluded(a, b);
        let list = ClusterPairList::build(
            &frame,
            &sys.positions,
            &sys.kinds,
            sys.n_atoms(),
            0.75,
            &rule,
        );
        let mut coords = SoaCoords::default();
        list.pack_coords(&sys.positions, &mut coords, 0..list.n_clusters());

        for which in [NbPartition::Local, NbPartition::Halo] {
            let mut lf_base = SoaForces::default();
            lf_base.reset(list.n_lanes());
            let (e_base, w_base) =
                nb_clusters_body(&frame, &coords, &list, which, &params, &mut lf_base);
            let mut lf_disp = SoaForces::default();
            lf_disp.reset(list.n_lanes());
            let (e_disp, w_disp) =
                compute_nonbonded_clusters(&frame, &coords, &list, which, &params, &mut lf_disp);
            assert_eq!(e_base.to_bits(), e_disp.to_bits(), "energy ({which:?})");
            assert_eq!(w_base.to_bits(), w_disp.to_bits(), "virial ({which:?})");
            for lane in 0..list.n_lanes() {
                let a = lf_base.get(lane);
                let b = lf_disp.get(lane);
                assert_eq!(
                    [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()],
                    [b.x.to_bits(), b.y.to_bits(), b.z.to_bits()],
                    "lane {lane} ({which:?})"
                );
            }
        }
    }

    #[test]
    fn kernel_is_deterministic() {
        let sys = GrappaBuilder::new(800).seed(38).build();
        let frame = Frame::fully_periodic(&sys.pbc);
        let params = NonbondedParams::new(0.7);
        let all = |_: usize, _: usize| true;
        let list = ClusterPairList::build(
            &frame,
            &sys.positions,
            &sys.kinds,
            sys.n_atoms(),
            0.75,
            &all,
        );
        let mut f1 = vec![Vec3::ZERO; sys.n_atoms()];
        let r1 = compute_nonbonded_clusters_aos(&frame, &sys.positions, &list, &params, &mut f1);
        let mut f2 = vec![Vec3::ZERO; sys.n_atoms()];
        let r2 = compute_nonbonded_clusters_aos(&frame, &sys.positions, &list, &params, &mut f2);
        assert_eq!(r1, r2);
        assert_eq!(f1, f2);
    }

    #[test]
    fn rebuild_decisions_mirror_pair_list() {
        let sys = GrappaBuilder::new(900).seed(39).build();
        let frame = Frame::fully_periodic(&sys.pbc);
        let all = |_: usize, _: usize| true;
        let pl = PairList::build_in_frame(&frame, &sys.positions, 0.8, &all);
        let cl =
            ClusterPairList::build(&frame, &sys.positions, &sys.kinds, sys.n_atoms(), 0.8, &all);
        // Fresh skip, then the same displacement verdicts.
        assert!(!cl.needs_rebuild(&sys.positions, 0.2));
        let mut moved = sys.positions.clone();
        moved[7].y += 0.15;
        assert_eq!(
            pl.needs_rebuild_full(&moved, 0.2),
            cl.needs_rebuild_full(&moved, 0.2)
        );
        assert!(cl.needs_rebuild(&moved, 0.2));
    }

    #[test]
    fn length_mismatch_is_stale() {
        let sys = GrappaBuilder::new(300).seed(40).build();
        let frame = Frame::fully_periodic(&sys.pbc);
        let all = |_: usize, _: usize| true;
        let cl =
            ClusterPairList::build(&frame, &sys.positions, &sys.kinds, sys.n_atoms(), 0.7, &all);
        assert!(!cl.needs_rebuild_full(&sys.positions, 0.2));
        let mut longer = sys.positions.clone();
        longer.push(longer[0]);
        assert!(cl.needs_rebuild_full(&longer, 0.2));
        assert!(cl.needs_rebuild_full(&sys.positions[1..], 0.2));
    }

    #[test]
    fn out_of_box_halo_coordinates_are_handled() {
        let pbc = PbcBox::cubic(5.0);
        let frame = Frame::for_decomposition(&pbc, [2, 1, 1]);
        let positions = vec![
            Vec3::new(4.8, 2.0, 2.0), // home
            Vec3::new(5.3, 2.0, 2.0), // halo, shifted image of an atom at 0.3
        ];
        let kinds = vec![AtomKind::Ow; 2];
        let all = |_: usize, _: usize| true;
        let list = ClusterPairList::build(&frame, &positions, &kinds, 1, 1.0, &all);
        assert_eq!(list.all_pairs(), vec![(0, 1)]);
        assert_eq!(list.partition_pairs(NbPartition::Local).len(), 0);
    }
}
