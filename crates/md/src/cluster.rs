//! Cluster-pair non-bonded kernels (the NBNXM scheme of Páll & Hess 2013,
//! the paper's reference [40]).
//!
//! GROMACS' GPU/SIMD kernels do not iterate atom pairs: atoms are sorted
//! into spatial *clusters* of M=4, the pair list pairs clusters, and the
//! kernel evaluates all M×M distances — trading a few wasted interactions
//! for regular, vectorizable data access. We reproduce the scheme on the
//! CPU:
//!
//! * clusters are built from the cell-sorted order of a `CellGrid` — the
//!   same grid type the scalar list searches with — **home atoms and halo
//!   copies clustered separately** so a cluster is never mixed-ownership;
//! * cluster pairs are found in time linear in the cluster count, through
//!   those same two grids: their cell-sorted order is the cluster order, so
//!   the cells an i-cluster's bounding box can reach are runs of consecutive
//!   cluster indices, which are swept against the box with per-dimension
//!   axis-aligned bounding-box gaps under the [`Frame`] metric, a SIMD pack
//!   of candidates at a time (`TileSearch`). Box-spanning clusters (chunks
//!   of the sorted order that straddle a column end) are found through
//!   their atoms' cells like any other;
//! * each surviving 4×4 tile carries a `u16` interaction bitmask baked at
//!   build time (ownership rule + exclusions + `i < j` dedup + `r_list`
//!   distance pruning), so the masked pair set is **exactly** the set a
//!   [`PairList`](crate::pairlist::PairList) built with the same inputs
//!   would enumerate. The sixteen distance decisions of a tile are row
//!   packs using the kernel's own minimum-image expression (`min_image!`,
//!   written once for bake and kernel), which matches
//!   [`Frame::displacement`] bit for bit; the [`PairFilter`] is asked only
//!   about pairs in range, a tile row at a time. The bake also records a
//!   per-tile *image bit* (no live lane needed a correction), and the build
//!   bakes per-cluster LJ rows next to the lane charges;
//! * the tile list is split into a *local* partition (both clusters home)
//!   and a *halo* partition (either cluster holds halo copies), letting
//!   the engine evaluate local tiles while the coordinate halo exchange is
//!   still in flight;
//! * the kernel's tile arithmetic is written once (`tile_kernel!`) over a
//!   *row pack* — a SIMD value carrying the four j-lane terms of one
//!   ([`F4`]) or two (`F8`, AVX2) tile rows — and instantiated per pack,
//!   with AVX2 picked at run time, each pack once with and once without
//!   the energy/virial folds. The list's rebuild state is the
//!   [`Staleness`] it shares with the scalar list.
//!
//! Determinism contract: the kernel folds energy/virial as per-i-cluster
//! `f64` partials accumulated in cluster-index (CSR row) order, and force
//! lanes are combined in a fixed order — row by row, whatever the pack
//! width — so any executor that walks the rows in order, serial or one
//! thread per PE, on any host, produces bitwise identical results.

use crate::forces::nonbonded::{lj_coefficients, NonbondedParams, F_ELEC};
use crate::frame::Frame;
use crate::pairlist::{CellGrid, PairFilter, Staleness, TileFilter};
#[cfg(target_arch = "x86_64")]
use crate::simd4::F8;
use crate::simd4::{D2, F4};
use crate::soa::{SoaCoords, SoaForces};
use crate::topology::AtomKind;
use crate::vec3::Vec3;
// `F4`'s arithmetic in the method-call form the shared kernel body uses.
use core::ops::{Add, Div, Mul, Sub};

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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterPairs {
    pub i_clusters: Vec<u32>,
    /// Row offsets into `j_clusters` / `masks` / `unshifted`;
    /// `len = i_clusters.len() + 1`.
    pub starts: Vec<u32>,
    pub j_clusters: Vec<u32>,
    pub masks: Vec<u16>,
    /// Per tile, the image bit: no lane with a set mask bit needed a
    /// minimum-image correction on any axis at build time, so the kernel
    /// takes `xi - xj` as it is; cleared once a coordinate is wrapped under
    /// the list (see [`compute_nonbonded_clusters`]).
    pub unshifted: Vec<bool>,
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

    /// No rows.
    fn empty() -> ClusterPairs {
        ClusterPairs {
            starts: vec![0],
            ..ClusterPairs::default()
        }
    }

    /// Append the row of i-cluster `ci` (above every row so far), unless it
    /// has no tiles.
    fn append_row(&mut self, ci: usize, cj: &[u32], masks: &[u16], unshifted: &[bool]) {
        if cj.is_empty() {
            return;
        }
        self.i_clusters.push(ci as u32);
        self.j_clusters.extend_from_slice(cj);
        self.masks.extend_from_slice(masks);
        self.unshifted.extend_from_slice(unshifted);
        self.starts.push(self.j_clusters.len() as u32);
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
    /// LJ rows per (cluster `c`, i-kind `k`) at `AtomKind::COUNT * c + k`:
    /// `[c6, c12]` of kind `k` against each of `c`'s four lanes, from
    /// [`lj_coefficients`] (padded lanes take lane kind 0; their mask bits
    /// are clear). One row load per tile row replaces a gather and a
    /// transpose in the kernel.
    pub lj_rows: Vec<[[f32; CLUSTER]; 2]>,
    /// Axis-aligned bounding-box centre / half-extent per cluster (raw
    /// coordinates; conservative across a periodic wrap).
    pub bb_center: Vec<Vec3>,
    pub bb_half: Vec<Vec3>,
    /// Home–home tiles.
    pub local: ClusterPairs,
    /// Tiles touching at least one halo cluster.
    pub halo: ClusterPairs,
    /// What the list was built under (the masks are pruned with its
    /// `r_list`), and whether it still holds.
    pub staleness: Staleness,
}

impl ClusterPairList {
    /// Build clusters and the masked tile list over a local coordinate
    /// array: home atoms `[0, n_home)` followed by pre-shifted halo copies.
    ///
    /// `filter` is the same ownership/exclusion relation
    /// [`PairList::build_in_frame`](crate::pairlist::PairList) takes; the
    /// masked pair set equals that list's pair set exactly.
    pub fn build<F: PairFilter + ?Sized>(
        frame: &Frame,
        positions: &[Vec3],
        kinds: &[AtomKind],
        n_home: usize,
        r_list: f32,
        filter: &F,
    ) -> ClusterPairList {
        assert!(n_home <= positions.len());
        assert_eq!(positions.len(), kinds.len());

        // --- Cluster construction: spatially sort home and halo ranges
        // separately, then chunk the sorted order into clusters of 4. The
        // two grids stay: they are what the tile search walks.
        let grids = clustering_grids(frame, positions, n_home, r_list);
        let mut lane_atoms: Vec<u32> = Vec::new();
        let mut first_cluster = [0usize; 3];
        for (g, grid) in grids.iter().enumerate() {
            for chunk in grid.order.chunks(CLUSTER) {
                let mut lanes = [PAD; CLUSTER];
                lanes[..chunk.len()].copy_from_slice(chunk);
                lane_atoms.extend_from_slice(&lanes);
            }
            first_cluster[g + 1] = lane_atoms.len() / CLUSTER;
        }
        let n_home_clusters = first_cluster[1];

        // --- Per-lane parameters (kinds are fixed between repartitions,
        // so charges and LJ rows can be baked once here instead of gathered
        // per step).
        let mut lane_kinds = vec![0u8; lane_atoms.len()];
        let mut lane_charges = vec![0.0f32; lane_atoms.len()];
        for (l, &a) in lane_atoms.iter().enumerate() {
            if a != PAD {
                let k = kinds[a as usize];
                lane_kinds[l] = k.index() as u8;
                lane_charges[l] = k.charge();
            }
        }
        let (c6, c12) = lj_coefficients();
        let lj_rows = lane_kinds
            .as_chunks::<CLUSTER>()
            .0
            .iter()
            .flat_map(|kj| {
                (0..AtomKind::COUNT)
                    .map(move |ki| [c6[ki], c12[ki]].map(|t| kj.map(|k| t[k as usize])))
            })
            .collect();

        // --- Bounding boxes, then the tiles: search, bake, filter — one
        // pass over the i-clusters.
        let search = TileSearch::new(
            frame,
            positions,
            &lane_atoms,
            [&grids[0], &grids[1]],
            first_cluster,
            r_list,
        );
        let [local, halo] = search.tiles(&mut filter.tiles(&lane_atoms));
        let TileSearch {
            bb_center, bb_half, ..
        } = search;

        ClusterPairList {
            lane_atoms,
            n_home_clusters,
            n_home,
            lane_kinds,
            lane_charges,
            lj_rows,
            bb_center,
            bb_half,
            local,
            halo,
            staleness: Staleness::new(frame, positions, r_list),
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

    /// Clear every tile's image bit, so the kernel takes the minimum image
    /// on every tile: what a list needs once a coordinate was wrapped under
    /// it (see [`compute_nonbonded_clusters`]).
    pub(crate) fn clear_image_bits(&mut self) {
        self.local.unshifted.fill(false);
        self.halo.unshifted.fill(false);
    }

    /// See [`Staleness::needs_rebuild`].
    pub fn needs_rebuild(&self, positions: &[Vec3], buffer: f32) -> bool {
        self.staleness.needs_rebuild(positions, buffer)
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

/// Squared per-dimension gap between the bounding boxes of clusters `ci`
/// and `cj` under the frame metric: a lower bound on any member distance
/// (triangle inequality; valid on the circle for periodic dims). The scalar
/// statement of what the tile pass's box sweep computes per lane.
#[cfg(test)]
fn bb_gap2(frame: &Frame, bb_center: &[Vec3], bb_half: &[Vec3], ci: usize, cj: usize) -> f32 {
    let d = frame.displacement(bb_center[ci], bb_center[cj]);
    let mut gap2 = 0.0f32;
    for k in 0..3 {
        let g = (d[k].abs() - (bb_half[ci][k] + bb_half[cj][k])).max(0.0);
        gap2 += g * g;
    }
    gap2
}

/// Per axis `[L/2, -L/2, L]` for the branchless minimum image: in periodic
/// dims the displacement is compared against `±L/2` and shifted by `∓L`;
/// non-periodic dims get an infinite threshold (never shifts).
fn image_lengths(frame: &Frame) -> [[f32; 3]; 3] {
    [0, 1, 2].map(|k| {
        let half = if frame.periodic[k] {
            0.5 * frame.box_lengths[k]
        } else {
            f32::INFINITY
        };
        [half, -half, frame.box_lengths[k]]
    })
}

/// Branchless minimum image of displacement `$d` along one axis, `$axis`
/// being that axis' [`image_lengths`] splatted to `$d`'s pack type.
/// Bitwise-matches [`Frame::displacement`]. A macro because the two pack
/// types share method names, not a trait (see `crate::simd4`).
macro_rules! min_image {
    ($d:expr, $axis:expr) => {{
        let (d, [half, neg_half, len]) = ($d, $axis);
        d.sub(d.gt(half).and(len).sub(d.lt(neg_half).and(len)))
    }};
}

/// The clustering grids of the home range `[0, n_home)` and the halo range
/// of `positions`: their cell-sorted orders are the cluster orders.
fn clustering_grids(
    frame: &Frame,
    positions: &[Vec3],
    n_home: usize,
    r_list: f32,
) -> [CellGrid; 2] {
    [(0, n_home), (n_home, positions.len())].map(|(lo, hi)| {
        let cell = clustering_cell(&positions[lo..hi], r_list);
        CellGrid::new(frame, positions, lo as u32..hi as u32, cell, r_list)
    })
}

/// Everything the tile pass of [`ClusterPairList::build`] reads, laid out
/// for it. The pass has no data-dependent branch per candidate or per tile
/// and calls nothing out of line there; per i-cluster `ci` it runs four
/// steps.
///
/// **Search.** A tile with a set mask bit holds two atoms within `r_list`,
/// so every j-cluster of `ci` owns an atom binned in a cell the clustering
/// grids reach from `ci`'s bounding box widened by `r_list`. The grids'
/// cell-sorted order *is* the cluster order — position `p` sits in cluster
/// `p / CLUSTER` of its grid — so each run of cells the range query yields
/// is a run of consecutive cluster indices, the chunks straddling its ends
/// included. Those runs, cut to `cj >= ci` and merged, are swept against
/// `ci`'s box by cluster index over SoA box arrays, a pack of candidates per
/// operation, with `bb_gap2`'s own arithmetic, and each pack's hits are
/// left-packed into the candidate list (`compact`, a table lookup and one
/// store; the list advances by the hit count). Any superset of the tiles
/// with a non-empty mask would do; the gap test only spares bakes. A grid
/// whose clusters all share a zone bit with every atom of `ci`
/// ([`TileFilter::shared_zone`]) holds no tile the filter would keep, and
/// is not searched.
///
/// **Image-free candidates.** The same sweep splits the hits in two. A
/// candidate whose box corners put every lane pair under half the box on
/// every periodic axis (`hi_i − lo_j < L/2` and `hi_j − lo_i < L/2`) needs
/// no minimum image on any lane: rounding is monotone, so
/// `|fl(x_u − x_v)| ≤ max(fl(hi_i − lo_j), fl(hi_j − lo_i))`, neither
/// `min_image!` comparison fires, and its subtraction of `+0` returns `d`
/// bit for bit. NaN and infinite corners fail the test.
///
/// **Bake.** A candidate's sixteen `d² < r_list²` decisions are one row
/// pack per `ROWS` rows over lane-space SoA coordinates — raw differences
/// for image-free candidates, the kernel's own minimum-image expression
/// ([`min_image!`]) for the rest, with the image bit
/// ([`ClusterPairs::unshifted`]) set where no lane with a set bit needed a
/// correction. Empty tiles are compacted away without a branch, and the
/// two ascending survivor lists are merged into one row.
///
/// **Filter and append.** One [`TileFilter::row`] call per row rejects the
/// pairs the ownership rule and the exclusions forbid; emptied tiles are
/// compacted away again, and since survivors ascend in `cj` and home
/// clusters come first, the row's local tiles are a prefix: each partition
/// takes its part with one slice copy.
struct TileSearch<'a> {
    /// Clustering grids of the home and the halo range, and the first
    /// cluster of each (`[0, n_home_clusters, n_clusters]`).
    grids: [&'a CellGrid; 2],
    first_cluster: [usize; 3],
    /// Axis-aligned box of each cluster's real lanes (raw coordinates;
    /// conservative across a periodic wrap): the list's centres and
    /// half-extents.
    bb_center: Vec<Vec3>,
    bb_half: Vec<Vec3>,
    /// The boxes again as SoA centres, half-extents and corners,
    /// `SWEEP_PAD` entries past the end so a pack load at the last cluster
    /// stays in bounds (the sweep masks them off).
    box_center: SoaCoords,
    box_half: SoaCoords,
    box_lo: SoaCoords,
    box_hi: SoaCoords,
    /// Lane coordinates; padded lanes hold NaN, so no comparison on them is
    /// ever true and their bits stay clear without a validity mask.
    lanes: SoaCoords,
    image: [[f32; 3]; 3],
    r_list: f32,
}

/// Bits `u * CLUSTER + v` with `u < v`, one nibble per row `u` (row 0
/// lowest): a self-tile lists each pair once.
const UPPER_TRIANGLE: u32 = 0b0000_1000_1100_1110;

/// Widest pack the box sweep loads and left-packs (see
/// [`TileSearch::box_center`]).
const SWEEP_PAD: usize = 8;

impl<'a> TileSearch<'a> {
    fn new(
        frame: &Frame,
        positions: &[Vec3],
        lane_atoms: &[u32],
        grids: [&'a CellGrid; 2],
        first_cluster: [usize; 3],
        r_list: f32,
    ) -> Self {
        let n_clusters = lane_atoms.len() / CLUSTER;
        let mut lo = Vec::with_capacity(n_clusters);
        let mut hi = Vec::with_capacity(n_clusters);
        for cluster in lane_atoms.chunks(CLUSTER) {
            let mut l = Vec3::new(f32::INFINITY, f32::INFINITY, f32::INFINITY);
            let mut h = Vec3::new(f32::NEG_INFINITY, f32::NEG_INFINITY, f32::NEG_INFINITY);
            for &a in cluster.iter().filter(|&&a| a != PAD) {
                let p = positions[a as usize];
                for k in 0..3 {
                    l[k] = l[k].min(p[k]);
                    h[k] = h[k].max(p[k]);
                }
            }
            lo.push(l);
            hi.push(h);
        }
        let bb_center: Vec<Vec3> = lo.iter().zip(&hi).map(|(&l, &h)| (l + h) * 0.5).collect();
        let bb_half: Vec<Vec3> = lo.iter().zip(&hi).map(|(&l, &h)| (h - l) * 0.5).collect();
        let padded = |boxes: &[Vec3]| {
            let mut soa = SoaCoords::from_aos(boxes);
            soa.resize(boxes.len() + SWEEP_PAD);
            soa
        };
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
        TileSearch {
            grids,
            first_cluster,
            box_center: padded(&bb_center),
            box_half: padded(&bb_half),
            box_lo: padded(&lo),
            box_hi: padded(&hi),
            bb_center,
            bb_half,
            lanes,
            image: image_lengths(frame),
            r_list,
        }
    }

    /// Both partitions' tiles, `[local, halo]`.
    fn tiles(&self, filter: &mut impl TileFilter) -> [ClusterPairs; 2] {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: feature presence checked on this exact host above.
            return unsafe { self.tiles_rows2(filter) };
        }
        self.tiles_rows1(filter)
    }
}

/// The tile pass, instantiated as `fn $name` over row pack `$P`: per
/// i-cluster the box sweep (`P::LANES` candidates per operation) and the
/// mask bake (`P::ROWS` tile rows per operation), then the filter. Every
/// lane performs `bb_gap2`'s and [`Frame::dist2`]'s operations in their
/// order, so the pack width cannot change a decision.
macro_rules! tile_pass {
    ($(#[$attr:meta])* fn $name:ident, $P:ty) => {
        impl TileSearch<'_> {
            $(#[$attr])*
            fn $name(&self, filter: &mut impl TileFilter) -> [ClusterPairs; 2] {
                type P = $P;
                const ROWS: usize = P::ROWS;
                const PACKS: usize = CLUSTER / ROWS;
                let [ix, iy, iz] =
                    self.image.map(|a| [P::splat(a[0]), P::splat(a[1]), P::splat(a[2])]);
                let r2 = P::splat(self.r_list * self.r_list);
                let zero = P::splat(0.0);
                let abs = P::splat(f32::from_bits(0x7fff_ffff));
                let [_, n_home_clusters, n_clusters] = self.first_cluster;
                // Lane coordinates, one `[f32; CLUSTER]` per cluster.
                let (lx, ly, lz) = (
                    self.lanes.x.as_chunks::<CLUSTER>().0,
                    self.lanes.y.as_chunks::<CLUSTER>().0,
                    self.lanes.z.as_chunks::<CLUSTER>().0,
                );
                let boxes = [&self.box_center, &self.box_half];
                let corners = [&self.box_lo, &self.box_hi];
                let grid_zone = [0, 1].map(|g| {
                    filter.shared_zone(self.first_cluster[g]..self.first_cluster[g + 1])
                });

                let mut local = ClusterPairs::empty();
                let mut halo = ClusterPairs::empty();
                let mut runs: Vec<(usize, usize)> = Vec::new();
                // A cluster is a candidate of a row at most once; add room
                // for a pack's scratch lanes and the merge's sentinel. The
                // candidate lists are compacted in place into the bake's
                // survivors.
                let room = n_clusters + SWEEP_PAD + 1;
                let mut free = vec![0u32; room];
                let mut free_bits = vec![0u16; room];
                let mut imaged = vec![0u32; room];
                let mut imaged_bits = vec![0u16; room];
                let mut imaged_shifted = vec![0u16; room];
                let mut row_cj = vec![0u32; room];
                let mut row_bits = vec![0u16; room];
                let mut row_shifted = vec![0u16; room];
                let mut row_un = vec![false; room];
                for ci in 0..n_clusters {
                    // --- Search: cluster runs the grids reach, swept
                    // against this box and left-packed by image need.
                    let ci_zone = filter.shared_zone(ci..ci + 1);
                    let [cxi, cyi, czi, hxi, hyi, hzi] = [
                        &boxes[0].x, &boxes[0].y, &boxes[0].z, &boxes[1].x, &boxes[1].y,
                        &boxes[1].z,
                    ]
                    .map(|a| P::splat(a[ci]));
                    let [lxi, lyi, lzi, uxi, uyi, uzi] = [
                        &corners[0].x, &corners[0].y, &corners[0].z, &corners[1].x,
                        &corners[1].y, &corners[1].z,
                    ]
                    .map(|a| P::splat(a[ci]));
                    let (mut n_free, mut n_imaged) = (0, 0);
                    for (g, grid) in self.grids.iter().enumerate() {
                        if ci >= self.first_cluster[g + 1] || ci_zone & grid_zone[g] != 0 {
                            continue;
                        }
                        let first = self.first_cluster[g];
                        let (center, half) = (self.bb_center[ci], self.bb_half[ci]);
                        runs.clear();
                        grid.for_each_run_near(center, half, self.r_list, |lo, hi| {
                            if lo < hi {
                                runs.push((first + lo / CLUSTER, first + hi.div_ceil(CLUSTER)));
                            }
                        });
                        // Runs come ascending and overlap where a chunk
                        // straddles two of them: sweep each cluster once,
                        // from `ci` up.
                        let mut from = ci;
                        for &(lo, hi) in &runs {
                            let mut c = lo.max(from);
                            from = from.max(hi);
                            while c < hi {
                                // Centre distances and summed extents.
                                let rx = cxi.sub(P::load(&boxes[0].x, c));
                                let ry = cyi.sub(P::load(&boxes[0].y, c));
                                let rz = czi.sub(P::load(&boxes[0].z, c));
                                let hx = hxi.add(P::load(&boxes[1].x, c));
                                let hy = hyi.add(P::load(&boxes[1].y, c));
                                let hz = hzi.add(P::load(&boxes[1].z, c));
                                let gx = min_image!(rx, ix).and(abs).sub(hx).max(zero);
                                let gy = min_image!(ry, iy).and(abs).sub(hy).max(zero);
                                let gz = min_image!(rz, iz).and(abs).sub(hz).max(zero);
                                let gap2 = gx.mul(gx).add(gy.mul(gy)).add(gz.mul(gz));
                                let live = (1u32 << (hi - c).min(P::LANES)) - 1;
                                let hits = gap2.lt(r2).movemask() & live;
                                // Both corner spans under half the box on
                                // every axis: no lane pair needs an image.
                                let fx = uxi.sub(P::load(&corners[0].x, c)).lt(ix[0])
                                    .and(P::load(&corners[1].x, c).sub(lxi).lt(ix[0]));
                                let fy = uyi.sub(P::load(&corners[0].y, c)).lt(iy[0])
                                    .and(P::load(&corners[1].y, c).sub(lyi).lt(iy[0]));
                                let fz = uzi.sub(P::load(&corners[0].z, c)).lt(iz[0])
                                    .and(P::load(&corners[1].z, c).sub(lzi).lt(iz[0]));
                                let image_free = fx.and(fy).and(fz).movemask();
                                let (base, imaged_hits) = (c as u32, hits & !image_free);
                                n_free = P::compact(hits & image_free, base, &mut free, n_free);
                                n_imaged = P::compact(imaged_hits, base, &mut imaged, n_imaged);
                                c += P::LANES;
                            }
                        }
                    }

                    // --- Bake both lists, each compacted to its non-empty
                    // tiles in place.
                    let (xi, yi, zi) = (lx[ci], ly[ci], lz[ci]);
                    let mut pxi = [zero; PACKS];
                    let mut pyi = [zero; PACKS];
                    let mut pzi = [zero; PACKS];
                    for p in 0..PACKS {
                        pxi[p] = P::rows(&xi, ROWS * p);
                        pyi[p] = P::rows(&yi, ROWS * p);
                        pzi[p] = P::rows(&zi, ROWS * p);
                    }
                    // The self-tile keeps its upper triangle.
                    let own = |cj: u32| {
                        if cj as usize == ci {
                            UPPER_TRIANGLE
                        } else {
                            u32::MAX
                        }
                    };
                    let mut kept_free = 0;
                    for t in 0..n_free {
                        let cj = free[t];
                        let xj = P::dup(F4::from_array(lx[cj as usize]));
                        let yj = P::dup(F4::from_array(ly[cj as usize]));
                        let zj = P::dup(F4::from_array(lz[cj as usize]));
                        let mut bits = 0u32;
                        for p in 0..PACKS {
                            let (dx, dy, dz) = (pxi[p].sub(xj), pyi[p].sub(yj), pzi[p].sub(zj));
                            let d2 = dx.mul(dx).add(dy.mul(dy)).add(dz.mul(dz));
                            bits |= d2.lt(r2).movemask() << (ROWS * p * CLUSTER);
                        }
                        bits &= own(cj);
                        free[kept_free] = cj;
                        free_bits[kept_free] = bits as u16;
                        kept_free += (bits != 0) as usize;
                    }
                    let mut kept_imaged = 0;
                    for t in 0..n_imaged {
                        let cj = imaged[t];
                        let xj = P::dup(F4::from_array(lx[cj as usize]));
                        let yj = P::dup(F4::from_array(ly[cj as usize]));
                        let zj = P::dup(F4::from_array(lz[cj as usize]));
                        // `bits`: pairs in range; `shifted`: lanes whose
                        // minimum image moved them on some axis.
                        let (mut bits, mut shifted) = (0u32, 0u32);
                        for p in 0..PACKS {
                            let (rx, ry, rz) = (pxi[p].sub(xj), pyi[p].sub(yj), pzi[p].sub(zj));
                            let dx = min_image!(rx, ix);
                            let dy = min_image!(ry, iy);
                            let dz = min_image!(rz, iz);
                            let d2 = dx.mul(dx).add(dy.mul(dy)).add(dz.mul(dz));
                            bits |= d2.lt(r2).movemask() << (ROWS * p * CLUSTER);
                            let moved = rx.and(abs).gt(ix[0]).movemask()
                                | ry.and(abs).gt(iy[0]).movemask()
                                | rz.and(abs).gt(iz[0]).movemask();
                            shifted |= moved << (ROWS * p * CLUSTER);
                        }
                        bits &= own(cj);
                        imaged[kept_imaged] = cj;
                        imaged_bits[kept_imaged] = bits as u16;
                        imaged_shifted[kept_imaged] = shifted as u16;
                        kept_imaged += (bits != 0) as usize;
                    }

                    // --- Merge the two ascending lists into the row, each
                    // ended by a sentinel above every cluster index.
                    free[kept_free] = u32::MAX;
                    imaged[kept_imaged] = u32::MAX;
                    let n = kept_free + kept_imaged;
                    let (mut a, mut b) = (0, 0);
                    for t in 0..n {
                        let take_free = free[a] < imaged[b];
                        row_cj[t] = if take_free { free[a] } else { imaged[b] };
                        row_bits[t] = if take_free { free_bits[a] } else { imaged_bits[b] };
                        row_shifted[t] = if take_free { 0 } else { imaged_shifted[b] };
                        a += take_free as usize;
                        b += !take_free as usize;
                    }

                    // --- Filter the row, drop what it emptied, and append
                    // the home prefix to `local`, the rest to `halo`.
                    filter.row(ci, &row_cj[..n], &mut row_bits[..n]);
                    let (mut kept, mut n_local) = (0, 0);
                    for t in 0..n {
                        let (cj, bits) = (row_cj[t], row_bits[t]);
                        row_cj[kept] = cj;
                        row_bits[kept] = bits;
                        // The image bit, of the pairs the filter left.
                        row_un[kept] = bits & row_shifted[t] == 0;
                        let live = bits != 0;
                        kept += live as usize;
                        n_local += (live & ((cj as usize) < n_home_clusters)) as usize;
                    }
                    let (cj, bits, un) = (&row_cj[..kept], &row_bits[..kept], &row_un[..kept]);
                    local.append_row(ci, &cj[..n_local], &bits[..n_local], &un[..n_local]);
                    halo.append_row(ci, &cj[n_local..], &bits[n_local..], &un[n_local..]);
                }
                [local, halo]
            }
        }
    };
}

tile_pass!(fn tiles_rows1, F4);
tile_pass!(
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn tiles_rows2,
    F8
);

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
/// explicit SIMD arithmetic.
///
/// The tile arithmetic is written once (`tile_kernel!`) over a *row pack*
/// — [`F4`] carries one tile row per operation, [`F8`] two — and
/// instantiated per pack (and again per pack without energies, for
/// [`compute_nonbonded_cluster_forces`]); on x86_64 hosts with AVX2 the
/// two-row instantiation is selected at run time. Both perform the same IEEE
/// operations per lane in the same order and fold in the same order, so the
/// choice is invisible in the results: bitwise identical, and hence
/// portable across hosts.
///
/// **No-wrap rule, enforced by the list.** On a tile whose image bit is set
/// ([`ClusterPairs::unshifted`]) the kernel takes `xi - xj` without the
/// minimum image. That is bitwise the minimum image as long as `coords` are
/// the build coordinates moved by less than half the Verlet buffer each
/// and *no coordinate was wrapped into the box since the build*: a lane
/// live at build needed no correction, stays within `r_list + buffer ≤ L −
/// r_c` of its partner, and so either still needs none or lies beyond the
/// cutoff in both metrics. [`Staleness::verdict`] sees both: a stale list
/// is rebuilt, and a wrapped one has its image bits cleared before any tile
/// runs ([`NbEvaluator`](crate::nb::NbEvaluator)), so a caller may wrap at will.
///
/// Accumulates forces into `lane_forces` (lane space, additive) and returns
/// `(energy, virial)`. All folds run in a fixed order, so repeated
/// evaluation of the same list is bitwise reproducible no matter how rows
/// are distributed across calls.
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
        return unsafe { nb_clusters_rows2(frame, coords, list, which, params, lane_forces) };
    }
    nb_clusters_rows1(frame, coords, list, which, params, lane_forces)
}

/// [`compute_nonbonded_clusters`] without energy and virial: the same tile
/// body instantiated with its potential terms and energy/virial folds
/// compiled out (GROMACS' force-only kernel flavour, for the steps that
/// record no energies). The force arithmetic is untouched, so
/// `lane_forces` receives bitwise what the energy kernel would add.
pub fn compute_nonbonded_cluster_forces(
    frame: &Frame,
    coords: &SoaCoords,
    list: &ClusterPairList,
    which: NbPartition,
    params: &NonbondedParams,
    lane_forces: &mut SoaForces,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: feature presence checked on this exact host above.
        unsafe { nb_forces_rows2(frame, coords, list, which, params, lane_forces) };
        return;
    }
    nb_forces_rows1(frame, coords, list, which, params, lane_forces);
}

/// The kernel body, instantiated as `fn $name` over row pack `$P`, with
/// (`$energy = true`) or without the energy/virial folds. Without them
/// `v_lj`, `v_rf` and the packed-f64 partials are dead code and the
/// function returns `(0.0, 0.0)`; the force expressions are the same
/// tokens either way.
///
/// The pack body is expanded once per pack index (`$p` in `packs`, `CLUSTER
/// / ROWS` of them), so the per-pack state (`pxi` … `fzi`) is only ever
/// indexed by a constant and stays in registers. It is branchless but for
/// two tile-level tests: an empty mask nibble skips its pack, and a tile
/// with its image bit set skips `min_image!`.
///
/// Lane selection (mask bit, cutoff, `r2 > 0`) becomes a 0/1 multiplier,
/// and dead lanes are computed on a blended `r2' = sel*r2 + (1-sel)` so no
/// lane ever divides by zero. For live lanes `r2'` is bitwise `r2`, so
/// per-pair energies match the scalar kernel bit for bit; only the fold
/// orders differ.
///
/// Why every pack width gives the same bits:
/// * each pack operation is the identical IEEE operation on every lane, and
///   the expression below fixes their order;
/// * everything that crosses rows goes through `half(h)` in ascending row
///   order: j-lane forces and the packed-f64 energy/virial partials take
///   row `u` before row `u+1` whether or not the two shared an operation;
///   i-lane partials stay per row until one `(v0+v1)+(v2+v3)` sum at the end
///   of the CSR row;
/// * a row a narrower pack would have skipped (empty mask nibble), and a
///   pack with no lane selected, rides along with `sel = 0`, contributing
///   exact `±0.0` adds, which cannot change an accumulator that started at
///   `+0.0` (adds of finite values never produce `-0.0` under
///   round-to-nearest).
macro_rules! tile_kernel {
    (
        $(#[$attr:meta])* fn $name:ident, $P:ty, energy = $energy:literal,
        packs = [$($p:literal),+]
    ) => {
        $(#[$attr])*
        fn $name(
            frame: &Frame,
            coords: &SoaCoords,
            list: &ClusterPairList,
            which: NbPartition,
            params: &NonbondedParams,
            lane_forces: &mut SoaForces,
        ) -> (f64, f64) {
            type P = $P;
            const ROWS: usize = P::ROWS;
            const PACKS: usize = CLUSTER / ROWS;
            const NK: usize = AtomKind::COUNT;
            // `packs` must be `0 .. PACKS` in order: the folds rely on it.
            const _: () = {
                let packs = [$($p),+];
                assert!(packs.len() == PACKS);
                let mut p = 0;
                while p < PACKS {
                    assert!(packs[p] == p);
                    p += 1;
                }
            };
            let part = list.partition(which);
            assert_eq!(coords.len(), list.n_lanes());
            assert_eq!(lane_forces.len(), list.n_lanes());
            // Every lane array as one `[T; CLUSTER]` per cluster, sliced to
            // the cluster count once: a tile then costs one bounds check
            // per array instead of one per lane.
            let n = list.n_clusters();
            let (cx, cy, cz) = (
                &coords.x.as_chunks::<CLUSTER>().0[..n],
                &coords.y.as_chunks::<CLUSTER>().0[..n],
                &coords.z.as_chunks::<CLUSTER>().0[..n],
            );
            let charges = &list.lane_charges.as_chunks::<CLUSTER>().0[..n];
            let kinds = &list.lane_kinds.as_chunks::<CLUSTER>().0[..n];
            let lj = &list.lj_rows.as_chunks::<NK>().0[..n];
            // The LJ shift depends on the cutoff, so the energy flavour lays
            // it out like the list's LJ rows per call (one step in
            // `nstlist` runs it).
            let vshift: Vec<[[f32; CLUSTER]; NK]> = if $energy {
                kinds
                    .iter()
                    .map(|kj| {
                        core::array::from_fn(|ki| kj.map(|k| params.vshift_lj[ki][k as usize]))
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let (fx, fy, fz) = (
                &mut lane_forces.x.as_chunks_mut::<CLUSTER>().0[..n],
                &mut lane_forces.y.as_chunks_mut::<CLUSTER>().0[..n],
                &mut lane_forces.z.as_chunks_mut::<CLUSTER>().0[..n],
            );
            // Loop-invariant lane broadcasts.
            let [ix, iy, iz] =
                image_lengths(frame).map(|a| [P::splat(a[0]), P::splat(a[1]), P::splat(a[2])]);
            let rc2v = P::splat(params.cutoff * params.cutoff);
            let zero = P::splat(0.0);
            let one = P::splat(1.0);
            let krfv = P::splat(params.k_rf);
            let crfv = P::splat(params.c_rf);
            let two_krf = P::splat(2.0 * params.k_rf);
            let twelve = P::splat(12.0);
            let six = P::splat(6.0);
            let zero4 = F4::splat(0.0);

            // Energy/virial accumulate as packed f64 lane partials (widened
            // from the bitwise per-pair f32 terms) and fold once at the end,
            // in a fixed lane order.
            let mut e_lo = D2::zero();
            let mut e_hi = D2::zero();
            let mut w_lo = D2::zero();
            let mut w_hi = D2::zero();
            for (row, &ci) in part.i_clusters.iter().enumerate() {
                let ci = ci as usize;
                let (xi, yi, zi) = (cx[ci], cy[ci], cz[ci]);
                let eq = charges[ci].map(|q| F_ELEC * q);
                // i-lane broadcasts are tile-invariant: splat them once per
                // CSR row. Pack `p` carries rows `ROWS * p ..`.
                let pxi = [$(P::rows(&xi, ROWS * $p)),+];
                let pyi = [$(P::rows(&yi, ROWS * $p)),+];
                let pzi = [$(P::rows(&zi, ROWS * $p)),+];
                let eqi = [$(P::rows(&eq, ROWS * $p)),+];
                // Clamped so the row lookups below need no bounds check
                // (every kind index is already below `NK`).
                let ki = kinds[ci].map(|k| usize::from(k).min(NK - 1));
                // Per-i-lane force partials stay as j-lane vectors across the
                // whole CSR row; the horizontal fold happens once per row.
                let mut fxi = [zero; PACKS];
                let mut fyi = [zero; PACKS];
                let mut fzi = [zero; PACKS];

                let lo = part.starts[row] as usize;
                let hi = part.starts[row + 1] as usize;
                let tiles = part.j_clusters[lo..hi]
                    .iter()
                    .zip(&part.masks[lo..hi])
                    .zip(&part.unshifted[lo..hi]);
                for ((&cj, &mask), &unshifted) in tiles {
                    let (cj, mask) = (cj as usize, mask as usize);
                    // One j-cluster load feeds every row of every pack.
                    let xj = P::dup(F4::from_array(cx[cj]));
                    let yj = P::dup(F4::from_array(cy[cj]));
                    let zj = P::dup(F4::from_array(cz[cj]));
                    let qj = P::dup(F4::from_array(charges[cj]));
                    let ljj = &lj[cj];
                    let vsj = if $energy { &vshift[cj] } else { &[[0.0; CLUSTER]; NK] };
                    let mut fxj = zero4;
                    let mut fyj = zero4;
                    let mut fzj = zero4;

                    $('pack: {
                        let mrows = mask >> (ROWS * $p * CLUSTER);
                        if mrows & ((1 << (ROWS * CLUSTER)) - 1) == 0 {
                            break 'pack;
                        }
                        // The rows' LJ rows and mask lanes — the only
                        // per-row work; the rest is per pack.
                        let mut c6 = [zero4; ROWS];
                        let mut c12 = [zero4; ROWS];
                        let mut vs = [zero4; ROWS];
                        let mut msk = [zero4; ROWS];
                        for h in 0..ROWS {
                            let k = ki[ROWS * $p + h];
                            c6[h] = F4::from_array(ljj[k][0]);
                            c12[h] = F4::from_array(ljj[k][1]);
                            if $energy {
                                vs[h] = F4::from_array(vsj[k]);
                            }
                            msk[h] = F4::from_array(MASK_LANES[(mrows >> (h * CLUSTER)) & 0xF]);
                        }
                        let (c6, c12, vs, msk) =
                            (P::join(c6), P::join(c12), P::join(vs), P::join(msk));

                        let mut dx = pxi[$p].sub(xj);
                        let mut dy = pyi[$p].sub(yj);
                        let mut dz = pzi[$p].sub(zj);
                        if !unshifted {
                            dx = min_image!(dx, ix);
                            dy = min_image!(dy, iy);
                            dz = min_image!(dz, iz);
                        }
                        let r2 = dx.mul(dx).add(dy.mul(dy)).add(dz.mul(dz));

                        // Live lanes: sel == 1.0 and r2e == r2 bitwise. Dead
                        // lanes (masked, beyond cutoff, or self): sel == 0.0
                        // and r2e == 1.0, so no lane ever divides by zero.
                        let sel = r2.lt(rc2v).and(zero.lt(r2)).and(msk);
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
                        let qq = eqi[$p].mul(qj);
                        let inv_r = inv_r2.sqrt();
                        let v_rf = qq.mul(inv_r.add(krfv.mul(r2e)).sub(crfv));
                        let f_rf = qq.mul(inv_r.mul(inv_r2).sub(two_krf));

                        let fs = sel.mul(f_lj.add(f_rf));
                        let ev = sel.mul(v_lj.add(v_rf));
                        let wv = fs.mul(r2e);
                        let fx = fs.mul(dx);
                        let fy = fs.mul(dy);
                        let fz = fs.mul(dz);

                        fxi[$p] = fxi[$p].add(fx);
                        fyi[$p] = fyi[$p].add(fy);
                        fzi[$p] = fzi[$p].add(fz);
                        // Everything shared between rows folds row by row.
                        for h in 0..ROWS {
                            fxj = fxj - fx.half(h);
                            fyj = fyj - fy.half(h);
                            fzj = fzj - fz.half(h);
                            if $energy {
                                let (ev, wv) = (ev.half(h), wv.half(h));
                                e_lo = e_lo + ev.to_f64_lo();
                                e_hi = e_hi + ev.to_f64_hi();
                                w_lo = w_lo + wv.to_f64_lo();
                                w_hi = w_hi + wv.to_f64_hi();
                            }
                        }
                    })+

                    fx[cj] = (F4::from_array(fx[cj]) + fxj).to_array();
                    fy[cj] = (F4::from_array(fy[cj]) + fyj).to_array();
                    fz[cj] = (F4::from_array(fz[cj]) + fzj).to_array();
                }

                $(for h in 0..ROWS {
                    let u = ROWS * $p + h;
                    let fxa = fxi[$p].half(h).to_array();
                    let fya = fyi[$p].half(h).to_array();
                    let fza = fzi[$p].half(h).to_array();
                    fx[ci][u] += (fxa[0] + fxa[1]) + (fxa[2] + fxa[3]);
                    fy[ci][u] += (fya[0] + fya[1]) + (fya[2] + fya[3]);
                    fz[ci][u] += (fza[0] + fza[1]) + (fza[2] + fza[3]);
                })+
            }
            let (ea, eb) = (e_lo.to_array(), e_hi.to_array());
            let (wa, wb) = (w_lo.to_array(), w_hi.to_array());
            (
                (ea[0] + ea[1]) + (eb[0] + eb[1]),
                (wa[0] + wa[1]) + (wb[0] + wb[1]),
            )
        }
    };
}

tile_kernel!(fn nb_clusters_rows1, F4, energy = true, packs = [0, 1, 2, 3]);
tile_kernel!(fn nb_forces_rows1, F4, energy = false, packs = [0, 1, 2, 3]);
tile_kernel!(
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn nb_clusters_rows2,
    F8,
    energy = true,
    packs = [0, 1]
);
tile_kernel!(
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn nb_forces_rows2,
    F8,
    energy = false,
    packs = [0, 1]
);

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
    use crate::nb::NbEvaluator;
    use crate::pairlist::{brute_force_pairs, eighth_shell_rule, PairList, ZoneFilter};
    use crate::pbc::PbcBox;
    use crate::system::{GrappaBuilder, System};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Non-bonded energy, virial and forces of `sys` as one rank, every
    /// atom home, from a fresh evaluator.
    fn evaluate(
        frame: &Frame,
        sys: &System,
        r_list: f32,
        filter: &impl PairFilter,
        params: &NonbondedParams,
        forces: &mut [Vec3],
    ) -> (f64, f64) {
        let (pos, kinds, n) = (&sys.positions, &sys.kinds, sys.n_atoms());
        let mut ev = NbEvaluator::default();
        ev.compute(
            frame,
            pos,
            kinds,
            n,
            r_list,
            0.0,
            filter,
            params,
            true,
            forces,
            &mut (),
        )
    }

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
        rule: &impl Fn(usize, usize) -> bool,
    ) -> (ClusterPairs, ClusterPairs) {
        let r2 = list.staleness.r_list * list.staleness.r_list;
        let mut local = ClusterPairs::empty();
        let mut halo = ClusterPairs::empty();
        for ci in 0..list.n_clusters() {
            // The row's `(cj, mask, image bit)` per partition.
            let mut rows: [Vec<(u32, u16, bool)>; 2] = Default::default();
            for cj in ci..list.n_clusters() {
                if bb_gap2(
                    &list.staleness.frame,
                    &list.bb_center,
                    &list.bb_half,
                    ci,
                    cj,
                ) >= r2
                {
                    continue;
                }
                let (mut mask, mut unshifted) = (0u16, true);
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
                            .staleness
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
                        let (pa, pb) = (positions[a as usize], positions[b as usize]);
                        unshifted &= list.staleness.frame.displacement(pa, pb) == pa - pb;
                    }
                }
                if mask != 0 {
                    rows[(cj >= list.n_home_clusters) as usize].push((cj as u32, mask, unshifted));
                }
            }
            for (part, row) in [&mut local, &mut halo].into_iter().zip(rows) {
                let cj: Vec<u32> = row.iter().map(|t| t.0).collect();
                let masks: Vec<u16> = row.iter().map(|t| t.1).collect();
                let unshifted: Vec<bool> = row.iter().map(|t| t.2).collect();
                part.append_row(ci, &cj, &masks, &unshifted);
            }
        }
        (local, halo)
    }

    /// Field-by-field equality of the built tiles with the oracle's.
    fn assert_tiles_equal_reference(
        list: &ClusterPairList,
        positions: &[Vec3],
        rule: &impl Fn(usize, usize) -> bool,
    ) {
        let (local, halo) = all_pairs_tiles(list, positions, rule);
        assert_eq!(list.local, local);
        assert_eq!(list.halo, halo);
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
        drifted_positions(&mut rng, n, lengths, dd, r_list)
    }

    /// [`drifted_frame`]'s coordinates in a box of the given `lengths`.
    fn drifted_positions(
        rng: &mut StdRng,
        n: usize,
        lengths: Vec3,
        dd: [usize; 3],
        r_list: f32,
    ) -> (Frame, Vec<Vec3>) {
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

    /// The build's list equals the one-row tile pass (what hosts without
    /// AVX2 run) called directly, and the two-row pass where this host has
    /// AVX2.
    fn assert_instantiations_agree<F: PairFilter + ?Sized>(
        frame: &Frame,
        positions: &[Vec3],
        n_home: usize,
        r_list: f32,
        filter: &F,
    ) -> ClusterPairList {
        let kinds = vec![AtomKind::Ow; positions.len()];
        let list = ClusterPairList::build(frame, positions, &kinds, n_home, r_list, filter);
        let grids = clustering_grids(frame, positions, n_home, r_list);
        let first_cluster = [0, list.n_home_clusters, list.n_clusters()];
        let search = TileSearch::new(
            frame,
            positions,
            &list.lane_atoms,
            [&grids[0], &grids[1]],
            first_cluster,
            r_list,
        );
        let rows1 = search.tiles_rows1(&mut filter.tiles(&list.lane_atoms));
        assert_eq!(rows1, [list.local.clone(), list.halo.clone()], "1-row pass");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence checked on this host just above.
            let rows2 = unsafe { search.tiles_rows2(&mut filter.tiles(&list.lane_atoms)) };
            assert_eq!(rows2, rows1, "2-row pass");
        }
        list
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Both tile-pass instantiations over the drifted frames of the
        /// grid-search test, with the closure filter and with the same rule
        /// as data. `one_d` gives every halo copy the 1-D shape (travelled
        /// up in x on a `[2,1,1]` frame), whose halo grid all shares a zone
        /// bit, so the data filter's halo i-clusters skip it; that list is
        /// held to the all-pairs oracle too.
        #[test]
        fn tile_pass_instantiations_agree(
            seed in 0u64..u64::MAX,
            atoms in 1usize..601,
            dd in 0usize..4,
            home in 0usize..4,
            tight in 0usize..2,
            r_list in 0.4f32..1.0,
            one_d in 0usize..2,
        ) {
            let one_d = one_d == 1;
            let frames = [[1, 1, 1], [2, 1, 1], [2, 2, 1], [2, 2, 2]];
            let dd = if one_d { [2, 1, 1] } else { frames[dd] };
            let (frame, positions) = drifted_frame(seed, atoms, dd, tight == 1, r_list);
            let n_home = [0, atoms, atoms / 2, atoms - atoms / 4][home];
            let disp: Vec<[u8; 3]> = (0..atoms)
                .map(|a| {
                    [0, 1, 2].map(|k| {
                        let up = if one_d { k == 0 } else { (a >> k) & 1 == 1 };
                        (a >= n_home && !frame.periodic[k] && up) as u8
                    })
                })
                .collect();
            let excluded = |a: usize, b: usize| a != b && (31 * a.min(b) + 17 * a.max(b)) % 11 >= 9;
            let rule = |a: usize, b: usize| eighth_shell_rule(&disp, a, b) && !excluded(a, b);
            let data = ZoneFilter::new(&disp, |a, row| {
                row.extend((0..atoms).filter(|&b| excluded(a, b)).map(|b| b as u32));
            });
            let by_rule = assert_instantiations_agree(&frame, &positions, n_home, r_list, &rule);
            let by_data = assert_instantiations_agree(&frame, &positions, n_home, r_list, &data);
            prop_assert_eq!(&by_data.local, &by_rule.local);
            prop_assert_eq!(&by_data.halo, &by_rule.halo);
            assert_tiles_equal_reference(&by_data, &positions, &rule);
        }
    }

    #[test]
    fn box_spanning_cluster_is_found_through_its_atoms_cells() {
        // Cluster 0: four atoms strung along the whole z edge, its box
        // centre 2.5 nm from cluster 1. Cluster 1: four atoms bunched one
        // x-cell further on, in reach of two of them.
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
        assert!(list.bb_half[0].z > 2.0 * r_list, "cluster 0 spans the box");
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

        // A whole cluster out there, its box a point: cell indices past
        // any integer arithmetic. Its four atoms still pair with each other.
        let xs = [1e30, 1e30, 1e30, 1e30, 1.4, 1.5, 1.6, 1.7];
        let positions: Vec<Vec3> = xs.iter().map(|&x| Vec3::new(x, 1.0, 1.0)).collect();
        let list = ClusterPairList::build(&frame, &positions, &kinds, 4, 0.8, &all);
        assert_tiles_equal_reference(&list, &positions, &all);
        assert_eq!(list.local.n_pairs(), 6);
        assert_eq!(list.all_pairs().len(), 12);

        // NaN and infinite lanes beside ordinary ones, in one cluster and
        // in the other (4.9 pairs with 0.3 through the wrap): they pair with
        // nothing, whichever bake path their boxes send them down. (The oracle's `dist2 >= r2` rejection lets
        // a NaN distance through, so it is held to infinite lanes only.)
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for at in [0, 5] {
                let mut xs = [0.3, 1.2, 1.3, 1.1, 1.4, 1.5, 1.6, 4.9];
                xs[at] = bad;
                let positions: Vec<Vec3> = xs.iter().map(|&x| Vec3::new(x, 1.0, 1.0)).collect();
                let list = ClusterPairList::build(&frame, &positions, &kinds, 4, 0.8, &all);
                if !bad.is_nan() {
                    assert_tiles_equal_reference(&list, &positions, &all);
                }
                let pairs = list.all_pairs();
                assert!(pairs.iter().all(|&(a, b)| a != at as u32 && b != at as u32));
                let good = brute_force_pairs(&frame, &positions, 0.8, &all);
                let good: Vec<_> = good
                    .into_iter()
                    .filter(|&(a, b)| a != at as u32 && b != at as u32)
                    .collect();
                assert_eq!(pairs, good, "{bad} at {at}");
            }
        }
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

        let mut f_cluster = vec![Vec3::ZERO; sys.n_atoms()];
        let (e_cluster, w_cluster) = evaluate(&frame, &sys, 0.75, &rule, &params, &mut f_cluster);

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
        let mut f2 = vec![Vec3::ZERO; sys.n_atoms()];
        let (e2, _) = evaluate(&frame, &sys, 0.65, &rule, &params, &mut f2);
        assert!((e1 - e2).abs() < 1e-9 * e1.abs().max(1.0), "{e1} vs {e2}");
    }

    #[test]
    fn dispatched_kernel_matches_baseline_body_bitwise() {
        // The one-row instantiation (called directly, so it is exercised on
        // AVX2 hosts too), the two-row instantiation where the host has
        // AVX2, and the runtime dispatcher must be bitwise identical —
        // forces, energy, and virial.
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

        let mut others: Vec<(&str, Kernel)> = vec![("dispatcher", compute_nonbonded_clusters)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence checked on this host just above.
            others.push(("2-row", |f, c, l, w, p, lf| unsafe {
                nb_clusters_rows2(f, c, l, w, p, lf)
            }));
        }
        for which in [NbPartition::Local, NbPartition::Halo] {
            let mut lf_base = SoaForces::default();
            lf_base.reset(list.n_lanes());
            let (e_base, w_base) =
                nb_clusters_rows1(&frame, &coords, &list, which, &params, &mut lf_base);
            for (name, kernel) in &others {
                let mut lf = SoaForces::default();
                lf.reset(list.n_lanes());
                let (e, w) = kernel(&frame, &coords, &list, which, &params, &mut lf);
                assert_eq!(e_base.to_bits(), e.to_bits(), "{name} energy ({which:?})");
                assert_eq!(w_base.to_bits(), w.to_bits(), "{name} virial ({which:?})");
                for lane in 0..list.n_lanes() {
                    let a = lf_base.get(lane);
                    let b = lf.get(lane);
                    assert_eq!(
                        [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()],
                        [b.x.to_bits(), b.y.to_bits(), b.z.to_bits()],
                        "{name} lane {lane} ({which:?})"
                    );
                }
            }
        }
    }

    type Kernel = fn(
        &Frame,
        &SoaCoords,
        &ClusterPairList,
        NbPartition,
        &NonbondedParams,
        &mut SoaForces,
    ) -> (f64, f64);

    /// `(energy kernel, force-only kernel)` per row pack this host runs,
    /// plus the two public dispatchers.
    fn kernel_flavours() -> Vec<(&'static str, Kernel, Kernel)> {
        let mut out: Vec<(&str, Kernel, Kernel)> = vec![
            ("1-row", nb_clusters_rows1, nb_forces_rows1),
            (
                "dispatcher",
                compute_nonbonded_clusters,
                |f, c, l, w, p, lf| {
                    compute_nonbonded_cluster_forces(f, c, l, w, p, lf);
                    (0.0, 0.0)
                },
            ),
        ];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence checked on this host just above.
            out.push((
                "2-row",
                |f, c, l, w, p, lf| unsafe { nb_clusters_rows2(f, c, l, w, p, lf) },
                |f, c, l, w, p, lf| unsafe { nb_forces_rows2(f, c, l, w, p, lf) },
            ));
        }
        out
    }

    /// Local then halo partition into one accumulator, as the engine does:
    /// after each kernel call the force-only lanes must be bit for bit the
    /// energy kernel's, PAD lanes included.
    fn assert_force_only_matches_energy_kernel(
        frame: &Frame,
        positions: &[Vec3],
        kinds: &[AtomKind],
        n_home: usize,
        r_list: f32,
        filter: &(impl PairFilter + ?Sized),
    ) {
        let list = ClusterPairList::build(frame, positions, kinds, n_home, r_list, filter);
        let params = NonbondedParams::new(r_list - 0.1);
        let mut coords = SoaCoords::default();
        list.pack_coords(positions, &mut coords, 0..list.n_clusters());
        for (name, energy, forces_only) in kernel_flavours() {
            let (mut lf_e, mut lf_f) = (SoaForces::default(), SoaForces::default());
            lf_e.reset(list.n_lanes());
            lf_f.reset(list.n_lanes());
            for which in [NbPartition::Local, NbPartition::Halo] {
                energy(frame, &coords, &list, which, &params, &mut lf_e);
                let nothing = forces_only(frame, &coords, &list, which, &params, &mut lf_f);
                assert_eq!(nothing, (0.0, 0.0), "{name} ({which:?})");
                for lane in 0..list.n_lanes() {
                    let (a, b) = (lf_e.get(lane), lf_f.get(lane));
                    assert_eq!(
                        [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()],
                        [b.x.to_bits(), b.y.to_bits(), b.z.to_bits()],
                        "{name} lane {lane} ({which:?})"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Both packs, both partitions, every atom kind, partial clusters
        /// (PAD lanes) in both ranges, drifted frames on 1-, 2- and 3-D
        /// grids.
        #[test]
        fn force_only_kernel_equals_energy_kernel_bitwise(
            seed in 0u64..u64::MAX,
            atoms in 1usize..601,
            dd in 0usize..4,
            home in 0usize..4,
            r_list in 0.4f32..1.0,
        ) {
            let dd = [[1, 1, 1], [2, 1, 1], [2, 2, 1], [2, 2, 2]][dd];
            let (frame, positions) = drifted_frame(seed, atoms, dd, false, r_list);
            let n_home = [0, atoms, atoms / 2, atoms - atoms / 4][home];
            let disp: Vec<[u8; 3]> = (0..atoms)
                .map(|a| {
                    [0, 1, 2]
                        .map(|k| (a >= n_home && !frame.periodic[k] && (a >> k) & 1 == 1) as u8)
                })
                .collect();
            let rule = |a: usize, b: usize| eighth_shell_rule(&disp, a, b);
            let all_kinds = [AtomKind::Ow, AtomKind::Hw, AtomKind::Ch3, AtomKind::Ch2, AtomKind::Oh];
            let kinds: Vec<AtomKind> = (0..atoms).map(|a| all_kinds[(a * 7 + 3) % 5]).collect();
            assert_force_only_matches_energy_kernel(
                &frame, &positions, &kinds, n_home, r_list, &rule,
            );
        }
    }

    #[test]
    fn force_only_kernel_on_a_222_frame() {
        // The pinned row of the proptest above: a grappa system on a
        // [2,2,2] frame with a 3/4 home range (so both partitions and both
        // ranges' trailing PAD lanes are live) and its exclusions.
        let sys = GrappaBuilder::new(1203).seed(44).build();
        let frame = Frame::for_decomposition(&sys.pbc, [2, 2, 2]);
        let n_home = 902;
        let rule = |a: usize, b: usize| !sys.is_excluded(a, b);
        let list = ClusterPairList::build(&frame, &sys.positions, &sys.kinds, n_home, 0.75, &rule);
        assert!(list.lane_atoms.contains(&PAD));
        assert!(list.local.n_tiles() > 0 && list.halo.n_tiles() > 0);
        assert_force_only_matches_energy_kernel(
            &frame,
            &sys.positions,
            &sys.kinds,
            n_home,
            0.75,
            &rule,
        );
    }

    /// Every atom moved by less than `max` (a uniform draw per axis inside
    /// the cube the `max` ball contains), none wrapped.
    fn jiggled(positions: &[Vec3], rng: &mut StdRng, max: f32) -> Vec<Vec3> {
        let m = max / 3f32.sqrt();
        positions
            .iter()
            .map(|&p| {
                p + Vec3::new(
                    rng.gen_range(-m..m),
                    rng.gen_range(-m..m),
                    rng.gen_range(-m..m),
                )
            })
            .collect()
    }

    /// Every kernel this host runs, both partitions, at `positions`: the
    /// list as built and the same list with every image bit cleared give
    /// bitwise the same lanes, energy and virial.
    fn assert_image_bits_inert(
        frame: &Frame,
        list: &ClusterPairList,
        positions: &[Vec3],
        params: &NonbondedParams,
    ) {
        let mut cleared = list.clone();
        cleared.clear_image_bits();
        let mut coords = SoaCoords::default();
        list.pack_coords(positions, &mut coords, 0..list.n_clusters());
        for (name, energy, forces_only) in kernel_flavours() {
            for which in [NbPartition::Local, NbPartition::Halo] {
                for (flavour, kernel) in [("energy", energy), ("force-only", forces_only)] {
                    let run = |l: &ClusterPairList| {
                        let mut lf = SoaForces::default();
                        lf.reset(l.n_lanes());
                        let (e, w) = kernel(frame, &coords, l, which, params, &mut lf);
                        let lanes: Vec<[u32; 3]> = (0..l.n_lanes())
                            .map(|i| lf.get(i))
                            .map(|f| [f.x, f.y, f.z].map(f32::to_bits))
                            .collect();
                        (e.to_bits(), w.to_bits(), lanes)
                    };
                    assert!(
                        run(list) == run(&cleared),
                        "{name} {flavour} kernel ({which:?}): image bits changed the result"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The no-wrap rule of the image bit: lists built at drifted
        /// frames (out-of-box atoms, PAD lanes, 1-, 2- and 3-D grids,
        /// periodic edges from just over `2 r_list` up), then evaluated
        /// after every atom moved by less than half the buffer without a
        /// wrap, are bitwise the same list with no bit set.
        #[test]
        fn image_bits_are_inert_while_atoms_stay_within_half_the_buffer(
            seed in 0u64..u64::MAX,
            atoms in 1usize..601,
            dd in 0usize..4,
            home in 0usize..4,
            edge in 0usize..3,
            cutoff in 0.3f32..0.9,
            buffer in 0.02f32..0.2,
        ) {
            let dd = [[1, 1, 1], [2, 1, 1], [2, 2, 1], [2, 2, 2]][dd];
            let r_list = cutoff + buffer;
            let (frame, positions) = if edge == 2 {
                // At the DD floor: every periodic edge just over 2 r_list.
                let mut rng = StdRng::seed_from_u64(seed);
                let lengths = Vec3::new(1.0, 1.0, 1.0) * (2.001 * r_list);
                drifted_positions(&mut rng, atoms, lengths, dd, r_list)
            } else {
                drifted_frame(seed, atoms, dd, edge == 1, r_list)
            };
            let n_home = [0, atoms, atoms / 2, atoms - atoms / 4][home];
            let disp: Vec<[u8; 3]> = (0..atoms)
                .map(|a| {
                    [0, 1, 2]
                        .map(|k| (a >= n_home && !frame.periodic[k] && (a >> k) & 1 == 1) as u8)
                })
                .collect();
            let rule = |a: usize, b: usize| eighth_shell_rule(&disp, a, b);
            let all_kinds = [AtomKind::Ow, AtomKind::Hw, AtomKind::Ch3, AtomKind::Ch2, AtomKind::Oh];
            let kinds: Vec<AtomKind> = (0..atoms).map(|a| all_kinds[(a * 7 + 3) % 5]).collect();
            let list = ClusterPairList::build(&frame, &positions, &kinds, n_home, r_list, &rule);
            let mut rng = StdRng::seed_from_u64(seed.rotate_left(17));
            let moved = jiggled(&positions, &mut rng, 0.499 * buffer);
            prop_assert!(!list.needs_rebuild(&moved, buffer));
            let params = NonbondedParams::new(cutoff);
            assert_image_bits_inert(&frame, &list, &positions, &params);
            assert_image_bits_inert(&frame, &list, &moved, &params);
        }
    }

    #[test]
    fn image_bit_census() {
        // Rank 0 of a [2,1,1] partition of 9 000 atoms, as the DD plan lays
        // it out: home atoms in the lower x half, then the halo slab the
        // upper neighbour sends (`r_comm` wide, travelled up in x).
        let sys = GrappaBuilder::new(9000).seed(11).build();
        let frame = Frame::for_decomposition(&sys.pbc, [2, 1, 1]);
        let (r_comm, mid) = (0.8, 0.5 * sys.pbc.lengths().x);
        let x = |a: &usize| sys.positions[*a].x;
        let home: Vec<usize> = (0..sys.n_atoms()).filter(|a| x(a) < mid).collect();
        let halo = (0..sys.n_atoms()).filter(|a| (mid..mid + r_comm).contains(&x(a)));
        let ids: Vec<usize> = home.iter().copied().chain(halo).collect();
        let positions: Vec<Vec3> = ids.iter().map(|&a| sys.positions[a]).collect();
        let kinds: Vec<AtomKind> = ids.iter().map(|&a| sys.kinds[a]).collect();
        let disp: Vec<[u8; 3]> = (0..ids.len())
            .map(|l| [(l >= home.len()) as u8, 0, 0])
            .collect();
        let rule =
            |a: usize, b: usize| eighth_shell_rule(&disp, a, b) && !sys.is_excluded(ids[a], ids[b]);
        let list = ClusterPairList::build(&frame, &positions, &kinds, home.len(), r_comm, &rule);
        let bits = |l: &ClusterPairList| {
            let all: Vec<bool> = [&l.local, &l.halo]
                .iter()
                .flat_map(|p| p.unshifted.iter().copied())
                .collect();
            (all.iter().filter(|&&b| b).count(), all.len())
        };
        let (set, tiles) = bits(&list);
        assert!(
            set as f64 >= 0.75 * tiles as f64,
            "{set} of {tiles} image bits set"
        );

        // A whole-system list sets its bits at build like any other, and
        // loses them all once an atom is wrapped under it, as the
        // minimiser's sweep does.
        let mut nb = NbEvaluator::default();
        let (frame, n) = (Frame::fully_periodic(&sys.pbc), sys.n_atoms());
        let (filter, params) = (ZoneFilter::whole_system(&sys), NonbondedParams::new(0.7));
        let kinds = &sys.kinds;
        let mut round = |pos: &[Vec3]| {
            let mut forces = vec![Vec3::ZERO; n];
            nb.compute(
                &frame,
                pos,
                kinds,
                n,
                0.8,
                0.1,
                &filter,
                &params,
                false,
                &mut forces,
                &mut (),
            );
            bits(nb.list().unwrap())
        };
        let (set, tiles) = round(&sys.positions);
        assert!(
            set as f64 >= 0.75 * tiles as f64,
            "{set} of {tiles} whole-system image bits set"
        );
        // Atom 0 one box length up in x: a wrap, as the list sees it.
        let mut wrapped = sys.positions.clone();
        wrapped[0].x += sys.pbc.lengths().x;
        let (set, tiles) = round(&wrapped);
        assert!(tiles > 0);
        assert_eq!(set, 0, "a wrapped whole-system list kept {set} image bits");
    }

    #[test]
    fn baked_lj_rows_are_the_params_tables() {
        const NK: usize = AtomKind::COUNT;
        let all_kinds = [
            AtomKind::Ow,
            AtomKind::Hw,
            AtomKind::Ch3,
            AtomKind::Ch2,
            AtomKind::Oh,
        ];
        let (frame, positions) = drifted_frame(5, 203, [1, 1, 1], false, 0.8);
        let kinds: Vec<AtomKind> = (0..positions.len())
            .map(|a| all_kinds[(a * 3) % NK])
            .collect();
        let all = |_: usize, _: usize| true;
        let list = ClusterPairList::build(&frame, &positions, &kinds, 150, 0.8, &all);
        assert!(list.lane_atoms.contains(&PAD));
        assert_eq!(list.lj_rows.len(), NK * list.n_clusters());
        for cutoff in [0.5, 0.7, 1.0] {
            let params = NonbondedParams::new(cutoff);
            let mut seen = [[false; NK]; NK];
            for c in 0..list.n_clusters() {
                for ki in 0..NK {
                    let [c6, c12] = list.lj_rows[NK * c + ki];
                    for v in 0..CLUSTER {
                        let kj = list.lane_kinds[CLUSTER * c + v] as usize;
                        seen[ki][kj] = true;
                        assert_eq!(c6[v].to_bits(), params.c6[ki][kj].to_bits(), "c6 {ki}-{kj}");
                        assert_eq!(
                            c12[v].to_bits(),
                            params.c12[ki][kj].to_bits(),
                            "c12 {ki}-{kj}"
                        );
                    }
                }
            }
            assert!(seen.iter().flatten().all(|&s| s), "every kind pair checked");
        }
    }

    #[test]
    fn kernel_is_deterministic() {
        let sys = GrappaBuilder::new(800).seed(38).build();
        let frame = Frame::fully_periodic(&sys.pbc);
        let params = NonbondedParams::new(0.7);
        let all = |_: usize, _: usize| true;
        let mut f1 = vec![Vec3::ZERO; sys.n_atoms()];
        let r1 = evaluate(&frame, &sys, 0.75, &all, &params, &mut f1);
        let mut f2 = vec![Vec3::ZERO; sys.n_atoms()];
        let r2 = evaluate(&frame, &sys, 0.75, &all, &params, &mut f2);
        assert_eq!(r1, r2);
        assert_eq!(f1, f2);
    }

    #[test]
    fn length_mismatch_is_stale() {
        let sys = GrappaBuilder::new(300).seed(40).build();
        let frame = Frame::fully_periodic(&sys.pbc);
        let all = |_: usize, _: usize| true;
        let cl =
            ClusterPairList::build(&frame, &sys.positions, &sys.kinds, sys.n_atoms(), 0.7, &all);
        assert!(!cl.needs_rebuild(&sys.positions, 0.2));
        let mut longer = sys.positions.clone();
        longer.push(longer[0]);
        assert!(cl.needs_rebuild(&longer, 0.2));
        assert!(cl.needs_rebuild(&sys.positions[1..], 0.2));
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
