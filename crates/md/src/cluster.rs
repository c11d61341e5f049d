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
//!   about pairs in range, a tile at a time;
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

use crate::forces::nonbonded::{NonbondedParams, F_ELEC};
use crate::frame::Frame;
use crate::pairlist::{CellGrid, PairFilter, Staleness, TileFilter, ZoneFilter};
#[cfg(target_arch = "x86_64")]
use crate::simd4::F8;
use crate::simd4::{D2, F4};
use crate::soa::{SoaCoords, SoaForces};
use crate::system::System;
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
        let mut lane_atoms: Vec<u32> = Vec::new();
        let mut first_cluster = [0usize; 3];
        let grids = [(0, n_home), (n_home, positions.len())].map(|(lo, hi)| {
            let cell = clustering_cell(&positions[lo..hi], r_list);
            CellGrid::new(frame, positions, lo as u32..hi as u32, cell, r_list)
        });
        for (g, grid) in grids.iter().enumerate() {
            for chunk in grid.order.chunks(CLUSTER) {
                let mut lanes = [PAD; CLUSTER];
                lanes[..chunk.len()].copy_from_slice(chunk);
                lane_atoms.extend_from_slice(&lanes);
            }
            first_cluster[g + 1] = lane_atoms.len() / CLUSTER;
        }
        let [_, n_home_clusters, n_clusters] = first_cluster;

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

        // --- Tiles: search, bake, filter — one pass over the i-clusters.
        let search = TileSearch::new(
            frame,
            positions,
            &lane_atoms,
            [&bb_center, &bb_half],
            [&grids[0], &grids[1]],
            first_cluster,
            r_list,
        );
        let [local, halo] = search.tiles(&mut filter.tiles(&lane_atoms));

        ClusterPairList {
            lane_atoms,
            n_home_clusters,
            n_home,
            lane_kinds,
            lane_charges,
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

    /// See [`Staleness::needs_rebuild`].
    pub fn needs_rebuild(&self, positions: &[Vec3], buffer: f32) -> bool {
        self.staleness.needs_rebuild(positions, buffer)
    }

    /// See [`Staleness::needs_rebuild_full`].
    pub fn needs_rebuild_full(&self, positions: &[Vec3], buffer: f32) -> bool {
        self.staleness.needs_rebuild_full(positions, buffer)
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

/// Everything the tile pass of [`ClusterPairList::build`] reads, laid out
/// for it.
///
/// **Search.** A tile with a set mask bit holds two atoms within `r_list`,
/// so every j-cluster of i-cluster `ci` owns an atom binned in a cell the
/// clustering grids reach from `ci`'s bounding box widened by `r_list`. The
/// grids' cell-sorted order *is* the cluster order — position `p` sits in
/// cluster `p / CLUSTER` of its grid — so each run of cells the range query
/// yields is a run of consecutive cluster indices, the chunks straddling its
/// ends included. Those runs, cut to `cj >= ci` and merged, are swept
/// against `ci`'s box by cluster index over SoA box arrays, a pack of
/// candidates per operation, with `bb_gap2`'s own arithmetic: survivors
/// come out ascending, nothing is gathered and nothing is sorted. Any
/// superset of the tiles with a non-empty mask would do; the gap test only
/// spares bakes.
///
/// **Bake.** A surviving tile's sixteen `d² < r_list²` decisions are one
/// row pack per `ROWS` rows over lane-space SoA coordinates with the
/// kernel's own minimum-image expression ([`min_image!`]), then the filter
/// on the surviving bits only — exactly the
/// [`PairList`](crate::pairlist::PairList) predicate for finite coordinates.
struct TileSearch<'a> {
    /// Clustering grids of the home and the halo range, and the first
    /// cluster of each (`[0, n_home_clusters, n_clusters]`).
    grids: [&'a CellGrid; 2],
    first_cluster: [usize; 3],
    bb_center: &'a [Vec3],
    bb_half: &'a [Vec3],
    /// The boxes again as SoA, `SWEEP_PAD` entries past the end so a pack
    /// load at the last cluster stays in bounds (the sweep masks them off).
    box_center: SoaCoords,
    box_half: SoaCoords,
    /// Lane coordinates; padded lanes hold NaN, so no comparison on them is
    /// ever true and their bits stay clear without a validity mask.
    lanes: SoaCoords,
    image: [[f32; 3]; 3],
    r_list: f32,
}

/// Bits `u * CLUSTER + v` with `u < v`, one nibble per row `u` (row 0
/// lowest): a self-tile lists each pair once.
const UPPER_TRIANGLE: u32 = 0b0000_1000_1100_1110;

/// Widest pack the box sweep loads (see [`TileSearch::box_center`]).
const SWEEP_PAD: usize = 8;

impl<'a> TileSearch<'a> {
    fn new(
        frame: &Frame,
        positions: &[Vec3],
        lane_atoms: &[u32],
        [bb_center, bb_half]: [&'a [Vec3]; 2],
        grids: [&'a CellGrid; 2],
        first_cluster: [usize; 3],
        r_list: f32,
    ) -> Self {
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
            bb_center,
            bb_half,
            box_center: padded(bb_center),
            box_half: padded(bb_half),
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
/// mask bake (`P::ROWS` tile rows per operation). Every lane performs
/// `bb_gap2`'s and [`Frame::dist2`]'s operations in their order, so the
/// pack width cannot change a decision.
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

                let mut local = ClusterPairsBuilder::default();
                let mut halo = ClusterPairsBuilder::default();
                let mut runs: Vec<(usize, usize)> = Vec::new();
                let mut near: Vec<u32> = Vec::new();
                for ci in 0..n_clusters {
                    let (center, half) = (self.bb_center[ci], self.bb_half[ci]);

                    // --- Search: cluster runs the grids reach, swept
                    // against this box.
                    near.clear();
                    let (cxi, cyi, czi) =
                        (P::splat(center.x), P::splat(center.y), P::splat(center.z));
                    let (hxi, hyi, hzi) = (P::splat(half.x), P::splat(half.y), P::splat(half.z));
                    for (g, grid) in self.grids.iter().enumerate() {
                        let first = self.first_cluster[g];
                        if ci >= self.first_cluster[g + 1] {
                            continue;
                        }
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
                                let rx = cxi.sub(P::load(&self.box_center.x, c));
                                let ry = cyi.sub(P::load(&self.box_center.y, c));
                                let rz = czi.sub(P::load(&self.box_center.z, c));
                                let hx = hxi.add(P::load(&self.box_half.x, c));
                                let hy = hyi.add(P::load(&self.box_half.y, c));
                                let hz = hzi.add(P::load(&self.box_half.z, c));
                                let gx = min_image!(rx, ix).and(abs).sub(hx).max(zero);
                                let gy = min_image!(ry, iy).and(abs).sub(hy).max(zero);
                                let gz = min_image!(rz, iz).and(abs).sub(hz).max(zero);
                                let gap2 = gx.mul(gx).add(gy.mul(gy)).add(gz.mul(gz));
                                let mut hits = gap2.lt(r2).movemask();
                                if hi - c < P::LANES {
                                    hits &= (1 << (hi - c)) - 1;
                                }
                                while hits != 0 {
                                    near.push((c + hits.trailing_zeros() as usize) as u32);
                                    hits &= hits - 1;
                                }
                                c += P::LANES;
                            }
                        }
                    }

                    // --- Bake and filter the survivors, ascending.
                    let (xi, yi, zi) = (lx[ci], ly[ci], lz[ci]);
                    let mut pxi = [zero; PACKS];
                    let mut pyi = [zero; PACKS];
                    let mut pzi = [zero; PACKS];
                    for p in 0..PACKS {
                        pxi[p] = P::rows(&xi, ROWS * p);
                        pyi[p] = P::rows(&yi, ROWS * p);
                        pzi[p] = P::rows(&zi, ROWS * p);
                    }
                    filter.begin_row(ci);
                    for &cj in &near {
                        let xj = P::dup(F4::from_array(lx[cj as usize]));
                        let yj = P::dup(F4::from_array(ly[cj as usize]));
                        let zj = P::dup(F4::from_array(lz[cj as usize]));
                        let mut bits = 0u32;
                        for p in 0..PACKS {
                            let dx = min_image!(pxi[p].sub(xj), ix);
                            let dy = min_image!(pyi[p].sub(yj), iy);
                            let dz = min_image!(pzi[p].sub(zj), iz);
                            let d2 = dx.mul(dx).add(dy.mul(dy)).add(dz.mul(dz));
                            bits |= d2.lt(r2).movemask() << (ROWS * p * CLUSTER);
                        }
                        if ci == cj as usize {
                            bits &= UPPER_TRIANGLE;
                        }
                        if bits != 0 {
                            bits = filter.keep(cj as usize, bits);
                        }
                        if bits != 0 {
                            let part = if (cj as usize) < n_home_clusters {
                                &mut local
                            } else {
                                &mut halo
                            };
                            part.push(ci as u32, cj, bits as u16);
                        }
                    }
                }
                [local.finish(), halo.finish()]
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
/// The inner micro-tile is branchless: lane selection (mask bit, cutoff,
/// `r2 > 0`) becomes a 0/1 multiplier, and dead lanes are computed on a
/// blended `r2' = sel*r2 + (1-sel)` so no lane ever divides by zero. For
/// live lanes `r2'` is bitwise `r2`, so per-pair energies match the scalar
/// kernel bit for bit; only the fold orders differ.
///
/// Why every pack width gives the same bits:
/// * each pack operation is the identical IEEE operation on every lane, and
///   the expression below fixes their order;
/// * everything that crosses rows goes through `half(h)` in ascending row
///   order: j-lane forces and the packed-f64 energy/virial partials take
///   row `u` before row `u+1` whether or not the two shared an operation;
///   i-lane partials stay per row until one `(v0+v1)+(v2+v3)` sum at the end
///   of the CSR row;
/// * a row a narrower pack would have skipped (empty mask nibble, or no
///   lane selected) rides along with `sel = 0`, contributing exact `±0.0`
///   adds, which cannot change an accumulator that started at `+0.0` (adds
///   of finite values never produce `-0.0` under round-to-nearest).
macro_rules! tile_kernel {
    ($(#[$attr:meta])* fn $name:ident, $P:ty, energy = $energy:literal) => {
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
            // Interleaved LJ parameter table: one aligned `[c6, c12, vshift, _]`
            // quad per kind pair, so each tile row gathers four 16-byte quads
            // and transposes, instead of twelve scattered scalar loads. Sized
            // to the next power of two so a flat `& LJT_MASK` index is
            // provably in bounds — no bounds-check branches in the tile loop.
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
                let mut pxi = [zero; PACKS];
                let mut pyi = [zero; PACKS];
                let mut pzi = [zero; PACKS];
                let mut eqi = [zero; PACKS];
                for p in 0..PACKS {
                    pxi[p] = P::rows(&xi, ROWS * p);
                    pyi[p] = P::rows(&yi, ROWS * p);
                    pzi[p] = P::rows(&zi, ROWS * p);
                    eqi[p] = P::rows(&eq, ROWS * p);
                }
                let trow = kinds[ci].map(|k| NK * k as usize);
                // Per-i-lane force partials stay as j-lane vectors across the
                // whole CSR row; the horizontal fold happens once per row.
                let mut fxi = [zero; PACKS];
                let mut fyi = [zero; PACKS];
                let mut fzi = [zero; PACKS];

                let lo = part.starts[row] as usize;
                let hi = part.starts[row + 1] as usize;
                for (&cj, &mask) in part.j_clusters[lo..hi].iter().zip(&part.masks[lo..hi]) {
                    let (cj, mask) = (cj as usize, mask as usize);
                    // One j-cluster load feeds every row of every pack.
                    let xj = P::dup(F4::from_array(cx[cj]));
                    let yj = P::dup(F4::from_array(cy[cj]));
                    let zj = P::dup(F4::from_array(cz[cj]));
                    let qj = P::dup(F4::from_array(charges[cj]));
                    let kj = kinds[cj].map(usize::from);
                    let mut fxj = zero4;
                    let mut fyj = zero4;
                    let mut fzj = zero4;

                    for p in 0..PACKS {
                        let mrows = mask >> (ROWS * p * CLUSTER);
                        if mrows & ((1 << (ROWS * CLUSTER)) - 1) == 0 {
                            continue;
                        }
                        // Per-pair LJ parameter quads and the rows' mask
                        // lookups — the only per-row work; the rest is
                        // per pack.
                        let mut c6 = [zero4; ROWS];
                        let mut c12 = [zero4; ROWS];
                        let mut vs = [zero4; ROWS];
                        let mut msk = [zero4; ROWS];
                        for h in 0..ROWS {
                            let tr = trow[ROWS * p + h];
                            (c6[h], c12[h], vs[h], _) = F4::transpose(
                                F4::from_array(ljt[(tr + kj[0]) & LJT_MASK]),
                                F4::from_array(ljt[(tr + kj[1]) & LJT_MASK]),
                                F4::from_array(ljt[(tr + kj[2]) & LJT_MASK]),
                                F4::from_array(ljt[(tr + kj[3]) & LJT_MASK]),
                            );
                            msk[h] = F4::from_array(MASK_LANES[(mrows >> (h * CLUSTER)) & 0xF]);
                        }
                        let (c6, c12, vs, msk) =
                            (P::join(c6), P::join(c12), P::join(vs), P::join(msk));

                        let dx = min_image!(pxi[p].sub(xj), ix);
                        let dy = min_image!(pyi[p].sub(yj), iy);
                        let dz = min_image!(pzi[p].sub(zj), iz);
                        let r2 = dx.mul(dx).add(dy.mul(dy)).add(dz.mul(dz));

                        // Live lanes: sel == 1.0 and r2e == r2 bitwise. Dead
                        // lanes (masked, beyond cutoff, or self): sel == 0.0
                        // and r2e == 1.0, so no lane ever divides by zero.
                        let sel = r2.lt(rc2v).and(zero.lt(r2)).and(msk);
                        if !sel.any_nonzero() {
                            // Listed, but every pair is masked or outside the
                            // cutoff this step (Verlet skin) — all lanes
                            // would contribute exact zeros.
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
                    }

                    fx[cj] = (F4::from_array(fx[cj]) + fxj).to_array();
                    fy[cj] = (F4::from_array(fy[cj]) + fyj).to_array();
                    fz[cj] = (F4::from_array(fz[cj]) + fzj).to_array();
                }

                for p in 0..PACKS {
                    for h in 0..ROWS {
                        let u = ROWS * p + h;
                        let fxa = fxi[p].half(h).to_array();
                        let fya = fyi[p].half(h).to_array();
                        let fza = fzi[p].half(h).to_array();
                        fx[ci][u] += (fxa[0] + fxa[1]) + (fxa[2] + fxa[3]);
                        fy[ci][u] += (fya[0] + fya[1]) + (fya[2] + fya[3]);
                        fz[ci][u] += (fza[0] + fza[1]) + (fza[2] + fza[3]);
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
    };
}

tile_kernel!(fn nb_clusters_rows1, F4, energy = true);
tile_kernel!(fn nb_forces_rows1, F4, energy = false);
tile_kernel!(
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn nb_clusters_rows2,
    F8,
    energy = true
);
tile_kernel!(
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn nb_forces_rows2,
    F8,
    energy = false
);

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

/// The cluster pipeline over a whole system as one rank — a
/// [`ZoneFilter::whole_system`], a list in which every atom is home, the
/// tile kernel — with its list and lane buffers kept from call to call. The
/// minimiser and [`crate::ReferenceSimulation`] take their non-bonded forces
/// from it.
pub(crate) struct ClusterForces {
    filter: ZoneFilter,
    /// Verlet buffer (nm): the list reaches `cutoff + buffer`.
    buffer: f32,
    list: Option<ClusterPairList>,
    coords: SoaCoords,
    lane_forces: SoaForces,
}

impl ClusterForces {
    pub(crate) fn new(system: &System, buffer: f32) -> Self {
        ClusterForces {
            filter: ZoneFilter::whole_system(system),
            buffer,
            list: None,
            coords: SoaCoords::default(),
            lane_forces: SoaForces::default(),
        }
    }

    /// True when the next [`ClusterForces::add`] rebuilds the list: there is
    /// none, or some atom has left half the buffer. The full scan, because
    /// the caller sets how far an atom may move between calls.
    pub(crate) fn stale(&self, positions: &[Vec3]) -> bool {
        self.list
            .as_ref()
            .is_none_or(|list| list.needs_rebuild_full(positions, self.buffer))
    }

    /// Add the non-bonded forces at `system.positions` into `forces`;
    /// returns their `(energy, virial)`. Rebuilds the list first if
    /// [`ClusterForces::stale`].
    pub(crate) fn add(
        &mut self,
        system: &System,
        params: &NonbondedParams,
        forces: &mut [Vec3],
    ) -> (f64, f64) {
        let positions = &system.positions;
        let frame = Frame::fully_periodic(&system.pbc);
        if self.stale(positions) {
            self.list = Some(ClusterPairList::build(
                &frame,
                positions,
                &system.kinds,
                positions.len(),
                params.cutoff + self.buffer,
                &self.filter,
            ));
        }
        let list = self.list.as_ref().expect("built above");
        list.pack_coords(positions, &mut self.coords, list.home_clusters());
        self.lane_forces.reset(list.n_lanes());
        // Every atom is home, so the halo partition is empty.
        let res = compute_nonbonded_clusters(
            &frame,
            &self.coords,
            list,
            NbPartition::Local,
            params,
            &mut self.lane_forces,
        );
        list.fold_forces(&self.lane_forces, forces);
        res
    }

    /// The list the last [`ClusterForces::add`] ran on.
    #[cfg(test)]
    pub(crate) fn list(&self) -> Option<&ClusterPairList> {
        self.list.as_ref()
    }
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
        rule: &impl Fn(usize, usize) -> bool,
    ) -> (ClusterPairs, ClusterPairs) {
        let r2 = list.staleness.r_list * list.staleness.r_list;
        let mut local = ClusterPairsBuilder::default();
        let mut halo = ClusterPairsBuilder::default();
        for ci in 0..list.n_clusters() {
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
