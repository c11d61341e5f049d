//! Central construction of the per-rank domain-decomposition plan: home-atom
//! assignment, staged pulse index maps with dependency partitioning, and
//! bonded-term assignment.
//!
//! GROMACS builds this state in a distributed way at every neighbour-search
//! step (`dd_partition_system`); we build it centrally from the global system
//! — an acceptable simplification because the paper's contribution is the
//! *per-step* coordinate/force halo exchange, which consumes exactly the
//! metadata produced here (index maps, dependency offsets, shifts, signals).

use crate::bounds::DdBounds;
use crate::grid::DdGrid;
use crate::pulse::{pulses_needed, PulseData, PulseLayout};
use halox_md::pairlist::ZoneFilter;
use halox_md::topology::{Angle, Bond};
use halox_md::{System, Vec3};
use std::fmt;

/// Why plan construction failed. The eighth-shell bonded assignment requires
/// every term's atoms to span at most two adjacent domains per dimension; a
/// term stretched across three or more means the molecule is longer than a
/// domain — a configuration error, not a runtime fault.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A bonded term's atoms live in more than two domains along `dim`.
    BondedTermSpans { dim: usize, atoms: Vec<u32> },
    /// Cells along `dim` are so thin that the forwarding chain would need
    /// `pulses >= cells` hops — halo data would wrap all the way around the
    /// torus back onto its sender. Use fewer ranks (or thicker cells) in
    /// this dimension.
    PulsesExceedGrid {
        dim: usize,
        pulses: usize,
        cells: usize,
    },
    /// The box is narrower than `2 · r_comm` along `dim`, which is periodic
    /// and not decomposed: a pair search of radius `r_comm` would meet the
    /// same atom through two images (the half-box rule of
    /// `halox_md::pairlist`). Use a larger box or shorter cut-offs.
    BoxTooNarrow {
        dim: usize,
        box_len: f32,
        r_comm: f32,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BondedTermSpans { dim, atoms } => write!(
                f,
                "bonded term spans >2 domains in dim {dim}: atoms {atoms:?}"
            ),
            PlanError::PulsesExceedGrid { dim, pulses, cells } => write!(
                f,
                "dim {dim}: {pulses} pulses over {cells} cells is not decomposable: \
                 the chain would wrap the torus; cells are thinner than r_comm allows"
            ),
            PlanError::BoxTooNarrow {
                dim,
                box_len,
                r_comm,
            } => write!(
                f,
                "dim {dim}: box length {box_len} nm is under twice r_comm = {r_comm} nm \
                 in a periodic, non-decomposed dimension"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Per-local-atom up-displacement: how many domains "up" in each dimension a
/// copy travelled to reach this rank (home atoms: `[0, 0, 0]`). Two local
/// copies interact on this rank iff their displacement supports are disjoint
/// — the eighth-shell zone-pair rule (see `halox_md::pairlist`).
pub type Displacement = [u8; 3];

/// Everything one rank needs to run domain-decomposed MD between two
/// neighbour-search steps.
#[derive(Debug, Clone)]
pub struct RankPlan {
    pub rank: usize,
    /// Number of home atoms; locals `[0, n_home)` are home, the rest halo.
    pub n_home: usize,
    /// Global ids of all local atoms (home then halo, in arrival order).
    pub global_ids: Vec<u32>,
    /// Pulse metadata in global pulse order `[z.., y.., x..]`.
    pub pulses: Vec<PulseData>,
    /// DD-frame positions at build time (home wrapped; halo shifted).
    pub build_positions: Vec<Vec3>,
    /// Per-local-atom kinds (needed by the non-bonded kernel for halo too).
    pub kinds: Vec<halox_md::AtomKind>,
    /// Per-local-atom inverse masses (integration uses the home prefix).
    pub inv_mass: Vec<f32>,
    /// Up-displacement of every local copy (the zone information).
    pub displacement: Vec<Displacement>,
    /// The rank's pair rule as data — `displacement` as zone bits plus the
    /// topology's exclusions in local indices, every local copy of a
    /// partner included — which both pair-list builds take.
    pub pair_filter: ZoneFilter,
    /// Bonded terms assigned to this rank, with local indices.
    pub bonds: Vec<Bond>,
    pub angles: Vec<Angle>,
}

impl RankPlan {
    pub fn n_local(&self) -> usize {
        self.global_ids.len()
    }

    pub fn n_halo(&self) -> usize {
        self.n_local() - self.n_home
    }
}

/// The complete decomposition: one [`RankPlan`] per rank plus shared layout.
#[derive(Debug, Clone)]
pub struct DdPartition {
    pub grid: DdGrid,
    /// Cell boundaries the plan was built from (uniform unless DLB moved
    /// them).
    pub bounds: DdBounds,
    pub r_comm: f32,
    pub layout: PulseLayout,
    pub ranks: Vec<RankPlan>,
}

impl DdPartition {
    pub fn n_ranks(&self) -> usize {
        self.ranks.len()
    }

    pub fn total_pulses(&self) -> usize {
        self.layout.total_pulses()
    }

    /// Largest local atom count over ranks — the symmetric-heap capacity
    /// every PE must allocate (NVSHMEM symmetric allocation, paper §5.3).
    pub fn max_local_atoms(&self) -> usize {
        self.ranks.iter().map(|r| r.n_local()).max().unwrap_or(0)
    }

    /// Total halo atoms communicated per coordinate exchange (all ranks).
    pub fn total_halo_atoms(&self) -> usize {
        self.ranks.iter().map(|r| r.n_halo()).sum()
    }
}

/// Panicking convenience wrapper over [`try_build_partition`], for callers
/// whose systems are known-valid by construction (tests, harnesses).
pub fn build_partition(system: &System, grid: &DdGrid, r_comm: f32) -> DdPartition {
    try_build_partition(system, grid, r_comm).unwrap_or_else(|e| panic!("{e}"))
}

/// Build the decomposition of `system` over `grid`, communicating halo atoms
/// within `r_comm` (cutoff + Verlet buffer) of domain boundaries. Returns
/// [`PlanError`] if a bonded term cannot be assigned to a single rank.
pub fn try_build_partition(
    system: &System,
    grid: &DdGrid,
    r_comm: f32,
) -> Result<DdPartition, PlanError> {
    try_build_partition_with(system, grid, &DdBounds::uniform(grid), r_comm, None)
}

/// The plan's halo geometry for `grid` under `bounds` on a box of `box_l`:
/// pulses per dimension ([`pulses_needed`] over each decomposed dimension's
/// thinnest cell, raised to `min_pulses`; 1 elsewhere), or the geometry
/// error the plan would return. A chain must stay shorter than the cell
/// count ([`PlanError::PulsesExceedGrid`]), and a periodic non-decomposed
/// dimension must be longer than `2 · r_comm` ([`PlanError::BoxTooNarrow`]).
/// The analytic model and the grid chooser price grids through it, so they
/// accept exactly the geometries the plan builds.
pub fn pulse_counts(
    grid: &DdGrid,
    bounds: &DdBounds,
    box_l: Vec3,
    r_comm: f32,
    min_pulses: Option<[usize; 3]>,
) -> Result<[usize; 3], PlanError> {
    for d in (0..3).filter(|&d| grid.dims[d] == 1) {
        if r_comm >= 0.5 * box_l[d] {
            return Err(PlanError::BoxTooNarrow {
                dim: d,
                box_len: box_l[d],
                r_comm,
            });
        }
    }
    let mut pulses = [1usize; 3];
    for d in grid.comm_dims() {
        pulses[d] = pulses_needed(r_comm, bounds.min_cell_len(d, box_l[d]))
            .max(min_pulses.map_or(1, |m| m[d]));
        if pulses[d] >= grid.dims[d] {
            return Err(PlanError::PulsesExceedGrid {
                dim: d,
                pulses: pulses[d],
                cells: grid.dims[d],
            });
        }
    }
    Ok(pulses)
}

/// Build the decomposition with explicit cell boundaries and (optionally) a
/// pinned minimum pulse count per dimension.
///
/// `bounds` is the movable-boundary geometry DLB adjusts between pair-list
/// rebuilds; atom ownership, pulse send criteria, and per-rank domain bounds
/// all derive from it. `min_pulses` pins the per-dimension pulse count floor:
/// the signal-slot layout baked into a world is sized from the pulse count,
/// so a DLB run computes counts once at start (from the worst boundaries the
/// controller may produce) and passes them here on every rebuild — extra
/// pulses beyond what the current boundaries need simply carry empty index
/// maps. The pulse count actually used is `max(needed, min_pulses[d])` and
/// must stay below the cell count (a longer chain would wrap the torus);
/// violations are a typed [`PlanError::PulsesExceedGrid`]. A dimension that
/// is not decomposed stays periodic on every rank, so its box length must
/// exceed `2 · r_comm` ([`PlanError::BoxTooNarrow`]).
pub fn try_build_partition_with(
    system: &System,
    grid: &DdGrid,
    bounds: &DdBounds,
    r_comm: f32,
    min_pulses: Option<[usize; 3]>,
) -> Result<DdPartition, PlanError> {
    debug_assert!(bounds.validate(grid).is_ok());
    let n_ranks = grid.n_ranks();
    let box_l = system.pbc.lengths();
    let comm_dims = grid.comm_dims();
    let pulses = pulse_counts(grid, bounds, box_l, r_comm, min_pulses)?;
    let layout = PulseLayout::with_pulses(&comm_dims, pulses);

    // --- 1. Home assignment ------------------------------------------------
    let mut owner_coords = Vec::with_capacity(system.n_atoms());
    let mut wrapped = Vec::with_capacity(system.n_atoms());
    for &p in &system.positions {
        let w = system.pbc.wrap(p);
        wrapped.push(w);
        let mut c = [0usize; 3];
        for d in 0..3 {
            c[d] = bounds.owner(d, w[d], box_l[d]);
        }
        owner_coords.push(c);
    }

    // Per-rank mutable construction state.
    struct RankState {
        ids: Vec<u32>,
        pos: Vec<Vec3>,
        origin: Vec<Option<usize>>,
        disp: Vec<Displacement>,
        sent: Vec<[bool; 3]>,
        pulses: Vec<PulseData>,
    }
    let mut states: Vec<RankState> = (0..n_ranks)
        .map(|_| RankState {
            ids: vec![],
            pos: vec![],
            origin: vec![],
            disp: vec![],
            sent: vec![],
            pulses: vec![],
        })
        .collect();

    for (gid, (&c, &w)) in owner_coords.iter().zip(&wrapped).enumerate() {
        let r = grid.rank_of(c);
        let st = &mut states[r];
        st.ids.push(gid as u32);
        st.pos.push(w);
        st.origin.push(None);
        st.disp.push([0; 3]);
        st.sent.push([false; 3]);
    }
    let n_home: Vec<usize> = states.iter().map(|s| s.ids.len()).collect();

    // --- 2. Pulse construction (global order z, y, x) ----------------------
    for (pulse_gid, dim, _) in layout.iter() {
        // Build all sends for this pulse first.
        struct Send {
            index: Vec<u32>,
            dep_offset: usize,
            dep_pulses: Vec<usize>,
            shift: Vec3,
            payload_ids: Vec<u32>,
            payload_pos: Vec<Vec3>,
            payload_disp: Vec<Displacement>,
        }
        let mut sends: Vec<Send> = Vec::with_capacity(n_ranks);
        for r in 0..n_ranks {
            let c = grid.coords_of(r);
            let lo = bounds.cell_lo(dim, c[dim], box_l[dim]);
            let limit = lo + r_comm;
            let shift = if c[dim] == 0 {
                system.pbc.shift_vector(dim, true)
            } else {
                Vec3::ZERO
            };
            let st = &states[r];
            let mut indep = Vec::new();
            let mut dep: Vec<(u32, usize)> = Vec::new();
            for i in 0..st.ids.len() {
                if st.sent[i][dim] || st.pos[i][dim] >= limit {
                    continue;
                }
                match st.origin[i] {
                    None => indep.push(i as u32),
                    Some(op) => dep.push((i as u32, op)),
                }
            }
            let dep_offset = indep.len();
            let mut dep_pulses: Vec<usize> = dep.iter().map(|&(_, op)| op).collect();
            dep_pulses.sort_unstable();
            dep_pulses.dedup();
            let mut index = indep;
            index.extend(dep.iter().map(|&(i, _)| i));
            let payload_ids: Vec<u32> = index.iter().map(|&i| st.ids[i as usize]).collect();
            let payload_pos: Vec<Vec3> =
                index.iter().map(|&i| st.pos[i as usize] + shift).collect();
            let payload_disp: Vec<Displacement> = index
                .iter()
                .map(|&i| {
                    let mut d = st.disp[i as usize];
                    d[dim] += 1;
                    d
                })
                .collect();
            sends.push(Send {
                index,
                dep_offset,
                dep_pulses,
                shift,
                payload_ids,
                payload_pos,
                payload_disp,
            });
        }
        // Mark sent flags.
        for r in 0..n_ranks {
            for &i in &sends[r].index {
                states[r].sent[i as usize][dim] = true;
            }
        }
        // Deliver: each receiver B takes its up-neighbour's payload. The up
        // neighbour is a bijection on a decomposed dimension, so every
        // payload has exactly one receiver and moves there.
        let mut recv_offset = vec![0usize; n_ranks];
        let mut recv_count = vec![0usize; n_ranks];
        for b in 0..n_ranks {
            let u = grid.up_neighbor(b, dim);
            recv_offset[b] = states[b].ids.len();
            recv_count[b] = sends[u].payload_ids.len();
            let (ids, pos, disp) = (
                std::mem::take(&mut sends[u].payload_ids),
                std::mem::take(&mut sends[u].payload_pos),
                std::mem::take(&mut sends[u].payload_disp),
            );
            let st = &mut states[b];
            for ((id, p), d) in ids.into_iter().zip(pos).zip(disp) {
                st.ids.push(id);
                st.pos.push(p);
                st.origin.push(Some(pulse_gid));
                st.disp.push(d);
                st.sent.push([false; 3]);
            }
        }
        // Record PulseData per rank.
        for (r, send) in sends.into_iter().enumerate() {
            let down = grid.down_neighbor(r, dim);
            states[r].pulses.push(PulseData {
                global_id: pulse_gid,
                dim,
                send_rank: down,
                recv_rank: grid.up_neighbor(r, dim),
                send_index: send.index,
                dep_offset: send.dep_offset,
                dep_pulses: send.dep_pulses,
                recv_count: recv_count[r],
                recv_offset: recv_offset[r],
                remote_recv_offset: recv_offset[down],
                shift: send.shift,
            });
        }
    }

    // --- 3. Bonded-term assignment -----------------------------------------
    // A term goes to the rank at the component-wise "down" coordinate of its
    // atoms' owners; eighth-shell forwarding guarantees that rank holds every
    // atom of the term (molecule extent << r_comm).
    let resolve_rank = |atom_ids: &[u32]| -> Result<usize, PlanError> {
        let mut coords = [0usize; 3];
        for d in 0..3 {
            let mut vals: Vec<usize> = atom_ids
                .iter()
                .map(|&a| owner_coords[a as usize][d])
                .collect();
            vals.sort_unstable();
            vals.dedup();
            coords[d] = match vals.len() {
                1 => vals[0],
                2 => {
                    // Use geometry to find which owner is "down" (periodic).
                    let a = *atom_ids
                        .iter()
                        .find(|&&x| owner_coords[x as usize][d] == vals[0])
                        .unwrap();
                    let b = *atom_ids
                        .iter()
                        .find(|&&x| owner_coords[x as usize][d] == vals[1])
                        .unwrap();
                    let disp = system
                        .pbc
                        .min_image(wrapped[b as usize], wrapped[a as usize]);
                    if disp[d] > 0.0 {
                        vals[0]
                    } else {
                        vals[1]
                    }
                }
                _ => {
                    return Err(PlanError::BondedTermSpans {
                        dim: d,
                        atoms: atom_ids.to_vec(),
                    })
                }
            };
        }
        Ok(grid.rank_of(coords))
    };

    let mut rank_bonds: Vec<Vec<Bond>> = vec![vec![]; n_ranks];
    let mut rank_angles: Vec<Vec<Angle>> = vec![vec![]; n_ranks];
    // Defer local-index mapping until maps exist; store with global ids first.
    for b in &system.bonds {
        let r = resolve_rank(&[b.i, b.j])?;
        rank_bonds[r].push(*b);
    }
    for a in &system.angles {
        let r = resolve_rank(&[a.i, a.j, a.k_atom])?;
        rank_angles[r].push(*a);
    }

    // --- 4. Finalize per-rank plans ----------------------------------------
    let mut ranks = Vec::with_capacity(n_ranks);
    // Scratch of `pair_filter`, all `NONE` between ranks.
    let mut first_copy = vec![NONE; system.n_atoms()];
    for (r, st) in states.into_iter().enumerate() {
        let pair_filter = pair_filter(system, &st.ids, &st.disp, &mut first_copy);
        // Bonded terms resolve to the first copy (home, or the earliest
        // arrival), threaded through the same scratch; the pair filter
        // above sees every copy.
        for (i, &g) in st.ids.iter().enumerate().rev() {
            first_copy[g as usize] = i as u32;
        }
        let local = |g: u32| first_copy[g as usize];
        let bonds = rank_bonds[r]
            .iter()
            .map(|b| Bond {
                i: local(b.i),
                j: local(b.j),
                ..*b
            })
            .collect();
        let angles = rank_angles[r]
            .iter()
            .map(|a| Angle {
                i: local(a.i),
                j: local(a.j),
                k_atom: local(a.k_atom),
                ..*a
            })
            .collect();
        for &g in &st.ids {
            first_copy[g as usize] = NONE;
        }
        let kinds: Vec<_> = st.ids.iter().map(|&g| system.kinds[g as usize]).collect();
        let inv_mass: Vec<_> = st
            .ids
            .iter()
            .map(|&g| system.inv_mass[g as usize])
            .collect();
        ranks.push(RankPlan {
            rank: r,
            n_home: n_home[r],
            global_ids: st.ids,
            pulses: st.pulses,
            build_positions: st.pos,
            kinds,
            inv_mass,
            displacement: st.disp,
            pair_filter,
            bonds,
            angles,
        });
    }

    Ok(DdPartition {
        grid: *grid,
        bounds: bounds.clone(),
        r_comm,
        layout,
        ranks,
    })
}

const NONE: u32 = u32::MAX;

/// One rank's pair rule as data: the zone bits of `disp` and, per local
/// atom, **every** local copy of every atom the topology excludes it from
/// pairing with, not only the first copy bonded terms resolve to.
///
/// `first` is scratch over all global atoms, all `NONE` on entry and on
/// return; the copies of one global atom are chained through it and a
/// per-local `next`, so the build is linear in `ids` plus the exclusions.
fn pair_filter(
    system: &System,
    ids: &[u32],
    disp: &[Displacement],
    first: &mut [u32],
) -> ZoneFilter {
    let mut next = vec![NONE; ids.len()];
    for (i, &g) in ids.iter().enumerate().rev() {
        next[i] = std::mem::replace(&mut first[g as usize], i as u32);
    }
    let filter = ZoneFilter::new(disp, |i, row| {
        for &partner in &system.exclusions[ids[i] as usize] {
            let mut copy = first[partner as usize];
            while copy != NONE {
                row.push(copy);
                copy = next[copy as usize];
            }
        }
    });
    for &g in ids {
        first[g as usize] = NONE;
    }
    filter
}

/// Serial reference coordinate halo exchange: executes pulses strictly in
/// global order, packing via each rank's index map and writing into the
/// receiver's local array. The ground truth every concurrent implementation
/// must reproduce bit-exactly.
pub fn reference_coordinate_exchange(partition: &DdPartition, coords: &mut [Vec<Vec3>]) {
    assert_eq!(coords.len(), partition.n_ranks());
    for p in 0..partition.total_pulses() {
        // Pack everything first so a rank's send is unaffected by what it
        // receives in this same pulse (matters for 2-pulse dims? no — but it
        // keeps the semantics crisp: a pulse reads pre-pulse state plus all
        // *earlier* pulses' arrivals).
        let mut staged: Vec<Vec<Vec3>> = Vec::with_capacity(partition.n_ranks());
        for rank in &partition.ranks {
            let pd = &rank.pulses[p];
            let src = &coords[rank.rank];
            staged.push(
                pd.send_index
                    .iter()
                    .map(|&i| src[i as usize] + pd.shift)
                    .collect(),
            );
        }
        for rank in &partition.ranks {
            let pd = &rank.pulses[p];
            let dst = pd.send_rank;
            let off = pd.remote_recv_offset;
            for (k, &v) in staged[rank.rank].iter().enumerate() {
                coords[dst][off + k] = v;
            }
        }
    }
}

/// Serial reference force halo exchange: reverse pulse order; each rank pulls
/// the forces its down neighbour accumulated for the atoms it sent, and adds
/// them at the index-map positions (possibly forwarding further on later
/// iterations of the loop).
pub fn reference_force_exchange(partition: &DdPartition, forces: &mut [Vec<Vec3>]) {
    assert_eq!(forces.len(), partition.n_ranks());
    for p in (0..partition.total_pulses()).rev() {
        let mut staged: Vec<Vec<Vec3>> = Vec::with_capacity(partition.n_ranks());
        for rank in &partition.ranks {
            let pd = &rank.pulses[p];
            let down = pd.send_rank;
            let off = pd.remote_recv_offset;
            staged.push(forces[down][off..off + pd.send_count()].to_vec());
        }
        for rank in &partition.ranks {
            let pd = &rank.pulses[p];
            for (k, &i) in pd.send_index.iter().enumerate() {
                forces[rank.rank][i as usize] += staged[rank.rank][k];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::DdGrid;
    use halox_md::GrappaBuilder;
    use std::collections::HashMap;

    fn test_system(n: usize) -> System {
        GrappaBuilder::new(n).seed(101).build()
    }

    /// Rank `r`'s domain `[lo, hi)` in the primary cell, from the
    /// partition's cell bounds.
    fn domain(part: &DdPartition, r: &RankPlan, box_l: Vec3) -> (Vec3, Vec3) {
        let c = part.grid.coords_of(r.rank);
        let (mut lo, mut hi) = (Vec3::ZERO, Vec3::ZERO);
        for d in 0..3 {
            lo[d] = part.bounds.cell_lo(d, c[d], box_l[d]);
            hi[d] = part.bounds.cell_hi(d, c[d], box_l[d]);
        }
        (lo, hi)
    }

    /// `(local index, pulse that delivered it)` for every halo atom of `r`,
    /// from the pulses' receive ranges.
    fn arrivals(r: &RankPlan) -> impl Iterator<Item = (usize, usize)> + '_ {
        r.pulses.iter().flat_map(|pd| {
            (pd.recv_offset..pd.recv_offset + pd.recv_count).map(move |i| (i, pd.global_id))
        })
    }

    /// Global id → first local copy on `r` (home, or the earliest
    /// arrival), from `global_ids`.
    fn first_copies(r: &RankPlan) -> HashMap<u32, u32> {
        let mut local = HashMap::new();
        for (i, &g) in r.global_ids.iter().enumerate() {
            local.entry(g).or_insert(i as u32);
        }
        local
    }

    #[test]
    fn triple_spanning_angle_is_a_typed_plan_error() {
        use halox_md::{AtomKind, PbcBox};
        // Three atoms strung across all three domains of a [3,1,1] grid:
        // the eighth-shell assignment cannot place the angle on one rank.
        let positions = vec![
            Vec3::new(1.5, 4.5, 4.5),
            Vec3::new(4.5, 4.5, 4.5),
            Vec3::new(7.5, 4.5, 4.5),
        ];
        let n = positions.len();
        let system = System {
            pbc: PbcBox::cubic(9.0),
            positions,
            velocities: vec![Vec3::ZERO; n],
            kinds: vec![AtomKind::Ow; n],
            inv_mass: vec![1.0; n],
            bonds: vec![],
            angles: vec![Angle {
                i: 0,
                j: 1,
                k_atom: 2,
                theta0: 1.9,
                k: 400.0,
            }],
            molecule_of: vec![0; n],
            exclusions: vec![vec![]; n],
        };
        let err = try_build_partition(&system, &DdGrid::new([3, 1, 1]), 0.8).unwrap_err();
        assert_eq!(
            err,
            PlanError::BondedTermSpans {
                dim: 0,
                atoms: vec![0, 1, 2]
            }
        );
        let msg = err.to_string();
        assert!(
            msg.contains("spans >2 domains") && msg.contains("[0, 1, 2]"),
            "{msg}"
        );
    }

    #[test]
    fn exclusion_partner_is_excluded_in_every_local_copy() {
        use halox_md::pairlist::PairFilter;
        // Atoms 0-1-2 are one molecule. On this rank atom 1 is present
        // three times (home, and two forwarded copies) and atom 2 twice;
        // a first-copy map would only ever name locals 1 and 2.
        let sys = test_system(30);
        assert!(sys.is_excluded(0, 1) && sys.is_excluded(1, 2) && !sys.is_excluded(0, 3));
        let ids = [0, 1, 2, 3, 1, 2, 7, 1];
        let disp = [[0; 3]; 8];
        let mut first = vec![NONE; sys.n_atoms()];
        let filter = pair_filter(&sys, &ids, &disp, &mut first);
        assert!(
            first.iter().all(|&f| f == NONE),
            "scratch handed back clean"
        );
        assert_eq!(filter.excluded(0), [1, 2, 4, 5, 7]);
        assert_eq!(filter.excluded(5), [0, 1, 4, 7]);
        assert_eq!(filter.excluded(3), [] as [u32; 0]);
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                assert_eq!(
                    filter.keeps(i, j),
                    !sys.is_excluded(ids[i] as usize, ids[j] as usize),
                    "locals ({i}, {j})"
                );
            }
        }
        // Two copies of one atom are not each other's exclusion.
        assert!(filter.keeps(1, 4) && filter.keeps(4, 7));
    }

    #[test]
    fn homes_partition_all_atoms() {
        let sys = test_system(3000);
        let grid = DdGrid::new([2, 2, 1]);
        let part = build_partition(&sys, &grid, 0.8);
        let mut seen = vec![0u32; sys.n_atoms()];
        for r in &part.ranks {
            for &g in &r.global_ids[..r.n_home] {
                seen[g as usize] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "home sets must partition atoms"
        );
    }

    #[test]
    fn home_atoms_inside_domain() {
        let sys = test_system(3000);
        let grid = DdGrid::new([2, 2, 1]);
        let part = build_partition(&sys, &grid, 0.8);
        for r in &part.ranks {
            let (lo, hi) = domain(&part, r, sys.pbc.lengths());
            for i in 0..r.n_home {
                let p = r.build_positions[i];
                for d in 0..3 {
                    assert!(
                        p[d] >= lo[d] - 1e-4 && p[d] < hi[d] + 1e-4,
                        "rank {} atom {i} at {p:?} outside [{:?}, {:?})",
                        r.rank,
                        lo,
                        hi
                    );
                }
            }
        }
    }

    #[test]
    fn dep_offset_partitions_home_and_forwarded() {
        let sys = test_system(6000);
        let grid = DdGrid::new([2, 2, 2]);
        let part = build_partition(&sys, &grid, 0.8);
        for r in &part.ranks {
            let origins: HashMap<usize, usize> = arrivals(r).collect();
            for pd in &r.pulses {
                for &i in pd.independent() {
                    assert!(
                        (i as usize) < r.n_home,
                        "independent entry must be a home atom"
                    );
                }
                for &i in pd.dependent() {
                    assert!(
                        (i as usize) >= r.n_home,
                        "dependent entry must be forwarded"
                    );
                    let origin = origins[&(i as usize)];
                    assert!(pd.dep_pulses.contains(&origin));
                    assert!(origin < pd.global_id, "dependency must be an earlier pulse");
                }
            }
        }
    }

    #[test]
    fn first_pulse_has_no_dependencies() {
        let sys = test_system(6000);
        let grid = DdGrid::new([2, 2, 2]);
        let part = build_partition(&sys, &grid, 0.8);
        for r in &part.ranks {
            assert!(r.pulses[0].dep_pulses.is_empty());
            assert_eq!(r.pulses[0].dep_offset, r.pulses[0].send_count());
        }
    }

    #[test]
    fn recv_counts_match_peer_send_counts() {
        let sys = test_system(6000);
        let grid = DdGrid::new([2, 2, 2]);
        let part = build_partition(&sys, &grid, 0.8);
        for r in &part.ranks {
            for pd in &r.pulses {
                let peer = &part.ranks[pd.recv_rank];
                assert_eq!(pd.recv_count, peer.pulses[pd.global_id].send_count());
                assert_eq!(
                    peer.pulses[pd.global_id].send_rank, r.rank,
                    "my up-neighbour's down-neighbour must be me"
                );
                // And my send lands where my down neighbour expects it.
                let down = &part.ranks[pd.send_rank];
                assert_eq!(pd.remote_recv_offset, down.pulses[pd.global_id].recv_offset);
            }
        }
    }

    #[test]
    fn coordinate_exchange_reproduces_build_positions() {
        // After the reference exchange, every rank's halo coordinates must
        // equal the DD-frame positions captured at build time.
        let sys = test_system(6000);
        let grid = DdGrid::new([2, 2, 1]);
        let part = build_partition(&sys, &grid, 0.8);
        let mut coords: Vec<Vec<Vec3>> = part
            .ranks
            .iter()
            .map(|r| {
                let mut c = r.build_positions.clone();
                // Poison the halo region to prove the exchange fills it.
                for v in c[r.n_home..].iter_mut() {
                    *v = Vec3::splat(f32::NAN);
                }
                c
            })
            .collect();
        reference_coordinate_exchange(&part, &mut coords);
        for r in &part.ranks {
            for (i, (&got, &want)) in coords[r.rank].iter().zip(&r.build_positions).enumerate() {
                assert!(
                    (got - want).norm() < 1e-6,
                    "rank {} local {i}: {got:?} != {want:?}",
                    r.rank
                );
            }
        }
    }

    #[test]
    fn every_pair_within_reach_computable_on_exactly_one_rank() {
        // Under the eighth-shell zone-pair rule (disjoint displacement
        // supports), every global pair within r_comm must be computable on
        // exactly one rank — including corner pairs that materialize only as
        // halo-halo pairs on the component-wise-min rank.
        use halox_md::pairlist::eighth_shell_rule;
        use halox_md::Frame;
        let sys = test_system(3000);
        let grid = DdGrid::new([2, 2, 1]);
        let r_comm = 0.8;
        let part = build_partition(&sys, &grid, r_comm);
        let locals: Vec<_> = part.ranks.iter().map(first_copies).collect();
        let frame = Frame::for_decomposition(&sys.pbc, grid.dims);
        let n = sys.n_atoms();
        let mut checked = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let d2 = sys.pbc.dist2(sys.positions[i], sys.positions[j]);
                if d2 >= r_comm * r_comm {
                    continue;
                }
                // A pair is computable on a rank when both copies are local,
                // within reach under the rank's DD-frame metric, and the
                // eighth-shell zone rule admits it.
                let mut count = 0;
                for (r, local) in part.ranks.iter().zip(&locals) {
                    let (Some(&li), Some(&lj)) = (local.get(&(i as u32)), local.get(&(j as u32)))
                    else {
                        continue;
                    };
                    let (li, lj) = (li as usize, lj as usize);
                    let in_reach =
                        frame.dist2(r.build_positions[li], r.build_positions[lj]) < r_comm * r_comm;
                    if in_reach && eighth_shell_rule(&r.displacement, li, lj) {
                        count += 1;
                    }
                }
                assert_eq!(
                    count,
                    1,
                    "pair ({i},{j}) dist {} computable on {count} ranks",
                    d2.sqrt()
                );
                checked += 1;
            }
        }
        assert!(checked > 1000, "test exercised too few pairs: {checked}");
    }

    #[test]
    fn corner_pairs_exist_in_2d() {
        // Demonstrate that the zone-pair (halo-halo) case actually occurs:
        // some pair within r_comm must be computable only with both copies
        // displaced (in different dims) on the computing rank.
        use halox_md::pairlist::eighth_shell_rule;
        let sys = test_system(6000);
        let grid = DdGrid::new([2, 2, 1]);
        let part = build_partition(&sys, &grid, 0.8);
        let locals: Vec<_> = part.ranks.iter().map(first_copies).collect();
        let n = sys.n_atoms();
        let mut found = false;
        'outer: for i in 0..n {
            for j in (i + 1)..n {
                if sys.pbc.dist2(sys.positions[i], sys.positions[j]) >= 0.64 {
                    continue;
                }
                for (r, local) in part.ranks.iter().zip(&locals) {
                    let (Some(&li), Some(&lj)) = (local.get(&(i as u32)), local.get(&(j as u32)))
                    else {
                        continue;
                    };
                    let (li, lj) = (li as usize, lj as usize);
                    if eighth_shell_rule(&r.displacement, li, lj)
                        && r.displacement[li] != [0; 3]
                        && r.displacement[lj] != [0; 3]
                    {
                        found = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(found, "expected at least one corner (halo-halo) zone pair");
    }

    #[test]
    fn displacement_matches_origin_dim() {
        let sys = test_system(6000);
        let grid = DdGrid::new([2, 2, 2]);
        let part = build_partition(&sys, &grid, 0.8);
        for r in &part.ranks {
            for i in 0..r.n_home {
                assert_eq!(r.displacement[i], [0; 3]);
            }
            for (i, origin) in arrivals(r) {
                let d = r.displacement[i];
                let pulse_dim = r.pulses[origin].dim;
                assert!(
                    d[pulse_dim] >= 1,
                    "halo entry displacement must include its arrival dim"
                );
                let total: u8 = d.iter().sum();
                assert!((1..=3).contains(&total));
            }
        }
    }

    #[test]
    fn bonded_terms_assigned_exactly_once_and_local() {
        let sys = test_system(3000);
        let grid = DdGrid::new([2, 2, 1]);
        let part = build_partition(&sys, &grid, 0.8);
        let total_bonds: usize = part.ranks.iter().map(|r| r.bonds.len()).sum();
        let total_angles: usize = part.ranks.iter().map(|r| r.angles.len()).sum();
        assert_eq!(total_bonds, sys.bonds.len());
        assert_eq!(total_angles, sys.angles.len());
        for r in &part.ranks {
            for b in &r.bonds {
                assert!((b.i as usize) < r.n_local() && (b.j as usize) < r.n_local());
            }
            for a in &r.angles {
                assert!((a.i as usize) < r.n_local());
                assert!((a.j as usize) < r.n_local());
                assert!((a.k_atom as usize) < r.n_local());
            }
        }
    }

    #[test]
    fn single_rank_partition_is_trivial() {
        let sys = test_system(900);
        let grid = DdGrid::new([1, 1, 1]);
        let part = build_partition(&sys, &grid, 0.8);
        assert_eq!(part.total_pulses(), 0);
        assert_eq!(part.ranks[0].n_home, sys.n_atoms());
        assert_eq!(part.ranks[0].n_halo(), 0);
        assert_eq!(part.ranks[0].bonds.len(), sys.bonds.len());
    }

    #[test]
    fn pulse_order_is_z_then_y_then_x() {
        let sys = test_system(6000);
        let grid = DdGrid::new([2, 2, 2]);
        let part = build_partition(&sys, &grid, 0.8);
        let dims: Vec<usize> = part.ranks[0].pulses.iter().map(|p| p.dim).collect();
        assert_eq!(dims, vec![2, 1, 0]);
    }

    #[test]
    fn wrap_shifts_applied_on_boundary_ranks() {
        let sys = test_system(6000);
        let grid = DdGrid::new([4, 1, 1]);
        let part = build_partition(&sys, &grid, 0.8);
        for r in &part.ranks {
            let c = part.grid.coords_of(r.rank);
            let pd = &r.pulses[0];
            if c[0] == 0 {
                assert!(pd.shift.x > 0.0, "rank at x=0 must shift +L");
            } else {
                assert_eq!(pd.shift, Vec3::ZERO);
            }
        }
    }

    #[test]
    fn force_exchange_returns_all_halo_contributions() {
        // Give every local atom force 1.0 on every rank; after the force
        // exchange each *home* atom must have 1.0 (its own) plus 1.0 for
        // every rank that held it as halo.
        let sys = test_system(3000);
        let grid = DdGrid::new([2, 2, 1]);
        let part = build_partition(&sys, &grid, 0.8);
        let mut forces: Vec<Vec<Vec3>> = part
            .ranks
            .iter()
            .map(|r| vec![Vec3::new(1.0, 0.0, 0.0); r.n_local()])
            .collect();
        // Count halo copies per global atom.
        let mut copies = vec![0u32; sys.n_atoms()];
        for r in &part.ranks {
            for &g in &r.global_ids[r.n_home..] {
                copies[g as usize] += 1;
            }
        }
        reference_force_exchange(&part, &mut forces);
        for r in &part.ranks {
            for i in 0..r.n_home {
                let g = r.global_ids[i] as usize;
                let want = 1.0 + copies[g] as f32;
                let got = forces[r.rank][i].x;
                assert!(
                    (got - want).abs() < 1e-4,
                    "atom {g} on rank {}: force {got} != {want}",
                    r.rank
                );
            }
        }
    }

    #[test]
    fn three_pulse_dimension_supported() {
        // Domains of ~0.44 nm with r_comm 1.1 need third-neighbour pulses.
        let sys = test_system(3000); // edge ~3.1 nm
        let grid = DdGrid::new([7, 1, 1]);
        let part = build_partition(&sys, &grid, 1.1);
        assert_eq!(part.total_pulses(), 3);
        // Later pulses must carry only forwarded entries, chained across
        // both earlier pulses.
        for r in &part.ranks {
            assert_eq!(r.pulses[2].dep_offset, 0);
            assert!(r.pulses[2].send_count() > 0);
        }
        let mut coords: Vec<Vec<Vec3>> = part
            .ranks
            .iter()
            .map(|r| r.build_positions.clone())
            .collect();
        reference_coordinate_exchange(&part, &mut coords);
        for r in &part.ranks {
            for (got, want) in coords[r.rank].iter().zip(&r.build_positions) {
                assert!((*got - *want).norm() < 1e-6);
            }
        }
    }

    #[test]
    fn pulse_chain_longer_than_grid_is_typed_error() {
        use crate::bounds::DdBounds;
        // A very thin first cell forces 4 pulses over only 3 cells: the
        // forwarding chain would wrap the torus.
        let sys = test_system(3000); // edge ~3.1 nm
        let grid = DdGrid::new([3, 1, 1]);
        let mut bounds = DdBounds::uniform(&grid);
        bounds.fracs[0] = vec![0.0, 0.08, 0.55, 1.0];
        let err = try_build_partition_with(&sys, &grid, &bounds, 0.8, None).unwrap_err();
        assert!(
            matches!(
                err,
                PlanError::PulsesExceedGrid {
                    dim: 0,
                    cells: 3,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("wrap the torus"));
    }

    #[test]
    fn non_uniform_bounds_build_valid_plans() {
        use crate::bounds::DdBounds;
        use halox_md::pairlist::eighth_shell_rule;
        use halox_md::Frame;
        let sys = test_system(3000);
        let grid = DdGrid::new([2, 2, 1]);
        let r_comm = 0.8;
        let mut bounds = DdBounds::uniform(&grid);
        // Skew both decomposed dims.
        bounds.fracs[0][1] = 0.38;
        bounds.fracs[1][1] = 0.61;
        let part = try_build_partition_with(&sys, &grid, &bounds, r_comm, None).unwrap();
        assert_eq!(part.bounds, bounds);
        // Home atoms respect the shifted domains.
        for r in &part.ranks {
            let (lo, hi) = domain(&part, r, sys.pbc.lengths());
            for i in 0..r.n_home {
                let p = r.build_positions[i];
                for d in 0..3 {
                    assert!(p[d] >= lo[d] - 1e-4 && p[d] < hi[d] + 1e-4);
                }
            }
        }
        // And the pair-coverage invariant still holds exactly.
        let locals: Vec<_> = part.ranks.iter().map(first_copies).collect();
        let frame = Frame::for_decomposition(&sys.pbc, grid.dims);
        let n = sys.n_atoms();
        let mut checked = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if sys.pbc.dist2(sys.positions[i], sys.positions[j]) >= r_comm * r_comm {
                    continue;
                }
                let mut count = 0;
                for (r, local) in part.ranks.iter().zip(&locals) {
                    let (Some(&li), Some(&lj)) = (local.get(&(i as u32)), local.get(&(j as u32)))
                    else {
                        continue;
                    };
                    let (li, lj) = (li as usize, lj as usize);
                    let in_reach =
                        frame.dist2(r.build_positions[li], r.build_positions[lj]) < r_comm * r_comm;
                    if in_reach && eighth_shell_rule(&r.displacement, li, lj) {
                        count += 1;
                    }
                }
                assert_eq!(count, 1, "pair ({i},{j}) computable on {count} ranks");
                checked += 1;
            }
        }
        assert!(checked > 1000, "exercised too few pairs: {checked}");
    }

    #[test]
    fn pinned_pulse_floor_pads_with_empty_pulses() {
        use crate::bounds::DdBounds;
        // One pulse suffices, but the engine pins two for slot stability.
        let sys = test_system(3000);
        let grid = DdGrid::new([2, 1, 1]);
        let uniform_err =
            try_build_partition_with(&sys, &grid, &DdBounds::uniform(&grid), 0.8, Some([2, 1, 1]))
                .unwrap_err();
        // [2,1,1] cannot hold 2 pulses; use a 4-cell grid instead.
        assert!(matches!(uniform_err, PlanError::PulsesExceedGrid { .. }));
        let grid = DdGrid::new([4, 1, 1]);
        let one = build_partition(&sys, &grid, 0.7);
        assert_eq!(one.total_pulses(), 1);
        let padded =
            try_build_partition_with(&sys, &grid, &DdBounds::uniform(&grid), 0.7, Some([2, 1, 1]))
                .unwrap();
        assert_eq!(padded.total_pulses(), 2);
        // The padded pulse forwards only what the send criterion still
        // admits (nothing new at this r_comm), and the exchange stays
        // correct end to end.
        let mut coords: Vec<Vec<Vec3>> = padded
            .ranks
            .iter()
            .map(|r| r.build_positions.clone())
            .collect();
        reference_coordinate_exchange(&padded, &mut coords);
        for r in &padded.ranks {
            for (got, want) in coords[r.rank].iter().zip(&r.build_positions) {
                assert!((*got - *want).norm() < 1e-6);
            }
        }
        // Same homes either way.
        for (a, b) in one.ranks.iter().zip(&padded.ranks) {
            assert_eq!(a.global_ids[..a.n_home], b.global_ids[..b.n_home]);
        }
    }

    #[test]
    fn two_pulse_dimension_supported() {
        // Thin domains in x force a second-neighbour pulse.
        let sys = test_system(3000); // edge ~3.1 nm
        let grid = DdGrid::new([4, 1, 1]); // domains 0.78 nm < r_comm
        let part = build_partition(&sys, &grid, 0.8);
        assert_eq!(part.total_pulses(), 2);
        // Second pulse must carry (only) forwarded entries.
        let any_dep = part.ranks.iter().any(|r| {
            let p1 = &r.pulses[1];
            p1.dep_offset == 0 && p1.send_count() > 0
        });
        assert!(any_dep, "expected second pulses made of forwarded atoms");
        // And coordinates still exchange correctly.
        let mut coords: Vec<Vec<Vec3>> = part
            .ranks
            .iter()
            .map(|r| r.build_positions.clone())
            .collect();
        reference_coordinate_exchange(&part, &mut coords);
        for r in &part.ranks {
            for (got, want) in coords[r.rank].iter().zip(&r.build_positions) {
                assert!((*got - *want).norm() < 1e-6);
            }
        }
    }
}
