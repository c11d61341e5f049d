//! Per-rank non-bonded evaluation: the cluster-pair list's lifecycle and
//! the local/halo tile split that backs compute–communication overlap
//! (DESIGN.md §3.4). The cluster-pair SoA kernel is the only one the engine
//! runs; the list makes its rebuild decision through
//! `halox_md::pairlist::Staleness`.
//!
//! The evaluator is the single place both executors (the serial reference
//! driver and the threaded per-PE loops) get their non-bonded forces from,
//! which is what keeps them bitwise identical:
//!
//! * exactly one `needs_rebuild` decision per force round, made *after*
//!   the coordinate halo is in place (so serial and threaded see identical
//!   inputs and consume identical fresh-skip states);
//! * the local (home–home) partition may be evaluated optimistically
//!   during the overlap window — before halo arrivals — via
//!   [`NbEvaluator::compute_local_overlapped`]. That pass reads only home
//!   coordinates (arrivals write only the halo tail) and uses the retained
//!   list, so when the post-arrival staleness check passes, the partial is
//!   exactly what the non-overlapped order would have produced and is
//!   folded as-is; when the list turns out stale the partial is discarded
//!   and the round recomputes from the fresh list;
//! * the caller says per round whether it wants energy and virial: rounds
//!   that record none run the kernel's force-only flavour, whose forces are
//!   bitwise the energy kernel's.

use crate::devtimer::PhaseTimer;
use halox_md::cluster::{
    compute_nonbonded_cluster_forces, compute_nonbonded_clusters, ClusterPairList, NbPartition,
};
use halox_md::pairlist::PairFilter;
use halox_md::{Frame, NonbondedParams, SoaCoords, SoaForces, Vec3};

/// Owns the per-rank pair-list state.
#[derive(Default)]
pub(crate) struct NbEvaluator {
    /// `None` until the first round of a segment builds it.
    list: Option<ClusterPairList>,
    /// Lane-space scratch reused across rounds (no per-step allocation).
    coords: SoaCoords,
    lane_forces: SoaForces,
    /// Local-partition `(energy, virial)` computed during the overlap
    /// window, pending the staleness verdict of this round's list (zeros
    /// from a force-only round).
    pending_local: Option<(f64, f64)>,
    /// Pair interactions in the list used by the most recent
    /// [`NbEvaluator::compute`] round (local + halo partitions).
    last_pairs: u64,
}

impl NbEvaluator {
    /// Pair interactions evaluated by the most recent
    /// [`NbEvaluator::compute`] round — the deterministic half of the DLB
    /// counter metric. The count comes from the pair *list*, so it is
    /// identical with or without the overlap window and across executors.
    pub fn last_pair_count(&self) -> u64 {
        self.last_pairs
    }

    /// True when an overlap window can do useful work: a retained list (the
    /// segment's first round has nothing to reuse).
    pub fn can_overlap(&self) -> bool {
        self.list.is_some()
    }

    /// Evaluate the local (home–home) tile partition using only home
    /// coordinates — legal while the coordinate halo exchange is still in
    /// flight. The partial energies and lane forces are held internally
    /// until [`NbEvaluator::compute`] validates the list for this round,
    /// which must pass the same `energy` flag.
    pub fn compute_local_overlapped(
        &mut self,
        frame: &Frame,
        positions: &[Vec3],
        params: &NonbondedParams,
        energy: bool,
        timer: &mut PhaseTimer,
    ) {
        debug_assert!(self.can_overlap());
        let Some(cl) = &self.list else {
            return;
        };
        let coords = &mut self.coords;
        let lanes = &mut self.lane_forces;
        lanes.reset(cl.n_lanes());
        timer.time("pack_overlap", || {
            cl.pack_coords(positions, coords, cl.home_clusters())
        });
        let res = timer.time("nb_local", || {
            tiles(energy, frame, coords, cl, NbPartition::Local, params, lanes)
        });
        self.pending_local = Some(res);
    }

    /// One full non-bonded force round over the complete (home + halo)
    /// coordinate array: staleness check, rebuild if needed, kernel
    /// evaluation, force accumulation into `forces` (additive). Returns
    /// `(energy, virial)`; with `energy` false the kernel runs its
    /// force-only flavour and returns zeros (the forces are bitwise the
    /// same either way).
    #[allow(clippy::too_many_arguments)]
    pub fn compute(
        &mut self,
        frame: &Frame,
        positions: &[Vec3],
        kinds: &[halox_md::AtomKind],
        n_home: usize,
        r_list: f32,
        buffer: f32,
        filter: &(impl PairFilter + ?Sized),
        params: &NonbondedParams,
        energy: bool,
        forces: &mut [Vec3],
        timer: &mut PhaseTimer,
    ) -> (f64, f64) {
        let cl = match &mut self.list {
            Some(cl) if !cl.needs_rebuild(positions, buffer) => cl,
            slot => {
                // Any overlapped partial was computed against the old list:
                // discard and recompute from scratch.
                self.pending_local = None;
                slot.insert(timer.time("pairlist", || {
                    ClusterPairList::build(frame, positions, kinds, n_home, r_list, filter)
                }))
            }
        };
        self.last_pairs = cl.n_pairs() as u64;
        let coords = &mut self.coords;
        let lanes = &mut self.lane_forces;
        let (e_l, w_l) = match self.pending_local.take() {
            // Overlap window already did the local partition; the lane
            // accumulators hold its forces.
            Some(res) => res,
            None => {
                lanes.reset(cl.n_lanes());
                timer.time("pack", || {
                    cl.pack_coords(positions, coords, cl.home_clusters())
                });
                timer.time("nb_local", || {
                    tiles(energy, frame, coords, cl, NbPartition::Local, params, lanes)
                })
            }
        };
        timer.time("pack", || {
            cl.pack_coords(positions, coords, cl.halo_clusters())
        });
        let (e_h, w_h) = timer.time("nb_halo", || {
            tiles(energy, frame, coords, cl, NbPartition::Halo, params, lanes)
        });
        cl.fold_forces(lanes, forces);
        (e_l + e_h, w_l + w_h)
    }
}

/// One tile partition through the energy kernel or its force-only flavour.
fn tiles(
    energy: bool,
    frame: &Frame,
    coords: &SoaCoords,
    list: &ClusterPairList,
    which: NbPartition,
    params: &NonbondedParams,
    lanes: &mut SoaForces,
) -> (f64, f64) {
    if energy {
        compute_nonbonded_clusters(frame, coords, list, which, params, lanes)
    } else {
        compute_nonbonded_cluster_forces(frame, coords, list, which, params, lanes);
        (0.0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halox_md::pairlist::eighth_shell_rule;
    use halox_md::{GrappaBuilder, Vec3};

    fn assert_forces_bitwise(a: &[Vec3], b: &[Vec3], label: &str) {
        assert_eq!(a.len(), b.len(), "{label}");
        for (i, (p, q)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()],
                [q.x.to_bits(), q.y.to_bits(), q.z.to_bits()],
                "{label}: atom {i}"
            );
        }
    }

    /// The threaded-equivalence argument in miniature: a round evaluated
    /// with the overlap window (local partition before "arrival") is
    /// bitwise identical to the same round evaluated in one pass — energy
    /// round and force-only round alike, and the two flavours' forces are
    /// bitwise each other's.
    #[test]
    fn overlapped_round_is_bitwise_identical() {
        let sys = GrappaBuilder::new(1200).seed(51).build();
        let frame = Frame::for_decomposition(&sys.pbc, [2, 1, 1]);
        let n = sys.n_atoms();
        let n_home = 900;
        let mut disp = vec![[0u8; 3]; n];
        for d in disp.iter_mut().skip(n_home) {
            *d = [1, 0, 0];
        }
        let sys_ref = &sys;
        let disp_ref = &disp;
        let rule = move |a: usize, b: usize| {
            eighth_shell_rule(disp_ref, a, b) && !sys_ref.is_excluded(a, b)
        };
        let params = NonbondedParams::new(0.6);
        // Round 2 drifts everything slightly (inside the buffer).
        let moved: Vec<Vec3> = sys
            .positions
            .iter()
            .enumerate()
            .map(|(i, p)| *p + Vec3::new(0.001, -0.0005, 0.0007) * ((i % 3) as f32))
            .collect();

        let mut round_forces = Vec::new();
        for energy in [true, false] {
            let mut timer = PhaseTimer::new();
            let round = |ev: &mut NbEvaluator, pos: &[Vec3], timer: &mut PhaseTimer| {
                let mut f = vec![Vec3::ZERO; n];
                let r = ev.compute(
                    &frame, pos, &sys.kinds, n_home, 0.7, 0.1, &rule, &params, energy, &mut f,
                    timer,
                );
                (r, f)
            };
            // Round 1 on both evaluators builds the list.
            let mut plain = NbEvaluator::default();
            let mut overlapped = NbEvaluator::default();
            round(&mut plain, &sys.positions, &mut timer);
            round(&mut overlapped, &sys.positions, &mut timer);
            assert!(overlapped.can_overlap());

            // Round 2: plain vs overlap-window order.
            let (r_plain, f_plain) = round(&mut plain, &moved, &mut timer);
            overlapped.compute_local_overlapped(&frame, &moved, &params, energy, &mut timer);
            let (r_over, f_over) = round(&mut overlapped, &moved, &mut timer);
            assert_eq!(r_plain.0.to_bits(), r_over.0.to_bits());
            assert_eq!(r_plain.1.to_bits(), r_over.1.to_bits());
            assert_eq!(r_plain == (0.0, 0.0), !energy, "energy {energy}");
            assert_forces_bitwise(&f_plain, &f_over, &format!("energy {energy}"));
            // Timer saw the overlap-specific phase.
            assert!(timer.total("pack_overlap") > std::time::Duration::ZERO);
            assert!(timer.total("nb_local") > std::time::Duration::ZERO);
            assert!(timer.total("nb_halo") > std::time::Duration::ZERO);
            round_forces.push(f_over);
        }
        assert_forces_bitwise(&round_forces[0], &round_forces[1], "energy vs force-only");
    }

    /// A stale list discards the overlapped partial instead of folding
    /// forces computed against dead tile indices, in either flavour.
    #[test]
    fn stale_list_discards_overlapped_partial() {
        let sys = GrappaBuilder::new(900).seed(52).build();
        let frame = Frame::for_decomposition(&sys.pbc, [2, 1, 1]);
        let n = sys.n_atoms();
        let n_home = 700;
        let all = |_: usize, _: usize| true;
        let params = NonbondedParams::new(0.6);
        let mut timer = PhaseTimer::new();
        // Move one atom past buffer/2 so the next round must rebuild.
        let mut moved = sys.positions.clone();
        moved[3].x += 0.2;
        for energy in [true, false] {
            let round = |ev: &mut NbEvaluator, pos: &[Vec3], timer: &mut PhaseTimer| {
                let mut f = vec![Vec3::ZERO; n];
                let r = ev.compute(
                    &frame, pos, &sys.kinds, n_home, 0.7, 0.1, &all, &params, energy, &mut f, timer,
                );
                (r, f)
            };
            let mut ev = NbEvaluator::default();
            // Two rounds on unmoved positions: the first builds the list,
            // the second consumes the fresh-skip of `needs_rebuild` (a
            // just-built list is trusted for one step — DESIGN.md §3.4).
            for _ in 0..2 {
                round(&mut ev, &sys.positions, &mut timer);
            }
            ev.compute_local_overlapped(&frame, &moved, &params, energy, &mut timer);
            let (r1, f1) = round(&mut ev, &moved, &mut timer);
            // Oracle: a fresh evaluator with no overlap shenanigans. Its
            // first compute builds a new list from `moved` — same as the
            // rebuild.
            let (r2, f2) = round(&mut NbEvaluator::default(), &moved, &mut timer);
            assert_eq!(r1.0.to_bits(), r2.0.to_bits());
            assert_forces_bitwise(&f1, &f2, &format!("energy {energy}"));
        }
    }
}
