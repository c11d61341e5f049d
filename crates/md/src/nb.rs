//! The non-bonded evaluator: the one owner of a cluster-pair list's
//! lifecycle — build, staleness check, coordinate pack, the local then the
//! halo tile partition, force fold (DESIGN.md §3.4). The engine keeps one
//! per rank; the minimiser and [`crate::ReferenceSimulation`] keep one over
//! the whole system as a rank where every atom is home (its halo partition
//! is empty).
//!
//! The evaluator is the single place both engine executors (the serial
//! reference driver and the threaded per-PE loops) get their non-bonded
//! forces from, which is what keeps them bitwise identical:
//!
//! * exactly one Verlet verdict per force round, made *after* the
//!   coordinate halo is in place, so serial and threaded see identical
//!   inputs: a stale list is rebuilt, and a list some coordinate was
//!   wrapped under is demoted — its image bits cleared, so the kernel takes
//!   the minimum image on every tile ([`crate::pairlist::Verdict`]). No
//!   caller has to promise not to wrap;
//! * the local (home–home) partition may be evaluated optimistically
//!   during the overlap window — before halo arrivals — via
//!   [`NbEvaluator::compute_local_overlapped`]. That pass reads only home
//!   coordinates (arrivals write only the halo tail) and uses the retained
//!   list, so when the post-arrival verdict is that the list holds, the
//!   partial is exactly what the non-overlapped order would have produced
//!   and is folded as-is; when the list turns out stale or wrapped the
//!   partial is discarded and the round recomputes;
//! * the caller says per round whether it wants energy and virial: rounds
//!   that record none run the kernel's force-only flavour, whose forces are
//!   bitwise the energy kernel's.
//!
//! Phase time goes to a [`PhaseClock`]; the whole-system callers pass `()`.

use crate::cluster::{
    compute_nonbonded_cluster_forces, compute_nonbonded_clusters, ClusterPairList, NbPartition,
};
use crate::forces::NonbondedParams;
use crate::frame::Frame;
use crate::pairlist::{PairFilter, Verdict};
use crate::soa::{SoaCoords, SoaForces};
use crate::topology::AtomKind;
use crate::vec3::Vec3;

/// Where the evaluator books its phases: `verdict`, `pairlist`, `pack`,
/// `pack_overlap`, `nb_local` and `nb_halo`. `()` books nothing.
pub trait PhaseClock {
    /// Run `f`, booking its time under `phase`.
    fn time<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T;
}

impl PhaseClock for () {
    fn time<T>(&mut self, _: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }
}

/// Owns one rank's pair-list state.
#[derive(Default)]
pub struct NbEvaluator {
    /// `None` until the first round builds it.
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
    /// True when the next [`NbEvaluator::compute`] rebuilds the list: there
    /// is none, or some atom has moved more than `buffer / 2` since it was
    /// built.
    pub(crate) fn stale(&self, positions: &[Vec3], buffer: f32) -> bool {
        self.list
            .as_ref()
            .is_none_or(|cl| cl.needs_rebuild(positions, buffer))
    }

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
        clock: &mut impl PhaseClock,
    ) {
        debug_assert!(self.can_overlap());
        let Some(cl) = &self.list else {
            return;
        };
        let coords = &mut self.coords;
        let lanes = &mut self.lane_forces;
        lanes.reset(cl.n_lanes());
        clock.time("pack_overlap", || {
            cl.pack_coords(positions, coords, cl.home_clusters())
        });
        let res = clock.time("nb_local", || {
            tiles(energy, frame, coords, cl, NbPartition::Local, params, lanes)
        });
        self.pending_local = Some(res);
    }

    /// One full non-bonded force round over the complete (home + halo)
    /// coordinate array: Verlet verdict, rebuild if stale or demote if
    /// wrapped, kernel evaluation, force accumulation into `forces`
    /// (additive). Returns `(energy, virial)`; with `energy` false the
    /// kernel runs its force-only flavour and returns zeros (the forces are
    /// bitwise the same either way).
    #[allow(clippy::too_many_arguments)]
    pub fn compute(
        &mut self,
        frame: &Frame,
        positions: &[Vec3],
        kinds: &[AtomKind],
        n_home: usize,
        r_list: f32,
        buffer: f32,
        filter: &(impl PairFilter + ?Sized),
        params: &NonbondedParams,
        energy: bool,
        forces: &mut [Vec3],
        clock: &mut impl PhaseClock,
    ) -> (f64, f64) {
        let verdict = clock.time("verdict", || match &self.list {
            Some(cl) => cl.staleness.verdict(positions, buffer),
            None => Verdict::Stale,
        });
        if verdict != Verdict::Holds {
            // Any overlapped partial was computed against the old list, or
            // through image bits a wrap has broken: discard and recompute.
            self.pending_local = None;
        }
        let cl = match (&mut self.list, verdict) {
            (Some(cl), Verdict::Holds) => cl,
            // A wrap demotes the list: every tile takes the minimum image.
            (Some(cl), Verdict::Wrapped) => {
                cl.clear_image_bits();
                cl
            }
            (slot, _) => {
                let cl = slot.insert(clock.time("pairlist", || {
                    ClusterPairList::build(frame, positions, kinds, n_home, r_list, filter)
                }));
                // The list only changes here, so neither does its count.
                self.last_pairs = cl.n_pairs() as u64;
                cl
            }
        };
        let coords = &mut self.coords;
        let lanes = &mut self.lane_forces;
        let (e_l, w_l) = match self.pending_local.take() {
            // Overlap window already did the local partition; the lane
            // accumulators hold its forces.
            Some(res) => res,
            None => {
                lanes.reset(cl.n_lanes());
                clock.time("pack", || {
                    cl.pack_coords(positions, coords, cl.home_clusters())
                });
                clock.time("nb_local", || {
                    tiles(energy, frame, coords, cl, NbPartition::Local, params, lanes)
                })
            }
        };
        clock.time("pack", || {
            cl.pack_coords(positions, coords, cl.halo_clusters())
        });
        let (e_h, w_h) = clock.time("nb_halo", || {
            tiles(energy, frame, coords, cl, NbPartition::Halo, params, lanes)
        });
        cl.fold_forces(lanes, forces);
        (e_l + e_h, w_l + w_h)
    }

    /// The list the last [`NbEvaluator::compute`] ran on.
    #[cfg(test)]
    pub(crate) fn list(&self) -> Option<&ClusterPairList> {
        self.list.as_ref()
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
    use crate::pairlist::{eighth_shell_rule, PairList, ZoneFilter};
    use crate::system::GrappaBuilder;
    use std::collections::BTreeMap;
    use std::time::{Duration, Instant};

    /// A clock that keeps each phase's total, so tests can see which
    /// phases a round ran.
    #[derive(Default)]
    struct Totals(BTreeMap<&'static str, Duration>);

    impl PhaseClock for Totals {
        fn time<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T {
            let t0 = Instant::now();
            let out = f();
            *self.0.entry(phase).or_default() += t0.elapsed();
            out
        }
    }

    impl Totals {
        fn total(&self, phase: &str) -> Duration {
            self.0.get(phase).copied().unwrap_or_default()
        }
    }

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

    /// One rebuild rule: a list asked for the first time after its build
    /// scans the displacements like on every later call, so an atom that
    /// moved past half the buffer makes it stale at once.
    #[test]
    fn a_moved_atom_makes_a_just_built_list_stale() {
        let sys = GrappaBuilder::new(600).seed(53).build();
        let frame = Frame::fully_periodic(&sys.pbc);
        let (n, buffer) = (sys.n_atoms(), 0.1);
        let all = |_: usize, _: usize| true;
        let mut moved = sys.positions.clone();
        moved[3].x += 0.2;

        let cl = ClusterPairList::build(&frame, &sys.positions, &sys.kinds, n, 0.8, &all);
        assert!(cl.needs_rebuild(&moved, buffer));
        let pl = PairList::build(&sys.pbc, &sys.positions, 0.8, &all);
        assert!(pl.needs_rebuild(&moved, buffer));

        let mut ev = NbEvaluator::default();
        assert!(ev.stale(&sys.positions, buffer), "no list yet");
        let mut f = vec![Vec3::ZERO; n];
        let params = NonbondedParams::new(0.7);
        let (pos, kinds) = (&sys.positions, &sys.kinds);
        ev.compute(
            &frame,
            pos,
            kinds,
            n,
            0.8,
            buffer,
            &all,
            &params,
            false,
            &mut f,
            &mut (),
        );
        assert!(!ev.stale(&sys.positions, buffer));
        assert!(ev.stale(&moved, buffer));
        // Asking changes nothing.
        assert!(ev.stale(&moved, buffer));
    }

    /// A wrap under a live list demotes it instead of trusting its image
    /// bits: an atom that drifts across the x = 0 face and is wrapped to
    /// the top of the box gets, bit for bit, the forces of the same list
    /// with every bit cleared — not the raw difference to partners a box
    /// length away.
    #[test]
    fn a_wrap_under_a_live_list_clears_its_image_bits() {
        let sys = GrappaBuilder::new(1500).seed(54).build();
        let frame = Frame::fully_periodic(&sys.pbc);
        let (n, buffer) = (sys.n_atoms(), 0.1);
        let filter = ZoneFilter::whole_system(&sys);
        let params = NonbondedParams::new(0.7);
        let round = |ev: &mut NbEvaluator, pos: &[Vec3]| {
            let mut f = vec![Vec3::ZERO; n];
            let (kinds, clock) = (&sys.kinds, &mut ());
            let r = ev.compute(
                &frame, pos, kinds, n, 0.8, buffer, &filter, &params, true, &mut f, clock,
            );
            (r, f)
        };
        let set_bits = |ev: &NbEvaluator| {
            let cl = ev.list().unwrap();
            let bits = cl.local.unshifted.iter().chain(&cl.halo.unshifted);
            bits.filter(|&&b| b).count()
        };
        let x = |i: &usize| sys.positions[*i].x;
        let a = (0..n).min_by(|i, j| x(i).total_cmp(&x(j))).unwrap();
        assert!(x(&a) + 0.01 < 0.5 * buffer, "atom {a} at x = {}", x(&a));
        let mut wrapped = sys.positions.clone();
        wrapped[a] = sys.pbc.wrap(wrapped[a] - Vec3::new(x(&a) + 0.01, 0.0, 0.0));
        assert!(wrapped[a].x > 0.5 * sys.pbc.lengths().x);

        let mut live = NbEvaluator::default();
        round(&mut live, &sys.positions);
        assert!(set_bits(&live) > 0);
        let mut cleared = NbEvaluator::default();
        round(&mut cleared, &sys.positions);
        cleared.list.as_mut().unwrap().clear_image_bits();

        let (r_live, f_live) = round(&mut live, &wrapped);
        let (r_cleared, f_cleared) = round(&mut cleared, &wrapped);
        assert_eq!(r_live.0.to_bits(), r_cleared.0.to_bits());
        assert_eq!(r_live.1.to_bits(), r_cleared.1.to_bits());
        assert_forces_bitwise(&f_live, &f_cleared, &format!("atom {a} wrapped"));
        // Demoted, not rebuilt: the list still holds its build coordinates.
        assert_eq!(set_bits(&live), 0);
        let built_at = &live.list().unwrap().staleness;
        assert_eq!(built_at.verdict(&sys.positions, buffer), Verdict::Holds);
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
            let mut timer = Totals::default();
            let round = |ev: &mut NbEvaluator, pos: &[Vec3], timer: &mut Totals| {
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
            assert!(timer.total("pack_overlap") > Duration::ZERO);
            assert!(timer.total("nb_local") > Duration::ZERO);
            assert!(timer.total("nb_halo") > Duration::ZERO);
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
        let mut timer = Totals::default();
        // Move one atom past buffer/2 so the next round must rebuild.
        let mut moved = sys.positions.clone();
        moved[3].x += 0.2;
        for energy in [true, false] {
            let round = |ev: &mut NbEvaluator, pos: &[Vec3], timer: &mut Totals| {
                let mut f = vec![Vec3::ZERO; n];
                let r = ev.compute(
                    &frame, pos, &sys.kinds, n_home, 0.7, 0.1, &all, &params, energy, &mut f, timer,
                );
                (r, f)
            };
            // One round on unmoved positions builds the list.
            let mut ev = NbEvaluator::default();
            round(&mut ev, &sys.positions, &mut timer);
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
