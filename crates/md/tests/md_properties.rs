//! Property tests of the MD substrate: PBC invariants, pair-search
//! completeness under the DD-frame metric, and cluster-kernel equivalence.

use halox_md::cluster::{ClusterPairList, NbPartition};
use halox_md::forces::{compute_nonbonded, NonbondedParams};
use halox_md::nb::NbEvaluator;
use halox_md::pairlist::{brute_force_pairs, eighth_shell_rule, PairFilter, ZoneFilter};
use halox_md::{AtomKind, Frame, GrappaBuilder, PairList, PbcBox, Vec3, CLUSTER};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn vec3() -> impl Strategy<Value = Vec3> {
    (-20.0f32..20.0, -20.0f32..20.0, -20.0f32..20.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

const DD_FRAMES: [[usize; 3]; 4] = [[1, 1, 1], [2, 1, 1], [2, 2, 1], [2, 2, 2]];

/// A random local frame on DD grid `dd`: periodic dims hold coordinates up
/// to 0.3 nm outside the box, decomposed dims a home half plus a halo
/// shell. `tight` makes the periodic edges barely over `2 r_list`, so every
/// grid range query wraps the whole dimension.
fn drifted_frame(
    rng: &mut StdRng,
    atoms: usize,
    dd: [usize; 3],
    tight: bool,
    r_list: f32,
) -> (Frame, Vec<Vec3>) {
    let edge = (atoms as f32 / 100.0).cbrt().max(2.1 * r_list);
    let mut lengths = Vec3::ZERO;
    for k in 0..3 {
        lengths[k] = if tight {
            r_list * rng.gen_range(2.05f32..2.4)
        } else {
            edge * rng.gen_range(1.0f32..1.5)
        };
    }
    let frame = Frame::for_decomposition(&PbcBox::new(lengths), dd);
    let positions = (0..atoms)
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
    // The default configuration: 256 cases.
    #[test]
    fn zone_filter_equals_the_closure_rule(
        seed in 0u64..u64::MAX,
        atoms in 1usize..601,
        dd in 0usize..5,
        home in 0usize..4,
        tight in 0usize..2,
        r_list in 0.4f32..1.0,
    ) {
        // The engine's data filter against the predicate it replaced, on
        // the drifted frames of the grid-search test (short and
        // box-spanning clusters, PAD lanes, every DD frame): both lists
        // must come out identical array for array, and equal to the
        // all-pairs oracle. Halo copies carry one- and two-pulse
        // displacements in the decomposed dims; exclusions are three-atom
        // molecules over *global* ids, and the halo range re-uses global
        // ids so one partner is present as several local copies, some of
        // them home. The last `dd` draw is the real 1-D shape: a `[2,1,1]`
        // frame on which every halo copy travelled up in x, so the halo
        // grid's atoms all share that zone bit and the data filter's halo
        // i-clusters skip the grid entirely.
        let one_d = dd == DD_FRAMES.len();
        let dd = if one_d { [2, 1, 1] } else { DD_FRAMES[dd] };
        let mut rng = StdRng::seed_from_u64(seed);
        let (frame, positions) = drifted_frame(&mut rng, atoms, dd, tight == 1, r_list);
        let n_home = [0, atoms, atoms / 2, atoms - atoms / 4][home];
        let disp: Vec<[u8; 3]> = (0..atoms)
            .map(|a| {
                [0, 1, 2].map(|k| match (a >= n_home && !frame.periodic[k], one_d) {
                    (false, _) => 0,
                    (true, true) => 1,
                    (true, false) => rng.gen_range(0..3u8),
                })
            })
            .collect();
        let n_global = (atoms / 2).max(1);
        let global: Vec<usize> = (0..atoms)
            .map(|a| if a < n_home { a } else { rng.gen_range(0..n_global) })
            .collect();
        let excluded = |g: usize, h: usize| g != h && g / 3 == h / 3;
        let rule = |a: usize, b: usize| {
            eighth_shell_rule(&disp, a, b) && !excluded(global[a], global[b])
        };
        let filter = ZoneFilter::new(&disp, |a, row| {
            row.extend((0..atoms).filter(|&b| excluded(global[a], global[b])).map(|b| b as u32));
        });
        for a in 0..atoms {
            for b in a + 1..atoms {
                prop_assert_eq!(filter.keeps(a, b), rule(a, b), "pair ({}, {})", a, b);
            }
        }

        let kinds = vec![AtomKind::Ow; atoms];
        let by_data = ClusterPairList::build(&frame, &positions, &kinds, n_home, r_list, &filter);
        let by_rule = ClusterPairList::build(&frame, &positions, &kinds, n_home, r_list, &rule);
        prop_assert_eq!(&by_data.lane_atoms, &by_rule.lane_atoms);
        prop_assert_eq!(&by_data.local, &by_rule.local);
        prop_assert_eq!(&by_data.halo, &by_rule.halo);
        prop_assert_eq!(by_data.all_pairs(), brute_force_pairs(&frame, &positions, r_list, &rule));
        let by_data = PairList::build_in_frame(&frame, &positions, r_list, &filter);
        let by_rule = PairList::build_in_frame(&frame, &positions, r_list, &rule);
        prop_assert_eq!(by_data.starts, by_rule.starts);
        prop_assert_eq!(by_data.j_atoms, by_rule.j_atoms);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn wrap_is_idempotent_and_in_cell(p in vec3(), edge in 1.0f32..10.0) {
        let pbc = PbcBox::cubic(edge);
        let w = pbc.wrap(p);
        prop_assert!(pbc.contains(w));
        prop_assert_eq!(pbc.wrap(w), w);
    }

    #[test]
    fn min_image_is_antisymmetric_and_bounded(a in vec3(), b in vec3(), edge in 2.0f32..10.0) {
        let pbc = PbcBox::cubic(edge);
        let (a, b) = (pbc.wrap(a), pbc.wrap(b));
        let d1 = pbc.min_image(a, b);
        let d2 = pbc.min_image(b, a);
        prop_assert!((d1 + d2).norm() < 1e-4);
        for k in 0..3 {
            prop_assert!(d1[k].abs() <= 0.5 * edge + 1e-4);
        }
    }

    #[test]
    fn min_image_never_longer_than_direct(a in vec3(), b in vec3(), edge in 2.0f32..10.0) {
        let pbc = PbcBox::cubic(edge);
        let (a, b) = (pbc.wrap(a), pbc.wrap(b));
        prop_assert!(pbc.dist2(a, b) <= (a - b).norm2() + 1e-3);
    }

    #[test]
    fn pair_list_matches_brute_force(seed in 0u64..10_000, atoms in 600usize..2_000, r in 0.4f32..0.8) {
        let sys = GrappaBuilder::new(atoms).seed(seed).build();
        let frame = Frame::fully_periodic(&sys.pbc);
        let all = |_: usize, _: usize| true;
        let pl = PairList::build(&sys.pbc, &sys.positions, r, &all);
        let mut got: Vec<(u32, u32)> = pl.iter_pairs().collect();
        got.sort_unstable();
        let want = brute_force_pairs(&frame, &sys.positions, r, &all);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn cluster_kernel_equals_plain_kernel(seed in 0u64..10_000, atoms in 600usize..1_500) {
        // Single-rank frame with exclusions: energy and per-atom forces of
        // the cluster kernel match the scalar oracle within 1e-5 relative.
        let sys = GrappaBuilder::new(atoms).seed(seed).build();
        let frame = Frame::fully_periodic(&sys.pbc);
        let params = NonbondedParams::new(0.6);
        let rule = |a: usize, b: usize| !sys.is_excluded(a, b);
        let pl = PairList::build(&sys.pbc, &sys.positions, 0.65, &rule);
        let mut f1 = vec![Vec3::ZERO; sys.n_atoms()];
        let e1 = compute_nonbonded(&frame, &sys.positions, &sys.kinds, &pl, &params, &mut f1);
        let mut f2 = vec![Vec3::ZERO; sys.n_atoms()];
        let (e2, _) = NbEvaluator::default().compute(
            &frame, &sys.positions, &sys.kinds, sys.n_atoms(), 0.65, 0.0, &rule, &params, true,
            &mut f2, &mut (),
        );
        prop_assert!((e1 - e2).abs() < 1e-5 * e1.abs().max(1.0), "{e1} vs {e2}");
        for (i, (a, b)) in f1.iter().zip(&f2).enumerate() {
            prop_assert!((*a - *b).norm() <= 1e-5 * a.norm().max(1.0) + 1e-3,
                "force mismatch at {}: {:?} vs {:?}", i, a, b);
        }
    }

    #[test]
    fn cluster_kernel_equals_plain_kernel_in_dd_frame(
        seed in 0u64..10_000,
        atoms in 600usize..1_500,
        halo_frac in 0.1f32..0.4,
    ) {
        // Eighth-shell DD frame: x decomposed (direct metric), a tail of
        // atoms playing x-displaced halo copies, exclusions active. The
        // cluster kernel must match the scalar oracle and the local/halo
        // partitions must cover exactly the unsplit pair set.
        let sys = GrappaBuilder::new(atoms).seed(seed).build();
        let frame = Frame::for_decomposition(&sys.pbc, [2, 1, 1]);
        let n = sys.n_atoms();
        let n_home = n - ((n as f32 * halo_frac) as usize).min(n - 8);
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
        let pl = PairList::build_in_frame(&frame, &sys.positions, 0.65, &rule);
        let mut f1 = vec![Vec3::ZERO; n];
        let e1 = compute_nonbonded(&frame, &sys.positions, &sys.kinds, &pl, &params, &mut f1);
        let mut f2 = vec![Vec3::ZERO; n];
        let (e2, _) = NbEvaluator::default().compute(
            &frame, &sys.positions, &sys.kinds, n_home, 0.65, 0.0, &rule, &params, true, &mut f2,
            &mut (),
        );
        prop_assert!((e1 - e2).abs() < 1e-5 * e1.abs().max(1.0), "{e1} vs {e2}");
        for (i, (a, b)) in f1.iter().zip(&f2).enumerate() {
            prop_assert!((*a - *b).norm() <= 1e-5 * a.norm().max(1.0) + 1e-3,
                "force mismatch at {}: {:?} vs {:?}", i, a, b);
        }

        // Partition coverage: local ∪ halo == unsplit set, disjoint, and
        // the local partition never touches a halo atom.
        let cl = ClusterPairList::build(&frame, &sys.positions, &sys.kinds, n_home, 0.65, &rule);
        let local = cl.partition_pairs(NbPartition::Local);
        let halo = cl.partition_pairs(NbPartition::Halo);
        let mut union = local.clone();
        union.extend(halo.iter().copied());
        union.sort_unstable();
        let mut want: Vec<(u32, u32)> = pl.iter_pairs().collect();
        want.sort_unstable();
        prop_assert_eq!(union.len(), local.len() + halo.len());
        prop_assert_eq!(union, want);
        for &(a, b) in &local {
            prop_assert!((a as usize) < n_home && (b as usize) < n_home);
        }
        for &(a, b) in &halo {
            prop_assert!((a as usize) >= n_home || (b as usize) >= n_home);
        }
    }

    #[test]
    fn cluster_list_matches_brute_force_on_drifted_frames(
        seed in 0u64..u64::MAX,
        atoms in 1usize..601,
        dd in 0usize..4,
        home in 0usize..4,
        tight in 0usize..2,
        r_list in 0.4f32..1.0,
    ) {
        // Everything the grid search must survive at once: fewer atoms than
        // a cluster, an empty home or halo range, every DD frame, periodic
        // coordinates up to 0.3 nm outside the box, and (`tight`) periodic
        // edges barely over 2 r_list, where every range query wraps the
        // whole dimension and must still see each cluster once.
        let dd = DD_FRAMES[dd];
        let mut rng = StdRng::seed_from_u64(seed);
        let (frame, positions) = drifted_frame(&mut rng, atoms, dd, tight == 1, r_list);
        let n_home = [0, atoms, atoms / 2, atoms - atoms / 4][home];
        // Halo copies travelled one domain up in some decomposed dims.
        let disp: Vec<[u8; 3]> = (0..atoms)
            .map(|a| {
                [0, 1, 2].map(|k| (a >= n_home && !frame.periodic[k] && (a >> k) & 1 == 1) as u8)
            })
            .collect();
        let rule =
            |a: usize, b: usize| eighth_shell_rule(&disp, a, b) && (31 * a + 17 * b) % 11 < 9;
        let kinds = vec![AtomKind::Ow; atoms];
        let cl = ClusterPairList::build(&frame, &positions, &kinds, n_home, r_list, &rule);

        prop_assert_eq!(cl.n_home_clusters, n_home.div_ceil(CLUSTER));
        prop_assert_eq!(
            cl.n_clusters(),
            cl.n_home_clusters + (atoms - n_home).div_ceil(CLUSTER)
        );
        let brute_force = brute_force_pairs(&frame, &positions, r_list, &rule);
        prop_assert_eq!(cl.all_pairs(), &brute_force[..]);
        // Second subject, same drifted inputs: the scalar list shares the
        // cell grid and must find out-of-box atoms through their image too.
        let pl = PairList::build_in_frame(&frame, &positions, r_list, &rule);
        let mut scalar: Vec<_> = pl.iter_pairs().collect();
        scalar.sort_unstable();
        prop_assert_eq!(scalar, brute_force);
        // CSR shape: rows strictly ascending, each row's tiles strictly
        // ascending from the i-cluster on (so none repeats), none empty, and
        // the partitions split at the first halo cluster.
        for (part, is_halo) in [(&cl.local, false), (&cl.halo, true)] {
            prop_assert!(part.i_clusters.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(part.starts.len(), part.n_rows() + 1);
            prop_assert_eq!(*part.starts.last().unwrap() as usize, part.n_tiles());
            prop_assert!(part.masks.iter().all(|&m| m != 0));
            for (row, &ci) in part.i_clusters.iter().enumerate() {
                let (lo, hi) = (part.starts[row] as usize, part.starts[row + 1] as usize);
                let tiles = &part.j_clusters[lo..hi];
                prop_assert!(!tiles.is_empty() && tiles[0] >= ci);
                prop_assert!(tiles.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(tiles
                    .iter()
                    .all(|&cj| (cj as usize >= cl.n_home_clusters) == is_halo));
            }
        }
    }
}
