//! Property tests of the decomposition substrate: conservation laws of the
//! reference exchanges and agreement between analytic and exact halo sizes.

use halox_dd::{
    build_partition, reference_coordinate_exchange, reference_force_exchange,
    try_build_partition_with, DdBounds, DdGrid, WorkloadModel,
};
use halox_md::pairlist::eighth_shell_rule;
use halox_md::{ClusterPairList, Frame, GrappaBuilder, PairList, Vec3};
use proptest::prelude::*;

fn grids() -> impl Strategy<Value = [usize; 3]> {
    prop_oneof![
        Just([2, 1, 1]),
        Just([1, 3, 1]),
        Just([2, 2, 1]),
        Just([2, 1, 2]),
        Just([2, 2, 2]),
        Just([4, 2, 1]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn coordinate_exchange_is_idempotent(
        seed in 0u64..10_000,
        dims in grids(),
        atoms in 4_000usize..9_000,
    ) {
        let sys = GrappaBuilder::new(atoms).seed(seed).build();
        let part = build_partition(&sys, &DdGrid::new(dims), 0.8);
        let mut coords: Vec<Vec<Vec3>> =
            part.ranks.iter().map(|r| r.build_positions.clone()).collect();
        reference_coordinate_exchange(&part, &mut coords);
        let first = coords.clone();
        reference_coordinate_exchange(&part, &mut coords);
        // Static coordinates: a second exchange changes nothing.
        for (a, b) in coords.iter().flatten().zip(first.iter().flatten()) {
            prop_assert!((*a - *b).norm() < 1e-7);
        }
    }

    #[test]
    fn force_exchange_conserves_total_force(
        seed in 0u64..10_000,
        dims in grids(),
        atoms in 4_000usize..9_000,
    ) {
        // Every halo force contribution is returned to exactly one owner:
        // the sum over home entries after the exchange equals the sum over
        // all local entries before it.
        let sys = GrappaBuilder::new(atoms).seed(seed).build();
        let part = build_partition(&sys, &DdGrid::new(dims), 0.8);
        let mut forces: Vec<Vec<Vec3>> = part
            .ranks
            .iter()
            .map(|r| {
                (0..r.n_local())
                    .map(|i| Vec3::new(((i * 7 + r.rank) % 13) as f32, 1.0, -0.5))
                    .collect()
            })
            .collect();
        let before: f64 = forces
            .iter()
            .flatten()
            .map(|f| (f.x + f.y + f.z) as f64)
            .sum();
        reference_force_exchange(&part, &mut forces);
        let after: f64 = part
            .ranks
            .iter()
            .map(|r| {
                forces[r.rank][..r.n_home]
                    .iter()
                    .map(|f| (f.x + f.y + f.z) as f64)
                    .sum::<f64>()
            })
            .sum();
        prop_assert!(
            (before - after).abs() < 1e-2 * before.abs().max(1.0),
            "{before} vs {after}"
        );
    }

    #[test]
    fn pulse_count_matches_layout(
        seed in 0u64..10_000,
        dims in grids(),
        atoms in 4_000usize..9_000,
    ) {
        let sys = GrappaBuilder::new(atoms).seed(seed).build();
        let grid = DdGrid::new(dims);
        let part = build_partition(&sys, &grid, 0.8);
        // Sum(np) pulses reach prod(np)-1 neighbours (paper §2.2): every
        // rank must end up holding copies from every forward-shell source it
        // needs, with exactly layout.total_pulses() communication steps.
        prop_assert_eq!(part.total_pulses(), part.layout.total_pulses());
        for r in &part.ranks {
            prop_assert_eq!(r.pulses.len(), part.total_pulses());
        }
    }

    #[test]
    fn analytic_halo_tracks_exact(
        seed in 0u64..10_000,
        dims in prop_oneof![Just([2, 2, 1]), Just([2, 2, 2]), Just([4, 2, 1])],
        atoms in 12_000usize..20_000,
    ) {
        let sys = GrappaBuilder::new(atoms).seed(seed).build();
        let grid = DdGrid::new(dims);
        let part = build_partition(&sys, &grid, 0.8);
        let model = WorkloadModel {
            n_atoms: sys.n_atoms(),
            density: sys.density(),
            r_comm: 0.8,
            grid,
            box_lengths: sys.pbc.lengths(),
        };
        let exact = part.total_halo_atoms() as f64 / part.n_ranks() as f64;
        let analytic = model.halo_atoms_per_rank();
        prop_assert!(
            (analytic - exact).abs() / exact < 0.15,
            "analytic {analytic} vs exact {exact}"
        );
    }
}

proptest! {
    // The default configuration, 256 cases, over systems small enough for it:
    // boxes of 1.6–2.1 nm at a 0.6 nm list radius, so every shape below
    // still decomposes (the narrowest shifted cell is 0.45 of the box).
    #[test]
    fn plan_pair_filter_equals_the_closure_rule(
        seed in 0u64..10_000,
        shape in 0usize..5,
        atoms in 400usize..900,
        cut in 0.45f32..0.55,
    ) {
        // What the plan precomputes (`RankPlan::pair_filter`) against the
        // predicate the engine used to build per pair — zone rule from the
        // displacements, exclusions through global ids — on one-, two- and
        // three-dimensional grids, a dimension pinned to two pulses, and
        // boundaries moved the way DLB moves them: both pair lists of every
        // rank identical array for array.
        const R_LIST: f32 = 0.6;
        let sys = GrappaBuilder::new(atoms).seed(seed).build();
        let (dims, min_pulses, shifted) = [
            ([2, 1, 1], None, false),
            ([2, 2, 1], None, false),
            ([2, 2, 2], None, false),
            ([4, 1, 1], Some([2, 1, 1]), false),
            ([2, 2, 1], None, true),
        ][shape];
        let grid = DdGrid::new(dims);
        let mut bounds = DdBounds::uniform(&grid);
        if shifted {
            bounds.fracs[0][1] = cut;
            bounds.fracs[1][1] = 1.0 - cut;
        }
        let part = try_build_partition_with(&sys, &grid, &bounds, R_LIST, min_pulses).unwrap();
        if let Some(pinned) = min_pulses {
            prop_assert_eq!(part.total_pulses(), pinned[0]);
        }
        let frame = Frame::for_decomposition(&sys.pbc, dims);
        let mut halo_tiles = 0;
        for plan in &part.ranks {
            let (disp, ids, pos) = (&plan.displacement, &plan.global_ids, &plan.build_positions);
            let rule = |i: usize, j: usize| {
                eighth_shell_rule(disp, i, j) && !sys.is_excluded(ids[i] as usize, ids[j] as usize)
            };
            let by_data =
                ClusterPairList::build(&frame, pos, &plan.kinds, plan.n_home, R_LIST, &plan.pair_filter);
            let by_rule = ClusterPairList::build(&frame, pos, &plan.kinds, plan.n_home, R_LIST, &rule);
            prop_assert_eq!(&by_data.lane_atoms, &by_rule.lane_atoms);
            prop_assert_eq!(&by_data.local, &by_rule.local);
            prop_assert_eq!(&by_data.halo, &by_rule.halo);
            halo_tiles += by_data.halo.n_tiles();
            let by_data = PairList::build_in_frame(&frame, pos, R_LIST, &plan.pair_filter);
            let by_rule = PairList::build_in_frame(&frame, pos, R_LIST, &rule);
            prop_assert_eq!(by_data.starts, by_rule.starts);
            prop_assert_eq!(by_data.j_atoms, by_rule.j_atoms);
        }
        // (A lattice this small can leave the last cell of four without home
        // atoms, so the halo check is on the partition, not on each rank.)
        prop_assert!(halo_tiles > 0, "no rank has a halo tile");
    }
}
