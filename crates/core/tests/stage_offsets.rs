//! Property tests for the staging-buffer layout cross-referencing in
//! `build_contexts`.
//!
//! The IB force path has two views of one region: the *producer* (rank
//! `w`, pulse `p`) puts its accumulated forces at
//! `w.remote_stage_offset[p]` inside the consumer's staging buffer, and
//! the *consumer* reads its own `stage_offset` at the same pulse index.
//! These are computed independently (the producer reads the peer's table,
//! the consumer its own prefix sums), so a mismatch silently corrupts
//! forces. Every rank lists the pulses of one global layout in its order,
//! so the matching pulse is the one at the same index — these properties
//! pin that cross-reference over grids with mixed 1- and 2-pulse
//! dimensions, and over DLB-style pinned layouts where 2–3 pulses per
//! dimension include empty padding pulses.

use halox_core::{build_contexts, CommContext};
use halox_dd::{build_partition, try_build_partition_with, DdBounds, DdGrid, DdPartition};
use halox_md::GrappaBuilder;
use proptest::prelude::*;

/// Grids chosen to exercise asymmetric pulse structure: thin dimensions
/// (4+ domains) produce second-neighbour pulses while fat dimensions keep
/// a single pulse, so ranks mix 1- and 2-pulse dims in one plan.
fn arbitrary_grid() -> impl Strategy<Value = [usize; 3]> {
    prop_oneof![
        Just([4, 1, 1]),
        Just([4, 2, 1]),
        Just([1, 4, 2]),
        Just([3, 2, 1]),
        Just([2, 2, 2]),
        Just([5, 1, 1]),
        Just([3, 3, 1]),
        Just([2, 4, 1]),
    ]
}

/// `(dims, min_pulses)` pairs pinning 2–3 pulses per communicated
/// dimension, the layout a DLB run requests so the slot count (and thus
/// the world key) stays fixed while boundaries move. Geometry alone would
/// need only one pulse here, so the extra pulses are empty padding — the
/// cross-reference must hold for them too (offset tables still line up
/// even when `send_count == 0`).
fn arbitrary_multipulse_grid() -> impl Strategy<Value = ([usize; 3], [usize; 3])> {
    prop_oneof![
        Just(([4, 1, 1], [2, 1, 1])),
        Just(([5, 1, 1], [3, 1, 1])),
        Just(([6, 1, 1], [3, 1, 1])),
        Just(([4, 2, 1], [2, 1, 1])),
        Just(([4, 3, 1], [2, 2, 1])),
        Just(([1, 4, 2], [1, 3, 1])),
        Just(([5, 3, 1], [3, 2, 1])),
        Just(([3, 3, 3], [2, 2, 2])),
    ]
}

fn build(seed: u64, dims: [usize; 3], atoms: usize) -> (DdPartition, Vec<CommContext>) {
    let sys = GrappaBuilder::new(atoms).seed(seed).build();
    let part = build_partition(&sys, &DdGrid::new(dims), 0.8);
    let ctxs = build_contexts(&part);
    (part, ctxs)
}

fn build_multipulse(
    seed: u64,
    dims: [usize; 3],
    min_pulses: [usize; 3],
    atoms: usize,
) -> (DdPartition, Vec<CommContext>) {
    let sys = GrappaBuilder::new(atoms).seed(seed).build();
    let grid = DdGrid::new(dims);
    let part = try_build_partition_with(
        &sys,
        &grid,
        &DdBounds::uniform(&grid),
        0.8,
        Some(min_pulses),
    )
    .expect("pinned pulse counts stay below the cell counts by construction");
    let ctxs = build_contexts(&part);
    (part, ctxs)
}

/// Producer → consumer: where rank `c` puts forces on its up neighbour
/// must be where that neighbour expects forces for the atoms it sent in
/// the matching pulse.
fn check_stage_layouts(ctxs: &[CommContext]) -> Result<(), TestCaseError> {
    for c in ctxs {
        for (p, pd) in c.pulses.iter().enumerate() {
            let up = &ctxs[pd.recv_rank];
            prop_assert_eq!(
                c.remote_stage_offset[p],
                up.stage_offset[p],
                "rank {} pulse {} stage target vs rank {} local offset",
                c.rank,
                p,
                pd.recv_rank
            );
            // The matching pulse really is the reverse edge, and the
            // payload sizes agree: I return recv_count forces, they
            // sent send_count atoms.
            prop_assert_eq!(up.pulses[p].send_rank, c.rank);
            prop_assert_eq!(up.pulses[p].send_count(), pd.recv_count);
        }
    }
    Ok(())
}

/// Coordinate direction: where rank `c` writes halo atoms on its down
/// neighbour must be where that neighbour expects pulse arrivals.
fn check_remote_recv_offsets(ctxs: &[CommContext]) -> Result<(), TestCaseError> {
    for c in ctxs {
        for (p, pd) in c.pulses.iter().enumerate() {
            let down = &ctxs[pd.send_rank];
            prop_assert_eq!(down.pulses[p].recv_rank, c.rank);
            prop_assert_eq!(pd.remote_recv_offset, down.pulses[p].recv_offset);
            prop_assert_eq!(pd.send_count(), down.pulses[p].recv_count);
        }
    }
    Ok(())
}

/// Regions `[stage_offset[p], +send_count)` must tile without overlap and
/// fit the symmetric capacity, otherwise two producers' puts collide
/// inside one staging buffer.
fn check_stage_regions(ctxs: &[CommContext]) -> Result<(), TestCaseError> {
    for c in ctxs {
        let mut regions: Vec<(usize, usize)> = c
            .pulses
            .iter()
            .enumerate()
            .map(|(p, pd)| (c.stage_offset[p], c.stage_offset[p] + pd.send_count()))
            .collect();
        regions.sort_unstable();
        for w in regions.windows(2) {
            prop_assert!(
                w[0].1 <= w[1].0,
                "rank {} stage regions overlap: {w:?}",
                c.rank
            );
        }
        if let Some(&(_, end)) = regions.last() {
            prop_assert!(end <= c.stage_capacity);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn stage_layouts_cross_reference(
        seed in 0u64..500,
        dims in arbitrary_grid(),
        atoms in 3_000usize..8_000,
    ) {
        let (_part, ctxs) = build(seed, dims, atoms);
        check_stage_layouts(&ctxs)?;
    }

    #[test]
    fn remote_recv_offsets_cross_reference(
        seed in 500u64..1000,
        dims in arbitrary_grid(),
        atoms in 3_000usize..8_000,
    ) {
        let (_part, ctxs) = build(seed, dims, atoms);
        check_remote_recv_offsets(&ctxs)?;
    }

    #[test]
    fn stage_regions_are_disjoint_and_capacity_bounded(
        seed in 1000u64..1500,
        dims in arbitrary_grid(),
        atoms in 3_000usize..8_000,
    ) {
        let (_part, ctxs) = build(seed, dims, atoms);
        check_stage_regions(&ctxs)?;
    }

    #[test]
    fn multipulse_layouts_cross_reference(
        seed in 1500u64..2000,
        layout in arbitrary_multipulse_grid(),
        atoms in 3_000usize..8_000,
    ) {
        let (dims, min_pulses) = layout;
        let (part, ctxs) = build_multipulse(seed, dims, min_pulses, atoms);
        // The pin took: every communicated dimension carries at least the
        // requested pulses, so padding pulses really are present.
        let expected: usize = (0..3)
            .filter(|&d| dims[d] > 1)
            .map(|d| min_pulses[d])
            .sum();
        prop_assert!(
            part.total_pulses() >= expected,
            "layout has {} pulses, pinned floor is {}",
            part.total_pulses(),
            expected
        );
        check_stage_layouts(&ctxs)?;
        check_remote_recv_offsets(&ctxs)?;
    }

    #[test]
    fn multipulse_stage_regions_are_disjoint(
        seed in 2000u64..2500,
        layout in arbitrary_multipulse_grid(),
        atoms in 3_000usize..8_000,
    ) {
        let (dims, min_pulses) = layout;
        let (_part, ctxs) = build_multipulse(seed, dims, min_pulses, atoms);
        check_stage_regions(&ctxs)?;
    }
}
