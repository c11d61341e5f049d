//! Property-based tests of the halo-exchange algorithms: for randomized
//! system sizes, seeds, grids, and transports, the concurrent fused
//! implementation must reproduce the serial reference semantics.

use halox::core::{build_contexts, exec, CommContext, FusedBuffers};
use halox::core::{ExchangePhase, Watchdog};
use halox::dd::DdPartition;
use halox::dd::{build_partition, reference_coordinate_exchange, reference_force_exchange, DdGrid};
use halox::prelude::*;
use halox::shmem::{ShmemWorld, Topology};
use proptest::prelude::*;
use std::time::{Duration, Instant};

fn arbitrary_grid() -> impl Strategy<Value = [usize; 3]> {
    prop_oneof![
        Just([2, 1, 1]),
        Just([4, 1, 1]),
        Just([2, 2, 1]),
        Just([1, 2, 2]),
        Just([2, 2, 2]),
        Just([3, 1, 1]),
        Just([3, 2, 1]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn fused_coordinate_exchange_matches_reference(
        seed in 0u64..1000,
        dims in arbitrary_grid(),
        atoms in 4_000usize..9_000,
        gpus_per_node in 1usize..5,
    ) {
        let sys = GrappaBuilder::new(atoms).seed(seed).build();
        let grid = DdGrid::new(dims);
        let part = build_partition(&sys, &grid, 0.8);
        let ctxs = build_contexts(&part);
        let world = halox::shmem::ShmemWorld::new(
            Topology::islands(part.n_ranks(), gpus_per_node),
            CommContext::slots_needed(part.total_pulses()),
        );
        let bufs = FusedBuffers::alloc(part.n_ranks(), &ctxs[0]);

        let mut expect: Vec<Vec<Vec3>> =
            part.ranks.iter().map(|r| r.build_positions.clone()).collect();
        reference_coordinate_exchange(&part, &mut expect);

        for r in &part.ranks {
            bufs.coords.load_from(r.rank, &r.build_positions);
        }
        let b = &bufs;
        let c = &ctxs;
        let wd = halox::core::Watchdog::default();
        world.run(|pe| {
            exec::fused_pack_comm_x(pe, &c[pe.id], b, 1, &wd).unwrap();
            exec::wait_coordinate_arrivals(pe, &c[pe.id], 1, &wd).unwrap();
        });
        for r in &part.ranks {
            let got = bufs.coords.snapshot(r.rank);
            for i in 0..r.n_local() {
                prop_assert!(
                    (got[i] - expect[r.rank][i]).norm() < 1e-6,
                    "rank {} local {i}", r.rank
                );
            }
        }
    }

    #[test]
    fn fused_force_exchange_matches_reference(
        seed in 0u64..1000,
        dims in arbitrary_grid(),
        atoms in 4_000usize..9_000,
        gpus_per_node in 1usize..5,
    ) {
        let sys = GrappaBuilder::new(atoms).seed(seed).build();
        let grid = DdGrid::new(dims);
        let part = build_partition(&sys, &grid, 0.8);
        let ctxs = build_contexts(&part);
        let world = halox::shmem::ShmemWorld::new(
            Topology::islands(part.n_ranks(), gpus_per_node),
            CommContext::slots_needed(part.total_pulses()),
        );
        let bufs = FusedBuffers::alloc(part.n_ranks(), &ctxs[0]);

        let init: Vec<Vec<Vec3>> = part
            .ranks
            .iter()
            .map(|r| {
                (0..r.n_local())
                    .map(|i| Vec3::new(((r.rank + 1) * (i + 1)) as f32 * 1e-3, i as f32 * 1e-2, 1.0))
                    .collect()
            })
            .collect();
        let mut expect = init.clone();
        reference_force_exchange(&part, &mut expect);

        for r in &part.ranks {
            bufs.forces.load_from(r.rank, &init[r.rank]);
        }
        let b = &bufs;
        let c = &ctxs;
        let wd = halox::core::Watchdog::default();
        world.run(|pe| exec::fused_comm_unpack_f(pe, &c[pe.id], b, 1, &wd).unwrap());
        // Bitwise, not a tolerance: the fused unpack accumulates in the
        // reference's order (reverse pulses, send-index order) on one thread.
        let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        for r in &part.ranks {
            let got = bufs.forces.snapshot(r.rank);
            for i in 0..r.n_home {
                let w = expect[r.rank][i];
                prop_assert!(
                    bits(got[i]) == bits(w),
                    "rank {} home {i}: {:?} vs {w:?}", r.rank, got[i]
                );
            }
        }
    }

    #[test]
    fn fused_exchange_correct_under_adversarial_proxy_timing(
        seed in 0u64..500,
        atoms in 4_000usize..7_000,
        max_delay_us in 1u64..200,
    ) {
        // Randomized proxy delays reorder message application across pulses;
        // the per-pulse signal protocol must stay correct regardless.
        use halox::shmem::ProxyConfig;
        let sys = GrappaBuilder::new(atoms).seed(seed).build();
        let grid = DdGrid::new([2, 2, 1]);
        let part = build_partition(&sys, &grid, 0.8);
        let ctxs = build_contexts(&part);
        let world = halox::shmem::ShmemWorld::new(
            Topology::islands(part.n_ranks(), 1), // everything crosses "IB"
            CommContext::slots_needed(part.total_pulses()),
        )
        .with_proxy_config(ProxyConfig {
            injected_delay: None,
            random_delay: Some((seed.wrapping_mul(0x9E3779B9) | 1, max_delay_us)),
        });
        let bufs = FusedBuffers::alloc(part.n_ranks(), &ctxs[0]);
        let mut expect: Vec<Vec<Vec3>> =
            part.ranks.iter().map(|r| r.build_positions.clone()).collect();
        reference_coordinate_exchange(&part, &mut expect);
        for r in &part.ranks {
            bufs.coords.load_from(r.rank, &r.build_positions);
        }
        let b = &bufs;
        let c = &ctxs;
        let wd = halox::core::Watchdog::default();
        world.run(|pe| {
            exec::fused_pack_comm_x(pe, &c[pe.id], b, 1, &wd).unwrap();
            exec::wait_coordinate_arrivals(pe, &c[pe.id], 1, &wd).unwrap();
            exec::fused_comm_unpack_f(pe, &c[pe.id], b, 1, &wd).unwrap();
        });
        for r in &part.ranks {
            let got = bufs.coords.snapshot(r.rank);
            for i in 0..r.n_local() {
                prop_assert!((got[i] - expect[r.rank][i]).norm() < 1e-6);
            }
        }
    }

    #[test]
    fn partition_is_exact_cover(
        seed in 0u64..1000,
        dims in arbitrary_grid(),
        atoms in 3_000usize..8_000,
    ) {
        let sys = GrappaBuilder::new(atoms).seed(seed).build();
        let part = build_partition(&sys, &DdGrid::new(dims), 0.8);
        let mut owned = vec![0u8; sys.n_atoms()];
        for r in &part.ranks {
            for &g in &r.global_ids[..r.n_home] {
                owned[g as usize] += 1;
            }
        }
        prop_assert!(owned.iter().all(|&c| c == 1));
        // Staged pulses reach all forward neighbours with sum(np) steps.
        let expected_pulses: usize = part.grid.comm_dims().len();
        prop_assert!(part.total_pulses() >= expected_pulses);
    }

    #[test]
    fn dep_offset_is_stable_partition(
        seed in 0u64..1000,
        dims in prop_oneof![Just([2, 2, 1]), Just([2, 2, 2]), Just([3, 2, 1])],
        atoms in 5_000usize..9_000,
    ) {
        let sys = GrappaBuilder::new(atoms).seed(seed).build();
        let part = build_partition(&sys, &DdGrid::new(dims), 0.8);
        for r in &part.ranks {
            for pd in &r.pulses {
                for &i in pd.independent() {
                    prop_assert!((i as usize) < r.n_home);
                }
                let mut last = None;
                for &i in pd.dependent() {
                    prop_assert!((i as usize) >= r.n_home);
                    // Dependent entries arrive in local-index (arrival) order.
                    if let Some(l) = last {
                        prop_assert!(i > l);
                    }
                    last = Some(i);
                }
            }
        }
    }
}

/// A 2-pulse, 4-rank decomposition (pulse 1 forwards pulse-0 arrivals) with
/// its contexts, an all-NVLink world and buffers whose halo is poisoned.
fn two_pulse_rig() -> (DdPartition, Vec<CommContext>, ShmemWorld, FusedBuffers) {
    let sys = GrappaBuilder::new(6000).seed(77).build();
    let part = build_partition(&sys, &DdGrid::new([2, 2, 1]), 0.8);
    assert_eq!(part.total_pulses(), 2);
    let ctxs = build_contexts(&part);
    let world = ShmemWorld::new(
        Topology::all_nvlink(part.n_ranks()),
        CommContext::slots_needed(part.total_pulses()),
    );
    let bufs = FusedBuffers::alloc(part.n_ranks(), &ctxs[0]);
    for r in &part.ranks {
        let mut init = r.build_positions.clone();
        init[r.n_home..].fill(Vec3::splat(-1e9));
        bufs.coords.load_from(r.rank, &init);
    }
    (part, ctxs, world, bufs)
}

/// The serial reference halo for every rank's home coordinates moved by
/// `offset`.
fn reference_halo(part: &DdPartition, offset: Vec3) -> Vec<Vec<Vec3>> {
    let mut expect: Vec<Vec<Vec3>> = part
        .ranks
        .iter()
        .map(|r| r.build_positions.iter().map(|&v| v + offset).collect())
        .collect();
    reference_coordinate_exchange(part, &mut expect);
    expect
}

#[test]
fn withheld_ack_stalls_one_pulse_without_blocking_the_others() {
    // Rank 0 never acks the pulse-0 halo it consumed in step 1, so its
    // sender `held` must not overwrite it in step 2. That is one stuck
    // pulse: `held` reports it after ONE deadline, and its pulse 1 — whose
    // forwarded entries come from rank 0's (unfenced) pulse 0 — is complete
    // at its receiver by then. A scheduler that waits pulse by pulse would
    // sit in pulse 0's fence and never send pulse 1.
    let (part, ctxs, world, bufs) = two_pulse_rig();
    let held = ctxs[0].pulses[0].recv_rank;
    let moved = Vec3::new(0.25, -0.5, 0.125);
    let expect = reference_halo(&part, moved);
    let deadline = Duration::from_millis(400);
    let (b, c, part_ref) = (&bufs, &ctxs, &part);
    let results = world.run(|pe| {
        let ctx = &c[pe.id];
        let wd = Watchdog::default();
        exec::fused_pack_comm_x(pe, ctx, b, 1, &wd).unwrap();
        exec::wait_coordinate_arrivals(pe, ctx, 1, &wd).unwrap();
        for (p, pd) in ctx.pulses.iter().enumerate() {
            if !(pe.id == 0 && p == 0) {
                pe.signal(pd.recv_rank, ctx.coord_ack_slot(p), 1);
            }
        }
        let home = &part_ref.ranks[pe.id];
        for i in 0..home.n_home {
            b.coords.set(pe.id, i, home.build_positions[i] + moved);
        }
        pe.barrier_all();
        let t0 = Instant::now();
        let r = exec::fused_pack_comm_x(pe, ctx, b, 2, &Watchdog::new(deadline));
        (
            r.map_err(|e| e.stall().map(|s| (s.phase, s.pulse, s.suspect_peer))),
            t0.elapsed().as_millis() as u64,
        )
    });
    let (err, waited_ms) = &results[held];
    assert_eq!(*err, Err(Some((ExchangePhase::CoordAckFence, 0, Some(0)))));
    let slack = Duration::from_millis(300);
    assert!(
        Duration::from_millis(*waited_ms) < deadline + slack,
        "stall took {waited_ms} ms: more than one deadline plus slack"
    );
    // `held`'s pulse 1: signal and step-2 payload are at the receiver.
    let pd = &ctxs[held].pulses[1];
    let dst = pd.send_rank;
    assert_eq!(world.signal_set(dst).peek(ctxs[dst].coord_slot(1)), 2);
    let got = bufs.coords.snapshot(dst);
    for i in pd.remote_recv_offset..pd.remote_recv_offset + pd.send_count() {
        assert!((got[i] - expect[dst][i]).norm() < 1e-6, "pulse 1 entry {i}");
    }
    // The fenced region on rank 0 still holds step-1 data.
    let pd = &ctxs[held].pulses[0];
    assert_eq!(pd.send_rank, 0);
    let old = reference_halo(&part, Vec3::ZERO);
    let got = bufs.coords.snapshot(0);
    for i in pd.remote_recv_offset..pd.remote_recv_offset + pd.send_count() {
        assert!(
            (got[i] - old[0][i]).norm() < 1e-6,
            "fenced entry {i} overwritten"
        );
    }
}

#[test]
fn independent_entries_land_while_a_dependency_is_outstanding() {
    // Alg 3/4 `packWithDeps`: rank 0 holds back its whole pack, so `victim`
    // never sees pulse 0 arrive and its pulse 1 cannot finish — but the
    // home-atom entries of that pulse must already be in the receiver's
    // halo, unsignalled, before rank 0 lets go.
    let (part, ctxs, world, bufs) = two_pulse_rig();
    let victim = ctxs[0].pulses[0].send_rank;
    let pd = &ctxs[victim].pulses[1];
    assert!(pd.dep_pulses.contains(&0) && !pd.independent().is_empty());
    let expect = reference_halo(&part, Vec3::ZERO);
    let (b, c, w) = (&bufs, &ctxs, &world);
    world.run(|pe| {
        let wd = Watchdog::default();
        if pe.id == 0 {
            let dst = pd.send_rank;
            let landed = || {
                (0..pd.independent().len()).all(|k| {
                    let i = pd.remote_recv_offset + k;
                    (b.coords.get(dst, i) - expect[dst][i]).norm() < 1e-6
                })
            };
            let t0 = Instant::now();
            while !landed() {
                assert!(
                    t0.elapsed() < wd.deadline,
                    "independent entries never landed"
                );
                std::thread::yield_now();
            }
            assert_eq!(w.signal_set(dst).peek(c[dst].coord_slot(1)), 0);
        }
        exec::fused_pack_comm_x(pe, &c[pe.id], b, 1, &wd).unwrap();
        exec::wait_coordinate_arrivals(pe, &c[pe.id], 1, &wd).unwrap();
    });
    for r in &part.ranks {
        let got = bufs.coords.snapshot(r.rank);
        for i in 0..r.n_local() {
            assert!((got[i] - expect[r.rank][i]).norm() < 1e-6);
        }
    }
}
