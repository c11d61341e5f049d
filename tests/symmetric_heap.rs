//! Reclaim gate for the symmetric heap (DESIGN.md §3.5): every mapping a
//! world, a pooled lease or a buffer makes goes back to the kernel when its
//! owner drops. One test on purpose — the live-mapping count is
//! process-wide, so nothing else may allocate while it is being compared.

use halox::md::Vec3;
use halox::shmem::shared::live_mappings;
use halox::shmem::{
    ShmemWorld, SymVec3, Topology, TwoSidedComm, WorldBackend, WorldKey, WorldPool,
};

#[test]
fn dropped_worlds_and_poisoned_leases_leave_no_mapping_behind() {
    let start = live_mappings();

    // 2 000 procs worlds built, run and dropped, each with its own buffer
    // and comm: ~14 000 mappings over the loop, none may outlive its round.
    for round in 0..2_000u64 {
        let w = ShmemWorld::new_with_backend(WorldBackend::Procs, Topology::all_nvlink(2), 4);
        let buf = SymVec3::alloc(2, 8);
        let comm = TwoSidedComm::new(2);
        assert!(live_mappings() > start);
        let got = w.run(|pe| {
            let peer = 1 - pe.id;
            pe.put_vec3_signal_nbi(&buf, peer, 0, &[Vec3::splat(round as f32)], 0, 1);
            pe.wait_signal(0, 1);
            comm.sendrecv(pe.id, peer, round, vec![buf.get(pe.id, 0)], peer, round)[0].x as f64
        });
        assert_eq!(got, vec![round as f64; 2]);
    }
    assert_eq!(live_mappings(), start, "a dropped procs world leaked");

    // 200 lease → run → poison cycles: a poisoned world is dropped on
    // return (and rebuilt by the next lease), a clean one is pooled.
    let pool = WorldPool::with_capacity(2);
    let key = WorldKey {
        backend: WorldBackend::Procs,
        topology: Topology::all_nvlink(2),
        n_signal_slots: 4,
    };
    for _ in 0..200 {
        let mut lease = pool.lease(key);
        assert_eq!(lease.world_for(key).run(|pe| pe.id as u64), vec![0, 1]);
        lease.poison();
    }
    assert_eq!(pool.stats().poisoned, 200);
    assert_eq!(live_mappings(), start, "a poisoned lease leaked its world");
    {
        let mut lease = pool.lease(key);
        lease.world_for(key);
    }
    assert!(live_mappings() > start, "a clean world stays pooled");
    drop(pool);
    assert_eq!(
        live_mappings(),
        start,
        "a dropped pool leaked its free list"
    );
}
