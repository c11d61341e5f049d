//! Functional thread-MPI halo exchange: event-driven direct DMA copies.
//!
//! GROMACS' built-in thread-MPI runs all ranks as threads of one process, so
//! "communication" is a device-to-device copy enqueued on a GPU stream with
//! event dependencies — no CPU synchronization, but pulses still execute
//! serially per rank and pack/unpack stay separate stages (§2.2). This is
//! the intra-node gold standard the fused NVSHMEM design generalizes:
//! functionally it is the fused algorithm *without* intra-rank pulse
//! concurrency, and it requires every peer to be directly reachable
//! (single process ⇒ all-NVLink).

use crate::ctx::CommContext;
use crate::error::{ExchangeError, ExchangePhase, Watchdog};
use crate::exec::fused::{fused_comm_unpack_f, FusedBuffers};
use crate::exec::{wait_or_stall, Wait};
use halox_shmem::Pe;
use halox_trace::{record_opt, span_opt, Payload, Region};

/// Serialized-pulse coordinate exchange with direct copies. Arrivals are
/// signalled per pulse; call
/// [`crate::exec::fused::wait_coordinate_arrivals`] before consuming halo
/// coordinates.
///
/// Carries the same cross-step reuse fence as the fused path: each pulse
/// waits for the receiver's previous-step consumption ack (see
/// [`crate::exec::fused::ack_coordinate_consumed`]) before overwriting
/// their halo region. All waits are bounded by `wd`; an unreachable peer
/// is a typed [`ExchangeError::Unreachable`], not a panic.
pub fn coordinate_exchange(
    pe: &Pe,
    ctx: &CommContext,
    bufs: &FusedBuffers,
    sig_val: u64,
    wd: &Watchdog,
) -> Result<(), ExchangeError> {
    for p in 0..ctx.total_pulses {
        let pd = &ctx.pulses[p];
        let _span = span_opt(pe.trace(), ctx.rank as u32, "tmpi_pack_x", p as i32);
        let dst = pd.send_rank;
        if !pe.nvlink_reachable(dst) {
            return Err(ExchangeError::Unreachable {
                rank: ctx.rank,
                peer: dst,
                backend: "thread-MPI",
            });
        }
        // Cross-step fence: dst may still be reading the halo we wrote
        // last step.
        let fence = Wait::new(ctx, ExchangePhase::CoordAckFence, p, sig_val);
        wait_or_stall(pe, ctx, wd, fence)?;
        // Event dependency: forwarded entries need the earlier pulses'
        // arrivals (serialized pulses make this the only wait).
        for &k in &pd.dep_pulses {
            wait_or_stall(pe, ctx, wd, Wait::dep(ctx, p, k, sig_val))?;
        }
        record_opt(
            pe.trace(),
            ctx.rank as u32,
            Payload::RegionWrite {
                owner: dst as u32,
                region: Region::Coords,
                lo: pd.remote_recv_offset as u32,
                hi: (pd.remote_recv_offset + pd.send_count()) as u32,
            },
        );
        // Pack + D2D copy in one pass (the DMA enqueued on the stream).
        for (k, &i) in pd.send_index.iter().enumerate() {
            let v = bufs.coords.get(ctx.rank, i as usize) + pd.shift;
            bufs.coords.set(dst, pd.remote_recv_offset + k, v);
        }
        pe.signal(dst, ctx.coord_slot(p), sig_val);
    }
    Ok(())
}

/// Serialized-pulse force exchange with direct reads: the fused reverse
/// pulse loop (serial execution provides the DEP_MGMT guarantee for free)
/// on a world where every peer is directly reachable, which is checked up
/// front — an unreachable peer is a typed [`ExchangeError::Unreachable`].
///
/// Self-fencing across steps like [`crate::exec::fused::fused_comm_unpack_f`]:
/// returns only after every published force region has been acked by its
/// reader, so the caller may immediately reload the force buffer.
pub fn force_exchange(
    pe: &Pe,
    ctx: &CommContext,
    bufs: &FusedBuffers,
    sig_val: u64,
    wd: &Watchdog,
) -> Result<(), ExchangeError> {
    let mut peers = ctx
        .pulses
        .iter()
        .flat_map(|pd| [pd.recv_rank, pd.send_rank]);
    if let Some(peer) = peers.find(|&peer| !pe.nvlink_reachable(peer)) {
        return Err(ExchangeError::Unreachable {
            rank: ctx.rank,
            peer,
            backend: "thread-MPI",
        });
    }
    fused_comm_unpack_f(pe, ctx, bufs, sig_val, wd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::build_contexts;
    use crate::exec::fused::wait_coordinate_arrivals;
    use halox_dd::{
        build_partition, reference_coordinate_exchange, reference_force_exchange, DdGrid,
    };
    use halox_md::{GrappaBuilder, Vec3};
    use halox_shmem::{ShmemWorld, Topology};

    #[test]
    fn coordinates_match_reference() {
        let sys = GrappaBuilder::new(6000).seed(61).build();
        let part = build_partition(&sys, &DdGrid::new([2, 2, 1]), 0.8);
        let ctxs = build_contexts(&part);
        let world = ShmemWorld::new(
            Topology::all_nvlink(part.n_ranks()),
            CommContext::slots_needed(part.total_pulses()),
        );
        let bufs = FusedBuffers::alloc(part.n_ranks(), &ctxs[0]);
        let mut expect: Vec<Vec<Vec3>> = part
            .ranks
            .iter()
            .map(|r| r.build_positions.clone())
            .collect();
        reference_coordinate_exchange(&part, &mut expect);
        for r in &part.ranks {
            bufs.coords.load_from(r.rank, &r.build_positions);
        }
        let b = &bufs;
        let c = &ctxs;
        let wd = Watchdog::default();
        world.run(|pe| {
            coordinate_exchange(pe, &c[pe.id], b, 1, &wd).unwrap();
            wait_coordinate_arrivals(pe, &c[pe.id], 1, &wd).unwrap();
        });
        for r in &part.ranks {
            let got = bufs.coords.snapshot(r.rank);
            for i in 0..r.n_local() {
                assert!((got[i] - expect[r.rank][i]).norm() < 1e-6);
            }
        }
    }

    #[test]
    fn forces_match_reference() {
        let sys = GrappaBuilder::new(12000).seed(62).build();
        let part = build_partition(&sys, &DdGrid::new([2, 2, 2]), 0.8);
        let ctxs = build_contexts(&part);
        let world = ShmemWorld::new(
            Topology::all_nvlink(part.n_ranks()),
            CommContext::slots_needed(part.total_pulses()),
        );
        let bufs = FusedBuffers::alloc(part.n_ranks(), &ctxs[0]);
        let init: Vec<Vec<Vec3>> = part
            .ranks
            .iter()
            .map(|r| {
                (0..r.n_local())
                    .map(|i| Vec3::new(i as f32 * 0.01, 1.0, 0.0))
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
        let wd = Watchdog::default();
        world.run(|pe| force_exchange(pe, &c[pe.id], b, 1, &wd).unwrap());
        for r in &part.ranks {
            let got = bufs.forces.snapshot(r.rank);
            for i in 0..r.n_home {
                assert_eq!(got[i], expect[r.rank][i]);
            }
        }
    }

    #[test]
    fn cross_node_rejected_as_typed_error() {
        // Reachability violations surface as ExchangeError::Unreachable
        // values (previously a PE-thread panic).
        let sys = GrappaBuilder::new(6000).seed(63).build();
        let part = build_partition(&sys, &DdGrid::new([4, 1, 1]), 0.8);
        let ctxs = build_contexts(&part);
        let world = ShmemWorld::new(
            Topology::islands(part.n_ranks(), 2),
            CommContext::slots_needed(part.total_pulses()),
        );
        let bufs = FusedBuffers::alloc(part.n_ranks(), &ctxs[0]);
        let b = &bufs;
        let c = &ctxs;
        // Short deadline: ranks with only-reachable sends may complete or
        // stall on missing cross-node arrivals, but every rank returns and
        // the cross-node senders report Unreachable.
        let wd = crate::error::Watchdog::new(std::time::Duration::from_millis(100));
        let results = world.run(|pe| coordinate_exchange(pe, &c[pe.id], b, 1, &wd));
        assert!(results.iter().any(|r| matches!(
            r,
            Err(crate::error::ExchangeError::Unreachable {
                backend: "thread-MPI",
                ..
            })
        )));
    }
}
