//! Exchange lowering: the thread-MPI event-driven halo exchange.
//!
//! GROMACS' built-in thread-MPI can enqueue direct DMA copies on GPU
//! streams with event dependencies and no per-step CPU-GPU synchronization
//! (§2.2). It shares NVSHMEM's asynchronous launch pipelining but keeps
//! per-pulse pack/copy/unpack stages serialized on the non-local stream and
//! is intra-node only (threads of one process). The paper uses it as the
//! intra-node gold standard that the NVSHMEM design generalizes multi-node.

use super::step::{Builder, Exchange};
use halox_gpusim::{OpId, Resource};

pub(super) struct ThreadMpi;

/// One pulse in direction `d`: `"x"` sends coordinates down, `"f"` sends
/// forces back up. The pack may not start before `after`; returns the unpack.
/// Panics if the copy would cross a node boundary (thread-MPI is
/// single-process).
fn pulse(b: &mut Builder, d: &'static str, p: usize, after: Option<OpId>) -> OpId {
    let m = &b.input.machine;
    let r = b.r;
    let (down, up) = (b.input.send_rank(r, p), b.input.recv_rank(r, p));
    let (dst, src) = if d == "x" { (down, up) } else { (up, down) };
    assert!(
        m.nvlink_reachable(r, dst),
        "thread-MPI requires a single node (rank {r} pulse {p})"
    );
    let atoms = b.input.pulses[p].send_atoms;
    let kernel_ns = m.pack_kernel_fixed_ns + m.pack_work_ns(atoms);
    let pack = b.launched_on_nonlocal(format_args!("{d}pack{p}"), kernel_ns);
    if let Some(prev_update) = after {
        b.dep(pack, prev_update);
    }
    // Event-enqueued D2D copy on the copy engine: event deps, no syncs.
    let copy_ns = m.event_api_ns + m.wire_ns(r, dst, m.payload_bytes(atoms));
    let copy = b.add(format_args!("{d}copy{p}"), Resource::CopyEngine(r), copy_ns);
    b.dep(copy, pack);
    b.export(d, p, copy);
    // Unpack waits on the peer's copy (event dependency).
    let unpack = b.launched_on_nonlocal(format_args!("{d}unpack{p}"), kernel_ns);
    b.dep_on_peer(unpack, src, d, p, m.latency_ns(src, r));
    b.nonlocal.extend([pack, unpack]);
    unpack
}

impl Exchange for ThreadMpi {
    const PREFIX: &'static str = "tmpi";

    fn coord_halo(b: &mut Builder, prev_update: Option<OpId>) -> Vec<OpId> {
        for p in 0..b.input.pulses.len() {
            pulse(b, "x", p, prev_update);
        }
        Vec::new()
    }

    fn force_halo(b: &mut Builder, nl_nb: OpId) -> Vec<OpId> {
        // Pulses in reverse; update waits on them by pulse.
        let mut reduced = vec![nl_nb];
        for p in (0..b.input.pulses.len()).rev() {
            reduced.insert(1, pulse(b, "f", p, None));
        }
        // CPU residue; with no syncs it pipelines across steps.
        b.cpu("misc_cpu", b.input.machine.misc_cpu_ns / 2);
        reduced
    }
}

#[cfg(test)]
mod tests {
    use super::super::{build, Backend, ScheduleInput};
    use halox_dd::{DdGrid, WorkloadModel};
    use halox_gpusim::MachineModel;

    #[test]
    fn tmpi_between_mpi_and_nvshmem_intranode() {
        // Paper §2.2/§3: thread-MPI outperforms MPI intra-node in
        // latency-bound regimes; NVSHMEM matches or beats thread-MPI.
        let grid = DdGrid::new([4, 1, 1]);
        let model = WorkloadModel::cubic(45_000, 100.0, 1.05, grid);
        let input = ScheduleInput::from_workload(MachineModel::dgx_h100(), &model);
        let tmpi = build(Backend::ThreadMpi, &input, 6).metrics(2);
        let mpi = build(Backend::Mpi, &input, 6).metrics(2);
        let nvs = build(Backend::Nvshmem, &input, 6).metrics(2);
        assert!(
            tmpi.time_per_step_ns < mpi.time_per_step_ns,
            "tMPI {} vs MPI {}",
            tmpi.time_per_step_ns,
            mpi.time_per_step_ns
        );
        assert!(
            nvs.time_per_step_ns <= tmpi.time_per_step_ns * 1.05,
            "NVSHMEM {} vs tMPI {}",
            nvs.time_per_step_ns,
            tmpi.time_per_step_ns
        );
    }

    #[test]
    #[should_panic(expected = "single node")]
    fn multinode_rejected() {
        let grid = DdGrid::new([8, 1, 1]);
        let model = WorkloadModel::cubic(720_000, 100.0, 1.05, grid);
        let input = ScheduleInput::from_workload(MachineModel::eos(), &model);
        let _ = build(Backend::ThreadMpi, &input, 4);
    }
}
