//! Exchange lowering: the GPU-aware-MPI halo exchange (paper Fig 1).
//!
//! Per pulse and per direction the CPU must (a) launch a pack kernel,
//! (b) synchronize with the GPU, (c) post MPI, (d) wait for the matching
//! receive, (e) launch the unpack kernel — and pulses are strictly
//! serialized. These CPU-GPU round trips are exactly the latencies the
//! NVSHMEM redesign removes.

use super::step::{Builder, Exchange};
use halox_gpusim::{OpId, Resource};

pub(super) struct Mpi;

/// One pulse in direction `d`: `"x"` sends coordinates down, `"f"` sends
/// forces back up. The pack may not start before `after`; returns the unpack.
fn pulse(b: &mut Builder, d: &'static str, p: usize, after: Option<OpId>) -> OpId {
    let m = &b.input.machine;
    let r = b.r;
    let (down, up) = (b.input.send_rank(r, p), b.input.recv_rank(r, p));
    let (dst, src) = if d == "x" { (down, up) } else { (up, down) };
    let atoms = b.input.pulses[p].send_atoms;
    let kernel_ns = m.pack_kernel_fixed_ns + m.pack_work_ns(atoms);
    let pack = b.launched_on_nonlocal(format_args!("{d}pack{p}"), kernel_ns);
    if let Some(prev_update) = after {
        b.dep(pack, prev_update);
    }
    // CPU blocks until the pack kernel has finished.
    let sync = b.cpu(format_args!("{d}sync{p}"), m.cpu_gpu_sync_ns);
    b.dep(sync, pack);
    let post = b.cpu(format_args!("{d}mpi{p}"), m.mpi_overhead_ns);
    let wire_ns = m.wire_ns(r, dst, m.payload_bytes(atoms));
    let wire = b.add(format_args!("{d}wire{p}"), Resource::Link(r, dst), wire_ns);
    b.g.dep(wire, post, m.latency_ns(r, dst));
    b.export(d, p, wire);
    // The matching receive completes with the sender's wire transfer.
    let wait = b.cpu(format_args!("{d}wait{p}"), m.mpi_overhead_ns / 2);
    b.dep_on_peer(wait, src, d, p, 0);
    let unpack = b.launched_on_nonlocal(format_args!("{d}unpack{p}"), kernel_ns);
    b.dep_on_peer(unpack, src, d, p, 0);
    b.nonlocal.extend([pack, unpack]);
    unpack
}

impl Exchange for Mpi {
    const PREFIX: &'static str = "mpi";

    fn coord_halo(b: &mut Builder, prev_update: Option<OpId>) -> Vec<OpId> {
        for p in 0..b.input.pulses.len() {
            pulse(b, "x", p, prev_update);
        }
        // The non-local stream already orders nl_nb behind the last unpack.
        Vec::new()
    }

    fn force_halo(b: &mut Builder, nl_nb: OpId) -> Vec<OpId> {
        // Mid-step CPU residue: hidden under the non-local kernel on large
        // systems, exposed in the CPU-bound regime (paper §3).
        b.cpu("misc_mid", b.input.machine.misc_cpu_ns / 2);
        // Serialized pulses in reverse; update waits on them by pulse.
        let mut reduced = vec![nl_nb];
        for p in (0..b.input.pulses.len()).rev() {
            reduced.insert(1, pulse(b, "f", p, None));
        }
        reduced
    }

    /// Tail CPU residue: with MPI the syncs prevent hiding it across steps,
    /// so it delays the next step's halo launches.
    fn finish(b: &mut Builder) {
        b.cpu("misc_tail", b.input.machine.misc_cpu_ns / 2);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{build, Backend, ScheduleInput};
    use halox_dd::{DdGrid, WorkloadModel};
    use halox_gpusim::MachineModel;

    fn run_case(atoms: usize, dims: [usize; 3]) -> super::super::metrics::StepMetrics {
        let grid = DdGrid::new(dims);
        let model = WorkloadModel::cubic(atoms, 100.0, 1.05, grid);
        let input = ScheduleInput::from_workload(MachineModel::dgx_h100(), &model);
        build(Backend::Mpi, &input, 6).metrics(2)
    }

    #[test]
    fn intranode_step_times_in_paper_range() {
        // 45k atoms on 4 GPUs: paper MPI ~153 us/step (1126 ns/day).
        let m = run_case(45_000, [4, 1, 1]);
        let us = m.time_per_step_ns / 1000.0;
        assert!((100.0..250.0).contains(&us), "step time {us} us");
        // Local work ~22 us.
        assert!((m.local_work_ns / 1000.0 - 22.0).abs() < 6.0);
    }

    #[test]
    fn serialized_pulses_scale_nonlocal_with_dims() {
        let m1 = run_case(90_000, [8, 1, 1]);
        let m2 = run_case(180_000, [8, 2, 1]);
        let m3 = run_case(360_000, [8, 2, 2]);
        assert!(m2.nonlocal_work_ns > m1.nonlocal_work_ns);
        assert!(m3.nonlocal_work_ns > m2.nonlocal_work_ns);
    }

    #[test]
    fn larger_systems_take_longer() {
        let small = run_case(45_000, [4, 1, 1]);
        let large = run_case(360_000, [4, 1, 1]);
        assert!(large.time_per_step_ns > small.time_per_step_ns * 1.6);
    }

    #[test]
    fn prune_stream_optimization_helps() {
        let grid = DdGrid::new([4, 1, 1]);
        let model = WorkloadModel::cubic(180_000, 100.0, 1.05, grid);
        let mut input = ScheduleInput::from_workload(MachineModel::dgx_h100(), &model);
        let on = build(Backend::Mpi, &input, 6).metrics(2);
        input.prune_stream_opt = false;
        let off = build(Backend::Mpi, &input, 6).metrics(2);
        assert!(
            on.time_per_step_ns < off.time_per_step_ns,
            "{on:?} vs {off:?}"
        );
        // Paper: up to ~10%.
        let gain = off.time_per_step_ns / on.time_per_step_ns;
        assert!(gain < 1.25, "implausible prune gain {gain}");
    }
}
