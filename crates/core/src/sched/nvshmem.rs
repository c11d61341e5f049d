//! Exchange lowering: the fused GPU-initiated NVSHMEM halo exchange (paper
//! Fig 2, Algorithms 2-6).
//!
//! One kernel launch per exchange; all pulses progress concurrently on
//! per-pulse lanes; dependent packing waits only on the arrival signals of
//! the pulses it forwards from; transports adapt per peer (TMA stores over
//! NVLink, proxied put-with-signal over InfiniBand). The CPU never
//! synchronizes inside the step, so launches pipeline ahead of the GPU.

use super::input::ScheduleInput;
use super::step::{Builder, Exchange, Kernel, KERNELS};
use halox_dd::forwards_from;
use halox_gpusim::{streams, OpId, Resource, Time};

pub(super) struct Nvshmem;

impl Exchange for Nvshmem {
    const PREFIX: &'static str = "nvs";

    /// Six back-to-back launches, no syncs (Alg 2); with CUDA graphs the
    /// whole step is one captured launch (§5.3).
    fn launch_up_front(b: &mut Builder) -> Option<[OpId; 6]> {
        Some(if b.input.cuda_graphs {
            [b.cpu("graph_launch", b.input.machine.graph_launch_ns); 6]
        } else {
            KERNELS.map(|kernel| b.launch_now(kernel))
        })
    }

    /// Local non-bonded is slowed by the SM-resident communication kernels.
    fn local_nb_ns(input: &ScheduleInput) -> Time {
        let m = &input.machine;
        let slowdown = m.sm_slowdown(input.grid.n_decomposed());
        (m.nb_local_ns(input.atoms_per_rank) as f64 * slowdown).round() as u64
    }

    /// FusedPackCommX: one kernel, pulses on concurrent lanes.
    fn coord_halo(b: &mut Builder, prev_update: Option<OpId>) -> Vec<OpId> {
        let input = b.input;
        let m = &input.machine;
        let r = b.r;
        let xstart = b.on_stream(streams::NONLOCAL, "xstart", m.kernel_fixed_ns / 2);
        let launch = b.launch(Kernel::CoordHalo);
        b.dep(xstart, launch);
        if let Some(prev_update) = prev_update {
            b.dep(xstart, prev_update);
        }
        // Pack ops, and the arrival markers of *my* incoming pulses.
        let (mut packs, mut arrivals) = (Vec::new(), Vec::new());
        for (p, pulse) in input.pulses.iter().enumerate() {
            let (dst, src) = (input.send_rank(r, p), input.recv_rank(r, p));
            let ind_atoms = pulse.send_atoms * (1.0 - pulse.dep_fraction);
            let dep_atoms = pulse.send_atoms * pulse.dep_fraction;
            let pack_ns = |atoms| m.pulse_fixed_ns + m.pack_work_ns(atoms);
            let wire_ns = |atoms| m.wire_ns(r, dst, m.payload_bytes(atoms));
            let pack_ind = b.on_lane(format_args!("xpack_ind{p}"), pack_ns(ind_atoms));
            b.dep(pack_ind, xstart);
            let pack_dep = b.on_lane(format_args!("xpack_dep{p}"), pack_ns(dep_atoms));
            b.dep(pack_dep, xstart);
            for k in forwards_from(p, |q| input.pulses[q].dim) {
                // Wait on my own arrival of the pulses it forwards from.
                b.dep(pack_dep, arrivals[k]);
            }
            if m.nvlink_reachable(r, dst) {
                // Pipelined TMA stores: independent data flies early.
                let tma = Resource::Tma(r);
                let wire_ind = b.add(format_args!("xwire_i{p}"), tma, wire_ns(ind_atoms));
                b.dep(wire_ind, pack_ind);
                b.export("xwire_i", p, wire_ind);
                let wire_dep = b.add(format_args!("xwire_d{p}"), tma, wire_ns(dep_atoms));
                b.dep(wire_dep, pack_dep);
                b.export("xwire_d", p, wire_dep);
            } else {
                // Coarsened put through the proxy.
                let proxy = Resource::Proxy(r);
                let put = b.add(format_args!("xput{p}"), proxy, m.proxy_service_ns());
                b.dep(put, pack_ind);
                b.dep(put, pack_dep);
                let link = Resource::Link(r, dst);
                let wire = b.add(format_args!("xwire{p}"), link, wire_ns(pulse.send_atoms));
                b.g.dep(wire, put, m.latency_ns(r, dst));
                b.export("xwire", p, wire);
            }
            // My incoming pulse p has arrived once my up neighbour's wire
            // ops have landed.
            let arrive = b.on_lane(format_args!("xarrive{p}"), 0);
            if m.nvlink_reachable(src, r) {
                b.dep_on_peer(arrive, src, "xwire_i", p, m.latency_ns(src, r));
                b.dep_on_peer(arrive, src, "xwire_d", p, m.latency_ns(src, r));
            } else {
                b.dep_on_peer(arrive, src, "xwire", p, 0);
            }
            arrivals.push(arrive);
            packs.extend([pack_ind, pack_dep]);
        }
        let xend = b.on_stream(streams::NONLOCAL, "xend", m.event_api_ns);
        for &pack in &packs {
            b.dep(xend, pack);
        }
        b.nonlocal.extend(packs);
        // nl_nb reads the halo, so it waits on every arrival.
        arrivals
    }

    /// FusedCommUnpackF: reverse pulse order on lanes.
    fn force_halo(b: &mut Builder, _nl_nb: OpId) -> Vec<OpId> {
        let input = b.input;
        let m = &input.machine;
        let r = b.r;
        let fstart = b.on_stream(streams::NONLOCAL, "fstart", m.kernel_fixed_ns / 2);
        let launch = b.launch(Kernel::ForceHalo);
        b.dep(fstart, launch);
        // Unpacks issued so far, i.e. of the later pulses, by pulse.
        let mut unpacks = Vec::new();
        for p in (0..input.pulses.len()).rev() {
            let atoms = input.pulses[p].send_atoms;
            let (upstream, downstream) = (input.recv_rank(r, p), input.send_rank(r, p));
            // DEP_MGMT: region p releases only after later pulses are
            // folded in locally.
            let ready = b.on_lane(format_args!("fready{p}"), 0);
            b.dep(ready, fstart);
            for &later in &unpacks {
                b.dep(ready, later);
            }
            b.export("fready", p, ready);
            if !m.nvlink_reachable(r, upstream) {
                let proxy = Resource::Proxy(r);
                let put = b.add(format_args!("fput{p}"), proxy, m.proxy_service_ns());
                b.dep(put, ready);
                let link = Resource::Link(r, upstream);
                let wire_ns = m.wire_ns(r, upstream, m.payload_bytes(atoms));
                let wire = b.add(format_args!("fwire{p}"), link, wire_ns);
                b.g.dep(wire, put, m.latency_ns(r, upstream));
                b.export("fwire", p, wire);
            }
            // Incoming: a receiver-driven TMA get over NVLink, started by the
            // peer's readiness signal; else the peer's proxied put.
            let get = m.nvlink_reachable(r, downstream).then(|| {
                let wire_ns = m.wire_ns(r, downstream, m.payload_bytes(atoms));
                let get = b.add(format_args!("fget{p}"), Resource::Tma(r), wire_ns);
                b.dep(get, fstart);
                b.dep_on_peer(get, downstream, "fready", p, m.latency_ns(downstream, r));
                get
            });
            let unpack_ns = m.pulse_fixed_ns + m.pack_work_ns(atoms);
            let unpack = b.on_lane(format_args!("funpack{p}"), unpack_ns);
            b.dep(unpack, fstart);
            match get {
                Some(get) => b.dep(unpack, get),
                None => b.dep_on_peer(unpack, downstream, "fwire", p, 0),
            }
            b.nonlocal.push(unpack);
            unpacks.insert(0, unpack);
        }
        let fend = b.on_stream(streams::NONLOCAL, "fend", m.event_api_ns);
        for &unpack in &unpacks {
            b.dep(fend, unpack);
        }
        // CPU residue; with no syncs it pipelines across steps, and graph
        // capture eliminates most per-step event management.
        let share = if input.cuda_graphs { 8 } else { 2 };
        b.cpu("misc_cpu", m.misc_cpu_ns / share);
        vec![fend]
    }
}

#[cfg(test)]
mod tests {
    use super::super::metrics::StepMetrics;
    use super::super::{build, Backend, ScheduleInput};
    use halox_dd::{DdGrid, WorkloadModel};
    use halox_gpusim::MachineModel;

    fn run_case(atoms: usize, dims: [usize; 3], machine: MachineModel) -> StepMetrics {
        let grid = DdGrid::new(dims);
        let model = WorkloadModel::cubic(atoms, 100.0, 1.05, grid);
        let input = ScheduleInput::from_workload(machine, &model);
        build(Backend::Nvshmem, &input, 6).metrics(2)
    }

    #[test]
    fn nvshmem_beats_mpi_on_small_intranode_systems() {
        // Paper Fig 3: 45k on 4 GPUs, +46% for NVSHMEM.
        let grid = DdGrid::new([4, 1, 1]);
        let model = WorkloadModel::cubic(45_000, 100.0, 1.05, grid);
        let input = ScheduleInput::from_workload(MachineModel::dgx_h100(), &model);
        let nvs = build(Backend::Nvshmem, &input, 6).metrics(2);
        let mpi = build(Backend::Mpi, &input, 6).metrics(2);
        assert!(
            nvs.time_per_step_ns < mpi.time_per_step_ns,
            "NVSHMEM {} vs MPI {}",
            nvs.time_per_step_ns,
            mpi.time_per_step_ns
        );
        let speedup = mpi.time_per_step_ns / nvs.time_per_step_ns;
        assert!((1.1..2.2).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn advantage_shrinks_for_compute_bound_systems() {
        // Paper Fig 3: at 360k on 4 GPUs performance converges.
        let grid = DdGrid::new([4, 1, 1]);
        let model = WorkloadModel::cubic(360_000, 100.0, 1.05, grid);
        let input = ScheduleInput::from_workload(MachineModel::dgx_h100(), &model);
        let nvs = build(Backend::Nvshmem, &input, 6).metrics(2);
        let mpi = build(Backend::Mpi, &input, 6).metrics(2);
        let speedup = mpi.time_per_step_ns / nvs.time_per_step_ns;
        assert!((0.95..1.15).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn nonlocal_work_overlaps_local_at_large_sizes() {
        // Paper Fig 6: at 90k atoms/GPU local and non-local nearly equal and
        // overlap is near-perfect.
        let m = run_case(360_000, [4, 1, 1], MachineModel::dgx_h100());
        let ratio = m.nonoverlap_ns / m.time_per_step_ns;
        assert!(ratio < 0.25, "non-overlap fraction {ratio}");
    }

    #[test]
    fn multinode_ib_slower_than_intranode() {
        let intra = run_case(90_000, [8, 1, 1], MachineModel::dgx_h100());
        let inter = run_case(90_000, [8, 1, 1], MachineModel::eos());
        assert!(inter.time_per_step_ns > intra.time_per_step_ns);
    }

    #[test]
    fn local_work_carries_sm_interference() {
        let grid = DdGrid::new([2, 2, 2]);
        let model = WorkloadModel::cubic(2_880_000, 100.0, 1.05, grid);
        let input = ScheduleInput::from_workload(MachineModel::eos(), &model);
        let nvs = build(Backend::Nvshmem, &input, 6).metrics(2);
        let mpi = build(Backend::Mpi, &input, 6).metrics(2);
        assert!(
            nvs.local_work_ns > mpi.local_work_ns,
            "NVSHMEM local work must show SM sharing: {} vs {}",
            nvs.local_work_ns,
            mpi.local_work_ns
        );
    }

    #[test]
    fn cuda_graphs_never_hurt_and_help_when_cpu_bound() {
        // SS5.3: graph capture reduces launch latency. The effect is largest
        // where the CPU control path matters.
        let grid = DdGrid::new([4, 1, 1]);
        let model = WorkloadModel::cubic(45_000, 100.0, 1.05, grid);
        let mut input = ScheduleInput::from_workload(MachineModel::dgx_h100(), &model);
        let plain = build(Backend::Nvshmem, &input, 6).metrics(2);
        input.cuda_graphs = true;
        let graphs = build(Backend::Nvshmem, &input, 6).metrics(2);
        assert!(graphs.time_per_step_ns <= plain.time_per_step_ns * 1.001);
    }

    #[test]
    fn thin_domains_two_pulse_schedules_run() {
        // Domains thinner than r_comm get second-neighbour pulses; both
        // backends must schedule them and NVSHMEM must stay ahead (the
        // extra, fully-dependent pulse serializes harder under MPI).
        let grid = DdGrid::new([16, 1, 1]);
        let model = WorkloadModel::cubic(180_000, 100.0, 1.05, grid); // l = 0.76 nm
        let input = ScheduleInput::from_workload(MachineModel::eos(), &model);
        assert_eq!(input.pulses.len(), 2);
        assert_eq!(input.pulses[1].dep_fraction, 1.0);
        let nvs = build(Backend::Nvshmem, &input, 6).metrics(2);
        let mpi = build(Backend::Mpi, &input, 6).metrics(2);
        assert!(nvs.time_per_step_ns < mpi.time_per_step_ns);
    }

    #[test]
    fn one_forwarding_rule_on_both_planes() {
        use halox_dd::{build_partition, forwards_from};
        use halox_md::GrappaBuilder;
        use std::collections::BTreeSet;
        let r_comm = 0.8;
        for seed in [11, 29] {
            let sys = GrappaBuilder::new(3_000).seed(seed).build();
            for dims in [[8, 1, 1], [4, 2, 1], [4, 4, 1], [4, 2, 2], [2, 2, 2]] {
                let grid = DdGrid::new(dims);
                let part = build_partition(&sys, &grid, r_comm);
                let pulse_dims: Vec<usize> = part.layout.iter().map(|(_, d, _)| d).collect();
                let rule =
                    |p: usize| -> BTreeSet<usize> { forwards_from(p, |q| pulse_dims[q]).collect() };
                // The functional plane: each rank's emergent dependencies
                // stay within the rule, and together they fill it.
                for p in 0..pulse_dims.len() {
                    let mut union = BTreeSet::new();
                    for r in &part.ranks {
                        let deps: BTreeSet<usize> =
                            r.pulses[p].dep_pulses.iter().copied().collect();
                        assert!(
                            deps.is_subset(&rule(p)),
                            "{dims:?} rank {} pulse {p}",
                            r.rank
                        );
                        union.extend(deps);
                    }
                    assert_eq!(union, rule(p), "{dims:?} seed {seed} pulse {p}");
                }
                // The timing plane, on the same grid and box: exactly the
                // rule's `xpack_dep{p}` <- `xarrive{k}` edges on every rank.
                let model = WorkloadModel {
                    n_atoms: sys.n_atoms(),
                    density: sys.density(),
                    r_comm,
                    grid,
                    box_lengths: sys.pbc.lengths(),
                };
                let input = ScheduleInput::from_workload(MachineModel::dgx_h100(), &model);
                let model_dims: Vec<usize> = input.pulses.iter().map(|p| p.dim).collect();
                assert_eq!(model_dims, pulse_dims, "{dims:?}");
                let g = &build(Backend::Nvshmem, &input, 1).graph;
                let name = |op| g.label(op).rsplit(':').next().unwrap();
                let mut edges = vec![BTreeSet::new(); grid.n_ranks()];
                for op in (0..g.n_ops()).map(halox_gpusim::OpId) {
                    let Some(p) = name(op).strip_prefix("xpack_dep") else {
                        continue;
                    };
                    let rank: usize = g.label(op).split(':').nth(2).unwrap().parse().unwrap();
                    for &(on, _) in g.deps_of(op) {
                        if let Some(k) = name(on).strip_prefix("xarrive") {
                            edges[rank].insert((p.parse::<usize>().unwrap(), k.parse().unwrap()));
                        }
                    }
                }
                let want: BTreeSet<(usize, usize)> = (0..pulse_dims.len())
                    .flat_map(|p| rule(p).into_iter().map(move |k| (p, k)))
                    .collect();
                for (rank, got) in edges.iter().enumerate() {
                    assert_eq!(got, &want, "{dims:?} seed {seed} rank {rank}");
                }
            }
        }
    }

    #[test]
    fn gb200_machine_runs() {
        let m = run_case(720_000, [4, 1, 1], MachineModel::gb200_nvl72());
        assert!(m.time_per_step_ns > 0.0);
    }
}
