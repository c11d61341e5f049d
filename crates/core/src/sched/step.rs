//! The timing-plane step, written once (the mirror of `halox-engine::step`).
//!
//! Fig 1 (MPI) and Fig 2 (NVSHMEM) are the same GPU-resident step —
//! Algorithm 2: local NB → coordinate halo → bonded + non-local NB → force
//! halo → update / prune (§5.4) — with only the exchange swapped. [`build`]
//! walks step → rank → phase and owns what the backends share: the streams,
//! the compute kernels, the update / prune / `step_end` tail, the
//! [`ScheduleRun`] markers and the resolution of cross-rank edges. An
//! [`Exchange`] lowering says only what differs, and those differences *are*
//! the model: the launch style, the per-pulse halo sub-graphs with their
//! cross-rank edges and lags, what `nl_nb` and `update` wait on, and where
//! the `misc_cpu_ns` residue goes. Ops on one resource run in submission
//! order, so the walk order is part of the model, not a style choice.

use super::input::ScheduleInput;
use super::metrics::ScheduleRun;
use halox_gpusim::{streams, OpId, Resource, TaskGraph, Time};
use std::fmt::Display;

/// The six kernels of one step, in the order Algorithm 2 launches them.
#[derive(Clone, Copy)]
pub(super) enum Kernel {
    LocalNb,
    CoordHalo,
    Bonded,
    NonlocalNb,
    ForceHalo,
    Update,
}

/// `launch_{name}` labels, indexed by [`Kernel`].
pub(super) const KERNELS: [&str; 6] = ["lnb", "x", "bonded", "nlnb", "f", "update"];

/// The graph under construction plus the walk position.
pub(super) struct Builder<'a> {
    pub g: &'a mut TaskGraph,
    pub input: &'a ScheduleInput,
    /// The rank whose ops are being issued.
    pub r: usize,
    /// Label prefix of that rank's ops in this step: `{prefix}:{step}:{rank}:`.
    scope: String,
    lanes: u32,
    /// This rank's launches, by [`Kernel`], if they were all issued up front.
    up_front: Option<[OpId; 6]>,
    /// Ops of this rank's non-local span (§6.3 timer) issued so far.
    pub nonlocal: Vec<OpId>,
    /// Per rank, the ops of this step other ranks depend on: (port, pulse, op).
    exports: Vec<Vec<(&'static str, usize, OpId)>>,
    /// Edges onto exports, which a later rank may not have issued yet.
    pending: Vec<(OpId, usize, &'static str, usize, Time)>,
}

impl Builder<'_> {
    pub fn add(&mut self, name: impl Display, resource: Resource, duration: Time) -> OpId {
        let label = format!("{}{name}", self.scope);
        self.g.add(label, resource, duration)
    }

    pub fn cpu(&mut self, name: impl Display, duration: Time) -> OpId {
        self.add(name, Resource::Cpu(self.r), duration)
    }

    pub fn on_stream(&mut self, id: u8, name: impl Display, duration: Time) -> OpId {
        self.add(name, Resource::Stream(self.r, id), duration)
    }

    /// An op on a fresh lane of its own: a thread block inside a fused
    /// kernel, concurrent with everything except through its dependencies.
    pub fn on_lane(&mut self, name: impl Display, duration: Time) -> OpId {
        self.lanes += 1;
        self.add(name, Resource::Lane(self.r, self.lanes), duration)
    }

    /// `op` cannot start before `on` finishes.
    pub fn dep(&mut self, op: OpId, on: OpId) {
        self.g.dep(op, on, 0);
    }

    /// One kernel-launch call on the CPU FIFO, issued now.
    pub fn launch_now(&mut self, name: impl Display) -> OpId {
        let launch_ns = self.input.machine.kernel_launch_ns;
        self.cpu(format_args!("launch_{name}"), launch_ns)
    }

    /// The CPU op that launches `kernel`: issued up front, or else now.
    pub fn launch(&mut self, kernel: Kernel) -> OpId {
        match self.up_front {
            Some(launches) => launches[kernel as usize],
            None => self.launch_now(KERNELS[kernel as usize]),
        }
    }

    /// A non-local-stream kernel with its launch issued just before it.
    pub fn launched_on_nonlocal(&mut self, name: impl Display, duration: Time) -> OpId {
        let launch = self.launch_now(&name);
        let kernel = self.on_stream(streams::NONLOCAL, name, duration);
        self.dep(kernel, launch);
        kernel
    }

    /// Let other ranks' ops of this step depend on `op` as (`port`, pulse).
    pub fn export(&mut self, port: &'static str, pulse: usize, op: OpId) {
        self.exports[self.r].push((port, pulse, op));
    }

    /// `op` cannot start before rank `peer`'s export (`port`, pulse) of this
    /// step finishes, plus `lag`; resolved once every rank has been walked.
    pub fn dep_on_peer(&mut self, op: OpId, peer: usize, port: &'static str, p: usize, lag: Time) {
        self.pending.push((op, peer, port, p, lag));
    }

    fn resolve_peer_deps(&mut self) {
        for (op, peer, port, pulse, lag) in self.pending.drain(..) {
            let export = self.exports[peer]
                .iter()
                .find(|e| (e.0, e.1) == (port, pulse))
                .unwrap_or_else(|| panic!("rank {peer} exports no {port}{pulse}"));
            self.g.dep(op, export.2, lag);
        }
        self.exports.iter_mut().for_each(Vec::clear);
    }
}

/// What one halo-exchange implementation contributes to the step.
pub(super) trait Exchange {
    const PREFIX: &'static str;

    /// Launch style. Default: each launch goes onto the CPU FIFO just before
    /// its kernel; or issue all of a rank's launches here, by [`Kernel`].
    fn launch_up_front(_b: &mut Builder) -> Option<[OpId; 6]> {
        None
    }

    fn local_nb_ns(input: &ScheduleInput) -> Time {
        input.machine.nb_local_ns(input.atoms_per_rank)
    }

    /// Issue the coordinate halo, which may not start before the previous
    /// step's `update`; returns what `nl_nb` must wait on beyond its launch
    /// and its place in the non-local stream.
    fn coord_halo(b: &mut Builder, prev_update: Option<OpId>) -> Vec<OpId>;

    /// Issue what lies between `nl_nb` and the update launch — the force
    /// halo and any CPU residue; returns what `update` must wait on beyond
    /// its launch and `local_nb`.
    fn force_halo(b: &mut Builder, nl_nb: OpId) -> Vec<OpId>;

    /// CPU work after the update / prune launches.
    fn finish(_b: &mut Builder) {}
}

/// Build an `n_steps` schedule with the exchange lowered by `L`.
pub(super) fn build<L: Exchange>(input: &ScheduleInput, n_steps: usize) -> ScheduleRun {
    let (m, atoms) = (&input.machine, input.atoms_per_rank);
    let (lnb_ns, bonded_ns) = (L::local_nb_ns(input), m.bonded_ns(atoms));
    let nlnb_ns = m.nb_nonlocal_ns(input.halo_atoms());
    let (update_ns, prune_ns) = (m.other_ns(atoms), m.prune_ns(atoms));
    let nr = input.n_ranks();
    let mut run = ScheduleRun {
        graph: TaskGraph::new(),
        n_steps,
        n_ranks: nr,
        local_nb: vec![Vec::new(); n_steps],
        nonlocal_ops: vec![Vec::new(); n_steps],
        step_end: vec![Vec::new(); n_steps],
    };
    let mut b = Builder {
        g: &mut run.graph,
        input,
        r: 0,
        scope: String::new(),
        lanes: 0,
        up_front: None,
        nonlocal: Vec::new(),
        exports: vec![Vec::new(); nr],
        pending: Vec::new(),
    };
    let mut prev_update: Vec<Option<OpId>> = vec![None; nr];

    for s in 0..n_steps {
        // Phase A: per-rank ops in issue order.
        for (r, prev_update) in prev_update.iter_mut().enumerate() {
            b.r = r;
            b.scope = format!("{}:{s}:{r}:", L::PREFIX);
            b.up_front = L::launch_up_front(&mut b);
            let launch = b.launch(Kernel::LocalNb);
            let lnb = b.on_stream(streams::LOCAL, "local_nb", lnb_ns);
            b.dep(lnb, launch);
            if let Some(pu) = *prev_update {
                b.dep(lnb, pu);
            }

            let arrivals = L::coord_halo(&mut b, *prev_update);

            let launch = b.launch(Kernel::Bonded);
            let bonded = b.on_stream(streams::NONLOCAL, "bonded", bonded_ns);
            b.dep(bonded, launch);
            let launch = b.launch(Kernel::NonlocalNb);
            let nlnb = b.on_stream(streams::NONLOCAL, "nl_nb", nlnb_ns);
            b.dep(nlnb, launch);
            for a in arrivals {
                b.dep(nlnb, a);
            }
            b.nonlocal.push(nlnb);
            let reduced = L::force_halo(&mut b, nlnb);

            // Update (reduce + integrate), prune, step marker.
            let launch = b.launch(Kernel::Update);
            let add_update = |b: &mut Builder, stream: u8| {
                let update = b.on_stream(stream, "update", update_ns);
                b.dep(update, launch);
                b.dep(update, lnb);
                for &op in &reduced {
                    b.dep(update, op);
                }
                update
            };
            let update = if input.prune_stream_opt {
                // §5.4: update on its own medium-priority stream, prune on a
                // dedicated low-priority stream behind it.
                let update = add_update(&mut b, streams::UPDATE);
                let prune = b.on_stream(streams::PRUNE, "prune", prune_ns);
                b.dep(prune, update);
                update
            } else {
                // §5.4 off (the pre-optimization schedule): prune is
                // submitted to the non-local stream ahead of update, so it
                // blocks the integration and the next step's halo.
                let prune = b.on_stream(streams::NONLOCAL, "prune", prune_ns);
                b.dep(prune, lnb);
                add_update(&mut b, streams::NONLOCAL)
            };
            let end = b.on_stream(streams::UPDATE, "step_end", 0);
            b.dep(end, update);
            L::finish(&mut b);
            *prev_update = Some(update);
            run.local_nb[s].push(lnb);
            run.nonlocal_ops[s].push(std::mem::take(&mut b.nonlocal));
            run.step_end[s].push(end);
        }
        // Phase B: cross-rank edges.
        b.resolve_peer_deps();
    }
    run
}

#[cfg(test)]
mod tests {
    use super::super::{build, Backend};
    use super::*;
    use halox_dd::{DdGrid, WorkloadModel};
    use halox_gpusim::MachineModel;

    fn fnv1a(h: &mut u64, s: &str) {
        for &b in s.as_bytes() {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Everything observable about a schedule, independent of the order ops
    /// were added across resources: every op by label (resource, start, end,
    /// dependency set with lags), the submission order on each resource, and
    /// the `ScheduleRun` markers.
    fn digest(run: &ScheduleRun) -> u64 {
        let g = &run.graph;
        let t = g.run();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut ops: Vec<OpId> = (0..g.n_ops()).map(OpId).collect();
        ops.sort_by(|&a, &b| g.label(a).cmp(g.label(b)));
        for &o in &ops {
            let mut deps: Vec<String> = g
                .deps_of(o)
                .iter()
                .map(|&(d, lag)| format!("{}+{lag}", g.label(d)))
                .collect();
            deps.sort();
            let (label, res) = (g.label(o), g.resource(o));
            let line = format!("{label}|{res:?}|{}|{}|{deps:?}\n", t.start(o), t.end(o));
            fnv1a(&mut h, &line);
        }
        ops.sort_by_key(|o| o.0);
        ops.sort_by_cached_key(|&o| format!("{:?}", g.resource(o)));
        for &o in &ops {
            fnv1a(&mut h, &format!("{:?}>{}\n", g.resource(o), g.label(o)));
        }
        for s in 0..run.n_steps {
            for r in 0..run.n_ranks {
                let mut span: Vec<&str> =
                    run.nonlocal_ops[s][r].iter().map(|&o| g.label(o)).collect();
                span.sort();
                let (lnb, end) = (g.label(run.local_nb[s][r]), g.label(run.step_end[s][r]));
                fnv1a(&mut h, &format!("{lnb}|{end}|{span:?}\n"));
            }
        }
        h
    }

    /// 1D, 2D, 3D and the two-pulse thin-domain grid, with their atom counts.
    const GRIDS: [([usize; 3], usize); 4] = [
        ([4, 1, 1], 45_000),
        ([8, 2, 1], 180_000),
        ([8, 2, 2], 360_000),
        ([16, 1, 1], 180_000),
    ];

    /// Every backend over `GRIDS` × machine × `prune_stream_opt` ×
    /// (`cuda_graphs`, NVSHMEM only). `eos` (4 GPUs/node) puts the proxy / IB
    /// arms on most pulses (its 4x1x1 rows are one node, so they equal
    /// `dgx_h100`'s); thread-MPI gets `dgx_h100` widened to one 32-GPU node
    /// so that it accepts every grid.
    fn cases() -> Vec<(String, Backend, ScheduleInput)> {
        let mut v = Vec::new();
        let dgx = ("dgx_h100", MachineModel::dgx_h100());
        let eos = ("eos", MachineModel::eos());
        let fat = MachineModel::dgx_h100().with_gpus_per_node(32);
        for (backend, machines) in [
            (Backend::Mpi, vec![dgx.clone(), eos.clone()]),
            (Backend::ThreadMpi, vec![("dgx_h100x32", fat)]),
            (Backend::Nvshmem, vec![dgx, eos]),
        ] {
            for (mname, machine) in machines {
                for (dims, atoms) in GRIDS {
                    let model = WorkloadModel::cubic(atoms, 100.0, 1.05, DdGrid::new(dims));
                    for prune in [true, false] {
                        let graph_arms: &[bool] = if backend == Backend::Nvshmem {
                            &[false, true]
                        } else {
                            &[false]
                        };
                        for &graphs in graph_arms {
                            let mut input = ScheduleInput::from_workload(machine.clone(), &model);
                            input.prune_stream_opt = prune;
                            input.cuda_graphs = graphs;
                            let [nx, ny, nz] = dims;
                            let name = format!(
                                "{} {mname} {nx}x{ny}x{nz} prune={} graphs={}",
                                backend.label(),
                                prune as u8,
                                graphs as u8
                            );
                            v.push((name, backend, input));
                        }
                    }
                }
            }
        }
        v
    }

    /// `digest` of `build(backend, input, 3)` for every row of `cases`,
    /// recorded from the three hand-written per-backend builders at commit
    /// 9bb6b55, before they were deleted. The four `tMPI … prune=0` rows are
    /// that commit plus the submission-order fix (its `tmpi.rs` added `update`
    /// before `prune` on the non-local stream and panicked with a cycle).
    #[rustfmt::skip]
    const GOLDEN: &[(&str, u64)] = &[
        ("MPI dgx_h100 4x1x1 prune=1 graphs=0", 0xc0a773d22adeb36f),
        ("MPI dgx_h100 4x1x1 prune=0 graphs=0", 0x60c9ea108396ef3f),
        ("MPI dgx_h100 8x2x1 prune=1 graphs=0", 0xf45400c303e2ef01),
        ("MPI dgx_h100 8x2x1 prune=0 graphs=0", 0xf6ace2eb3a555345),
        ("MPI dgx_h100 8x2x2 prune=1 graphs=0", 0x34ade8e9ae275433),
        ("MPI dgx_h100 8x2x2 prune=0 graphs=0", 0x15842c59194a6a7f),
        ("MPI dgx_h100 16x1x1 prune=1 graphs=0", 0xba4eff8b86d0ffef),
        ("MPI dgx_h100 16x1x1 prune=0 graphs=0", 0x670b72b511311e27),
        ("MPI eos 4x1x1 prune=1 graphs=0", 0xc0a773d22adeb36f),
        ("MPI eos 4x1x1 prune=0 graphs=0", 0x60c9ea108396ef3f),
        ("MPI eos 8x2x1 prune=1 graphs=0", 0x66d20045bbb4862b),
        ("MPI eos 8x2x1 prune=0 graphs=0", 0x0e1f4206ad59abd1),
        ("MPI eos 8x2x2 prune=1 graphs=0", 0x225db24efd4ae6c5),
        ("MPI eos 8x2x2 prune=0 graphs=0", 0x8efc5891d6d6a011),
        ("MPI eos 16x1x1 prune=1 graphs=0", 0x06fb95d40318ca63),
        ("MPI eos 16x1x1 prune=0 graphs=0", 0xb0c389c6e76f1387),
        ("tMPI dgx_h100x32 4x1x1 prune=1 graphs=0", 0x07faf2eb39b08bf3),
        ("tMPI dgx_h100x32 4x1x1 prune=0 graphs=0", 0xb9ea4e99183bd8cb),
        ("tMPI dgx_h100x32 8x2x1 prune=1 graphs=0", 0xf6a412f323be4a65),
        ("tMPI dgx_h100x32 8x2x1 prune=0 graphs=0", 0xf8287b68e4909c6b),
        ("tMPI dgx_h100x32 8x2x2 prune=1 graphs=0", 0x874da9922adb4663),
        ("tMPI dgx_h100x32 8x2x2 prune=0 graphs=0", 0x99349d81cd40cd93),
        ("tMPI dgx_h100x32 16x1x1 prune=1 graphs=0", 0x045a0f95946ca651),
        ("tMPI dgx_h100x32 16x1x1 prune=0 graphs=0", 0xb8d1aedb000017b1),
        ("NVSHMEM dgx_h100 4x1x1 prune=1 graphs=0", 0x7fcf56ee41a50b9d),
        ("NVSHMEM dgx_h100 4x1x1 prune=1 graphs=1", 0x7f3defe1bc7775e1),
        ("NVSHMEM dgx_h100 4x1x1 prune=0 graphs=0", 0x44f1056245a21da5),
        ("NVSHMEM dgx_h100 4x1x1 prune=0 graphs=1", 0x53c326a7e14c63a1),
        ("NVSHMEM dgx_h100 8x2x1 prune=1 graphs=0", 0xb16de7404ff0cbe3),
        ("NVSHMEM dgx_h100 8x2x1 prune=1 graphs=1", 0x1f62b6aed827b773),
        ("NVSHMEM dgx_h100 8x2x1 prune=0 graphs=0", 0x2672133131189407),
        ("NVSHMEM dgx_h100 8x2x1 prune=0 graphs=1", 0xddb34a097012b793),
        ("NVSHMEM dgx_h100 8x2x2 prune=1 graphs=0", 0x61fe0ec717b1bc71),
        ("NVSHMEM dgx_h100 8x2x2 prune=1 graphs=1", 0x24d4c7f86912663d),
        ("NVSHMEM dgx_h100 8x2x2 prune=0 graphs=0", 0x67b1681d1899a951),
        ("NVSHMEM dgx_h100 8x2x2 prune=0 graphs=1", 0xc5595aba08185d91),
        ("NVSHMEM dgx_h100 16x1x1 prune=1 graphs=0", 0x7e95f6eaf411b1b7),
        ("NVSHMEM dgx_h100 16x1x1 prune=1 graphs=1", 0xed25b0b835aca739),
        ("NVSHMEM dgx_h100 16x1x1 prune=0 graphs=0", 0xb1bb193d68559287),
        ("NVSHMEM dgx_h100 16x1x1 prune=0 graphs=1", 0x2731b1937d481145),
        ("NVSHMEM eos 4x1x1 prune=1 graphs=0", 0x7fcf56ee41a50b9d),
        ("NVSHMEM eos 4x1x1 prune=1 graphs=1", 0x7f3defe1bc7775e1),
        ("NVSHMEM eos 4x1x1 prune=0 graphs=0", 0x44f1056245a21da5),
        ("NVSHMEM eos 4x1x1 prune=0 graphs=1", 0x53c326a7e14c63a1),
        ("NVSHMEM eos 8x2x1 prune=1 graphs=0", 0x276adbb613015471),
        ("NVSHMEM eos 8x2x1 prune=1 graphs=1", 0xcf13c4ebe6c522ed),
        ("NVSHMEM eos 8x2x1 prune=0 graphs=0", 0xc90e7822cfccb1a5),
        ("NVSHMEM eos 8x2x1 prune=0 graphs=1", 0x4007146e3873e13d),
        ("NVSHMEM eos 8x2x2 prune=1 graphs=0", 0xfea256dbf82dc95d),
        ("NVSHMEM eos 8x2x2 prune=1 graphs=1", 0xd9f81e222030fe95),
        ("NVSHMEM eos 8x2x2 prune=0 graphs=0", 0x58e87ebecf76936b),
        ("NVSHMEM eos 8x2x2 prune=0 graphs=1", 0xe785a3cce21951c3),
        ("NVSHMEM eos 16x1x1 prune=1 graphs=0", 0xad90cd521a01eb43),
        ("NVSHMEM eos 16x1x1 prune=1 graphs=1", 0x15cd194988156da7),
        ("NVSHMEM eos 16x1x1 prune=0 graphs=0", 0x94f3092794c0d585),
        ("NVSHMEM eos 16x1x1 prune=0 graphs=1", 0x47373c30c85db4f9),
    ];

    #[test]
    fn timelines_match_the_deleted_per_backend_builders() {
        let cases = cases();
        assert_eq!(cases.len(), GOLDEN.len());
        for ((name, backend, input), (golden_name, golden)) in cases.iter().zip(GOLDEN) {
            assert_eq!(name, golden_name);
            let got = digest(&build(*backend, input, 3));
            assert_eq!(got, *golden, "{name}: digest {got:#018x}");
        }
    }
}
