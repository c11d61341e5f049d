//! `halox-md` kernels on the rank-0 sub-system of the workload's `[2,1,1]`
//! partition — exactly the arrays one PE of the engine feeds them: home
//! atoms followed by shifted halo copies, eighth-shell pair ownership,
//! intramolecular exclusions.

use crate::harness::{median, time_reps, Outcome};
use crate::inputs::{GRID_2PE, R_COMM};
use crate::span::Spans;
use halox_dd::{build_partition, reference_coordinate_exchange, DdGrid};
use halox_md::cluster::{compute_nonbonded_clusters, ClusterPairList, NbPartition};
use halox_md::forces::{compute_angles, compute_bonds, compute_nonbonded, NonbondedParams};
use halox_md::pairlist::eighth_shell_rule;
use halox_md::{integrate, Frame, PairList, SoaCoords, SoaForces, System, Vec3};

const CUTOFF: f32 = 0.7;
const DT_PS: f32 = 0.0005;

pub fn run(system: &System, spans: &mut Spans, out: &mut Outcome) {
    spans.scope("probe.md", |spans| probe(system, spans, out));
}

fn probe(system: &System, spans: &mut Spans, out: &mut Outcome) {
    let part = build_partition(system, &DdGrid::new(GRID_2PE), R_COMM);
    let mut coords: Vec<Vec<Vec3>> = part
        .ranks
        .iter()
        .map(|r| r.build_positions.clone())
        .collect();
    reference_coordinate_exchange(&part, &mut coords);
    let plan = &part.ranks[0];
    let positions = &coords[0];
    let (n_home, n_local) = (plan.n_home, plan.n_local());
    let frame = Frame::for_decomposition(&system.pbc, part.grid.dims);
    let params = NonbondedParams::new(CUTOFF);
    let (disp, ids) = (&plan.displacement, &plan.global_ids);
    let rule = move |i: usize, j: usize| {
        eighth_shell_rule(disp, i, j) && !system.is_excluded(ids[i] as usize, ids[j] as usize)
    };

    // --- list builds ---
    let (scalar_builds, _) = spans.scope("md.pairlist_build", |_| {
        time_reps(7, || {
            PairList::build_in_frame(&frame, positions, R_COMM, &rule)
        })
    });
    out.set_value("md.pairlist_build_ms", median(&scalar_builds) * 1e3);
    let (cluster_builds, _) = spans.scope("md.cluster_list_build", |_| {
        time_reps(7, || {
            ClusterPairList::build(&frame, positions, &plan.kinds, n_home, R_COMM, &rule)
        })
    });
    let build_s = median(&cluster_builds);
    out.set_value("md.cluster_list_build_ms", build_s * 1e3);
    out.set_value("md.list_build_matoms_per_s", n_local as f64 / build_s / 1e6);

    let pl = PairList::build_in_frame(&frame, positions, R_COMM, &rule);
    let cl = ClusterPairList::build(&frame, positions, &plan.kinds, n_home, R_COMM, &rule);
    let pairs = cl.n_pairs();
    out.check(pairs == pl.n_pairs(), || {
        format!(
            "cluster list covers {pairs} pairs, scalar list {}",
            pl.n_pairs()
        )
    });
    out.set_value("md.pairs_per_atom", pairs as f64 / n_home as f64);

    // --- kernels: scalar and cluster passes interleaved per round so a
    // host slowdown lands on both ---
    let mut soa = SoaCoords::default();
    cl.pack_coords(positions, &mut soa, 0..cl.n_clusters());
    let mut lanes = SoaForces::default();
    let mut forces = vec![Vec3::ZERO; n_local];
    let (mut local_s, mut halo_s, mut scalar_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut e_cluster, mut e_scalar) = (0.0, 0.0);
    for _ in 0..15 {
        lanes.reset(cl.n_lanes());
        let ((e_l, _), t_l) = spans.scope("md.nb_local", |_| {
            compute_nonbonded_clusters(&frame, &soa, &cl, NbPartition::Local, &params, &mut lanes)
        });
        let ((e_h, _), t_h) = spans.scope("md.nb_halo", |_| {
            compute_nonbonded_clusters(&frame, &soa, &cl, NbPartition::Halo, &params, &mut lanes)
        });
        local_s.push(t_l);
        halo_s.push(t_h);
        e_cluster = e_l + e_h;
        forces.fill(Vec3::ZERO);
        let (e, t_s) = spans.scope("md.nb_scalar", |_| {
            compute_nonbonded(&frame, positions, &plan.kinds, &pl, &params, &mut forces)
        });
        scalar_s.push(t_s);
        e_scalar = e;
    }
    out.check(
        ((e_cluster - e_scalar) / e_scalar.abs().max(1.0)).abs() < 1e-4,
        || format!("cluster kernel energy {e_cluster} vs scalar {e_scalar}"),
    );
    let (local, halo) = (median(&local_s), median(&halo_s));
    out.set_value("md.nb_local_ms", local * 1e3);
    out.set_value("md.nb_halo_ms", halo * 1e3);
    out.set_value("md.nb_cluster_ms", (local + halo) * 1e3);
    out.set_value(
        "md.nb_cluster_mpairs_per_s",
        pairs as f64 / (local + halo) / 1e6,
    );
    out.set_value(
        "md.nb_scalar_mpairs_per_s",
        pairs as f64 / median(&scalar_s) / 1e6,
    );

    // Computed bytes per pair from the SoA sizes one pass streams: lane
    // coordinates in, lane forces in and out, kinds and charges, and per
    // tile the j-cluster index and mask. Cache misses are not in it.
    let n_lanes = cl.n_lanes() as f64;
    let tiles = (cl.local.n_tiles() + cl.halo.n_tiles()) as f64;
    let rows = (cl.local.n_rows() + cl.halo.n_rows()) as f64;
    let bytes = n_lanes * (12.0 + 24.0 + 1.0 + 4.0) + tiles * (4.0 + 2.0) + rows * (4.0 + 4.0);
    out.set_value("md.nb_bytes_per_pair", bytes / pairs as f64);

    // --- bonded terms and the integrator on the same rank ---
    let local_ident = |g: u32| Some(g);
    let bonded = time_reps(50, || {
        forces.fill(Vec3::ZERO);
        compute_bonds(
            &system.pbc,
            positions,
            &plan.bonds,
            &local_ident,
            &mut forces,
        ) + compute_angles(
            &system.pbc,
            positions,
            &plan.angles,
            &local_ident,
            &mut forces,
        )
    });
    out.set_value("md.bonded_us", median(&bonded) * 1e6);
    let mut x = positions[..n_home].to_vec();
    let mut v = vec![Vec3::ZERO; n_home];
    let f = vec![Vec3::splat(1.0); n_home];
    let steps = time_reps(200, || {
        integrate::leapfrog_step(&mut x, &mut v, &f, &plan.inv_mass[..n_home], DT_PS)
    });
    out.set_value("md.integrate_us", median(&steps) * 1e6);
}
