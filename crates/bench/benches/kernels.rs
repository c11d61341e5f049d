//! Microbenchmarks of the compute kernels the halo exchange overlaps with:
//! non-bonded forces, bonded forces, pack/unpack-style gathers, and the
//! force-unpack accumulation primitive.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use halox_md::cluster::{compute_nonbonded_clusters_aos, ClusterPairList};
use halox_md::forces::{compute_angles, compute_bonds, compute_nonbonded, NonbondedParams};
use halox_md::{Frame, GrappaBuilder, PairList, Vec3};
use halox_shmem::SymVec3;
use std::hint::black_box;

fn bench_nonbonded(c: &mut Criterion) {
    let mut group = c.benchmark_group("nonbonded_kernel");
    for &n in &[3_000usize, 12_000] {
        let sys = GrappaBuilder::new(n).seed(1).build();
        let rule = |a: usize, b: usize| !sys.is_excluded(a, b);
        let pl = PairList::build(&sys.pbc, &sys.positions, 0.8, &rule);
        let frame = Frame::fully_periodic(&sys.pbc);
        let params = NonbondedParams::new(0.7);
        let mut forces = vec![Vec3::ZERO; n];
        group.throughput(Throughput::Elements(pl.n_pairs() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                forces.clear();
                forces.resize(n, Vec3::ZERO);
                black_box(compute_nonbonded(
                    &frame,
                    &sys.positions,
                    &sys.kinds,
                    &pl,
                    &params,
                    &mut forces,
                ))
            })
        });
    }
    group.finish();
}

fn bench_bonded(c: &mut Criterion) {
    let sys = GrappaBuilder::new(12_000).seed(2).build();
    let n = sys.n_atoms();
    let ident = move |g: u32| if (g as usize) < n { Some(g) } else { None };
    let mut forces = vec![Vec3::ZERO; n];
    c.bench_function("bonded_kernel_12k", |b| {
        b.iter(|| {
            forces.clear();
            forces.resize(n, Vec3::ZERO);
            let e1 = compute_bonds(&sys.pbc, &sys.positions, &sys.bonds, &ident, &mut forces);
            let e2 = compute_angles(&sys.pbc, &sys.positions, &sys.angles, &ident, &mut forces);
            black_box(e1 + e2)
        })
    });
}

fn bench_pack_gather(c: &mut Criterion) {
    // The pack loop of the halo exchange: gather + shift through an index
    // map (the per-atom work of Algorithm 4).
    let sys = GrappaBuilder::new(24_000).seed(3).build();
    let index: Vec<u32> = (0..6_000u32).map(|i| i * 4).collect();
    let shift = Vec3::new(7.7, 0.0, 0.0);
    let mut out = vec![Vec3::ZERO; index.len()];
    let mut group = c.benchmark_group("pack_gather");
    group.throughput(Throughput::Elements(index.len() as u64));
    group.bench_function("6k_of_24k", |b| {
        b.iter(|| {
            for (o, &i) in out.iter_mut().zip(&index) {
                *o = sys.positions[i as usize] + shift;
            }
            black_box(out.len())
        })
    });
    group.finish();
}

fn bench_accumulate(c: &mut Criterion) {
    // The force-unpack primitive: single-writer load+store accumulation
    // into a symmetric force buffer (`exec::fused::fused_comm_unpack_f`).
    let buf = SymVec3::alloc(1, 8_192);
    let index: Vec<u32> = (0..4_096u32).map(|i| i * 2).collect();
    let mut group = c.benchmark_group("force_unpack_accumulate");
    group.throughput(Throughput::Elements(index.len() as u64));
    group.bench_function("4k_adds", |b| {
        b.iter(|| {
            for &i in &index {
                let sum = buf.get(0, i as usize) + Vec3::new(0.1, 0.2, 0.3);
                buf.set(0, i as usize, sum);
            }
        })
    });
    group.finish();
}

fn bench_cluster_kernel(c: &mut Criterion) {
    // Plain pair-list kernel vs the NBNXM-style cluster-pair kernel.
    let n = 12_000;
    let sys = GrappaBuilder::new(n).seed(4).build();
    let rule = |a: usize, b: usize| !sys.is_excluded(a, b);
    let frame = Frame::fully_periodic(&sys.pbc);
    let params = NonbondedParams::new(0.7);
    let list = ClusterPairList::build(&frame, &sys.positions, &sys.kinds, n, 0.75, &rule);
    let mut forces = vec![Vec3::ZERO; n];
    let mut group = c.benchmark_group("nonbonded_cluster_kernel");
    group.throughput(Throughput::Elements(list.n_pairs() as u64));
    group.bench_function("12k", |b| {
        b.iter(|| {
            forces.clear();
            forces.resize(n, Vec3::ZERO);
            black_box(compute_nonbonded_clusters_aos(
                &frame,
                &sys.positions,
                &list,
                &params,
                &mut forces,
            ))
        })
    });
    group.bench_function("12k_list_build", |b| {
        b.iter(|| {
            black_box(ClusterPairList::build(
                &frame,
                &sys.positions,
                &sys.kinds,
                n,
                0.75,
                &rule,
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_nonbonded,
    bench_bonded,
    bench_pack_gather,
    bench_accumulate,
    bench_cluster_kernel
);
criterion_main!(benches);
