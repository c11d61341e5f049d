//! Neighbour-search benchmarks: pair-list and cluster-list construction and
//! the central DD partition build (the per-NS-step costs of the substrate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use halox_dd::{build_partition, DdGrid};
use halox_md::{ClusterPairList, Frame, GrappaBuilder, PairList};
use std::hint::black_box;

fn bench_pair_list(c: &mut Criterion) {
    let mut group = c.benchmark_group("pair_list_build");
    group.sample_size(20);
    for &n in &[12_000usize, 48_000] {
        let sys = GrappaBuilder::new(n).seed(22).build();
        let rule = |a: usize, b: usize| !sys.is_excluded(a, b);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(PairList::build(&sys.pbc, &sys.positions, 0.8, &rule)))
        });
    }
    group.finish();
}

/// Same systems and radius as `pair_list_build`; elements per second should
/// hold between the two sizes (the build is linear in the cluster count).
fn bench_cluster_list(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_list_build");
    group.sample_size(20);
    for &n in &[12_000usize, 48_000] {
        let sys = GrappaBuilder::new(n).seed(22).build();
        let frame = Frame::fully_periodic(&sys.pbc);
        let rule = |a: usize, b: usize| !sys.is_excluded(a, b);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                black_box(ClusterPairList::build(
                    &frame,
                    &sys.positions,
                    &sys.kinds,
                    n,
                    0.8,
                    &rule,
                ))
            })
        });
    }
    group.finish();
}

fn bench_partition_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("dd_partition_build");
    group.sample_size(20);
    let sys = GrappaBuilder::new(24_000).seed(23).build();
    for dims in [[4usize, 1, 1], [2, 2, 1], [2, 2, 2]] {
        let label = format!("{}x{}x{}", dims[0], dims[1], dims[2]);
        group.bench_with_input(BenchmarkId::from_parameter(label), &dims, |b, &d| {
            b.iter(|| black_box(build_partition(&sys, &DdGrid::new(d), 0.8)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pair_list,
    bench_cluster_list,
    bench_partition_build
);
criterion_main!(benches);
