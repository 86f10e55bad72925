//! Criterion micro-benchmark of the weighted workload's kernel, Suitor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dsmatch_graph::SplitMix64;
use dsmatch_weighted::{suitor, WeightedGraph};

fn random_weighted(n: usize, extra: usize, seed: u64) -> WeightedGraph {
    let mut rng = SplitMix64::new(seed);
    let mut edges: Vec<(usize, usize, f64)> =
        (0..n).map(|v| (v, (v + 1) % n, 1.0 + rng.next_f64())).collect();
    for _ in 0..extra {
        let u = rng.next_index(n);
        let v = rng.next_index(n);
        if u != v {
            edges.push((u, v, 1.0 + rng.next_f64()));
        }
    }
    WeightedGraph::from_weighted_edges(n, &edges)
}

fn bench_weighted(c: &mut Criterion) {
    let mut group = c.benchmark_group("weighted_matching_100k");
    group.sample_size(15);
    let g = random_weighted(100_000, 200_000, 42);
    group.throughput(Throughput::Elements(g.edge_count() as u64));
    group.bench_with_input(BenchmarkId::from_parameter("suitor"), &g, |b, g| b.iter(|| suitor(g)));
    group.finish();
}

criterion_group!(benches, bench_weighted);
criterion_main!(benches);
