//! Ablation benchmarks for two design choices:
//!
//! - **Scaling algorithm**: Sinkhorn–Knopp vs Ruiz at equal iteration
//!   budgets — the paper (§2.2) claims SK converges faster on unsymmetric
//!   matrices.
//! - **Warm-starting exact solvers** with heuristic matchings — the
//!   motivating use case from the paper's introduction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsmatch_core::{two_sided_match_with_scaling, TwoSidedConfig};
use dsmatch_exact::{hopcroft_karp_from, pothen_fan_from};
use dsmatch_gen::erdos_renyi_square;
use dsmatch_graph::Matching;
use dsmatch_scale::{ruiz, sinkhorn_knopp, ScalingConfig};

fn bench_scaling_choice(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_scaling_algorithm");
    group.sample_size(15);
    let g = erdos_renyi_square(50_000, 6.0, 17);
    for iters in [1usize, 5] {
        group.bench_with_input(BenchmarkId::new("sinkhorn", iters), &iters, |b, &it| {
            b.iter(|| sinkhorn_knopp(&g, &ScalingConfig::iterations(it)))
        });
        group.bench_with_input(BenchmarkId::new("ruiz", iters), &iters, |b, &it| {
            b.iter(|| ruiz(&g, &ScalingConfig::iterations(it)))
        });
    }
    group.finish();
}

fn bench_jumpstart(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_exact_solver_jumpstart");
    group.sample_size(10);
    let g = erdos_renyi_square(50_000, 5.0, 23);
    let scaling = sinkhorn_knopp(&g, &ScalingConfig::iterations(5));
    let warm = two_sided_match_with_scaling(&g, &scaling, 7);
    let _ = TwoSidedConfig::default();

    group.bench_function("hopcroft_karp_cold", |b| {
        b.iter(|| hopcroft_karp_from(&g, Matching::new(g.nrows(), g.ncols())))
    });
    group.bench_function("hopcroft_karp_twosided_warm", |b| {
        b.iter(|| hopcroft_karp_from(&g, warm.clone()))
    });
    group.bench_function("pothen_fan_cold", |b| {
        b.iter(|| pothen_fan_from(&g, Matching::new(g.nrows(), g.ncols())))
    });
    group.bench_function("pothen_fan_twosided_warm", |b| {
        b.iter(|| pothen_fan_from(&g, warm.clone()))
    });
    group.finish();
}

criterion_group!(benches, bench_scaling_choice, bench_jumpstart);
criterion_main!(benches);
