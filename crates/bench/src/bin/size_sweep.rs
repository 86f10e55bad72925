//! Speedup-vs-size sweep: how parallel efficiency depends on instance
//! size.
//!
//! The paper's Figures 3–4 report 8–12× speedups at 16 threads on
//! instances of 10⁶–10⁸ edges. On smaller surrogates the fixed parallel
//! overhead (pool wakeup, cache-line ping-pong on the atomics) dominates.
//! This binary quantifies the crossover, which relates the shrunk-instance
//! speedups of the other bins to the paper's full-size ones.
//!
//! ```text
//! cargo run --release -p dsmatch-bench --bin size_sweep [--threads 16]
//! ```

use dsmatch_bench::{arg, time_stats, with_threads, Table};
use dsmatch_core::{two_sided_match, TwoSidedConfig};
use dsmatch_gen::erdos_renyi_square;
use dsmatch_scale::{sinkhorn_knopp, ScalingConfig};

fn main() {
    let threads: usize =
        arg("threads", std::thread::available_parallelism().map_or(8, |n| n.get().min(16)));
    let runs: usize = arg("runs", 6);
    let warmup: usize = arg("warmup", 2);

    println!("# Speedup vs instance size (ER d = 8, {threads} threads vs 1)");
    let mut table = Table::new(vec!["n", "edges", "ScaleSK ×", "TwoSided ×"]);
    for exp in 12..=21usize {
        let n = 1usize << exp;
        let g = erdos_renyi_square(n, 8.0, 5);
        let cfg = ScalingConfig::iterations(1);
        let t1_scale = with_threads(1, || {
            time_stats(runs, warmup, || {
                std::hint::black_box(sinkhorn_knopp(&g, &cfg));
            })
        });
        let tp_scale = with_threads(threads, || {
            time_stats(runs, warmup, || {
                std::hint::black_box(sinkhorn_knopp(&g, &cfg));
            })
        });
        let two_cfg = TwoSidedConfig { scaling: cfg, seed: 7 };
        let t1_two = with_threads(1, || {
            time_stats(runs, warmup, || {
                std::hint::black_box(two_sided_match(&g, &two_cfg));
            })
        });
        let tp_two = with_threads(threads, || {
            time_stats(runs, warmup, || {
                std::hint::black_box(two_sided_match(&g, &two_cfg));
            })
        });
        table.push(vec![
            n.to_string(),
            g.nnz().to_string(),
            format!("{:.2}", t1_scale / tp_scale),
            format!("{:.2}", t1_two / tp_two),
        ]);
    }
    table.print();
    println!();
    println!("expected: speedup grows monotonically with n and approaches the paper's");
    println!("8–12× once the instance stops fitting in the shared cache.");
}
