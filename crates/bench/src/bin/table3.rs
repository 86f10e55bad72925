//! Reproduce **Table 3** of the paper: instance properties, scaling errors
//! and sequential execution times on the 12-matrix suite.
//!
//! Columns, as in the paper: instance name, n, number of edges, average
//! degree, sprank/n, scaling error after 1/5/10 Sinkhorn–Knopp iterations,
//! then single-thread times of `ScaleSK` (one iteration), `OneSidedMatch`
//! (including scaling), `KarpSipserMT` (matching only) and `TwoSidedMatch`
//! (scaling + sampling + matching).
//!
//! The instances are synthetic surrogates for the UFL matrices
//! (`dsmatch_gen::suite`); absolute times will differ from the paper's
//! 2012 Xeon, but the relative ordering (TwoSided ≈ 2–3 × OneSided;
//! KarpSipserMT dominating TwoSided's cost) should hold.
//!
//! ```text
//! cargo run --release -p dsmatch-bench --bin table3 [--shrink 64] [--runs 5] [--warmup 1]
//! ```

use dsmatch_bench::{arg, time_stats, with_threads, Table};
use dsmatch_core::{
    karp_sipser_mt, one_sided_match_with_scaling, two_sided_choices, two_sided_match,
    TwoSidedConfig,
};
use dsmatch_exact::sprank;
use dsmatch_gen::suite;
use dsmatch_scale::{sinkhorn_knopp, ScalingConfig};

fn main() {
    let shrink: usize = arg("shrink", 64);
    let runs: usize = arg("runs", 5);
    let warmup: usize = arg("warmup", 1);
    let seed: u64 = arg("seed", 0xD5);

    println!("# Table 3 — suite properties and sequential times (shrink = {shrink}, geo-mean of {} timed runs)", runs - warmup);
    let mut table = Table::new(vec![
        "name",
        "n",
        "edges",
        "avg.deg",
        "sprank/n",
        "err@1",
        "err@5",
        "err@10",
        "ScaleSK(s)",
        "OneSided(s)",
        "KarpSipserMT(s)",
        "TwoSided(s)",
    ]);

    for (k, entry) in suite::instances().into_iter().enumerate() {
        let g = entry.build_scaled(shrink, seed.wrapping_add(k as u64));
        let n = g.nrows();
        let spr = sprank(&g) as f64 / n as f64;
        let err1 = sinkhorn_knopp(&g, &ScalingConfig::iterations(1)).error;
        let err5 = sinkhorn_knopp(&g, &ScalingConfig::iterations(5)).error;
        let err10 = sinkhorn_knopp(&g, &ScalingConfig::iterations(10)).error;

        // All sequential timings inside a 1-thread pool, mirroring the
        // paper's single-thread baseline column.
        let (t_scale, t_one, t_ksmt, t_two) = with_threads(1, || {
            let t_scale = time_stats(runs, warmup, || {
                std::hint::black_box(sinkhorn_knopp(&g, &ScalingConfig::iterations(1)));
            });
            let scaling = sinkhorn_knopp(&g, &ScalingConfig::iterations(1));
            let t_one = t_scale
                + time_stats(runs, warmup, || {
                    std::hint::black_box(one_sided_match_with_scaling(&g, &scaling, 7));
                });
            let (rc, cc) = two_sided_choices(&g, &scaling, 7);
            let t_ksmt = time_stats(runs, warmup, || {
                std::hint::black_box(karp_sipser_mt(&rc, &cc));
            });
            let t_two = time_stats(runs, warmup, || {
                std::hint::black_box(two_sided_match(
                    &g,
                    &TwoSidedConfig { scaling: ScalingConfig::iterations(1), seed: 7 },
                ));
            });
            (t_scale, t_one, t_ksmt, t_two)
        });

        table.push(vec![
            entry.name.to_string(),
            n.to_string(),
            g.nnz().to_string(),
            format!("{:.1}", g.avg_degree()),
            format!("{spr:.2}"),
            format!("{err1:.2}"),
            format!("{err5:.2}"),
            format!("{err10:.2}"),
            format!("{t_scale:.4}"),
            format!("{t_one:.4}"),
            format!("{t_ksmt:.4}"),
            format!("{t_two:.4}"),
        ]);
    }
    table.print();
    println!();
    println!("paper reference shape: OneSided ≈ 2–2.5 × ScaleSK; TwoSided ≈ 2.5–3 × OneSided;");
    println!("sprank/n = 1.00 everywhere except europe_osm (0.99) and road_usa (0.95).");
}
