//! Approximate *weighted* matching with the Suitor algorithm — the
//! related-work landscape the paper situates itself in (Halappanavar et
//! al., Fagginger Auer & Bisseling).
//!
//! Scenario: a compute cluster pairs nodes for all-reduce communication;
//! edge weights are link bandwidths, and we want a heavy matching fast.
//! Compares global greedy with the Suitor algorithm, which finds the same
//! matching without greedy's global sort.
//!
//! ```text
//! cargo run --release --example weighted_suitor [n]
//! ```

use dsmatch::prelude::*;
use dsmatch::weighted::{greedy_weighted, matching_weight, suitor, WeightedGraph};
use std::time::Instant;

fn cluster_topology(n: usize, seed: u64) -> WeightedGraph {
    // Fat-tree-ish: ring of racks + random uplinks, bandwidth falls with
    // "distance".
    let mut rng = SplitMix64::new(seed);
    let mut edges: Vec<(usize, usize, f64)> = Vec::with_capacity(3 * n);
    for v in 0..n {
        edges.push((v, (v + 1) % n, 100.0 + rng.next_f64() * 10.0)); // intra-rack
        edges.push((v, (v + 7) % n, 40.0 + rng.next_f64() * 10.0)); // cross-rack
    }
    for _ in 0..n {
        let u = rng.next_index(n);
        let v = rng.next_index(n);
        if u != v {
            edges.push((u, v, 10.0 + rng.next_f64() * 10.0)); // core links
        }
    }
    WeightedGraph::from_weighted_edges(n, &edges)
}

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(200_000);
    let g = cluster_topology(n, 0xBEEF);
    println!("cluster graph: {} nodes, {} links", g.n(), g.edge_count());

    let run = |name: &str, f: &dyn Fn() -> dsmatch::graph::UndirectedMatching| {
        let t0 = Instant::now();
        let m = f();
        let dt = t0.elapsed();
        m.verify(g.topology()).unwrap();
        println!(
            "{name:>22}: weight {:>12.1}, {:>6} pairs, {dt:>9.2?}",
            matching_weight(&g, &m),
            m.cardinality()
        );
        m
    };

    let gr = run("greedy (sort-based)", &|| greedy_weighted(&g));
    let s = run("suitor", &|| suitor(&g));

    assert_eq!(gr, s, "Suitor must equal greedy under the shared edge order");
    println!();
    println!("suitor == greedy (theorem of Manne & Halappanavar), but without the");
    println!("global sort — the same locality-first design as the paper's KarpSipserMT.");
}
