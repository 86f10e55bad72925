//! # dsmatch-weighted — approximate weighted matching
//!
//! The paper's related-work section surveys shared-memory heuristics for
//! *weighted* graph matching (Halappanavar et al. \[16\], Fagginger Auer &
//! Bisseling \[15\], Çatalyürek et al. \[6\]). This crate implements
//! Suitor, the engine's weighted workload, and the global greedy algorithm
//! it is tested against:
//!
//! - [`suitor`] — the Suitor algorithm (Manne & Halappanavar, IPDPS
//!   2014): every vertex proposes to its heaviest-reachable neighbour,
//!   proposals displace weaker suitors, and displaced vertices
//!   re-propose. It keeps each standing offer's weight beside its holder,
//!   so checking a candidate against it is O(1) and the run reads only
//!   the proposers' rows.
//! - [`greedy_weighted`] — sort edges by decreasing weight and take every
//!   edge whose endpoints are free: the classical ½-approximation for
//!   maximum weight matching. Under the same tie-breaking it produces
//!   **the same matching as [`suitor`]**, which the tests check; it is
//!   the reference, not a workload.
//!
//! Weights are attached to an [`dsmatch_graph::UndirectedGraph`] through
//! [`WeightedGraph`], which stores one `f64` per stored (directed) entry.
//! Its invariant is exact symmetry: both entries of an edge hold the same
//! bits, which is what lets [`suitor`] compare against a stored copy of an
//! offer's weight. [`WeightedGraph::from_fn`] attaches weights to a given
//! topology in one pass (the engine's weighted view of a bipartite
//! instance uses it on [`dsmatch_graph::UndirectedGraph::from_bipartite`]);
//! [`WeightedGraph::from_weighted_edges`] builds from an arbitrary edge
//! list with a sort.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod greedy;
mod suitor;

pub use graph::WeightedGraph;
pub use greedy::greedy_weighted;
pub use suitor::suitor;

use dsmatch_graph::UndirectedMatching;

/// Total weight of a matching in a weighted graph.
pub fn matching_weight(g: &WeightedGraph, m: &UndirectedMatching) -> f64 {
    m.iter_pairs().map(|(u, v)| g.weight(u, v).expect("matched pair must be an edge")).sum()
}

/// Exponential maximum-weight oracle for tests (≤ ~14 vertices).
pub fn brute_force_max_weight(g: &WeightedGraph) -> f64 {
    fn go(g: &WeightedGraph, free: &mut Vec<bool>, from: usize) -> f64 {
        let Some(v) = (from..g.n()).find(|&v| free[v]) else {
            return 0.0;
        };
        free[v] = false;
        let mut best = go(g, free, v + 1);
        for (u, w) in g.adj(v) {
            let u = u as usize;
            if free[u] {
                free[u] = false;
                best = best.max(w + go(g, free, v + 1));
                free[u] = true;
            }
        }
        free[v] = true;
        best
    }
    assert!(g.n() <= 16, "brute force limited to small graphs");
    let mut free = vec![true; g.n()];
    go(g, &mut free, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_weight_sums_pairs() {
        let g = WeightedGraph::from_weighted_edges(4, &[(0, 1, 2.5), (2, 3, 1.0)]);
        let mut m = UndirectedMatching::new(4);
        m.set(0, 1);
        m.set(2, 3);
        assert!((matching_weight(&g, &m) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn brute_force_picks_heavier_combination() {
        // Triangle with one heavy edge vs two light edges elsewhere.
        let g = WeightedGraph::from_weighted_edges(
            4,
            &[(0, 1, 1.0), (1, 2, 3.0), (2, 0, 1.0), (0, 3, 1.5)],
        );
        // Best: (1,2) + (0,3) = 4.5.
        assert!((brute_force_max_weight(&g) - 4.5).abs() < 1e-12);
    }
}
