//! Global greedy ½-approximation for maximum weight matching: the
//! reference [`crate::suitor`] is tested against.

use dsmatch_graph::UndirectedMatching;

use crate::graph::WeightedGraph;

/// Global greedy: scan edges in decreasing weight order, keep every edge
/// whose endpoints are both free. Guarantees weight ≥ ½ of the optimum.
///
/// Ties are broken by `(weight, u, v)` lexicographically (heavier first,
/// then smaller endpoints) — the same rule [`crate::suitor`] uses, which
/// makes the two algorithms produce identical matchings.
pub fn greedy_weighted(g: &WeightedGraph) -> UndirectedMatching {
    let mut edges: Vec<(f64, u32, u32)> =
        g.iter_weighted_edges().map(|(u, v, w)| (w, u as u32, v as u32)).collect();
    edges.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut m = UndirectedMatching::new(g.n());
    for (_, u, v) in edges {
        if !m.is_matched(u as usize) && !m.is_matched(v as usize) {
            m.set(u as usize, v as usize);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{brute_force_max_weight, matching_weight};

    fn path3() -> WeightedGraph {
        // 0 -2- 1 -3- 2 -2- 3 : optimum is {0-1, 2-3} = 4; greedy takes the
        // middle edge first = 3.
        WeightedGraph::from_weighted_edges(4, &[(0, 1, 2.0), (1, 2, 3.0), (2, 3, 2.0)])
    }

    #[test]
    fn greedy_takes_heaviest_first() {
        let g = path3();
        let m = greedy_weighted(&g);
        assert_eq!(m.mate(1), 2);
        assert!((matching_weight(&g, &m) - 3.0).abs() < 1e-12);
        // Half guarantee: 3 ≥ 4 / 2.
        assert!(matching_weight(&g, &m) * 2.0 >= brute_force_max_weight(&g));
    }

    #[test]
    fn greedy_is_maximal() {
        let g = WeightedGraph::from_weighted_edges(
            6,
            &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 4, 2.0), (4, 5, 1.0)],
        );
        let m = greedy_weighted(&g);
        m.verify(g.topology()).unwrap();
        for (u, v, _) in g.iter_weighted_edges() {
            assert!(m.is_matched(u) || m.is_matched(v));
        }
    }

    #[test]
    fn greedy_half_guarantee_on_randoms() {
        use dsmatch_graph::SplitMix64;
        let mut rng = SplitMix64::new(31);
        for trial in 0..100 {
            let n = 4 + rng.next_index(9);
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.next_below(3) == 0 {
                        edges.push((u, v, 1.0 + rng.next_f64() * 9.0));
                    }
                }
            }
            if edges.is_empty() {
                continue;
            }
            let g = WeightedGraph::from_weighted_edges(n, &edges);
            let opt = brute_force_max_weight(&g);
            let m = greedy_weighted(&g);
            m.verify(g.topology()).unwrap();
            let w = matching_weight(&g, &m);
            assert!(2.0 * w + 1e-9 >= opt, "trial {trial}: weight {w} < half of {opt}");
        }
    }

    #[test]
    fn empty_graph() {
        let g = WeightedGraph::from_weighted_edges(3, &[]);
        assert_eq!(greedy_weighted(&g).cardinality(), 0);
    }
}
