//! Weighted undirected graph: symmetric pattern + one weight per entry.

use dsmatch_graph::{UndirectedGraph, VertexId};

/// An undirected graph with positive edge weights.
///
/// Weights are stored per *directed* entry of the symmetric CSR.
///
/// Invariant: the two entries of an edge hold the **same bits**,
/// `w(u,v).to_bits() == w(v,u).to_bits()`. [`crate::suitor`] relies on it:
/// it keeps the weight of a standing offer as read from the proposer's
/// row and compares later candidates, read from their own rows, against
/// that copy. [`Self::from_weighted_edges`] writes both entries from one
/// value; [`Self::from_fn`] checks it in debug builds.
#[derive(Clone, Debug)]
pub struct WeightedGraph {
    topo: UndirectedGraph,
    weights: Vec<f64>, // aligned with topo.csr() entries
}

impl WeightedGraph {
    /// Build from `(u, v, w)` triples; the reverse entries are added
    /// automatically. Duplicate edges keep the **maximum** weight.
    ///
    /// # Panics
    /// If any weight is not finite and positive, or `u == v`.
    pub fn from_weighted_edges(n: usize, edges: &[(usize, usize, f64)]) -> Self {
        for &(u, v, w) in edges {
            assert!(u != v, "self-loop ({u},{v})");
            assert!(w.is_finite() && w > 0.0, "weight must be positive and finite, got {w}");
        }
        let pairs: Vec<(usize, usize)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        let topo = UndirectedGraph::from_edges(n, &pairs);
        // Scatter weights into entry order (max on duplicates).
        let csr = topo.csr();
        let mut weights = vec![0.0f64; csr.nnz()];
        let mut place = |u: usize, v: usize, w: f64| {
            let row = csr.row(u);
            let k = row.binary_search(&(v as VertexId)).expect("edge must exist");
            let idx = csr.row_ptr()[u] + k;
            if w > weights[idx] {
                weights[idx] = w;
            }
        };
        for &(u, v, w) in edges {
            place(u, v, w);
            place(v, u, w);
        }
        Self { topo, weights }
    }

    /// Attach weights to an existing symmetric graph; `weight_of(u, v)` is
    /// evaluated once per stored entry and must be exactly symmetric: the
    /// same bits for `(u, v)` and `(v, u)` (checked in debug builds).
    ///
    /// # Panics
    /// If any weight is not finite and positive; in debug builds also if
    /// the two entries of an edge differ in any bit.
    pub fn from_fn(topo: UndirectedGraph, weight_of: impl Fn(usize, usize) -> f64) -> Self {
        let csr = topo.csr();
        let mut weights = Vec::with_capacity(csr.nnz());
        for u in 0..topo.n() {
            for &v in csr.row(u) {
                let w = weight_of(u, v as usize);
                assert!(w.is_finite() && w > 0.0, "weight({u},{v}) = {w} invalid");
                weights.push(w);
            }
        }
        let g = Self { topo, weights };
        debug_assert!(g.check_symmetric(), "weight function must be exactly symmetric");
        g
    }

    fn check_symmetric(&self) -> bool {
        (0..self.n()).all(|u| {
            self.adj(u).all(|(v, w)| {
                self.weight(v as usize, u).is_some_and(|back| back.to_bits() == w.to_bits())
            })
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.topo.n()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.topo.edge_count()
    }

    /// The unweighted topology.
    #[inline]
    pub fn topology(&self) -> &UndirectedGraph {
        &self.topo
    }

    /// Weighted adjacency of `u`: `(neighbour, weight)` pairs.
    pub fn adj(&self, u: usize) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        let start = self.topo.csr().row_ptr()[u];
        self.topo.adj(u).iter().enumerate().map(move |(k, &v)| (v, self.weights[start + k]))
    }

    /// Weight of edge `(u, v)`, if present.
    pub fn weight(&self, u: usize, v: usize) -> Option<f64> {
        let row = self.topo.adj(u);
        row.binary_search(&(v as VertexId))
            .ok()
            .map(|k| self.weights[self.topo.csr().row_ptr()[u] + k])
    }

    /// All undirected edges as `(u, v, w)` with `u < v`.
    pub fn iter_weighted_edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n()).flat_map(move |u| {
            self.adj(u).filter(move |&(v, _)| u < v as usize).map(move |(v, w)| (u, v as usize, w))
        })
    }

    /// Total vertex count with at least one edge.
    pub fn non_isolated(&self) -> usize {
        (0..self.n()).filter(|&v| self.topo.degree(v) > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_symmetric_and_queryable() {
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 5.0)]);
        assert_eq!(g.weight(0, 1), Some(2.0));
        assert_eq!(g.weight(1, 0), Some(2.0));
        assert_eq!(g.weight(2, 1), Some(5.0));
        assert_eq!(g.weight(0, 2), None);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn duplicate_edges_keep_max() {
        let g = WeightedGraph::from_weighted_edges(2, &[(0, 1, 1.0), (1, 0, 7.0)]);
        assert_eq!(g.weight(0, 1), Some(7.0));
    }

    #[test]
    fn from_fn_builds_weights() {
        let topo = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let g = WeightedGraph::from_fn(topo, |u, v| (u + v + 1) as f64);
        assert_eq!(g.weight(0, 1), Some(2.0));
        assert_eq!(g.weight(1, 2), Some(4.0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exactly symmetric")]
    fn from_fn_rejects_a_one_ulp_asymmetry() {
        let topo = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2)]);
        // (1, 2) is one ulp heavier than (2, 1); the old `|Δ| < 1e-12`
        // check let that through.
        let _ = WeightedGraph::from_fn(topo, |u, v| {
            let w = 0.5 + (u + v) as f64;
            if (u, v) == (1, 2) {
                f64::from_bits(w.to_bits() + 1)
            } else {
                w
            }
        });
    }

    #[test]
    fn iter_weighted_edges_unique() {
        let g = WeightedGraph::from_weighted_edges(4, &[(0, 1, 1.0), (2, 3, 2.0), (1, 2, 3.0)]);
        let edges: Vec<_> = g.iter_weighted_edges().collect();
        assert_eq!(edges.len(), 3);
        assert!(edges.iter().all(|&(u, v, _)| u < v));
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn rejects_nonpositive_weights() {
        let _ = WeightedGraph::from_weighted_edges(2, &[(0, 1, 0.0)]);
    }

    #[test]
    fn adj_pairs_aligned() {
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1, 9.0), (0, 2, 4.0)]);
        let adj: Vec<_> = g.adj(0).collect();
        assert_eq!(adj, vec![(1, 9.0), (2, 4.0)]);
    }
}
