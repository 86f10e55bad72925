//! Undirected (general, non-bipartite) graphs and matchings.
//!
//! The paper's conclusion (§5) announces "variants of the proposed
//! heuristics for finding approximate matchings in undirected graphs. The
//! algorithms and results extend naturally". This module provides the
//! substrate for that extension: a symmetric-pattern graph type and a
//! single-sided matching, mirroring [`crate::bipartite`] /
//! [`crate::matching`].

use crate::bipartite::BipartiteGraph;
use crate::csr::Csr;
use crate::{VertexId, NIL};

/// An undirected graph stored as a symmetric CSR pattern with an empty
/// diagonal (no self-loops — a vertex cannot match itself).
#[derive(Clone, Debug)]
pub struct UndirectedGraph {
    adj: Csr,
}

impl UndirectedGraph {
    /// Build from a symmetric, zero-diagonal CSR pattern.
    ///
    /// # Panics
    /// If the pattern is not square, not symmetric, or has diagonal
    /// entries.
    pub fn from_symmetric_csr(adj: Csr) -> Self {
        assert!(adj.is_square(), "undirected graphs need a square pattern");
        assert!(adj.is_transpose_of(&adj), "undirected graphs need a symmetric pattern");
        for v in 0..adj.nrows() {
            assert!(!adj.contains(v, v), "self-loop at vertex {v}: matchings cannot use them");
        }
        Self { adj }
    }

    /// Build from an arbitrary edge list, symmetrizing and dropping
    /// self-loops.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut t = crate::triplet::TripletMatrix::with_capacity(n, n, 2 * edges.len());
        for &(u, v) in edges {
            if u != v {
                t.push(u, v);
                t.push(v, u);
            }
        }
        Self { adj: t.into_csr() }
    }

    /// The undirected view of a bipartite graph in `O(nrows + ncols + nnz)`:
    /// row `i` becomes vertex `i` and column `j` becomes vertex
    /// `nrows + j`. The rows' adjacency is the CSR shifted by `nrows`, the
    /// columns' is the CSC; both are already sorted, so the result equals
    /// [`Self::from_edges`] of the `(i, nrows + j)` edge list without its
    /// sort.
    ///
    /// # Panics
    /// If `nrows + ncols` does not fit a [`VertexId`] below [`NIL`].
    pub fn from_bipartite(g: &BipartiteGraph) -> Self {
        let (nr, nc, nnz) = (g.nrows(), g.ncols(), g.nnz());
        let n = nr + nc;
        assert!(n < NIL as usize, "vertex count {n} must fit in u32");
        let (csr, csc) = (g.csr(), g.csc());
        let row_ptr: Vec<usize> = csr
            .row_ptr()
            .iter()
            .copied()
            .chain(csc.row_ptr()[1..].iter().map(|&p| p + nnz))
            .collect();
        let shift = nr as VertexId;
        let col_idx: Vec<VertexId> =
            csr.col_idx().iter().map(|&j| j + shift).chain(csc.col_idx().iter().copied()).collect();
        Self { adj: Csr::from_parts(n, n, row_ptr, col_idx) }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.nrows()
    }

    /// Number of undirected edges (half the stored entries).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.adj.nnz() / 2
    }

    /// Neighbours of `v`, sorted.
    #[inline]
    pub fn adj(&self, v: usize) -> &[VertexId] {
        self.adj.row(v)
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.adj.row_degree(v)
    }

    /// The underlying symmetric CSR.
    #[inline]
    pub fn csr(&self) -> &Csr {
        &self.adj
    }

    /// Edge membership.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj.contains(u, v)
    }

    /// Iterate over edges with `u < v`.
    pub fn iter_edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj.iter_entries().filter(|&(u, v)| u < v)
    }
}

/// A matching in an undirected graph: `mate[v]` is `v`'s partner or [`NIL`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UndirectedMatching {
    mate: Vec<VertexId>,
}

impl UndirectedMatching {
    /// Empty matching over `n` vertices.
    pub fn new(n: usize) -> Self {
        Self { mate: vec![NIL; n] }
    }

    /// Build from a mate array (must be an involution; checked).
    ///
    /// # Panics
    /// If `mate` is not symmetric (`mate[mate[v]] == v`).
    pub fn from_mates(mate: Vec<VertexId>) -> Self {
        let m = Self { mate };
        m.check_consistent().expect("mate array must be an involution");
        m
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.mate.len()
    }

    /// Partner of `v`, or [`NIL`].
    #[inline]
    pub fn mate(&self, v: usize) -> VertexId {
        self.mate[v]
    }

    /// Raw mate array.
    #[inline]
    pub fn mates(&self) -> &[VertexId] {
        &self.mate
    }

    /// True if `v` is matched.
    #[inline]
    pub fn is_matched(&self, v: usize) -> bool {
        self.mate[v] != NIL
    }

    /// Match `u` with `v`, unmatching previous partners.
    pub fn set(&mut self, u: usize, v: usize) {
        assert_ne!(u, v, "cannot match a vertex with itself");
        let old_u = self.mate[u];
        if old_u != NIL {
            self.mate[old_u as usize] = NIL;
        }
        let old_v = self.mate[v];
        if old_v != NIL {
            self.mate[old_v as usize] = NIL;
        }
        self.mate[u] = v as VertexId;
        self.mate[v] = u as VertexId;
    }

    /// Number of matched pairs.
    pub fn cardinality(&self) -> usize {
        self.mate.iter().filter(|&&m| m != NIL).count() / 2
    }

    /// Matched pairs with `u < v`.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.mate
            .iter()
            .enumerate()
            .filter(|&(v, &m)| m != NIL && v < m as usize)
            .map(|(v, &m)| (v, m as usize))
    }

    /// Check the involution property.
    pub fn check_consistent(&self) -> Result<(), String> {
        for (v, &m) in self.mate.iter().enumerate() {
            if m == NIL {
                continue;
            }
            let m = m as usize;
            if m >= self.mate.len() {
                return Err(format!("mate[{v}] = {m} out of bounds"));
            }
            if m == v {
                return Err(format!("vertex {v} matched with itself"));
            }
            if self.mate[m] != v as VertexId {
                return Err(format!("mate[{v}] = {m} but mate[{m}] = {}", self.mate[m]));
            }
        }
        Ok(())
    }

    /// Full validation: consistency plus every pair being an edge.
    pub fn verify(&self, g: &UndirectedGraph) -> Result<(), String> {
        assert_eq!(self.n(), g.n());
        self.check_consistent()?;
        for (u, v) in self.iter_pairs() {
            if !g.has_edge(u, v) {
                return Err(format!("matched pair ({u}, {v}) is not an edge"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> UndirectedGraph {
        UndirectedGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn from_edges_symmetrizes() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert_eq!(g.degree(1), 2);
        let edges: Vec<_> = g.iter_edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn self_loops_dropped() {
        let g = UndirectedGraph::from_edges(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_rejected() {
        let csr = Csr::from_dense(&[&[0, 1], &[0, 0]]);
        let _ = UndirectedGraph::from_symmetric_csr(csr);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn diagonal_rejected() {
        let csr = Csr::from_dense(&[&[1, 1], &[1, 0]]);
        let _ = UndirectedGraph::from_symmetric_csr(csr);
    }

    /// `from_bipartite` must equal `from_edges` of the `(i, nrows + j)`
    /// edge list entry for entry.
    fn assert_view_is_the_edge_list_graph(g: &BipartiteGraph) {
        let nr = g.nrows();
        let edges: Vec<_> = g.csr().iter_entries().map(|(i, j)| (i, nr + j)).collect();
        let want = UndirectedGraph::from_edges(nr + g.ncols(), &edges);
        let got = UndirectedGraph::from_bipartite(g);
        assert_eq!(got.csr().row_ptr(), want.csr().row_ptr());
        assert_eq!(got.csr().col_idx(), want.csr().col_idx());
    }

    #[test]
    fn from_bipartite_equals_from_edges() {
        let shapes: [&[&[u8]]; 4] = [
            // Square.
            &[&[1, 1, 0], &[0, 1, 1], &[1, 0, 1]],
            // Rectangular, wide and tall.
            &[&[1, 0, 1, 1], &[0, 1, 0, 1]],
            &[&[1, 0], &[1, 1], &[0, 1], &[1, 0]],
            // An empty row and an empty column.
            &[&[1, 0, 1], &[0, 0, 0], &[1, 0, 0]],
        ];
        for rows in shapes {
            assert_view_is_the_edge_list_graph(&BipartiteGraph::from_csr(Csr::from_dense(rows)));
        }
        // Edgeless, with and without vertices on either side.
        for (nr, nc) in [(3, 2), (0, 4), (4, 0), (0, 0)] {
            assert_view_is_the_edge_list_graph(&BipartiteGraph::from_csr(Csr::empty(nr, nc)));
        }
        // Random sparse patterns, square and rectangular.
        let mut rng = crate::SplitMix64::new(17);
        for (nr, nc) in [(40, 25), (25, 40), (60, 60)] {
            let mut t = crate::TripletMatrix::new(nr, nc);
            for _ in 0..(nr + nc) {
                t.push(rng.next_index(nr), rng.next_index(nc));
            }
            assert_view_is_the_edge_list_graph(&BipartiteGraph::from_csr(t.into_csr()));
        }
    }

    #[test]
    fn matching_set_and_cardinality() {
        let mut m = UndirectedMatching::new(4);
        m.set(0, 2);
        m.set(1, 3);
        assert_eq!(m.cardinality(), 2);
        assert_eq!(m.mate(2), 0);
        m.check_consistent().unwrap();
        // Re-matching breaks old pairs cleanly.
        m.set(0, 1);
        assert_eq!(m.cardinality(), 1);
        assert!(!m.is_matched(2));
        assert!(!m.is_matched(3));
        m.check_consistent().unwrap();
    }

    #[test]
    fn verify_against_graph() {
        let g = triangle();
        let mut m = UndirectedMatching::new(3);
        m.set(0, 1);
        m.verify(&g).unwrap();
        let mut bad = UndirectedMatching::new(3);
        bad.set(0, 1);
        let g2 = UndirectedGraph::from_edges(3, &[(1, 2)]);
        assert!(bad.verify(&g2).is_err());
    }

    #[test]
    fn involution_checked() {
        assert!(UndirectedMatching { mate: vec![1, NIL] }.check_consistent().is_err());
        assert!(UndirectedMatching { mate: vec![0, NIL] }.check_consistent().is_err());
        assert!(UndirectedMatching { mate: vec![1, 0] }.check_consistent().is_ok());
    }
}
