//! # dsmatch-dm — Dulmage–Mendelsohn decomposition
//!
//! §3.3 of the paper leans on the canonical DM decomposition to argue that
//! its heuristics behave well on matrices *without* perfect matchings: the
//! scaling iteration drives the entries of the `∗` blocks (those belonging
//! to no maximum matching) to zero, so the sampled subgraph concentrates on
//! the relevant blocks. This crate implements:
//!
//! - the **coarse** decomposition ([`dulmage_mendelsohn`]): the partition of
//!   rows and columns into the horizontal (`H`, underdetermined), square
//!   (`S`) and vertical (`V`, overdetermined) parts via alternating-path
//!   reachability from the vertices a maximum matching leaves unmatched.
//!   Any maximum matching gives the same partition; the crate takes it
//!   from push-relabel, the engine's fastest exact solver;
//! - the **fine** decomposition ([`fine_decomposition`]): the strongly
//!   connected components of the square part, giving the block
//!   upper-triangular form of `S` and the total-support test;
//! - convenience predicates [`has_total_support`] and
//!   [`is_fully_indecomposable`], used by the generators' tests and the
//!   §4.1.1 quality-sweep harness to select instances matching the paper's
//!   "square, fully indecomposable" criterion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btf;
mod coarse;
mod fine;

pub use btf::{block_triangular_form, btf_permutation, BtfPermutation};
pub use coarse::{dulmage_mendelsohn, dulmage_mendelsohn_with, CoarsePart, DmDecomposition};
pub use fine::{fine_decomposition, FineDecomposition};

use dsmatch_graph::BipartiteGraph;

/// Does every nonzero entry belong to some maximum matching?
///
/// For a square matrix with a perfect matching this is the classical
/// *total support* property: it holds iff every edge of the square part
/// stays within a single strongly connected fine block.
pub fn has_total_support(g: &BipartiteGraph) -> bool {
    let dm = dulmage_mendelsohn(g);
    if dm.h_cols > 0 || dm.v_rows > 0 {
        // Entries inside H and V can still be in some maximum matching, but
        // entries in the off-diagonal `∗` blocks are not; the paper's usage
        // (square matrices) only needs the S-only case, so we require the
        // matrix to be entirely S.
        return false;
    }
    let fine = fine_decomposition(g, &dm);
    fine.all_edges_intra_block(g)
}

/// Square with a perfect matching and a single fine block — the matrices
/// the paper's theoretical sections assume ("fully indecomposable").
pub fn is_fully_indecomposable(g: &BipartiteGraph) -> bool {
    if !g.is_square() {
        return false;
    }
    let dm = dulmage_mendelsohn(g);
    if dm.h_cols > 0 || dm.v_rows > 0 || dm.s_rows != g.nrows() {
        return false;
    }
    let fine = fine_decomposition(g, &dm);
    fine.block_count == 1 && fine.all_edges_intra_block(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmatch_graph::Csr;

    #[test]
    fn ring_is_fully_indecomposable() {
        let g = dsmatch_gen::ring(8);
        assert!(is_fully_indecomposable(&g));
        assert!(has_total_support(&g));
    }

    #[test]
    fn permutation_has_total_support_but_decomposes() {
        let g = dsmatch_gen::permutation(6, 3);
        assert!(has_total_support(&g));
        // n singleton blocks → not fully indecomposable (for n > 1).
        assert!(!is_fully_indecomposable(&g));
    }

    #[test]
    fn triangular_lacks_total_support() {
        // Upper triangular 3×3: unique perfect matching (diagonal); the
        // off-diagonal entries are in no perfect matching.
        let g = BipartiteGraph::from_csr(Csr::from_dense(&[&[1, 1, 1], &[0, 1, 1], &[0, 0, 1]]));
        assert!(!has_total_support(&g));
        assert!(!is_fully_indecomposable(&g));
    }

    #[test]
    fn rectangular_not_fully_indecomposable() {
        let g = BipartiteGraph::from_csr(Csr::from_dense(&[&[1, 1, 1]]));
        assert!(!is_fully_indecomposable(&g));
    }
}
