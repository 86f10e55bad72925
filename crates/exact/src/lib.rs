//! # dsmatch-exact — exact maximum-cardinality bipartite matching
//!
//! The paper evaluates its heuristics as quality *ratios* against the
//! maximum cardinality (`sprank`), so an exact solver is a required
//! substrate. This crate provides:
//!
//! - [`hopcroft_karp`] — the `O(√n · τ)` algorithm of Hopcroft & Karp
//!   (the complexity bound quoted in the paper's introduction), via layered
//!   BFS + blocking DFS phases;
//! - [`pothen_fan`] — single-path augmenting DFS with the Pothen–Fan
//!   *lookahead* optimization, accepting an arbitrary initial matching, so
//!   the workspace can measure the paper's motivating use case: how much
//!   augmentation work a jump-start heuristic saves;
//! - [`hopcroft_karp_par`] — the multicore Hopcroft–Karp (`hk-par`): the
//!   same phase loop as [`hopcroft_karp`] with a level-synchronized
//!   parallel BFS in the style of the tree-grafting literature
//!   (Azad–Buluç–Pothen), byte-identical to `hk` at every pool size (see
//!   [`hopcroft_karp_par_ws`]);
//! - [`pothen_fan_graft`] / [`pothen_fan_par`] — the multicore Pothen–Fan
//!   finishers (`pf-graft` / `pf-par`), two modes of one parallel BFS
//!   forest engine. `pf-graft` keeps its forest alive across harvests
//!   within an epoch, with lazy orphan-subtree pruning (see
//!   [`pothen_fan_graft_ws`]); `pf-par` is its early-stop mode, ending
//!   each epoch after the first level whose harvest augments (see
//!   [`pothen_fan_par_ws`]). Both are byte-identical at every pool size;
//! - [`push_relabel`] — the auction/push-relabel scheme the paper's
//!   related work (\[9\], \[21\]) evaluates as the main alternative to
//!   augmenting-path solvers, with global relabeling: a breadth-first
//!   search that resets every label to its exact distance before the
//!   first bid, after every `n_r + n_c` pushes, and as soon as
//!   `(n_r + n_c) / 8` pushes in a row have claimed no free column, so
//!   rows with no augmenting path retire at once. It is the engine's
//!   finisher (`auto`) and finds the maximum matching of the `dm,`
//!   decomposition;
//! - [`sprank`] — structural rank of a pattern matrix (maximum matching
//!   cardinality), paper Table 3's `sprank/n` column;
//! - [`brute_force_maximum`] — exponential oracle for property tests on
//!   tiny graphs.
//!
//! The potentially long-running solvers also ship cancellable variants that
//! poll a [`CancelToken`](dsmatch_graph::CancelToken) and bail out with
//! `Cancelled`, leaving their workspaces reusable — the substrate for job
//! deadlines in the serve daemon. The parallel finishers
//! ([`hopcroft_karp_par_cancel`], [`pothen_fan_par_cancel`],
//! [`pothen_fan_graft_cancel`], [`push_relabel_cancel`]) poll at phase or
//! forest-level boundaries; the sequential engines
//! ([`hopcroft_karp_cancel_ws`], [`pothen_fan_cancel_ws`]) poll once per
//! phase and every 256 DFS roots respectively, so even a single long
//! sequential solve observes its deadline mid-run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bfs_augment;
mod brute;
mod graft;
mod hopcroft_karp;
mod pothen_fan;
mod push_relabel;
mod workspace;

pub use bfs_augment::{bfs_augment, bfs_augment_from, BfsAugmentStats};
pub use brute::brute_force_maximum;
pub use graft::{
    hopcroft_karp_par, hopcroft_karp_par_cancel, hopcroft_karp_par_ws, pothen_fan_graft,
    pothen_fan_graft_cancel, pothen_fan_graft_ws, pothen_fan_par, pothen_fan_par_cancel,
    pothen_fan_par_ws, PothenFanParStats,
};
pub use hopcroft_karp::{
    hopcroft_karp, hopcroft_karp_cancel_ws, hopcroft_karp_from, hopcroft_karp_ws, HopcroftKarpStats,
};
pub use pothen_fan::{
    pothen_fan, pothen_fan_cancel_ws, pothen_fan_from, pothen_fan_ws, PothenFanStats,
};
pub use push_relabel::{push_relabel, push_relabel_cancel, push_relabel_from, PushRelabelStats};
pub use workspace::{AugmentWorkspace, FrontierChunk};

use dsmatch_graph::BipartiteGraph;

/// Structural rank: the maximum matching cardinality of the pattern.
pub fn sprank(g: &BipartiteGraph) -> usize {
    hopcroft_karp(g).cardinality()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmatch_graph::Csr;

    #[test]
    fn sprank_of_identity() {
        let g = BipartiteGraph::from_csr(Csr::from_dense(&[&[1, 0, 0], &[0, 1, 0], &[0, 0, 1]]));
        assert_eq!(sprank(&g), 3);
    }

    #[test]
    fn sprank_of_deficient() {
        // Two rows share the single column with support.
        let g = BipartiteGraph::from_csr(Csr::from_dense(&[&[1, 0], &[1, 0]]));
        assert_eq!(sprank(&g), 1);
    }
}
