//! Hopcroft–Karp maximum-cardinality bipartite matching.
//!
//! The `O(√n · τ)` algorithm referenced in the paper's introduction [17]:
//! repeat phases of (i) BFS from all free rows to build the layered
//! shortest-alternating-path structure and (ii) a blocking set of
//! vertex-disjoint shortest augmenting paths found by DFS. The number of
//! phases is `O(√n)`.
//!
//! [`hopcroft_karp_from`] accepts a warm-start matching — the paper's
//! motivating use of the heuristics is to jump-start exactly this kind of
//! solver, and the `solver_jumpstart` example measures the phase/visit
//! savings.

use dsmatch_graph::{BipartiteGraph, CancelToken, Cancelled, Matching, NIL};

use crate::workspace::AugmentWorkspace;

/// Work counters of a Hopcroft–Karp run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HopcroftKarpStats {
    /// Number of BFS/DFS phases executed (including the final certifying
    /// phase that finds no augmenting path).
    pub phases: usize,
    /// Total vertices dequeued across all BFS passes.
    pub bfs_visits: usize,
    /// Total augmenting paths applied.
    pub augmentations: usize,
}

pub(crate) const INF: u32 = u32::MAX;

/// Sequential queue BFS from all free rows — the BFS `hk` hands to
/// [`phase_loop`], and the reference that `hk-par`'s level-synchronized
/// BFS reproduces label for label. Labels `ws.dist` with layer numbers, cuts
/// off layers beyond the first free column, and returns whether a free
/// column is reachable (i.e., an augmenting path exists).
fn bfs_queue(g: &BipartiteGraph, ws: &mut AugmentWorkspace, stats: &mut HopcroftKarpStats) -> bool {
    ws.queue.clear();
    for i in 0..g.nrows() {
        if ws.rmate[i] == NIL {
            ws.dist[i] = 0;
            ws.queue.push(i as u32);
        } else {
            ws.dist[i] = INF;
        }
    }
    let mut found = false;
    let mut head = 0usize;
    let mut frontier_cap = INF; // cut off layers beyond first success
    while head < ws.queue.len() {
        let i = ws.queue[head] as usize;
        head += 1;
        stats.bfs_visits += 1;
        let d = ws.dist[i];
        if d >= frontier_cap {
            break;
        }
        for &j in g.row_adj(i) {
            let next = ws.cmate[j as usize];
            if next == NIL {
                // Free column reached: shortest augmenting length is
                // d+1; stop expanding deeper layers.
                found = true;
                frontier_cap = frontier_cap.min(d + 1);
            } else if ws.dist[next as usize] == INF {
                ws.dist[next as usize] = d + 1;
                ws.queue.push(next);
            }
        }
    }
    found
}

/// The Hopcroft–Karp phase loop shared by `hk` and `hk-par`, which differ
/// only in the `bfs` that labels the layers ([`bfs_queue`] or the parallel
/// level-synchronized one). Each phase polls `token`, runs `bfs`, and
/// while it reaches a free column applies a blocking set of shortest
/// augmenting paths with [`dfs_layered`].
pub(crate) fn phase_loop(
    g: &BipartiteGraph,
    initial: Option<&Matching>,
    ws: &mut AugmentWorkspace,
    token: &CancelToken,
    bfs: fn(&BipartiteGraph, &mut AugmentWorkspace, &mut HopcroftKarpStats) -> bool,
) -> Result<(Matching, HopcroftKarpStats), Cancelled> {
    crate::workspace::load_initial(g, initial, ws);
    ws.dist.clear();
    ws.dist.resize(g.nrows(), INF);
    ws.iter.clear();
    ws.iter.resize(g.nrows(), 0);

    let mut stats = HopcroftKarpStats::default();
    loop {
        token.check()?;
        stats.phases += 1;
        if !bfs(g, ws, &mut stats) {
            break;
        }
        ws.iter.iter_mut().for_each(|x| *x = 0);
        for i in 0..g.nrows() {
            if ws.rmate[i] == NIL && dfs_layered(g, ws, i) {
                stats.augmentations += 1;
            }
        }
    }
    Ok((Matching::from_mates(ws.rmate.clone(), ws.cmate.clone()), stats))
}

/// Iterative DFS along the layered structure (`ws.dist`) from free row
/// `root`; augments along a shortest path if one is found. Iterative so
/// the paper-scale instances (10⁵–10⁷ vertices) cannot overflow the
/// stack. The blocking half of every [`phase_loop`] phase, whichever BFS
/// labeled the layers — identical distance labels in, identical
/// augmentations out.
fn dfs_layered(g: &BipartiteGraph, ws: &mut AugmentWorkspace, root: usize) -> bool {
    // `stack` holds the row path; `entry_col[k]` is the column through
    // which `stack[k]` was entered (unused sentinel for the root).
    ws.stack.clear();
    ws.stack.push(root as u32);
    ws.entry_col.clear();
    ws.entry_col.push(NIL);
    loop {
        let i = *ws.stack.last().unwrap() as usize;
        let deg = g.row_degree(i);
        let mut advanced = false;
        while ws.iter[i] < deg {
            let j = g.row_adj(i)[ws.iter[i]];
            ws.iter[i] += 1;
            let next = ws.cmate[j as usize];
            if next == NIL {
                // Free column: augment along the whole stack.
                let mut col = j;
                while let (Some(row), Some(ec)) = (ws.stack.pop(), ws.entry_col.pop()) {
                    ws.rmate[row as usize] = col;
                    ws.cmate[col as usize] = row;
                    col = ec;
                }
                return true;
            }
            if ws.dist[next as usize] == ws.dist[i] + 1 {
                ws.stack.push(next);
                ws.entry_col.push(j);
                advanced = true;
                break;
            }
        }
        if !advanced {
            // Dead end: remove `i` from the layered structure.
            ws.dist[i] = INF;
            ws.stack.pop();
            ws.entry_col.pop();
            if ws.stack.is_empty() {
                return false;
            }
        }
    }
}

/// Maximum-cardinality matching from scratch.
///
/// ```
/// use dsmatch_exact::hopcroft_karp;
/// use dsmatch_graph::{BipartiteGraph, Csr};
///
/// // Greedy would strand row 1; Hopcroft–Karp augments to the optimum.
/// let g = BipartiteGraph::from_csr(Csr::from_dense(&[&[1, 1], &[1, 0]]));
/// let m = hopcroft_karp(&g);
/// assert!(m.is_perfect());
/// ```
pub fn hopcroft_karp(g: &BipartiteGraph) -> Matching {
    hopcroft_karp_from(g, Matching::new(g.nrows(), g.ncols())).0
}

/// Maximum-cardinality matching warm-started from `initial`; also returns
/// work statistics.
///
/// # Panics
/// If `initial` is not a valid matching of `g` (checked with
/// [`Matching::verify`]).
pub fn hopcroft_karp_from(g: &BipartiteGraph, initial: Matching) -> (Matching, HopcroftKarpStats) {
    hopcroft_karp_ws(g, Some(&initial), &mut AugmentWorkspace::new())
}

/// Buffer-reuse variant of [`hopcroft_karp_from`]: the BFS/DFS state and
/// the working mate arrays live in `ws` and keep their allocation across
/// solves; only the returned [`Matching`] is fresh. `initial = None` means
/// a from-scratch solve.
///
/// # Panics
/// If `initial` is `Some` and not a valid matching of `g`.
pub fn hopcroft_karp_ws(
    g: &BipartiteGraph,
    initial: Option<&Matching>,
    ws: &mut AugmentWorkspace,
) -> (Matching, HopcroftKarpStats) {
    hopcroft_karp_cancel_ws(g, initial, ws, &CancelToken::unbounded())
        .expect("unbounded token never cancels")
}

/// Cancellable variant of [`hopcroft_karp_ws`]: the token is polled once per
/// BFS/DFS phase (there are `O(√n)` of them), so a deadline or explicit
/// cancel is observed within one phase. On [`Cancelled`] the workspace stays
/// reusable — a subsequent solve on it is byte-identical to a fresh one.
pub fn hopcroft_karp_cancel_ws(
    g: &BipartiteGraph,
    initial: Option<&Matching>,
    ws: &mut AugmentWorkspace,
    token: &CancelToken,
) -> Result<(Matching, HopcroftKarpStats), Cancelled> {
    phase_loop(g, initial, ws, token, bfs_queue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmatch_graph::{Csr, SplitMix64, TripletMatrix};

    fn graph(rows: &[&[u8]]) -> BipartiteGraph {
        BipartiteGraph::from_csr(Csr::from_dense(rows))
    }

    #[test]
    fn perfect_on_identity() {
        let g = graph(&[&[1, 0], &[0, 1]]);
        let m = hopcroft_karp(&g);
        assert!(m.is_perfect());
        m.verify(&g).unwrap();
    }

    #[test]
    fn classic_crown_graph() {
        // Complete bipartite K_{3,3}: perfect matching exists.
        let g = graph(&[&[1, 1, 1], &[1, 1, 1], &[1, 1, 1]]);
        assert_eq!(hopcroft_karp(&g).cardinality(), 3);
    }

    #[test]
    fn deficient_instances() {
        let g = graph(&[&[1, 1, 0], &[1, 1, 0], &[1, 1, 0]]);
        assert_eq!(hopcroft_karp(&g).cardinality(), 2);
        let g = graph(&[&[1], &[1], &[1]]);
        assert_eq!(hopcroft_karp(&g).cardinality(), 1);
        let g = BipartiteGraph::from_csr(Csr::empty(4, 4));
        assert_eq!(hopcroft_karp(&g).cardinality(), 0);
    }

    #[test]
    fn requires_augmenting_through_alternating_path() {
        // Greedy left-to-right would match r0–c0 and then strand r1; the
        // optimum is 2 via r0–c1, r1–c0.
        let g = graph(&[&[1, 1], &[1, 0]]);
        let m = hopcroft_karp(&g);
        assert_eq!(m.cardinality(), 2);
        assert_eq!(m.rmate(1), 0);
        assert_eq!(m.rmate(0), 1);
    }

    #[test]
    fn warm_start_preserves_and_completes() {
        let g = graph(&[&[1, 1, 0], &[0, 1, 1], &[1, 0, 1]]);
        let mut init = Matching::new(3, 3);
        init.set(0, 0);
        let (m, stats) = hopcroft_karp_from(&g, init);
        assert_eq!(m.cardinality(), 3);
        assert!(stats.phases >= 1);
        assert!(stats.augmentations <= 2, "warm start saved an augmentation");
    }

    #[test]
    #[should_panic(expected = "warm-start matching must be valid")]
    fn warm_start_validated() {
        let g = graph(&[&[0, 1], &[1, 0]]);
        let mut bad = Matching::new(2, 2);
        bad.set(0, 0); // not an edge
        let _ = hopcroft_karp_from(&g, bad);
    }

    #[test]
    fn random_instances_against_brute_force() {
        let mut rng = SplitMix64::new(99);
        for n in [2usize, 3, 4, 5, 6] {
            for trial in 0..60 {
                let mut t = TripletMatrix::new(n, n);
                for i in 0..n {
                    for j in 0..n {
                        if rng.next_below(3) == 0 {
                            t.push(i, j);
                        }
                    }
                }
                let g = BipartiteGraph::from_csr(t.into_csr());
                let hk = hopcroft_karp(&g);
                hk.verify(&g).unwrap();
                let opt = crate::brute::brute_force_maximum(&g);
                assert_eq!(hk.cardinality(), opt, "n = {n}, trial = {trial}");
            }
        }
    }

    #[test]
    fn rectangular_graphs() {
        let g = graph(&[&[1, 1, 1, 1]]);
        assert_eq!(hopcroft_karp(&g).cardinality(), 1);
        let g = graph(&[&[1], &[1], &[1], &[1]]);
        assert_eq!(hopcroft_karp(&g).cardinality(), 1);
        let g = graph(&[&[1, 0, 1], &[0, 1, 0]]);
        assert_eq!(hopcroft_karp(&g).cardinality(), 2);
    }

    #[test]
    fn stats_reported() {
        let g = graph(&[&[1, 1], &[1, 1]]);
        let (_, stats) = hopcroft_karp_from(&g, Matching::new(2, 2));
        assert!(stats.phases >= 2); // one working phase + certifying phase
        assert_eq!(stats.augmentations, 2);
        assert!(stats.bfs_visits > 0);
    }
}
