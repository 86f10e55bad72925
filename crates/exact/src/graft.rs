//! Parallel exact finishers: level-synchronized multi-source BFS feeding
//! augmentation, in the style of the tree-grafting literature.
//!
//! The paper's heuristics parallelize cleanly, but its measurement
//! pipelines end in a *sequential* exact finisher — past two threads the
//! finisher dominates `scale,two,pf`-shaped runs. The follow-up literature
//! (Azad, Buluç & Pothen's tree-grafting maximum-cardinality matching;
//! Duff–Kaya–Uçar's transversal studies) parallelizes exactly this stage
//! by growing the alternating BFS structure from **all** free rows at once,
//! one level at a time, with each level's adjacency scan fanned across the
//! pool. This module implements two such engines on top of the
//! workspace's rayon runtime:
//!
//! - [`hopcroft_karp_par`] (`hk-par`): Hopcroft–Karp whose per-phase BFS
//!   is level-synchronized and parallel. Each level's frontier is split
//!   into chunks whose boundaries depend only on the frontier length;
//!   chunks collect discoveries into per-chunk buffers
//!   ([`FrontierChunk`]), which are merged **sequentially in chunk order**
//!   (first discovery wins, exactly like the sequential queue). The
//!   distance labels are therefore byte-identical to sequential
//!   [`hopcroft_karp`]'s, and since everything else — the phase loop and
//!   its blocking DFS ([`dfs_layered`]) — is `hk`'s own code, the returned
//!   matching is **byte-identical to sequential Hopcroft–Karp at every
//!   pool size** — parallelism buys wall time, never a different answer.
//! - [`pothen_fan_par`] (`pf-par`) and [`pothen_fan_graft`] (`pf-graft`):
//!   tree-grafting-style parallel Pothen–Fan, two modes of one forest
//!   engine. Instead of one lookahead DFS per free row, each *epoch* grows
//!   a BFS forest rooted at every free row (parent pointers per row), one
//!   parallel level scan at a time, and at each level that reaches free
//!   columns — Pothen–Fan's lookahead generalized to a whole level — it
//!   harvests vertex-disjoint augmenting paths by walking parent pointers
//!   in deterministic merge order. The modes differ only in where an epoch
//!   ends:
//!   - `pf-par` ends it after the first level whose harvest augments, so
//!     the forest is rebuilt from the free rows after every harvest;
//!   - `pf-graft` (Azad–Buluç–Pothen's renewable forest) keeps growing the
//!     surviving trees after each harvest, lazily pruning subtrees
//!     orphaned by it (an ancestor walk per attachment, memoized in
//!     `used`/`alive` stamps, amortized O(1) per row), until the frontier
//!     drains. One epoch harvests at many levels, so the O(n) forest
//!     rebuild runs far fewer times — `phases` counts epochs and drops
//!     sharply versus `pf-par` on high-phase-count instances.
//!
//!   Either way the solve ends after an epoch that augments nothing: it
//!   harvested and pruned nothing, so it is the full BFS forest from every
//!   free row reaching no free column, which certifies maximality (Berge).
//!   Harvests and pruning walks run sequentially in deterministic chunk
//!   order, so both modes are byte-identical across pool sizes (their
//!   mates differ from each other's — both are maximum).
//!
//! Both engines reuse [`AugmentWorkspace`] — the per-chunk scan buffers
//! live there too — so engine batch solves stay allocation-free after
//! warm-up.
//!
//! [`hopcroft_karp`]: crate::hopcroft_karp
//! [`dfs_layered`]: crate::hopcroft_karp::dfs_layered

use dsmatch_graph::{BipartiteGraph, CancelToken, Cancelled, Matching, NIL};
use rayon::prelude::*;

use crate::hopcroft_karp::{phase_loop, HopcroftKarpStats, INF};
use crate::workspace::{load_initial, AugmentWorkspace, FrontierChunk};

/// Work counters of a tree-grafting-style parallel Pothen–Fan run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PothenFanParStats {
    /// BFS-forest phases executed (including the final certifying phase
    /// that reaches no free column).
    pub phases: usize,
    /// Total frontier rows scanned across all levels of all phases.
    pub rows_visited: usize,
    /// Successful augmentations.
    pub augmentations: usize,
}

/// Frontier rows per scan chunk, floor: below this a level is scanned
/// inline (dispatch would cost more than the scan).
const MIN_CHUNK: usize = 512;

/// Upper bound on chunks per level (long frontiers get longer chunks), so
/// one level never floods the pool's deques.
const MAX_CHUNKS: usize = 128;

/// Chunk length for a frontier of `len` rows. Depends only on `len` —
/// never on the pool size — which is what makes the chunk-order merge, and
/// with it the whole solve, reproducible at every thread count.
fn chunk_len(len: usize) -> usize {
    len.div_ceil(MAX_CHUNKS).max(MIN_CHUNK)
}

/// Scan `frontier` against `g`, classifying each neighbour of each row as
/// a free-column hit or a discovery of the matched row behind it. Results
/// land in `chunks[..n]` (`n` is returned); the caller merges them in
/// chunk order. `discovered` filters rows already in the BFS structure
/// (a stale read only costs a duplicate, which the merge drops).
///
/// The scan only *reads* shared state (`g`, `cmate`, whatever `discovered`
/// captures) and writes exclusively to its own chunk buffer, so chunks run
/// concurrently on the ambient pool without synchronization.
fn scan_frontier<'a>(
    g: &BipartiteGraph,
    cmate: &[u32],
    discovered: impl Fn(u32) -> bool + Sync,
    frontier: &[u32],
    chunks: &'a mut Vec<FrontierChunk>,
) -> &'a [FrontierChunk] {
    let chunk = chunk_len(frontier.len());
    let n = frontier.len().div_ceil(chunk).max(1);
    if chunks.len() < n {
        chunks.resize_with(n, FrontierChunk::default);
    }
    let fill = |buf: &mut FrontierChunk, rows: &[u32]| {
        buf.rows.clear();
        buf.hits.clear();
        for &i in rows {
            for &j in g.row_adj(i as usize) {
                let next = cmate[j as usize];
                if next == NIL {
                    buf.hits.push((i, j));
                } else if !discovered(next) {
                    buf.rows.push((next, j, i));
                }
            }
        }
    };
    if n == 1 {
        fill(&mut chunks[0], frontier);
    } else {
        chunks[..n]
            .par_iter_mut()
            .zip(frontier.par_chunks(chunk))
            .with_max_len(1)
            .for_each(|(buf, rows)| fill(buf, rows));
    }
    &chunks[..n]
}

/// One parallel level-synchronized BFS phase of `hk-par`: labels `ws.dist`
/// exactly as sequential Hopcroft–Karp's queue BFS would (first discovery
/// at level `d` ⇒ label `d`, layers beyond the first free column are cut
/// off after being labeled) and reports whether a free column is
/// reachable.
fn bfs_level_sync(
    g: &BipartiteGraph,
    ws: &mut AugmentWorkspace,
    stats: &mut HopcroftKarpStats,
) -> bool {
    ws.frontier.clear();
    for i in 0..g.nrows() {
        if ws.rmate[i] == NIL {
            ws.dist[i] = 0;
            ws.frontier.push(i as u32);
        } else {
            ws.dist[i] = INF;
        }
    }
    let mut level = 0u32;
    let mut found = false;
    while !ws.frontier.is_empty() {
        stats.bfs_visits += ws.frontier.len();
        let AugmentWorkspace { frontier, next_frontier, dist, cmate, chunks, .. } = ws;
        let scanned = scan_frontier(g, cmate, |r| dist[r as usize] != INF, frontier, chunks);
        next_frontier.clear();
        for c in scanned {
            if !c.hits.is_empty() {
                found = true;
            }
            for &(next, _, _) in &c.rows {
                // First discovery wins, in chunk order — the same label
                // the sequential queue would assign.
                if dist[next as usize] == INF {
                    dist[next as usize] = level + 1;
                    next_frontier.push(next);
                }
            }
        }
        std::mem::swap(frontier, next_frontier);
        if found {
            // The next layer is labeled (sequential BFS labels it too
            // before its cutoff fires) but not expanded: shortest
            // augmenting paths end at this level. Sequential BFS dequeues
            // exactly one row of that cut-off layer before its break;
            // count it too so `bfs_visits` stays comparable across the
            // two variants (e.g. in jump-start savings measurements).
            if !frontier.is_empty() {
                stats.bfs_visits += 1;
            }
            break;
        }
        level += 1;
    }
    found
}

/// Maximum-cardinality matching from scratch via [`hopcroft_karp_par_ws`].
pub fn hopcroft_karp_par(g: &BipartiteGraph) -> Matching {
    hopcroft_karp_par_ws(g, None, &mut AugmentWorkspace::new()).0
}

/// Hopcroft–Karp with a parallel level-synchronized BFS phase — the
/// `hk-par` finisher. The result is **byte-identical** to sequential
/// [`hopcroft_karp_ws`](crate::hopcroft_karp_ws) on the same input at
/// every pool size (the parallel BFS assigns identical distance labels and
/// the blocking DFS is shared); only wall time differs. `initial = None`
/// means a from-scratch solve.
///
/// # Panics
/// If `initial` is `Some` and not a valid matching of `g`.
pub fn hopcroft_karp_par_ws(
    g: &BipartiteGraph,
    initial: Option<&Matching>,
    ws: &mut AugmentWorkspace,
) -> (Matching, HopcroftKarpStats) {
    hopcroft_karp_par_cancel(g, initial, ws, &CancelToken::unbounded())
        .expect("unbounded token never cancels")
}

/// [`hopcroft_karp_par_ws`] with cooperative cancellation: the token is
/// polled once per phase, so cancellation is observed within one BFS+DFS
/// phase. On [`Cancelled`] the workspace is left in a reusable state (no
/// poisoning; the next solve reloads every buffer it reads).
///
/// # Panics
/// If `initial` is `Some` and not a valid matching of `g`.
pub fn hopcroft_karp_par_cancel(
    g: &BipartiteGraph,
    initial: Option<&Matching>,
    ws: &mut AugmentWorkspace,
    token: &CancelToken,
) -> Result<(Matching, HopcroftKarpStats), Cancelled> {
    phase_loop(g, initial, ws, token, bfs_level_sync)
}

/// Maximum-cardinality matching from scratch via [`pothen_fan_par_ws`].
pub fn pothen_fan_par(g: &BipartiteGraph) -> Matching {
    pothen_fan_par_ws(g, None, &mut AugmentWorkspace::new()).0
}

/// Tree-grafting-style parallel Pothen–Fan — the `pf-par` finisher, the
/// forest engine's early-stop mode.
///
/// Each phase grows a BFS forest from every free row (one parallel
/// level-synchronized sweep per level, Pothen–Fan's lookahead generalized
/// to whole levels), stops at the first level adjacent to a free column,
/// and harvests vertex-disjoint augmenting paths along the forest's parent
/// pointers in deterministic chunk-merge order. A phase that reaches no
/// free column certifies the matching maximum (Berge) and ends the solve.
/// Deterministic merges + sequential harvest make the result
/// byte-identical at every pool size. `initial = None` means a
/// from-scratch solve.
///
/// # Panics
/// If `initial` is `Some` and not a valid matching of `g`.
pub fn pothen_fan_par_ws(
    g: &BipartiteGraph,
    initial: Option<&Matching>,
    ws: &mut AugmentWorkspace,
) -> (Matching, PothenFanParStats) {
    pothen_fan_par_cancel(g, initial, ws, &CancelToken::unbounded())
        .expect("unbounded token never cancels")
}

/// [`pothen_fan_par_ws`] with cooperative cancellation: the token is
/// polled once per forest level, so cancellation is observed within one
/// level scan. On [`Cancelled`] the workspace is left reusable.
///
/// # Panics
/// If `initial` is `Some` and not a valid matching of `g`.
pub fn pothen_fan_par_cancel(
    g: &BipartiteGraph,
    initial: Option<&Matching>,
    ws: &mut AugmentWorkspace,
    token: &CancelToken,
) -> Result<(Matching, PothenFanParStats), Cancelled> {
    forest(g, initial, ws, token, EpochEnd::FirstHarvest)
}

/// Maximum-cardinality matching from scratch via [`pothen_fan_graft_ws`].
pub fn pothen_fan_graft(g: &BipartiteGraph) -> Matching {
    pothen_fan_graft_ws(g, None, &mut AugmentWorkspace::new()).0
}

/// Incremental tree-grafting parallel Pothen–Fan — the `pf-graft`
/// finisher (Azad–Buluç–Pothen's renewable-forest scheme).
///
/// [`pothen_fan_par_ws`] discards its BFS forest after every harvest and
/// rebuilds it from the free rows — an O(n)-per-phase cost that dominates
/// on high-phase-count instances. This mode of the same forest engine
/// keeps the `parent_col`/`parent_row` forest alive across harvests: one
/// **epoch** grows a forest level by level, harvests vertex-disjoint
/// augmenting paths at *every* level where the scan reaches free columns
/// (same deterministic chunk-merge order as `pf-par`), and keeps extending
/// the surviving trees instead of starting over. Vertices consumed by a
/// harvest are invalidated by their `used` stamps; subtrees they orphan
/// are pruned lazily — each attachment after a harvest walks its
/// ancestors, memoizing "dead" into `used` (dead is permanent within an
/// epoch) and "alive" into per-level `alive` stamps — so grafting costs
/// amortized O(1) per attachment. An epoch ends when its frontier drains;
/// the solve ends when an entire epoch augments nothing, which is
/// literally `pf-par`'s certifying phase (no harvest ⇒ no pruning ⇒ the
/// full BFS forest from every free row), so maximality follows from Berge
/// exactly as before. [`PothenFanParStats::phases`] counts epochs: one
/// epoch replaces many `pf-par` phases, which is the measured win.
///
/// Harvest, merge and pruning walks are sequential in deterministic chunk
/// order, so the result is **byte-identical at every pool size**; the
/// mates may legitimately differ from `pf-par`'s (both are maximum
/// matchings). `initial = None` means a from-scratch solve.
///
/// # Panics
/// If `initial` is `Some` and not a valid matching of `g`.
pub fn pothen_fan_graft_ws(
    g: &BipartiteGraph,
    initial: Option<&Matching>,
    ws: &mut AugmentWorkspace,
) -> (Matching, PothenFanParStats) {
    pothen_fan_graft_cancel(g, initial, ws, &CancelToken::unbounded())
        .expect("unbounded token never cancels")
}

/// [`pothen_fan_graft_ws`] with cooperative cancellation: the token is
/// polled once per forest level, so cancellation is observed within one
/// level scan. On [`Cancelled`] the workspace is left reusable.
///
/// # Panics
/// If `initial` is `Some` and not a valid matching of `g`.
pub fn pothen_fan_graft_cancel(
    g: &BipartiteGraph,
    initial: Option<&Matching>,
    ws: &mut AugmentWorkspace,
    token: &CancelToken,
) -> Result<(Matching, PothenFanParStats), Cancelled> {
    forest(g, initial, ws, token, EpochEnd::Drained)
}

/// Where an epoch of the forest engine ends: the one difference between
/// `pf-par` and `pf-graft`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum EpochEnd {
    /// `pf-par`: after the first level whose harvest augments.
    FirstHarvest,
    /// `pf-graft`: when the frontier drains.
    Drained,
}

/// The Pothen–Fan forest engine behind [`pothen_fan_par_cancel`] and
/// [`pothen_fan_graft_cancel`] (see the module docs). The token is polled
/// at every epoch start and before every level scan.
fn forest(
    g: &BipartiteGraph,
    initial: Option<&Matching>,
    ws: &mut AugmentWorkspace,
    token: &CancelToken,
    end: EpochEnd,
) -> Result<(Matching, PothenFanParStats), Cancelled> {
    load_initial(g, initial, ws);
    let n_r = g.nrows();
    ws.visited.clear();
    ws.visited.resize(n_r, 0);
    ws.used.clear();
    ws.used.resize(n_r, 0);
    ws.alive.clear();
    ws.alive.resize(n_r, 0);
    ws.parent_col.clear();
    ws.parent_col.resize(n_r, NIL);
    ws.parent_row.clear();
    ws.parent_row.resize(n_r, NIL);

    let mut stats = PothenFanParStats::default();
    let mut stamp = 0u32;
    // `alive` memos expire per level (a later harvest can kill a subtree
    // confirmed alive earlier), so they stamp against their own counter.
    let mut alive_stamp = 0u32;
    loop {
        token.check()?;
        stamp += 1;
        stats.phases += 1;
        // Roots: every still-free row with any support.
        ws.frontier.clear();
        for i in 0..n_r {
            if ws.rmate[i] == NIL && g.row_degree(i) > 0 {
                ws.visited[i] = stamp;
                ws.parent_col[i] = NIL;
                ws.frontier.push(i as u32);
            }
        }
        let mut epoch_augmented = 0usize;
        while !ws.frontier.is_empty() {
            token.check()?;
            stats.rows_visited += ws.frontier.len();
            alive_stamp += 1;
            let AugmentWorkspace {
                frontier,
                next_frontier,
                visited,
                used,
                alive,
                parent_col,
                parent_row,
                rmate,
                cmate,
                chunks,
                ..
            } = ws;
            let scanned =
                scan_frontier(g, cmate, |r| visited[r as usize] == stamp, frontier, chunks);
            // Harvest whatever free columns this level reached, in merge
            // order. The forest invariant the harvest relies on
            // (`cmate[parent_col[r]] == r` for every non-`used` tree row
            // `r`) survives earlier harvests: a column's mate only changes
            // when its pre-flip mate row is on the flipped path, and every
            // such row is stamped `used`.
            for c in scanned {
                'hit: for &(leaf, free_col) in &c.hits {
                    if cmate[free_col as usize] != NIL {
                        continue; // column taken earlier this harvest
                    }
                    // Validate: no row on the leaf→root walk may sit on an
                    // already-flipped path (interior columns are covered
                    // too — a path through column c must pass through c's
                    // pre-flip mate row).
                    let mut row = leaf;
                    loop {
                        if used[row as usize] == stamp {
                            continue 'hit;
                        }
                        if parent_col[row as usize] == NIL {
                            break;
                        }
                        row = parent_row[row as usize];
                    }
                    // Commit: flip matched/unmatched along the path.
                    let mut row = leaf;
                    let mut col = free_col;
                    loop {
                        let pc = parent_col[row as usize];
                        let pr = parent_row[row as usize];
                        rmate[row as usize] = col;
                        cmate[col as usize] = row;
                        used[row as usize] = stamp;
                        if pc == NIL {
                            break;
                        }
                        col = pc;
                        row = pr;
                    }
                    epoch_augmented += 1;
                }
            }
            if end == EpochEnd::FirstHarvest && epoch_augmented > 0 {
                break; // longer paths wait for the next forest
            }
            // Graft the next level onto the *surviving* forest (first
            // discovery wins, in chunk order). Rows freshly matched by the
            // harvest are already `visited`, so their stale discoveries
            // drop out; attachments under a consumed ancestor are pruned
            // by a memoized root walk (only needed once the epoch has
            // harvested — before that every tree is alive).
            next_frontier.clear();
            for c in scanned {
                for &(next, via, from) in &c.rows {
                    if visited[next as usize] != stamp {
                        if epoch_augmented > 0 {
                            let mut row = from;
                            let live = loop {
                                if used[row as usize] == stamp {
                                    break false;
                                }
                                if alive[row as usize] == alive_stamp
                                    || parent_col[row as usize] == NIL
                                {
                                    break true;
                                }
                                row = parent_row[row as usize];
                            };
                            // Memoize the walk: dead rows can never carry a
                            // valid path again this epoch (their root walk
                            // stays broken), so `used` records them
                            // permanently; alive is only good until the
                            // next harvest, hence the per-level stamp.
                            let (memo, memo_stamp) =
                                if live { (&mut *alive, alive_stamp) } else { (&mut *used, stamp) };
                            let mut r = from;
                            while memo[r as usize] != memo_stamp {
                                memo[r as usize] = memo_stamp;
                                if parent_col[r as usize] == NIL {
                                    break;
                                }
                                r = parent_row[r as usize];
                            }
                            if !live {
                                continue;
                            }
                        }
                        visited[next as usize] = stamp;
                        parent_col[next as usize] = via;
                        parent_row[next as usize] = from;
                        next_frontier.push(next);
                    }
                }
            }
            std::mem::swap(frontier, next_frontier);
        }
        stats.augmentations += epoch_augmented;
        if epoch_augmented == 0 {
            // A whole epoch without a harvest is a full BFS forest from
            // every free row reaching no free column: maximum by Berge.
            break;
        }
    }
    Ok((Matching::from_mates(ws.rmate.clone(), ws.cmate.clone()), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{brute_force_maximum, hopcroft_karp, hopcroft_karp_ws, pothen_fan};
    use dsmatch_graph::{Csr, SplitMix64, TripletMatrix};

    fn graph(rows: &[&[u8]]) -> BipartiteGraph {
        BipartiteGraph::from_csr(Csr::from_dense(rows))
    }

    fn random_graph(n: usize, keep_one_in: u64, rng: &mut SplitMix64) -> BipartiteGraph {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                if rng.next_below(keep_one_in) == 0 {
                    t.push(i, j);
                }
            }
        }
        BipartiteGraph::from_csr(t.into_csr())
    }

    #[test]
    fn hk_par_byte_identical_to_sequential_hk() {
        let mut rng = SplitMix64::new(5);
        for n in [1usize, 2, 3, 5, 9, 17, 40, 80] {
            for trial in 0..25 {
                let g = random_graph(n, 4, &mut rng);
                let (seq, seq_stats) = hopcroft_karp_ws(&g, None, &mut AugmentWorkspace::new());
                let (par, par_stats) = hopcroft_karp_par_ws(&g, None, &mut AugmentWorkspace::new());
                assert_eq!(par.rmates(), seq.rmates(), "n = {n}, trial = {trial}");
                assert_eq!(par.cmates(), seq.cmates(), "n = {n}, trial = {trial}");
                // Work counters agree too: identical phases/augmentations,
                // and the visit count mirrors the sequential cutoff.
                assert_eq!(par_stats, seq_stats, "n = {n}, trial = {trial}");
            }
        }
    }

    #[test]
    fn pf_par_agrees_with_brute_force_on_small_instances() {
        let mut rng = SplitMix64::new(77);
        for n in [1usize, 2, 3, 4, 5, 6] {
            for trial in 0..60 {
                let g = random_graph(n, 3, &mut rng);
                let m = pothen_fan_par(&g);
                m.verify(&g).unwrap();
                let opt = brute_force_maximum(&g);
                assert_eq!(m.cardinality(), opt, "n = {n}, trial = {trial}");
            }
        }
    }

    #[test]
    fn par_finishers_match_sequential_cardinality_on_larger_instances() {
        let mut rng = SplitMix64::new(11);
        for n in [30usize, 60, 120, 250] {
            let g = random_graph(n, 5, &mut rng);
            let opt = hopcroft_karp(&g).cardinality();
            let hkp = hopcroft_karp_par(&g);
            hkp.verify(&g).unwrap();
            assert_eq!(hkp.cardinality(), opt, "hk-par, n = {n}");
            let pfp = pothen_fan_par(&g);
            pfp.verify(&g).unwrap();
            assert_eq!(pfp.cardinality(), opt, "pf-par, n = {n}");
        }
    }

    #[test]
    fn warm_start_is_honoured_and_completes() {
        let g = graph(&[&[1, 1, 0], &[0, 1, 1], &[1, 0, 1]]);
        let mut init = Matching::new(3, 3);
        init.set(0, 0);
        let (m, stats) = pothen_fan_par_ws(&g, Some(&init), &mut AugmentWorkspace::new());
        assert_eq!(m.cardinality(), 3);
        assert!(stats.augmentations <= 2, "warm start saved an augmentation");
        let (m, stats) = hopcroft_karp_par_ws(&g, Some(&init), &mut AugmentWorkspace::new());
        assert_eq!(m.cardinality(), 3);
        assert!(stats.augmentations <= 2);
    }

    #[test]
    #[should_panic(expected = "warm-start matching must be valid")]
    fn warm_start_validated() {
        let g = graph(&[&[0, 1], &[1, 0]]);
        let mut bad = Matching::new(2, 2);
        bad.set(0, 0); // not an edge
        let _ = pothen_fan_par_ws(&g, Some(&bad), &mut AugmentWorkspace::new());
    }

    #[test]
    fn workspace_reuse_is_stable_across_solves() {
        // Same-shaped solves after the first must not regrow any buffer.
        let mut rng = SplitMix64::new(3);
        let g = random_graph(200, 5, &mut rng);
        let mut ws = AugmentWorkspace::new();
        // Two warm-up solves: `frontier`/`next_frontier` are swapped
        // during BFS, so their capacities settle on the second run.
        let (first, _) = pothen_fan_par_ws(&g, None, &mut ws);
        pothen_fan_par_ws(&g, None, &mut ws);
        let footprint = (
            ws.frontier.capacity(),
            ws.parent_col.as_ptr() as usize,
            ws.used.as_ptr() as usize,
            ws.chunks.len(),
        );
        let (second, _) = pothen_fan_par_ws(&g, None, &mut ws);
        assert_eq!(first.rmates(), second.rmates(), "reuse must not change the answer");
        assert_eq!(
            footprint,
            (
                ws.frontier.capacity(),
                ws.parent_col.as_ptr() as usize,
                ws.used.as_ptr() as usize,
                ws.chunks.len(),
            ),
            "scratch reallocated on an identically-shaped solve"
        );
    }

    #[test]
    fn pf_graft_agrees_with_brute_force_on_small_instances() {
        let mut rng = SplitMix64::new(123);
        for n in [1usize, 2, 3, 4, 5, 6] {
            for trial in 0..60 {
                let g = random_graph(n, 3, &mut rng);
                let m = pothen_fan_graft(&g);
                m.verify(&g).unwrap();
                let opt = brute_force_maximum(&g);
                assert_eq!(m.cardinality(), opt, "n = {n}, trial = {trial}");
            }
        }
    }

    #[test]
    fn pf_graft_matches_optimum_with_fewer_epochs_than_pf_par_phases() {
        let mut rng = SplitMix64::new(19);
        let mut ws = AugmentWorkspace::new();
        // Dense instances finish in 2–3 shallow phases and leave nothing to
        // graft; avg-degree-2 instances are the high-phase-count regime the
        // renewable forest is for (deep, narrow augmenting paths).
        for (n, keep_one_in) in [(400usize, 130u64), (1000, 330), (2000, 700), (5000, 1700)] {
            let g = random_graph(n, keep_one_in, &mut rng);
            let opt = hopcroft_karp(&g).cardinality();
            let (graft, graft_stats) = pothen_fan_graft_ws(&g, None, &mut ws);
            graft.verify(&g).unwrap();
            assert_eq!(graft.cardinality(), opt, "pf-graft, n = {n}");
            let (_, par_stats) = pothen_fan_par_ws(&g, None, &mut ws);
            // The renewable forest is the point: one epoch harvests at many
            // levels, so far fewer forests get built and far fewer rows
            // scanned building them.
            assert!(
                graft_stats.phases < par_stats.phases,
                "n = {n}: grafting saved no phase ({} epochs vs {} phases)",
                graft_stats.phases,
                par_stats.phases
            );
            assert!(
                graft_stats.rows_visited < par_stats.rows_visited,
                "n = {n}: grafting scanned no fewer rows ({} vs {})",
                graft_stats.rows_visited,
                par_stats.rows_visited
            );
        }
    }

    #[test]
    fn pf_graft_warm_start_is_honoured() {
        let g = graph(&[&[1, 1, 0], &[0, 1, 1], &[1, 0, 1]]);
        let mut init = Matching::new(3, 3);
        init.set(0, 0);
        let (m, stats) = pothen_fan_graft_ws(&g, Some(&init), &mut AugmentWorkspace::new());
        assert_eq!(m.cardinality(), 3);
        assert!(stats.augmentations <= 2, "warm start saved an augmentation");
    }

    #[test]
    fn pf_graft_maximum_warm_start_is_a_single_certifying_epoch() {
        let mut rng = SplitMix64::new(9);
        let g = random_graph(150, 4, &mut rng);
        let best = hopcroft_karp(&g);
        let (m, stats) = pothen_fan_graft_ws(&g, Some(&best), &mut AugmentWorkspace::new());
        assert_eq!(m.rmates(), best.rmates());
        assert_eq!(m.cmates(), best.cmates());
        assert_eq!(stats.augmentations, 0);
        assert_eq!(stats.phases, 1, "a maximum warm start certifies in one epoch");
    }

    #[test]
    #[should_panic(expected = "warm-start matching must be valid")]
    fn pf_graft_warm_start_validated() {
        let g = graph(&[&[0, 1], &[1, 0]]);
        let mut bad = Matching::new(2, 2);
        bad.set(0, 0); // not an edge
        let _ = pothen_fan_graft_ws(&g, Some(&bad), &mut AugmentWorkspace::new());
    }

    #[test]
    fn pf_graft_workspace_reuse_is_stable_across_solves() {
        let mut rng = SplitMix64::new(31);
        let g = random_graph(200, 5, &mut rng);
        let mut ws = AugmentWorkspace::new();
        let (first, _) = pothen_fan_graft_ws(&g, None, &mut ws);
        pothen_fan_graft_ws(&g, None, &mut ws);
        let footprint = (
            ws.frontier.capacity(),
            ws.parent_col.as_ptr() as usize,
            ws.used.as_ptr() as usize,
            ws.alive.as_ptr() as usize,
            ws.chunks.len(),
        );
        let (second, _) = pothen_fan_graft_ws(&g, None, &mut ws);
        assert_eq!(first.rmates(), second.rmates(), "reuse must not change the answer");
        assert_eq!(
            footprint,
            (
                ws.frontier.capacity(),
                ws.parent_col.as_ptr() as usize,
                ws.used.as_ptr() as usize,
                ws.alive.as_ptr() as usize,
                ws.chunks.len(),
            ),
            "scratch reallocated on an identically-shaped solve"
        );
    }

    #[test]
    fn alternating_path_case() {
        let g = graph(&[&[1, 1], &[1, 0]]);
        assert_eq!(pothen_fan_par(&g).cardinality(), 2);
        assert_eq!(pothen_fan_graft(&g).cardinality(), 2);
        assert_eq!(hopcroft_karp_par(&g).cardinality(), 2);
    }

    #[test]
    fn pf_par_agrees_with_pf_on_rectangles() {
        for g in [
            graph(&[&[1, 1, 1, 1]]),
            graph(&[&[1], &[1], &[1], &[1]]),
            graph(&[&[1, 0, 1], &[0, 1, 0]]),
        ] {
            assert_eq!(pothen_fan_par(&g).cardinality(), pothen_fan(&g).cardinality());
        }
    }

    #[test]
    fn chunking_is_pool_size_independent() {
        // The chunk length is a pure function of the frontier length.
        assert_eq!(chunk_len(1), MIN_CHUNK);
        assert_eq!(chunk_len(MIN_CHUNK * MAX_CHUNKS), MIN_CHUNK);
        let big = 10 * MIN_CHUNK * MAX_CHUNKS;
        assert_eq!(chunk_len(big), big / MAX_CHUNKS);
    }

    #[test]
    fn cancelled_token_errors_before_any_phase_runs() {
        let mut rng = SplitMix64::new(11);
        let g = random_graph(40, 4, &mut rng);
        let token = CancelToken::unbounded();
        token.cancel();
        let mut ws = AugmentWorkspace::new();
        assert!(hopcroft_karp_par_cancel(&g, None, &mut ws, &token).is_err());
        assert!(pothen_fan_par_cancel(&g, None, &mut ws, &token).is_err());
        assert!(pothen_fan_graft_cancel(&g, None, &mut ws, &token).is_err());
    }

    #[test]
    fn workspace_reused_after_cancel_is_byte_identical_to_fresh() {
        // The serve daemon's reuse-after-cancel contract: a cancelled run
        // leaves no poisoned scratch state behind, so re-solving on the
        // same workspace matches a fresh-workspace solve byte for byte.
        let mut rng = SplitMix64::new(23);
        let g = random_graph(60, 4, &mut rng);
        let dead = CancelToken::unbounded();
        dead.cancel();
        let live = CancelToken::unbounded();
        let mut ws = AugmentWorkspace::new();

        assert!(hopcroft_karp_par_cancel(&g, None, &mut ws, &dead).is_err());
        let (reused, reused_stats) =
            hopcroft_karp_par_cancel(&g, None, &mut ws, &live).expect("live token");
        let (fresh, fresh_stats) = hopcroft_karp_par_ws(&g, None, &mut AugmentWorkspace::new());
        assert_eq!(reused.rmates(), fresh.rmates());
        assert_eq!(reused.cmates(), fresh.cmates());
        assert_eq!(reused_stats, fresh_stats);

        assert!(pothen_fan_graft_cancel(&g, None, &mut ws, &dead).is_err());
        let (reused, _) = pothen_fan_graft_cancel(&g, None, &mut ws, &live).expect("live token");
        let (fresh, _) = pothen_fan_graft_ws(&g, None, &mut AugmentWorkspace::new());
        assert_eq!(reused.rmates(), fresh.rmates());
        assert_eq!(reused.cmates(), fresh.cmates());

        assert!(pothen_fan_par_cancel(&g, None, &mut ws, &dead).is_err());
        let (reused, _) = pothen_fan_par_cancel(&g, None, &mut ws, &live).expect("live token");
        let (fresh, _) = pothen_fan_par_ws(&g, None, &mut AugmentWorkspace::new());
        assert_eq!(reused.rmates(), fresh.rmates());
        assert_eq!(reused.cmates(), fresh.cmates());
    }
}
