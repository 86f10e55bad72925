//! Auction / push-relabel style maximum bipartite matching.
//!
//! The paper's related work ([9], [21] — Kaya, Langguth, Manne, Uçar,
//! *Push-relabel based algorithms for the maximum transversal problem*)
//! evaluates push-relabel matching as the main alternative to
//! augmenting-path solvers, so the workspace ships one as a third exact
//! engine and cross-validation oracle.
//!
//! The implementation is the integer auction with unit bids, which is the
//! push-relabel algorithm specialized to unweighted bipartite matching:
//! every column carries a label (price) `ψ[c]`, a lower bound on the
//! length of its shortest alternating path to a free column; a free row
//! claims its cheapest adjacent column, evicting the previous owner, and
//! raises the column's label to `second_cheapest + 1`. A row whose
//! cheapest reachable column has label `n_c + 1` can have no augmenting
//! path left, so it retires.
//!
//! Bids alone raise a label by one at a time, so a row with no augmenting
//! path would retire only after `Θ(n)` bids on each of its columns —
//! quadratic work on instances with deficient rows. **Global relabeling**
//! (Kaya–Langguth–Manne–Uçar) bounds this: one breadth-first search from
//! the free columns over the alternating graph (a column's rows lead on
//! to those rows' mates) sets every label to its exact distance, and every
//! column it does not reach to `n_c + 1`, so rows with no augmenting path
//! retire at their next pop. Each search costs `O(n + τ)`, about as much
//! as the `n_r + n_c` bids between two periodic ones. The schedule:
//!
//! - once before the first bid;
//! - after every `n_r + n_c` pushes;
//! - as soon as `(n_r + n_c) / 8` pushes in a row have claimed no free
//!   column. The matching has then stopped growing, and the rows left
//!   with no augmenting path retire at once instead of bidding until the
//!   next periodic search. A cold `erdos_renyi_square(100000, 4.0, 1)`
//!   stops after 248,950 pushes instead of 400,000.

use dsmatch_graph::{BipartiteGraph, CancelToken, Cancelled, Matching, VertexId, NIL};

/// Work counters of a push-relabel run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PushRelabelStats {
    /// Total bids (matches + evictions) performed.
    pub pushes: usize,
    /// Label increases.
    pub relabels: usize,
    /// Rows retired as unmatchable.
    pub retired: usize,
    /// Global relabels (breadth-first searches resetting every label).
    pub global_relabels: usize,
}

/// Maximum-cardinality matching via the auction / push-relabel scheme.
pub fn push_relabel(g: &BipartiteGraph) -> Matching {
    push_relabel_from(g, Matching::new(g.nrows(), g.ncols())).0
}

/// Warm-startable variant with statistics.
///
/// # Panics
/// If `initial` is not a valid matching of `g`.
pub fn push_relabel_from(g: &BipartiteGraph, initial: Matching) -> (Matching, PushRelabelStats) {
    push_relabel_cancel(g, initial, &CancelToken::unbounded())
        .expect("unbounded token never cancels")
}

/// How many queue pops between cancellation polls: push-relabel has no
/// phase structure, so the "phase boundary" is a fixed slice of bids —
/// small enough that cancellation latency stays well under a millisecond,
/// large enough that the poll never shows up in a profile.
const CANCEL_POLL_INTERVAL: usize = 4096;

/// A run of `(n_r + n_c) / STALL_DIVISOR` pushes that claim no free column
/// (every one an eviction) triggers a global relabel ahead of the period:
/// once the matching has stopped growing, the rows left with no augmenting
/// path retire at their next pop instead of bidding until the periodic one.
const STALL_DIVISOR: usize = 8;

/// [`push_relabel_from`] with cooperative cancellation: the token is
/// polled once up front and then every `CANCEL_POLL_INTERVAL` queue
/// pops (push-relabel has no phases, so a bid-slice stands in for one).
///
/// # Panics
/// If `initial` is not a valid matching of `g`.
pub fn push_relabel_cancel(
    g: &BipartiteGraph,
    initial: Matching,
    token: &CancelToken,
) -> Result<(Matching, PushRelabelStats), Cancelled> {
    initial.verify(g).expect("warm-start matching must be valid");
    let n_r = g.nrows();
    let n_c = g.ncols();
    let mut rmate = initial.rmates().to_vec();
    let mut cmate = initial.cmates().to_vec();
    let mut psi = vec![0u32; n_c];
    let mut stats = PushRelabelStats::default();

    // Any alternating path visits each column at most once, so a label of
    // `n_c + 1` certifies unreachability of every free column.
    let limit = (n_c + 1) as u32;

    let mut queue: std::collections::VecDeque<u32> = (0..n_r as u32)
        .filter(|&i| rmate[i as usize] == NIL && g.row_degree(i as usize) > 0)
        .collect();

    // One up-front poll so an already-expired deadline refuses the run
    // deterministically, even on instances smaller than the poll interval.
    token.check()?;
    let mut since_poll = 0usize;
    // Pushes until the next global relabel: `0` relabels before the first bid.
    let mut until_relabel = 0usize;
    // Pushes since the last one that claimed a free column (or the last
    // global relabel); reaching `stall_limit` relabels at the next pop.
    let stall_limit = ((n_r + n_c) / STALL_DIVISOR).max(1);
    let mut stalled = 0usize;
    let mut search = Search::default();
    while let Some(r) = queue.pop_front() {
        since_poll += 1;
        if since_poll >= CANCEL_POLL_INTERVAL {
            since_poll = 0;
            token.check()?;
        }
        let r = r as usize;
        if rmate[r] != NIL {
            continue;
        }
        if until_relabel == 0 {
            global_relabel(g, &rmate, &cmate, &mut psi, limit, &mut search);
            stats.global_relabels += 1;
            until_relabel = n_r + n_c;
            stalled = 0;
        }
        // Find cheapest and second-cheapest adjacent columns.
        let mut best = NIL;
        let mut best_psi = u32::MAX;
        let mut second_psi = u32::MAX;
        for &c in g.row_adj(r) {
            let p = psi[c as usize];
            if p < best_psi {
                second_psi = best_psi;
                best_psi = p;
                best = c;
            } else if p < second_psi {
                second_psi = p;
            }
        }
        if best == NIL || best_psi >= limit {
            stats.retired += 1;
            continue; // no augmenting path can exist for r
        }
        // Claim `best`, evicting the previous owner.
        let prev = cmate[best as usize];
        cmate[best as usize] = r as VertexId;
        rmate[r] = best;
        stats.pushes += 1;
        until_relabel -= 1;
        if prev == NIL {
            stalled = 0;
        } else {
            rmate[prev as usize] = NIL;
            queue.push_back(prev);
            stalled += 1;
            if stalled == stall_limit {
                until_relabel = 0;
            }
        }
        // Relabel: the next bidder for `best` must outbid the runner-up.
        let new_psi = second_psi.saturating_add(1).min(limit);
        if new_psi > psi[best as usize] {
            psi[best as usize] = new_psi;
            stats.relabels += 1;
        }
    }
    Ok((Matching::from_mates(rmate, cmate), stats))
}

/// Buffers of the global relabel's breadth-first search, kept across calls.
#[derive(Default)]
struct Search {
    frontier: Vec<VertexId>,
    next: Vec<VertexId>,
    /// Columns not yet reached (possibly stale: filtered when swept).
    rest: Vec<VertexId>,
}

/// Set every column label to its exact alternating distance to a free
/// column: a breadth-first search from the free columns that steps from a
/// column to each of its rows' mates. Columns it does not reach get
/// `limit`, so the rows whose columns all lie there retire at their next
/// pop.
///
/// The search is direction-optimizing (Beamer et al.): a level whose
/// frontier has fewer edges than the unreached columns' mates expands
/// top-down; otherwise every unreached column checks whether its mate has
/// a neighbour on the frontier, stopping at the first. A cold start
/// (every column free) then costs `O(n_c)` instead of a full sweep.
fn global_relabel(
    g: &BipartiteGraph,
    rmate: &[VertexId],
    cmate: &[VertexId],
    psi: &mut [u32],
    limit: u32,
    search: &mut Search,
) {
    let Search { frontier, next, rest } = search;
    frontier.clear();
    rest.clear();
    // Adjacency entries of the unreached columns' mates.
    let mut rest_edges = 0usize;
    for (c, (p, &mate)) in psi.iter_mut().zip(cmate).enumerate() {
        if mate == NIL {
            *p = 0;
            frontier.push(c as VertexId);
        } else {
            *p = limit;
            rest.push(c as VertexId);
            rest_edges += g.row_degree(mate as usize);
        }
    }
    let mut level = 0u32;
    while !frontier.is_empty() && rest_edges > 0 {
        next.clear();
        let frontier_edges: usize = frontier.iter().map(|&c| g.col_degree(c as usize)).sum();
        if frontier_edges < rest_edges {
            for &c in frontier.iter() {
                for &r in g.col_adj(c as usize) {
                    let c2 = rmate[r as usize];
                    if c2 != NIL && psi[c2 as usize] == limit {
                        psi[c2 as usize] = level + 1;
                        next.push(c2);
                        rest_edges -= g.row_degree(r as usize);
                    }
                }
            }
        } else {
            rest.retain(|&c2| {
                if psi[c2 as usize] != limit {
                    return false;
                }
                let r = cmate[c2 as usize] as usize;
                if !g.row_adj(r).iter().any(|&c| psi[c as usize] == level) {
                    return true;
                }
                psi[c2 as usize] = level + 1;
                next.push(c2);
                rest_edges -= g.row_degree(r);
                false
            });
        }
        std::mem::swap(frontier, next);
        level += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hopcroft_karp::hopcroft_karp;
    use dsmatch_graph::{Csr, SplitMix64, TripletMatrix};

    fn graph(rows: &[&[u8]]) -> BipartiteGraph {
        BipartiteGraph::from_csr(Csr::from_dense(rows))
    }

    #[test]
    fn perfect_on_identity() {
        let g = graph(&[&[1, 0], &[0, 1]]);
        assert!(push_relabel(&g).is_perfect());
    }

    #[test]
    fn eviction_chain_resolves() {
        // r0 and r1 fight over c0; r0 must move to c1.
        let g = graph(&[&[1, 1], &[1, 0]]);
        let m = push_relabel(&g);
        assert_eq!(m.cardinality(), 2);
        assert_eq!(m.rmate(1), 0);
    }

    #[test]
    fn deficient_rows_retire() {
        let g = graph(&[&[1, 0], &[1, 0], &[1, 0]]);
        let (m, stats) = push_relabel_from(&g, Matching::new(3, 2));
        assert_eq!(m.cardinality(), 1);
        assert_eq!(stats.retired, 2);
    }

    #[test]
    fn cancel_variant_errors_on_dead_token_and_matches_on_live() {
        let g = graph(&[&[1, 1, 0], &[1, 0, 1], &[0, 1, 1]]);
        let dead = CancelToken::unbounded();
        dead.cancel();
        assert!(push_relabel_cancel(&g, Matching::new(3, 3), &dead).is_err());
        let live = CancelToken::unbounded();
        let (m, _) = push_relabel_cancel(&g, Matching::new(3, 3), &live).expect("live token");
        let plain = push_relabel(&g);
        assert_eq!(m.rmates(), plain.rmates());
        assert_eq!(m.cmates(), plain.cmates());
    }

    #[test]
    fn agrees_with_hopcroft_karp_on_random_instances() {
        let mut rng = SplitMix64::new(3);
        for n in [2usize, 5, 10, 25, 60] {
            for trial in 0..40 {
                let mut t = TripletMatrix::new(n, n);
                for i in 0..n {
                    for j in 0..n {
                        if rng.next_below(4) == 0 {
                            t.push(i, j);
                        }
                    }
                }
                let g = BipartiteGraph::from_csr(t.into_csr());
                let pr = push_relabel(&g);
                pr.verify(&g).unwrap();
                assert_eq!(
                    pr.cardinality(),
                    hopcroft_karp(&g).cardinality(),
                    "n = {n}, trial = {trial}"
                );
            }
        }
    }

    #[test]
    fn warm_start_is_preserved_where_possible() {
        let g = graph(&[&[1, 1, 0], &[0, 1, 1], &[1, 0, 1]]);
        let mut init = Matching::new(3, 3);
        init.set(0, 0);
        init.set(1, 1);
        let (m, stats) = push_relabel_from(&g, init);
        assert_eq!(m.cardinality(), 3);
        // Only the single free row needed processing.
        assert!(stats.pushes <= 3, "{stats:?}");
    }

    #[test]
    fn rectangular_and_empty() {
        let g = graph(&[&[1, 1, 1, 1]]);
        assert_eq!(push_relabel(&g).cardinality(), 1);
        let g = BipartiteGraph::from_csr(Csr::empty(3, 3));
        assert_eq!(push_relabel(&g).cardinality(), 0);
        let g = graph(&[&[1], &[1], &[1], &[1]]);
        assert_eq!(push_relabel(&g).cardinality(), 1);
    }

    #[test]
    fn global_relabel_bounds_pushes_on_deficient_instances() {
        // Without global relabeling, rows with no augmenting path retire
        // only after their columns' labels have climbed to `n_c + 1` one
        // bid at a time: about 1.57M pushes here, cold or warm.
        let g = dsmatch_gen::erdos_renyi_square(2000, 4.0, 13);
        let opt = hopcroft_karp(&g).cardinality();
        let budget = 10 * (g.nrows() + g.ncols());
        let cold = Matching::new(g.nrows(), g.ncols());
        let warm = dsmatch_core::cheap_random_edge(&g, 1);
        for (start, init) in [("cold", cold), ("warm", warm)] {
            let (m, stats) = push_relabel_from(&g, init);
            m.verify(&g).unwrap();
            assert_eq!(m.cardinality(), opt, "{start}");
            assert!(stats.pushes <= budget, "{start}: {stats:?}");
            assert!(stats.global_relabels >= 1, "{start}: {stats:?}");
        }
    }

    #[test]
    fn stalled_matching_relabels_before_the_period() {
        // Cold starts whose matching stops growing well before the second
        // periodic relabel: without the stall trigger the rows left with
        // no augmenting path bid until it, and the run stops at exactly
        // `2 (n_r + n_c)` pushes (8,000 and 20,000); with it, at 4,884
        // and 11,734.
        for (n, seed) in [(2000, 3), (5000, 2)] {
            let g = dsmatch_gen::erdos_renyi_square(n, 4.0, seed);
            let (m, stats) = push_relabel_from(&g, Matching::new(n, n));
            m.verify(&g).unwrap();
            assert_eq!(m.cardinality(), hopcroft_karp(&g).cardinality(), "n = {n}");
            let bound = 3 * (g.nrows() + g.ncols()) / 2;
            assert!(stats.pushes <= bound, "n = {n}: {stats:?}");
        }
    }

    #[test]
    fn global_relabel_sets_exact_distances() {
        // A plain top-down search is the reference for the
        // direction-optimizing one, on warm starts of several densities
        // (so both expansion directions run) with some pairs dropped.
        for (n, d, seed) in [(50, 1.5, 1), (400, 3.0, 2), (400, 8.0, 3), (1000, 20.0, 4)] {
            let g = dsmatch_gen::erdos_renyi_square(n, d, seed);
            let warm = dsmatch_core::cheap_random_edge(&g, seed);
            let mut m = Matching::new(n, n);
            for (r, c) in warm.iter_pairs().filter(|&(r, _)| r % 7 != 0) {
                m.set(r, c);
            }
            let limit = n as u32 + 1;
            let mut reference = vec![limit; n];
            let mut queue: std::collections::VecDeque<usize> =
                (0..n).filter(|&c| m.cmate(c) == NIL).collect();
            queue.iter().for_each(|&c| reference[c] = 0);
            while let Some(c) = queue.pop_front() {
                for &r in g.col_adj(c) {
                    let c2 = m.rmate(r as usize) as usize;
                    if c2 != NIL as usize && reference[c2] == limit {
                        reference[c2] = reference[c] + 1;
                        queue.push_back(c2);
                    }
                }
            }
            let mut psi = vec![0; n];
            global_relabel(&g, m.rmates(), m.cmates(), &mut psi, limit, &mut Search::default());
            assert_eq!(psi, reference, "n = {n}, d = {d}");
        }
    }

    #[test]
    fn adversarial_instance_solved_exactly() {
        let g = dsmatch_gen::adversarial_ks(200, 4);
        let m = push_relabel(&g);
        assert_eq!(m.cardinality(), 200);
    }
}
