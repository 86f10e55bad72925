//! `KarpSipserMT` — paper Algorithm 4.
//!
//! A multi-threaded Karp–Sipser specialized for the subgraph `G` sampled by
//! `TwoSidedMatch`: every vertex carries exactly one out-choice, so `G` is
//! the union of two functional graphs and (Lemma 1) each component has at
//! most one cycle. Consequences exploited here:
//!
//! - Karp–Sipser is **exact** on `G` (paper's discussion after Lemma 1);
//! - only *out-one* vertices need processing in Phase 1 (Observations 1–2,
//!   Lemma 2): in-one vertices are consumed transitively through out-ones;
//! - consuming an out-one creates **at most one** new out-one (Lemma 4), so
//!   no worklist is needed — a thread just walks the chain;
//! - what remains after Phase 1 is trivial vertices, 2-cliques and cycles,
//!   matched by a synchronization-light parallel sweep (Lemma 3).
//!
//! Synchronization uses exactly the paper's three primitives:
//! `fetch_add` (`_Add`) for degree construction, `compare_exchange`
//! (`_CompAndSwap`) to claim a mate, and `fetch_sub` (`_AddAndFetch` with
//! −1) to order concurrent degree decrements so exactly one thread
//! continues into each newly created out-one vertex.
//!
//! Beyond the paper, [`NIL`] choices are tolerated (vertices with empty
//! adjacency in sprank-deficient inputs simply never choose); such vertices
//! are skipped, which preserves matching validity and, on inputs satisfying
//! the paper's assumptions, changes nothing.

use dsmatch_graph::{
    BipartiteGraph, CancelToken, Cancelled, Matching, TripletMatrix, VertexId, NIL,
};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use crate::karp_sipser::{karp_sipser, KarpSipserConfig};
use crate::workspace::reset_atomic_u32;

/// Reusable scratch state of Algorithm 4 (see [`karp_sipser_mt_ws`]).
///
/// All buffers are sized `nrows + ncols` and keep their allocation across
/// solves; the fields are public so harnesses can assert pointer stability.
#[derive(Debug, Default)]
pub struct KsMtScratch {
    /// Unified choice array (rows then columns, column ids offset by
    /// `nrows`) — the concatenation the paper describes.
    pub choice: Vec<u32>,
    /// `mark[v]`: is `v` an out-one vertex candidate (nobody chose it)?
    pub mark: Vec<AtomicBool>,
    /// Degree of each vertex in the sampled subgraph (1 or 2).
    pub deg: Vec<AtomicU32>,
    /// Mate array over unified vertex ids.
    pub mat: Vec<AtomicU32>,
}

impl KsMtScratch {
    /// An empty scratch; buffers grow lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resize every buffer to `total` and reset values for a fresh solve,
    /// reusing allocations. `choice` is only resized: the concatenation
    /// pass overwrites every slot of it.
    fn reset(&mut self, total: usize) {
        self.choice.resize(total, NIL);
        let keep = self.mark.len().min(total);
        self.mark[..keep].par_iter().for_each(|a| a.store(true, Ordering::Relaxed));
        if total < self.mark.len() {
            self.mark.truncate(total);
        } else {
            self.mark.resize_with(total, || AtomicBool::new(true));
        }
        reset_atomic_u32(&mut self.deg, total, 1);
        reset_atomic_u32(&mut self.mat, total, NIL);
    }
}

/// Run the multi-threaded Karp–Sipser of Algorithm 4 on the 1-out ∪ 1-in
/// subgraph described by the two choice arrays.
///
/// `rchoice[i]` is the column chosen by row `i` (or [`NIL`]), `cchoice[j]`
/// the row chosen by column `j` (or [`NIL`]). Returns a maximum-cardinality
/// matching **of the sampled subgraph** (not of the original graph).
///
/// ```
/// use dsmatch_core::karp_sipser_mt;
///
/// // Rows 0,1 choose columns 0,1; columns choose rows crosswise:
/// // a 4-cycle — the maximum matching has 2 edges.
/// let m = karp_sipser_mt(&[0, 1], &[1, 0]);
/// assert_eq!(m.cardinality(), 2);
/// ```
pub fn karp_sipser_mt(rchoice: &[VertexId], cchoice: &[VertexId]) -> Matching {
    karp_sipser_mt_ws(rchoice, cchoice, &mut KsMtScratch::new())
}

/// Buffer-reuse variant of [`karp_sipser_mt`]: identical algorithm, but the
/// choice/mark/degree/mate state lives in the caller-provided
/// [`KsMtScratch`] so repeated solves on same-shaped inputs stop allocating
/// (only the returned [`Matching`] is fresh).
pub fn karp_sipser_mt_ws(
    rchoice: &[VertexId],
    cchoice: &[VertexId],
    ws: &mut KsMtScratch,
) -> Matching {
    karp_sipser_mt_cancel_ws(rchoice, cchoice, ws, &CancelToken::unbounded())
        .expect("unbounded token never cancels")
}

/// Cancellable variant of [`karp_sipser_mt_ws`]: the token is polled between
/// the flat parallel phases (initialization, Phase 1, Phase 2, the
/// robustness sweep and extraction), the natural barriers of Algorithm 4.
/// On [`Cancelled`] the scratch stays reusable (it is reset on entry).
pub fn karp_sipser_mt_cancel_ws(
    rchoice: &[VertexId],
    cchoice: &[VertexId],
    ws: &mut KsMtScratch,
    token: &CancelToken,
) -> Result<Matching, Cancelled> {
    let n_r = rchoice.len();
    let n_c = cchoice.len();
    let total = n_r + n_c;
    token.check()?;
    ws.reset(total);

    // Unified vertex ids: rows 0..n_r, columns n_r..n_r+n_c. `choice` is
    // the concatenation of the two arrays (paper: "the choice array is a
    // concatenation of rchoice and cchoice"; no explicit graph is built).
    {
        let (rows, cols) = ws.choice.split_at_mut(n_r);
        rows.par_iter_mut().zip(rchoice.par_iter()).for_each(|(slot, &j)| {
            *slot = if j == NIL { NIL } else { (j as usize + n_r) as u32 };
        });
        cols.par_iter_mut().zip(cchoice.par_iter()).for_each(|(slot, &i)| *slot = i);
    }
    let choice = &ws.choice[..];
    let mark = &ws.mark[..];
    let deg = &ws.deg[..];
    let mat = &ws.mat[..];
    debug_assert!(choice[..n_r].iter().all(|&v| v == NIL || (v as usize) >= n_r));
    debug_assert!(choice[n_r..].iter().all(|&v| v == NIL || (v as usize) < n_r));

    // Initialization (paper lines 1–9).
    (0..total).into_par_iter().for_each(|u| {
        let v = choice[u];
        if v != NIL {
            let v = v as usize;
            mark[v].store(false, Ordering::Relaxed);
            if choice[v] != u as u32 {
                deg[v].fetch_add(1, Ordering::Relaxed);
            }
        }
    });

    token.check()?;

    // Phase 1: consume out-one vertices, following the at-most-one new
    // out-one chain (paper lines 10–23).
    (0..total).into_par_iter().for_each(|u| {
        if !mark[u].load(Ordering::Relaxed) || choice[u] == NIL {
            return;
        }
        let mut curr = u as u32;
        while curr != NIL {
            let nbr = choice[curr as usize];
            debug_assert_ne!(nbr, NIL, "chain continued into a choiceless vertex");
            // _CompAndSwap(match[nbr], NIL, curr): claim nbr for curr.
            if mat[nbr as usize]
                .compare_exchange(NIL, curr, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                mat[curr as usize].store(nbr, Ordering::Release);
                let next = choice[nbr as usize];
                curr = NIL;
                if next != NIL
                    && choice[next as usize] != NIL
                    && mat[next as usize].load(Ordering::Acquire) == NIL
                {
                    // _AddAndFetch(deg[next], −1) = 1 ⟺ previous value 2:
                    // the unique thread seeing this transition owns `next`.
                    if deg[next as usize].fetch_sub(1, Ordering::AcqRel) == 2 {
                        curr = next;
                    }
                }
            } else {
                // nbr was matched by another thread; curr is now isolated.
                curr = NIL;
            }
        }
    });

    token.check()?;

    // Phase 2: remaining components are trivial vertices, 2-cliques or
    // cycles (Lemma 3); matching each column with its choice is maximum.
    // The CAS makes the sweep safe even on inputs violating the paper's
    // total-support assumptions.
    (n_r..total).into_par_iter().for_each(|u| {
        let v = choice[u];
        if v == NIL || mat[u].load(Ordering::Acquire) != NIL {
            return;
        }
        if mat[v as usize]
            .compare_exchange(NIL, u as u32, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            mat[u].store(v, Ordering::Release);
        }
    });

    token.check()?;

    // Robustness sweep for degenerate inputs (NIL choices can leave an
    // unmatched row whose chosen column is still free; impossible under the
    // paper's assumptions, cheap to fix when it happens).
    (0..n_r).into_par_iter().for_each(|u| {
        let v = choice[u];
        if v == NIL || mat[u].load(Ordering::Acquire) != NIL {
            return;
        }
        if mat[v as usize]
            .compare_exchange(NIL, u as u32, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            mat[u].store(v, Ordering::Release);
        }
    });

    token.check()?;

    // Extract the two-sided mate arrays.
    let rmate: Vec<u32> = (0..n_r)
        .into_par_iter()
        .map(|i| {
            let v = mat[i].load(Ordering::Acquire);
            if v == NIL {
                NIL
            } else {
                v - n_r as u32
            }
        })
        .collect();
    let cmate: Vec<u32> =
        (n_r..total).into_par_iter().map(|u| mat[u].load(Ordering::Acquire)).collect();
    Ok(Matching::from_mates(rmate, cmate))
}

/// Sequential reference: materialize the sampled subgraph and run the
/// classic Karp–Sipser on it, which is exact there (Lemma 1). Used by tests
/// and benches to validate [`karp_sipser_mt`]'s cardinality.
pub fn karp_sipser_mt_seq(rchoice: &[VertexId], cchoice: &[VertexId]) -> Matching {
    let g = choice_subgraph(rchoice, cchoice);
    karp_sipser(&g, &KarpSipserConfig { seed: 0 }).matching
}

/// Materialize the 1-out ∪ 1-in subgraph as a [`BipartiteGraph`] (line 8 of
/// Algorithm 3 — the explicit construction the parallel code avoids).
pub fn choice_subgraph(rchoice: &[VertexId], cchoice: &[VertexId]) -> BipartiteGraph {
    let mut t =
        TripletMatrix::with_capacity(rchoice.len(), cchoice.len(), rchoice.len() + cchoice.len());
    for (i, &j) in rchoice.iter().enumerate() {
        if j != NIL {
            t.push(i, j as usize);
        }
    }
    for (j, &i) in cchoice.iter().enumerate() {
        if i != NIL {
            t.push(i as usize, j);
        }
    }
    BipartiteGraph::from_csr(t.into_csr())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmatch_graph::SplitMix64;

    /// Exhaustive-ish randomized cross-check against the sequential exact
    /// reference on many small instances.
    #[test]
    fn matches_sequential_reference_cardinality() {
        let mut rng = SplitMix64::new(2024);
        for n in [1usize, 2, 3, 4, 7, 16, 33, 100] {
            for _ in 0..50 {
                let rchoice: Vec<u32> = (0..n).map(|_| rng.next_below(n as u64) as u32).collect();
                let cchoice: Vec<u32> = (0..n).map(|_| rng.next_below(n as u64) as u32).collect();
                let par = karp_sipser_mt(&rchoice, &cchoice);
                let seq = karp_sipser_mt_seq(&rchoice, &cchoice);
                let g = choice_subgraph(&rchoice, &cchoice);
                par.verify(&g).unwrap();
                assert_eq!(
                    par.cardinality(),
                    seq.cardinality(),
                    "n = {n}, rchoice = {rchoice:?}, cchoice = {cchoice:?}"
                );
            }
        }
    }

    #[test]
    fn mutual_pair_matched_in_phase2() {
        // Single 2-clique: row 0 ↔ col 0.
        let m = karp_sipser_mt(&[0], &[0]);
        assert_eq!(m.cardinality(), 1);
        assert_eq!(m.rmate(0), 0);
    }

    #[test]
    fn four_cycle_fully_matched() {
        // r0→c0, r1→c1, c0→r1, c1→r0: one 4-cycle, perfect matching exists.
        let m = karp_sipser_mt(&[0, 1], &[1, 0]);
        assert_eq!(m.cardinality(), 2);
        let g = choice_subgraph(&[0, 1], &[1, 0]);
        m.verify(&g).unwrap();
    }

    #[test]
    fn chain_of_out_ones() {
        // Path: r0→c0, r1→c0 (c0 in-degree 2), c0→r1, c1→r0.
        // Out-ones initially: none chose r0? c1 chose r0. Let's verify
        // against the reference instead of hand-solving.
        let rchoice = [0u32, 0];
        let cchoice = [1u32, 0];
        let par = karp_sipser_mt(&rchoice, &cchoice);
        let seq = karp_sipser_mt_seq(&rchoice, &cchoice);
        assert_eq!(par.cardinality(), seq.cardinality());
    }

    #[test]
    fn star_pattern_all_rows_choose_same_column() {
        // All rows choose column 0; all columns choose row 0.
        let n = 16;
        let rchoice = vec![0u32; n];
        let cchoice = vec![0u32; n];
        let par = karp_sipser_mt(&rchoice, &cchoice);
        let seq = karp_sipser_mt_seq(&rchoice, &cchoice);
        assert_eq!(par.cardinality(), seq.cardinality());
        // The subgraph is a double star sharing r0/c0; max matching = 2.
        assert_eq!(par.cardinality(), 2);
    }

    #[test]
    fn tolerates_nil_choices() {
        let rchoice = [NIL, 1, NIL];
        let cchoice = [0u32, NIL, 1];
        let m = karp_sipser_mt(&rchoice, &cchoice);
        let g = choice_subgraph(&rchoice, &cchoice);
        m.verify(&g).unwrap();
        let seq = karp_sipser_mt_seq(&rchoice, &cchoice);
        assert_eq!(m.cardinality(), seq.cardinality());
    }

    #[test]
    fn all_nil_is_empty_matching() {
        let m = karp_sipser_mt(&[NIL, NIL], &[NIL, NIL, NIL]);
        assert_eq!(m.cardinality(), 0);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
    }

    #[test]
    fn rectangular_shapes() {
        let mut rng = SplitMix64::new(7);
        for (nr, nc) in [(3usize, 8usize), (8, 3), (1, 5), (5, 1)] {
            for _ in 0..50 {
                let rchoice: Vec<u32> = (0..nr).map(|_| rng.next_below(nc as u64) as u32).collect();
                let cchoice: Vec<u32> = (0..nc).map(|_| rng.next_below(nr as u64) as u32).collect();
                let par = karp_sipser_mt(&rchoice, &cchoice);
                let seq = karp_sipser_mt_seq(&rchoice, &cchoice);
                let g = choice_subgraph(&rchoice, &cchoice);
                par.verify(&g).unwrap();
                assert_eq!(par.cardinality(), seq.cardinality(), "{nr}×{nc}");
            }
        }
    }

    #[test]
    fn deterministic_cardinality_under_repetition() {
        // Cardinality must be stable across runs (it equals the maximum of
        // the sampled subgraph regardless of scheduling).
        let mut rng = SplitMix64::new(31);
        let n = 500;
        let rchoice: Vec<u32> = (0..n).map(|_| rng.next_below(n as u64) as u32).collect();
        let cchoice: Vec<u32> = (0..n).map(|_| rng.next_below(n as u64) as u32).collect();
        let c0 = karp_sipser_mt(&rchoice, &cchoice).cardinality();
        for _ in 0..10 {
            assert_eq!(karp_sipser_mt(&rchoice, &cchoice).cardinality(), c0);
        }
    }
}
