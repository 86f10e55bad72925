//! `TwoSidedMatch` — paper Algorithm 3.
//!
//! After scaling, **every row picks a column and every column picks a row**,
//! both with probabilities proportional to the scaled entries. The (at most
//! `2n`) chosen edges form the subgraph `G`; by Lemma 1 each of its
//! components contains at most one cycle, so Karp–Sipser — here the
//! specialized parallel [`karp_sipser_mt`](crate::karp_sipser_mt) — finds a
//! **maximum** matching of `G` in linear time. Conjecture 1 (supported by
//! the random 1-out analysis of Karoński–Pittel/Walkup and by the paper's
//! experiments) puts the expected quality at `2(1 − ρ) ≈ 0.866` of the
//! optimum for matrices with total support.

use dsmatch_graph::{BipartiteGraph, CancelToken, Cancelled, Matching, SplitMix64, VertexId};
use dsmatch_scale::{sinkhorn_knopp, ScalingConfig, ScalingResult};
use rayon::prelude::*;

use crate::ks_mt::karp_sipser_mt_seq;
use crate::sample::{debug_assert_total, sample_neighbor};

/// Configuration of [`two_sided_match`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TwoSidedConfig {
    /// Sinkhorn–Knopp stopping rule (paper experiments: 0/1/5/10 iterations).
    pub scaling: ScalingConfig,
    /// PRNG seed. Row `i` uses stream `i`, column `j` stream `nrows + j`.
    pub seed: u64,
}

impl Default for TwoSidedConfig {
    fn default() -> Self {
        Self { scaling: ScalingConfig::default(), seed: 0x5EED }
    }
}

/// Sample the two choice arrays (lines 2–7 of Algorithm 3) in parallel.
///
/// Row `i` draws `j ∈ A_i*` with probability `s_ij / Σ_ℓ s_iℓ` — within a
/// row, weight `dc[j]`; column `j` draws `i ∈ A_*j` with weight `dr[i]`.
/// Vertices with empty adjacency get [`dsmatch_graph::NIL`].
pub fn two_sided_choices(
    g: &BipartiteGraph,
    scaling: &ScalingResult,
    seed: u64,
) -> (Vec<VertexId>, Vec<VertexId>) {
    let mut rchoice = Vec::new();
    let mut cchoice = Vec::new();
    two_sided_choices_into(g, scaling, seed, &mut rchoice, &mut cchoice);
    (rchoice, cchoice)
}

/// Buffer-reuse variant of [`two_sided_choices`]: the two choice arrays are
/// overwritten **in place** (resize + parallel per-slot writes), keeping
/// their allocation across solves on same-shaped instances and allocating
/// no temporaries at all — unlike a `collect`, which would stage per-chunk
/// vectors. Each slot is a pure function of `(seed, index)`, so the arrays
/// are byte-identical for every pool size.
///
/// The sampling totals come from `scaling.row_sums`/`col_sums`, so each
/// side costs one early-exit scan of its adjacency lists and no summing
/// pass (see [`ScalingResult`] for the sums invariant).
pub fn two_sided_choices_into(
    g: &BipartiteGraph,
    scaling: &ScalingResult,
    seed: u64,
    rchoice: &mut Vec<VertexId>,
    cchoice: &mut Vec<VertexId>,
) {
    let n_r = g.nrows();
    let csr = g.csr();
    let csc = g.csc();
    let ScalingResult { dr, dc, row_sums, col_sums, .. } = scaling;
    // No clear(): every slot is overwritten below, so resizing alone keeps
    // same-shaped batch solves free of the O(n) fill a clear would force.
    rchoice.resize(n_r, 0);
    rchoice.par_iter_mut().enumerate().for_each(|(i, slot)| {
        let mut rng = SplitMix64::stream(seed, i as u64);
        let adj = csr.row(i);
        debug_assert_total(adj, dc, row_sums[i]);
        *slot = sample_neighbor(adj, dc, row_sums[i], &mut rng);
    });
    cchoice.resize(g.ncols(), 0);
    cchoice.par_iter_mut().enumerate().for_each(|(j, slot)| {
        let mut rng = SplitMix64::stream(seed, (n_r + j) as u64);
        let adj = csc.row(j);
        debug_assert_total(adj, dr, col_sums[j]);
        *slot = sample_neighbor(adj, dr, col_sums[j], &mut rng);
    });
}

/// Run `TwoSidedMatch` (scaling + two-sided sampling + `KarpSipserMT`) in
/// the current Rayon pool.
///
/// ```
/// use dsmatch_core::{two_sided_match, TwoSidedConfig};
/// use dsmatch_graph::{BipartiteGraph, TripletMatrix};
/// use dsmatch_scale::ScalingConfig;
///
/// // Ring pattern with a perfect matching.
/// let n = 100;
/// let mut t = TripletMatrix::new(n, n);
/// for i in 0..n {
///     t.push(i, i);
///     t.push(i, (i + 1) % n);
/// }
/// let g = BipartiteGraph::from_csr(t.into_csr());
/// let cfg = TwoSidedConfig { scaling: ScalingConfig::iterations(5), seed: 1 };
/// let m = two_sided_match(&g, &cfg);
/// m.verify(&g).unwrap();
/// // Conjecture 1: around 0.866·n in expectation; far above half here.
/// assert!(m.cardinality() > n / 2);
/// ```
pub fn two_sided_match(g: &BipartiteGraph, cfg: &TwoSidedConfig) -> Matching {
    let scaling = if cfg.scaling.max_iterations == 0 {
        ScalingResult::identity(g)
    } else {
        sinkhorn_knopp(g, &cfg.scaling)
    };
    two_sided_match_with_scaling(g, &scaling, cfg.seed)
}

/// The sampling + matching phases with externally computed scaling factors.
pub fn two_sided_match_with_scaling(
    g: &BipartiteGraph,
    scaling: &ScalingResult,
    seed: u64,
) -> Matching {
    two_sided_match_ws(g, scaling, seed, &mut crate::HeurWorkspace::new())
}

/// Buffer-reuse variant of [`two_sided_match_with_scaling`]: the choice
/// arrays and the `KarpSipserMT` state live in `ws` and keep their
/// allocation across solves; only the returned [`Matching`] is fresh.
pub fn two_sided_match_ws(
    g: &BipartiteGraph,
    scaling: &ScalingResult,
    seed: u64,
    ws: &mut crate::HeurWorkspace,
) -> Matching {
    two_sided_match_cancel_ws(g, scaling, seed, ws, &CancelToken::unbounded())
        .expect("unbounded token never cancels")
}

/// Cancellable variant of [`two_sided_match_ws`]: the token is polled before
/// the sampling pass and between the parallel phases of the inner
/// [`karp_sipser_mt_cancel_ws`](crate::karp_sipser_mt_cancel_ws).
pub fn two_sided_match_cancel_ws(
    g: &BipartiteGraph,
    scaling: &ScalingResult,
    seed: u64,
    ws: &mut crate::HeurWorkspace,
    token: &CancelToken,
) -> Result<Matching, Cancelled> {
    token.check()?;
    let crate::HeurWorkspace { rchoice, cchoice, ksmt, .. } = ws;
    two_sided_choices_into(g, scaling, seed, rchoice, cchoice);
    crate::ks_mt::karp_sipser_mt_cancel_ws(rchoice, cchoice, ksmt, token)
}

/// Sequential reference: sequential scaling, sequential sampling (same
/// per-vertex streams, hence the same subgraph) and the sequential exact
/// Karp–Sipser. Produces the same cardinality as [`two_sided_match`].
pub fn two_sided_match_seq(g: &BipartiteGraph, cfg: &TwoSidedConfig) -> Matching {
    let scaling = if cfg.scaling.max_iterations == 0 {
        ScalingResult::identity(g)
    } else {
        dsmatch_scale::sinkhorn_knopp_seq(g, &cfg.scaling)
    };
    let n_r = g.nrows();
    let csr = g.csr();
    let csc = g.csc();
    let (dr, dc) = (&scaling.dr, &scaling.dc);
    let rchoice: Vec<VertexId> = (0..n_r)
        .map(|i| {
            let mut rng = SplitMix64::stream(cfg.seed, i as u64);
            let adj = csr.row(i);
            let total: f64 = adj.iter().map(|&j| dc[j as usize]).sum();
            sample_neighbor(adj, dc, total, &mut rng)
        })
        .collect();
    let cchoice: Vec<VertexId> = (0..g.ncols())
        .map(|j| {
            let mut rng = SplitMix64::stream(cfg.seed, (n_r + j) as u64);
            let adj = csc.row(j);
            let total: f64 = adj.iter().map(|&i| dr[i as usize]).sum();
            sample_neighbor(adj, dr, total, &mut rng)
        })
        .collect();
    karp_sipser_mt_seq(&rchoice, &cchoice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmatch_graph::{Csr, TripletMatrix, NIL};

    fn ring(n: usize) -> BipartiteGraph {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i);
            t.push(i, (i + 1) % n);
        }
        BipartiteGraph::from_csr(t.into_csr())
    }

    #[test]
    fn choices_are_edges() {
        let g = ring(128);
        let s = sinkhorn_knopp(&g, &ScalingConfig::iterations(3));
        let (rc, cc) = two_sided_choices(&g, &s, 17);
        for (i, &j) in rc.iter().enumerate() {
            assert_ne!(j, NIL);
            assert!(g.csr().contains(i, j as usize), "({i},{j}) not an edge");
        }
        for (j, &i) in cc.iter().enumerate() {
            assert_ne!(i, NIL);
            assert!(g.csr().contains(i as usize, j), "({i},{j}) not an edge");
        }
    }

    /// Factors edited after scaling no longer match the kept sums: debug
    /// builds refuse to sample with the stale totals.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale sampling total")]
    fn stale_scaling_sums_are_refused_in_debug_builds() {
        let g = ring(64);
        let mut s = sinkhorn_knopp(&g, &ScalingConfig::iterations(3));
        s.dr[5] *= 2.0;
        let _ = two_sided_choices(&g, &s, 1);
    }

    #[test]
    fn matching_is_valid_on_original_graph() {
        let g = ring(200);
        let m = two_sided_match(&g, &TwoSidedConfig::default());
        m.verify(&g).unwrap();
        assert!(m.cardinality() > 0);
    }

    #[test]
    fn par_and_seq_same_cardinality() {
        let g = ring(301);
        let cfg = TwoSidedConfig { scaling: ScalingConfig::iterations(4), seed: 4242 };
        let par = two_sided_match(&g, &cfg);
        let seq = two_sided_match_seq(&g, &cfg);
        assert_eq!(par.cardinality(), seq.cardinality());
    }

    #[test]
    fn quality_beats_one_sided_on_ring() {
        // Both heuristics on the same graph; TwoSided should do better
        // (0.866 vs 0.632 expectations).
        let g = ring(4000);
        let two =
            two_sided_match(&g, &TwoSidedConfig { scaling: ScalingConfig::iterations(5), seed: 1 });
        let one = crate::one_sided::one_sided_match(
            &g,
            &crate::one_sided::OneSidedConfig { scaling: ScalingConfig::iterations(5), seed: 1 },
        );
        assert!(
            two.cardinality() > one.cardinality(),
            "two-sided {} ≤ one-sided {}",
            two.cardinality(),
            one.cardinality()
        );
        assert!(two.cardinality() as f64 / 4000.0 > 0.85);
    }

    #[test]
    fn deterministic_cardinality() {
        let g = ring(500);
        let cfg = TwoSidedConfig { scaling: ScalingConfig::iterations(2), seed: 9 };
        let c0 = two_sided_match(&g, &cfg).cardinality();
        for _ in 0..5 {
            assert_eq!(two_sided_match(&g, &cfg).cardinality(), c0);
        }
    }

    #[test]
    fn handles_empty_rows_and_cols() {
        let g = BipartiteGraph::from_csr(Csr::from_dense(&[&[1, 0, 1], &[0, 0, 0], &[1, 0, 0]]));
        let m = two_sided_match(&g, &TwoSidedConfig::default());
        m.verify(&g).unwrap();
        // Max matching here is 2 (rows 0 & 2 to cols 2 & 0, say).
        assert!(m.cardinality() <= 2);
    }

    #[test]
    fn perfect_on_permutation() {
        let g = BipartiteGraph::from_csr(Csr::from_dense(&[&[0, 0, 1], &[1, 0, 0], &[0, 1, 0]]));
        let m = two_sided_match(&g, &TwoSidedConfig::default());
        assert!(m.is_perfect());
    }
}
