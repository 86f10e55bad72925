//! `OneSidedMatch` — paper Algorithm 2.
//!
//! Scale the adjacency matrix to doubly stochastic form, then let **every
//! row independently** pick one column with probability proportional to the
//! scaled entry and write itself into `cmatch[column]`. Multiple rows may
//! pick the same column; in the parallel version one write survives per
//! column (benign last-writer-wins race, here expressed as relaxed atomic
//! stores so it is well-defined), and the surviving pairs form a valid
//! matching of size ≥ n(1 − 1/e) in expectation (Theorem 1).
//!
//! There is **no synchronization and no conflict resolution** — this is the
//! paper's headline "zero algorithmic overhead" heuristic, and the reason
//! its speedup plot (Fig. 3b) scales almost linearly.

use dsmatch_graph::{BipartiteGraph, Matching, SplitMix64, NIL};
use dsmatch_scale::{sinkhorn_knopp, ScalingConfig, ScalingResult};
use rayon::prelude::*;
use std::sync::atomic::Ordering;

use crate::sample::{debug_assert_total, sample_neighbor};

/// Configuration of [`one_sided_match`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OneSidedConfig {
    /// Sinkhorn–Knopp stopping rule (paper experiments: 0/1/5/10 iterations).
    pub scaling: ScalingConfig,
    /// PRNG seed; per-row streams are derived from it, making the result
    /// independent of the thread count.
    pub seed: u64,
}

impl Default for OneSidedConfig {
    fn default() -> Self {
        Self { scaling: ScalingConfig::default(), seed: 0x5EED }
    }
}

/// Run `OneSidedMatch` (scaling + sampling) in the current Rayon pool.
///
/// ```
/// use dsmatch_core::{one_sided_match, OneSidedConfig};
/// use dsmatch_graph::{BipartiteGraph, Csr};
/// use dsmatch_scale::ScalingConfig;
///
/// // A 3-cycle pattern: every edge is in a perfect matching.
/// let g = BipartiteGraph::from_csr(Csr::from_dense(&[
///     &[1, 1, 0],
///     &[0, 1, 1],
///     &[1, 0, 1],
/// ]));
/// let cfg = OneSidedConfig { scaling: ScalingConfig::iterations(5), seed: 1 };
/// let m = one_sided_match(&g, &cfg);
/// m.verify(&g).unwrap();
/// assert!(m.cardinality() >= 1);
/// ```
pub fn one_sided_match(g: &BipartiteGraph, cfg: &OneSidedConfig) -> Matching {
    let scaling = if cfg.scaling.max_iterations == 0 {
        ScalingResult::identity(g)
    } else {
        sinkhorn_knopp(g, &cfg.scaling)
    };
    one_sided_match_with_scaling(g, &scaling, cfg.seed)
}

/// The sampling phase of Algorithm 2 with externally computed scaling
/// factors (lets callers substitute Ruiz scaling or reuse one scaling for
/// several seeds).
pub fn one_sided_match_with_scaling(
    g: &BipartiteGraph,
    scaling: &ScalingResult,
    seed: u64,
) -> Matching {
    one_sided_match_ws(g, scaling, seed, &mut crate::HeurWorkspace::new())
}

/// Buffer-reuse variant of [`one_sided_match_with_scaling`]: the race slots
/// live in `ws` and keep their allocation across solves; only the returned
/// [`Matching`] is freshly allocated. The sampling totals come from
/// `scaling.row_sums` (see [`ScalingResult`]).
pub fn one_sided_match_ws(
    g: &BipartiteGraph,
    scaling: &ScalingResult,
    seed: u64,
    ws: &mut crate::HeurWorkspace,
) -> Matching {
    let n_r = g.nrows();
    let n_c = g.ncols();
    let csr = g.csr();
    let (dc, row_sums) = (&scaling.dc, &scaling.row_sums);

    // cmatch[j] ← NIL, in parallel (paper lines 2–3).
    crate::workspace::reset_atomic_u32(&mut ws.cslots, n_c, NIL);
    let cmatch = &ws.cslots[..];

    // Every row picks a column and races into cmatch (paper lines 4–6).
    (0..n_r).into_par_iter().for_each(|i| {
        let mut rng = SplitMix64::stream(seed, i as u64);
        let adj = csr.row(i);
        debug_assert_total(adj, dc, row_sums[i]);
        let j = sample_neighbor(adj, dc, row_sums[i], &mut rng);
        if j != NIL {
            // Benign race: any single writer may win; the matching stays
            // valid because each row writes at most one column slot.
            cmatch[j as usize].store(i as u32, Ordering::Relaxed);
        }
    });

    let cmatch: Vec<u32> = cmatch.par_iter().map(|a| a.load(Ordering::Relaxed)).collect();
    Matching::from_cmate(cmatch, n_r)
}

/// Sequential reference implementation: identical sampling streams, so the
/// set of (row → column) choices is identical to the parallel version; only
/// the per-column surviving row may differ (it is the last writer here, an
/// arbitrary one in parallel). Cardinality is therefore identical.
pub fn one_sided_match_seq(g: &BipartiteGraph, cfg: &OneSidedConfig) -> Matching {
    let scaling = if cfg.scaling.max_iterations == 0 {
        ScalingResult::identity(g)
    } else {
        dsmatch_scale::sinkhorn_knopp_seq(g, &cfg.scaling)
    };
    let csr = g.csr();
    let dc = &scaling.dc;
    let mut cmatch = vec![NIL; g.ncols()];
    for i in 0..g.nrows() {
        let mut rng = SplitMix64::stream(cfg.seed, i as u64);
        let adj = csr.row(i);
        let total: f64 = adj.iter().map(|&j| dc[j as usize]).sum();
        let j = sample_neighbor(adj, dc, total, &mut rng);
        if j != NIL {
            cmatch[j as usize] = i as u32;
        }
    }
    Matching::from_cmate(cmatch, g.nrows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmatch_graph::Csr;

    fn ring(n: usize) -> BipartiteGraph {
        // Row i adjacent to columns i and (i+1) mod n: total support.
        let mut t = dsmatch_graph::TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i);
            t.push(i, (i + 1) % n);
        }
        BipartiteGraph::from_csr(t.into_csr())
    }

    #[test]
    fn produces_valid_matching() {
        let g = ring(64);
        let m = one_sided_match(&g, &OneSidedConfig::default());
        m.verify(&g).unwrap();
        assert!(m.cardinality() > 0);
    }

    /// Factors edited after scaling no longer match the kept sums: debug
    /// builds refuse to sample with the stale totals.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale sampling total")]
    fn stale_scaling_sums_are_refused_in_debug_builds() {
        let g = ring(64);
        let mut s = sinkhorn_knopp(&g, &ScalingConfig::iterations(3));
        s.dc[5] *= 2.0;
        let _ = one_sided_match_with_scaling(&g, &s, 1);
    }

    #[test]
    fn seq_and_par_same_cardinality_and_columns() {
        let g = ring(257);
        let cfg = OneSidedConfig { scaling: ScalingConfig::iterations(4), seed: 99 };
        let par = one_sided_match(&g, &cfg);
        let seq = one_sided_match_seq(&g, &cfg);
        assert_eq!(par.cardinality(), seq.cardinality());
        // The set of matched columns is exactly the set of chosen columns,
        // identical in both versions.
        let cols_par: Vec<bool> = (0..g.ncols()).map(|j| par.is_col_matched(j)).collect();
        let cols_seq: Vec<bool> = (0..g.ncols()).map(|j| seq.is_col_matched(j)).collect();
        assert_eq!(cols_par, cols_seq);
    }

    #[test]
    fn deterministic_across_runs() {
        // The per-column winner among racing rows is scheduling-dependent,
        // but the set of chosen columns — hence the cardinality — is a pure
        // function of the seed.
        let g = ring(100);
        let cfg = OneSidedConfig { scaling: ScalingConfig::iterations(2), seed: 7 };
        let a = one_sided_match(&g, &cfg);
        let b = one_sided_match(&g, &cfg);
        assert_eq!(a.cardinality(), b.cardinality());
        for j in 0..g.ncols() {
            assert_eq!(a.is_col_matched(j), b.is_col_matched(j));
        }
        // The sequential version is fully deterministic.
        let s1 = one_sided_match_seq(&g, &cfg);
        let s2 = one_sided_match_seq(&g, &cfg);
        assert_eq!(s1, s2);
    }

    #[test]
    fn different_seeds_differ() {
        let g = ring(100);
        let a = one_sided_match(&g, &OneSidedConfig { seed: 1, ..Default::default() });
        let b = one_sided_match(&g, &OneSidedConfig { seed: 2, ..Default::default() });
        assert_ne!(a, b, "two seeds giving identical matchings is astronomically unlikely");
    }

    #[test]
    fn meets_theorem1_bound_on_ring() {
        // Ring has a perfect matching (identity), so optimum = n. Average
        // quality over seeds must clear 1 − 1/e; a single run on n = 2000
        // concentrates well above 0.60.
        let g = ring(2000);
        let m = one_sided_match(
            &g,
            &OneSidedConfig { scaling: ScalingConfig::iterations(10), seed: 5 },
        );
        let q = m.cardinality() as f64 / 2000.0;
        assert!(q >= 0.60, "quality {q} below Theorem 1 expectation");
    }

    #[test]
    fn zero_scaling_iterations_still_valid() {
        let g = ring(128);
        let cfg = OneSidedConfig { scaling: ScalingConfig::iterations(0), seed: 3 };
        let m = one_sided_match(&g, &cfg);
        m.verify(&g).unwrap();
        assert!(m.cardinality() > 64); // way better than half on a ring
    }

    #[test]
    fn tolerates_empty_rows() {
        let g = BipartiteGraph::from_csr(Csr::from_dense(&[&[1, 1], &[0, 0], &[1, 0]]));
        let m = one_sided_match(&g, &OneSidedConfig::default());
        m.verify(&g).unwrap();
        assert!(!m.is_row_matched(1));
    }

    #[test]
    fn perfect_on_permutation_matrix() {
        // With a permutation pattern every row has exactly one choice:
        // the heuristic must return the full permutation.
        let g = BipartiteGraph::from_csr(Csr::from_dense(&[&[0, 1, 0], &[0, 0, 1], &[1, 0, 0]]));
        let m = one_sided_match(&g, &OneSidedConfig::default());
        assert!(m.is_perfect());
        assert_eq!(m.rmate(0), 1);
        assert_eq!(m.rmate(1), 2);
        assert_eq!(m.rmate(2), 0);
    }
}
