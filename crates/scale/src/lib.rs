//! # dsmatch-scale — doubly-stochastic matrix scaling
//!
//! Both heuristics of the paper draw their sampling probabilities from a
//! doubly-stochastic scaling `S = D_R · A · D_C` of the (0,1) adjacency
//! matrix (paper §2.2). This crate implements:
//!
//! - [`sinkhorn_knopp`] / [`sinkhorn_knopp_seq`] — the paper's Algorithm 1
//!   (`ScaleSK`): alternately normalize columns then rows. The parallel
//!   version mirrors the paper's OpenMP `parallel for` loops with Rayon.
//! - [`sinkhorn_knopp_weighted`] — the same iteration for a general
//!   non-negative value array (beyond the paper's (0,1) setting).
//! - [`ruiz`] — Ruiz equilibration in the 1-norm (reviewed in §2.2 of the
//!   paper as the slower-converging alternative for unsymmetric matrices).
//!
//! The **scaling error** reported everywhere in the paper's §4 is
//! `max_j |Σ_i s_ij − 1|` measured after the row update (at which point row
//! sums are exactly one modulo round-off): see [`ScalingResult::error`].
//!
//! Scaled entries are never materialized: `s_ij = dr[i] · dc[j]` (times
//! `a_ij` in the weighted case) is recomputed on demand, exactly as in the
//! paper's implementation.
//!
//! ## Sweeps and the sums a result keeps
//!
//! A *sweep* is one pass over every adjacency list of one side; on sparse
//! inputs the sweeps are the whole cost. Iteration `k + 1`'s column sums
//! `Σ_{i ∈ A_*j} dr[i]` are exactly the sums iteration `k`'s error check
//! adds up, so [`sinkhorn_knopp_cancel_into`] forms them once: one CSC
//! sweep writes the column sums and reduces the check of the factors it
//! read, and only then does the next iteration commit `dc[j] = 1 / Σ`. The
//! first iteration divides by the identity's column sums, which are the
//! column degrees. `K` Sinkhorn–Knopp iterations therefore cost `2K`
//! sweeps (a row sweep and a column sweep each; the last column sweep is
//! the final check) where the textbook loop costs `3K`, and Ruiz likewise
//! drops from `3K` to `2K`.
//!
//! Every producer of a [`ScalingResult`] leaves its
//! [`row_sums`](ScalingResult::row_sums) and
//! [`col_sums`](ScalingResult::col_sums) **bit-equal** to fresh
//! adjacency-order sums of the final `dc` and `dr`. They are the totals the
//! samplers of `TwoSidedMatch` and `OneSidedMatch` draw against, which
//! therefore never re-sum an adjacency list.
//!
//! A cancelled call (a `*_cancel_into` entry point returning
//! [`Cancelled`](dsmatch_graph::Cancelled)) leaves a result that describes
//! exactly the iterations that completed — factors, sums, `iterations`,
//! `error` and `history` agree, and zero completed iterations leave the
//! identity scaling — so a deadline-bounded scaling can still be sampled
//! from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod ruiz;
mod sinkhorn;
mod symmetric;

pub use analysis::{second_singular_value, sk_convergence_rate};
pub use ruiz::{ruiz, ruiz_cancel_into, ruiz_into, ruiz_seq};
pub use sinkhorn::{
    max_col_sum_error, min_col_sum, sinkhorn_knopp, sinkhorn_knopp_cancel_into,
    sinkhorn_knopp_into, sinkhorn_knopp_seq, sinkhorn_knopp_weighted,
};
pub use symmetric::{symmetric_scaling, SymmetricScalingResult};

use dsmatch_graph::{BipartiteGraph, Csr};
use rayon::prelude::*;

/// Stopping rule for a scaling iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalingConfig {
    /// Hard cap on the number of iterations. The paper's experiments use
    /// 0, 1, 5, 10 and occasionally 15–20 iterations; convergence is *not*
    /// required for the quality guarantees (§3.3).
    pub max_iterations: usize,
    /// Early-exit tolerance on the scaling error; `0.0` disables early exit
    /// so exactly `max_iterations` iterations run.
    pub tolerance: f64,
}

impl ScalingConfig {
    /// Run exactly `n` iterations (the mode used by all paper experiments).
    pub fn iterations(n: usize) -> Self {
        Self { max_iterations: n, tolerance: 0.0 }
    }

    /// Run until the scaling error drops to `tol`, but at most `cap`
    /// iterations.
    pub fn until(tol: f64, cap: usize) -> Self {
        Self { max_iterations: cap, tolerance: tol }
    }
}

impl Default for ScalingConfig {
    /// Five iterations — the count §4.1.2 of the paper identifies as
    /// "sufficient to achieve the guaranteed qualities" on most instances.
    fn default() -> Self {
        Self::iterations(5)
    }
}

/// Output of a scaling run.
///
/// Invariant kept by every producer: `row_sums` and `col_sums` are
/// bit-equal to fresh adjacency-order sums of `dc` and `dr`. Editing `dr`
/// or `dc` afterwards breaks it; the samplers check it in debug builds.
#[derive(Clone, Debug)]
pub struct ScalingResult {
    /// Row scaling factors (diagonal of `D_R`).
    pub dr: Vec<f64>,
    /// Column scaling factors (diagonal of `D_C`).
    pub dc: Vec<f64>,
    /// `row_sums[i] = Σ_{j ∈ A_i*} dc[j]` in adjacency order: the last row
    /// sweep's sums (after a Sinkhorn–Knopp iteration `dr[i]` is their
    /// reciprocal) and the row sampler's totals.
    pub row_sums: Vec<f64>,
    /// `col_sums[j] = Σ_{i ∈ A_*j} dr[i]` in adjacency order: the sums the
    /// final error check added up, and the column sampler's totals.
    pub col_sums: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final scaling error `max_j |Σ_i s_ij − 1|`.
    pub error: f64,
    /// Scaling error after each iteration (length = `iterations`).
    pub history: Vec<f64>,
}

impl ScalingResult {
    /// The identity scaling (`dr = dc = 1`), used for the paper's
    /// "0 iterations" rows where sampling is uniform over adjacency lists.
    pub fn identity(g: &BipartiteGraph) -> Self {
        let mut out = Self::empty();
        out.reset_identity(g);
        out
    }

    /// An empty result with no allocation — the slot callers hand to the
    /// `*_into` entry points ([`sinkhorn_knopp_into`], [`ruiz_into`]) when
    /// building a reusable workspace.
    pub fn empty() -> Self {
        Self {
            dr: Vec::new(),
            dc: Vec::new(),
            row_sums: Vec::new(),
            col_sums: Vec::new(),
            iterations: 0,
            error: f64::INFINITY,
            history: Vec::new(),
        }
    }

    /// Reset this result to the identity scaling of `g` **in place**: the
    /// buffers are resized but keep their allocation once they have grown
    /// to the instance size, so batch workloads stop allocating per solve.
    /// The identity's sums are the degrees, so no adjacency list is read.
    pub fn reset_identity(&mut self, g: &BipartiteGraph) {
        self.dr.clear();
        self.dr.resize(g.nrows(), 1.0);
        self.dc.clear();
        self.dc.resize(g.ncols(), 1.0);
        degree_sums(g.csr(), &mut self.row_sums);
        degree_sums(g.csc(), &mut self.col_sums);
        self.history.clear();
        self.iterations = 0;
        // `dc = 1`: the check `|col_sums[j]·dc[j] − 1|` is `|col_sums[j] − 1|`.
        self.error = self.col_sums.par_iter().map(|&s| (s - 1.0).abs()).reduce(|| 0.0, f64::max);
    }

    /// Scaled entry `s_ij = dr[i] · dc[j]` (valid only where `a_ij = 1`).
    #[inline]
    pub fn entry(&self, i: usize, j: usize) -> f64 {
        self.dr[i] * self.dc[j]
    }

    /// Sum of scaled entries in row `i`.
    pub fn row_sum(&self, g: &BipartiteGraph, i: usize) -> f64 {
        let s: f64 = g.row_adj(i).iter().map(|&j| self.dc[j as usize]).sum();
        self.dr[i] * s
    }

    /// Sum of scaled entries in column `j`.
    pub fn col_sum(&self, g: &BipartiteGraph, j: usize) -> f64 {
        let s: f64 = g.col_adj(j).iter().map(|&i| self.dr[i as usize]).sum();
        self.dc[j] * s
    }
}

/// `Σ_{k ∈ adj} w[k]` in adjacency order — the order the samplers scan in.
#[inline]
fn adjacency_sum(adj: &[u32], w: &[f64]) -> f64 {
    adj.iter().map(|&k| w[k as usize]).sum()
}

/// The identity's sums `Σ_{k ∈ adj.row(v)} 1.0` from the degrees alone,
/// bit-equal to a sweep: a sum of `d ≥ 1` ones is `d` exactly, and an empty
/// list gets the empty sum (whose sign of zero `Sum` fixes).
fn degree_sums(adj: &Csr, sums: &mut Vec<f64>) {
    let empty: f64 = std::iter::empty::<f64>().sum();
    sums.resize(adj.nrows(), 0.0);
    sums.par_iter_mut().enumerate().for_each(|(v, s)| {
        let d = adj.row_degree(v);
        *s = if d == 0 { empty } else { d as f64 };
    });
}

/// One sweep over one side: `sums[v] ← Σ_{k ∈ adj.row(v)} w[k]`.
fn sum_sweep(adj: &Csr, w: &[f64], sums: &mut Vec<f64>) {
    // Every slot is overwritten, so resizing alone suffices.
    sums.resize(adj.nrows(), 0.0);
    sums.par_iter_mut().enumerate().for_each(|(v, s)| *s = adjacency_sum(adj.row(v), w));
}

/// One CSC sweep: `col_sums[j] ← Σ_{i ∈ A_*j} dr[i]`, returning the scaling
/// error `max_j |col_sums[j]·dc[j] − 1|` of the factors it read.
fn check_sweep(g: &BipartiteGraph, dr: &[f64], dc: &[f64], col_sums: &mut Vec<f64>) -> f64 {
    col_sums.resize(g.ncols(), 0.0);
    col_sums
        .par_iter_mut()
        .enumerate()
        .map(|(j, s)| {
            *s = adjacency_sum(g.col_adj(j), dr);
            (*s * dc[j] - 1.0).abs()
        })
        .reduce(|| 0.0, f64::max)
}

/// Assertions the kernel tests share.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The sums invariant: `row_sums`/`col_sums` bit-equal to fresh
    /// adjacency-order sums of the result's own `dc`/`dr`.
    pub fn assert_sums_fresh(g: &BipartiteGraph, s: &ScalingResult, context: &str) {
        let rows: Vec<f64> =
            (0..g.nrows()).map(|i| g.row_adj(i).iter().map(|&j| s.dc[j as usize]).sum()).collect();
        let cols: Vec<f64> =
            (0..g.ncols()).map(|j| g.col_adj(j).iter().map(|&i| s.dr[i as usize]).sum()).collect();
        assert_eq!(bits(&s.row_sums), bits(&rows), "{context}: row_sums are stale");
        assert_eq!(bits(&s.col_sums), bits(&cols), "{context}: col_sums are stale");
    }

    /// Every field of `s` equals the identity scaling of `g` — what a call
    /// that completed no iteration must leave behind.
    pub fn assert_identity(g: &BipartiteGraph, s: &ScalingResult, context: &str) {
        let id = ScalingResult::identity(g);
        assert_eq!(s.iterations, 0, "{context}: iterations");
        assert_eq!(s.error.to_bits(), id.error.to_bits(), "{context}: error");
        assert!(s.history.is_empty(), "{context}: history {:?}", s.history);
        assert_eq!(s.dr, id.dr, "{context}: dr");
        assert_eq!(s.dc, id.dc, "{context}: dc");
        assert_sums_fresh(g, s, context);
    }

    /// `a` and `b` agree bit for bit in every field.
    pub fn assert_same(a: &ScalingResult, b: &ScalingResult, context: &str) {
        assert_eq!(bits(&a.dr), bits(&b.dr), "{context}: dr");
        assert_eq!(bits(&a.dc), bits(&b.dc), "{context}: dc");
        assert_eq!(bits(&a.row_sums), bits(&b.row_sums), "{context}: row_sums");
        assert_eq!(bits(&a.col_sums), bits(&b.col_sums), "{context}: col_sums");
        assert_eq!(a.iterations, b.iterations, "{context}: iterations");
        assert_eq!(a.error.to_bits(), b.error.to_bits(), "{context}: error");
        assert_eq!(bits(&a.history), bits(&b.history), "{context}: history");
    }
}

#[cfg(test)]
mod tests {
    use super::testing::assert_sums_fresh;
    use super::*;
    use dsmatch_graph::{CancelToken, Csr};

    #[test]
    fn config_constructors() {
        let c = ScalingConfig::iterations(7);
        assert_eq!(c.max_iterations, 7);
        assert_eq!(c.tolerance, 0.0);
        let c = ScalingConfig::until(1e-4, 100);
        assert_eq!(c.max_iterations, 100);
        assert_eq!(c.tolerance, 1e-4);
        assert_eq!(ScalingConfig::default().max_iterations, 5);
    }

    #[test]
    fn identity_result_entries() {
        let g = BipartiteGraph::from_csr(Csr::from_dense(&[&[1, 1], &[1, 1]]));
        let r = ScalingResult::identity(&g);
        assert_eq!(r.entry(0, 1), 1.0);
        assert_eq!(r.row_sum(&g, 0), 2.0);
        assert_eq!(r.col_sum(&g, 1), 2.0);
        // Error of the unscaled all-ones 2×2: |2 − 1| = 1.
        assert_eq!(r.error, 1.0);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.row_sums, vec![2.0, 2.0]);
        assert_eq!(r.col_sums, vec![2.0, 2.0]);
    }

    /// Every producer of a `ScalingResult` leaves `row_sums`/`col_sums`
    /// bit-equal to fresh sums of its factors: at zero iterations, after a
    /// run, at a tolerance stop, after a cancelled call, and in one slot
    /// reused across a larger graph and then a smaller one.
    #[test]
    fn every_producer_keeps_sums_fresh() {
        // `er` has empty rows and columns; `mesh` has total support, so a
        // tolerance stops it early.
        let graphs = [
            ("er", dsmatch_gen::erdos_renyi_square(3_000, 1.5, 5)),
            ("mesh", dsmatch_gen::grid_mesh(40, 50)),
            ("small", dsmatch_gen::erdos_renyi_rect(300, 200, 3.0, 6)),
        ];
        let configs = [
            ScalingConfig::iterations(0),
            ScalingConfig::iterations(1),
            ScalingConfig::iterations(6),
            ScalingConfig::until(1e-3, 40),
        ];
        let dead = CancelToken::unbounded();
        dead.cancel();
        let mut slot = ScalingResult::empty();
        for (name, g) in &graphs {
            assert_sums_fresh(g, &ScalingResult::identity(g), &format!("{name}: identity"));
            slot.reset_identity(g);
            assert_sums_fresh(g, &slot, &format!("{name}: reset_identity"));
            for cfg in &configs {
                let ctx = |kernel: &str| format!("{name}: {kernel} {cfg:?}");
                assert_sums_fresh(g, &sinkhorn_knopp(g, cfg), &ctx("sinkhorn_knopp"));
                assert_sums_fresh(g, &sinkhorn_knopp_seq(g, cfg), &ctx("sinkhorn_knopp_seq"));
                let vals: Vec<f64> = (0..g.nnz()).map(|k| 1.0 + (k % 7) as f64).collect();
                let weighted = sinkhorn_knopp_weighted(g, &vals, cfg);
                assert_sums_fresh(g, &weighted, &ctx("sinkhorn_knopp_weighted"));
                assert_sums_fresh(g, &ruiz(g, cfg), &ctx("ruiz"));
                assert_sums_fresh(g, &ruiz_seq(g, cfg), &ctx("ruiz_seq"));
                // One slot across every graph, larger first then smaller.
                sinkhorn_knopp_into(g, cfg, &mut slot);
                assert_sums_fresh(g, &slot, &ctx("sinkhorn_knopp_into"));
                // The token is polled only before an iteration commits.
                let polls = cfg.max_iterations > 0;
                assert_eq!(sinkhorn_knopp_cancel_into(g, cfg, &mut slot, &dead).is_err(), polls);
                assert_sums_fresh(g, &slot, &ctx("cancelled sinkhorn_knopp_cancel_into"));
                ruiz_into(g, cfg, &mut slot);
                assert_sums_fresh(g, &slot, &ctx("ruiz_into"));
                assert_eq!(ruiz_cancel_into(g, cfg, &mut slot, &dead).is_err(), polls);
                assert_sums_fresh(g, &slot, &ctx("cancelled ruiz_cancel_into"));
            }
        }
        // The tolerance case really stopped early on the mesh.
        let mesh = &graphs[1].1;
        assert!(sinkhorn_knopp(mesh, &configs[3]).iterations < 40);
        assert!(ruiz(mesh, &configs[3]).iterations < 40);
    }
}
