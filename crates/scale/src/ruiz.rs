//! Ruiz equilibration (1-norm variant).
//!
//! The paper's §2.2 reviews Ruiz's algorithm as the alternative to
//! Sinkhorn–Knopp: instead of alternating exact column/row normalization,
//! each iteration scales **both** sides simultaneously by the inverse square
//! roots of the current row and column sums, converging to the same doubly
//! stochastic limit but — per Knight, Ruiz & Uçar — more slowly on
//! unsymmetric matrices. We implement it so the ablation benchmark can
//! reproduce that comparison (`ablation_bench`, and the quality impact in
//! EXPERIMENTS.md).

use dsmatch_graph::{BipartiteGraph, CancelToken, Cancelled};
use rayon::prelude::*;

use crate::sinkhorn::{fresh_sums, max_col_sum_error};
use crate::{check_sweep, sum_sweep, ScalingConfig, ScalingResult};

/// Parallel Ruiz equilibration in the 1-norm.
///
/// One iteration:
/// ```text
/// r_i = Σ_j s_ij,  c_j = Σ_i s_ij          (current scaled sums)
/// dr[i] ← dr[i] / √r_i,  dc[j] ← dc[j] / √c_j
/// ```
///
/// `r_i = dr[i]·row_sums[i]` and `c_j = dc[j]·col_sums[j]`, and the previous
/// iteration's row sweep and error check already formed those sums (the
/// first iteration's are the degrees), so an iteration costs one sweep per
/// side: `2K` sweeps for `K` iterations.
pub fn ruiz(g: &BipartiteGraph, cfg: &ScalingConfig) -> ScalingResult {
    let mut out = ScalingResult::empty();
    ruiz_into(g, cfg, &mut out);
    out
}

/// Buffer-reuse variant of [`ruiz`]: identical arithmetic, the factor and
/// history vectors of `out` are reset and refilled in place (see
/// [`crate::sinkhorn_knopp_into`] for the allocation contract).
pub fn ruiz_into(g: &BipartiteGraph, cfg: &ScalingConfig, out: &mut ScalingResult) {
    ruiz_cancel_into(g, cfg, out, &CancelToken::unbounded()).expect("unbounded token never cancels")
}

/// [`ruiz_into`] with cooperative cancellation: the token is polled before
/// each iteration commits anything, i.e. after the previous iteration's
/// check sweep. On [`Cancelled`] — as on every return — `out` describes
/// exactly the iterations that completed (the identity scaling when none
/// did), and the buffers stay reusable.
pub fn ruiz_cancel_into(
    g: &BipartiteGraph,
    cfg: &ScalingConfig,
    out: &mut ScalingResult,
    token: &CancelToken,
) -> Result<(), Cancelled> {
    out.reset_identity(g);
    let mut polled = Ok(());
    while out.iterations < cfg.max_iterations {
        polled = token.check();
        if polled.is_err() {
            break;
        }
        out.dr.par_iter_mut().zip(out.row_sums.par_iter()).for_each(|(d, &s)| {
            let r = s * *d;
            if r > 0.0 {
                *d /= r.sqrt();
            }
        });
        out.dc.par_iter_mut().zip(out.col_sums.par_iter()).for_each(|(d, &s)| {
            let c = s * *d;
            if c > 0.0 {
                *d /= c.sqrt();
            }
        });
        sum_sweep(g.csr(), &out.dc, &mut out.row_sums);
        out.error = check_sweep(g, &out.dr, &out.dc, &mut out.col_sums);
        out.history.push(out.error);
        out.iterations += 1;
        if cfg.tolerance > 0.0 && out.error <= cfg.tolerance {
            break;
        }
    }
    polled
}

/// Sequential Ruiz — identical arithmetic to [`ruiz`].
pub fn ruiz_seq(g: &BipartiteGraph, cfg: &ScalingConfig) -> ScalingResult {
    let mut dr = vec![1.0f64; g.nrows()];
    let mut dc = vec![1.0f64; g.ncols()];
    let mut history = Vec::with_capacity(cfg.max_iterations);
    let mut error = f64::INFINITY;
    let mut done = 0usize;
    for _ in 0..cfg.max_iterations {
        let rsums: Vec<f64> = (0..g.nrows())
            .map(|i| dr[i] * g.row_adj(i).iter().map(|&j| dc[j as usize]).sum::<f64>())
            .collect();
        let csums: Vec<f64> = (0..g.ncols())
            .map(|j| dc[j] * g.col_adj(j).iter().map(|&i| dr[i as usize]).sum::<f64>())
            .collect();
        for (d, &r) in dr.iter_mut().zip(&rsums) {
            if r > 0.0 {
                *d /= r.sqrt();
            }
        }
        for (d, &c) in dc.iter_mut().zip(&csums) {
            if c > 0.0 {
                *d /= c.sqrt();
            }
        }
        done += 1;
        error = (0..g.ncols())
            .map(|j| {
                let s: f64 = g.col_adj(j).iter().map(|&i| dr[i as usize]).sum();
                (s * dc[j] - 1.0).abs()
            })
            .fold(0.0, f64::max);
        history.push(error);
        if cfg.tolerance > 0.0 && error <= cfg.tolerance {
            break;
        }
    }
    if done == 0 {
        error = max_col_sum_error(g, &dr, &dc);
    }
    let (row_sums, col_sums) = fresh_sums(g, &dr, &dc);
    ScalingResult { dr, dc, row_sums, col_sums, iterations: done, error, history }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmatch_graph::Csr;

    fn graph(rows: &[&[u8]]) -> BipartiteGraph {
        BipartiteGraph::from_csr(Csr::from_dense(rows))
    }

    #[test]
    fn symmetric_all_ones_converges_fast() {
        let g = graph(&[&[1, 1], &[1, 1]]);
        let r = ruiz(&g, &ScalingConfig::until(1e-10, 200));
        assert!(r.error <= 1e-10);
        assert!((r.entry(0, 0) - 0.5).abs() < 1e-8);
    }

    #[test]
    fn converges_to_doubly_stochastic() {
        let g = graph(&[&[1, 1, 0], &[1, 1, 1], &[0, 1, 1]]);
        let r = ruiz(&g, &ScalingConfig::until(1e-9, 2000));
        assert!(r.error <= 1e-9, "error = {}", r.error);
        for i in 0..3 {
            assert!((r.row_sum(&g, i) - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn seq_and_par_agree() {
        let g = graph(&[&[1, 0, 1, 1], &[1, 1, 0, 0], &[0, 1, 1, 0], &[1, 0, 0, 1]]);
        let a = ruiz(&g, &ScalingConfig::iterations(10));
        let b = ruiz_seq(&g, &ScalingConfig::iterations(10));
        for (x, y) in a.dr.iter().zip(&b.dr) {
            assert!((x - y).abs() < 1e-14);
        }
        assert_eq!(a.iterations, b.iterations);
        // The fused kernel against the textbook loop, bit for bit in every
        // field, with empty rows and columns and at a tolerance stop.
        for g in [dsmatch_gen::erdos_renyi_square(2_000, 1.5, 9), dsmatch_gen::grid_mesh(30, 40)] {
            for cfg in [
                ScalingConfig::iterations(0),
                ScalingConfig::iterations(1),
                ScalingConfig::iterations(7),
                ScalingConfig::until(1e-4, 60),
            ] {
                let (fused, textbook) = (ruiz(&g, &cfg), ruiz_seq(&g, &cfg));
                crate::testing::assert_same(&fused, &textbook, &format!("{cfg:?}"));
            }
        }
    }

    #[test]
    fn slower_than_sinkhorn_on_unsymmetric_pattern() {
        // Knight–Ruiz–Uçar observation the paper cites: for unsymmetric
        // matrices SK converges faster. Compare errors after equal
        // iteration counts.
        let g = graph(&[
            &[1, 1, 1, 1, 1],
            &[1, 1, 0, 0, 0],
            &[0, 1, 1, 0, 0],
            &[0, 0, 1, 1, 0],
            &[0, 0, 0, 1, 1],
        ]);
        let sk = crate::sinkhorn_knopp(&g, &ScalingConfig::iterations(12));
        let rz = ruiz(&g, &ScalingConfig::iterations(12));
        assert!(
            sk.error <= rz.error + 1e-12,
            "SK error {} should not exceed Ruiz error {}",
            sk.error,
            rz.error
        );
    }

    #[test]
    fn handles_empty_vectors_gracefully() {
        let g = graph(&[&[0, 0], &[1, 0]]);
        let r = ruiz(&g, &ScalingConfig::iterations(3));
        assert!(r.dr.iter().all(|d| d.is_finite()));
        assert!(r.dc.iter().all(|d| d.is_finite()));
    }

    #[test]
    fn cancel_refuses_dead_token_and_slot_stays_reusable() {
        use crate::testing::{assert_identity, assert_same};
        let g = dsmatch_gen::erdos_renyi_square(1000, 4.0, 3);
        let cfg = ScalingConfig::iterations(5);
        let dead = CancelToken::unbounded();
        dead.cancel();
        let mut out = ScalingResult::empty();
        // A live run first, so a stale field would show.
        ruiz_into(&g, &cfg, &mut out);
        assert!(ruiz_cancel_into(&g, &cfg, &mut out, &dead).is_err());
        // No iteration completed: every field describes the identity.
        assert_identity(&g, &out, "cancelled before the first iteration");
        ruiz_cancel_into(&g, &cfg, &mut out, &CancelToken::unbounded()).expect("live token");
        assert_same(&out, &ruiz(&g, &cfg), "reused slot");
    }
}
