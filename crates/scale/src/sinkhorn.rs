//! Sinkhorn–Knopp scaling — the paper's Algorithm 1 (`ScaleSK`).
//!
//! One iteration, exactly as in the paper:
//!
//! ```text
//! for j = 1..n in parallel:  dc[j] ← 1 / Σ_{i ∈ A_*j} dr[i]·a_ij
//! for i = 1..n in parallel:  dr[i] ← 1 / Σ_{j ∈ A_i*} a_ij·dc[j]
//! ```
//!
//! After the row pass every row sum of `S = D_R A D_C` is exactly one
//! (modulo round-off), so the convergence measure is the maximum deviation
//! of the *column* sums from one.
//!
//! The column pass of iteration `k + 1` divides by the very sums iteration
//! `k`'s check adds up, so the parallel kernel fuses them: one CSC sweep
//! stores `Σ_{i ∈ A_*j} dr[i]` and reduces the check, and an O(n) pass then
//! commits `dc[j]` from the stored sums (the first iteration's sums are the
//! column degrees) — `2K` sweeps for `K` iterations instead of `3K`.
//!
//! Vertices with zero degree (possible in sprank-deficient inputs) keep
//! their scaling factor — their value never influences any sampled entry.

use dsmatch_graph::{BipartiteGraph, CancelToken, Cancelled};
use rayon::prelude::*;

use crate::{adjacency_sum, check_sweep, sum_sweep, ScalingConfig, ScalingResult};

/// Minimum column sum of the scaled matrix over non-empty columns — the
/// `α` of the paper's §3.3 relaxation: if every column sum is ≥ α after a
/// few iterations, `OneSidedMatch` still guarantees `n(1 − 1/e^α)`.
pub fn min_col_sum(g: &BipartiteGraph, s: &crate::ScalingResult) -> f64 {
    // An empty column maps to `+∞`, the identity of the reduce, so it
    // drops out of the minimum without changing its bits.
    (0..g.ncols())
        .into_par_iter()
        .map(|j| if g.col_degree(j) > 0 { s.col_sum(g, j) } else { f64::INFINITY })
        .reduce(|| f64::INFINITY, f64::min)
}

/// Scaling error: `max_j |Σ_{i ∈ A_*j} dr[i]·dc[j] − 1|`, the quantity the
/// paper reports as "Err." in Table 1 and "Scaling error" in Table 3.
pub fn max_col_sum_error(g: &BipartiteGraph, dr: &[f64], dc: &[f64]) -> f64 {
    (0..g.ncols())
        .into_par_iter()
        .map(|j| {
            let s: f64 = g.col_adj(j).iter().map(|&i| dr[i as usize]).sum();
            (s * dc[j] - 1.0).abs()
        })
        .reduce(|| 0.0, f64::max)
}

/// Parallel Sinkhorn–Knopp (paper Algorithm 1). Runs in the current Rayon
/// thread pool; install a sized pool to control thread count as the paper's
/// experiments do.
///
/// ```
/// use dsmatch_graph::{BipartiteGraph, Csr};
/// use dsmatch_scale::{sinkhorn_knopp, ScalingConfig};
///
/// let g = BipartiteGraph::from_csr(Csr::from_dense(&[&[1, 1], &[1, 1]]));
/// let s = sinkhorn_knopp(&g, &ScalingConfig::iterations(1));
/// // The all-ones 2×2 becomes uniform 1/2 after one iteration.
/// assert!((s.entry(0, 1) - 0.5).abs() < 1e-12);
/// assert!(s.error < 1e-12);
/// ```
pub fn sinkhorn_knopp(g: &BipartiteGraph, cfg: &ScalingConfig) -> ScalingResult {
    let mut out = ScalingResult::empty();
    sinkhorn_knopp_into(g, cfg, &mut out);
    out
}

/// Buffer-reuse variant of [`sinkhorn_knopp`]: identical arithmetic, but
/// the vectors of `out` are reset and refilled in place. After the first
/// solve on a given shape the buffers stop growing, so repeated solves on
/// same-shaped instances perform no scaling allocation.
pub fn sinkhorn_knopp_into(g: &BipartiteGraph, cfg: &ScalingConfig, out: &mut ScalingResult) {
    sinkhorn_knopp_cancel_into(g, cfg, out, &CancelToken::unbounded())
        .expect("unbounded token never cancels")
}

/// [`sinkhorn_knopp_into`] with cooperative cancellation: the token is
/// polled before each iteration commits anything, i.e. after the previous
/// iteration's check sweep. On [`Cancelled`] — as on every return — `out`
/// describes exactly the iterations that completed (the identity scaling
/// when none did): the factors, the sums, `iterations`, `error` and
/// `history` agree, and the buffers stay reusable.
pub fn sinkhorn_knopp_cancel_into(
    g: &BipartiteGraph,
    cfg: &ScalingConfig,
    out: &mut ScalingResult,
    token: &CancelToken,
) -> Result<(), Cancelled> {
    // The identity's `col_sums` are the sums the first iteration divides by.
    out.reset_identity(g);
    let mut polled = Ok(());
    while out.iterations < cfg.max_iterations {
        polled = token.check();
        if polled.is_err() {
            break;
        }
        out.dc.par_iter_mut().zip(out.col_sums.par_iter()).for_each(|(dcj, &csum)| {
            if csum > 0.0 {
                *dcj = 1.0 / csum;
            }
        });
        let dc = &out.dc;
        out.dr.par_iter_mut().zip(out.row_sums.par_iter_mut()).enumerate().for_each(
            |(i, (dri, rsum))| {
                *rsum = adjacency_sum(g.row_adj(i), dc);
                if *rsum > 0.0 {
                    *dri = 1.0 / *rsum;
                }
            },
        );
        out.error = check_sweep(g, &out.dr, &out.dc, &mut out.col_sums);
        out.history.push(out.error);
        out.iterations += 1;
        if cfg.tolerance > 0.0 && out.error <= cfg.tolerance {
            break;
        }
    }
    polled
}

/// Sequential Sinkhorn–Knopp — the textbook unfused loop (column pass, row
/// pass, error check), identical arithmetic to [`sinkhorn_knopp`]: the
/// parallel passes are order-independent per vertex, so both versions
/// produce bitwise-identical factors, sums, errors and histories; tests
/// rely on this.
pub fn sinkhorn_knopp_seq(g: &BipartiteGraph, cfg: &ScalingConfig) -> ScalingResult {
    let mut dr = vec![1.0f64; g.nrows()];
    let mut dc = vec![1.0f64; g.ncols()];
    let mut history = Vec::with_capacity(cfg.max_iterations);
    let mut error = f64::INFINITY;
    let mut done = 0usize;
    for _ in 0..cfg.max_iterations {
        for j in 0..g.ncols() {
            let csum: f64 = g.col_adj(j).iter().map(|&i| dr[i as usize]).sum();
            if csum > 0.0 {
                dc[j] = 1.0 / csum;
            }
        }
        for i in 0..g.nrows() {
            let rsum: f64 = g.row_adj(i).iter().map(|&j| dc[j as usize]).sum();
            if rsum > 0.0 {
                dr[i] = 1.0 / rsum;
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

/// Sequentially computed `(row_sums, col_sums)` of the factors `dr`, `dc`.
pub(crate) fn fresh_sums(g: &BipartiteGraph, dr: &[f64], dc: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let row_sums = (0..g.nrows()).map(|i| adjacency_sum(g.row_adj(i), dc)).collect();
    let col_sums = (0..g.ncols()).map(|j| adjacency_sum(g.col_adj(j), dr)).collect();
    (row_sums, col_sums)
}

/// Weighted Sinkhorn–Knopp for a general non-negative value array.
///
/// `vals` holds one value per stored entry of `g.csr()`, in row-major entry
/// order. This extends the paper's (0,1) setting to arbitrary non-negative
/// matrices with total support (e.g. for weighted-matching experiments).
/// The result's `row_sums`/`col_sums` are the *pattern* sums of the final
/// factors — the totals the (0,1) samplers draw against — which cost one
/// extra sweep per side.
pub fn sinkhorn_knopp_weighted(
    g: &BipartiteGraph,
    vals: &[f64],
    cfg: &ScalingConfig,
) -> ScalingResult {
    assert_eq!(vals.len(), g.nnz(), "one value per stored entry required");
    assert!(vals.iter().all(|&v| v >= 0.0), "values must be non-negative");

    // Build the column-major value permutation once (the transpose of the
    // value array), so the column pass can stream values contiguously.
    let csr = g.csr();
    let mut cursor: Vec<usize> = g.csc().row_ptr().to_vec();
    let mut vals_csc = vec![0.0f64; vals.len()];
    let mut rows_csc = vec![0u32; vals.len()];
    for i in 0..g.nrows() {
        let start = csr.row_ptr()[i];
        for (k, &j) in csr.row(i).iter().enumerate() {
            let slot = &mut cursor[j as usize];
            vals_csc[*slot] = vals[start + k];
            rows_csc[*slot] = i as u32;
            *slot += 1;
        }
    }
    let csc_ptr = g.csc().row_ptr();

    let mut dr = vec![1.0f64; g.nrows()];
    let mut dc = vec![1.0f64; g.ncols()];
    let mut history = Vec::with_capacity(cfg.max_iterations);
    let mut error = f64::INFINITY;
    let mut done = 0usize;

    let col_error = |dr: &[f64], dc: &[f64]| -> f64 {
        (0..g.ncols())
            .into_par_iter()
            .map(|j| {
                let s: f64 = (csc_ptr[j]..csc_ptr[j + 1])
                    .map(|k| dr[rows_csc[k] as usize] * vals_csc[k])
                    .sum();
                (s * dc[j] - 1.0).abs()
            })
            .reduce(|| 0.0, f64::max)
    };

    for _ in 0..cfg.max_iterations {
        dc.par_iter_mut().enumerate().for_each(|(j, dcj)| {
            let csum: f64 =
                (csc_ptr[j]..csc_ptr[j + 1]).map(|k| dr[rows_csc[k] as usize] * vals_csc[k]).sum();
            if csum > 0.0 {
                *dcj = 1.0 / csum;
            }
        });
        dr.par_iter_mut().enumerate().for_each(|(i, dri)| {
            let start = csr.row_ptr()[i];
            let rsum: f64 =
                csr.row(i).iter().enumerate().map(|(k, &j)| vals[start + k] * dc[j as usize]).sum();
            if rsum > 0.0 {
                *dri = 1.0 / rsum;
            }
        });
        done += 1;
        error = col_error(&dr, &dc);
        history.push(error);
        if cfg.tolerance > 0.0 && error <= cfg.tolerance {
            break;
        }
    }
    if done == 0 {
        error = col_error(&dr, &dc);
    }
    // The samplers read the pattern's sums: within a row the weight of
    // neighbour `j` is `dc[j]`, whatever the values.
    let mut out =
        ScalingResult { dr, dc, iterations: done, error, history, ..ScalingResult::empty() };
    sum_sweep(g.csr(), &out.dc, &mut out.row_sums);
    sum_sweep(g.csc(), &out.dr, &mut out.col_sums);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmatch_graph::Csr;

    fn graph(rows: &[&[u8]]) -> BipartiteGraph {
        BipartiteGraph::from_csr(Csr::from_dense(rows))
    }

    #[test]
    fn all_ones_scales_to_uniform_in_one_iteration() {
        let g = graph(&[&[1, 1, 1], &[1, 1, 1], &[1, 1, 1]]);
        let r = sinkhorn_knopp(&g, &ScalingConfig::iterations(1));
        for i in 0..3 {
            for j in 0..3 {
                assert!((r.entry(i, j) - 1.0 / 3.0).abs() < 1e-14);
            }
        }
        assert!(r.error < 1e-14);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn row_sums_are_one_after_any_iteration() {
        let g = graph(&[&[1, 1, 0], &[0, 1, 1], &[1, 0, 1]]);
        let r = sinkhorn_knopp(&g, &ScalingConfig::iterations(3));
        for i in 0..3 {
            assert!((r.row_sum(&g, i) - 1.0).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn converges_on_total_support_matrix() {
        // A symmetric doubly-stochastic-able pattern (cycle structure).
        let g = graph(&[&[1, 1, 0, 0], &[0, 1, 1, 0], &[0, 0, 1, 1], &[1, 0, 0, 1]]);
        let r = sinkhorn_knopp(&g, &ScalingConfig::until(1e-10, 500));
        assert!(r.error <= 1e-10, "error = {}", r.error);
        for j in 0..4 {
            assert!((r.col_sum(&g, j) - 1.0).abs() < 1e-9);
        }
        // This pattern is a circulant: the limit is uniform 1/2 per entry.
        assert!((r.entry(0, 0) - 0.5).abs() < 1e-8);
    }

    #[test]
    fn seq_and_par_agree_bitwise() {
        let g = graph(&[
            &[1, 1, 0, 1, 0],
            &[0, 1, 1, 0, 0],
            &[1, 0, 1, 1, 1],
            &[0, 1, 0, 1, 0],
            &[1, 0, 0, 0, 1],
        ]);
        let a = sinkhorn_knopp(&g, &ScalingConfig::iterations(8));
        let b = sinkhorn_knopp_seq(&g, &ScalingConfig::iterations(8));
        assert_eq!(a.dr, b.dr);
        assert_eq!(a.dc, b.dc);
        assert_eq!(a.error, b.error);
        // The fused kernel against the textbook loop in every field, with
        // empty rows and columns, at the iteration cap and at a tolerance
        // stop.
        for g in [dsmatch_gen::erdos_renyi_square(2_000, 1.5, 9), dsmatch_gen::grid_mesh(30, 40)] {
            for cfg in [
                ScalingConfig::iterations(0),
                ScalingConfig::iterations(1),
                ScalingConfig::iterations(7),
                ScalingConfig::until(1e-4, 60),
            ] {
                let context = format!("{cfg:?}");
                let (fused, textbook) = (sinkhorn_knopp(&g, &cfg), sinkhorn_knopp_seq(&g, &cfg));
                crate::testing::assert_same(&fused, &textbook, &context);
            }
        }
    }

    #[test]
    fn zero_iterations_reports_raw_error() {
        let g = graph(&[&[1, 1], &[1, 1]]);
        let r = sinkhorn_knopp(&g, &ScalingConfig::iterations(0));
        assert_eq!(r.iterations, 0);
        assert_eq!(r.error, 1.0); // column sums are 2
        assert!(r.history.is_empty());
        assert_eq!(r.dr, vec![1.0, 1.0]);
    }

    #[test]
    fn tolerance_early_exit() {
        let g = graph(&[&[1, 1], &[1, 1]]);
        // Uniform matrix converges in one iteration; cap of 50 is not hit.
        let r = sinkhorn_knopp(&g, &ScalingConfig::until(1e-12, 50));
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn error_history_is_monotone_on_nice_matrices() {
        let g = graph(&[&[1, 1, 0], &[1, 1, 1], &[0, 1, 1]]);
        let r = sinkhorn_knopp(&g, &ScalingConfig::iterations(30));
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "history not decreasing: {:?}", r.history);
        }
    }

    #[test]
    fn empty_rows_and_cols_are_tolerated() {
        let g = graph(&[&[1, 0, 0], &[0, 0, 1], &[0, 0, 0]]);
        let r = sinkhorn_knopp(&g, &ScalingConfig::iterations(4));
        assert!(r.dr.iter().all(|d| d.is_finite()));
        assert!(r.dc.iter().all(|d| d.is_finite()));
    }

    #[test]
    fn min_col_sum_is_the_min_over_non_empty_columns_at_every_pool_size() {
        // An instance with empty rows and columns: the parallel reduce must
        // skip the empty columns and match a sequential min bit for bit.
        let g = dsmatch_gen::erdos_renyi_square(30_000, 1.5, 3);
        assert!((0..g.ncols()).any(|j| g.col_degree(j) == 0), "no empty column");
        assert!((0..g.nrows()).any(|i| g.row_degree(i) == 0), "no empty row");
        let cfg = ScalingConfig::iterations(5);
        for t in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(t).build().unwrap();
            let (par, seq) = pool.install(|| {
                let s = sinkhorn_knopp(&g, &cfg);
                let seq = (0..g.ncols())
                    .filter(|&j| g.col_degree(j) > 0)
                    .map(|j| s.col_sum(&g, j))
                    .fold(f64::INFINITY, f64::min);
                (min_col_sum(&g, &s), seq)
            });
            assert_eq!(par.to_bits(), seq.to_bits(), "pool {t}: {par} vs {seq}");
            // 0.24731007025826393, recorded before `min_col_sum` dropped its
            // parallel `filter`.
            assert_eq!(par.to_bits(), 0x3fcf_a7db_3bdd_87c5, "pool {t}: pinned value moved");
        }
    }

    #[test]
    fn weighted_matches_pattern_on_unit_values() {
        let g = graph(&[&[1, 1, 0], &[0, 1, 1], &[1, 0, 1]]);
        let vals = vec![1.0; g.nnz()];
        let a = sinkhorn_knopp(&g, &ScalingConfig::iterations(6));
        let b = sinkhorn_knopp_weighted(&g, &vals, &ScalingConfig::iterations(6));
        for (x, y) in a.dr.iter().zip(&b.dr) {
            assert!((x - y).abs() < 1e-13);
        }
        for (x, y) in a.dc.iter().zip(&b.dc) {
            assert!((x - y).abs() < 1e-13);
        }
    }

    #[test]
    fn weighted_doubly_stochastic_limit() {
        // 2×2 with distinct positive values still scales to doubly
        // stochastic (Sinkhorn's theorem for positive matrices).
        let g = graph(&[&[1, 1], &[1, 1]]);
        let vals = vec![1.0, 2.0, 3.0, 4.0];
        let r = sinkhorn_knopp_weighted(&g, &vals, &ScalingConfig::until(1e-12, 1000));
        assert!(r.error <= 1e-12);
        // Row sums: dr[i]·Σ_j v_ij·dc[j] == 1.
        let s00 = r.dr[0] * 1.0 * r.dc[0];
        let s01 = r.dr[0] * 2.0 * r.dc[1];
        assert!((s00 + s01 - 1.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "one value per stored entry")]
    fn weighted_checks_length() {
        let g = graph(&[&[1, 1], &[1, 1]]);
        let _ = sinkhorn_knopp_weighted(&g, &[1.0], &ScalingConfig::iterations(1));
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
        sinkhorn_knopp_into(&g, &cfg, &mut out);
        assert!(sinkhorn_knopp_cancel_into(&g, &cfg, &mut out, &dead).is_err());
        // No iteration completed: every field describes the identity.
        assert_identity(&g, &out, "cancelled before the first iteration");
        // The same slot then reproduces a fresh run exactly — cancellation
        // leaves the buffers reusable, not poisoned.
        sinkhorn_knopp_cancel_into(&g, &cfg, &mut out, &CancelToken::unbounded())
            .expect("live token");
        assert_same(&out, &sinkhorn_knopp(&g, &cfg), "reused slot");
    }
}
