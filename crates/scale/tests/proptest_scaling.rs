//! Property tests for the scaling crate.

use dsmatch_graph::{BipartiteGraph, CancelToken, TripletMatrix, UndirectedGraph};
use dsmatch_scale::{
    ruiz, ruiz_cancel_into, ruiz_into, ruiz_seq, sinkhorn_knopp, sinkhorn_knopp_cancel_into,
    sinkhorn_knopp_into, sinkhorn_knopp_seq, sinkhorn_knopp_weighted, symmetric_scaling,
    ScalingConfig, ScalingResult,
};
use proptest::prelude::*;

/// `s.row_sums`/`s.col_sums` bit-equal to fresh adjacency-order sums of
/// `s.dc`/`s.dr` — the invariant the samplers rely on.
fn sums_are_fresh(g: &BipartiteGraph, s: &ScalingResult) -> bool {
    let rows = (0..g.nrows())
        .map(|i| g.row_adj(i).iter().map(|&j| s.dc[j as usize]).sum::<f64>().to_bits());
    let cols = (0..g.ncols())
        .map(|j| g.col_adj(j).iter().map(|&i| s.dr[i as usize]).sum::<f64>().to_bits());
    s.row_sums.iter().map(|x| x.to_bits()).eq(rows)
        && s.col_sums.iter().map(|x| x.to_bits()).eq(cols)
}

fn arb_graph() -> impl Strategy<Value = BipartiteGraph> {
    (1usize..10, 1usize..10).prop_flat_map(|(m, n)| {
        proptest::collection::vec((0..m, 0..n), 0..40).prop_map(move |entries| {
            let mut t = TripletMatrix::new(m, n);
            for (i, j) in entries {
                t.push(i, j);
            }
            BipartiteGraph::from_csr(t.into_csr())
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn sk_row_sums_one_and_factors_positive(g in arb_graph(), iters in 1usize..8) {
        let r = sinkhorn_knopp(&g, &ScalingConfig::iterations(iters));
        prop_assert_eq!(r.iterations, iters);
        prop_assert_eq!(r.history.len(), iters);
        for i in 0..g.nrows() {
            if g.row_degree(i) > 0 {
                prop_assert!((r.row_sum(&g, i) - 1.0).abs() < 1e-9);
            }
        }
        prop_assert!(r.dr.iter().all(|d| d.is_finite() && *d > 0.0));
        prop_assert!(r.dc.iter().all(|d| d.is_finite() && *d > 0.0));
        prop_assert!(r.error.is_finite());
    }

    #[test]
    fn sk_seq_equals_par(g in arb_graph(), iters in 0usize..6) {
        let a = sinkhorn_knopp(&g, &ScalingConfig::iterations(iters));
        let b = sinkhorn_knopp_seq(&g, &ScalingConfig::iterations(iters));
        prop_assert_eq!(a.dr, b.dr);
        prop_assert_eq!(a.dc, b.dc);
        prop_assert_eq!(a.error.to_bits(), b.error.to_bits());
        prop_assert_eq!(a.history, b.history);
    }

    /// Every `ScalingResult` producer keeps the sums fresh — at zero
    /// iterations, at the cap, at a tolerance stop and after a cancelled
    /// call — including one slot reused across two graphs of any shapes.
    #[test]
    fn every_producer_keeps_sums_fresh(
        g in arb_graph(),
        h in arb_graph(),
        iters in 0usize..6,
        tol in 0usize..3,
    ) {
        let cfg = ScalingConfig::until([0.0, 1e-3, 0.5][tol], iters);
        let vals: Vec<f64> = (0..g.nnz()).map(|k| 0.5 + (k % 3) as f64).collect();
        prop_assert!(sums_are_fresh(&g, &ScalingResult::identity(&g)));
        prop_assert!(sums_are_fresh(&g, &sinkhorn_knopp(&g, &cfg)));
        prop_assert!(sums_are_fresh(&g, &sinkhorn_knopp_seq(&g, &cfg)));
        prop_assert!(sums_are_fresh(&g, &sinkhorn_knopp_weighted(&g, &vals, &cfg)));
        prop_assert!(sums_are_fresh(&g, &ruiz(&g, &cfg)));
        prop_assert!(sums_are_fresh(&g, &ruiz_seq(&g, &cfg)));
        let dead = CancelToken::unbounded();
        dead.cancel();
        let mut slot = ScalingResult::empty();
        for graph in [&g, &h] {
            slot.reset_identity(graph);
            prop_assert!(sums_are_fresh(graph, &slot));
            sinkhorn_knopp_into(graph, &cfg, &mut slot);
            prop_assert!(sums_are_fresh(graph, &slot));
            let _ = sinkhorn_knopp_cancel_into(graph, &cfg, &mut slot, &dead);
            prop_assert!(sums_are_fresh(graph, &slot));
            ruiz_into(graph, &cfg, &mut slot);
            prop_assert!(sums_are_fresh(graph, &slot));
            let _ = ruiz_cancel_into(graph, &cfg, &mut slot, &dead);
            prop_assert!(sums_are_fresh(graph, &slot));
        }
    }

    #[test]
    fn weighted_with_unit_values_equals_pattern(g in arb_graph(), iters in 1usize..5) {
        let vals = vec![1.0; g.nnz()];
        let a = sinkhorn_knopp(&g, &ScalingConfig::iterations(iters));
        let b = sinkhorn_knopp_weighted(&g, &vals, &ScalingConfig::iterations(iters));
        for (x, y) in a.dr.iter().zip(&b.dr) {
            prop_assert!((x - y).abs() <= 1e-12 * x.abs().max(1.0));
        }
        for (x, y) in a.dc.iter().zip(&b.dc) {
            prop_assert!((x - y).abs() <= 1e-12 * x.abs().max(1.0));
        }
    }

    #[test]
    fn ruiz_factors_stay_finite_and_positive(g in arb_graph()) {
        // On sprank-deficient patterns Ruiz's column-sum error need not
        // decrease monotonically (the doubly stochastic limit does not
        // exist), so the universal property is only well-posedness.
        let many = ruiz(&g, &ScalingConfig::iterations(30));
        prop_assert!(many.dr.iter().all(|d| d.is_finite() && *d > 0.0));
        prop_assert!(many.dc.iter().all(|d| d.is_finite() && *d > 0.0));
        prop_assert!(many.error.is_finite());
        prop_assert_eq!(many.iterations, 30);
    }

    #[test]
    fn ruiz_converges_on_regular_square_patterns(k in 2usize..20) {
        // Ring patterns (2-regular, total support): Ruiz must converge.
        let n = 2 * k;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i);
            t.push(i, (i + 1) % n);
        }
        let g = BipartiteGraph::from_csr(t.into_csr());
        let r = ruiz(&g, &ScalingConfig::until(1e-9, 500));
        prop_assert!(r.error <= 1e-9);
        for i in 0..n {
            prop_assert!((r.row_sum(&g, i) - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn symmetric_scaling_row_sums_converge_on_regular_patterns(k in 2usize..30) {
        // Cycle graphs are 2-regular: must converge to 1/2 per edge.
        let n = 2 * k;
        let edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = UndirectedGraph::from_edges(n, &edges);
        let r = symmetric_scaling(&g, &ScalingConfig::until(1e-10, 200));
        prop_assert!(r.error <= 1e-10);
        prop_assert!((r.entry(0, 1) - 0.5).abs() < 1e-8);
    }
}
