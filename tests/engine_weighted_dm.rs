//! Grammar-v2 integration tests: the v1 spec-compatibility pin, the
//! weighted workloads' approximation guarantees, and the determinism of
//! `dm,<pipeline>` decomposition solves across workspace-pool sizes.

use dsmatch::engine::{Pipeline, Solver, Workspace};
use dsmatch::exact::sprank;
use dsmatch::graph::{BipartiteGraph, CancelToken, Cancelled, TripletMatrix, NIL};
use dsmatch::weighted::{
    brute_force_max_weight, greedy_weighted, matching_weight, suitor, WeightedGraph,
};

/// Every pipeline spec string the v1 grammar accepted, with the exact
/// canonical rendering `Pipeline::spec` produced for it. Grammar v2 must
/// parse all of them byte-identically — this is the API-compatibility
/// contract of the redesign, pinned input by input.
#[test]
fn v1_spec_strings_parse_byte_identically_under_v2() {
    let pinned: [(&str, &str); 15] = [
        ("two", "two"),
        ("hk", "hk"),
        ("scale:sk:5,two", "scale:sk:5,two"),
        ("scale:ruiz:10,one", "scale:ruiz:10,one"),
        ("scale:sk:5,two,pf", "scale:sk:5,two,pf"),
        ("scale:sk:0,ksmt,hk", "scale:sk:0,ksmt,hk"),
        ("cheap,bfs", "cheap,bfs"),
        ("scale:sk:5,two,pf-par", "scale:sk:5,two,pf-par"),
        ("scale:sk:5,two,hk-par", "scale:sk:5,two,hk-par"),
        ("scale:sk:5,two,pf-graft", "scale:sk:5,two,pf-graft"),
        ("scale:sk:5,two,auto", "scale:sk:5,two,auto"),
        ("pf-par", "pf-par"),
        ("auto", "auto"),
        // The v1 sugar forms canonicalize, exactly as they always did.
        ("scale,two", "scale:sk:5,two"),
        ("scale:8,two", "scale:sk:8,two"),
    ];
    for (input, canonical) in pinned {
        let p: Pipeline = input.parse().unwrap_or_else(|e| panic!("v1 spec {input:?}: {e}"));
        assert_eq!(p.spec(), canonical, "canonical form of v1 spec {input:?} changed");
        let again: Pipeline = p.spec().parse().unwrap();
        assert_eq!(again, p, "roundtrip of {input:?}");
    }
}

/// A deterministic pseudo-random weighted graph on `n + n` vertices with
/// distinct edge weights (splitmix-style stream), suitable for
/// `brute_force_max_weight` when `2n ≤ 16`.
fn random_weighted(n: usize, degree: usize, seed: u64) -> WeightedGraph {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut edges = Vec::new();
    for u in 0..n {
        for _ in 0..degree {
            let v = n + (next() as usize % n);
            // Distinct weights: a strictly increasing irrational-ish tail
            // keeps ties out so the local-dominance argument is exact.
            let w = 1.0 + (next() % 1_000_000) as f64 / 1_000_000.0 + edges.len() as f64 * 1e-9;
            edges.push((u, v, w));
        }
    }
    WeightedGraph::from_weighted_edges(2 * n, &edges)
}

/// Suitor's guarantee, checked against the exact optimum: on every small
/// instance, `w(suitor) ≥ w(greedy)` and `w(suitor) ≥ ½·w(optimal)` —
/// with distinct weights both heuristics find the unique locally-dominant
/// matching, so the first inequality is equality in disguise.
#[test]
fn suitor_is_half_approximate_and_no_worse_than_greedy() {
    for seed in 0..30u64 {
        let n = 3 + (seed as usize % 6); // 2n ≤ 16 for the brute force
        let g = random_weighted(n, 3, seed * 7 + 1);
        let opt = brute_force_max_weight(&g);
        let w_suitor = matching_weight(&g, &suitor(&g));
        let w_greedy = matching_weight(&g, &greedy_weighted(&g));
        assert!(w_suitor >= w_greedy - 1e-12, "seed {seed}: {w_suitor} < greedy {w_greedy}");
        assert!(w_suitor >= 0.5 * opt - 1e-12, "seed {seed}: {w_suitor} < ½·{opt}");
    }
}

fn solve_rmates(spec: &str, g: &BipartiteGraph, ws: &mut Workspace, seed: u64) -> Vec<u32> {
    let p: Pipeline = spec.parse().unwrap();
    let report = p.with_seed(seed).solve(g, ws);
    report.matching.verify(g).unwrap();
    report.matching.rmates().to_vec()
}

/// The decomposition tentpole's determinism contract: `dm,<pipeline>`
/// reaches the same sprank as the direct solve, with **byte-identical
/// mates at every workspace-pool size** — block boundaries and stitch
/// order depend only on the instance, never on how many workers raced.
#[test]
fn dm_solve_is_sprank_equal_and_byte_identical_across_pool_sizes() {
    for (label, g) in [
        ("er", dsmatch::gen::erdos_renyi_square(400, 3.0, 9)),
        ("rect", dsmatch::gen::erdos_renyi_rect(300, 200, 2.5, 4)),
        ("grid", dsmatch::gen::grid_mesh(20, 20)),
    ] {
        let opt = sprank(&g);
        let direct = solve_rmates("scale:sk:5,two,pf", &g, &mut Workspace::new(), 3);
        assert_eq!(direct.iter().filter(|&&j| j != NIL).count(), opt);

        let mut runs = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut ws = Workspace::with_threads(threads);
            let rmates = solve_rmates("dm,scale:sk:5,two,pf", &g, &mut ws, 3);
            assert_eq!(
                rmates.iter().filter(|&&j| j != NIL).count(),
                opt,
                "{label}: dm solve at {threads} threads missed sprank"
            );
            runs.push((threads, rmates));
        }
        for (threads, rmates) in &runs[1..] {
            assert_eq!(
                rmates, &runs[0].1,
                "{label}: dm mates differ between pool sizes 1 and {threads}"
            );
        }
    }
}

/// A `dm,` solve observes its token on an instance with no fine block of
/// two or more pairs, where the inner pipeline never runs: the
/// decomposition's maximum matching polls the token, and so does the step
/// after the fine decomposition. Cancelled from another thread about
/// 10 ms in, the solve returns `Cancelled`, and the workspace it ran on
/// then solves byte-identically to a fresh one.
#[test]
fn dm_solve_without_blocks_is_cancelled_mid_decomposition() {
    let g = dsmatch::gen::erdos_renyi_square(200_000, 8.0, 3);
    let p: Pipeline = "dm,two,pr".parse().unwrap();
    let mut ws = Workspace::new();
    let token = CancelToken::unbounded();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            token.cancel();
        })
    };
    let cancelled = p.solve_cancel(&g, &mut ws, &token).err();
    canceller.join().unwrap();
    assert_eq!(cancelled, Some(Cancelled));

    let again = p.solve(&g, &mut ws);
    let fresh = p.solve(&g, &mut Workspace::new());
    assert_eq!(fresh.stages.len(), 1, "no block left for the inner pipeline");
    assert_eq!(again.matching.rmates(), fresh.matching.rmates());
    assert_eq!(again.matching.cmates(), fresh.matching.cmates());
    assert_eq!(again.stages[0].phases, fresh.stages[0].phases);
    assert_eq!(again.cardinality(), sprank(&g));
}

/// Degenerate instances through every v2 path: empty graphs, structurally
/// rank-deficient patterns, and a fully-indecomposable matrix whose fine
/// decomposition is a single block.
#[test]
fn degenerate_instances_survive_weighted_and_dm_paths() {
    // Empty pattern (no edges at all): everything matches nothing.
    let empty = BipartiteGraph::from_csr(TripletMatrix::new(5, 7).into_csr());
    for spec in ["dm,two,pf", "scale:sk:5,suitor", "suitor", "dm,suitor"] {
        let p: Pipeline = spec.parse().unwrap();
        let report = p.solve(&empty, &mut Workspace::new());
        report.matching.verify(&empty).unwrap();
        assert_eq!(report.cardinality(), 0, "{spec} on the empty pattern");
    }

    // Rank-deficient: a wide rectangle plus isolated rows.
    let mut t = TripletMatrix::new(6, 4);
    for i in 0..3 {
        for j in 0..4 {
            t.push(i, j);
        }
    }
    let deficient = BipartiteGraph::from_csr(t.into_csr());
    let opt = sprank(&deficient);
    assert!(opt < 6);
    for spec in ["dm,two,pf", "dm,hk", "scale:sk:5,suitor,"] {
        let spec = spec.trim_end_matches(',');
        let p: Pipeline = spec.parse().unwrap();
        let report = p.solve(&deficient, &mut Workspace::new());
        report.matching.verify(&deficient).unwrap();
        if spec.starts_with("dm") {
            assert_eq!(report.cardinality(), opt, "{spec} on the deficient pattern");
        }
    }

    // Fully indecomposable (a ring has total support and one irreducible
    // block): the dm path degenerates to a single inner solve and must
    // still agree with the direct one.
    let ring = dsmatch::gen::ring(64);
    assert!(dsmatch::dm::is_fully_indecomposable(&ring));
    let direct = solve_rmates("two,pf", &ring, &mut Workspace::new(), 1);
    let via_dm = solve_rmates("dm,two,pf", &ring, &mut Workspace::new(), 1);
    assert_eq!(via_dm.iter().filter(|&&j| j != NIL).count(), 64);
    assert_eq!(direct.len(), via_dm.len());
}

/// Weighted stages honour the probability bridge end to end: the pipeline
/// weight equals an independent recomputation from the scaling factors.
#[test]
fn pipeline_weight_matches_independent_recomputation() {
    let g = dsmatch::gen::erdos_renyi_square(150, 4.0, 21);
    let mut ws = Workspace::new();
    let p: Pipeline = "scale:sk:5,suitor".parse().unwrap();
    let report = p.solve(&g, &mut ws);
    let w = report.weight.expect("weighted solve reports a weight");

    // Recompute: the workspace retains the scaling factors of the solve.
    let mut total = 0.0;
    for (i, &j) in report.matching.rmates().iter().enumerate() {
        if j != NIL {
            let s = ws.scaling.entry(i, j as usize);
            total += if s.is_finite() && s > 0.0 { s } else { f64::MIN_POSITIVE };
        }
    }
    assert!((total - w).abs() <= 1e-9 * total.max(1.0), "reported {w}, recomputed {total}");
}
