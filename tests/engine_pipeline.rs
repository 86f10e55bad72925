//! Engine-layer correctness: pipeline composition reaches the optimum,
//! and workspace reuse is bit-for-bit equivalent to fresh allocation —
//! with stable buffers, so batch solving allocates the workspace once.

use dsmatch::engine::{AlgorithmKind, Pipeline, Solver, Workspace};
use dsmatch::prelude::*;
use proptest::prelude::*;

/// Strategy: a random pattern as (nrows, ncols, entry bitmap).
fn small_graph() -> impl Strategy<Value = BipartiteGraph> {
    (1usize..12, 1usize..12).prop_flat_map(|(m, n)| {
        proptest::collection::vec(proptest::bool::weighted(0.3), m * n).prop_map(move |bits| {
            let mut t = dsmatch::graph::TripletMatrix::new(m, n);
            for (k, &b) in bits.iter().enumerate() {
                if b {
                    t.push(k / n, k % n);
                }
            }
            BipartiteGraph::from_csr(t.into_csr())
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// For **every** heuristic H, `scale → H → augment(pf)` is exact: the
    /// finisher must recover exactly the Hopcroft–Karp optimum no matter
    /// how partial the heuristic's matching was.
    #[test]
    fn every_heuristic_augmented_by_pf_is_exact(g in small_graph(), seed in 0u64..500) {
        let opt = hopcroft_karp(&g).cardinality();
        let mut ws = Workspace::new();
        for h in AlgorithmKind::all().into_iter().filter(|a| !a.is_exact()) {
            let spec = format!("scale:sk:5,{h},pf");
            let pipeline: Pipeline = spec.parse().unwrap();
            let report = pipeline.with_seed(seed).solve(&g, &mut ws);
            report.matching.verify(&g).unwrap();
            prop_assert_eq!(report.cardinality(), opt, "pipeline {} missed the optimum", spec);
            // The augment stage is reported and cannot shrink the matching.
            let heur_card = report.stages[1].cardinality.unwrap();
            prop_assert!(heur_card <= opt);
            prop_assert_eq!(report.stages.len(), 3);
        }
    }
}

/// Workspace reuse across consecutive solves must be byte-identical to
/// fresh-allocation solves: same mate arrays, not just cardinalities.
///
/// Run on a 1-thread pool: the property under test is buffer reuse, and
/// the sequential schedule makes even the racy heuristics (`one`, `two`,
/// `one-out`) bit-reproducible so the comparison can stay exact.
#[test]
fn workspace_reuse_is_byte_identical_to_fresh_allocation() {
    let g = dsmatch::gen::erdos_renyi_square(2_500, 4.0, 17);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    for spec in ["scale:sk:5,two,pf", "scale:ruiz:4,one,hk", "ks", "scale:sk:3,one-out", "hk"] {
        let pipeline: Pipeline = spec.parse().unwrap();
        let mut shared = Workspace::new();
        for seed in [1u64, 2, 3] {
            let reused = pool.install(|| pipeline.clone().with_seed(seed).solve(&g, &mut shared));
            let fresh =
                pool.install(|| pipeline.clone().with_seed(seed).solve(&g, &mut Workspace::new()));
            assert_eq!(
                reused.matching, fresh.matching,
                "{spec} seed {seed}: reused workspace diverged from fresh allocation"
            );
        }
    }
}

/// The same reuse-vs-fresh equivalence under a real 4-thread pool, at the
/// strength the algorithms actually guarantee there: identical
/// cardinalities and valid matchings (mate arrays may differ because the
/// racy heuristics are schedule-dependent — see `tests/determinism.rs`).
#[test]
fn workspace_reuse_matches_fresh_under_parallel_pool() {
    let g = dsmatch::gen::erdos_renyi_square(2_500, 4.0, 17);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    for spec in ["scale:sk:5,two,pf", "scale:ruiz:4,one,hk", "scale:sk:3,one-out"] {
        let pipeline: Pipeline = spec.parse().unwrap();
        let mut shared = Workspace::new();
        for seed in [1u64, 2, 3] {
            let reused = pool.install(|| pipeline.clone().with_seed(seed).solve(&g, &mut shared));
            let fresh =
                pool.install(|| pipeline.clone().with_seed(seed).solve(&g, &mut Workspace::new()));
            reused.matching.verify(&g).unwrap();
            fresh.matching.verify(&g).unwrap();
            assert_eq!(
                reused.cardinality(),
                fresh.cardinality(),
                "{spec} seed {seed}: reused workspace changed the solve outcome"
            );
        }
    }
}

/// The acceptance contract of batch mode: after the first solve, the
/// workspace buffers are stable — same pointer, same capacity — across
/// further solves on the same-shaped instance, i.e. the workspace is
/// allocated once.
#[test]
fn workspace_buffers_are_stable_across_batch_solves() {
    let g = dsmatch::gen::erdos_renyi_square(4_000, 4.0, 5);
    let pipeline: Pipeline = "scale:sk:5,two,pf".parse().unwrap();
    let mut ws = Workspace::new();
    // Warm-up solve: every buffer grows to the instance shape here.
    pipeline.clone().with_seed(1).solve(&g, &mut ws);

    let footprint = |ws: &Workspace| -> Vec<(usize, usize)> {
        vec![
            (ws.scaling.dr.as_ptr() as usize, ws.scaling.dr.capacity()),
            (ws.scaling.dc.as_ptr() as usize, ws.scaling.dc.capacity()),
            (ws.heur.rchoice.as_ptr() as usize, ws.heur.rchoice.capacity()),
            (ws.heur.cchoice.as_ptr() as usize, ws.heur.cchoice.capacity()),
            (ws.heur.cslots.as_ptr() as usize, ws.heur.cslots.capacity()),
            (ws.heur.ksmt.choice.as_ptr() as usize, ws.heur.ksmt.choice.capacity()),
            (ws.heur.ksmt.mat.as_ptr() as usize, ws.heur.ksmt.mat.capacity()),
            (ws.heur.ksmt.deg.as_ptr() as usize, ws.heur.ksmt.deg.capacity()),
            (ws.heur.ksmt.mark.as_ptr() as usize, ws.heur.ksmt.mark.capacity()),
            (ws.augment.rmate.as_ptr() as usize, ws.augment.rmate.capacity()),
            (ws.augment.cmate.as_ptr() as usize, ws.augment.cmate.capacity()),
            (ws.augment.dist.as_ptr() as usize, ws.augment.dist.capacity()),
            (ws.augment.iter.as_ptr() as usize, ws.augment.iter.capacity()),
            (ws.augment.visited.as_ptr() as usize, ws.augment.visited.capacity()),
            (ws.augment.look.as_ptr() as usize, ws.augment.look.capacity()),
        ]
    };
    let warm = footprint(&ws);
    for seed in 2..=10u64 {
        let report = pipeline.clone().with_seed(seed).solve(&g, &mut ws);
        report.matching.verify(&g).unwrap();
        assert_eq!(footprint(&ws), warm, "solve with seed {seed} reallocated a workspace buffer");
    }
}

/// `two_sided_choices_into` — the per-solve sampling stage — keeps both
/// choice buffers pointer-stable across repeated solves *and across pool
/// sizes*, and produces byte-identical choices for every pool size. (The
/// companion audit of `gen:er` synthesis found no per-solve churn: the
/// triplet buffer is pre-sized from the draw count and synthesis runs once
/// per instance, outside the batch loop.)
#[test]
fn choice_buffers_stable_across_solves_and_pool_sizes() {
    use dsmatch::heur::two_sided_choices_into;
    let g = dsmatch::gen::erdos_renyi_square(4_000, 4.0, 5);
    let s = dsmatch::scale::sinkhorn_knopp(&g, &ScalingConfig::iterations(3));
    let (mut rc, mut cc) = (Vec::new(), Vec::new());
    two_sided_choices_into(&g, &s, 1, &mut rc, &mut cc);
    let footprint = (rc.as_ptr() as usize, rc.capacity(), cc.as_ptr() as usize, cc.capacity());
    let reference = (rc.clone(), cc.clone());
    for t in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(t).build().unwrap();
        for seed in [1u64, 9] {
            pool.install(|| two_sided_choices_into(&g, &s, seed, &mut rc, &mut cc));
            assert_eq!(
                footprint,
                (rc.as_ptr() as usize, rc.capacity(), cc.as_ptr() as usize, cc.capacity()),
                "choice buffers reallocated at {t} threads, seed {seed}"
            );
            if seed == 1 {
                assert_eq!((rc.clone(), cc.clone()), reference, "choices differ at {t} threads");
            }
        }
    }
}

/// Per-stage instrumentation: stage list matches the spec, scaling
/// metadata is present exactly when a scale stage ran, and quality is
/// filled on request.
#[test]
fn reports_are_fully_instrumented() {
    let g = dsmatch::gen::erdos_renyi_square(1_200, 4.0, 9);
    let mut ws = Workspace::new();

    let full: Pipeline = "scale:sk:7,two,pf".parse().unwrap();
    let mut report = full.solve(&g, &mut ws);
    assert_eq!(report.stages.len(), 3);
    assert_eq!(report.stages[0].stage, "scale:sk:7");
    assert_eq!(report.stages[1].stage, "two");
    assert_eq!(report.stages[2].stage, "augment:pf");
    assert_eq!(report.scaling_iterations, Some(7));
    assert!(report.scaling_error.unwrap() >= 0.0);
    assert!(report.stages.iter().all(|s| s.seconds >= 0.0));
    assert!(report.total_seconds() >= report.stages[0].seconds);
    assert_eq!(report.quality, None);
    let opt = sprank(&g);
    report.set_quality(opt);
    assert_eq!(report.quality, Some(1.0), "pf-finished pipelines are exact");

    let bare = Pipeline::bare(AlgorithmKind::KarpSipser);
    let report = bare.solve(&g, &mut ws);
    assert_eq!(report.stages.len(), 1);
    assert_eq!(report.scaling_iterations, None);
    assert_eq!(report.scaling_error, None);

    // JSON rendering of a report is parseable-shaped and complete.
    let json = report.to_json().to_string();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"stages\":[{\"stage\":\"ks\""));
}

/// Every registered algorithm solves as a single-stage pipeline.
#[test]
fn algorithm_kind_solves_directly() {
    let g = dsmatch::gen::permutation(500, 3);
    let mut ws = Workspace::new();
    for a in AlgorithmKind::all() {
        let report = Pipeline::bare(a).solve(&g, &mut ws);
        report.matching.verify(&g).unwrap();
        assert!(report.matching.is_perfect(), "{a} on a permutation");
        assert_eq!(report.stages.len(), 1);
    }
}
