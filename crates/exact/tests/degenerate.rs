//! Degenerate-input coverage for the exact finishers — empty graphs,
//! 0-row/0-col instances, duplicate edges, isolated vertices, and
//! fully-matched warm starts — uniformly over `pf`, `hk`, `pr`, `bfs`, the
//! parallel variants `pf-par`, `hk-par`, and the incremental `pf-graft`.
//! A finisher fed a maximum matching, perfect or not, must be a strict
//! no-op (zero augmentations, mates returned byte-identical).

use dsmatch_exact::{
    bfs_augment_from, brute_force_maximum, hopcroft_karp, hopcroft_karp_par_ws, hopcroft_karp_ws,
    pothen_fan_graft_ws, pothen_fan_par_ws, pothen_fan_ws, push_relabel_from, AugmentWorkspace,
};
use dsmatch_graph::{BipartiteGraph, Csr, Matching, TripletMatrix};

/// One finisher entry point, normalized to `(matching, augmentations)`.
type Finisher = fn(&BipartiteGraph, Option<&Matching>) -> (Matching, usize);

fn pf(g: &BipartiteGraph, init: Option<&Matching>) -> (Matching, usize) {
    let (m, s) = pothen_fan_ws(g, init, &mut AugmentWorkspace::new());
    (m, s.augmentations)
}

fn hk(g: &BipartiteGraph, init: Option<&Matching>) -> (Matching, usize) {
    let (m, s) = hopcroft_karp_ws(g, init, &mut AugmentWorkspace::new());
    (m, s.augmentations)
}

fn pf_par(g: &BipartiteGraph, init: Option<&Matching>) -> (Matching, usize) {
    let (m, s) = pothen_fan_par_ws(g, init, &mut AugmentWorkspace::new());
    (m, s.augmentations)
}

fn hk_par(g: &BipartiteGraph, init: Option<&Matching>) -> (Matching, usize) {
    let (m, s) = hopcroft_karp_par_ws(g, init, &mut AugmentWorkspace::new());
    (m, s.augmentations)
}

fn pf_graft(g: &BipartiteGraph, init: Option<&Matching>) -> (Matching, usize) {
    let (m, s) = pothen_fan_graft_ws(g, init, &mut AugmentWorkspace::new());
    (m, s.augmentations)
}

fn pr(g: &BipartiteGraph, init: Option<&Matching>) -> (Matching, usize) {
    let init = init.cloned().unwrap_or_else(|| Matching::new(g.nrows(), g.ncols()));
    let (m, s) = push_relabel_from(g, init);
    // Pushes are `pr`'s unit of work: 0 pushes ⇔ the warm start was
    // untouched, playing the role `augmentations` plays elsewhere.
    (m, s.pushes)
}

fn bfs(g: &BipartiteGraph, init: Option<&Matching>) -> (Matching, usize) {
    let init = init.cloned().unwrap_or_else(|| Matching::new(g.nrows(), g.ncols()));
    let (m, s) = bfs_augment_from(g, init);
    (m, s.augmentations)
}

const FINISHERS: [(&str, Finisher); 7] = [
    ("pf", pf),
    ("hk", hk),
    ("pr", pr),
    ("bfs", bfs),
    ("pf-par", pf_par),
    ("hk-par", hk_par),
    ("pf-graft", pf_graft),
];

#[test]
fn empty_graph_yields_empty_matching() {
    let g = BipartiteGraph::from_csr(Csr::empty(0, 0));
    for (name, f) in FINISHERS {
        let (m, augs) = f(&g, None);
        m.verify(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(m.cardinality(), 0, "{name}");
        assert_eq!(augs, 0, "{name}");
    }
}

#[test]
fn zero_row_and_zero_col_instances() {
    for (nr, nc) in [(0usize, 7usize), (7, 0)] {
        let g = BipartiteGraph::from_csr(Csr::empty(nr, nc));
        for (name, f) in FINISHERS {
            let (m, augs) = f(&g, None);
            m.verify(&g).unwrap_or_else(|e| panic!("{name} on {nr}×{nc}: {e}"));
            assert_eq!(m.cardinality(), 0, "{name} on {nr}×{nc}");
            assert_eq!(augs, 0, "{name} on {nr}×{nc}");
        }
    }
}

#[test]
fn edgeless_square_instance() {
    let g = BipartiteGraph::from_csr(Csr::empty(5, 5));
    for (name, f) in FINISHERS {
        let (m, _) = f(&g, None);
        m.verify(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(m.cardinality(), 0, "{name}");
    }
}

#[test]
fn duplicate_edges_are_deduplicated_and_harmless() {
    // The CSR invariant (strictly increasing columns per row) means the
    // finishers can never see a literal duplicate; `TripletMatrix` is the
    // boundary that collapses them. Push every edge three times and check
    // both that the dedup happened and that the finishers solve the
    // deduplicated instance exactly.
    let edges = [(0usize, 1usize), (0, 2), (1, 0), (2, 1), (2, 2), (3, 0)];
    let mut t = TripletMatrix::new(4, 3);
    for &(i, j) in &edges {
        for _ in 0..3 {
            t.push(i, j);
        }
    }
    let csr = t.into_csr();
    assert_eq!(csr.nnz(), edges.len(), "triplet finalization must drop duplicates");
    let g = BipartiteGraph::from_csr(csr);
    let opt = brute_force_maximum(&g);
    for (name, f) in FINISHERS {
        let (m, _) = f(&g, None);
        m.verify(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(m.cardinality(), opt, "{name}");
    }
}

#[test]
fn isolated_rows_and_columns_are_skipped() {
    // Rows 1 and 3 and column 2 have no support at all.
    let g = BipartiteGraph::from_csr(Csr::from_dense(&[
        &[1, 1, 0, 0],
        &[0, 0, 0, 0],
        &[0, 1, 0, 1],
        &[0, 0, 0, 0],
    ]));
    let opt = brute_force_maximum(&g);
    assert_eq!(opt, 2);
    for (name, f) in FINISHERS {
        let (m, _) = f(&g, None);
        m.verify(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(m.cardinality(), opt, "{name}");
    }
}

#[test]
fn fully_matched_warm_start_is_a_noop() {
    // A perfect warm start leaves nothing to augment: the finisher must
    // return the initial mates byte-identically with zero augmentations.
    let g = dsmatch_gen::grid_mesh(18, 18);
    let perfect = hopcroft_karp(&g);
    assert!(perfect.is_perfect(), "test instance must have a perfect matching");
    for (name, f) in FINISHERS {
        let (m, augs) = f(&g, Some(&perfect));
        assert_eq!(augs, 0, "{name}: augmented a perfect matching");
        assert_eq!(m.rmates(), perfect.rmates(), "{name}: changed a perfect matching");
        assert_eq!(m.cmates(), perfect.cmates(), "{name}: changed a perfect matching");
    }
}

#[test]
fn maximum_but_imperfect_warm_start_is_a_noop() {
    // Maximum yet deficient (row 2 duplicates row 0's support): still
    // nothing to augment. For `pr` this holds through its first global
    // relabel: no free row of a maximum matching reaches a free column,
    // so every one of them retires before its first bid (0 pushes).
    let g = BipartiteGraph::from_csr(Csr::from_dense(&[&[1, 1, 0], &[0, 1, 0], &[1, 1, 0]]));
    let maximum = hopcroft_karp(&g);
    assert_eq!(maximum.cardinality(), 2);
    for (name, f) in FINISHERS {
        let (m, augs) = f(&g, Some(&maximum));
        assert_eq!(augs, 0, "{name}");
        assert_eq!(m.rmates(), maximum.rmates(), "{name}");
    }
    // Same contract on sparse instance-scale graphs whose maximum is
    // imperfect. Without global relabeling, `pr` makes about 1.57M pushes
    // from the maximum of the second one and moves mates.
    for g in [
        dsmatch_gen::erdos_renyi_square(300, 2.0, 42),
        dsmatch_gen::erdos_renyi_square(2000, 4.0, 13),
    ] {
        let maximum = hopcroft_karp(&g);
        assert!(!maximum.is_perfect(), "test needs a deficient maximum");
        for (name, f) in FINISHERS {
            let (m, augs) = f(&g, Some(&maximum));
            assert_eq!(augs, 0, "{name}: augmented a maximum matching");
            assert_eq!(m.rmates(), maximum.rmates(), "{name}");
            assert_eq!(m.cmates(), maximum.cmates(), "{name}");
        }
    }
}

#[test]
fn push_relabel_keeps_maximum_warm_starts_maximum() {
    // The weaker contract under the no-op one above: whatever `pr` does
    // with the deficient rows of a maximum warm start, it returns a valid
    // matching of the same cardinality.
    let g = dsmatch_gen::erdos_renyi_square(300, 2.0, 42);
    let maximum = hopcroft_karp(&g);
    assert!(!maximum.is_perfect(), "test needs a deficient maximum");
    let (m, _) = pr(&g, Some(&maximum));
    m.verify(&g).unwrap();
    assert_eq!(m.cardinality(), maximum.cardinality());
}
