//! Surrogate suite for the paper's 12 UFL test matrices (Table 3,
//! Figures 3–5).
//!
//! The UFL/SuiteSparse files are not available offline, so each matrix is
//! replaced by a synthetic generator matched on the structural axes that
//! drive the paper's observations: vertex count, average degree, degree
//! *variance* (the paper explains the poor scalability of `torso1` and
//! `audikw_1` by row-degree variances of 176056 and 1802), and
//! sprank-deficiency (`europe_osm` 0.99, `road_usa` 0.95).
//!
//! By default instances are shrunk by a configurable factor so the whole
//! harness runs on a laptop; pass `shrink = 1` to build paper-sized
//! instances (up to 5×10⁷ vertices — you will need tens of GB of RAM, as
//! the authors' 256 GB machine did).

use dsmatch_graph::{BipartiteGraph, SplitMix64, TripletMatrix};

use crate::random::{chung_lu, erdos_renyi_square, random_regular};
use crate::structured::grid_mesh;

/// Structural family of a surrogate instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Family {
    /// 5-point-stencil mesh (PDE matrices).
    Mesh,
    /// Union of `d` random permutations with a fraction of entries deleted
    /// (road networks; deletion introduces sprank deficiency).
    Regular {
        /// Number of permutations unioned.
        d: usize,
        /// Fraction of entries removed afterwards.
        delete_frac: f64,
    },
    /// Chung–Lu power-law degrees, optionally with a zero-free diagonal
    /// added to guarantee full sprank (FEM / biomedical matrices with
    /// heavy-tailed rows).
    ChungLu {
        /// Power-law exponent (smaller = heavier tail).
        gamma: f64,
        /// Target average degree.
        avg_deg: f64,
        /// Add the identity diagonal (forces a perfect matching).
        diagonal: bool,
    },
    /// Erdős–Rényi with the given average degree (unstructured matrices).
    ErdosRenyi {
        /// Target average degree.
        avg_deg: f64,
    },
}

/// One surrogate instance description.
#[derive(Clone, Copy, Debug)]
pub struct SuiteEntry {
    /// UFL matrix name this entry substitutes for.
    pub name: &'static str,
    /// Row/column count of the original matrix.
    pub paper_n: usize,
    /// Average degree reported in the paper's Table 3.
    pub paper_avg_deg: f64,
    /// `sprank / n` reported in the paper's Table 3.
    pub paper_sprank_ratio: f64,
    /// Generator family used as the surrogate.
    pub family: Family,
}

impl SuiteEntry {
    /// Instance size after dividing the paper size by `shrink` (floored at
    /// 4096 so the smallest instances stay meaningful).
    pub fn scaled_n(&self, shrink: usize) -> usize {
        (self.paper_n / shrink.max(1)).max(4096)
    }

    /// Build the surrogate with `n` rows/columns.
    pub fn build(&self, n: usize, seed: u64) -> BipartiteGraph {
        match self.family {
            Family::Mesh => {
                let side = (n as f64).sqrt().round() as usize;
                grid_mesh(side.max(2), side.max(2))
            }
            Family::Regular { d, delete_frac } => {
                let g = random_regular(n, d, seed);
                if delete_frac > 0.0 {
                    delete_entries(&g, delete_frac, seed ^ 0xDE1E7E)
                } else {
                    g
                }
            }
            Family::ChungLu { gamma, avg_deg, diagonal } => {
                let g = chung_lu(n, avg_deg, gamma, seed);
                if diagonal {
                    add_diagonal(&g)
                } else {
                    g
                }
            }
            Family::ErdosRenyi { avg_deg } => erdos_renyi_square(n, avg_deg, seed),
        }
    }

    /// Build at the default shrunk size.
    pub fn build_scaled(&self, shrink: usize, seed: u64) -> BipartiteGraph {
        self.build(self.scaled_n(shrink), seed)
    }
}

/// Remove each entry independently with probability `frac`.
fn delete_entries(g: &BipartiteGraph, frac: f64, seed: u64) -> BipartiteGraph {
    let mut rng = SplitMix64::new(seed);
    let mut t = TripletMatrix::with_capacity(g.nrows(), g.ncols(), g.nnz());
    for (i, j) in g.csr().iter_entries() {
        if rng.next_f64() >= frac {
            t.push(i, j);
        }
    }
    BipartiteGraph::from_csr(t.into_csr())
}

/// Union the pattern with the identity diagonal.
fn add_diagonal(g: &BipartiteGraph) -> BipartiteGraph {
    let n = g.nrows().min(g.ncols());
    let mut t = TripletMatrix::with_capacity(g.nrows(), g.ncols(), g.nnz() + n);
    for (i, j) in g.csr().iter_entries() {
        t.push(i, j);
    }
    for i in 0..n {
        t.push(i, i);
    }
    BipartiteGraph::from_csr(t.into_csr())
}

/// The 12 surrogate descriptions, in the paper's Table 3 order.
pub fn instances() -> Vec<SuiteEntry> {
    vec![
        SuiteEntry {
            name: "atmosmodl",
            paper_n: 1_489_752,
            paper_avg_deg: 6.9,
            paper_sprank_ratio: 1.00,
            family: Family::Mesh,
        },
        SuiteEntry {
            name: "audikw_1",
            paper_n: 943_695,
            paper_avg_deg: 82.2,
            paper_sprank_ratio: 1.00,
            family: Family::ChungLu { gamma: 2.6, avg_deg: 40.0, diagonal: true },
        },
        SuiteEntry {
            name: "cage15",
            paper_n: 5_154_859,
            paper_avg_deg: 19.2,
            paper_sprank_ratio: 1.00,
            family: Family::ErdosRenyi { avg_deg: 19.2 },
        },
        SuiteEntry {
            name: "channel",
            paper_n: 4_802_000,
            paper_avg_deg: 17.8,
            paper_sprank_ratio: 1.00,
            family: Family::ErdosRenyi { avg_deg: 17.8 },
        },
        SuiteEntry {
            name: "europe_osm",
            paper_n: 50_912_018,
            paper_avg_deg: 2.1,
            paper_sprank_ratio: 0.99,
            family: Family::Regular { d: 2, delete_frac: 0.03 },
        },
        SuiteEntry {
            name: "Hamrle3",
            paper_n: 1_447_360,
            paper_avg_deg: 3.8,
            paper_sprank_ratio: 1.00,
            family: Family::Regular { d: 4, delete_frac: 0.0 },
        },
        SuiteEntry {
            name: "hugebubbles",
            paper_n: 21_198_119,
            paper_avg_deg: 3.0,
            paper_sprank_ratio: 1.00,
            family: Family::Regular { d: 3, delete_frac: 0.0 },
        },
        SuiteEntry {
            name: "kkt_power",
            paper_n: 2_063_494,
            paper_avg_deg: 6.2,
            paper_sprank_ratio: 1.00,
            family: Family::ChungLu { gamma: 3.0, avg_deg: 6.2, diagonal: true },
        },
        SuiteEntry {
            name: "nlpkkt240",
            paper_n: 27_993_600,
            paper_avg_deg: 26.7,
            paper_sprank_ratio: 1.00,
            family: Family::ErdosRenyi { avg_deg: 26.7 },
        },
        SuiteEntry {
            name: "road_usa",
            paper_n: 23_947_347,
            paper_avg_deg: 2.4,
            paper_sprank_ratio: 0.95,
            family: Family::Regular { d: 2, delete_frac: 0.10 },
        },
        SuiteEntry {
            name: "torso1",
            paper_n: 116_158,
            paper_avg_deg: 73.3,
            paper_sprank_ratio: 1.00,
            family: Family::ChungLu { gamma: 1.9, avg_deg: 73.3, diagonal: true },
        },
        SuiteEntry {
            name: "venturiLevel3",
            paper_n: 4_026_819,
            paper_avg_deg: 4.0,
            paper_sprank_ratio: 1.00,
            family: Family::Mesh,
        },
    ]
}

/// Build the whole suite at `paper_n / shrink` sizes.
pub fn build_suite(shrink: usize, seed: u64) -> Vec<(&'static str, BipartiteGraph)> {
    instances()
        .into_iter()
        .enumerate()
        .map(|(k, e)| (e.name, e.build_scaled(shrink, seed.wrapping_add(k as u64))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmatch_graph::stats::DegreeStats;

    #[test]
    fn twelve_instances_in_paper_order() {
        let v = instances();
        assert_eq!(v.len(), 12);
        assert_eq!(v[0].name, "atmosmodl");
        assert_eq!(v[11].name, "venturiLevel3");
    }

    #[test]
    fn scaled_sizes_respect_floor() {
        let torso = instances()[10];
        assert_eq!(torso.scaled_n(1), 116_158);
        assert_eq!(torso.scaled_n(1000), 4096);
    }

    #[test]
    fn surrogates_build_and_are_nonempty() {
        for e in instances() {
            let g = e.build(5_000, 42);
            assert!(g.nnz() > 0, "{} produced an empty instance", e.name);
            assert!(g.nrows() >= 4_000, "{}", e.name);
        }
    }

    #[test]
    fn torso_surrogate_has_extreme_variance() {
        let e = instances()[10];
        let g = e.build(8_000, 7);
        let s = DegreeStats::rows_of(g.csr());
        assert!(s.variance > 50.0 * s.mean, "torso1 surrogate should be heavy-tailed: {s}");
    }

    #[test]
    fn road_usa_surrogate_is_deficient() {
        use dsmatch_graph::components::connected_components;
        let e = instances()[9];
        let g = e.build(20_000, 3);
        // 10% deletions on a 2-regular pattern leave isolated vertices with
        // noticeable probability → sprank < n. Cheap proxy check: some
        // vertex lost all entries.
        let has_empty_row = (0..g.nrows()).any(|i| g.row_degree(i) == 0);
        assert!(has_empty_row, "expected deficiency from deletions");
        let (_, _, k) = connected_components(&g);
        assert!(k > 1);
    }

    #[test]
    fn diagonal_families_have_full_support_diagonal() {
        for e in instances() {
            if let Family::ChungLu { diagonal: true, .. } = e.family {
                let g = e.build(4_096, 5);
                for i in 0..g.nrows() {
                    assert!(g.csr().contains(i, i), "{}: missing diagonal {i}", e.name);
                }
            }
        }
    }

    #[test]
    fn build_suite_returns_named_graphs() {
        let suite = build_suite(2_000, 1);
        assert_eq!(suite.len(), 12);
        for (name, g) in &suite {
            assert!(!name.is_empty());
            assert!(g.nnz() > 0);
        }
    }
}
