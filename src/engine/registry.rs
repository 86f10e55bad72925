//! The algorithm registry: every matching algorithm in the workspace under
//! one enum, each usable as a pipeline stage.

use dsmatch_graph::BipartiteGraph;

/// Every matching algorithm the workspace implements.
///
/// Heuristic stages sample from the **current scaling factors** in the
/// [`Workspace`](crate::engine::Workspace): the factors computed by a
/// preceding `scale` stage, or the identity (uniform sampling over
/// adjacency lists) when the pipeline has no scale stage. This makes the
/// composition explicit — the paper's `TwoSidedMatch` with 5 Sinkhorn–Knopp
/// iterations is the pipeline `scale:sk:5,two`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgorithmKind {
    /// Paper Algorithm 2 (guarantee 1 − 1/e).
    OneSided,
    /// Paper Algorithm 3: two-sided sampling + [`KarpSipserMt`]
    /// (conjectured 0.866). Equivalent to [`KarpSipserMt`] under the same
    /// scaling, exposed separately so specs read like the paper.
    ///
    /// [`KarpSipserMt`]: AlgorithmKind::KarpSipserMt
    TwoSided,
    /// Classic Karp–Sipser heuristic.
    KarpSipser,
    /// Paper Algorithm 4: the specialized parallel Karp–Sipser, run on the
    /// 1-out ∪ 1-in subgraph sampled from the current scaling factors.
    KarpSipserMt,
    /// The §5 one-out *undirected* variant, applied to the bipartite graph
    /// viewed as one vertex class (rows and columns unified).
    OneOutUndirected,
    /// Random-edge greedy (½).
    CheapEdge,
    /// Random-vertex greedy (½ + ε).
    CheapVertex,
    /// Exact: Hopcroft–Karp.
    HopcroftKarp,
    /// Exact: Pothen–Fan with lookahead.
    PothenFan,
    /// Exact: push-relabel / auction.
    PushRelabel,
    /// Exact: single-path BFS augmentation.
    BfsAugment,
    /// Exact, multicore: Hopcroft–Karp with a parallel level-synchronized
    /// BFS phase (byte-identical to [`HopcroftKarp`] at every pool size).
    ///
    /// [`HopcroftKarp`]: AlgorithmKind::HopcroftKarp
    HopcroftKarpPar,
    /// Exact, multicore: tree-grafting-style parallel Pothen–Fan
    /// (multi-source BFS forest + disjoint-path harvest).
    PothenFanPar,
    /// Exact, multicore: incremental tree grafting — [`PothenFanPar`]'s
    /// BFS forest kept alive across harvests (Azad–Buluç–Pothen renewable
    /// forests), cutting the per-phase rebuild on high-phase-count
    /// instances.
    ///
    /// [`PothenFanPar`]: AlgorithmKind::PothenFanPar
    PothenFanGraft,
    /// Exact: fill-driven auto-selection between [`PushRelabel`] and
    /// [`HopcroftKarpPar`] (see [`select_finisher`]). The choice lands in
    /// the stage report's `selected` field.
    ///
    /// [`PushRelabel`]: AlgorithmKind::PushRelabel
    /// [`HopcroftKarpPar`]: AlgorithmKind::HopcroftKarpPar
    Auto,
}

impl AlgorithmKind {
    /// All algorithms, heuristics first.
    pub fn all() -> [AlgorithmKind; 15] {
        use AlgorithmKind::*;
        [
            OneSided,
            TwoSided,
            KarpSipser,
            KarpSipserMt,
            OneOutUndirected,
            CheapEdge,
            CheapVertex,
            HopcroftKarp,
            PothenFan,
            PushRelabel,
            BfsAugment,
            HopcroftKarpPar,
            PothenFanPar,
            PothenFanGraft,
            Auto,
        ]
    }

    /// True for the exact (maximum-cardinality) algorithms — the only ones
    /// allowed as a pipeline's `augment` finisher.
    pub fn is_exact(&self) -> bool {
        matches!(
            self,
            AlgorithmKind::HopcroftKarp
                | AlgorithmKind::PothenFan
                | AlgorithmKind::PushRelabel
                | AlgorithmKind::BfsAugment
                | AlgorithmKind::HopcroftKarpPar
                | AlgorithmKind::PothenFanPar
                | AlgorithmKind::PothenFanGraft
                | AlgorithmKind::Auto
        )
    }

    /// True for the algorithms that poll a
    /// [`CancelToken`](dsmatch_graph::CancelToken) inside their main loops
    /// when run through the engine, so a serve-job deadline (or a client
    /// `cancel` op) can cut them short cooperatively. The parallel
    /// finishers poll at phase/epoch boundaries; the sequential engines
    /// (`hk`, `pf`) and the Karp–Sipser family (`ks`, `ksmt`, `two`) poll
    /// periodically inside their main loops. Only the single-pass sampling
    /// heuristics (`one`, `one-out`, `cheap`, `cheap-vertex`) and `bfs`
    /// still run to completion, with their deadline enforced before start.
    pub fn supports_cancellation(&self) -> bool {
        matches!(
            self,
            AlgorithmKind::TwoSided
                | AlgorithmKind::KarpSipser
                | AlgorithmKind::KarpSipserMt
                | AlgorithmKind::HopcroftKarp
                | AlgorithmKind::PothenFan
                | AlgorithmKind::PushRelabel
                | AlgorithmKind::HopcroftKarpPar
                | AlgorithmKind::PothenFanPar
                | AlgorithmKind::PothenFanGraft
                | AlgorithmKind::Auto
        )
    }

    /// True for the algorithms whose sampling reads the scaling factors
    /// (a preceding `scale` stage changes their behaviour).
    pub fn uses_scaling(&self) -> bool {
        matches!(
            self,
            AlgorithmKind::OneSided
                | AlgorithmKind::TwoSided
                | AlgorithmKind::KarpSipserMt
                | AlgorithmKind::OneOutUndirected
        )
    }

    /// Short CLI/spec name.
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmKind::OneSided => "one",
            AlgorithmKind::TwoSided => "two",
            AlgorithmKind::KarpSipser => "ks",
            AlgorithmKind::KarpSipserMt => "ksmt",
            AlgorithmKind::OneOutUndirected => "one-out",
            AlgorithmKind::CheapEdge => "cheap",
            AlgorithmKind::CheapVertex => "cheap-vertex",
            AlgorithmKind::HopcroftKarp => "hk",
            AlgorithmKind::PothenFan => "pf",
            AlgorithmKind::PushRelabel => "pr",
            AlgorithmKind::BfsAugment => "bfs",
            AlgorithmKind::HopcroftKarpPar => "hk-par",
            AlgorithmKind::PothenFanPar => "pf-par",
            AlgorithmKind::PothenFanGraft => "pf-graft",
            AlgorithmKind::Auto => "auto",
        }
    }
}

/// The approximate **maximum-weight** matching heuristics of the
/// `dsmatch-weighted` crate, usable as a pipeline workload stage.
///
/// A weighted stage reads the workspace's current scaling factors as edge
/// weights — the paper's probability bridge: after doubly stochastic
/// scaling, entry `s_ij = dr[i]·dc[j]` approximates the probability that
/// edge `(i, j)` belongs to a perfect matching, so maximizing total weight
/// chases the most-likely transversal. Without a preceding `scale` stage
/// the weights are uniform and the heuristics degrade gracefully to
/// cardinality-style greedy matching.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightedKind {
    /// Sort-by-weight greedy (the classical ½-approximation).
    GreedyWeighted,
    /// Drake–Hougardy path-growing (½-approximation).
    PathGrowing,
    /// Suitor (Manne & Halappanavar, IPDPS 2014): proposal-based; same
    /// matching as greedy under consistent tie-breaking, better locality.
    Suitor,
    /// Lock-free parallel Suitor (CAS proposals, deterministic result).
    SuitorParallel,
}

impl WeightedKind {
    /// All weighted heuristics, in spec order.
    pub fn all() -> [WeightedKind; 4] {
        use WeightedKind::*;
        [GreedyWeighted, PathGrowing, Suitor, SuitorParallel]
    }

    /// Short CLI/spec name.
    pub fn name(&self) -> &'static str {
        match self {
            WeightedKind::GreedyWeighted => "greedy-w",
            WeightedKind::PathGrowing => "path-grow",
            WeightedKind::Suitor => "suitor",
            WeightedKind::SuitorParallel => "suitor-par",
        }
    }

    /// Look up a spec name; `None` when it names no weighted heuristic
    /// (the spec parser then falls through to its unknown-stage error).
    pub fn from_name(s: &str) -> Option<WeightedKind> {
        WeightedKind::all().into_iter().find(|w| w.name() == s)
    }
}

impl std::fmt::Display for WeightedKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Pick the exact finisher for an instance from its fill — the policy
/// behind [`AlgorithmKind::Auto`].
///
/// The finisher matrix in `BENCH_finishers.json` (written by the bench
/// crate's `finishers` bin) times `pr`, `hk-par` and `pf-graft` on the
/// Table-3 surrogates, nine `er` instances, `rmat` and the adversarial
/// Karp–Sipser instance, warm and cold, at 1 and 2 threads:
///
/// - **sparse** instances (fill < 5 %), skewed or not, go to push-relabel,
///   `pr`: with global relabeling it is the fastest engine on nearly
///   every sparse row and within 2× of the fastest on all of them;
/// - **dense** instances (fill ≥ 5 %) keep `hk-par`. The matrix does not
///   settle this branch: its one dense row, the adversarial instance, is
///   fastest on `pr` cold and a sub-millisecond tie warm, and no
///   benchmark workload is dense.
///
/// The policy is deterministic and reads only `nnz / (nrows · ncols)`, in
/// O(1); the engine-matrix tests pin it per generator family.
pub fn select_finisher(g: &BipartiteGraph) -> AlgorithmKind {
    let cells = g.nrows() as f64 * g.ncols() as f64;
    if cells > 0.0 && g.nnz() as f64 >= 0.05 * cells {
        AlgorithmKind::HopcroftKarpPar
    } else {
        AlgorithmKind::PushRelabel
    }
}

impl std::str::FromStr for AlgorithmKind {
    type Err = super::spec::SpecError;

    /// Look up a spec name in the registry.
    ///
    /// ```
    /// use dsmatch::engine::{AlgorithmKind, SpecError};
    ///
    /// assert_eq!("pf-par".parse::<AlgorithmKind>(), Ok(AlgorithmKind::PothenFanPar));
    /// assert_eq!(
    ///     "nope".parse::<AlgorithmKind>(),
    ///     Err(SpecError::UnknownAlgorithm { name: "nope".into() }),
    /// );
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AlgorithmKind::all()
            .into_iter()
            .find(|a| a.name() == s)
            .ok_or_else(|| super::spec::SpecError::UnknownAlgorithm { name: s.to_string() })
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for a in AlgorithmKind::all() {
            let parsed: AlgorithmKind = a.name().parse().unwrap();
            assert_eq!(parsed, a);
            assert_eq!(a.to_string(), a.name());
        }
        assert!("nope".parse::<AlgorithmKind>().is_err());
    }

    #[test]
    fn exactly_eight_exact_engines() {
        assert_eq!(AlgorithmKind::all().len(), 15);
        assert_eq!(AlgorithmKind::all().iter().filter(|a| a.is_exact()).count(), 8);
        assert_eq!(AlgorithmKind::all().iter().filter(|a| a.uses_scaling()).count(), 4);
    }

    #[test]
    fn parallel_finishers_are_exact_and_unscaled() {
        for a in [
            AlgorithmKind::HopcroftKarpPar,
            AlgorithmKind::PothenFanPar,
            AlgorithmKind::PothenFanGraft,
            AlgorithmKind::Auto,
        ] {
            assert!(a.is_exact(), "{a}");
            assert!(!a.uses_scaling(), "{a}");
        }
    }

    #[test]
    fn auto_policy_is_shape_driven() {
        use dsmatch_graph::Csr;
        // Dense: every cell filled ⇒ hk-par.
        let dense =
            BipartiteGraph::from_csr(Csr::from_dense(&[&[1, 1, 1], &[1, 1, 1], &[1, 1, 1]]));
        assert_eq!(select_finisher(&dense), AlgorithmKind::HopcroftKarpPar);
        // Sparse + uniform (one diagonal) ⇒ pr.
        let mut t = dsmatch_graph::TripletMatrix::new(100, 100);
        for i in 0..100 {
            t.push(i, i);
        }
        let uniform = BipartiteGraph::from_csr(t.into_csr());
        assert_eq!(select_finisher(&uniform), AlgorithmKind::PushRelabel);
        // Sparse + one hub column (star + diagonal) ⇒ pr as well.
        let mut t = dsmatch_graph::TripletMatrix::new(100, 100);
        for i in 0..100 {
            t.push(i, i);
            t.push(i, 0);
        }
        let skewed = BipartiteGraph::from_csr(t.into_csr());
        assert_eq!(select_finisher(&skewed), AlgorithmKind::PushRelabel);
        // Empty shapes are sparse.
        let empty = BipartiteGraph::from_csr(Csr::empty(0, 5));
        assert_eq!(select_finisher(&empty), AlgorithmKind::PushRelabel);
    }

    #[test]
    fn cancellable_algorithms_are_exactly_the_cancel_variant_engines() {
        let cancellable: Vec<&str> = AlgorithmKind::all()
            .iter()
            .filter(|k| k.supports_cancellation())
            .map(|k| k.name())
            .collect();
        assert_eq!(
            cancellable,
            ["two", "ks", "ksmt", "hk", "pf", "pr", "hk-par", "pf-par", "pf-graft", "auto"]
        );
        // The remaining engines are the single-pass sampling heuristics
        // plus `bfs` — all short enough that a pre-start deadline check
        // suffices.
        let uncancellable: Vec<&str> = AlgorithmKind::all()
            .iter()
            .filter(|k| !k.supports_cancellation())
            .map(|k| k.name())
            .collect();
        assert_eq!(uncancellable, ["one", "one-out", "cheap", "cheap-vertex", "bfs"]);
    }

    #[test]
    fn weighted_kind_roundtrip_and_names() {
        assert_eq!(WeightedKind::all().len(), 4);
        for w in WeightedKind::all() {
            let parsed = WeightedKind::from_name(w.name()).unwrap();
            assert_eq!(parsed, w);
            assert_eq!(w.to_string(), w.name());
            // Weighted names never collide with the cardinality registry.
            assert!(w.name().parse::<AlgorithmKind>().is_err(), "{} collides", w.name());
        }
        assert_eq!(WeightedKind::from_name("nope"), None);
        let names: Vec<&str> = WeightedKind::all().iter().map(|w| w.name()).collect();
        assert_eq!(names, ["greedy-w", "path-grow", "suitor", "suitor-par"]);
    }
}
