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
    /// Exact: the measured finisher, [`PushRelabel`] on every instance
    /// (see [`select_finisher`]). The choice lands in the stage report's
    /// `selected` field.
    ///
    /// [`PushRelabel`]: AlgorithmKind::PushRelabel
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

/// Pick the exact finisher for an instance — the policy behind
/// [`AlgorithmKind::Auto`]: push-relabel, `pr`, on every instance.
///
/// The finisher matrix in `BENCH_finishers.json` (written by the bench
/// crate's `finishers` bin) times `pr`, `hk-par` and `pf-graft` on the
/// Table-3 surrogates, sparse `er` instances, `rmat`, dense `er`
/// instances (fill ≈ 9.5 %) and two adversarial Karp–Sipser instances
/// (fill ≈ 25 %), warm and cold, at 1 and 2 threads. With global
/// relabeling `pr` is the fastest engine in 104 of its 108 cells and
/// within 1.31× of the fastest in the rest, sparse or dense, so the policy
/// reads nothing of the instance; the graph parameter stays for the
/// callers (the engine, the bench bins, perfbench's trace).
pub fn select_finisher(_g: &BipartiteGraph) -> AlgorithmKind {
    AlgorithmKind::PushRelabel
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
        // `pr` wins the dense rows of the finisher matrix as well as the
        // sparse ones, so every shape goes to it: dense (every cell
        // filled), sparse uniform (one diagonal), sparse with one hub
        // column (star + diagonal), and empty.
        let dense =
            BipartiteGraph::from_csr(Csr::from_dense(&[&[1, 1, 1], &[1, 1, 1], &[1, 1, 1]]));
        let mut t = dsmatch_graph::TripletMatrix::new(100, 100);
        for i in 0..100 {
            t.push(i, i);
        }
        let uniform = BipartiteGraph::from_csr(t.into_csr());
        let mut t = dsmatch_graph::TripletMatrix::new(100, 100);
        for i in 0..100 {
            t.push(i, i);
            t.push(i, 0);
        }
        let skewed = BipartiteGraph::from_csr(t.into_csr());
        let empty = BipartiteGraph::from_csr(Csr::empty(0, 5));
        for g in [&dense, &uniform, &skewed, &empty] {
            assert_eq!(select_finisher(g), AlgorithmKind::PushRelabel);
        }
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
}
