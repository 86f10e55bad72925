//! Composable solve pipelines: `scale → workload → augment`, with
//! decomposition-driven solves (`dm,<pipeline>`) as a recursive workload.

use std::time::Instant;

use dsmatch_core::{
    cheap_random_edge, cheap_random_vertex, karp_sipser_cancel_ws, one_out_matching,
    one_sided_match_ws, two_sided_choices_into, two_sided_match_cancel_ws, KarpSipserConfig,
};
use dsmatch_dm::{dulmage_mendelsohn, fine_decomposition};
use dsmatch_exact::{
    bfs_augment_from, hopcroft_karp_cancel_ws, hopcroft_karp_par_cancel, pothen_fan_cancel_ws,
    pothen_fan_graft_cancel, pothen_fan_par_cancel, push_relabel_cancel,
};
use dsmatch_graph::{
    BipartiteGraph, CancelToken, Cancelled, Matching, TripletMatrix, UndirectedGraph, NIL,
};
use dsmatch_scale::{ruiz_cancel_into, sinkhorn_knopp_cancel_into, ScalingConfig, ScalingResult};
use dsmatch_weighted::{
    greedy_weighted, matching_weight, path_growing, suitor, suitor_parallel, WeightedGraph,
};
use rayon::prelude::*;

use super::registry::{AlgorithmKind, WeightedKind};
use super::report::{SolveReport, StageReport};
use super::spec::{SpecError, StageKind};
use super::workspace::Workspace;

/// A solver: anything that maps a graph (plus reusable workspace) to an
/// instrumented matching. Implemented by [`Pipeline`].
pub trait Solver {
    /// Solve `g`, reusing the scratch buffers in `ws`.
    fn solve(&self, g: &BipartiteGraph, ws: &mut Workspace) -> SolveReport;
}

/// Which doubly-stochastic scaling iteration a `scale` stage runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleMethod {
    /// Parallel Sinkhorn–Knopp, the paper's Algorithm 1 (`sk`).
    SinkhornKnopp,
    /// Ruiz equilibration in the 1-norm (`ruiz`).
    Ruiz,
}

impl ScaleMethod {
    /// Spec name (`sk` / `ruiz`).
    pub fn name(&self) -> &'static str {
        match self {
            ScaleMethod::SinkhornKnopp => "sk",
            ScaleMethod::Ruiz => "ruiz",
        }
    }
}

/// The optional first stage of a [`Pipeline`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScaleStage {
    /// Iteration family.
    pub method: ScaleMethod,
    /// Stopping rule (the paper's experiments: a fixed iteration count).
    pub config: ScalingConfig,
}

impl ScaleStage {
    /// Spec-grammar label, e.g. `scale:sk:5`.
    pub fn label(&self) -> String {
        format!("scale:{}:{}", self.method.name(), self.config.max_iterations)
    }
}

/// The workload stage of a [`Pipeline`]: what actually computes a matching.
///
/// v1 specs only had cardinality algorithms in this slot; grammar v2 makes
/// the stage **typed**, adding weighted heuristics (the scaled entries
/// become edge weights) and decomposition-driven solves (`dm,<pipeline>`:
/// coarse + fine Dulmage–Mendelsohn, fine blocks solved independently by
/// the inner pipeline and stitched back through the block permutation).
#[derive(Clone, Debug, PartialEq)]
pub enum Workload {
    /// A cardinality algorithm from the [`AlgorithmKind`] registry — the
    /// entire v1 grammar.
    Cardinality(AlgorithmKind),
    /// A weighted heuristic from the [`WeightedKind`] registry, matching
    /// on the scaling entries `s_ij = d_r[i]·d_c[j]` as edge weights (the
    /// paper's probability bridge: the doubly stochastic limit assigns
    /// each entry its probability of being matched, so the weighted
    /// heuristics chase exactly the edges scaling considers likely).
    Weighted(WeightedKind),
    /// A `dm,<pipeline>` decomposition solve: the inner pipeline runs on
    /// every non-trivial fine block as an independent, stealable job.
    Decompose(Box<Pipeline>),
}

impl Workload {
    /// Whether this workload reads the workspace's scaling factors when no
    /// explicit `scale` stage precedes it (weighted workloads always do —
    /// without scaling they degrade to uniform weights; decomposition
    /// defers the question to its inner pipeline per block).
    pub fn uses_scaling(&self) -> bool {
        match self {
            Workload::Cardinality(a) => a.uses_scaling(),
            Workload::Weighted(_) => true,
            Workload::Decompose(_) => false,
        }
    }
}

/// A composed solve: optional scaling, one workload, optional exact
/// augmentation finisher seeded with the workload's matching — the paper's
/// full experimental protocol (§4) as one first-class object.
///
/// Specs are parsed from the CLI grammar v2 (see
/// [`StageKind`](crate::engine::StageKind) for the typed-stage rules):
///
/// ```text
/// <pipeline> ::= dm,<pipeline>
///              | [scale[:sk|ruiz][:iters],]<workload>[,<exact-finisher>]
/// <workload> ::= <algorithm> | greedy-w | path-grow | suitor | suitor-par
/// ```
///
/// ```
/// use dsmatch::engine::{Pipeline, Solver, Workspace};
///
/// let g = dsmatch::gen::erdos_renyi_square(500, 4.0, 7);
/// let pipeline: Pipeline = "scale:sk:5,two,pf".parse().unwrap();
/// let mut ws = Workspace::new();
/// let report = pipeline.solve(&g, &mut ws);
/// assert_eq!(report.stages.len(), 3);
/// // The Pothen–Fan finisher makes the composition exact.
/// assert_eq!(report.cardinality(), dsmatch::exact::sprank(&g));
///
/// // v2: weighted workloads report a "weight" quality axis …
/// let weighted: Pipeline = "scale:sk:5,suitor".parse().unwrap();
/// assert!(weighted.solve(&g, &mut ws).weight.is_some());
/// // … and dm,<pipeline> solves fine blocks independently.
/// let dm: Pipeline = "dm,two,pf".parse().unwrap();
/// assert_eq!(dm.solve(&g, &mut ws).cardinality(), dsmatch::exact::sprank(&g));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Pipeline {
    /// Optional scaling stage. Without it, sampling heuristics draw
    /// uniformly over adjacency lists (the paper's "0 iterations" rows)
    /// and weighted workloads see uniform weights.
    ///
    /// The stage runs (and is timed) whenever present, but only the
    /// sampling workloads ([`Workload::uses_scaling`]) read its
    /// factors — `scale:sk:5,ks` computes scaling that `ks` never
    /// consults, which is occasionally useful for measuring scaling cost
    /// in isolation but is otherwise pure overhead.
    pub scale: Option<ScaleStage>,
    /// The workload stage.
    pub workload: Workload,
    /// Optional exact finisher warm-started from the workload's matching.
    pub augment: Option<AlgorithmKind>,
    /// PRNG seed for the randomized stages.
    pub seed: u64,
}

/// Default number of scaling iterations when a spec says `scale` with no
/// count (§4.1.2 of the paper: five iterations suffice on most instances).
pub const DEFAULT_SCALE_ITERATIONS: usize = 5;

impl Pipeline {
    /// A single-algorithm pipeline with no scale or augment stage.
    pub fn bare(algorithm: AlgorithmKind) -> Self {
        Self { scale: None, workload: Workload::Cardinality(algorithm), augment: None, seed: 1 }
    }

    /// The classic driver composition: `iters` Sinkhorn–Knopp iterations
    /// (when the algorithm samples) followed by `algorithm` — exactly what
    /// the old `--algo` CLI interface ran.
    pub fn classic(algorithm: AlgorithmKind, iters: usize, seed: u64) -> Self {
        let scale = algorithm.uses_scaling().then_some(ScaleStage {
            method: ScaleMethod::SinkhornKnopp,
            config: ScalingConfig::iterations(iters),
        });
        Self { scale, workload: Workload::Cardinality(algorithm), augment: None, seed }
    }

    /// Replace the seed (specs don't carry one).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Spec-grammar form of this pipeline (parses back to itself).
    pub fn spec(&self) -> String {
        if let Workload::Decompose(inner) = &self.workload {
            return format!("dm,{}", inner.spec());
        }
        let mut parts = Vec::new();
        if let Some(s) = &self.scale {
            parts.push(s.label());
        }
        parts.push(match &self.workload {
            Workload::Cardinality(a) => a.name().to_string(),
            Workload::Weighted(w) => w.name().to_string(),
            Workload::Decompose(_) => unreachable!("handled above"),
        });
        if let Some(a) = &self.augment {
            parts.push(a.name().to_string());
        }
        parts.join(",")
    }
}

/// Parse a flat (non-`dm`) classified stage list:
/// `[scale,]<workload>[,<finisher>]`. `spec` is the full original string
/// for error messages.
fn parse_flat(pairs: &[(&str, StageKind)], spec: &str) -> Result<Pipeline, SpecError> {
    if pairs.iter().any(|(_, k)| matches!(k, StageKind::Decompose)) {
        return Err(SpecError::MisplacedDecomposition { spec: spec.to_string() });
    }
    let (scale, rest) = match pairs {
        [(_, StageKind::Scale(st)), rest @ ..] => (Some(*st), rest),
        rest => (None, rest),
    };
    // A scale token past the first stage was never a workload name.
    let as_workload = |&(token, kind): &(&str, StageKind)| match kind {
        StageKind::Algorithm(a) => Ok(Workload::Cardinality(a)),
        StageKind::Weighted(w) => Ok(Workload::Weighted(w)),
        _ => Err(SpecError::UnknownAlgorithm { name: token.to_string() }),
    };
    let (workload, augment) = match rest {
        [] => return Err(SpecError::MissingAlgorithm { spec: spec.to_string() }),
        [w] => (as_workload(w)?, None),
        [w, f] => {
            let workload = as_workload(w)?;
            let finisher = match *f {
                (_, StageKind::Algorithm(a)) => a,
                (_, StageKind::Weighted(k)) => {
                    return Err(SpecError::WeightedAsFinisher { finisher: k });
                }
                (token, _) => return Err(SpecError::UnknownAlgorithm { name: token.to_string() }),
            };
            if let Workload::Weighted(k) = workload {
                return Err(SpecError::WeightedWithFinisher { algorithm: k, finisher });
            }
            (workload, Some(finisher))
        }
        _ => return Err(SpecError::TooManyStages { spec: spec.to_string() }),
    };
    if let (Workload::Cardinality(algorithm), Some(finisher)) = (&workload, augment) {
        if !finisher.is_exact() {
            return Err(SpecError::NonExactFinisher { finisher });
        }
        if algorithm.is_exact() {
            return Err(SpecError::RedundantFinisher { algorithm: *algorithm, finisher });
        }
    }
    Ok(Pipeline { scale, workload, augment, seed: 1 })
}

impl std::str::FromStr for Pipeline {
    type Err = SpecError;

    /// Parse the v2 grammar:
    /// `dm,<pipeline>` or `[scale[:sk|ruiz][:iters],]<workload>[,<exact-finisher>]`.
    ///
    /// Every token is classified through [`StageKind`] first, then
    /// validated by type rather than position — which is what keeps every
    /// v1 string parsing byte-identically while `suitor` and `dm,`
    /// stages slot in. Failures are typed ([`SpecError`]) so callers — the
    /// CLI, the `dsmatch serve` protocol, tests — can branch on the
    /// variant while `Display` carries the human-readable message:
    ///
    /// ```
    /// use dsmatch::engine::{AlgorithmKind, Pipeline, SpecError};
    ///
    /// assert_eq!(
    ///     "two,frobnicate".parse::<Pipeline>().unwrap_err(),
    ///     SpecError::UnknownAlgorithm { name: "frobnicate".into() },
    /// );
    /// assert!(matches!(
    ///     "two,ks".parse::<Pipeline>().unwrap_err(),
    ///     SpecError::NonExactFinisher { finisher: AlgorithmKind::KarpSipser },
    /// ));
    /// assert!(matches!(
    ///     "scale:1e2,two".parse::<Pipeline>().unwrap_err(),
    ///     SpecError::BadIters { .. },
    /// ));
    /// assert!(matches!(
    ///     "dm".parse::<Pipeline>().unwrap_err(),
    ///     SpecError::EmptyDecomposition { .. },
    /// ));
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let tokens: Vec<&str> = s.split(',').map(str::trim).collect();
        if tokens.iter().any(|t| t.is_empty()) {
            return Err(SpecError::EmptyStage { spec: s.to_string() });
        }
        let pairs = tokens
            .iter()
            .map(|&t| StageKind::classify(t, s).map(|k| (t, k)))
            .collect::<Result<Vec<_>, _>>()?;
        if let Some((_, StageKind::Decompose)) = pairs.first() {
            let inner = &pairs[1..];
            if inner.is_empty() {
                return Err(SpecError::EmptyDecomposition { spec: s.to_string() });
            }
            if matches!(inner.first(), Some((_, StageKind::Decompose))) {
                return Err(SpecError::NestedDecomposition { spec: s.to_string() });
            }
            let inner = parse_flat(inner, s)?;
            return Ok(Pipeline {
                scale: None,
                workload: Workload::Decompose(Box::new(inner)),
                augment: None,
                seed: 1,
            });
        }
        parse_flat(&pairs, s)
    }
}

impl std::fmt::Display for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec())
    }
}

/// Time one matching stage and fill in its report's label, seconds and
/// cardinality; `run` supplies the matching and the stage's counters. The
/// workload stage, the pipeline's `augment:` finisher and serve's `delta:`
/// re-solve all report through here.
pub(crate) fn timed_stage(
    label: String,
    run: impl FnOnce() -> Result<(Matching, StageReport), Cancelled>,
) -> Result<(Matching, StageReport), Cancelled> {
    let t0 = Instant::now();
    let (matching, stage) = run()?;
    let seconds = t0.elapsed().as_secs_f64();
    let cardinality = Some(matching.cardinality());
    Ok((matching, StageReport { stage: label, seconds, cardinality, ..stage }))
}

/// Run the algorithm stage, sampling from the workspace's current factors.
/// Heuristics report no counters; exact algorithms report their engine's.
fn run_algorithm(
    algo: AlgorithmKind,
    g: &BipartiteGraph,
    seed: u64,
    ws: &mut Workspace,
    token: &CancelToken,
) -> Result<(Matching, StageReport), Cancelled> {
    let matching = match algo {
        AlgorithmKind::OneSided => one_sided_match_ws(g, &ws.scaling, seed, &mut ws.heur),
        AlgorithmKind::TwoSided | AlgorithmKind::KarpSipserMt => {
            two_sided_match_cancel_ws(g, &ws.scaling, seed, &mut ws.heur, token)?
        }
        AlgorithmKind::OneOutUndirected => one_out_bipartite(g, seed, ws),
        AlgorithmKind::KarpSipser => {
            karp_sipser_cancel_ws(g, &KarpSipserConfig { seed }, &mut ws.heur.ks, token)?.matching
        }
        AlgorithmKind::CheapEdge => cheap_random_edge(g, seed),
        AlgorithmKind::CheapVertex => cheap_random_vertex(g, seed),
        AlgorithmKind::HopcroftKarp
        | AlgorithmKind::PothenFan
        | AlgorithmKind::PushRelabel
        | AlgorithmKind::BfsAugment
        | AlgorithmKind::HopcroftKarpPar
        | AlgorithmKind::PothenFanPar
        | AlgorithmKind::PothenFanGraft
        | AlgorithmKind::Auto => return run_augment(algo, g, None, ws, token),
    };
    Ok((matching, StageReport::default()))
}

/// Feed `initial` into the exact finisher `algo` (`None`: solve cold) and
/// return the matching with the engine's work counters (augmentations,
/// phases, and for `auto` the engine it selected) in an otherwise empty
/// stage report. Shared by the pipeline's augment stage, the exact
/// algorithm stages above, and the `serve` daemon's warm delta re-solves.
///
/// The token reaches the phase/epoch loops of the cancellable finishers
/// (`hk-par`, `pf-par`, `pf-graft`, `pr`) and the periodic polls inside
/// the sequential engines (`hk`: once per phase; `pf`: every 256 DFS
/// roots); only the one-shot `bfs` sweep runs to completion regardless.
pub(crate) fn run_augment(
    algo: AlgorithmKind,
    g: &BipartiteGraph,
    initial: Option<Matching>,
    ws: &mut Workspace,
    token: &CancelToken,
) -> Result<(Matching, StageReport), Cancelled> {
    let counted = |augmentations, phases| StageReport {
        augmentations: Some(augmentations),
        phases,
        ..StageReport::default()
    };
    let cold = || Matching::new(g.nrows(), g.ncols());
    Ok(match algo {
        AlgorithmKind::HopcroftKarp => {
            let (m, s) = hopcroft_karp_cancel_ws(g, initial.as_ref(), &mut ws.augment, token)?;
            (m, counted(s.augmentations, Some(s.phases)))
        }
        AlgorithmKind::PothenFan => {
            let (m, s) = pothen_fan_cancel_ws(g, initial.as_ref(), &mut ws.augment, token)?;
            (m, counted(s.augmentations, None))
        }
        AlgorithmKind::PushRelabel => {
            (push_relabel_cancel(g, initial.unwrap_or_else(cold), token)?.0, StageReport::default())
        }
        AlgorithmKind::BfsAugment => {
            let (m, s) = bfs_augment_from(g, initial.unwrap_or_else(cold));
            (m, counted(s.augmentations, None))
        }
        AlgorithmKind::HopcroftKarpPar => {
            let (m, s) = hopcroft_karp_par_cancel(g, initial.as_ref(), &mut ws.augment, token)?;
            (m, counted(s.augmentations, Some(s.phases)))
        }
        AlgorithmKind::PothenFanPar => {
            let (m, s) = pothen_fan_par_cancel(g, initial.as_ref(), &mut ws.augment, token)?;
            (m, counted(s.augmentations, Some(s.phases)))
        }
        AlgorithmKind::PothenFanGraft => {
            let (m, s) = pothen_fan_graft_cancel(g, initial.as_ref(), &mut ws.augment, token)?;
            (m, counted(s.augmentations, Some(s.phases)))
        }
        AlgorithmKind::Auto => {
            // Pick from instance statistics, run the pick, and surface the
            // decision so reports (and serve delta replies) can show it.
            let pick = super::registry::select_finisher(g);
            debug_assert!(pick.is_exact() && pick != AlgorithmKind::Auto);
            let (m, stage) = run_augment(pick, g, initial, ws, token)?;
            (m, StageReport { selected: Some(pick.name().to_string()), ..stage })
        }
        other => unreachable!("{other} is not exact; rejected at parse/validation time"),
    })
}

/// The §5 one-out undirected variant on the bipartite graph viewed as one
/// vertex class: every vertex (row or column) samples one neighbour from
/// the current factors, and the functional graph is matched exactly. The
/// concatenated factor vector `(dr, dc)` *is* the symmetric scaling of the
/// bipartite adjacency, so the same sampling weights apply.
fn one_out_bipartite(g: &BipartiteGraph, seed: u64, ws: &mut Workspace) -> Matching {
    let n_r = g.nrows();
    let Workspace { scaling, heur, .. } = ws;
    two_sided_choices_into(g, scaling, seed, &mut heur.rchoice, &mut heur.cchoice);
    // Unified one-class choice array (column ids offset by `n_r`), reusing
    // the Algorithm 4 concatenation buffer.
    let choice = &mut heur.ksmt.choice;
    choice.clear();
    choice.extend(
        heur.rchoice.iter().map(|&j| if j == NIL { NIL } else { (j as usize + n_r) as u32 }),
    );
    choice.extend_from_slice(&heur.cchoice);
    let um = one_out_matching(choice);
    let mut rmate = vec![NIL; n_r];
    let mut cmate = vec![NIL; g.ncols()];
    for i in 0..n_r {
        let v = um.mate(i);
        if v != NIL {
            debug_assert!(v as usize >= n_r, "bipartite edges only cross sides");
            rmate[i] = v - n_r as u32;
            cmate[(v as usize) - n_r] = i as u32;
        }
    }
    Matching::from_mates(rmate, cmate)
}

impl Solver for Pipeline {
    /// Solve `g`. When `ws` owns a thread pool ([`Workspace::with_threads`])
    /// every stage executes with that pool installed, so the parallel
    /// kernels run on its workers; otherwise the ambient pool is used.
    fn solve(&self, g: &BipartiteGraph, ws: &mut Workspace) -> SolveReport {
        self.solve_cancel(g, ws, &CancelToken::unbounded()).expect("unbounded token never cancels")
    }
}

impl Pipeline {
    /// [`Solver::solve`] with cooperative cancellation: the token reaches
    /// the scaling iteration loop and the phase/epoch loops of the
    /// cancellable exact finishers, so a deadline or explicit cancel is
    /// observed within one phase. On [`Cancelled`] the workspace stays
    /// reusable — a subsequent solve on it produces byte-identical output
    /// to a fresh workspace.
    pub fn solve_cancel(
        &self,
        g: &BipartiteGraph,
        ws: &mut Workspace,
        token: &CancelToken,
    ) -> Result<SolveReport, Cancelled> {
        ws.run(|ws| self.solve_stages(g, ws, token))
    }

    /// The stage driver behind [`Solver::solve`], running in whatever pool
    /// context the caller established.
    fn solve_stages(
        &self,
        g: &BipartiteGraph,
        ws: &mut Workspace,
        token: &CancelToken,
    ) -> Result<SolveReport, Cancelled> {
        if let Workload::Decompose(inner) = &self.workload {
            return self.solve_decompose(g, inner, ws, token);
        }

        let mut stages = Vec::with_capacity(3);
        let mut scaling_iterations = None;
        let mut scaling_error = None;

        if let Some(stage) = &self.scale {
            let t0 = Instant::now();
            match stage.method {
                ScaleMethod::SinkhornKnopp => {
                    sinkhorn_knopp_cancel_into(g, &stage.config, &mut ws.scaling, token)?
                }
                ScaleMethod::Ruiz => ruiz_cancel_into(g, &stage.config, &mut ws.scaling, token)?,
            }
            stages.push(StageReport {
                stage: stage.label(),
                seconds: t0.elapsed().as_secs_f64(),
                ..StageReport::default()
            });
            scaling_iterations = Some(ws.scaling.iterations);
            scaling_error = Some(ws.scaling.error);
        } else if self.workload.uses_scaling() {
            // Uniform sampling: reset the factor buffers to the identity
            // (reusing their allocation) so the stage below can read them.
            ws.scaling.reset_identity(g);
        }

        let (matching, stage) = match &self.workload {
            Workload::Cardinality(algo) => timed_stage(algo.name().to_string(), || {
                run_algorithm(*algo, g, self.seed, ws, token)
            })?,
            Workload::Weighted(kind) => {
                timed_stage(kind.name().to_string(), || run_weighted(*kind, g, ws, token))?
            }
            Workload::Decompose(_) => unreachable!("handled above"),
        };
        let weight = stage.weight;
        stages.push(stage);

        let matching = match self.augment {
            Some(finisher) => {
                let (m, stage) = timed_stage(format!("augment:{finisher}"), || {
                    run_augment(finisher, g, Some(matching), ws, token)
                })?;
                stages.push(stage);
                m
            }
            None => matching,
        };

        let mut report = SolveReport::new(matching, stages);
        report.scaling_iterations = scaling_iterations;
        report.scaling_error = scaling_error;
        report.weight = weight;
        Ok(report)
    }

    /// Solve a `dm,<inner>` workload: coarse + fine Dulmage–Mendelsohn
    /// decomposition, every non-trivial fine block extracted as its own
    /// bipartite instance and solved independently by `inner` as a
    /// stealable job on the workspace's block pool, and the block mates
    /// stitched back through the block permutation.
    ///
    /// Determinism contract: block boundaries, per-block seeds, and stitch
    /// order depend only on the instance — never on pool size — and every
    /// block solves on a pinned 1-thread slot workspace, so the stitched
    /// mates are byte-identical at every thread count.
    fn solve_decompose(
        &self,
        g: &BipartiteGraph,
        inner: &Pipeline,
        ws: &mut Workspace,
        token: &CancelToken,
    ) -> Result<SolveReport, Cancelled> {
        token.check()?;
        let t0 = Instant::now();
        let dm = dulmage_mendelsohn(g);
        let fine = fine_decomposition(g, &dm);
        let mut stages = vec![StageReport {
            stage: "dm".to_string(),
            seconds: t0.elapsed().as_secs_f64(),
            cardinality: Some(dm.sprank()),
            phases: Some(fine.block_count),
            ..StageReport::default()
        }];

        // Mates start from the coarse matching: horizontal/vertical
        // vertices and singleton blocks keep their DM mates (already
        // maximum there); multi-pair blocks are re-solved below.
        let mut rmate = dm.matching.rmates().to_vec();
        let mut cmate = dm.matching.cmates().to_vec();

        // Group S rows/columns by fine block in ascending original order —
        // the deterministic local numbering the stitch inverts.
        let mut rows_of: Vec<Vec<u32>> = vec![Vec::new(); fine.block_count];
        let mut cols_of: Vec<Vec<u32>> = vec![Vec::new(); fine.block_count];
        for i in 0..g.nrows() {
            if fine.block_of_row[i] != NIL {
                rows_of[fine.block_of_row[i] as usize].push(i as u32);
            }
        }
        for j in 0..g.ncols() {
            if fine.block_of_col[j] != NIL {
                cols_of[fine.block_of_col[j] as usize].push(j as u32);
            }
        }
        let mut col_local = vec![NIL; g.ncols()];
        for cols in &cols_of {
            for (lj, &j) in cols.iter().enumerate() {
                col_local[j as usize] = lj as u32;
            }
        }

        // Extract each block of ≥ 2 pairs as its own instance. Only
        // intra-block entries carry over: cross-block entries are the `∗`
        // entries of the block triangular form and can never be matching
        // edges of the block.
        let t1 = Instant::now();
        let mut jobs: Vec<(usize, BipartiteGraph)> = Vec::new();
        for b in 0..fine.block_count {
            if fine.block_sizes[b] < 2 {
                continue;
            }
            token.check()?;
            let (rows, cols) = (&rows_of[b], &cols_of[b]);
            let mut t = TripletMatrix::new(rows.len(), cols.len());
            for (li, &i) in rows.iter().enumerate() {
                for &j in g.row_adj(i as usize) {
                    if fine.block_of_col[j as usize] == b as u32 {
                        t.push(li, col_local[j as usize] as usize);
                    }
                }
            }
            jobs.push((b, BipartiteGraph::from_csr(t.into_csr())));
        }

        // Fan the blocks out: stealable jobs, one pinned 1-thread slot
        // workspace each, order-preserving collect.
        let seed = self.seed;
        let pool = ws.dm_pool();
        let solved: Vec<Result<SolveReport, Cancelled>> = pool.run(|| {
            jobs.par_iter()
                .with_max_len(1)
                .map(|(b, sub)| {
                    pool.with_workspace(|bws| {
                        inner
                            .clone()
                            .with_seed(seed.wrapping_add(*b as u64))
                            .solve_cancel(sub, bws, token)
                    })
                })
                .collect()
        });

        let mut reports = Vec::with_capacity(jobs.len());
        for ((b, _), result) in jobs.iter().zip(solved) {
            reports.push((*b, result?));
        }
        for (b, report) in &reports {
            let (rows, cols) = (&rows_of[*b], &cols_of[*b]);
            for (li, &i) in rows.iter().enumerate() {
                let lj = report.matching.rmate(li);
                rmate[i as usize] = if lj == NIL { NIL } else { cols[lj as usize] };
            }
            for (lj, &j) in cols.iter().enumerate() {
                let li = report.matching.cmate(lj);
                cmate[j as usize] = if li == NIL { NIL } else { rows[li as usize] };
            }
        }

        // Per-block stage reports while they stay readable; one aggregate
        // line for decompositions with many solved blocks.
        const MAX_PER_BLOCK_REPORTS: usize = 8;
        if reports.len() <= MAX_PER_BLOCK_REPORTS {
            for (b, report) in &reports {
                stages.push(StageReport {
                    stage: format!("dm[{b}]:{}", inner.spec()),
                    seconds: report.total_seconds(),
                    cardinality: Some(report.cardinality()),
                    weight: report.weight,
                    ..StageReport::default()
                });
            }
        } else {
            stages.push(StageReport {
                stage: format!("dm[{} blocks]:{}", reports.len(), inner.spec()),
                seconds: t1.elapsed().as_secs_f64(),
                cardinality: Some(reports.iter().map(|(_, r)| r.cardinality()).sum()),
                ..StageReport::default()
            });
        }

        Ok(SolveReport::new(Matching::from_mates(rmate, cmate), stages))
    }
}

/// The weighted view of `g` under `scaling`: the scaled entries
/// `s_ij = d_r[i]·d_c[j]` become edge weights (the paper's probability
/// bridge — the doubly stochastic limit assigns each entry its
/// probability of being matched, so the weighted heuristics chase exactly
/// the edges scaling considers likely) on one undirected graph over
/// rows-then-columns, row `i` as vertex `i` and column `j` as vertex
/// `nrows + j`. Built from the CSR and CSC in `O(n + nnz)`, with no sort
/// and no search.
///
/// Degenerate factors (structurally deficient instances scale entries to
/// 0 or non-finite values) would make an edge unusable; such an edge gets
/// the smallest positive weight instead. Both entries of an edge map back
/// to the same `(i, j)`, so they hold the same bits, as [`WeightedGraph`]
/// requires.
pub fn weighted_view(g: &BipartiteGraph, scaling: &ScalingResult) -> WeightedGraph {
    let n_r = g.nrows();
    WeightedGraph::from_fn(UndirectedGraph::from_bipartite(g), |u, v| {
        let (i, j) = if u < n_r { (u, v - n_r) } else { (v, u - n_r) };
        let w = scaling.entry(i, j);
        if w.is_finite() && w > 0.0 {
            w
        } else {
            f64::MIN_POSITIVE
        }
    })
}

/// Run a weighted workload: the selected heuristic matches the
/// [`weighted_view`] of `g` under the workspace's scaling factors.
/// Returns the matching translated back to bipartite mates, with its total
/// weight in an otherwise empty stage report.
fn run_weighted(
    kind: WeightedKind,
    g: &BipartiteGraph,
    ws: &mut Workspace,
    token: &CancelToken,
) -> Result<(Matching, StageReport), Cancelled> {
    token.check()?;
    let n_r = g.nrows();
    let wg = weighted_view(g, &ws.scaling);
    token.check()?;
    let um = match kind {
        WeightedKind::GreedyWeighted => greedy_weighted(&wg),
        WeightedKind::PathGrowing => path_growing(&wg),
        WeightedKind::Suitor => suitor(&wg),
        WeightedKind::SuitorParallel => suitor_parallel(&wg),
    };
    let weight = matching_weight(&wg, &um);
    let mut matching = Matching::new(n_r, g.ncols());
    for (u, v) in um.iter_pairs() {
        debug_assert!(u < n_r && v >= n_r, "bipartite edges cross sides");
        matching.set(u, v - n_r);
    }
    Ok((matching, StageReport { weight: Some(weight), ..StageReport::default() }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrip() {
        for spec in [
            "two",
            "hk",
            "scale:sk:5,two",
            "scale:ruiz:10,one",
            "scale:sk:5,two,pf",
            "scale:sk:0,ksmt,hk",
            "cheap,bfs",
            "scale:sk:5,two,pf-par",
            "scale:sk:5,two,hk-par",
            "scale:sk:5,two,pf-graft",
            "scale:sk:5,two,auto",
            "pf-par",
            "auto",
            // v2: weighted workloads and decomposition prefixes.
            "scale:sk:5,suitor",
            "greedy-w",
            "path-grow",
            "suitor-par",
            "scale:ruiz:3,greedy-w",
            "dm,two,pf",
            "dm,scale:sk:5,two",
            "dm,hk",
            "dm,suitor",
        ] {
            let p: Pipeline = spec.parse().unwrap();
            assert_eq!(p.spec(), spec, "roundtrip of {spec}");
            let again: Pipeline = p.spec().parse().unwrap();
            assert_eq!(again, p);
        }
    }

    #[test]
    fn spec_sugar_and_errors() {
        let p: Pipeline = "scale,two".parse().unwrap();
        assert_eq!(p.spec(), format!("scale:sk:{DEFAULT_SCALE_ITERATIONS},two"));
        let p: Pipeline = "scale:8,two".parse().unwrap();
        assert_eq!(p.scale.unwrap().config.max_iterations, 8);
        assert!("".parse::<Pipeline>().is_err());
        assert!("scale".parse::<Pipeline>().is_err(), "scale alone names no algorithm");
        assert!("two,ks".parse::<Pipeline>().is_err(), "finisher must be exact");
        assert!("hk,pf".parse::<Pipeline>().is_err(), "exact + finisher is redundant");
        assert!("scale:bogus,two".parse::<Pipeline>().is_err());
        assert!("scale,two,pf,hk".parse::<Pipeline>().is_err());
        assert!("two,,pf".parse::<Pipeline>().is_err());
    }

    #[test]
    fn v2_spec_errors_are_typed() {
        assert!(matches!(
            "dm".parse::<Pipeline>().unwrap_err(),
            SpecError::EmptyDecomposition { .. }
        ));
        assert!(matches!(
            "dm,dm,two".parse::<Pipeline>().unwrap_err(),
            SpecError::NestedDecomposition { .. }
        ));
        assert!(matches!(
            "two,dm".parse::<Pipeline>().unwrap_err(),
            SpecError::MisplacedDecomposition { .. }
        ));
        assert!(matches!(
            "dm,two,dm".parse::<Pipeline>().unwrap_err(),
            SpecError::MisplacedDecomposition { .. }
        ));
        assert!(matches!(
            "scale:sk:5,dm,two".parse::<Pipeline>().unwrap_err(),
            SpecError::MisplacedDecomposition { .. }
        ));
        assert_eq!(
            "suitor,hk".parse::<Pipeline>().unwrap_err(),
            SpecError::WeightedWithFinisher {
                algorithm: WeightedKind::Suitor,
                finisher: AlgorithmKind::HopcroftKarp,
            },
        );
        assert_eq!(
            "two,suitor".parse::<Pipeline>().unwrap_err(),
            SpecError::WeightedAsFinisher { finisher: WeightedKind::Suitor },
        );
        // Mid-spec scale tokens were never workload names — the v1 error.
        assert_eq!(
            "scale:sk:5,scale,two".parse::<Pipeline>().unwrap_err(),
            SpecError::UnknownAlgorithm { name: "scale".into() },
        );
    }

    #[test]
    fn weighted_solve_reports_weight() {
        let g = crate::gen::erdos_renyi_square(200, 4.0, 11);
        let mut ws = Workspace::new();
        let p: Pipeline = "scale:sk:5,suitor".parse().unwrap();
        let report = p.solve(&g, &mut ws);
        report.matching.verify(&g).unwrap();
        let w = report.weight.expect("weighted workloads report a weight");
        assert!(w.is_finite() && w > 0.0);
        assert_eq!(report.stages.last().unwrap().weight, Some(w));
    }

    #[test]
    fn dm_solve_reaches_sprank_with_exact_inner() {
        let g = crate::gen::erdos_renyi_square(300, 3.0, 5);
        let mut ws = Workspace::new();
        let p: Pipeline = "dm,two,pf".parse().unwrap();
        let report = p.solve(&g, &mut ws);
        report.matching.verify(&g).unwrap();
        assert_eq!(report.cardinality(), dsmatch_exact::sprank(&g));
        assert_eq!(report.stages[0].stage, "dm");
    }

    #[test]
    fn classic_matches_spec_semantics() {
        let p = Pipeline::classic(AlgorithmKind::TwoSided, 5, 42);
        assert_eq!(p.spec(), "scale:sk:5,two");
        assert_eq!(p.seed, 42);
        // Non-sampling algorithms get no scale stage.
        let p = Pipeline::classic(AlgorithmKind::KarpSipser, 5, 1);
        assert_eq!(p.spec(), "ks");
    }
}
