//! Instrumented solve results: what every [`Solver`](crate::engine::Solver)
//! run returns.

use dsmatch_graph::Matching;
use dsmatch_json::Json;

/// Timing and outcome of one pipeline stage.
#[derive(Clone, Debug, Default)]
pub struct StageReport {
    /// Stage label in spec grammar (`"scale:sk:5"`, `"two"`, `"augment:pf"`).
    pub stage: String,
    /// Wall time of the stage in seconds.
    pub seconds: f64,
    /// Matching cardinality after the stage (`None` for the scale stage).
    pub cardinality: Option<usize>,
    /// Augmenting paths applied (augment finishers and exact stages that
    /// report work counters).
    pub augmentations: Option<usize>,
    /// Search phases executed, including the final certifying phase
    /// (the Hopcroft–Karp engines and the tree-grafting `pf-par`). A warm
    /// start that is already maximum finishes in exactly one phase — the
    /// counter behind the serve daemon's cheap delta re-solves.
    pub phases: Option<usize>,
    /// For the `auto` finisher: the spec name of the exact engine its
    /// statistics policy actually ran (`None` for every other stage).
    pub selected: Option<String>,
    /// Total matching weight after a weighted stage (`None` for
    /// cardinality stages) — the quality axis of the weighted workloads,
    /// measured in the scaled-entry weights the stage optimized.
    pub weight: Option<f64>,
}

/// Result of one engine solve: the matching plus per-stage instrumentation.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// The computed (verified-valid) matching.
    pub matching: Matching,
    /// One entry per executed stage, in execution order.
    pub stages: Vec<StageReport>,
    /// Scaling iterations actually performed (when a scale stage ran).
    pub scaling_iterations: Option<usize>,
    /// Final scaling error `max_j |Σ_i s_ij − 1|` (when a scale stage ran).
    pub scaling_error: Option<f64>,
    /// Quality ratio against the exact optimum; filled by
    /// [`SolveReport::set_quality`] when the caller requests it.
    pub quality: Option<f64>,
    /// The deadline budget the job ran under, in milliseconds (`None`:
    /// no deadline). Recorded even on success so clients can correlate
    /// observed latency with the budget they requested.
    pub deadline_ms: Option<u64>,
    /// Total weight of the final matching under the solve's edge weights
    /// (`None` for pure-cardinality pipelines). Reported alongside
    /// cardinality: a weighted solve answers both "how many pairs" and
    /// "how heavy".
    pub weight: Option<f64>,
}

impl SolveReport {
    /// A report of `matching` after `stages`, with no scaling, quality,
    /// deadline or weight recorded yet.
    pub(crate) fn new(matching: Matching, stages: Vec<StageReport>) -> Self {
        Self {
            matching,
            stages,
            scaling_iterations: None,
            scaling_error: None,
            quality: None,
            deadline_ms: None,
            weight: None,
        }
    }

    /// Cardinality of the final matching.
    pub fn cardinality(&self) -> usize {
        self.matching.cardinality()
    }

    /// Total wall time across all stages, in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.seconds).sum()
    }

    /// Record the quality ratio against the exact optimum `opt`
    /// (the paper's §4 measurement protocol).
    pub fn set_quality(&mut self, opt: usize) {
        self.quality = Some(self.matching.quality(opt));
    }

    /// Machine-readable form (the CLI's `--json` payload per solve).
    pub fn to_json(&self) -> Json {
        let stages = self
            .stages
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("stage", Json::from(s.stage.as_str())),
                    ("seconds", Json::from(s.seconds)),
                    ("cardinality", Json::opt(s.cardinality)),
                    ("augmentations", Json::opt(s.augmentations)),
                    ("phases", Json::opt(s.phases)),
                    ("selected", Json::opt(s.selected.as_deref())),
                    ("weight", Json::opt(s.weight)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("cardinality", Json::from(self.cardinality())),
            ("seconds", Json::from(self.total_seconds())),
            ("stages", Json::Arr(stages)),
            ("scaling_iterations", Json::opt(self.scaling_iterations)),
            ("scaling_error", Json::opt(self.scaling_error)),
            ("quality", Json::opt(self.quality)),
            ("deadline_ms", Json::opt(self.deadline_ms)),
            ("weight", Json::opt(self.weight)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let stage = StageReport {
            stage: "two".into(),
            seconds: 0.5,
            cardinality: Some(0),
            phases: Some(3),
            selected: Some("pr".into()),
            ..StageReport::default()
        };
        let mut report = SolveReport::new(Matching::new(2, 2), vec![stage]);
        report.scaling_iterations = Some(5);
        report.scaling_error = Some(1e-3);
        report.deadline_ms = Some(250);
        report.weight = Some(1.5);
        let s = report.to_json().to_string();
        assert!(s.contains("\"stages\":[{\"stage\":\"two\""), "{s}");
        assert!(s.contains("\"phases\":3"), "{s}");
        assert!(s.contains("\"selected\":\"pr\""), "{s}");
        assert!(s.contains("\"scaling_iterations\":5"), "{s}");
        assert!(s.contains("\"quality\":null"), "{s}");
        assert!(!s.contains("cancelled"), "successful reports carry no cancelled flag: {s}");
        assert!(s.contains("\"deadline_ms\":250"), "{s}");
        assert!(s.contains("\"weight\":1.5"), "{s}");
        assert_eq!(report.total_seconds(), 0.5);
    }
}
