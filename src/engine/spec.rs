//! Typed stages and errors for the pipeline spec grammar v2.
//!
//! Grammar (stages are **typed**, not positional):
//!
//! ```text
//! <pipeline> ::= dm,<pipeline>                              (decomposition)
//!              | [scale[:sk|ruiz][:iters],]<workload>[,<exact-finisher>]
//! <workload> ::= <algorithm>        (cardinality; the v1 grammar)
//!              | suitor             (weighted)
//! ```
//!
//! Every v1 spec string parses byte-identically under v2 — the
//! compatibility test in `tests/engine_weighted_dm.rs` pins all of them.
//!
//! Every surface that parses a spec — the CLI's `--pipeline`/`--algo`
//! flags, the `dsmatch serve` job protocol, programmatic
//! [`Pipeline`](crate::engine::Pipeline) construction — gets the same
//! [`SpecError`], so callers can match on *what* went wrong instead of
//! grepping an error string, while `Display` keeps the exact human-readable
//! messages the CLI has always printed.

use super::pipeline::{ScaleMethod, ScaleStage, DEFAULT_SCALE_ITERATIONS};
use super::registry::AlgorithmKind;
use dsmatch_scale::ScalingConfig;

/// The spec name of the weighted workload: Suitor (Manne–Halappanavar)
/// on the scaling entries as edge weights.
pub(crate) const SUITOR: &str = "suitor";

/// One classified token of a pipeline spec: the typed form of a
/// comma-separated stage, produced by [`StageKind::classify`]. The v2
/// grammar dispatches on this type instead of on token position, which is
/// what lets weighted workloads and `dm,` prefixes coexist with the v1
/// strings without ambiguity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StageKind {
    /// A `scale[:sk|ruiz][:iters]` stage.
    Scale(ScaleStage),
    /// A cardinality algorithm from the [`AlgorithmKind`] registry.
    Algorithm(AlgorithmKind),
    /// The weighted workload, `suitor`.
    Weighted,
    /// The `dm` decomposition prefix (its inner pipeline is the remainder
    /// of the spec, parsed recursively).
    Decompose,
}

impl StageKind {
    /// Classify one trimmed, non-empty spec token. `spec` is the full
    /// original string, quoted in error messages.
    pub fn classify(token: &str, spec: &str) -> Result<StageKind, SpecError> {
        if token == "dm" {
            return Ok(StageKind::Decompose);
        }
        if token == "scale" || token.starts_with("scale:") {
            let mut method = ScaleMethod::SinkhornKnopp;
            let mut iters = DEFAULT_SCALE_ITERATIONS;
            for part in token.split(':').skip(1) {
                match part {
                    "sk" => method = ScaleMethod::SinkhornKnopp,
                    "ruiz" => method = ScaleMethod::Ruiz,
                    // Numeric-looking tokens are iteration counts (and must
                    // parse); anything else is a misspelled method name.
                    other if other.starts_with(|c: char| c.is_ascii_digit()) => {
                        iters = other.parse().map_err(|_| SpecError::BadIters {
                            value: other.to_string(),
                            spec: spec.to_string(),
                        })?;
                    }
                    other => {
                        return Err(SpecError::UnknownScaleMethod {
                            option: other.to_string(),
                            spec: spec.to_string(),
                        });
                    }
                }
            }
            return Ok(StageKind::Scale(ScaleStage {
                method,
                config: ScalingConfig::iterations(iters),
            }));
        }
        if let Ok(algo) = token.parse::<AlgorithmKind>() {
            return Ok(StageKind::Algorithm(algo));
        }
        if token == SUITOR {
            return Ok(StageKind::Weighted);
        }
        Err(SpecError::UnknownAlgorithm { name: token.to_string() })
    }
}

/// Why a pipeline or algorithm spec failed to parse.
///
/// ```
/// use dsmatch::engine::{Pipeline, SpecError};
///
/// let err = "scale:sk:5,frobnicate".parse::<Pipeline>().unwrap_err();
/// assert_eq!(err, SpecError::UnknownAlgorithm { name: "frobnicate".into() });
///
/// let err = "scale:bogus,two".parse::<Pipeline>().unwrap_err();
/// assert!(matches!(err, SpecError::UnknownScaleMethod { .. }));
///
/// let err = "two,dm,hk".parse::<Pipeline>().unwrap_err();
/// assert!(matches!(err, SpecError::MisplacedDecomposition { .. }));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// A comma-separated stage was empty (`"two,,pf"`).
    EmptyStage {
        /// The full offending spec.
        spec: String,
    },
    /// The spec named no algorithm stage (`""`, or `"scale"` alone).
    MissingAlgorithm {
        /// The full offending spec.
        spec: String,
    },
    /// More stages than `scale,workload,finisher`.
    TooManyStages {
        /// The full offending spec.
        spec: String,
    },
    /// An algorithm name that is neither in the [`AlgorithmKind`] registry
    /// nor `suitor`.
    UnknownAlgorithm {
        /// The unrecognized name.
        name: String,
    },
    /// A `scale:` option that is neither `sk`/`ruiz` nor an iteration
    /// count.
    UnknownScaleMethod {
        /// The unrecognized option token.
        option: String,
        /// The full offending spec.
        spec: String,
    },
    /// A numeric-looking `scale:` iteration count that did not parse as an
    /// unsigned integer.
    BadIters {
        /// The unparseable token.
        value: String,
        /// The full offending spec.
        spec: String,
    },
    /// The finisher stage is not an exact algorithm.
    NonExactFinisher {
        /// The rejected finisher.
        finisher: AlgorithmKind,
    },
    /// The algorithm stage is already exact; a finisher adds nothing.
    RedundantFinisher {
        /// The (exact) algorithm stage.
        algorithm: AlgorithmKind,
        /// The redundant finisher.
        finisher: AlgorithmKind,
    },
    /// A `dm` stage with no inner pipeline (`"dm"` alone).
    EmptyDecomposition {
        /// The full offending spec.
        spec: String,
    },
    /// A `dm` stage inside another `dm` stage (`"dm,dm,two"`).
    NestedDecomposition {
        /// The full offending spec.
        spec: String,
    },
    /// A `dm` stage that is not the first stage (`"two,dm"` or
    /// `"scale:sk:5,dm,two"` — scaling factors do not survive into the
    /// per-block subgraphs, so a scale prefix before `dm` is meaningless).
    MisplacedDecomposition {
        /// The full offending spec.
        spec: String,
    },
    /// The weighted workload followed by a finisher stage (`"suitor,hk"`;
    /// a weighted matching is not a warm start for cardinality
    /// augmentation).
    WeightedWithFinisher {
        /// The rejected finisher.
        finisher: AlgorithmKind,
    },
    /// The weighted workload in finisher position (`"two,suitor"`).
    WeightedAsFinisher,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::EmptyStage { spec } => {
                write!(f, "empty stage in pipeline spec {spec:?}")
            }
            SpecError::MissingAlgorithm { spec } => {
                write!(f, "pipeline spec {spec:?} names no algorithm")
            }
            SpecError::TooManyStages { spec } => {
                write!(f, "too many stages in pipeline spec {spec:?}")
            }
            SpecError::UnknownAlgorithm { name } => {
                let mut names: Vec<&str> = AlgorithmKind::all().iter().map(|a| a.name()).collect();
                names.extend([SUITOR, "dm"]);
                write!(f, "unknown algorithm {name:?}; expected one of {}", names.join("|"))
            }
            SpecError::UnknownScaleMethod { option, spec } => {
                write!(f, "bad scale option {option:?} in {spec:?}; expected sk|ruiz|<iters>")
            }
            SpecError::BadIters { value, spec } => {
                write!(
                    f,
                    "bad scale iteration count {value:?} in {spec:?}; expected sk|ruiz|<iters>"
                )
            }
            SpecError::NonExactFinisher { finisher } => {
                write!(f, "augment stage {finisher} is not an exact algorithm")
            }
            SpecError::RedundantFinisher { algorithm, finisher } => {
                write!(f, "{algorithm} is already exact; augmenting with {finisher} is redundant")
            }
            SpecError::EmptyDecomposition { spec } => {
                write!(f, "dm needs an inner pipeline in {spec:?}; write dm,<pipeline>")
            }
            SpecError::NestedDecomposition { spec } => {
                write!(f, "dm cannot nest inside another dm in {spec:?}")
            }
            SpecError::MisplacedDecomposition { spec } => {
                write!(f, "dm must be the first stage in {spec:?}")
            }
            SpecError::WeightedWithFinisher { finisher } => {
                write!(
                    f,
                    "{SUITOR} is a weighted workload; augmenting with {finisher} is not supported"
                )
            }
            SpecError::WeightedAsFinisher => {
                write!(f, "{SUITOR} is a weighted heuristic, not an exact finisher")
            }
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable_and_error_impl_exists() {
        let e = SpecError::UnknownAlgorithm { name: "nope".into() };
        assert!(e.to_string().starts_with("unknown algorithm \"nope\""));
        assert!(e.to_string().contains("pf-par"), "lists the registry");
        assert!(e.to_string().contains("suitor"), "lists the weighted registry");
        assert!(e.to_string().contains("|dm"), "lists the dm prefix");
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(boxed.source().is_none());

        let e = SpecError::RedundantFinisher {
            algorithm: AlgorithmKind::HopcroftKarp,
            finisher: AlgorithmKind::PothenFan,
        };
        assert_eq!(e.to_string(), "hk is already exact; augmenting with pf is redundant");

        let e = SpecError::WeightedAsFinisher;
        assert_eq!(e.to_string(), "suitor is a weighted heuristic, not an exact finisher");
        let e = SpecError::WeightedWithFinisher { finisher: AlgorithmKind::HopcroftKarp };
        assert_eq!(
            e.to_string(),
            "suitor is a weighted workload; augmenting with hk is not supported"
        );
    }

    #[test]
    fn variants_are_matchable() {
        // The point of the typed enum: callers branch on the variant
        // instead of substring-matching a message.
        let errs = [
            SpecError::EmptyStage { spec: "two,,pf".into() },
            SpecError::BadIters { value: "9e9".into(), spec: "scale:9e9,two".into() },
            SpecError::UnknownScaleMethod {
                option: "bogus".into(),
                spec: "scale:bogus,two".into(),
            },
            SpecError::NestedDecomposition { spec: "dm,dm,two".into() },
        ];
        assert!(matches!(errs[0], SpecError::EmptyStage { .. }));
        assert!(matches!(errs[1], SpecError::BadIters { .. }));
        assert!(matches!(errs[2], SpecError::UnknownScaleMethod { .. }));
        assert!(matches!(errs[3], SpecError::NestedDecomposition { .. }));
    }

    #[test]
    fn classify_types_every_stage_form() {
        let spec = "irrelevant";
        assert!(matches!(StageKind::classify("dm", spec), Ok(StageKind::Decompose)));
        assert!(matches!(
            StageKind::classify("scale:ruiz:3", spec),
            Ok(StageKind::Scale(ScaleStage { method: ScaleMethod::Ruiz, .. }))
        ));
        assert!(matches!(
            StageKind::classify("hk", spec),
            Ok(StageKind::Algorithm(AlgorithmKind::HopcroftKarp))
        ));
        assert!(matches!(StageKind::classify("suitor", spec), Ok(StageKind::Weighted)));
        assert!(matches!(
            StageKind::classify("frobnicate", spec),
            Err(SpecError::UnknownAlgorithm { .. })
        ));
    }
}
