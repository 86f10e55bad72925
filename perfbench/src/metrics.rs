//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` declares the same names; a test pins the two together.

use std::collections::BTreeMap;

use crate::stats;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p95_s", "s"),
    ("quality_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.er_s", "s"),
    ("graph.csr_build_s", "s"),
    ("graph.patch_s", "s"),
    ("graph.verify_s", "s"),
    ("scale.sk5_s", "s"),
    ("scale.sk5_1t_s", "s"),
    ("scale.speedup_2t", "ratio"),
    ("scale.iterations", "count"),
    ("core.choices_s", "s"),
    ("core.choices_1t_s", "s"),
    ("core.ksmt_s", "s"),
    ("core.ksmt_1t_s", "s"),
    ("core.speedup_2t", "ratio"),
    ("core.cardinality", "count"),
    ("core.quality_ratio", "ratio"),
    ("exact.finish_s", "s"),
    ("exact.finish_1t_s", "s"),
    ("exact.speedup_2t", "ratio"),
    ("exact.phases", "count"),
    ("exact.augmentations", "count"),
    ("exact.delta_s", "s"),
    ("exact.delta_phases", "count"),
    ("exact.skew_finish_s", "s"),
    ("weighted.graph_build_s", "s"),
    ("weighted.suitor_s", "s"),
    ("dm.decompose_s", "s"),
    ("dm.blocks", "count"),
    ("rayon.empty_pass_s", "s"),
    ("engine.self_s", "s"),
    ("json.report_s", "s"),
    ("json.parse_s", "s"),
    ("json.reply_bytes", "bytes"),
    ("serve.ready_s", "s"),
    ("serve.ping_rtt_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.cold.latency_p50_s", "s"),
    ("serve.er.latency_p50_s", "s"),
    ("serve.skew.latency_p50_s", "s"),
    ("serve.delta.latency_p50_s", "s"),
    ("serve.suitor.latency_p50_s", "s"),
    ("serve.dm.latency_p50_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.remainder_s", "s"),
];

/// Metric values of one run, keyed by catalogue name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a catalogued metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `ops_per_s`, `latency_p50_s` and `latency_p95_s` of a run, from the
    /// per-op latencies of all its timed parts and their summed wall time.
    pub fn set_per_op(&mut self, latencies: &[f64], wall: f64) {
        self.set("ops_per_s", latencies.len() as f64 / wall);
        self.set("latency_p50_s", stats::median(latencies));
        self.set("latency_p95_s", stats::percentile(latencies, 0.95));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmatch_json::{parse_json, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn catalogue(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(declared(&doc, "end_to_end"), catalogue(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), catalogue(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn self_description_covers_every_workload_and_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads.json");
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let described = doc.get("workloads").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> =
            described.iter().map(|w| w.get("name").and_then(Json::as_str).unwrap()).collect();
        assert_eq!(names, crate::WORKLOADS);
        let predictions = doc.get("predictions").and_then(Json::as_arr).unwrap();
        for (name, _) in PER_LAYER {
            assert!(
                predictions.iter().any(|p| p.get("metric").and_then(Json::as_str) == Some(name)),
                "no prediction recorded for {name}"
            );
        }
    }
}
