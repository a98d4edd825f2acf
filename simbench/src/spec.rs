//! The benchmark's declaration, `BENCHMARK.json` at the repository root,
//! compiled into the binary: metric names, units, directions and bounds
//! have one source, and a crate test holds the harness to it.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base's median by which the metric may worsen; only
    /// end-to-end metrics have one.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Json, key: &str) -> Vec<MetricSpec> {
    let field = |m: &Json, k: &str| {
        m.get(k).and_then(Json::as_str).unwrap_or_else(|| panic!("{key}: missing {k}")).to_string()
    };
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
        .iter()
        .map(|m| MetricSpec {
            name: field(m, "name"),
            unit: field(m, "unit"),
            higher_is_better: field(m, "better") == "higher",
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

impl Spec {
    /// The embedded declaration. It is part of the build, so a malformed
    /// file is a defect of this package, not input: it panics.
    pub fn load() -> Spec {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Spec {
            run_seconds: doc.get("run_seconds").and_then(Json::as_f64).expect("run_seconds"),
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .expect("workloads")
                .iter()
                .map(|w| w.get("name").and_then(Json::as_str).expect("workload name").to_string())
                .collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    }
}
