//! `sim-bench --compare A.json B.json`: hold two sets of runs (files
//! written by `--json`) against the bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the runs of each side agree within it too.
    Unchanged,
    /// Better than the base by more than the bound.
    Better,
    /// Worse than the base by more than the bound.
    Regression,
    /// Within the bound, but one side's own runs spread wider than the
    /// bound: the comparison cannot tell.
    Unresolved,
    /// A per-layer metric: reported, never judged.
    Info,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Better => "better",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    /// Median over the runs of file A (the base) and of file B.
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

impl Row {
    /// B as a multiple of its base A.
    pub fn ratio(&self) -> f64 {
        self.b / self.a
    }
}

/// Judge one metric on one workload from each side's per-run values.
pub fn judge(spec: &MetricSpec, a_runs: &[f64], b_runs: &[f64]) -> (f64, f64, Verdict) {
    let (a, b) = (median(a_runs), median(b_runs));
    let Some(bound) = spec.bound else {
        return (a, b, Verdict::Info);
    };
    // How much worse B is, as a share of the base's median.
    let worse = if a == b {
        0.0
    } else if spec.higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    };
    let noisy = [a_runs, b_runs].iter().any(|runs| spread(runs).is_some_and(|s| s > bound));
    let verdict = if worse > bound {
        Verdict::Regression
    } else if noisy {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    };
    (a, b, verdict)
}

/// Every run's entry for `workload` in a results file.
fn workload_runs<'a>(doc: &'a Json, workload: &str) -> Vec<&'a Json> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| run.get("workloads")?.get(workload))
        .collect()
}

/// The number at `path` in each run's entry.
fn values(runs: &[&Json], path: &[&str]) -> Vec<f64> {
    runs.iter()
        .filter_map(|entry| path.iter().try_fold(*entry, |at, key| at.get(key))?.as_f64())
        .collect()
}

/// One row per (workload, metric) present in both files, plus a `failed`
/// row per workload: a failed statement in B is a regression whatever the
/// timings say.
pub fn compare(spec: &Spec, a: &Json, b: &Json) -> Vec<Row> {
    let failed = MetricSpec {
        name: "failed".into(),
        unit: "count".into(),
        higher_is_better: false,
        bound: Some(0.0),
    };
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        let (runs_a, runs_b) = (workload_runs(a, workload), workload_runs(b, workload));
        let mut judge_at = |metric: &MetricSpec, path: &[&str]| {
            let (va, vb) = (values(&runs_a, path), values(&runs_b, path));
            if va.is_empty() || vb.is_empty() {
                return;
            }
            let (a, b, verdict) = judge(metric, &va, &vb);
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name.clone(),
                unit: metric.unit.clone(),
                a,
                b,
                verdict,
            });
        };
        judge_at(&failed, &["failed"]);
        for metric in &spec.end_to_end {
            judge_at(metric, &["end_to_end", &metric.name]);
        }
        for metric in &spec.per_layer {
            judge_at(metric, &["per_layer", &metric.name]);
        }
    }
    rows
}

/// The table `--compare` prints. Every ratio names its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<15} {:<30} {:>14} {:>14} {:>10}  {}\n",
        "workload", "metric [unit]", "A (base)", "B", "B/A", "verdict"
    );
    for r in rows {
        let ratio = if r.a == 0.0 { "-".to_string() } else { format!("{:.3}x A", r.ratio()) };
        out.push_str(&format!(
            "{:<15} {:<30} {:>14.4} {:>14.4} {:>10}  {}\n",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            r.a,
            r.b,
            ratio,
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: Option<f64>) -> MetricSpec {
        MetricSpec { name: "m".into(), unit: "u".into(), higher_is_better, bound }
    }

    #[test]
    fn lower_is_better_verdicts() {
        let m = metric(false, Some(0.10));
        assert_eq!(judge(&m, &[100.0], &[105.0]).2, Verdict::Unchanged);
        assert_eq!(judge(&m, &[100.0], &[111.0]).2, Verdict::Regression);
        assert_eq!(judge(&m, &[100.0], &[80.0]).2, Verdict::Better);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let m = metric(true, Some(0.10));
        assert_eq!(judge(&m, &[100.0], &[80.0]).2, Verdict::Regression);
        assert_eq!(judge(&m, &[100.0], &[120.0]).2, Verdict::Better);
        assert_eq!(judge(&m, &[100.0], &[95.0]).2, Verdict::Unchanged);
    }

    #[test]
    fn medians_decide_and_wide_spread_is_unresolved() {
        let m = metric(false, Some(0.10));
        // Medians 100 vs 101; A's own runs spread over far more than 10%.
        let noisy = [60.0, 100.0, 100.0, 140.0, 180.0];
        let (a, b, v) = judge(&m, &noisy, &[101.0, 101.0, 101.0]);
        assert_eq!((a, b), (100.0, 101.0));
        assert_eq!(v, Verdict::Unresolved, "same medians, but not resolvable");
        // A regression beyond the bound is still a regression.
        assert_eq!(judge(&m, &noisy, &[150.0, 150.0, 150.0]).2, Verdict::Regression);
        // Tight runs on both sides resolve.
        assert_eq!(judge(&m, &[99.0, 100.0, 101.0], &[100.0, 101.0, 102.0]).2, Verdict::Unchanged);
    }

    #[test]
    fn exact_counts_and_zero_bases() {
        let exact = metric(false, Some(0.0));
        assert_eq!(judge(&exact, &[0.0], &[0.0]).2, Verdict::Unchanged);
        assert_eq!(judge(&exact, &[0.0], &[1.0]).2, Verdict::Regression);
        assert_eq!(judge(&exact, &[189.0], &[189.0]).2, Verdict::Unchanged);
        assert_eq!(judge(&metric(false, None), &[1.0], &[9.0]).2, Verdict::Info);
    }

    #[test]
    fn compares_result_files() {
        let spec = Spec::load();
        let w = &spec.workloads[0];
        let file = |per_s: f64, failed: u32| {
            Json::parse(&format!(
                "{{\"runs\":[{{\"workloads\":{{\"{w}\":{{\"failed\":{failed},\
                 \"end_to_end\":{{\"stmt_per_s\":{per_s}}},\"per_layer\":{{\"pool.hit_ratio\":1}}}}}}}}]}}"
            ))
            .unwrap()
        };
        let rows = compare(&spec, &file(1000.0, 0), &file(500.0, 0));
        let verdict =
            |rows: &[Row], m: &str| rows.iter().find(|r| r.metric == m).map(|r| r.verdict);
        assert_eq!(verdict(&rows, "stmt_per_s"), Some(Verdict::Regression));
        assert_eq!(verdict(&rows, "pool.hit_ratio"), Some(Verdict::Info));
        assert_eq!(verdict(&rows, "failed"), Some(Verdict::Unchanged));
        assert!(render(&rows).contains("0.500x A"));
        let rows = compare(&spec, &file(1000.0, 0), &file(1000.0, 2));
        assert_eq!(verdict(&rows, "failed"), Some(Verdict::Regression));
        assert_eq!(verdict(&rows, "stmt_per_s"), Some(Verdict::Unchanged));
    }
}
