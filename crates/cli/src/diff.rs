//! `mondrian diff`: compare two result artifacts run for run and emit a
//! speedup/regression table.
//!
//! Runs are matched on their identifying axes (system, topology,
//! tuples-per-vault, seed, theta, underprovisioning); each matched pair
//! contributes one row with the makespan speedup of B over A and the
//! energy ratio. CI wires this against a checked-in baseline artifact:
//! `mondrian diff baseline.json result.json --fail-on-regression 1` exits
//! non-zero when any run's makespan regresses by more than 1%.

use crate::value::{parse_json, Value};

/// One matched run pair.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// The run's identifying axes.
    pub key: String,
    /// Makespan in A, picoseconds.
    pub makespan_a: i64,
    /// Makespan in B, picoseconds.
    pub makespan_b: i64,
    /// Energy in A, joules.
    pub energy_a: f64,
    /// Energy in B, joules.
    pub energy_b: f64,
    /// Whether B's run carries a schema-8 `planned` block whose planner
    /// schedule won the race (`None` for non-auto runs and older
    /// schemas) — lets the table attribute B's win to the planner.
    pub planner_won_b: Option<bool>,
}

impl DiffRow {
    /// Speedup of B over A (> 1 means B is faster).
    pub fn speedup(&self) -> f64 {
        self.makespan_a as f64 / self.makespan_b.max(1) as f64
    }

    /// Relative makespan regression of B versus A in percent (positive
    /// means B is slower).
    pub fn regression_pct(&self) -> f64 {
        (self.makespan_b as f64 / self.makespan_a.max(1) as f64 - 1.0) * 100.0
    }
}

/// The comparison of two artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Matched run pairs, in A's order.
    pub rows: Vec<DiffRow>,
    /// Run keys present only in A.
    pub only_a: Vec<String>,
    /// Run keys present only in B.
    pub only_b: Vec<String>,
}

impl DiffReport {
    /// The worst (most positive) makespan regression across rows, percent.
    pub fn max_regression_pct(&self) -> f64 {
        self.rows.iter().map(DiffRow::regression_pct).fold(f64::NEG_INFINITY, f64::max)
    }

    /// Renders the speedup/regression table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<56} {:>14} {:>14} {:>8} {:>8}\n",
            "run", "A µs", "B µs", "speedup", "energy×"
        ));
        for row in &self.rows {
            let energy_ratio = if row.energy_a > 0.0 { row.energy_b / row.energy_a } else { 1.0 };
            let marker = if row.regression_pct() > 0.0 {
                " <- slower"
            } else if row.planner_won_b == Some(true) {
                " <- planner win"
            } else {
                ""
            };
            out.push_str(&format!(
                "{:<56} {:>14.3} {:>14.3} {:>7.3}x {:>7.3}x{}\n",
                row.key,
                row.makespan_a as f64 / 1e6,
                row.makespan_b as f64 / 1e6,
                row.speedup(),
                energy_ratio,
                marker,
            ));
        }
        for k in &self.only_a {
            out.push_str(&format!("{k:<56} only in A\n"));
        }
        for k in &self.only_b {
            out.push_str(&format!("{k:<56} only in B\n"));
        }
        let by_speedup = |a: &&DiffRow, b: &&DiffRow| a.speedup().total_cmp(&b.speedup());
        if let (Some(best), Some(worst)) =
            (self.rows.iter().max_by(by_speedup), self.rows.iter().min_by(by_speedup))
        {
            out.push_str(&format!(
                "{} matched runs; best speedup {:.3}x ({}); worst speedup {:.3}x ({})\n",
                self.rows.len(),
                best.speedup(),
                best.key,
                worst.speedup(),
                worst.key,
            ));
        }
        out
    }
}

/// The identifying key of one run object. `topology` defaults to `tiny`
/// when absent so schema-1 artifacts (which omitted it) still match
/// schema-2 runs of the same campaign. Only the sweep axes participate:
/// provenance fields — `memoized`, the schema-7 `memoized_persistent`
/// cache flag, `metrics.host.*` — never affect matching or comparison,
/// so a warm `--timings` artifact diffs clean against a cold one.
fn run_key(run: &Value) -> String {
    let mut key = String::new();
    for field in ["system", "topology", "tuples_per_vault", "seed", "zipf_theta", "underprovision"]
    {
        let rendered = match run.get(field) {
            Some(Value::Str(s)) => s.clone(),
            Some(Value::Int(i)) => i.to_string(),
            Some(Value::Float(f)) => format!("{f}"),
            None if field == "topology" => "tiny".to_string(),
            _ => continue,
        };
        if !key.is_empty() {
            key.push(' ');
        }
        key.push_str(&format!("{field}={rendered}"));
    }
    key
}

/// The makespan of a run object; pre-schema-2 artifacts fall back to the
/// serial runtime.
fn run_makespan(run: &Value) -> Option<i64> {
    run.get("makespan_ps").or_else(|| run.get("runtime_ps")).and_then(Value::as_int)
}

/// Compares two result artifacts.
///
/// Schema-6 artifacts from limit-tripped campaigns contain *skipped*
/// runs (`"skipped": true`) that carry sweep axes but no simulation
/// data; those are excluded from matching on both sides, so diffing a
/// degraded artifact compares only the runs that actually executed.
///
/// # Errors
///
/// Returns a description of the first parse or schema problem.
pub fn diff(a_text: &str, b_text: &str) -> Result<DiffReport, String> {
    let runs_of = |text: &str, which: &str| -> Result<Vec<Value>, String> {
        let doc = parse_json(text).map_err(|e| format!("{which}: {e}"))?;
        Ok(doc
            .get("runs")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{which}: artifact has no runs array"))?
            .iter()
            .filter(|run| run.get("skipped").is_none())
            .cloned()
            .collect())
    };
    let a_runs = runs_of(a_text, "A")?;
    let b_runs = runs_of(b_text, "B")?;
    let mut b_index: Vec<(String, &Value)> = b_runs.iter().map(|r| (run_key(r), r)).collect();
    let mut rows = Vec::new();
    let mut only_a = Vec::new();
    for a in &a_runs {
        let key = run_key(a);
        let Some(pos) = b_index.iter().position(|(k, _)| *k == key) else {
            only_a.push(key);
            continue;
        };
        let (_, b) = b_index.remove(pos);
        let (Some(ma), Some(mb)) = (run_makespan(a), run_makespan(b)) else {
            return Err(format!("run {key}: missing makespan_ps/runtime_ps"));
        };
        let energy = |r: &Value| r.get("energy_j").and_then(Value::as_float).unwrap_or(0.0);
        rows.push(DiffRow {
            key,
            makespan_a: ma,
            makespan_b: mb,
            energy_a: energy(a),
            energy_b: energy(b),
            planner_won_b: b
                .get("planned")
                .and_then(|p| p.get("planner_won"))
                .and_then(Value::as_bool),
        });
    }
    let only_b = b_index.into_iter().map(|(k, _)| k).collect();
    Ok(DiffReport { rows, only_a, only_b })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(makespan: i64, seed: i64) -> String {
        artifact_runs(&[(makespan, seed)])
    }

    /// An artifact with one CPU run per `(makespan, seed)` pair.
    fn artifact_runs(runs: &[(i64, i64)]) -> String {
        let runs: Vec<String> = runs
            .iter()
            .map(|&(makespan, seed)| {
                format!(
                    r#"{{"system": "CPU", "topology": "tiny", "tuples_per_vault": 64,
                    "seed": {seed}, "makespan_ps": {makespan}, "energy_j": 1e-6}}"#
                )
            })
            .collect();
        format!(r#"{{"runs": [{}]}}"#, runs.join(", "))
    }

    #[test]
    fn matched_runs_compute_speedup() {
        let report = diff(&artifact(2_000_000, 1), &artifact(1_000_000, 1)).unwrap();
        assert_eq!(report.rows.len(), 1);
        assert!((report.rows[0].speedup() - 2.0).abs() < 1e-9);
        assert!(report.max_regression_pct() < 0.0, "B is faster, no regression");
        assert!(report.render().contains("speedup"));
    }

    fn summary_line(report: &DiffReport) -> String {
        report.render().lines().last().expect("a summary line").to_string()
    }

    #[test]
    fn summary_names_best_and_worst_speedup() {
        let key = |seed| format!("system=CPU topology=tiny tuples_per_vault=64 seed={seed}");
        // Every run faster: no "regression" wording.
        let a = artifact_runs(&[(2_000_000, 1), (3_000_000, 2)]);
        let b = artifact_runs(&[(1_000_000, 1), (2_000_000, 2)]);
        let report = diff(&a, &b).unwrap();
        assert_eq!(
            summary_line(&report),
            format!(
                "2 matched runs; best speedup 2.000x ({}); worst speedup 1.500x ({})",
                key(1),
                key(2)
            )
        );
        // One faster, one slower.
        let b = artifact_runs(&[(1_000_000, 1), (1_250_000, 2)]);
        let report = diff(&artifact_runs(&[(2_000_000, 1), (1_000_000, 2)]), &b).unwrap();
        assert_eq!(
            summary_line(&report),
            format!(
                "2 matched runs; best speedup 2.000x ({}); worst speedup 0.800x ({})",
                key(1),
                key(2)
            )
        );
    }

    #[test]
    fn regressions_are_flagged() {
        let report = diff(&artifact(1_000_000, 1), &artifact(1_100_000, 1)).unwrap();
        assert!((report.max_regression_pct() - 10.0).abs() < 1e-9);
        assert!(report.render().contains("slower"));
    }

    #[test]
    fn unmatched_runs_are_reported() {
        let report = diff(&artifact(1, 1), &artifact(1, 2)).unwrap();
        assert!(report.rows.is_empty());
        assert_eq!(report.only_a.len(), 1);
        assert_eq!(report.only_b.len(), 1);
        assert!(report.render().contains("only in A"));
    }

    #[test]
    fn schema1_artifacts_match_schema2_tiny_runs() {
        // Schema-1 runs had no topology or makespan fields.
        let v1 = r#"{"runs": [{"system": "CPU", "tuples_per_vault": 64,
            "seed": 1, "runtime_ps": 2000000, "energy_j": 1e-6}]}"#;
        let report = diff(v1, &artifact(1_000_000, 1)).unwrap();
        assert_eq!(report.rows.len(), 1, "topology defaults to tiny for old artifacts");
        assert!((report.rows[0].speedup() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn skipped_runs_are_excluded_from_matching() {
        // A schema-6 degraded artifact: the same axes as `artifact(.., 1)`
        // but truncated by a limit before simulating.
        let degraded = r#"{"runs": [{"system": "CPU", "topology": "tiny",
            "tuples_per_vault": 64, "seed": 1,
            "exit": {"detail": "campaign truncated", "reason": "limit_events"},
            "skipped": true}]}"#;
        let report = diff(degraded, &artifact(1_000_000, 1)).unwrap();
        assert!(report.rows.is_empty(), "skipped runs never match");
        assert!(report.only_a.is_empty(), "nor are they reported as unmatched");
        assert_eq!(report.only_b.len(), 1);
    }

    #[test]
    fn cache_provenance_flags_are_ignored_like_host_metrics() {
        // A schema-7 `--timings` artifact from a warm store marks runs
        // `memoized_persistent`; diffing it against a cold artifact of
        // the same campaign must match every run and report no drift.
        let warm = r#"{"runs": [{"system": "CPU", "topology": "tiny",
            "tuples_per_vault": 64, "seed": 1, "makespan_ps": 2000000,
            "energy_j": 1e-6, "memoized": false, "memoized_persistent": true,
            "metrics": {"host": {"sim_wall_ms": 0.01}}}]}"#;
        let report = diff(&artifact(2_000_000, 1), warm).unwrap();
        assert_eq!(report.rows.len(), 1, "provenance flags must not affect matching");
        assert!((report.rows[0].speedup() - 1.0).abs() < 1e-9);
        assert_eq!(report.max_regression_pct(), 0.0);
    }

    #[test]
    fn planner_wins_are_attributed() {
        // A schema-8 auto run whose planned schedule won the race: the
        // faster B side carries the attribution marker.
        let auto = r#"{"runs": [{"system": "CPU", "topology": "tiny",
            "tuples_per_vault": 64, "seed": 1, "makespan_ps": 1000000,
            "energy_j": 1e-6,
            "planned": {"planner_won": true, "predicted_makespan_ps": 990000}}]}"#;
        let report = diff(&artifact(2_000_000, 1), auto).unwrap();
        assert_eq!(report.rows[0].planner_won_b, Some(true));
        assert!(report.render().contains("planner win"));
        // Without a planned block (older schema or fixed schedule) no
        // attribution appears.
        let report = diff(&artifact(2_000_000, 1), &artifact(1_000_000, 1)).unwrap();
        assert_eq!(report.rows[0].planner_won_b, None);
        assert!(!report.render().contains("planner win"));
        // A regression outranks the attribution marker.
        let slow_auto = auto.replace("1000000", "3000000");
        let report = diff(&artifact(2_000_000, 1), &slow_auto).unwrap();
        assert!(report.render().contains("slower"));
    }

    #[test]
    fn malformed_artifacts_error() {
        assert!(diff("{}", &artifact(1, 1)).is_err());
        assert!(diff("not json", &artifact(1, 1)).is_err());
    }
}
