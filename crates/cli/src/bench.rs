//! `mondrian bench`: the wall-clock benchmark harness for the parallel
//! execution engine.
//!
//! Runs one campaign at a ladder of `jobs` values, times each full
//! execution on the host clock, and cross-checks that every parallel run
//! produced a result artifact **byte-identical** to the single-worker
//! baseline — the determinism guarantee, enforced on every benchmark.
//! The report (`BENCH_sweep.json`) records the host core count alongside
//! the sweep, so a flat curve on a one-core container reads as expected
//! rather than as a regression.

use std::sync::Arc;
use std::time::Instant;

use crate::campaign::{run_campaign_jobs, run_campaign_store, store_salt};
use crate::manifest::Manifest;
use crate::value::Value;
use mondrian_store::Store;

/// One point of the jobs ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// Worker threads used.
    pub jobs: usize,
    /// Best-of-`repeat` wall-clock milliseconds for the whole campaign.
    pub wall_ms: f64,
    /// Single-worker baseline wall time divided by this point's.
    pub speedup: f64,
    /// Discrete engine events the campaign's non-memoized runs processed
    /// (deterministic, identical at every ladder point).
    pub events: u64,
    /// Engine events simulated per host wall-clock second at this point —
    /// the harness's throughput figure of merit.
    pub events_per_sec: f64,
    /// Persistent-store hits at this point. Plain `bench` runs storeless
    /// (so parallel ladder points never race warm entries) and records
    /// `0`; `bench --cache` ladder points record real hit counts.
    pub cache_hits: u64,
    /// Whether the artifact matched the single-worker baseline byte for
    /// byte.
    pub identical: bool,
    /// Whether every stage of every run verified.
    pub verified: bool,
}

/// Results of one benchmark sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Campaign name.
    pub campaign: String,
    /// Runs in the sweep cross product.
    pub runs: usize,
    /// Runs served from the full-run memo.
    pub memo_hits: usize,
    /// Host cores available when the benchmark ran.
    pub host_cores: usize,
    /// The jobs ladder, in the requested order.
    pub points: Vec<BenchPoint>,
}

impl BenchReport {
    /// Whether every point verified and matched the baseline artifact.
    pub fn ok(&self) -> bool {
        self.points.iter().all(|p| p.identical && p.verified)
    }

    /// The JSON document written to `BENCH_sweep.json`. Wall times are
    /// host measurements and change run to run; everything else is
    /// deterministic.
    pub fn to_json(&self) -> String {
        let round = |x: f64| (x * 1000.0).round() / 1000.0;
        let mut root = Value::table();
        root.insert("campaign", Value::Str(self.campaign.clone()));
        root.insert("runs", Value::Int(self.runs as i64));
        root.insert("memo_hits", Value::Int(self.memo_hits as i64));
        root.insert("host_cores", Value::Int(self.host_cores as i64));
        root.insert(
            "sweep",
            Value::Array(
                self.points
                    .iter()
                    .map(|p| {
                        let mut t = Value::table();
                        t.insert("jobs", Value::Int(p.jobs as i64));
                        t.insert("wall_ms", Value::Float(round(p.wall_ms)));
                        t.insert("speedup", Value::Float(round(p.speedup)));
                        t.insert("events", Value::Int(p.events as i64));
                        t.insert("events_per_sec", Value::Float(p.events_per_sec.round()));
                        t.insert("cache_hits", Value::Int(p.cache_hits as i64));
                        t.insert("identical", Value::Bool(p.identical));
                        t.insert("verified", Value::Bool(p.verified));
                        t
                    })
                    .collect(),
            ),
        );
        root.to_json()
    }

    /// One compact JSON line for `BENCH_history.jsonl`: the commit, host
    /// core count and the full `sim_wall_ms` ladder. Appending (instead
    /// of overwriting, as `BENCH_sweep.json` does) accumulates a
    /// wall-clock trend across commits.
    pub fn history_line(&self, commit: &str) -> String {
        // Strings go through the Value serializer's JSON escaping (Rust's
        // {:?} Debug escapes are not legal JSON).
        let json_str = |s: &str| Value::Str(s.to_string()).to_json().trim().to_string();
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "{{\"jobs\":{},\"wall_ms\":{:.3},\"speedup\":{:.3},\
                     \"events_per_sec\":{:.0},\"cache_hits\":{},\"identical\":{}}}",
                    p.jobs, p.wall_ms, p.speedup, p.events_per_sec, p.cache_hits, p.identical,
                )
            })
            .collect();
        format!(
            "{{\"commit\":{},\"campaign\":{},\"host_cores\":{},\"runs\":{},\"sweep\":[{}]}}",
            json_str(commit),
            json_str(&self.campaign),
            self.host_cores,
            self.runs,
            points.join(","),
        )
    }

    /// One line per ladder point for terminals.
    pub fn human_summary(&self) -> String {
        let mut out = format!(
            "bench {:?}: {} runs ({} memoized), {} host core(s)\n",
            self.campaign, self.runs, self.memo_hits, self.host_cores,
        );
        out.push_str(&one_core_note(self.host_cores));
        for p in &self.points {
            out.push_str(&format!(
                "  jobs={:<3} {:>10.3} ms  {:>6.2}x  {:>12.0} events/s  {}{}\n",
                p.jobs,
                p.wall_ms,
                p.speedup,
                p.events_per_sec,
                if p.identical { "byte-identical" } else { "ARTIFACT DIVERGED" },
                if p.verified { "" } else { " VERIFICATION FAILED" },
            ));
        }
        out
    }
}

/// Runs `manifest` once per entry of `jobs_list` (each timed as the best
/// of `repeat` executions) and cross-checks every artifact byte for byte
/// against a **single-worker baseline** — which is always executed, even
/// when `1` is absent from the ladder, so a parallelism bug can never
/// hide behind a ladder that skips the serial run.
pub fn bench(manifest: &Manifest, jobs_list: &[usize], repeat: usize) -> BenchReport {
    assert!(!jobs_list.is_empty(), "bench needs at least one jobs value");
    let repeat = repeat.max(1);
    let mut runs = 0;
    let mut memo_hits = 0;
    let mut measure = |jobs: usize| {
        let mut best = f64::INFINITY;
        let mut artifact = String::new();
        let mut verified = true;
        let mut events: u64 = 0;
        for r in 0..repeat {
            let start = Instant::now();
            let campaign = run_campaign_jobs(manifest, jobs, |_| {});
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
            // Campaigns are deterministic across repeats: serialize the
            // artifact (the expensive part) only once per ladder point.
            if r == 0 {
                verified = campaign.verified();
                artifact = campaign.to_json();
                runs = campaign.runs.len();
                memo_hits = campaign.memo_hits;
                // Memoized runs replay a cached report without touching
                // the event loop, so they contribute no throughput work.
                events = campaign
                    .runs
                    .iter()
                    .filter(|run| !run.memoized)
                    .filter_map(|run| run.report.as_ref())
                    .map(mondrian_pipeline::PipelineReport::events)
                    .sum();
            }
        }
        (artifact, best, verified, events)
    };
    let (base_artifact, base_wall, base_verified, base_events) = measure(1);
    let mut points = Vec::with_capacity(jobs_list.len());
    for &jobs in jobs_list {
        let (artifact, wall_ms, verified, events) = if jobs == 1 {
            (base_artifact.clone(), base_wall, base_verified, base_events)
        } else {
            measure(jobs)
        };
        points.push(BenchPoint {
            jobs,
            wall_ms,
            speedup: base_wall / wall_ms.max(1e-9),
            events,
            events_per_sec: events as f64 * 1e3 / wall_ms.max(1e-9),
            cache_hits: 0,
            identical: artifact == base_artifact,
            verified,
        });
    }
    BenchReport {
        campaign: manifest.name.clone(),
        runs,
        memo_hits,
        host_cores: host_cores(),
        points,
    }
}

/// Host cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The warning line prepended to human-facing speedup reports on one-core
/// hosts, where every ladder point time-slices a single core and the
/// speedup column carries no signal. Empty on multi-core hosts.
pub fn one_core_note(host_cores: usize) -> String {
    if host_cores == 1 {
        "  note: host_cores=1 — speedups not meaningful on this host\n".to_string()
    } else {
        String::new()
    }
}

/// One point of the cold/warm persistence ladder: a full campaign against
/// the throwaway store.
#[derive(Debug, Clone, PartialEq)]
pub struct CachePoint {
    /// `"cold"` for the store-populating run, `"warm"` for each re-run.
    pub label: String,
    /// Wall-clock milliseconds for the whole campaign.
    pub wall_ms: f64,
    /// Cold wall time divided by this point's.
    pub speedup: f64,
    /// Persistent-store hits (run + stage + ref entries served).
    pub cache_hits: u64,
    /// Persistent-store misses.
    pub cache_misses: u64,
    /// Store bytes moved (read + written).
    pub cache_bytes: u64,
    /// Runs that actually entered the simulator (neither memoized in
    /// process nor served whole from the persistent store). Warm points
    /// must report `0` — that is the claim `bench --cache` exists to gate.
    pub simulated: usize,
    /// Whether the artifact matched the cold run byte for byte.
    pub identical: bool,
    /// Whether every stage of every run verified.
    pub verified: bool,
}

/// Results of one cold/warm persistence sweep (`mondrian bench --cache`).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheReport {
    /// Campaign name.
    pub campaign: String,
    /// Runs in the sweep cross product.
    pub runs: usize,
    /// Host cores available when the benchmark ran.
    pub host_cores: usize,
    /// The cold/warm ladder: one cold point, then the warm repeats.
    pub points: Vec<CachePoint>,
}

impl CacheReport {
    /// Whether every point verified and byte-matched the cold artifact,
    /// every warm point was served entirely from the store (zero
    /// simulated runs), and every warm point actually hit it.
    pub fn ok(&self) -> bool {
        self.points.iter().all(|p| {
            p.identical
                && p.verified
                && (p.label == "cold" || (p.simulated == 0 && p.cache_hits > 0))
        })
    }

    /// The JSON document written to `BENCH_sweep.json` in cache mode.
    pub fn to_json(&self) -> String {
        let round = |x: f64| (x * 1000.0).round() / 1000.0;
        let mut root = Value::table();
        root.insert("campaign", Value::Str(self.campaign.clone()));
        root.insert("runs", Value::Int(self.runs as i64));
        root.insert("host_cores", Value::Int(self.host_cores as i64));
        root.insert(
            "cache_sweep",
            Value::Array(
                self.points
                    .iter()
                    .map(|p| {
                        let mut t = Value::table();
                        t.insert("label", Value::Str(p.label.clone()));
                        t.insert("wall_ms", Value::Float(round(p.wall_ms)));
                        t.insert("speedup", Value::Float(round(p.speedup)));
                        t.insert("cache_hits", Value::Int(p.cache_hits as i64));
                        t.insert("cache_misses", Value::Int(p.cache_misses as i64));
                        t.insert("cache_bytes", Value::Int(p.cache_bytes as i64));
                        t.insert("simulated", Value::Int(p.simulated as i64));
                        t.insert("identical", Value::Bool(p.identical));
                        t.insert("verified", Value::Bool(p.verified));
                        t
                    })
                    .collect(),
            ),
        );
        root.to_json()
    }

    /// One compact JSON line for `BENCH_history.jsonl` (cache mode).
    pub fn history_line(&self, commit: &str) -> String {
        let json_str = |s: &str| Value::Str(s.to_string()).to_json().trim().to_string();
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "{{\"label\":{},\"wall_ms\":{:.3},\"speedup\":{:.3},\"cache_hits\":{},\
                     \"simulated\":{},\"identical\":{}}}",
                    json_str(&p.label),
                    p.wall_ms,
                    p.speedup,
                    p.cache_hits,
                    p.simulated,
                    p.identical,
                )
            })
            .collect();
        format!(
            "{{\"commit\":{},\"campaign\":{},\"host_cores\":{},\"runs\":{},\"cache\":[{}]}}",
            json_str(commit),
            json_str(&self.campaign),
            self.host_cores,
            self.runs,
            points.join(","),
        )
    }

    /// One line per ladder point for terminals.
    pub fn human_summary(&self) -> String {
        let mut out = format!(
            "bench --cache {:?}: {} runs, {} host core(s), throwaway store\n",
            self.campaign, self.runs, self.host_cores,
        );
        for p in &self.points {
            out.push_str(&format!(
                "  {:<5} {:>10.3} ms  {:>6.2}x  {:>6} hits  {:>6} misses  {:>4} simulated  {}{}\n",
                p.label,
                p.wall_ms,
                p.speedup,
                p.cache_hits,
                p.cache_misses,
                p.simulated,
                if p.identical { "byte-identical" } else { "ARTIFACT DIVERGED" },
                if p.verified { "" } else { " VERIFICATION FAILED" },
            ));
        }
        out
    }
}

/// The cold/warm persistence ladder: one cold campaign populates a
/// throwaway store under the system temp directory, then `repeat` warm
/// campaigns re-run against it — each must byte-match the cold artifact
/// while simulating nothing. A fresh [`Store`] instance per point keeps
/// the hit/miss counters per-ladder-point. The throwaway root is removed
/// before returning.
pub fn bench_cache(manifest: &Manifest, repeat: usize) -> CacheReport {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "mondrian-bench-cache-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&root);

    let measure = |label: &str| {
        let store = Store::open(&root, &store_salt()).ok().map(Arc::new);
        let start = Instant::now();
        let campaign = run_campaign_store(manifest, 1, store, &(), |_| {});
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let counters = campaign.cache.unwrap_or_default();
        let simulated = campaign
            .runs
            .iter()
            .filter(|run| run.report.is_some() && !run.memoized && !run.memoized_persistent)
            .count();
        let point = CachePoint {
            label: label.to_string(),
            wall_ms,
            speedup: 1.0,
            cache_hits: counters.hits(),
            cache_misses: counters.misses(),
            cache_bytes: counters.bytes(),
            simulated,
            identical: true,
            verified: campaign.verified(),
        };
        (point, campaign.to_json(), campaign.runs.len())
    };

    let (mut cold, cold_artifact, runs) = measure("cold");
    cold.speedup = 1.0;
    let cold_wall = cold.wall_ms;
    let mut points = vec![cold];
    for _ in 0..repeat.max(1) {
        let (mut warm, artifact, _) = measure("warm");
        warm.speedup = cold_wall / warm.wall_ms.max(1e-9);
        warm.identical = artifact == cold_artifact;
        points.push(warm);
    }
    let _ = std::fs::remove_dir_all(&root);
    CacheReport { campaign: manifest.name.clone(), runs, host_cores: host_cores(), points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Format;

    const MANIFEST: &str = r#"
        [campaign]
        name = "bench-smoke"
        systems = ["cpu", "nmp-rand"]
        tuples_per_vault = 64

        [[stage]]
        op = "filter"

        [[stage]]
        op = "count_by_key"
    "#;

    #[test]
    fn bench_ladder_is_identical_across_jobs() {
        let manifest = Manifest::parse(MANIFEST, Format::Toml).unwrap();
        let report = bench(&manifest, &[1, 2, 4], 1);
        assert!(report.ok(), "parallel artifacts must match the serial baseline");
        assert_eq!(report.points.len(), 3);
        assert_eq!(report.runs, 2);
        let json = report.to_json();
        crate::value::parse_json(&json).unwrap();
        assert!(json.contains("\"identical\": true"));
        assert!(json.contains("\"events_per_sec\""));
        assert!(report.human_summary().contains("byte-identical"));
        assert!(report.human_summary().contains("events/s"));
        // Events are engine work, identical at every ladder point.
        assert!(report.points[0].events > 0);
        assert!(report.points.iter().all(|p| p.events == report.points[0].events));
        assert!(report.points.iter().all(|p| p.events_per_sec > 0.0));
    }

    #[test]
    fn history_line_is_one_valid_json_object() {
        let manifest = Manifest::parse(MANIFEST, Format::Toml).unwrap();
        let report = bench(&manifest, &[1, 2], 1);
        let line = report.history_line("abc123def456");
        assert!(!line.contains('\n'), "jsonl: exactly one line");
        // Awkward strings must still serialize as legal JSON.
        let mut odd = report.clone();
        odd.campaign = "run\u{7f}\"name\\".to_string();
        crate::value::parse_json(&odd.history_line("c\u{1}sha")).unwrap();
        let doc = crate::value::parse_json(&line).unwrap();
        assert_eq!(doc.get("commit").and_then(crate::value::Value::as_str), Some("abc123def456"));
        assert_eq!(
            doc.get("sweep").and_then(crate::value::Value::as_array).map(<[_]>::len),
            Some(2)
        );
        assert!(doc.get("host_cores").is_some());
    }

    #[test]
    fn cache_ladder_cold_populates_then_warm_simulates_nothing() {
        let manifest = Manifest::parse(MANIFEST, Format::Toml).unwrap();
        let report = bench_cache(&manifest, 2);
        assert!(report.ok(), "warm points must byte-match cold and simulate nothing");
        assert_eq!(report.points.len(), 3, "one cold point + --repeat warm points");
        let cold = &report.points[0];
        assert_eq!(cold.label, "cold");
        assert!(cold.simulated > 0, "the cold run populates the store by simulating");
        assert!(cold.cache_bytes > 0, "the cold run writes entries");
        for warm in &report.points[1..] {
            assert_eq!(warm.label, "warm");
            assert_eq!(warm.simulated, 0);
            assert!(warm.cache_hits > 0);
            assert!(warm.identical);
        }
        let doc = crate::value::parse_json(&report.to_json()).unwrap();
        assert_eq!(
            doc.get("cache_sweep").and_then(crate::value::Value::as_array).map(<[_]>::len),
            Some(3)
        );
        let line = report.history_line("abc123");
        assert!(!line.contains('\n'), "jsonl: exactly one line");
        let doc = crate::value::parse_json(&line).unwrap();
        assert!(doc.get("cache").is_some());
        assert!(report.human_summary().contains("byte-identical"));
        // Plain bench stays storeless: its ladder records zero hits.
        let plain = bench(&manifest, &[1], 1);
        assert!(plain.to_json().contains("\"cache_hits\": 0"));
        assert!(plain.history_line("abc").contains("\"cache_hits\":0"));
    }

    #[test]
    fn one_core_note_only_fires_on_one_core() {
        assert!(one_core_note(1).contains("not meaningful"));
        assert!(one_core_note(2).is_empty());
        assert!(one_core_note(64).is_empty());
    }

    #[test]
    fn bench_baseline_is_single_worker_even_when_absent_from_ladder() {
        // A ladder without jobs=1 must still gate against a serial run,
        // not against its own first entry.
        let manifest = Manifest::parse(MANIFEST, Format::Toml).unwrap();
        let report = bench(&manifest, &[4, 8], 1);
        assert!(report.ok());
        assert_eq!(
            report.points.iter().map(|p| p.jobs).collect::<Vec<_>>(),
            vec![4, 8],
            "the implicit baseline run is not a ladder point"
        );
    }
}
