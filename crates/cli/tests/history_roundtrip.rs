//! Property coverage for the `BENCH_history.jsonl` trend line: the
//! writer ([`BenchReport::history_line`]) and the JSON parser must
//! round-trip every field for arbitrary commit/campaign strings —
//! including the control characters the writer emits as `\uXXXX`
//! escapes, quotes, backslashes and non-ASCII text — and arbitrary
//! ladders. (The PR 4 parser fix that introduced the `\uXXXX` path had
//! only example-based coverage.)

use mondrian_cli::bench::{BenchPoint, BenchReport};
use mondrian_cli::value::{parse_json, Value};
use proptest::prelude::*;

/// Strings over a deliberately hostile alphabet: C0 control characters
/// (forcing `\uXXXX` escapes), the JSON specials `"` and `\`, ASCII,
/// and multi-byte BMP characters (literal UTF-8 in the line).
fn hostile_string(codes: Vec<u32>) -> String {
    codes
        .into_iter()
        .map(|c| {
            let c = match c % 6 {
                0 => c % 0x20,           // C0 controls → \uXXXX
                1 => u32::from(b'"'),    // quote
                2 => u32::from(b'\\'),   // backslash
                3 => 0x20 + c % 0x5f,    // printable ASCII
                4 => 0xe0 + c % 0x200,   // Latin/Greek supplements
                _ => 0x4e00 + c % 0x100, // CJK (3-byte UTF-8)
            };
            char::from_u32(c).unwrap_or('?')
        })
        .collect()
}

fn report(
    commit_codes: Vec<u32>,
    campaign_codes: Vec<u32>,
    points: Vec<(u64, u64, bool)>,
) -> (String, BenchReport) {
    let commit = hostile_string(commit_codes);
    let campaign = hostile_string(campaign_codes);
    let points: Vec<BenchPoint> = points
        .into_iter()
        .map(|(jobs, wall, identical)| BenchPoint {
            jobs: jobs as usize + 1,
            wall_ms: wall as f64 / 8.0,
            speedup: (wall as f64 / 8.0 + 1.0).recip(),
            events: wall * 3,
            events_per_sec: wall as f64 * 3.0 * 1e3 / (wall as f64 / 8.0).max(1e-9),
            cache_hits: wall % 7,
            identical,
            verified: true,
        })
        .collect();
    let report =
        BenchReport { campaign, runs: points.len().max(1), memo_hits: 0, host_cores: 1, points };
    (commit, report)
}

proptest! {
    /// Every generated history line is exactly one line of valid JSON,
    /// and parsing it recovers the commit, campaign, core counts and the
    /// full sweep ladder.
    #[test]
    fn history_line_round_trips(
        params in (
            prop::collection::vec(0u32..0x10000, 0..16),
            prop::collection::vec(0u32..0x10000, 0..16),
            prop::collection::vec((0u64..64, 0u64..100_000, any::<bool>()), 1..6),
        )
    ) {
        let (commit_codes, campaign_codes, point_specs) = params;
        let (commit, report) = report(commit_codes, campaign_codes, point_specs);
        let line = report.history_line(&commit);
        prop_assert!(!line.contains('\n'), "jsonl: exactly one line");
        let doc = parse_json(&line).expect("history line is valid JSON");
        prop_assert_eq!(doc.get("commit").and_then(Value::as_str), Some(commit.as_str()));
        prop_assert_eq!(
            doc.get("campaign").and_then(Value::as_str),
            Some(report.campaign.as_str())
        );
        prop_assert_eq!(doc.get("host_cores").and_then(Value::as_int), Some(1));
        prop_assert_eq!(doc.get("runs").and_then(Value::as_int), Some(report.runs as i64));
        let sweep = doc.get("sweep").and_then(Value::as_array).expect("sweep array");
        prop_assert_eq!(sweep.len(), report.points.len());
        for (entry, point) in sweep.iter().zip(&report.points) {
            prop_assert_eq!(entry.get("jobs").and_then(Value::as_int), Some(point.jobs as i64));
            prop_assert_eq!(
                entry.get("identical").and_then(Value::as_bool),
                Some(point.identical)
            );
            // wall_ms is written with three decimals; compare at that
            // precision.
            let wall = entry.get("wall_ms").and_then(Value::as_float).expect("wall_ms");
            prop_assert!((wall - point.wall_ms).abs() < 5e-4, "wall_ms drifted: {wall}");
            let speedup = entry.get("speedup").and_then(Value::as_float).expect("speedup");
            prop_assert!((speedup - point.speedup).abs() < 5e-4);
            // events_per_sec is written with zero decimals.
            let eps = entry
                .get("events_per_sec")
                .and_then(|v| v.as_float().or_else(|| v.as_int().map(|n| n as f64)))
                .expect("events_per_sec");
            prop_assert!((eps - point.events_per_sec).abs() <= 0.5, "events_per_sec drifted");
            prop_assert_eq!(
                entry.get("cache_hits").and_then(Value::as_int),
                Some(point.cache_hits as i64)
            );
        }
    }
}

proptest! {
    /// The underlying writer/parser pair round-trips arbitrary BMP
    /// strings byte-for-byte — the `\uXXXX` escapes the writer emits for
    /// control characters parse back to the identical string.
    #[test]
    fn json_string_escapes_round_trip(codes in prop::collection::vec(0u32..0x10000, 0..64)) {
        let original = hostile_string(codes);
        let json = Value::Str(original.clone()).to_json();
        let parsed = parse_json(&json).expect("writer output is valid JSON");
        prop_assert_eq!(parsed.as_str(), Some(original.as_str()));
    }
}
