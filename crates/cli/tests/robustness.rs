//! The robustness layer, in-process: cooperative limits truncate
//! campaigns at deterministic checkpoints, injected faults fail only
//! their own sweep point (with one bounded retry), assertions evaluate
//! at assembly time — and every degraded artifact stays byte-identical
//! for every `--jobs` value.

use mondrian_cli::campaign::{run_campaign, run_campaign_jobs, ExitReason};
use mondrian_cli::junit::junit_xml;
use mondrian_cli::manifest::{Format, Manifest};
use mondrian_core::fault::FaultPlan;
use proptest::prelude::*;

fn example(name: &str) -> String {
    let path = format!("{}/../../examples/manifests/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// A three-seed sweep on one system: three unique sweep points.
fn sweep_manifest(extra: &str) -> Manifest {
    let text = format!(
        r#"
        [campaign]
        name = "robustness"
        systems = ["mondrian"]
        tuples_per_vault = 32

        [sweep]
        seeds = [1, 2, 3]

        [[stage]]
        op = "filter"

        [[stage]]
        op = "count_by_key"
        {extra}
    "#
    );
    Manifest::parse(&text, Format::Toml).unwrap()
}

#[test]
fn max_events_truncates_at_the_same_point_for_every_worker_count() {
    let manifest = sweep_manifest("[limits]\nmax_events = 200\n");
    let baseline = run_campaign_jobs(&manifest, 1, |_| {});
    assert_eq!(baseline.exit().reason, ExitReason::LimitEvents);
    assert!(baseline.exit().detail.contains("event budget"), "{}", baseline.exit().detail);
    // The first run trips mid-simulation; every later sweep point is a
    // truncation skip. The artifact is still valid JSON.
    assert!(baseline.runs[0].report.is_none());
    assert!(baseline.runs.iter().skip(1).all(|r| {
        r.exit.reason == ExitReason::LimitEvents && r.exit.detail.starts_with("campaign truncated")
    }));
    crate::parse_artifact(&baseline.to_json());
    // Byte-identical for every worker count.
    for jobs in [2, 4] {
        assert_eq!(baseline.to_json(), run_campaign_jobs(&manifest, jobs, |_| {}).to_json());
    }
}

#[test]
fn wall_time_zero_truncates_everything_identically() {
    let manifest = sweep_manifest("[limits]\nwall_time_ms = 0\n");
    let a = run_campaign_jobs(&manifest, 1, |_| {});
    let b = run_campaign_jobs(&manifest, 4, |_| {});
    assert_eq!(a.exit().reason, ExitReason::LimitWallTime);
    assert!(a.runs.iter().all(|r| r.report.is_none()));
    assert_eq!(a.to_json(), b.to_json(), "an expired deadline skips every run, deterministically");
}

#[test]
fn sweep_point_cap_completes_the_prefix_and_skips_the_rest() {
    let manifest = sweep_manifest("[limits]\nmax_sweep_points = 1\n");
    let campaign = run_campaign(&manifest, |_| {});
    assert_eq!(campaign.exit().reason, ExitReason::LimitSweepPoints);
    assert!(campaign.runs[0].report.as_ref().is_some_and(|r| r.verified()));
    assert_eq!(campaign.runs[0].exit.reason, ExitReason::Ok);
    assert!(campaign.runs[1].report.is_none());
    assert!(campaign.runs[2].report.is_none());
}

#[test]
fn memory_estimate_cap_skips_before_executing() {
    let manifest = sweep_manifest("[limits]\nmax_memory_bytes = 64\n");
    let campaign = run_campaign(&manifest, |_| {});
    assert_eq!(campaign.exit().reason, ExitReason::LimitMemory);
    assert!(campaign.runs.iter().all(|r| r.report.is_none()));
    assert!(campaign.exit().detail.contains("estimated peak relation footprint"));
    assert_eq!(campaign.sim_wall_ms(), 0.0, "nothing simulated");
    // A generous cap changes nothing.
    let roomy = sweep_manifest("[limits]\nmax_memory_bytes = 1073741824\n");
    assert_eq!(run_campaign(&roomy, |_| {}).exit().reason, ExitReason::Ok);
}

#[test]
fn injected_panic_fails_only_its_sweep_point() {
    let mut manifest = sweep_manifest("");
    manifest.fault = Some(FaultPlan { run: 1, panic_at_event: Some(10), ..FaultPlan::default() });
    let campaign = run_campaign(&manifest, |_| {});
    assert_eq!(campaign.exit().reason, ExitReason::WorkerPanic);
    assert_eq!(campaign.runs[1].exit.reason, ExitReason::WorkerPanic);
    assert_eq!(campaign.runs[1].exit.detail, "injected panic at event 10");
    assert!(campaign.runs[1].retried, "the bounded retry ran (and re-tripped)");
    assert!(campaign.runs[1].report.is_none());
    // The rest of the campaign completes and verifies: no truncation.
    for clean in [0, 2] {
        assert_eq!(campaign.runs[clean].exit.reason, ExitReason::Ok);
        assert!(campaign.runs[clean].report.as_ref().is_some_and(|r| r.verified()));
    }
    // Degraded artifacts stay byte-identical across worker counts.
    assert_eq!(campaign.to_json(), run_campaign_jobs(&manifest, 4, |_| {}).to_json());
}

#[test]
fn transient_fault_is_absorbed_by_the_bounded_retry() {
    let mut manifest = sweep_manifest("");
    manifest.fault = Some(FaultPlan {
        run: 0,
        panic_at_event: Some(10),
        times: Some(1),
        ..FaultPlan::default()
    });
    let campaign = run_campaign(&manifest, |_| {});
    assert_eq!(campaign.exit().reason, ExitReason::Ok, "one firing, one retry: absorbed");
    assert!(campaign.runs[0].retried);
    assert!(campaign.runs[0].report.as_ref().is_some_and(|r| r.verified()));
    assert!(!campaign.runs[1].retried);
}

#[test]
fn faulted_run_is_excluded_from_memoization_both_ways() {
    // An underprovision sweep on cpu normally memoizes the duplicate;
    // with a fault on run 0 the duplicate must re-simulate cleanly
    // instead of inheriting the degraded result.
    let text = r#"
        [campaign]
        name = "memo-fault"
        systems = ["cpu"]
        tuples_per_vault = 32

        [sweep]
        underprovision = [0.5, 1.0]

        [faults]
        run = 0
        panic_at_event = 10

        [[stage]]
        op = "filter"

        [[stage]]
        op = "count_by_key"
    "#;
    let manifest = Manifest::parse(text, Format::Toml).unwrap();
    let campaign = run_campaign(&manifest, |_| {});
    assert_eq!(campaign.memo_hits, 0, "faulted run neither serves nor takes memo hits");
    assert_eq!(campaign.runs[0].exit.reason, ExitReason::WorkerPanic);
    assert!(!campaign.runs[1].memoized);
    assert!(campaign.runs[1].report.as_ref().is_some_and(|r| r.verified()));
    // Without the fault the same sweep memoizes.
    let mut clean = manifest.clone();
    clean.fault = None;
    assert_eq!(run_campaign(&clean, |_| {}).memo_hits, 1);
}

#[test]
fn vault_poll_fault_is_identical_for_every_worker_count() {
    let mut manifest = sweep_manifest("");
    manifest.fault = Some(FaultPlan { run: 0, panic_in_vault_poll: true, ..FaultPlan::default() });
    let serial = run_campaign_jobs(&manifest, 1, |_| {});
    let parallel = run_campaign_jobs(&manifest, 4, |_| {});
    for campaign in [&serial, &parallel] {
        assert_eq!(campaign.runs[0].exit.reason, ExitReason::WorkerPanic);
        assert_eq!(campaign.runs[0].exit.detail, "injected vault-poll fault");
    }
    assert_eq!(serial.to_json(), parallel.to_json());
}

#[test]
fn digest_corruption_is_caught_by_stage_digest_assertions() {
    // Digests vary with the seed, so assert on a single-run campaign.
    let single = |extra: &str| {
        let text = format!(
            r#"
            [campaign]
            name = "digests"
            systems = ["mondrian"]
            tuples_per_vault = 32

            [[stage]]
            op = "filter"

            [[stage]]
            op = "count_by_key"
            {extra}
        "#
        );
        Manifest::parse(&text, Format::Toml).unwrap()
    };
    // First, learn the true digests from a clean run.
    let clean = run_campaign(&single(""), |_| {});
    let digests: Vec<String> = clean.runs[0]
        .report
        .as_ref()
        .unwrap()
        .stages
        .iter()
        .map(|s| format!("\"{:016x}\"", s.output_digest))
        .collect();
    let assertions = format!("[assertions]\nstage_digests = [{}]\n", digests.join(", "));
    // Asserted against a clean campaign they hold...
    let held = run_campaign(&single(&assertions), |_| {});
    assert_eq!(held.exit().reason, ExitReason::Ok);
    // ...and an injected digest corruption trips them.
    let mut corrupted = single(&assertions);
    corrupted.fault =
        Some(FaultPlan { run: 0, corrupt_digest_stage: Some(1), ..FaultPlan::default() });
    let campaign = run_campaign(&corrupted, |_| {});
    assert_eq!(campaign.exit().reason, ExitReason::AssertionFailed);
    assert!(campaign.exit().detail.contains("stage 1 digest"));
    assert!(campaign.runs[0].report.is_some(), "the run completed; only the assertion failed");
}

#[test]
fn makespan_and_matches_serial_assertions_evaluate() {
    let tight = sweep_manifest("[assertions]\nmax_makespan_ps = 1\n");
    let campaign = run_campaign(&tight, |_| {});
    assert_eq!(campaign.exit().reason, ExitReason::AssertionFailed);
    assert!(campaign.exit().detail.contains("exceeds 1 ps"));
    // Every run completed — failed assertions degrade, they don't skip.
    assert!(campaign.runs.iter().all(|r| r.report.is_some()));
    let lax =
        sweep_manifest("[assertions]\nmax_makespan_ps = 10000000000\nmatches_serial = true\n");
    assert_eq!(run_campaign(&lax, |_| {}).exit().reason, ExitReason::Ok);
}

#[test]
fn junit_report_reflects_degraded_campaigns() {
    let mut manifest = sweep_manifest("");
    manifest.fault = Some(FaultPlan { run: 1, panic_at_event: Some(10), ..FaultPlan::default() });
    let campaign = run_campaign(&manifest, |_| {});
    let xml = junit_xml(&campaign);
    assert!(xml.contains("tests=\"3\" failures=\"1\" skipped=\"0\""));
    assert!(xml.contains("<failure message=\"worker_panic: injected panic at event 10\"/>"));
    let truncated = run_campaign(&sweep_manifest("[limits]\nmax_events = 200\n"), |_| {});
    let xml = junit_xml(&truncated);
    assert!(xml.contains("tests=\"3\" failures=\"0\" skipped=\"3\""));
}

/// Parses an artifact with the crate's own JSON parser, panicking if the
/// degraded output stopped being valid JSON.
fn parse_artifact(json: &str) {
    mondrian_cli::value::parse_json(json).expect("degraded artifact must stay valid JSON");
}

proptest! {
    /// Satellite acceptance: a `max_events`-tripped campaign on the
    /// shipped example manifests emits byte-identical partial artifacts
    /// across `--jobs` {1, 4}.
    #[test]
    fn limit_tripped_examples_are_jobs_invariant(case in (0usize..3, 1u64..400)) {
        let (pick, budget) = case;
        let name = ["branch_join.toml", "cogroup_union.toml", "stream_chain.toml"][pick];
        let text = format!("{}\n[limits]\nmax_events = {budget}\n", example(name));
        let manifest = Manifest::parse(&text, Format::Toml).unwrap();
        let mut artifacts = Vec::new();
        for jobs in [1usize, 4] {
            let campaign = run_campaign_jobs(&manifest, jobs, |_| {});
            prop_assert_eq!(campaign.exit().reason, ExitReason::LimitEvents);
            artifacts.push(campaign.to_json());
        }
        parse_artifact(&artifacts[0]);
        prop_assert_eq!(&artifacts[0], &artifacts[1]);
    }
}
