//! The process-level exit-code contract, asserted against the real
//! `mondrian` binary: every documented exit reason is reachable, maps to
//! its stable code, and a degraded campaign still writes a valid partial
//! `result.json` plus well-formed JUnit XML. No dead taxonomy.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn mondrian() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mondrian"));
    // A hermetic environment: tests control fault injection and worker
    // counts explicitly, never inherit them from the harness — and with
    // neither MONDRIAN_CACHE nor HOME set, the persistent store stays
    // off, so exit codes cannot depend on what earlier tests simulated.
    cmd.env_remove("MONDRIAN_FAULT");
    cmd.env_remove("MONDRIAN_JOBS");
    cmd.env_remove("MONDRIAN_CACHE");
    cmd.env_remove("HOME");
    cmd
}

fn code(output: &Output) -> i32 {
    output.status.code().expect("the binary must exit, not die on a signal")
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mondrian-exit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const CLEAN: &str = r#"
    [campaign]
    name = "exit-codes"
    systems = ["mondrian"]
    tuples_per_vault = 32

    [sweep]
    seeds = [1, 2]

    [[stage]]
    op = "filter"

    [[stage]]
    op = "count_by_key"
"#;

fn write_manifest(dir: &TempDir, name: &str, extra: &str) -> PathBuf {
    let path = dir.path(name);
    std::fs::write(&path, format!("{CLEAN}\n{extra}")).unwrap();
    path
}

/// Runs `mondrian run` on `CLEAN` + `extra`, returning the exit code and
/// the artifact path (which must exist and parse even when degraded).
fn run_campaign_binary(tag: &str, extra: &str, fault_env: Option<&str>) -> (i32, String) {
    let dir = TempDir::new(tag);
    let manifest = write_manifest(&dir, "m.toml", extra);
    let out = dir.path("result.json");
    let mut cmd = mondrian();
    cmd.args(["run", manifest.to_str().unwrap(), "--quiet", "--out", out.to_str().unwrap()]);
    if let Some(spec) = fault_env {
        cmd.env("MONDRIAN_FAULT", spec);
    }
    let output = cmd.output().unwrap();
    let artifact = std::fs::read_to_string(&out)
        .unwrap_or_else(|e| panic!("{tag}: degraded run must still write {}: {e}", out.display()));
    mondrian_cli::value::parse_json(&artifact)
        .unwrap_or_else(|e| panic!("{tag}: artifact must stay valid JSON: {e}"));
    (code(&output), artifact)
}

#[test]
fn clean_campaign_exits_zero() {
    let (exit, artifact) = run_campaign_binary("ok", "", None);
    assert_eq!(exit, 0);
    assert!(artifact.contains("\"schema_version\": 8"));
    assert!(artifact.contains("\"reason\": \"ok\""));
}

#[test]
fn missing_manifest_is_an_internal_error() {
    let output = mondrian().args(["run", "/nonexistent/manifest.toml"]).output().unwrap();
    assert_eq!(code(&output), 1);
}

#[test]
fn unknown_command_is_an_internal_error() {
    // The retired `bench` subcommand must fail like any unknown one.
    let output =
        mondrian().args(["bench", "examples/manifests/branch_join.toml"]).output().unwrap();
    assert_eq!(code(&output), 1);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown command \"bench\""), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn malformed_manifest_exits_invalid_manifest() {
    let dir = TempDir::new("invalid");
    let path = dir.path("bad.toml");
    std::fs::write(&path, "[campaign]\nname = \"x\"\nbogus_key = 1\n").unwrap();
    let output = mondrian().args(["run", path.to_str().unwrap()]).output().unwrap();
    assert_eq!(code(&output), 2);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown key"), "stderr: {stderr}");
}

#[test]
fn malformed_fault_env_exits_invalid_manifest() {
    let dir = TempDir::new("badfault");
    let manifest = write_manifest(&dir, "m.toml", "");
    let output = mondrian()
        .args(["run", manifest.to_str().unwrap()])
        .env("MONDRIAN_FAULT", "run=0;warp_speed=9")
        .output()
        .unwrap();
    assert_eq!(code(&output), 2);
}

#[test]
fn failed_assertion_exits_three() {
    let (exit, artifact) =
        run_campaign_binary("assert", "[assertions]\nmax_makespan_ps = 1\n", None);
    assert_eq!(exit, 3);
    assert!(artifact.contains("\"reason\": \"assertion_failed\""));
}

#[test]
fn tripped_wall_time_exits_four() {
    let (exit, artifact) = run_campaign_binary("walltime", "[limits]\nwall_time_ms = 0\n", None);
    assert_eq!(exit, 4);
    assert!(artifact.contains("\"reason\": \"limit_wall_time\""));
    assert!(artifact.contains("\"skipped\": true"));
}

#[test]
fn tripped_event_budget_exits_five() {
    let (exit, artifact) = run_campaign_binary("events", "[limits]\nmax_events = 200\n", None);
    assert_eq!(exit, 5);
    assert!(artifact.contains("\"reason\": \"limit_events\""));
}

#[test]
fn tripped_memory_estimate_exits_six() {
    let (exit, artifact) = run_campaign_binary("memory", "[limits]\nmax_memory_bytes = 1\n", None);
    assert_eq!(exit, 6);
    assert!(artifact.contains("\"reason\": \"limit_memory\""));
}

#[test]
fn tripped_sweep_point_cap_exits_seven() {
    let (exit, artifact) =
        run_campaign_binary("sweepcap", "[limits]\nmax_sweep_points = 1\n", None);
    assert_eq!(exit, 7);
    assert!(artifact.contains("\"reason\": \"limit_sweep_points\""));
    // The first sweep point still completed in full.
    assert!(artifact.contains("\"reason\": \"ok\""));
}

#[test]
fn injected_worker_panic_exits_eight() {
    let (exit, artifact) = run_campaign_binary("panic", "", Some("run=1;panic_at_event=10"));
    assert_eq!(exit, 8);
    assert!(artifact.contains("\"reason\": \"worker_panic\""));
    assert!(artifact.contains("\"retried\": true"));
    // The other sweep point completed: faults stay contained.
    assert!(artifact.contains("\"reason\": \"ok\""));
}

#[test]
fn junit_report_is_written_even_for_degraded_campaigns() {
    let dir = TempDir::new("junit");
    let manifest = write_manifest(&dir, "m.toml", "[limits]\nmax_events = 200\n");
    let junit = dir.path("report.xml");
    let output = mondrian()
        .args([
            "run",
            manifest.to_str().unwrap(),
            "--quiet",
            "--out",
            dir.path("result.json").to_str().unwrap(),
            "--junit",
            junit.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(code(&output), 5);
    let xml = std::fs::read_to_string(&junit).unwrap();
    assert!(xml.starts_with("<?xml version=\"1.0\""));
    assert!(xml.contains("<testsuite "));
    assert!(xml.contains("<skipped message=\"limit_events:"));
    assert!(xml.ends_with("</testsuites>\n"));
}

fn artifact_for(dir: &TempDir, tag: &str, extra: &str) -> PathBuf {
    let manifest = write_manifest(dir, &format!("{tag}.toml"), extra);
    let out = dir.path(&format!("{tag}.json"));
    let output = mondrian()
        .args(["run", manifest.to_str().unwrap(), "--quiet", "--out", out.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(code(&output), 0, "{tag} must complete cleanly");
    out
}

fn diff(a: &Path, b: &Path, extra: &[&str]) -> Output {
    let mut cmd = mondrian();
    cmd.args(["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    cmd.args(extra);
    cmd.output().unwrap()
}

#[test]
fn diff_contract_zero_twenty_and_twenty_one() {
    let dir = TempDir::new("diff");
    let a = artifact_for(&dir, "a", "");
    // Identical campaigns: no regression.
    let b = artifact_for(&dir, "b", "");
    assert_eq!(code(&diff(&a, &b, &[])), 0);
    // Same sweep axes, heavier pipeline: makespans regress past 0%.
    let slower = artifact_for(
        &dir,
        "slower",
        "[[stage]]\nop = \"sort_by_key\"\n\n[[stage]]\nop = \"count_by_key\"\n",
    );
    assert_eq!(code(&diff(&a, &slower, &["--fail-on-regression", "0"])), 20);
    // Disjoint sweep axes: nothing to compare.
    let disjoint_manifest = CLEAN.replace("tuples_per_vault = 32", "tuples_per_vault = 64");
    let path = dir.path("disjoint.toml");
    std::fs::write(&path, disjoint_manifest).unwrap();
    let out = dir.path("disjoint.json");
    let output = mondrian()
        .args(["run", path.to_str().unwrap(), "--quiet", "--out", out.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(code(&output), 0);
    let no_match = diff(&a, &out, &[]);
    assert_eq!(code(&no_match), 21);
    let stderr = String::from_utf8_lossy(&no_match.stderr);
    assert!(stderr.contains("no matched runs"), "stderr: {stderr}");
}
