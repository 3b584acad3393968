//! The persistent cross-campaign result store, end to end and
//! in-process: warm re-runs must be **byte-identical** to cold runs for
//! every `jobs` value while simulating nothing,
//! corrupted entries must degrade to misses (never into results or exit
//! codes), an edited manifest must re-simulate only the affected DAG
//! suffix, and runs with an injected fault or a retry must never reach
//! the store.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use mondrian_cli::campaign::{run_campaign_store, store_salt, Campaign, ExitReason};
use mondrian_cli::manifest::{Format, Manifest};
use mondrian_cli::value::{parse_json, Value};
use mondrian_core::fault::FaultPlan;
use mondrian_store::Store;
use proptest::prelude::*;

fn example(name: &str) -> Manifest {
    let path = format!("{}/../../examples/manifests/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let format = if name.ends_with(".json") { Format::Json } else { Format::Toml };
    Manifest::parse(&text, format).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// A unique throwaway store root, removed on drop.
struct TempRoot(PathBuf);

impl TempRoot {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mondrian-pc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempRoot(dir)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `manifest` against the store rooted at `root` (opening a fresh
/// [`Store`] instance so hit/miss counters cover exactly this campaign).
fn run_with_store(manifest: &Manifest, jobs: usize, root: &std::path::Path) -> Campaign {
    let store = Arc::new(Store::open(root, &store_salt()).expect("store opens"));
    run_campaign_store(manifest, jobs, Some(store), &(), |_| {})
}

/// Every run that carries a report came from some cache — nothing
/// entered the simulator.
fn simulated_runs(campaign: &Campaign) -> usize {
    campaign
        .runs
        .iter()
        .filter(|run| run.report.is_some() && !run.memoized && !run.memoized_persistent)
        .count()
}

const EXAMPLES: [&str; 6] = [
    "branch_join.toml",
    "cogroup_union.toml",
    "join_campaign.json",
    "limits_showcase.toml",
    "spark_pipeline.toml",
    "stream_chain.toml",
];

/// Cold baselines are expensive; simulate each example once per process
/// and let every proptest case re-warm against the same store. The
/// store roots live until process exit (temp-dir names carry the pid).
fn cold_baseline(name: &'static str) -> (PathBuf, String) {
    static BASELINES: OnceLock<Mutex<HashMap<&'static str, (PathBuf, String)>>> = OnceLock::new();
    let baselines = BASELINES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = baselines.lock().expect("baseline cache poisoned");
    map.entry(name)
        .or_insert_with(|| {
            let root = std::env::temp_dir()
                .join(format!("mondrian-pc-example-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let manifest = example(name);
            let cold = run_with_store(&manifest, 1, &root);
            assert_eq!(cold.exit().reason, ExitReason::Ok, "{name}: cold run must complete");
            (root, cold.to_json())
        })
        .clone()
}

proptest! {
    /// The acceptance property: for every example manifest, a warm
    /// re-run at any `jobs` value simulates nothing and produces an
    /// artifact byte-identical to the cold run.
    #[test]
    fn warm_reruns_are_byte_identical_and_simulate_nothing(
        case in (0..EXAMPLES.len(), 0..2usize)
    ) {
        let (which, j) = case;
        let jobs = [1usize, 4][j];
        let name = EXAMPLES[which];
        let (root, cold_artifact) = cold_baseline(name);
        let manifest = example(name);
        let warm = run_with_store(&manifest, jobs, &root);
        prop_assert_eq!(warm.exit().reason, ExitReason::Ok);
        prop_assert_eq!(
            warm.to_json(),
            cold_artifact,
            "{}: warm artifact diverged at jobs={}",
            name, jobs
        );
        prop_assert_eq!(
            simulated_runs(&warm), 0,
            "{}: a warm re-run must be served entirely from the store", name
        );
        let counters = warm.cache.expect("store attached");
        prop_assert!(counters.run_hits > 0, "{}: warm runs come from run entries", name);
    }
}

const SUFFIX_BASE: &str = r#"
    [campaign]
    name = "suffix"
    systems = ["mondrian"]
    tuples_per_vault = 32
    concurrency = "serial"

    [[stage]]
    op = "filter"
    modulus = 10
    remainder = 0

    [[stage]]
    op = "map"
    key_mul = 3
    key_add = 1

    [[stage]]
    op = "count_by_key"
"#;

#[test]
fn editing_one_stage_resimulates_only_the_dag_suffix() {
    let root = TempRoot::new("suffix");
    let manifest = Manifest::parse(SUFFIX_BASE, Format::Toml).unwrap();
    let cold = run_with_store(&manifest, 1, &root.0);
    let counters = cold.cache.expect("store attached");
    assert_eq!(counters.run_misses, 1, "cold: the full-run probe misses");
    assert_eq!(counters.stage_misses, 3, "cold: every stage probe misses");
    assert_eq!(counters.stage_hits, 0);

    // Swap the final stage: the prefix digest chain is untouched, so
    // stages 0-1 must be served from the store and only the edited
    // suffix re-simulates.
    let edited_text = SUFFIX_BASE.replace("op = \"count_by_key\"", "op = \"sort_by_key\"");
    let edited = Manifest::parse(&edited_text, Format::Toml).unwrap();
    let warm = run_with_store(&edited, 1, &root.0);
    assert_eq!(warm.exit().reason, ExitReason::Ok);
    let counters = warm.cache.expect("store attached");
    assert_eq!(counters.run_misses, 1, "the plan digest changed: no full-run hit");
    assert_eq!(counters.stage_hits, 2, "the unchanged prefix is served from the store");
    assert_eq!(counters.stage_misses, 1, "only the edited stage re-simulates");
    assert!(!warm.runs[0].memoized_persistent);
    // The schema-7 `--timings` artifact carries the proof.
    let timed = warm.to_json_with(true);
    assert!(timed.contains("\"cache.stage_hits\": 2"), "{timed}");
    assert!(timed.contains("\"cache.stage_misses\": 1"), "{timed}");

    // An unedited re-run is a full-run hit: the serial pass never even
    // starts, so no stage probes happen at all.
    let rerun = run_with_store(&manifest, 1, &root.0);
    let counters = rerun.cache.expect("store attached");
    assert_eq!(counters.run_hits, 1);
    assert_eq!(counters.stage_hits + counters.stage_misses, 0);
    assert!(rerun.runs[0].memoized_persistent);
    assert_eq!(rerun.to_json(), cold.to_json());
    let timed = rerun.to_json_with(true);
    assert!(timed.contains("\"memoized_persistent\": true"), "{timed}");
}

#[test]
fn corrupt_entries_fall_back_to_resimulation_with_exit_zero() {
    let root = TempRoot::new("corrupt");
    let manifest = Manifest::parse(SUFFIX_BASE, Format::Toml).unwrap();
    let cold = run_with_store(&manifest, 1, &root.0);
    let cold_artifact = cold.to_json();

    // Vandalize every entry: flip a byte in half of them, truncate the
    // rest. Checksums (and length framing) must catch both.
    let dir = Store::open(&root.0, &store_salt()).unwrap().dir().to_path_buf();
    let mut corrupted = 0;
    for (i, entry) in std::fs::read_dir(&dir).unwrap().flatten().enumerate() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "bin") {
            let mut bytes = std::fs::read(&path).unwrap();
            if i % 2 == 0 {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xff;
            } else {
                bytes.truncate(bytes.len() / 2);
            }
            std::fs::write(&path, &bytes).unwrap();
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "the cold run must have persisted entries");

    // The warm run detects every corruption, silently re-simulates, and
    // still produces the byte-identical artifact with exit 0.
    let warm = run_with_store(&manifest, 1, &root.0);
    assert_eq!(warm.exit().reason, ExitReason::Ok);
    assert_eq!(warm.to_json(), cold_artifact, "corruption must never leak into results");
    let counters = warm.cache.expect("store attached");
    assert_eq!(counters.run_hits, 0, "corrupt entries are misses");
    assert!(counters.misses() > 0);
    assert_eq!(simulated_runs(&warm), 1, "the run re-simulated from scratch");

    // And the re-simulation overwrote the vandalized entries: the next
    // run is warm again.
    let healed = run_with_store(&manifest, 1, &root.0);
    assert_eq!(healed.cache.expect("store attached").run_hits, 1);
    assert_eq!(healed.to_json(), cold_artifact);
}

/// A two-point sweep with a deterministic fault on run 0.
fn faulted_manifest(fault: FaultPlan) -> Manifest {
    let text = r#"
        [campaign]
        name = "fault-store"
        systems = ["mondrian"]
        tuples_per_vault = 32

        [sweep]
        seeds = [1, 2]

        [[stage]]
        op = "filter"

        [[stage]]
        op = "count_by_key"
    "#;
    let mut manifest = Manifest::parse(text, Format::Toml).unwrap();
    manifest.fault = Some(fault);
    manifest
}

#[test]
fn faulted_runs_are_never_persisted() {
    let root = TempRoot::new("fault");
    let manifest =
        faulted_manifest(FaultPlan { run: 0, panic_at_event: Some(10), ..FaultPlan::default() });
    let campaign = run_with_store(&manifest, 1, &root.0);
    assert_eq!(campaign.exit().reason, ExitReason::WorkerPanic);
    assert_eq!(campaign.runs[0].exit.reason, ExitReason::WorkerPanic);
    assert_eq!(campaign.runs[1].exit.reason, ExitReason::Ok);

    // Only the clean sweep point reached the store: one run entry, and
    // stage/ref entries from its serial pass alone.
    let store = Store::open(&root.0, &store_salt()).unwrap();
    let stats = store.stats().unwrap();
    let by_kind: std::collections::HashMap<&str, u64> =
        stats.kinds.iter().map(|(k, n, _)| (k.as_str(), *n)).collect();
    assert_eq!(by_kind["run"], 1, "the faulted run must never be written");
    assert_eq!(by_kind["stage"], 2, "only the clean run's stages persist");

    // Re-running with the fault still armed: the faulted sweep position
    // never probes the store (it re-simulates and re-faults), while the
    // clean run is served persistently.
    let warm = run_with_store(&manifest, 1, &root.0);
    assert_eq!(warm.runs[0].exit.reason, ExitReason::WorkerPanic, "no stale result served");
    assert!(!warm.runs[0].memoized_persistent);
    assert!(warm.runs[1].memoized_persistent);
    assert_eq!(warm.cache.expect("store attached").run_hits, 1);
    assert_eq!(campaign.to_json(), warm.to_json());
}

#[test]
fn retried_runs_are_never_persisted_even_when_they_recover() {
    let root = TempRoot::new("retry");
    // `times = 1`: the fault fires once and the bounded retry absorbs
    // it — the run completes Ok but must still be barred from the store.
    let manifest = faulted_manifest(FaultPlan {
        run: 0,
        panic_at_event: Some(10),
        times: Some(1),
        ..FaultPlan::default()
    });
    let campaign = run_with_store(&manifest, 1, &root.0);
    assert_eq!(campaign.exit().reason, ExitReason::Ok);
    assert!(campaign.runs[0].retried);

    let store = Store::open(&root.0, &store_salt()).unwrap();
    let stats = store.stats().unwrap();
    assert_eq!(
        stats.kinds.iter().find(|(k, ..)| k == "run").map(|&(_, n, _)| n),
        Some(1),
        "a retried run must never be written, even after recovering"
    );

    // A clean campaign over the same sweep: the recovered run's sweep
    // point misses (it was never persisted) and re-simulates.
    let mut clean = manifest.clone();
    clean.fault = None;
    let warm = run_with_store(&clean, 1, &root.0);
    assert!(!warm.runs[0].memoized_persistent);
    assert!(warm.runs[1].memoized_persistent);
    let counters = warm.cache.expect("store attached");
    assert_eq!(counters.run_hits, 1);
    assert_eq!(counters.run_misses, 1);
}

/// The `warm_sweep` benchmark shape, scaled down: every system on
/// `tiny`, 2 sizes × 3 seeds, `filter → reduce_by_key → sort_by_key`.
const WARM_SWEEP: &str = r#"
    [campaign]
    name = "warm-sweep"
    systems = ["all"]
    topology = "tiny"
    concurrency = "serial"

    [sweep]
    tuples_per_vault = [16, 32]
    seeds = [1, 2, 3]

    [[stage]]
    op = "filter"
    modulus = 10
    remainder = 0

    [[stage]]
    op = "reduce_by_key"

    [[stage]]
    op = "sort_by_key"
"#;

/// Removes what `--timings` adds and a warm run legitimately changes:
/// `metrics.host`, the store traffic under `metrics.engine.cache`, and
/// each run's `memoized_persistent` provenance flag.
fn strip_provenance(doc: &mut Value) {
    let Value::Table(root) = doc else { panic!("artifact is an object") };
    if let Some(Value::Table(metrics)) = root.get_mut("metrics") {
        metrics.remove("host");
        if let Some(Value::Table(engine)) = metrics.get_mut("engine") {
            engine.retain(|leaf, _| !leaf.starts_with("cache."));
        }
    }
    let Some(Value::Array(runs)) = root.get_mut("runs") else { panic!("artifact has runs") };
    for run in runs {
        let Value::Table(run) = run else { panic!("run is an object") };
        run.remove("memoized_persistent");
        if let Some(Value::Table(metrics)) = run.get_mut("metrics") {
            metrics.remove("host");
        }
    }
}

/// Every integer leaf of a nested `metrics` table, keyed `group.leaf`.
fn metric_counts(metrics: &Value) -> BTreeMap<String, i64> {
    let Value::Table(groups) = metrics else { panic!("metrics is an object") };
    let mut counts = BTreeMap::new();
    for (group, leaves) in groups {
        let Value::Table(leaves) = leaves else { panic!("metric group is an object") };
        for (leaf, value) in leaves {
            if let Value::Int(n) = value {
                counts.insert(format!("{group}.{leaf}"), *n);
            }
        }
    }
    counts
}

#[test]
fn warm_sweep_artifacts_match_cold_and_the_rollup_sums_the_runs() {
    let root = TempRoot::new("warm-sweep");
    let manifest = Manifest::parse(WARM_SWEEP, Format::Toml).expect("manifest parses");
    let cold = run_with_store(&manifest, 2, &root.0);
    assert_eq!(cold.exit().reason, ExitReason::Ok);
    assert_eq!(cold.runs.len(), 7 * 2 * 3);
    let warm = run_with_store(&manifest, 1, &root.0);
    assert_eq!(simulated_runs(&warm), 0, "a warm sweep simulates nothing");

    let artifact = cold.to_json();
    assert_eq!(warm.to_json(), artifact, "warm default artifact must be byte-identical");

    let mut cold_timed = parse_json(&cold.to_json_with(true)).expect("cold artifact parses");
    let mut warm_timed = parse_json(&warm.to_json_with(true)).expect("warm artifact parses");
    strip_provenance(&mut cold_timed);
    strip_provenance(&mut warm_timed);
    assert_eq!(cold_timed, warm_timed, "timed artifacts differ beyond host provenance");

    // The campaign rollup is the sum of the per-run rollups, plus one
    // exit count per run.
    let doc = parse_json(&artifact).expect("artifact parses");
    let campaign = metric_counts(doc.get("metrics").expect("campaign metrics"));
    let runs = doc.get("runs").and_then(Value::as_array).expect("runs");
    let mut summed: BTreeMap<String, i64> = BTreeMap::new();
    for run in runs {
        for (key, n) in metric_counts(run.get("metrics").expect("run metrics")) {
            *summed.entry(key).or_default() += n;
        }
    }
    summed.insert("engine.exits.ok".to_string(), runs.len() as i64);
    assert!(summed.len() > 10, "the runs carry traffic and phase counts");
    assert_eq!(campaign, summed, "campaign counts must equal the sum over runs");
}
