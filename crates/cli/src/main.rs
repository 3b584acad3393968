//! The `mondrian` campaign runner.
//!
//! ```text
//! mondrian run <manifest.(toml|json)> [--out result.json] [--quiet]
//!              [--concurrency serial|branch|stream|auto] [--jobs N]
//!              [--timings] [--cache-dir <path>] [--no-cache]
//! mondrian cache <stats|clear|prune --max-bytes N> [--cache-dir <path>]
//! mondrian explain <manifest.(toml|json)> [result.json]
//! mondrian diff <a/result.json> <b/result.json> [--fail-on-regression <pct>]
//! mondrian list-systems
//! ```
//!
//! `run` executes every (system × sweep) combination of the manifest's
//! pipeline — fanned over `--jobs` worker threads — prints a per-run
//! summary, and writes a deterministic machine-readable `result.json`
//! (byte-identical for every worker count). The process exits with the
//! standardized code of the campaign's exit reason (see `ExitReason`
//! and the README's exit-code table).

#![forbid(unsafe_code)]

use std::fs;
use std::process::ExitCode;
use std::sync::Arc;

use mondrian_cli::campaign::{resolve_jobs, run_campaign_store, run_line, store_salt, ExitReason};
use mondrian_cli::diff::diff;
use mondrian_cli::junit::junit_xml;
use mondrian_cli::manifest::{parse_fault_spec, Format, Manifest};
use mondrian_cli::profile::profile;
use mondrian_cli::value::{parse_json, Value};
use mondrian_core::{SystemConfig, SystemKind};
use mondrian_obs::{ProgressEvent, ProgressSink, Tracer};
use mondrian_pipeline::{plan, trace_run, Concurrency, StageInput};
use mondrian_store::{resolve_root, Store};

const USAGE: &str = "\
the Mondrian Data Engine campaign runner

usage:
  mondrian run <manifest.(toml|json)> [--out <path>] [--quiet]
               [--concurrency serial|branch|stream|auto] [--jobs N]
               [--timings] [--trace <path>]
               [--progress jsonl] [--junit <path>]
               [--cache-dir <path>] [--no-cache]
      run every (system x sweep) combination of the manifest's pipeline,
      print a summary, and write the result artifact (default: result.json);
      --concurrency overrides the manifest's scheduling knob; --jobs sets
      the worker-thread count (precedence: --jobs, MONDRIAN_JOBS, the
      manifest's jobs knob, all host cores) and never changes the
      artifact, which stays byte-identical for every worker count;
      --timings adds metrics.host.sim_wall_ms to each run (the one
      nondeterministic subtree, excluded from digests and ignored by
      mondrian diff) plus the engine.cache.* counters and per-run
      memoized_persistent cache-provenance flags; --trace writes a
      Chrome trace-event JSON timeline (simulated picoseconds; load in
      Perfetto) that is byte-identical for every --jobs value — tracing
      disables the persistent cache so every stage replays live;
      --progress jsonl streams one JSON line per stage/wave/sweep-point
      event to stderr; --junit writes a JUnit XML report (one testcase
      per sweep point, simulated-seconds times);
      results persist to a cross-campaign cache (--cache-dir, else
      MONDRIAN_CACHE, else ~/.cache/mondrian): a repeated campaign
      simulates nothing and an edited manifest re-simulates only the
      affected DAG suffix, with the artifact byte-identical to a cold
      run; --no-cache disables it
  mondrian profile <result.json>
      render a result artifact's metrics block (schema 5+): top phases
      by simulated time, memory/NoC/cache traffic, and the FR-FCFS
      scheduler-queue depth histogram
  mondrian cache <stats|clear|prune --max-bytes N> [--cache-dir <path>]
      inspect or maintain the persistent result store (--cache-dir, else
      MONDRIAN_CACHE, else ~/.cache/mondrian): stats prints per-kind
      entry counts and sizes; clear deletes every versioned store under
      the cache root; prune evicts least-recently-used entries (by
      journaled campaign recency, file name as the deterministic
      tiebreak) until at most --max-bytes remain
  mondrian explain <manifest.(toml|json)> [result.json]
      show the parsed campaign, the Table 1 lowering of every stage, the
      branch-wave schedule of the plan DAG, the adaptive planner's
      predicted per-stage makespans, and the full sweep cross product —
      without simulating anything; pass a result artifact to render
      predicted-vs-actual per stage
  mondrian diff <a/result.json> <b/result.json> [--fail-on-regression <pct>]
      compare two result artifacts run by run (makespan speedup, energy
      ratio); skipped runs (schema 6+ partial artifacts) are ignored.
      exit codes: 0 compared (and within the regression gate), 1 error,
      20 regression gate exceeded, 21 no matched runs
  mondrian list-systems
      list the evaluated system configurations
  mondrian help
      show this message

exit codes (run): 0 ok, 1 internal_error, 2 invalid_manifest,
  3 assertion_failed, 4 limit_wall_time, 5 limit_events, 6 limit_memory,
  7 limit_sweep_points, 8 worker_panic — a [limits]/[assertions] manifest
  still writes a valid partial result.json (and --junit report) when it
  trips; see the README's \"Limits, assertions & exit codes\" section

manifest schema: see README.md and examples/manifests/";

/// A command error, carrying which standardized exit code it maps to:
/// manifest problems exit `invalid_manifest` (2); everything else —
/// I/O, bad flags — exits `internal_error` (1).
enum CliError {
    /// The manifest (or `MONDRIAN_FAULT`) failed to parse or validate.
    InvalidManifest(String),
    /// Any other failure.
    Internal(String),
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::Internal(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError::Internal(message.to_string())
    }
}

/// Silences the default panic printer for cooperative [`Abort`] unwinds
/// (limit trips flow through `panic_any` on their way to `catch_unwind`);
/// genuine panics — including injected ones — still print normally.
fn install_abort_quiet_hook() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<mondrian_core::fault::Abort>().is_none() {
            default_hook(info);
        }
    }));
}

fn main() -> ExitCode {
    install_abort_quiet_hook();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("list-systems") => cmd_list_systems(),
        Some("help") | Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            Ok(0)
        }
        Some(other) => Err(CliError::Internal(format!("unknown command {other:?}\n\n{USAGE}"))),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(CliError::InvalidManifest(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(ExitReason::InvalidManifest.code())
        }
        Err(CliError::Internal(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(ExitReason::InternalError.code())
        }
    }
}

fn load_manifest(path: &str) -> Result<Manifest, CliError> {
    let format = Format::from_path(path).map_err(CliError::InvalidManifest)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut manifest = Manifest::parse(&text, format)
        .map_err(|e| CliError::InvalidManifest(format!("{path}: {e}")))?;
    // The MONDRIAN_FAULT environment variable overrides the manifest's
    // [faults] block — the CI fault-smoke matrix injects faults into
    // stock example manifests without editing them.
    if let Ok(spec) = std::env::var("MONDRIAN_FAULT") {
        if !spec.is_empty() {
            manifest.fault = Some(parse_fault_spec(&spec).map_err(CliError::InvalidManifest)?);
        }
    }
    Ok(manifest)
}

/// `--progress jsonl`: one structured JSON line per execution event on
/// stderr, leaving stdout (and the artifact) untouched.
struct JsonlSink;

impl ProgressSink for JsonlSink {
    fn emit(&self, run: &str, event: &ProgressEvent) {
        eprintln!("{}", event.to_jsonl(run));
    }
}

fn cmd_run(args: &[String]) -> Result<u8, CliError> {
    let mut manifest_path: Option<&str> = None;
    let mut out_path = "result.json".to_string();
    let mut quiet = false;
    let mut timings = false;
    let mut trace_path: Option<String> = None;
    let mut junit_path: Option<String> = None;
    let mut progress_jsonl = false;
    let mut concurrency: Option<Concurrency> = None;
    let mut jobs_flag: Option<usize> = None;
    let mut cache_dir: Option<String> = None;
    let mut no_cache = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out_path = it.next().ok_or("--out needs a path")?.clone();
            }
            "--quiet" => quiet = true,
            "--timings" => timings = true,
            "--cache-dir" => {
                cache_dir = Some(it.next().ok_or("--cache-dir needs a path")?.clone());
            }
            "--no-cache" => no_cache = true,
            "--trace" => {
                trace_path = Some(it.next().ok_or("--trace needs a path")?.clone());
            }
            "--junit" => {
                junit_path = Some(it.next().ok_or("--junit needs a path")?.clone());
            }
            "--progress" => match it.next().map(String::as_str) {
                Some("jsonl") => progress_jsonl = true,
                _ => return Err("--progress needs \"jsonl\"".into()),
            },
            "--jobs" => {
                let n = it.next().ok_or("--jobs needs a worker count")?;
                // Zero is rejected by resolve_jobs, the single validator.
                jobs_flag = Some(n.parse().map_err(|_| format!("bad worker count {n:?}"))?);
            }
            "--concurrency" => {
                let mode = it.next().map(String::as_str).and_then(Concurrency::parse);
                let usage = "--concurrency needs \"serial\", \"branch\", \"stream\" or \"auto\"";
                concurrency = Some(mode.ok_or(usage)?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}").into()),
            path => {
                if manifest_path.replace(path).is_some() {
                    return Err("exactly one manifest path expected".into());
                }
            }
        }
    }
    let path = manifest_path.ok_or(
        "usage: mondrian run <manifest> [--out <path>] [--quiet] \
         [--concurrency serial|branch|stream|auto] [--jobs N] \
         [--timings] [--trace <path>] [--progress jsonl] [--junit <path>] \
         [--cache-dir <path>] [--no-cache]",
    )?;
    let mut manifest = load_manifest(path)?;
    if let Some(c) = concurrency {
        manifest.concurrency = c;
    }
    let jobs = resolve_jobs(jobs_flag, manifest.jobs)?;

    if !quiet {
        println!(
            "campaign {:?}: {} stages on {} system(s), {} run(s), {} schedule, {} job(s)\n",
            manifest.name,
            manifest.stages.len(),
            manifest.systems.len(),
            manifest.runs().len(),
            manifest.concurrency.name(),
            jobs,
        );
    }
    // Tracing replays stage events from live reports, so warm full-run
    // hits (which skip simulation entirely) would leave empty lanes —
    // the trace path runs cold instead of lying about the timeline.
    let store = if no_cache || trace_path.is_some() {
        None
    } else if let Some(root) = resolve_root(cache_dir.as_deref()) {
        match Store::open(&root, &store_salt()) {
            Ok(store) => Some(Arc::new(store)),
            Err(e) => {
                eprintln!("warning: persistent cache disabled: {}: {e}", root.display());
                None
            }
        }
    } else {
        None
    };
    let sink: &dyn ProgressSink = if progress_jsonl { &JsonlSink } else { &() };
    let campaign = run_campaign_store(&manifest, jobs, store, sink, |run| {
        if !quiet {
            println!("{}", run_line(run));
        }
    });
    if !quiet {
        println!();
        // Per-stage detail of the first completed run as a worked example.
        if let Some(report) = campaign.runs.iter().find_map(|r| r.report.as_ref()) {
            println!("{}", report.summary_table());
            if manifest.concurrency != Concurrency::Serial {
                println!("{}", report.schedule_table());
            }
        }
    }
    // Graceful degradation: the artifact (and the JUnit report) is
    // written even when the campaign tripped a limit or failed — a
    // valid, byte-deterministic partial result — and only then does the
    // process exit with the campaign's standardized code.
    let json = campaign.to_json_with(timings);
    std::fs::write(&out_path, &json).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    let completed = campaign.runs.iter().filter(|run| run.report.is_some()).count();
    println!(
        "wrote {out_path} ({} runs, {})",
        campaign.runs.len(),
        if completed < campaign.runs.len() {
            format!("{completed} completed")
        } else if campaign.verified() {
            "all verified".to_string()
        } else {
            "VERIFICATION FAILURES".to_string()
        },
    );
    if let Some(junit_out) = junit_path {
        std::fs::write(&junit_out, junit_xml(&campaign))
            .map_err(|e| format!("cannot write {junit_out}: {e}"))?;
        println!("wrote {junit_out} (JUnit XML, simulated-seconds times)");
    }
    if let Some(trace_out) = trace_path {
        // Replayed from the deterministic reports after the fact, so the
        // trace — like the artifact — is byte-identical for every --jobs
        // value and costs nothing unless requested. Skipped runs have no
        // report and therefore no process lane.
        let mut tracer = Tracer::new();
        for (pid, run) in campaign.runs.iter().enumerate() {
            if let Some(report) = &run.report {
                trace_run(&mut tracer, pid as u64, &run.spec.id(), report);
            }
        }
        std::fs::write(&trace_out, tracer.export())
            .map_err(|e| format!("cannot write {trace_out}: {e}"))?;
        println!("wrote {trace_out} (simulated-timeline trace, 1 µs = 1 simulated ps)");
    }
    let exit = campaign.exit();
    if exit.reason != ExitReason::Ok {
        eprintln!("campaign exit: {} ({})", exit.reason.as_str(), exit.detail);
    }
    Ok(exit.reason.code())
}

fn cmd_profile(args: &[String]) -> Result<u8, CliError> {
    let [path] = args else {
        return Err("usage: mondrian profile <result.json>".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    print!("{}", profile(&text)?);
    Ok(0)
}

fn cmd_cache(args: &[String]) -> Result<u8, CliError> {
    let mut action: Option<&str> = None;
    let mut cache_dir: Option<String> = None;
    let mut max_bytes: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cache-dir" => {
                cache_dir = Some(it.next().ok_or("--cache-dir needs a path")?.clone());
            }
            "--max-bytes" => {
                let n = it.next().ok_or("--max-bytes needs a byte count")?;
                max_bytes = Some(n.parse().map_err(|_| format!("bad byte count {n:?}"))?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}").into()),
            verb => {
                if action.replace(verb).is_some() {
                    return Err("exactly one cache action expected".into());
                }
            }
        }
    }
    const CACHE_USAGE: &str =
        "usage: mondrian cache <stats|clear|prune --max-bytes N> [--cache-dir <path>]";
    let action = action.ok_or(CACHE_USAGE)?;
    let root = resolve_root(cache_dir.as_deref())
        .ok_or("no cache root: pass --cache-dir, or set MONDRIAN_CACHE or HOME")?;
    let open = || {
        Store::open(&root, &store_salt())
            .map_err(|e| format!("cannot open store under {}: {e}", root.display()))
    };
    match action {
        "stats" => {
            let store = open()?;
            let stats = store.stats().map_err(|e| format!("cannot walk store: {e}"))?;
            println!("store {}", store.dir().display());
            for (kind, entries, bytes) in &stats.kinds {
                println!("  {kind:>5}: {entries:>6} entries, {bytes:>12} B");
            }
            println!("  total: {:>6} entries, {:>12} B", stats.total_entries, stats.total_bytes);
        }
        "clear" => {
            // Clear every versioned store under the root — including ones
            // written by older engine fingerprints this binary can no
            // longer open — but nothing else, in case the root is shared.
            let mut removed = 0u64;
            if let Ok(entries) = std::fs::read_dir(&root) {
                for entry in entries.flatten() {
                    let name = entry.file_name().to_string_lossy().into_owned();
                    if is_versioned_store_dir(&name) {
                        std::fs::remove_dir_all(entry.path())
                            .map_err(|e| format!("cannot remove {name}: {e}"))?;
                        removed += 1;
                    }
                }
            }
            println!("cleared {removed} store(s) under {}", root.display());
        }
        "prune" => {
            let max_bytes = max_bytes.ok_or("prune needs --max-bytes <N>")?;
            let store = open()?;
            let report = store.prune(max_bytes).map_err(|e| format!("cannot prune store: {e}"))?;
            println!(
                "pruned {}: examined {}, evicted {} ({} B freed), {} entries ({} B) remain",
                store.dir().display(),
                report.examined,
                report.evicted,
                report.freed_bytes,
                report.remaining_entries,
                report.remaining_bytes,
            );
        }
        other => return Err(format!("unknown cache action {other:?}\n\n{CACHE_USAGE}").into()),
    }
    Ok(0)
}

/// Whether a directory name is one of the store's versioned layouts
/// (`v<digits>-<16 hex>`), from any format version or engine fingerprint.
fn is_versioned_store_dir(name: &str) -> bool {
    let Some(rest) = name.strip_prefix('v') else {
        return false;
    };
    let Some((version, hash)) = rest.split_once('-') else {
        return false;
    };
    !version.is_empty()
        && version.bytes().all(|b| b.is_ascii_digit())
        && hash.len() == 16
        && hash.bytes().all(|b| b.is_ascii_hexdigit())
}

fn cmd_explain(args: &[String]) -> Result<u8, CliError> {
    let (path, artifact) = match args {
        [path] => (path, None),
        [path, artifact] => (path, Some(artifact)),
        _ => return Err("usage: mondrian explain <manifest> [result.json]".into()),
    };
    let manifest = load_manifest(path)?;
    println!("campaign {:?}", manifest.name);
    println!(
        "  topology: {:?}, key_dist: {:?}, key_bound: {:?}, concurrency: {}",
        manifest
            .topologies
            .iter()
            .map(|&t| if t { "tiny (1 HMC x 4 vaults)" } else { "scaled (4 HMC x 16 vaults)" })
            .collect::<Vec<_>>(),
        manifest.dist,
        manifest.key_bound,
        manifest.concurrency.name(),
    );
    println!("  systems: {:?}", manifest.systems.iter().map(SystemKind::name).collect::<Vec<_>>());
    println!("  tuples_per_vault: {:?}", manifest.tuples_per_vault);
    println!("  seeds: {:?}", manifest.seeds);
    if manifest.thetas != vec![None] {
        println!("  zipf_theta: {:?}", manifest.thetas.iter().flatten().collect::<Vec<_>>());
    }
    if manifest.underprovision != vec![None] {
        println!(
            "  underprovision: {:?}",
            manifest.underprovision.iter().flatten().collect::<Vec<_>>()
        );
    }

    // The plan DAG as branch waves: concurrent branch groups indented
    // under their wave, with the input/build edges spelled out.
    let pipeline = manifest.pipeline();
    let dag = pipeline.dag();
    println!("\nplan DAG (branch waves; branches of one wave may run concurrently):");
    for (w, wave) in dag.waves.iter().enumerate() {
        println!("  wave {w}:");
        for &b in wave {
            println!("    branch {b}:");
            for &i in &dag.branches[b] {
                let stage = &pipeline.stages()[i];
                // Every incoming edge is labeled: multi-input stages
                // (union, cogroup) list each feeder in edge order.
                let described: Vec<String> =
                    stage.inputs.iter().map(|&edge| describe_input(edge, i)).collect();
                let mut edges = if described.len() == 1 {
                    format!("input: {}", described[0])
                } else {
                    format!("inputs: {}", described.join(" + "))
                };
                if let mondrian_pipeline::StageSpec::Join { build } = stage.spec {
                    let build = match build {
                        mondrian_pipeline::BuildSide::Dimension => "derived dimension".to_string(),
                        mondrian_pipeline::BuildSide::Stage(j) => format!("stage {j}"),
                    };
                    edges.push_str(&format!(", build: {build}"));
                }
                println!(
                    "      {i}: {:<18} -> {:?} -> {} operator  ({edges})",
                    stage.name(),
                    stage.spec.spark_op(),
                    stage.basic_operator(),
                );
            }
        }
    }

    // Stream-fusable producer→consumer edges: which input edges the
    // stream scheduler would pipeline through a bounded chunk channel
    // (charged only under concurrency = "stream", per-pair fallback).
    let fused = dag.fused_pairs(pipeline.stages());
    if !fused.is_empty() {
        println!(
            "\nstream-fusable edges (overlapped when concurrency = \"stream\"; \
             per-pair fallback):"
        );
        for (p, c) in fused {
            println!(
                "  {p} -> {c}: {} streams into {}'s partition phase",
                pipeline.stages()[p].name(),
                pipeline.stages()[c].name(),
            );
        }
    }

    // The adaptive planner's cost-model view of the first sweep point:
    // predicted per-stage makespans per system (what `concurrency =
    // "auto"` feeds its schedule proposals), joined with the measured
    // runtimes when a result artifact is passed alongside the manifest.
    let actuals = match artifact {
        Some(p) => {
            let text = fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            Some(parse_json(&text).map_err(|e| format!("{p}: {e}"))?)
        }
        None => None,
    };
    let tiny = *manifest.topologies.first().unwrap_or(&true);
    let tpv = *manifest.tuples_per_vault.first().unwrap_or(&256);
    println!(
        "\nplanner predictions (first sweep point; proposals charged only when \
         concurrency = \"auto\" measures them faster):"
    );
    for &system in &manifest.systems {
        let mut sys = if tiny { SystemConfig::tiny(system) } else { SystemConfig::scaled(system) };
        sys.tuples_per_vault = tpv;
        let source_rows = tpv * sys.total_vaults() as usize;
        let key_bound = manifest.key_bound.unwrap_or_else(|| (source_rows as u64 / 4).max(1));
        let shapes = plan::estimate_shapes(pipeline.stages(), source_rows, key_bound);
        let actual =
            actuals.as_ref().and_then(|doc| artifact_stage_actuals(doc, system.name(), tiny, tpv));
        println!("  {}:", system.name());
        let mut serial_sum: u64 = 0;
        for (i, (stage, shape)) in pipeline.stages().iter().zip(&shapes).enumerate() {
            let predicted = plan::predict_stage(stage, shape, &sys);
            serial_sum += predicted;
            let predicted_us = predicted as f64 / 1e6;
            match actual.as_ref().and_then(|a| a.get(i)) {
                Some(&actual_ps) => {
                    let actual_us = actual_ps as f64 / 1e6;
                    let delta =
                        if actual_ps > 0 { (predicted_us / actual_us - 1.0) * 100.0 } else { 0.0 };
                    println!(
                        "    {i}: {:<18} predicted {predicted_us:>10.3} µs, \
                         actual {actual_us:>10.3} µs ({delta:+.1}%)",
                        stage.name(),
                    );
                }
                None => {
                    println!("    {i}: {:<18} predicted {predicted_us:>10.3} µs", stage.name());
                }
            }
        }
        println!("    predicted serial sum: {:.3} µs", serial_sum as f64 / 1e6);
    }

    let runs = manifest.runs();
    println!("\nsweep cross product ({} runs):", runs.len());
    for run in &runs {
        println!("  {}", run.label());
    }
    Ok(0)
}

/// The per-stage measured runtimes of the artifact run matching
/// `(system, topology, tuples_per_vault)` — the explain command's
/// "actual" column. `None` when no run matches (different sweep, a
/// skipped run, or an older schema).
fn artifact_stage_actuals(doc: &Value, system: &str, tiny: bool, tpv: usize) -> Option<Vec<i64>> {
    let topology = if tiny { "tiny" } else { "scaled" };
    let run = doc.get("runs")?.as_array()?.iter().find(|run| {
        run.get("system").and_then(|v| v.as_str()) == Some(system)
            && run.get("topology").and_then(|v| v.as_str()) == Some(topology)
            && run.get("tuples_per_vault").and_then(Value::as_int) == Some(tpv as i64)
            && run.get("skipped").is_none()
    })?;
    run.get("stages")?
        .as_array()?
        .iter()
        .map(|s| s.get("runtime_ps").and_then(Value::as_int))
        .collect()
}

fn describe_input(input: StageInput, i: usize) -> String {
    match input {
        StageInput::Prev if i == 0 => "source".to_string(),
        StageInput::Prev => format!("stage {} (prev)", i - 1),
        StageInput::Source => "source".to_string(),
        StageInput::Stage(j) => format!("stage {j}"),
    }
}

/// `mondrian diff` exit codes, disjoint from the campaign taxonomy so
/// CI gates can distinguish "regressed" from "broken": 0 compared (and
/// within any `--fail-on-regression` gate), 1 error, 20 gate exceeded,
/// 21 no matched runs.
const DIFF_EXIT_REGRESSION: u8 = 20;
const DIFF_EXIT_NO_MATCHES: u8 = 21;

fn cmd_diff(args: &[String]) -> Result<u8, CliError> {
    let mut paths: Vec<&str> = Vec::new();
    let mut fail_on: Option<f64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fail-on-regression" => {
                let pct = it.next().ok_or("--fail-on-regression needs a percentage")?;
                let pct: f64 = pct.parse().map_err(|_| format!("bad percentage {pct:?}"))?;
                fail_on = Some(pct);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}").into()),
            path => paths.push(path),
        }
    }
    let [a, b] = paths[..] else {
        return Err(
            "usage: mondrian diff <a/result.json> <b/result.json> [--fail-on-regression <pct>]"
                .into(),
        );
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let report = diff(&read(a)?, &read(b)?)?;
    print!("{}", report.render());
    if report.rows.is_empty() {
        eprintln!("no matched runs between the two artifacts");
        return Ok(DIFF_EXIT_NO_MATCHES);
    }
    if let Some(pct) = fail_on {
        let worst = report.max_regression_pct();
        if worst > pct {
            eprintln!("regression gate failed: {worst:+.2}% > {pct}% allowed");
            return Ok(DIFF_EXIT_REGRESSION);
        }
    }
    Ok(0)
}

fn cmd_list_systems() -> Result<u8, CliError> {
    for kind in SystemKind::ALL {
        println!("{}", SystemConfig::scaled(kind).table3_sheet());
        println!();
    }
    Ok(0)
}
