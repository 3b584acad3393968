//! The repository's benchmark: host time end to end and per layer, and
//! the model's fidelity to the paper, over four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scaled_chain --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer ones; the last line of standard
//! output is one JSON object. Any failed check makes the exit code 1.
//! See `NOTES.md` for what each workload is for.

mod paper;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use mondrian_cli::campaign::resolve_jobs;
use mondrian_cli::manifest::{Format, Manifest};
use mondrian_core::{ExperimentBuilder, OperatorKind};

use crate::stats::{median, percentile};
use crate::trace::{layer_self_ms, self_times, span_ms, Recorder, Span};
use crate::workloads::{
    campaign_iter, campaign_once, campaign_traced, fresh_dir, manifest_text, paper_pass, plan_us,
    CampaignFiles, Iter, Kind, COUNTS, FIG_TPV,
};

/// Times set-up is repeated per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Fewest iterations a measurement takes, however long they run.
const MIN_ITERS: usize = 3;
/// Where the benchmark keeps its scratch files and span dumps, relative
/// to the directory it runs in.
const OUT_DIR: &str = ".perfbench";
/// Layers whose self time the traced run reports.
const LAYERS: [&str; 6] = ["cli", "store", "pipeline", "core", "ops", "workloads"];
/// Stage operators of the campaign workloads, for `core.stage_ms.<op>`.
const STAGE_OPS: [&str; 8] = [
    "filter",
    "group_by_key",
    "join",
    "sort_by_key",
    "flat_map",
    "union",
    "cogroup",
    "reduce_by_key",
];

struct Args {
    workload: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    let kind = Kind::parse(&workload).ok_or_else(|| {
        format!(
            "unknown workload {workload}; one of scaled_chain, auto_dag, warm_sweep, paper_figures"
        )
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args { workload, kind, seed, seconds, trace })
}

/// User plus system CPU seconds of this process, all threads.
fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th fields of the whole line, in clock ticks.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident memory of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// The checked-out commit, read from `.git` when there is one.
fn commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".into()
    } else {
        hash.to_string()
    }
}

/// Everything one run measured.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    /// Untraced iterations.
    iters: Vec<Iter>,
    /// CPU seconds of each untraced iteration.
    cpu_s: Vec<f64>,
    /// Traced iterations, each with its per-layer timings (ms, or µs
    /// where the name says so).
    traced: Vec<(Iter, BTreeMap<String, f64>)>,
    /// Every span of the traced iterations, in order.
    spans: Vec<(usize, Span)>,
    /// Extra checks that failed, and runs they cover.
    failures: Vec<String>,
    extra_runs: u64,
    /// The model's figures, for fidelity.
    figures: Option<paper::Figures>,
    /// Peak resident memory at the end of the measurement, MB.
    peak_rss_mb: f64,
    /// Host context.
    context: BTreeMap<&'static str, String>,
}

/// A workload's prepared state between set-up and measurement.
enum Prepared {
    Campaign { files: CampaignFiles, fresh_store: bool, manifest: Box<Manifest> },
    Paper,
}

fn setup(args: &Args, dir: &Path, rep: usize) -> Result<Prepared, String> {
    if args.kind == Kind::PaperFigures {
        // Warm-up: one Mondrian experiment per basic operator.
        for op in OperatorKind::BASIC {
            let report = ExperimentBuilder::new(op).tuples_per_vault(FIG_TPV).seed(args.seed).run();
            if !report.verified {
                return Err(format!("warm-up {op} did not verify"));
            }
        }
        return Ok(Prepared::Paper);
    }
    let files = CampaignFiles {
        manifest: dir.join("manifest.toml"),
        artifact: dir.join("result.json"),
        store: dir.join(format!("store-{rep}")),
    };
    fresh_dir(&files.store)?;
    let text = manifest_text(args.kind, args.seed);
    fs::write(&files.manifest, &text).map_err(|e| format!("write manifest: {e}"))?;
    let manifest = Manifest::parse(&text, Format::Toml)?;
    let fresh_store = args.kind != Kind::WarmSweep;
    if fresh_store {
        // Warm-up.
        campaign_once(&files, None)?;
        fresh_dir(&files.store)?;
    } else {
        // Fill the store on one worker, which leaves set-up time less
        // exposed to other load on the host, then warm up.
        campaign_once(&files, Some(1))?;
        campaign_once(&files, None)?;
    }
    Ok(Prepared::Campaign { files, fresh_store, manifest: Box::new(manifest) })
}

/// One untraced iteration, checked.
fn iterate(prep: &Prepared, seed: u64) -> Result<(Iter, f64), String> {
    let cpu0 = cpu_seconds();
    let it = match prep {
        Prepared::Paper => paper_pass(seed, None),
        Prepared::Campaign { files, fresh_store, .. } => {
            let (wall, campaign, json) = campaign_once(files, None)?;
            let cpu = cpu_seconds() - cpu0;
            let it = campaign_iter(wall, &campaign, &json, !fresh_store, false);
            if *fresh_store {
                fresh_dir(&files.store)?;
            }
            return Ok((it, cpu));
        }
    };
    Ok((it, cpu_seconds() - cpu0))
}

/// A traced iteration: its record, its spans and its per-layer timings.
type Traced = (Iter, Vec<Span>, BTreeMap<String, f64>);

/// One traced iteration with its per-layer timings.
fn iterate_traced(prep: &Prepared, seed: u64, rec: &Arc<Recorder>) -> Result<Traced, String> {
    let mut layer: BTreeMap<String, f64> = BTreeMap::new();
    let it = match prep {
        Prepared::Paper => paper_pass(seed, Some(rec)),
        Prepared::Campaign { files, fresh_store, manifest } => {
            let (wall, campaign, json, ref_ratio) = campaign_traced(files, rec)?;
            let mut it = campaign_iter(wall, &campaign, &json, !fresh_store, true);
            layer.insert("pipeline.reference_hit_ratio".into(), ref_ratio);
            layer.insert("pipeline.plan_us".into(), plan_us(manifest, &it.reports));
            it.reports.clear();
            if *fresh_store {
                fresh_dir(&files.store)?;
            }
            it
        }
    };
    let mut spans = rec.take();
    let self_us = self_times(&mut spans);
    for (name, ms) in layer_self_ms(&spans, &self_us) {
        layer.insert(format!("{name}.self_ms"), ms);
    }
    let by_name = span_ms(&spans);
    let sum = |pred: &dyn Fn(&str) -> bool| -> f64 {
        by_name.iter().filter(|(k, _)| pred(k)).fold(0.0, |acc, (_, v)| acc + v)
    };
    for op in STAGE_OPS {
        layer.insert(format!("core.stage_ms.{op}"), sum(&|k| k == format!("core.stage.{op}")));
    }
    for (metric, span) in [
        ("pipeline.serial_pass_ms", "pipeline.serial_pass"),
        ("pipeline.schedule_ms", "pipeline.schedule"),
        ("cli.manifest.parse_ms", "cli.manifest.parse"),
        ("cli.campaign.serialize_ms", "cli.campaign.serialize"),
        ("workloads.source_ms", "workloads.source"),
        ("ops.reference_ms", "ops.reference"),
        ("core.experiment_ms.cpu", "core.experiment.cpu"),
    ] {
        layer.insert(metric.into(), sum(&|k| k == span));
    }
    layer.insert(
        "core.experiment_ms.nmp".into(),
        sum(&|k| k.starts_with("core.experiment.nmp") || k.starts_with("core.experiment.mondrian")),
    );
    layer.insert("store.load_ms".into(), sum(&|k| k.starts_with("store.load_")));
    layer.insert("store.save_ms".into(), sum(&|k| k.starts_with("store.save_")));
    if let Some((ratio, bytes)) = it.store {
        layer.insert("store.run_hit_ratio".into(), ratio);
        layer.insert("store.bytes".into(), bytes as f64);
    }
    Ok((it, spans, layer))
}

fn run(args: &Args, dir: &Path) -> Result<Measured, String> {
    let mut m = Measured::default();
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    m.context.insert("commit", commit());
    m.context.insert("host_cores", host_cores.to_string());
    m.context.insert("seed", args.seed.to_string());

    let mut prep = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let p = setup(args, dir, rep)?;
        m.setup_s.push(start.elapsed().as_secs_f64());
        prep = Some(p);
    }
    let prep = prep.expect("at least one set-up");
    match &prep {
        Prepared::Campaign { manifest, .. } => {
            let jobs = resolve_jobs(None, manifest.jobs)?;
            let runs = manifest.runs().len();
            // As the campaign derives them: spare workers become per-run
            // threads, and the engine follows the per-run budget.
            let threads = (jobs / runs.max(1)).max(1);
            let sim_threads = manifest.sim_threads.unwrap_or(threads);
            m.context.insert("jobs", jobs.to_string());
            m.context.insert("threads", threads.to_string());
            m.context.insert("sim_threads", sim_threads.to_string());
        }
        Prepared::Paper => {
            m.context.insert("jobs", "1".into());
            m.context.insert("threads", "1".into());
            m.context.insert("sim_threads", "1".into());
        }
    }

    let budget = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let start = Instant::now();
    while m.iters.len() < MIN_ITERS || start.elapsed().as_secs_f64() < budget {
        let (it, cpu) = iterate(&prep, args.seed)?;
        m.cpu_s.push(cpu);
        m.iters.push(it);
    }

    m.peak_rss_mb = peak_rss_mb();

    if args.trace {
        let rec = Arc::new(Recorder::new());
        if let Prepared::Campaign { files, fresh_store: false, .. } = &prep {
            // Fill the warm store under the traced path's own run keys.
            campaign_traced(files, &rec)?;
            rec.take();
        }
        let start = Instant::now();
        while m.traced.len() < MIN_ITERS || start.elapsed().as_secs_f64() < budget {
            let (it, spans, layer) = iterate_traced(&prep, args.seed, &rec)?;
            let n = m.traced.len();
            m.spans.extend(spans.into_iter().map(|s| (n, s)));
            m.traced.push((it, layer));
        }
    } else if args.kind == Kind::PaperFigures {
        m.figures = m.iters[0].figures.clone();
    } else {
        // Fidelity is a property of the model, not of the workload: every
        // run scores it once, after the measurement, from the
        // paper_figures experiment set.
        let it = paper_pass(args.seed, None);
        m.failures.extend(it.failures.iter().map(|f| format!("fidelity pass: {f}")));
        m.extra_runs += it.runs;
        m.figures = it.figures;
    }
    Ok(m)
}

/// Checks that every iteration repeated the first one's outputs, and
/// returns every failure with the runs attempted.
fn gate(m: &Measured) -> (Vec<String>, u64, u64) {
    let mut failures = m.failures.clone();
    let mut attempted = m.extra_runs;
    let mut failed = m.failures.len() as u64;
    let first = &m.iters[0];
    let all =
        m.iters.iter().map(|i| (i, "timed")).chain(m.traced.iter().map(|(i, _)| (i, "traced")));
    for (n, (it, mode)) in all.enumerate() {
        attempted += it.runs;
        let mut bad = it.failures.clone();
        if it.digest != first.digest {
            bad.push(format!(
                "{mode} iteration {n}: artifact digest {:016x} != {:016x}",
                it.digest, first.digest
            ));
        }
        for key in first.counts.keys().chain(it.counts.keys()) {
            let (a, b) = (
                it.counts.get(key).copied().unwrap_or(0.0),
                first.counts.get(key).copied().unwrap_or(0.0),
            );
            if a != b {
                bad.push(format!("{mode} iteration {n}: {key} = {a} != {b}"));
            }
        }
        if !bad.is_empty() {
            failed += it.runs;
        }
        failures.extend(bad);
    }
    (failures, attempted.max(1), failed.min(attempted.max(1)))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // Hermetic: default flags, no user store, no injected faults.
    for var in ["MONDRIAN_JOBS", "MONDRIAN_CACHE", "MONDRIAN_FAULT"] {
        std::env::remove_var(var);
    }
    let dir = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    let outcome = fresh_dir(&dir).and_then(|()| run(&args, &dir));
    let _ = fs::remove_dir_all(&dir);
    let m = match outcome {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (failures, attempted, failed) = gate(&m);

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        metrics = per_layer(&m);
        if let Err(e) = write_spans(&args, &m.spans) {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    } else {
        let walls: Vec<f64> = m.iters.iter().map(|i| i.wall_s).collect();
        let rates: Vec<f64> = m.iters.iter().map(|i| i.events as f64 / i.wall_s).collect();
        let requests: Vec<f64> =
            m.iters.iter().flat_map(|i| i.requests_ms.iter().copied()).collect();
        let figures = m.figures.clone().unwrap_or_default();
        let (log_err, rows) = paper::paper_log_err(&figures);
        let claims = paper::claims(&figures);
        let held = claims.iter().filter(|c| c.holds).count();
        metrics.push(("wall_s".into(), median(&walls), "s"));
        metrics.push(("cpu_s".into(), m.cpu_s.iter().sum::<f64>() / m.cpu_s.len() as f64, "s"));
        metrics.push(("events_per_s".into(), median(&rates), "1/s"));
        metrics.push(("peak_rss_mb".into(), m.peak_rss_mb, "MB"));
        metrics.push(("setup_s".into(), median(&m.setup_s), "s"));
        metrics.push(("campaign_p50_ms".into(), percentile(&requests, 50.0), "ms"));
        metrics.push(("campaign_p90_ms".into(), percentile(&requests, 90.0), "ms"));
        metrics.push(("paper_log_err".into(), log_err, "ln"));
        metrics.push(("shape_claims_held".into(), held as f64, "count"));

        println!("paper fidelity at {FIG_TPV} tuples/vault (model vs the paper's published figures; not validated against hardware)");
        println!("{:<26} {:>10} {:>8} {:>8}  source", "figure", "measured", "paper", "|ln|");
        for (id, measured, paper_v, source) in &rows {
            println!(
                "{id:<26} {measured:>9.1}x {paper_v:>7.0}x {:>8.3}  {source}",
                (measured / paper_v).ln().abs()
            );
        }
        println!("shape_violations = {} of {} ordinal claims", claims.len() - held, claims.len());
        for c in claims.iter().filter(|c| !c.holds) {
            println!("  violated: {}", c.name);
        }
        println!("requests: {} over {} iterations", requests.len(), m.iters.len());
        let setups: Vec<String> = m.setup_s.iter().map(|s| format!("{s:.3}")).collect();
        println!("set-ups (s): {}", setups.join(" "));
    }

    let context: Vec<String> = m.context.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")).collect();
    println!("context: {{{}}}", context.join(", "));
    println!(
        "workload {} seed {} trace {}: {} iterations",
        args.workload,
        args.seed,
        u8::from(args.trace),
        m.iters.len() + m.traced.len()
    );
    println!("{:<34} {:>16} unit", "metric", "value");
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    println!("failed_frac = {}", failed as f64 / attempted as f64);
    for f in &failures {
        println!("FAILED: {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        body.join(", ")
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The per-layer metrics of a traced run: medians over traced
/// iterations of each timing, the counts, and the tracing overhead.
fn per_layer(m: &Measured) -> Vec<(String, f64, &'static str)> {
    let med = |key: &str| -> f64 {
        let v: Vec<f64> =
            m.traced.iter().map(|(_, l)| l.get(key).copied().unwrap_or(0.0)).collect();
        median(&v)
    };
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let untraced: Vec<f64> = m.iters.iter().map(|i| i.wall_s).collect();
    let traced: Vec<f64> = m.traced.iter().map(|(i, _)| i.wall_s).collect();
    out.push(("trace_overhead_frac".into(), median(&traced) / median(&untraced) - 1.0, "frac"));
    for layer in LAYERS {
        let key = format!("{layer}.self_ms");
        out.push((key.clone(), med(&key), "ms"));
    }
    for op in STAGE_OPS {
        let key = format!("core.stage_ms.{op}");
        out.push((key.clone(), med(&key), "ms"));
    }
    for (key, unit) in [
        ("pipeline.serial_pass_ms", "ms"),
        ("pipeline.schedule_ms", "ms"),
        ("pipeline.plan_us", "us"),
        ("pipeline.reference_hit_ratio", "ratio"),
        ("store.load_ms", "ms"),
        ("store.save_ms", "ms"),
        ("store.run_hit_ratio", "ratio"),
        ("store.bytes", "B"),
        ("cli.manifest.parse_ms", "ms"),
        ("cli.campaign.serialize_ms", "ms"),
        ("workloads.source_ms", "ms"),
        ("ops.reference_ms", "ms"),
        ("core.experiment_ms.cpu", "ms"),
        ("core.experiment_ms.nmp", "ms"),
    ] {
        out.push((key.into(), med(key), unit));
    }
    let last = &m.traced.last().expect("at least one traced iteration").0;
    for key in COUNTS {
        let unit = if key.ends_with("bytes") { "B" } else { "count" };
        out.push((key.into(), last.counts.get(key).copied().unwrap_or(0.0), unit));
    }
    for system in paper::SYSTEMS {
        for phase in ["partition_ps", "probe_ps"] {
            let key = format!("core.{phase}.{system}");
            let v = last.counts.get(&key).copied().unwrap_or(0.0);
            out.push((key, v, "ps"));
        }
    }
    out
}

/// Writes the traced iterations' spans, once, at the end.
fn write_spans(args: &Args, spans: &[(usize, Span)]) -> Result<(), String> {
    let path =
        PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let mut out = String::new();
    for (iter, s) in spans {
        let sweep = s.sweep.as_deref().map_or("null".to_string(), |w| format!("\"{w}\""));
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"iteration\": {iter}, \"name\": \"{}\", \"layer\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}, \"sweep\": {sweep}, \"thread\": {}}}\n",
            s.name, s.layer, s.start_us, s.end_us, s.thread
        ));
    }
    fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))
}
