//! The four workloads: their inputs, one timed iteration, one traced
//! iteration, and the checks on every output.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mondrian_cli::campaign::{
    resolve_jobs, run_campaign_store, store_salt, Campaign, CampaignRun, ExitReason, RunExit,
};
use mondrian_cli::manifest::{Format, Manifest, RunSpec};
use mondrian_core::{ExperimentBuilder, OperatorKind, Report, SystemKind};
use mondrian_pipeline::plan::{plan_pipeline, StageShape};
use mondrian_pipeline::{run_metrics, BuildSide, ExecCache, PipelineReport, StageSpec};
use mondrian_store::Store;

use crate::paper::{Figures, PhaseTimes, JOIN, SYSTEMS};
use crate::trace::{set_sweep, Recorder, TimingSink, TracedStore};

/// Tuples per vault of `scaled_chain`'s one sweep point.
const SCALED_TPV: usize = 128;
/// Tuples per vault of `auto_dag`.
const AUTO_TPV: usize = 96;
/// The two sizes of `warm_sweep`.
const WARM_TPV: [usize; 2] = [32, 64];
/// Seeds per size of `warm_sweep`.
const WARM_SEEDS: u64 = 16;
/// Tuples per vault of the `paper_figures` experiments.
pub const FIG_TPV: usize = 128;

/// The deterministic per-layer counts every iteration must repeat.
pub const COUNTS: [&str; 17] = [
    "sim.events",
    "cores.instructions",
    "cores.simd_ops",
    "mem.activations",
    "mem.row_hits",
    "mem.row_conflicts",
    "mem.read_bytes",
    "mem.write_bytes",
    "mem.perm_writes",
    "noc.mesh_messages",
    "noc.mesh_hops",
    "noc.serdes_packets",
    "cache.l1_misses",
    "cache.llc_misses",
    "cli.campaign.artifact_bytes",
    "pipeline.planner_won",
    "pipeline.fused_edges",
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One Mondrian sweep point on `scaled`: the engine event loop.
    ScaledChain,
    /// The `cogroup_union` DAG on 7 systems under `auto`: schedules.
    AutoDag,
    /// 224 sweep points served from a warm store: store and artifact.
    WarmSweep,
    /// The 4 basic operators on 7 systems: the paper's figures.
    PaperFigures,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "scaled_chain" => Some(Kind::ScaledChain),
            "auto_dag" => Some(Kind::AutoDag),
            "warm_sweep" => Some(Kind::WarmSweep),
            "paper_figures" => Some(Kind::PaperFigures),
            _ => None,
        }
    }
}

/// The campaign manifest of a campaign workload, derived from `seed`.
pub fn manifest_text(kind: Kind, seed: u64) -> String {
    let seed = seed % (1 << 32);
    match kind {
        Kind::ScaledChain => format!(
            "[campaign]\nname = \"scaled-chain\"\nsystems = [\"mondrian\"]\n\
             topology = \"scaled\"\ntuples_per_vault = {SCALED_TPV}\nseed = {seed}\n\
             concurrency = \"serial\"\n\n\
             [[stage]]\nop = \"filter\"\nmodulus = 10\nremainder = 0\n\n\
             [[stage]]\nop = \"group_by_key\"\n\n\
             [[stage]]\nop = \"join\"\ninput = \"source\"\nbuild = 1\n\n\
             [[stage]]\nop = \"sort_by_key\"\n"
        ),
        Kind::AutoDag => format!(
            "[campaign]\nname = \"auto-dag\"\nsystems = [\"all\"]\ntopology = \"tiny\"\n\
             tuples_per_vault = {AUTO_TPV}\nseed = {seed}\nkey_dist = \"zipf\"\n\
             zipf_theta = 0.9\nconcurrency = \"auto\"\n\n\
             [[stage]]\nop = \"filter\"\nmodulus = 10\nremainder = 0\n\n\
             [[stage]]\nop = \"flat_map\"\nfanout = 3\n\n\
             [[stage]]\nop = \"filter\"\nmodulus = 3\nremainder = 1\ninput = \"source\"\n\n\
             [[stage]]\nop = \"union\"\ninput = [1, 2]\n\n\
             [[stage]]\nop = \"cogroup\"\ninput = [1, 2]\n\n\
             [[stage]]\nop = \"sort_by_key\"\ninput = 3\n"
        ),
        Kind::WarmSweep => {
            let seeds: Vec<String> =
                (0..WARM_SEEDS).map(|i| (seed * WARM_SEEDS + i).to_string()).collect();
            format!(
                "[campaign]\nname = \"warm-sweep\"\nsystems = [\"all\"]\ntopology = \"tiny\"\n\
                 concurrency = \"serial\"\n\n\
                 [sweep]\ntuples_per_vault = [{}, {}]\nseeds = [{}]\n\n\
                 [[stage]]\nop = \"filter\"\nmodulus = 10\nremainder = 0\n\n\
                 [[stage]]\nop = \"reduce_by_key\"\n\n\
                 [[stage]]\nop = \"sort_by_key\"\n",
                WARM_TPV[0],
                WARM_TPV[1],
                seeds.join(", ")
            )
        }
        Kind::PaperFigures => String::new(),
    }
}

/// What one iteration did and produced.
#[derive(Debug, Default)]
pub struct Iter {
    /// Host wall clock of the iteration, s.
    pub wall_s: f64,
    /// Host wall clock of each request (campaign or experiment), ms.
    pub requests_ms: Vec<f64>,
    /// Runs (sweep points or experiments) attempted.
    pub runs: u64,
    /// Every check that failed, one line each.
    pub failures: Vec<String>,
    /// Digest of the default artifact (or of every experiment report).
    pub digest: u64,
    /// Engine events behind the iteration's results.
    pub events: u64,
    /// Deterministic per-layer counts.
    pub counts: BTreeMap<String, f64>,
    /// Per-system partition and probe times (`paper_figures` only).
    pub figures: Option<Figures>,
    /// Persistent-store hit ratio of whole runs, and bytes moved.
    pub store: Option<(f64, u64)>,
    /// Reports of the runs, for the planner probe.
    pub reports: Vec<PipelineReport>,
}

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Files of one campaign workload inside the benchmark's scratch
/// directory.
#[derive(Debug)]
pub struct CampaignFiles {
    /// The manifest the iterations read.
    pub manifest: PathBuf,
    /// Where each iteration writes its artifact.
    pub artifact: PathBuf,
    /// The persistent store the iterations open.
    pub store: PathBuf,
}

/// Runs one campaign the way `mondrian run --out` does: read and parse
/// the manifest, open the store, run every sweep point, serialize and
/// write the artifact. `jobs` pins the worker count as `--jobs` would.
/// Returns the wall time and the campaign.
pub fn campaign_once(
    files: &CampaignFiles,
    jobs: Option<usize>,
) -> Result<(f64, Campaign, String), String> {
    let start = Instant::now();
    let text = fs::read_to_string(&files.manifest).map_err(|e| format!("read manifest: {e}"))?;
    let manifest = Manifest::parse(&text, Format::Toml)?;
    let jobs = resolve_jobs(jobs, manifest.jobs)?;
    let store = Store::open(&files.store, &store_salt()).map_err(|e| format!("open store: {e}"))?;
    let campaign = run_campaign_store(&manifest, jobs, Some(Arc::new(store)), &(), |_| {});
    let json = campaign.to_json();
    fs::write(&files.artifact, &json).map_err(|e| format!("write artifact: {e}"))?;
    Ok((start.elapsed().as_secs_f64(), campaign, json))
}

/// Checks a campaign's runs and derives the iteration's record, keeping
/// the simulated runs' reports when `keep_reports` is set.
pub fn campaign_iter(
    wall_s: f64,
    campaign: &Campaign,
    json: &str,
    all_from_store: bool,
    keep_reports: bool,
) -> Iter {
    let mut it = Iter { wall_s, requests_ms: vec![wall_s * 1e3], ..Iter::default() };
    check_runs(&mut it, &campaign.runs, all_from_store, keep_reports);
    it.digest = fnv1a(json.bytes());
    it.counts.insert("cli.campaign.artifact_bytes".into(), json.len() as f64);
    if let Some(c) = &campaign.cache {
        let runs = (c.run_hits + c.run_misses).max(1);
        it.store = Some((c.run_hits as f64 / runs as f64, c.bytes()));
    }
    it
}

fn check_runs(it: &mut Iter, runs: &[CampaignRun], all_from_store: bool, keep_reports: bool) {
    for (i, run) in runs.iter().enumerate() {
        it.runs += 1;
        let id = run.spec.id();
        if run.exit.reason != ExitReason::Ok {
            it.failures.push(format!("run {i} ({id}): exit {}", run.exit.reason.as_str()));
        }
        let Some(report) = &run.report else {
            it.failures.push(format!("run {i} ({id}): no report"));
            continue;
        };
        if !report.verified() {
            it.failures.push(format!("run {i} ({id}): not verified"));
        }
        if !report.stages.iter().all(|s| s.matches_serial) {
            it.failures.push(format!("run {i} ({id}): a stage does not match serial"));
        }
        if all_from_store && !run.memoized_persistent {
            it.failures.push(format!("run {i} ({id}): not served from the store"));
        }
        it.events += report.events();
        *it.counts.entry("pipeline.fused_edges".into()).or_default() +=
            report.schedule.fused.len() as f64;
        let won = report.planned.as_ref().is_some_and(|p| p.planner_won);
        *it.counts.entry("pipeline.planner_won".into()).or_default() += f64::from(u8::from(won));
        if run.memoized_persistent {
            continue;
        }
        // Work the device layers did in this iteration: runs served from
        // the store simulated nothing.
        let m = run_metrics(report);
        for key in COUNTS.iter().filter(|k| !k.starts_with("cli.") && !k.starts_with("pipeline.")) {
            let unified = match *key {
                "sim.events" => "engine.events",
                "cores.instructions" => "engine.instructions",
                "cores.simd_ops" => "engine.simd_ops",
                k => k,
            };
            *it.counts.entry((*key).to_string()).or_default() += m.value(unified);
        }
        if keep_reports {
            it.reports.push(report.clone());
        }
    }
}

/// Runs `f(i)` for every `i < n` on up to `jobs` scoped threads, as the
/// campaign fans sweep points out, and returns the results in order.
fn fan_out<T: Send>(n: usize, jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = jobs.min(n).max(1);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                slots.lock().expect("worker panicked")[i] = Some(out);
            });
        }
    });
    let slots = slots.into_inner().expect("worker panicked");
    slots.into_iter().map(|s| s.expect("every sweep point ran")).collect()
}

/// The traced twin of [`campaign_once`]: the same public calls, made one
/// by one so each gets a span. Sweep points fan out over the same worker
/// count and per-run thread budget as the campaign's; whole runs are
/// keyed in the store under this benchmark's own keys.
pub fn campaign_traced(
    files: &CampaignFiles,
    rec: &Arc<Recorder>,
) -> Result<(f64, Campaign, String, f64), String> {
    let start = Instant::now();
    let root = rec.now_us();
    let text = rec.span("cli.manifest.read", "cli", || fs::read_to_string(&files.manifest));
    let text = text.map_err(|e| format!("read manifest: {e}"))?;
    let manifest =
        rec.span("cli.manifest.parse", "cli", || Manifest::parse(&text, Format::Toml))?;
    let jobs = resolve_jobs(None, manifest.jobs)?;
    let store = rec.span("store.open", "store", || Store::open(&files.store, &store_salt()));
    let store = Arc::new(store.map_err(|e| format!("open store: {e}"))?);
    let cache =
        ExecCache::with_backing(Arc::new(TracedStore::new(Arc::clone(&store), Arc::clone(rec))));
    let sink = TimingSink::new(rec);
    let pipeline = manifest.pipeline();
    let specs: Vec<RunSpec> = manifest.runs();
    let threads = (jobs / specs.len().max(1)).max(1);
    let key = |spec: &RunSpec| {
        format!(
            "perfbench|{:016x}|{}|{}",
            pipeline.plan_key(),
            manifest.concurrency.name(),
            spec.id()
        )
    };
    let results = rec.fork_span("cli.campaign.sweep", "cli", || {
        fan_out(specs.len(), jobs, |i| {
            let spec = specs[i];
            set_sweep(Some(spec.id()));
            let began = Instant::now();
            let hit = rec.span("store.load_run", "store", || store.load_run(&key(&spec)));
            let out = match hit {
                Some(report) => (report, true, began.elapsed().as_secs_f64() * 1e3),
                None => {
                    let mut cfg = manifest.config_for(spec);
                    cfg.threads = threads;
                    let t0 = rec.now_us();
                    let report = pipeline.run_observed(&cfg, &cache, &spec.id(), &sink);
                    sink.record_run(rec, &spec.id(), t0, rec.now_us());
                    (report, false, began.elapsed().as_secs_f64() * 1e3)
                }
            };
            set_sweep(None);
            out
        })
    });
    let mut runs = Vec::with_capacity(specs.len());
    for (spec, (report, persistent, ms)) in specs.iter().zip(results) {
        if !persistent {
            set_sweep(Some(spec.id()));
            rec.span("store.save_run", "store", || store.save_run(&key(spec), &report));
            set_sweep(None);
        }
        runs.push(CampaignRun {
            spec: *spec,
            report: Some(report),
            memoized: false,
            sim_wall_ms: ms,
            exit: RunExit::ok(),
            retried: false,
            memoized_persistent: persistent,
        });
    }
    rec.span("store.flush_journal", "store", || store.flush_journal());
    let campaign = Campaign {
        manifest: manifest.clone(),
        runs,
        memo_hits: 0,
        reference_hits: cache.reference_hits(),
        jobs,
        cache: Some(store.counters()),
    };
    let json = rec.span("cli.campaign.serialize", "cli", || campaign.to_json());
    let wrote = rec.span("cli.artifact.write", "cli", || fs::write(&files.artifact, &json));
    wrote.map_err(|e| format!("write artifact: {e}"))?;
    rec.record("cli.iteration", "cli", root, rec.now_us());
    let lookups = cache.reference_hits() + cache.reference_misses();
    let ref_ratio = cache.reference_hits() as f64 / lookups.max(1) as f64;
    Ok((start.elapsed().as_secs_f64(), campaign, json, ref_ratio))
}

/// Host µs the planner takes to plan every auto run of `reports`, calling
/// `plan::plan_pipeline` on each run's actual stage cardinalities as the
/// executor does (default chunk cap 8).
pub fn plan_us(manifest: &Manifest, reports: &[PipelineReport]) -> f64 {
    let pipeline = manifest.pipeline();
    let dag = pipeline.dag();
    let mut total = 0.0;
    for report in reports.iter().filter(|r| r.planned.is_some()) {
        let shapes: Vec<StageShape> = report
            .stages
            .iter()
            .map(|s| StageShape {
                rows_in: s.input_rows,
                rows_build: match s.spec {
                    StageSpec::Join { build: BuildSide::Stage(j) } => report.stages[j].output_rows,
                    _ => 0,
                },
                rows_out: s.output_rows,
            })
            .collect();
        let mut cfg = mondrian_pipeline::PipelineConfig::new(report.system);
        cfg.tiny = manifest.tiny;
        let sys = cfg.system_config();
        let start = Instant::now();
        let plan = plan_pipeline(pipeline.stages(), &dag, &shapes, &sys, 8);
        total += start.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(plan);
    }
    total
}

/// Unified counter name of an engine stat key, as `run_metrics` names
/// it, for the counters the benchmark reports.
fn unified(stat_key: &str) -> Option<&'static str> {
    let last = stat_key.rsplit('.').next()?;
    let key = if let Some(rest) = stat_key.strip_prefix("vault.") {
        match rest.split_once('.').map_or(rest, |(_, suffix)| suffix) {
            "activations" => "mem.activations",
            "row_hits" => "mem.row_hits",
            "row_conflicts" => "mem.row_conflicts",
            "read_bytes" => "mem.read_bytes",
            "write_bytes" => "mem.write_bytes",
            "perm_writes" => "mem.perm_writes",
            _ => return None,
        }
    } else if stat_key.starts_with("mesh.") && last == "messages" {
        "noc.mesh_messages"
    } else if stat_key.starts_with("mesh.") && last == "hops" {
        "noc.mesh_hops"
    } else if stat_key.starts_with("serdes.") && last == "packets" {
        "noc.serdes_packets"
    } else if stat_key.starts_with("l1.") && last == "misses" {
        "cache.l1_misses"
    } else if stat_key.starts_with("llc.") && last == "misses" {
        "cache.llc_misses"
    } else {
        return None;
    };
    Some(key)
}

/// One pass over the paper's experiment set: the 4 basic operators on
/// all 7 systems on `scaled`, uniform keys, one after another as
/// `cargo bench` runs them. With a recorder, each experiment is a
/// `core.experiment.<system>` span.
pub fn paper_pass(seed: u64, rec: Option<&Recorder>) -> Iter {
    let start = Instant::now();
    let root = rec.map(Recorder::now_us);
    let mut it = Iter::default();
    let mut figures = Figures::default();
    let mut digest_input: Vec<u8> = Vec::new();
    for (o, &op) in OperatorKind::BASIC.iter().enumerate() {
        for (s, &system) in SystemKind::ALL.iter().enumerate() {
            it.runs += 1;
            let began = Instant::now();
            let t0 = rec.map(Recorder::now_us);
            let report = std::panic::catch_unwind(|| {
                ExperimentBuilder::new(op).system(system).tuples_per_vault(FIG_TPV).seed(seed).run()
            });
            if let (Some(rec), Some(t0)) = (rec, t0) {
                rec.record(format!("core.experiment.{}", SYSTEMS[s]), "core", t0, rec.now_us());
            }
            it.requests_ms.push(began.elapsed().as_secs_f64() * 1e3);
            let Ok(report) = report else {
                it.failures.push(format!("{op} on {system}: panicked"));
                continue;
            };
            if !report.verified {
                it.failures.push(format!("{op} on {system}: not verified"));
            }
            figures.times[o][s] = PhaseTimes {
                partition_ps: report.partition_time(),
                probe_ps: report.probe_time(),
                runtime_ps: report.runtime_ps,
            };
            add_report(&mut it, &report, &mut digest_input);
        }
    }
    for (s, name) in SYSTEMS.iter().enumerate() {
        let t = &figures.times;
        it.counts.insert(format!("core.partition_ps.{name}"), t[JOIN][s].partition_ps as f64);
        let probe: u64 = t.iter().map(|op| op[s].probe_ps).sum();
        it.counts.insert(format!("core.probe_ps.{name}"), probe as f64);
    }
    it.digest = fnv1a(digest_input);
    it.figures = Some(figures);
    it.wall_s = start.elapsed().as_secs_f64();
    if let (Some(rec), Some(root)) = (rec, root) {
        rec.record("cli.iteration", "cli", root, rec.now_us());
    }
    it
}

fn add_report(it: &mut Iter, report: &Report, digest_input: &mut Vec<u8>) {
    let events: u64 = report.phases.iter().map(|p| p.events).sum();
    it.events += events;
    *it.counts.entry("sim.events".into()).or_default() += events as f64;
    *it.counts.entry("cores.instructions".into()).or_default() += report.instructions as f64;
    let simd: u64 = report.phases.iter().map(|p| p.simd_ops).sum();
    *it.counts.entry("cores.simd_ops".into()).or_default() += simd as f64;
    for (k, stat) in report.stats.iter() {
        if let Some(key) = unified(k) {
            *it.counts.entry(key.into()).or_default() += stat.as_f64();
        }
    }
    let line = format!(
        "{}|{}|{}|{}|{:?}|{}\n",
        report.op,
        report.system.name(),
        report.runtime_ps,
        report.verified,
        report.phases.iter().map(|p| (&p.label, p.start, p.end, p.events)).collect::<Vec<_>>(),
        report.stats
    );
    digest_input.extend(line.bytes());
}

/// Creates `dir` afresh, removing whatever was there.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}
