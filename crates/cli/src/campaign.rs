//! Campaign execution: run every resolved configuration of a manifest and
//! render the results as a deterministic JSON artifact plus a human
//! summary.
//!
//! Two memoization layers keep sweeps from re-simulating identical work:
//!
//! * **Full-run memo** — two runs whose *effective* parameters are equal
//!   (e.g. an underprovisioning sweep on a system that never uses
//!   permutable regions) share one simulation; the later run clones the
//!   earlier report and is marked `memoized` in the artifact.
//! * **Prefix memo** — the pure per-stage reference outputs are keyed by
//!   `(stage spec, source, input digests)` in a [`ExecCache`] shared
//!   across the whole campaign, so sweeping one pipeline over many
//!   systems computes each shared stage-prefix's semantics once.
//!
//! An optional persistent [`Store`] extends both layers across processes
//! ([`run_campaign_store`]): full-run reports are keyed by the effective
//! key extended with the plan digest, per-stage results and reference
//! prefixes by the `ExecCache` digest chain. A run served whole from the
//! store is marked `memoized_persistent`; faulted, retried, and skipped
//! runs are never persisted (the same exclusion rule the in-memory memo
//! applies to the faulted sweep position).

use std::collections::{BTreeMap, HashMap};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mondrian_core::fault::{Abort, AbortReason, FaultHandle};
use mondrian_core::{KeyDist, SystemKind};
use mondrian_obs::{ProgressEvent, ProgressSink};
use mondrian_pipeline::{
    run_metrics, BuildSide, ExecCache, ExecStore, PipelineReport, Stage, StageInput, StageSpec,
    WaveReport,
};
use mondrian_sim::{fan_out, Stat, Stats};
use mondrian_store::{CacheCounters, Store};

use crate::manifest::{Manifest, RunSpec};
use crate::value::Value;

/// The result-artifact schema version. Doubles as the persistent
/// store's salt ([`store_salt`]): entries written under one schema are
/// invisible to every other, so a schema bump can never serve stale
/// shapes.
pub const SCHEMA_VERSION: i64 = 8;

/// The [`Store::open`] salt binding persistent entries to the artifact
/// schema and to the engine model ([`mondrian_core::MODEL_FINGERPRINT`]),
/// so neither a schema bump nor a model change can serve stale entries.
pub fn store_salt() -> String {
    salt_for(mondrian_core::MODEL_FINGERPRINT)
}

fn salt_for(model: u64) -> String {
    format!("schema{SCHEMA_VERSION}|model{model:016x}")
}

/// The standardized exit taxonomy: every campaign (and the `mondrian`
/// process itself) finishes with exactly one of these reasons, each
/// mapped to a stable, documented process exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// Everything ran, verified, and passed its assertions.
    Ok,
    /// An unexpected I/O or internal failure.
    InternalError,
    /// The manifest (or `MONDRIAN_FAULT`) failed to parse or validate.
    InvalidManifest,
    /// A run completed but failed verification or an `[assertions]` check.
    AssertionFailed,
    /// The `[limits] wall_time_ms` budget tripped.
    LimitWallTime,
    /// The `[limits] max_events` budget tripped.
    LimitEvents,
    /// The `[limits] max_memory_bytes` estimate tripped.
    LimitMemory,
    /// The `[limits] max_sweep_points` cap tripped.
    LimitSweepPoints,
    /// A worker panicked and the bounded retry failed too.
    WorkerPanic,
}

impl ExitReason {
    /// Stable lower-snake name, as serialized into artifacts.
    pub fn as_str(self) -> &'static str {
        match self {
            ExitReason::Ok => "ok",
            ExitReason::InternalError => "internal_error",
            ExitReason::InvalidManifest => "invalid_manifest",
            ExitReason::AssertionFailed => "assertion_failed",
            ExitReason::LimitWallTime => "limit_wall_time",
            ExitReason::LimitEvents => "limit_events",
            ExitReason::LimitMemory => "limit_memory",
            ExitReason::LimitSweepPoints => "limit_sweep_points",
            ExitReason::WorkerPanic => "worker_panic",
        }
    }

    /// The documented process exit code.
    pub fn code(self) -> u8 {
        match self {
            ExitReason::Ok => 0,
            ExitReason::InternalError => 1,
            ExitReason::InvalidManifest => 2,
            ExitReason::AssertionFailed => 3,
            ExitReason::LimitWallTime => 4,
            ExitReason::LimitEvents => 5,
            ExitReason::LimitMemory => 6,
            ExitReason::LimitSweepPoints => 7,
            ExitReason::WorkerPanic => 8,
        }
    }

    /// Whether the reason is a cooperative resource limit. A tripped
    /// limit truncates the campaign: every later sweep point is skipped.
    /// Assertion failures and worker panics are per-run — the rest of
    /// the campaign still executes.
    pub fn is_limit(self) -> bool {
        matches!(
            self,
            ExitReason::LimitWallTime
                | ExitReason::LimitEvents
                | ExitReason::LimitMemory
                | ExitReason::LimitSweepPoints
        )
    }
}

/// How one run (or the whole campaign) finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunExit {
    /// The standardized reason.
    pub reason: ExitReason,
    /// A deterministic one-line elaboration (empty for `Ok`).
    pub detail: String,
}

impl RunExit {
    /// The successful exit.
    pub fn ok() -> RunExit {
        RunExit { reason: ExitReason::Ok, detail: String::new() }
    }
}

/// One executed campaign run.
#[derive(Debug)]
pub struct CampaignRun {
    /// The resolved parameters.
    pub spec: RunSpec,
    /// The pipeline's full report; `None` when the run was skipped by a
    /// tripped limit or lost to a worker panic.
    pub report: Option<PipelineReport>,
    /// Whether the report was cloned from an effectively identical earlier
    /// run instead of re-simulated.
    pub memoized: bool,
    /// Host wall-clock milliseconds spent simulating this run (0 for memo
    /// hits). Excluded from the default artifact, from digests and from
    /// `mondrian diff`: wall time is a property of the host, not of the
    /// simulated machines.
    pub sim_wall_ms: f64,
    /// How the run finished.
    pub exit: RunExit,
    /// Whether the run's first attempt panicked and the bounded retry
    /// ran (regardless of whether the retry then succeeded).
    pub retried: bool,
    /// Whether the full report was served from the persistent store
    /// instead of simulated. Like `sim_wall_ms` this is cache
    /// provenance, not simulation output: it is only serialized under
    /// `--timings` and `mondrian diff` ignores it, so warm artifacts
    /// stay byte-identical to cold ones.
    pub memoized_persistent: bool,
}

/// Results of a whole campaign.
#[derive(Debug)]
pub struct Campaign {
    /// The manifest that drove it.
    pub manifest: Manifest,
    /// Every run, in the manifest's deterministic order.
    pub runs: Vec<CampaignRun>,
    /// Runs served from the full-run memo.
    pub memo_hits: usize,
    /// Per-stage reference outputs served from the prefix memo. Under
    /// parallel execution two workers may race to compute the same prefix,
    /// so this count (unlike `memo_hits`) can vary with scheduling; it
    /// never reaches the artifact.
    pub reference_hits: u64,
    /// Worker threads the campaign ran with.
    pub jobs: usize,
    /// Persistent-store counters for this campaign, when one was
    /// attached. Hit/miss totals can vary with worker scheduling (racing
    /// workers may redundantly probe the same reference prefix), so like
    /// `reference_hits` they are only serialized under `--timings`.
    pub cache: Option<CacheCounters>,
}

/// Resolves the worker-thread count for a campaign, in precedence order:
/// the `--jobs` flag, the `MONDRIAN_JOBS` environment variable, the
/// manifest's `jobs` knob, and finally every available host core.
/// Purely an execution-speed knob: the result artifact is byte-identical
/// for every value.
///
/// # Errors
///
/// Returns an error when `MONDRIAN_JOBS` is set but is not a positive
/// integer — a typo must not silently fall through to "all host cores".
pub fn resolve_jobs(flag: Option<usize>, manifest_jobs: Option<usize>) -> Result<usize, String> {
    let env = std::env::var("MONDRIAN_JOBS").ok();
    resolve_jobs_from(flag, env.as_deref(), manifest_jobs)
}

/// [`resolve_jobs`] with the environment value passed explicitly (so the
/// precedence and validation logic is unit-testable without mutating the
/// process environment).
fn resolve_jobs_from(
    flag: Option<usize>,
    env: Option<&str>,
    manifest_jobs: Option<usize>,
) -> Result<usize, String> {
    if let Some(n) = flag {
        return if n >= 1 { Ok(n) } else { Err("--jobs must be at least 1".into()) };
    }
    if let Some(v) = env {
        return match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("MONDRIAN_JOBS must be a positive integer, got {v:?}")),
        };
    }
    Ok(manifest_jobs
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
        .max(1))
}

/// The parameters that actually influence a run's simulation. Axes that
/// cannot change the outcome are normalized away
/// ([`mondrian_pipeline::PipelineConfig::effective_underprovision`]), so
/// sweeping them does not re-simulate.
fn effective_key(
    manifest: &Manifest,
    spec: &RunSpec,
) -> (SystemKind, bool, usize, u64, Option<u64>, Option<u64>) {
    let underprovision = manifest.config_for(*spec).effective_underprovision().map(f64::to_bits);
    (
        spec.system,
        spec.tiny,
        spec.tuples_per_vault,
        spec.seed,
        spec.theta.map(f64::to_bits),
        underprovision,
    )
}

/// Executes every run of `manifest` on one worker, invoking `progress`
/// with each run's outcome as it completes. Equivalent to
/// [`run_campaign_jobs`] with `jobs = 1`.
pub fn run_campaign<F: FnMut(&CampaignRun)>(manifest: &Manifest, progress: F) -> Campaign {
    run_campaign_jobs(manifest, 1, progress)
}

/// Executes every run of `manifest`, fanning the sweep's *unique*
/// simulations out over `jobs` scoped worker threads.
///
/// Determinism by construction: the memo plan is fixed from the manifest
/// order before anything executes — the first run of each effective key
/// is its **owner** and simulates; every later duplicate clones the
/// owner's report and is flagged `memoized`. Owners are deterministic
/// simulations of disjoint sweep points, results are collected by sweep
/// position, and `progress` fires in manifest order — so the artifact is
/// byte-identical for every `jobs` value and any thread interleaving.
pub fn run_campaign_jobs<F: FnMut(&CampaignRun)>(
    manifest: &Manifest,
    jobs: usize,
    progress: F,
) -> Campaign {
    run_campaign_sink(manifest, jobs, &(), progress)
}

/// [`run_campaign_jobs`] with a live [`ProgressSink`] attached: stage and
/// wave events stream from the executing workers as they happen (their
/// interleaving across runs follows thread scheduling), and one
/// `SweepPointDone` per run fires from the assembly loop in manifest
/// order. Observation only — the artifact stays byte-identical to an
/// unobserved campaign.
pub fn run_campaign_sink<F: FnMut(&CampaignRun)>(
    manifest: &Manifest,
    jobs: usize,
    sink: &dyn ProgressSink,
    progress: F,
) -> Campaign {
    run_campaign_store(manifest, jobs, None, sink, progress)
}

/// [`run_campaign_sink`] with an optional persistent [`Store`] attached.
/// Owners probe the store before simulating: a full-run hit skips the
/// simulation entirely (`memoized_persistent`), and on misses the
/// engine's per-stage and reference-prefix results read through the
/// store's [`ExecStore`] backing — so an edited manifest re-simulates
/// only the DAG suffix whose digest chain changed. Runs that end
/// faulted, retried, skipped, or otherwise non-`Ok` are never written
/// back. The artifact stays byte-identical to a storeless campaign for
/// every `jobs` value: cache provenance is only
/// serialized under `--timings`.
pub fn run_campaign_store<F: FnMut(&CampaignRun)>(
    manifest: &Manifest,
    jobs: usize,
    store: Option<Arc<Store>>,
    sink: &dyn ProgressSink,
    mut progress: F,
) -> Campaign {
    let jobs = jobs.max(1);
    let pipeline = manifest.pipeline();
    let cache = match &store {
        Some(s) => ExecCache::with_backing(Arc::clone(s) as Arc<dyn ExecStore>),
        None => ExecCache::default(),
    };
    let specs = manifest.runs();
    let deadline =
        manifest.limits.wall_time_ms.map(|ms| Instant::now() + Duration::from_millis(ms));

    // Limits that are pure functions of the manifest — the sweep-point
    // cap and the memory estimate — are planned as skips before anything
    // executes, so they are trivially identical for every worker count.
    let planned: Vec<Option<RunExit>> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            if let Some(cap) = manifest.limits.max_sweep_points {
                if i >= cap {
                    return Some(RunExit {
                        reason: ExitReason::LimitSweepPoints,
                        detail: format!("sweep point {i} is past max_sweep_points {cap}"),
                    });
                }
            }
            if let Some(cap) = manifest.limits.max_memory_bytes {
                let est = estimate_memory_bytes(manifest, spec);
                if est > cap {
                    return Some(RunExit {
                        reason: ExitReason::LimitMemory,
                        detail: format!(
                            "estimated peak relation footprint {est} B exceeds \
                             max_memory_bytes {cap}"
                        ),
                    });
                }
            }
            None
        })
        .collect();

    // The faulted sweep position (if any) is excluded from memoization in
    // both directions: it must not serve a possibly-degraded report to
    // clean duplicates, and it must actually execute so the fault fires.
    let fault_run: Option<usize> = manifest.fault.as_ref().map(|p| p.run);
    let fault_handle: Option<Arc<FaultHandle>> =
        manifest.fault.clone().map(|p| Arc::new(FaultHandle::new(p)));

    // The memo plan: owner[i] = the first manifest position sharing run
    // i's effective key (itself, if i computes). Planned skips never
    // execute and never own anything.
    let mut first_of: HashMap<_, usize> = HashMap::new();
    let mut owner: Vec<usize> = Vec::with_capacity(specs.len());
    let mut unique: Vec<usize> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        if planned[i].is_some() {
            owner.push(i);
            continue;
        }
        if Some(i) == fault_run {
            owner.push(i);
            unique.push(i);
            continue;
        }
        let key = effective_key(manifest, spec);
        match first_of.get(&key) {
            Some(&j) => owner.push(j),
            None => {
                first_of.insert(key, i);
                owner.push(i);
                unique.push(i);
            }
        }
    }
    let memo_hits = owner.iter().enumerate().filter(|&(i, &o)| o != i).count();

    // Spare workers become intra-run branch-wave threads. Derived from
    // the manifest alone, so it cannot perturb determinism — and neither
    // could any other split, since intra-run threading is
    // result-invariant too.
    let threads_per_run = (jobs / unique.len().max(1)).max(1);

    // What one executed sweep point yields: report, sim wall-clock ms,
    // exit, whether the bounded retry ran, and whether the report came
    // from the persistent store.
    type RunResult = (Option<PipelineReport>, f64, RunExit, bool, bool);

    // The persistent full-run key: the effective key's components plus
    // everything else that shapes the report — the plan digest, the
    // source distribution and bound, the schedule mode, and the event
    // budget (a budget can abort a run mid-stage, so entries saved under
    // one budget must not serve another). Thread counts and the wall
    // deadline are absent: the former are result-invariant, and
    // deadline-tripped runs are never persisted.
    let plan_digest = pipeline.plan_key();
    let run_key = |i: usize| -> String {
        let cfg = manifest.config_for(specs[i]);
        let theta = match cfg.dist {
            KeyDist::Uniform => None,
            KeyDist::Zipf(t) => Some(t.to_bits()),
        };
        let underprovision = cfg.effective_underprovision().map(f64::to_bits);
        format!(
            "run1|plan={plan_digest:016x}|sys={}|tiny={}|tpv={}|seed={}|theta={theta:?}|\
             bound={:?}|up={underprovision:?}|conc={}|max_events={:?}",
            cfg.system.name(),
            cfg.tiny,
            cfg.tuples_per_vault,
            cfg.seed,
            cfg.key_bound,
            cfg.concurrency.name(),
            manifest.limits.max_events,
        )
    };

    // Runs one sweep point, converting panics into a structured exit:
    // tripped limits pass through unchanged; anything else (an injected
    // fault, a branch-worker panic, a bug) gets exactly one retry before
    // it becomes a `worker_panic` failure of this sweep point alone.
    // With a store attached, a full-run hit short-circuits everything —
    // including the fault machinery, which is safe because the faulted
    // sweep position never probes (or writes) the store.
    let run_one = |i: usize| -> RunResult {
        let mut cfg = manifest.config_for(specs[i]);
        cfg.threads = threads_per_run;
        cfg.max_events = manifest.limits.max_events;
        cfg.deadline = deadline;
        if Some(i) == fault_run {
            cfg.fault = fault_handle.clone();
        }
        let start = Instant::now();
        // Past the wall deadline the probe is skipped, so the run falls
        // through to the simulator and trips `limit_wall_time` exactly as
        // a cold run would — warmth never changes the exit contract.
        let before_deadline = deadline.is_none_or(|d| Instant::now() < d);
        if Some(i) != fault_run && before_deadline {
            if let Some(store) = &store {
                if let Some(report) = store.load_run(&run_key(i)) {
                    let ms = start.elapsed().as_secs_f64() * 1e3;
                    return (Some(report), ms, RunExit::ok(), false, true);
                }
            }
        }
        let attempt = || {
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                pipeline.run_observed(&cfg, &cache, &specs[i].id(), sink)
            }))
        };
        let (report, exit, retried) = match attempt() {
            Ok(report) => (Some(report), RunExit::ok(), false),
            Err(payload) => {
                let exit = classify_panic(payload.as_ref());
                if exit.reason.is_limit() {
                    (None, exit, false)
                } else {
                    match attempt() {
                        Ok(report) => (Some(report), RunExit::ok(), true),
                        Err(second) => (None, classify_panic(second.as_ref()), true),
                    }
                }
            }
        };
        (report, start.elapsed().as_secs_f64() * 1e3, exit, retried, false)
    };

    // Parallel pre-pass over the owners; with one job the owners simulate
    // lazily inside the assembly loop instead, so progress streams.
    // Workers claim owners through one shared cursor, so one long-running
    // sweep point cannot strand the rest of the ladder behind it.
    // Scheduling is nondeterministic; results are collected by sweep
    // position, so the artifact is not.
    let mut results: Vec<Option<RunResult>> = (0..specs.len()).map(|_| None).collect();
    if jobs > 1 && unique.len() > 1 {
        let outs = fan_out(unique.len(), jobs, |k| run_one(unique[k]));
        for (&i, out) in unique.iter().zip(outs) {
            results[i] = Some(out);
        }
    }

    // Assemble by sweep position. The first tripped *limit* truncates:
    // every later sweep point is recorded as skipped with the same
    // reason, and results the pre-pass may already have computed past
    // the truncation point are discarded — so the artifact is identical
    // for every worker count. Assertion failures and worker panics are
    // per-run and do not truncate.
    let mut truncated: Option<RunExit> = None;
    let mut runs: Vec<CampaignRun> = Vec::with_capacity(specs.len());
    for (i, &spec) in specs.iter().enumerate() {
        let planned_exit = planned[i].clone();
        let (report, sim_wall_ms, exit, retried, persistent) = if let Some(cut) = &truncated {
            let detail = if cut.detail.is_empty() {
                "campaign truncated".to_string()
            } else {
                format!("campaign truncated: {}", cut.detail)
            };
            (None, 0.0, RunExit { reason: cut.reason, detail }, false, false)
        } else if let Some(exit) = planned_exit {
            (None, 0.0, exit, false, false)
        } else if owner[i] != i {
            let source = &runs[owner[i]];
            (source.report.clone(), 0.0, source.exit.clone(), false, false)
        } else {
            let (report, sim_wall_ms, mut exit, retried, persistent) =
                results[i].take().unwrap_or_else(|| run_one(i));
            if exit.reason == ExitReason::Ok {
                if let Some(report) = &report {
                    if let Some(failed) = check_assertions(manifest, i, report) {
                        exit = failed;
                    }
                }
            }
            // Persist only a clean first-attempt simulation: never a
            // store hit (already there), a faulted position, a retried
            // run, or anything that exited non-`Ok` — including
            // assertion failures, so assertions are always re-evaluated
            // against a live simulation.
            if let Some(store) = &store {
                if !persistent && !retried && exit.reason == ExitReason::Ok && Some(i) != fault_run
                {
                    if let Some(report) = &report {
                        store.save_run(&run_key(i), report);
                    }
                }
            }
            (report, sim_wall_ms, exit, retried, persistent)
        };
        if truncated.is_none() && exit.reason.is_limit() {
            truncated = Some(exit.clone());
        }
        let run = CampaignRun {
            spec,
            report,
            memoized: owner[i] != i,
            sim_wall_ms,
            exit,
            retried,
            memoized_persistent: persistent,
        };
        sink.emit(
            &run.spec.id(),
            &ProgressEvent::SweepPointDone {
                makespan_ps: run.report.as_ref().map_or(0, PipelineReport::makespan_ps),
                verified: run.report.as_ref().is_some_and(PipelineReport::verified),
                memoized: run.memoized,
            },
        );
        progress(&run);
        runs.push(run);
    }
    Campaign {
        manifest: manifest.clone(),
        runs,
        memo_hits,
        reference_hits: cache.reference_hits(),
        jobs,
        cache: store.map(|s| {
            s.flush_journal();
            s.counters()
        }),
    }
}

/// Maps a caught panic payload onto the exit taxonomy: structured
/// [`Abort`]s keep their reason; anything else is a worker panic whose
/// message becomes the detail.
fn classify_panic(payload: &(dyn std::any::Any + Send)) -> RunExit {
    match payload.downcast_ref::<Abort>() {
        Some(abort) => {
            let reason = match abort.reason {
                AbortReason::LimitEvents => ExitReason::LimitEvents,
                AbortReason::LimitWallTime => ExitReason::LimitWallTime,
                AbortReason::WorkerPanic => ExitReason::WorkerPanic,
            };
            RunExit { reason, detail: abort.detail.clone() }
        }
        None => RunExit {
            reason: ExitReason::WorkerPanic,
            detail: mondrian_core::fault::panic_message(payload),
        },
    }
}

/// Estimates a run's peak relation footprint from the manifest alone:
/// 16 bytes per tuple, summed over the source and every stage output.
/// Row counts are upper bounds propagated structurally — fan-out
/// multiplies, unions add, everything else is bounded by its input — so
/// the estimate (and therefore a `max_memory_bytes` trip) is a pure
/// function of the manifest, identical for every worker count.
fn estimate_memory_bytes(manifest: &Manifest, spec: &RunSpec) -> u64 {
    const BYTES_PER_TUPLE: u64 = 16;
    let vaults = manifest.config_for(*spec).system_config().total_vaults() as u64;
    let source = spec.tuples_per_vault as u64 * vaults;
    let mut rows: Vec<u64> = Vec::with_capacity(manifest.stages.len());
    for (i, stage) in manifest.stages.iter().enumerate() {
        let input = |edge: &StageInput| match *edge {
            StageInput::Source => source,
            StageInput::Prev => {
                if i == 0 {
                    source
                } else {
                    rows[i - 1]
                }
            }
            StageInput::Stage(j) => rows[j],
        };
        let out = match stage.spec {
            StageSpec::FlatMap { fanout } => input(&stage.inputs[0]).saturating_mul(fanout),
            StageSpec::Union | StageSpec::Cogroup => {
                stage.inputs.iter().map(input).fold(0u64, u64::saturating_add)
            }
            _ => input(&stage.inputs[0]),
        };
        rows.push(out);
    }
    let total = source + rows.iter().fold(0u64, |acc, &r| acc.saturating_add(r));
    total.saturating_mul(BYTES_PER_TUPLE)
}

/// Evaluates the always-on verification requirement and the manifest's
/// `[assertions]` against one completed run. Returns the first failure.
fn check_assertions(manifest: &Manifest, index: usize, report: &PipelineReport) -> Option<RunExit> {
    let fail = |detail: String| Some(RunExit { reason: ExitReason::AssertionFailed, detail });
    if !report.verified() {
        let stage = report
            .stages
            .iter()
            .position(|s| !(s.report.verified && s.reference_ok && s.matches_serial));
        return fail(match stage {
            Some(s) => format!("run {index}: stage {s} failed verification"),
            None => format!("run {index}: verification failed"),
        });
    }
    let assertions = &manifest.assertions;
    if assertions.matches_serial {
        if let Some(s) = report.stages.iter().position(|s| !s.matches_serial) {
            return fail(format!("run {index}: stage {s} diverged from the serial schedule"));
        }
    }
    if let Some(cap) = assertions.max_makespan_ps {
        let makespan = report.makespan_ps();
        if makespan > cap {
            return fail(format!("run {index}: makespan {makespan} ps exceeds {cap} ps"));
        }
    }
    if let Some(expected) = &assertions.stage_digests {
        for (s, (&want, stage)) in expected.iter().zip(&report.stages).enumerate() {
            if stage.output_digest != want {
                return fail(format!(
                    "run {index}: stage {s} digest {:016x} != expected {want:016x}",
                    stage.output_digest
                ));
            }
        }
    }
    None
}

impl Campaign {
    /// Whether every stage of every completed run verified. Skipped runs
    /// don't count against verification — they are accounted for by
    /// [`Campaign::exit`].
    pub fn verified(&self) -> bool {
        self.runs.iter().all(|r| r.report.as_ref().is_none_or(PipelineReport::verified))
    }

    /// The campaign's overall exit: the first non-`Ok` run exit in
    /// manifest order, else `Ok`. Deterministic because run exits are.
    pub fn exit(&self) -> RunExit {
        self.runs
            .iter()
            .map(|r| &r.exit)
            .find(|e| e.reason != ExitReason::Ok)
            .cloned()
            .unwrap_or_else(RunExit::ok)
    }

    /// The machine-readable result artifact. Fully deterministic: object
    /// keys are sorted, runs follow the manifest's cross-product order,
    /// and every number derives from the seeded simulation — never from
    /// the host, the worker count, or thread scheduling.
    pub fn to_json(&self) -> String {
        self.to_json_with(false)
    }

    /// Like [`Campaign::to_json`], optionally annotating each run with
    /// its `sim_wall_ms` host wall-clock time (the `--timings` flag).
    /// Wall times are measurements of the host, not of the simulated
    /// machines: they are excluded from digests and ignored by
    /// `mondrian diff`, and artifacts carrying them are not expected to
    /// be byte-comparable.
    pub fn to_json_with(&self, timings: bool) -> String {
        let mut root = Value::table();
        root.insert("campaign", Value::Str(self.manifest.name.clone()));
        // Schema 8: schema 7 (persistent-store provenance under
        // `--timings`, on top of schema 6's unified `metrics` block and
        // robustness layer) plus the adaptive planner: `concurrency` may
        // be "auto", and each auto run carries a `planned` block — the
        // cost model's per-stage predictions, the predicted makespan,
        // whether the planned schedule beat the default one, and the
        // weighted-lease / chunk-count deviations it proposed — so
        // `mondrian diff` can attribute wins.
        root.insert("schema_version", Value::Int(SCHEMA_VERSION));
        root.insert("exit", exit_json(&self.exit()));
        root.insert(
            "systems",
            Value::Array(
                self.manifest.systems.iter().map(|s| Value::Str(s.name().to_string())).collect(),
            ),
        );
        root.insert(
            "topology",
            Value::Str(if self.manifest.tiny { "tiny" } else { "scaled" }.to_string()),
        );
        root.insert("concurrency", Value::Str(self.manifest.concurrency.name().to_string()));
        root.insert("stages", Value::Array(self.manifest.stages.iter().map(stage_json).collect()));
        root.insert("verified", Value::Bool(self.verified()));
        root.insert("memo_hits", Value::Int(self.memo_hits as i64));
        // Each run's rollup is computed once: it feeds both the campaign
        // total and the run's own `metrics` block.
        let run_rollups: Vec<Option<Stats>> =
            self.runs.iter().map(|run| run.report.as_ref().map(run_metrics)).collect();
        let mut rollup = Stats::new();
        for (run, metrics) in self.runs.iter().zip(&run_rollups) {
            if let Some(metrics) = metrics {
                rollup.merge(metrics);
            }
            rollup.add_count(&mondrian_obs::exit_counter_key(run.exit.reason.as_str()), 1);
        }
        if timings {
            rollup.add_value("host.sim_wall_ms", self.sim_wall_ms());
            // Prefix-memo hits vary with worker scheduling (two workers
            // may race to compute the same prefix), so like wall time
            // they only exist under the host subtree.
            rollup.add_count("host.reference_prefix_hits", self.reference_hits);
            // Persistent-store traffic: warm-only by definition, and the
            // reference-entry component is scheduling-dependent like the
            // prefix memo, so it rides the same `--timings` gate.
            if let Some(cache) = &self.cache {
                rollup.add_count("engine.cache.hits", cache.hits());
                rollup.add_count("engine.cache.misses", cache.misses());
                rollup.add_count("engine.cache.bytes", cache.bytes());
                rollup.add_count("engine.cache.run_hits", cache.run_hits);
                rollup.add_count("engine.cache.run_misses", cache.run_misses);
                rollup.add_count("engine.cache.stage_hits", cache.stage_hits);
                rollup.add_count("engine.cache.stage_misses", cache.stage_misses);
            }
        }
        root.insert("metrics", metrics_json(&rollup));
        let runs = self.runs.iter().zip(run_rollups).map(|(r, m)| run_json(r, m, timings));
        root.insert("runs", Value::Array(runs.collect()));
        root.to_json()
    }

    /// One line per run for terminals and logs.
    pub fn human_summary(&self) -> String {
        let mut out = String::new();
        for run in &self.runs {
            out.push_str(&run_line(run));
            out.push('\n');
        }
        out.push_str(&format!(
            "{} runs, {} stages each: {}",
            self.runs.len(),
            self.manifest.stages.len(),
            if self.verified() { "all verified" } else { "VERIFICATION FAILURES" },
        ));
        let exit = self.exit();
        if exit.reason != ExitReason::Ok {
            out.push_str(&format!(" [exit {}: {}]", exit.reason.as_str(), exit.detail));
        }
        if self.memo_hits > 0 || self.reference_hits > 0 {
            out.push_str(&format!(
                " ({} memoized runs, {} reference-prefix reuses)",
                self.memo_hits, self.reference_hits,
            ));
        }
        if let Some(cache) = &self.cache {
            out.push_str(&format!(
                " [cache: {} hits, {} misses, {} B]",
                cache.hits(),
                cache.misses(),
                cache.bytes(),
            ));
        }
        out.push_str(&format!(" [{} job(s), {:.1} ms sim wall]", self.jobs, self.sim_wall_ms()));
        out.push('\n');
        out
    }

    /// Total host wall-clock milliseconds spent simulating.
    pub fn sim_wall_ms(&self) -> f64 {
        self.runs.iter().map(|r| r.sim_wall_ms).sum()
    }
}

/// The one-line outcome of a run.
pub fn run_line(run: &CampaignRun) -> String {
    let Some(report) = &run.report else {
        return format!(
            "{} SKIPPED ({}: {})",
            run.spec.label(),
            run.exit.reason.as_str(),
            run.exit.detail,
        );
    };
    format!(
        "{} {:>12.3} µs {:>12.3} µJ  {} → {} rows  {}{}{}{}",
        run.spec.label(),
        report.makespan_ps() as f64 / 1e6,
        report.energy_j() * 1e6,
        report.source_rows,
        report.output.len(),
        match run.exit.reason {
            ExitReason::Ok => "ok".to_string(),
            reason => format!("FAILED ({})", reason.as_str()),
        },
        if run.memoized { " (memo)" } else { "" },
        if run.memoized_persistent { " (cached)" } else { "" },
        if run.retried { " (retried)" } else { "" },
    )
}

fn exit_json(exit: &RunExit) -> Value {
    let mut table = Value::table();
    table.insert("reason", Value::Str(exit.reason.as_str().to_string()));
    table.insert("detail", Value::Str(exit.detail.clone()));
    table
}

fn stage_json(stage: &Stage) -> Value {
    let mut table = BTreeMap::new();
    let spec = &stage.spec;
    table.insert("op".to_string(), Value::Str(spec.name().to_string()));
    table
        .insert("basic_operator".to_string(), Value::Str(spec.basic_operator().name().to_string()));
    let edge = |input: StageInput| match input {
        StageInput::Prev => Value::Str("prev".to_string()),
        StageInput::Source => Value::Str("source".to_string()),
        StageInput::Stage(j) => Value::Int(j as i64),
    };
    // Single edges stay scalar (readable, schema-2 compatible); multi-input
    // stages emit the full edge list.
    let input = if stage.inputs.len() == 1 {
        edge(stage.inputs[0])
    } else {
        Value::Array(stage.inputs.iter().copied().map(edge).collect())
    };
    table.insert("input".to_string(), input);
    match *spec {
        StageSpec::Filter { modulus, remainder } => {
            table.insert("modulus".to_string(), Value::Int(modulus as i64));
            table.insert("remainder".to_string(), Value::Int(remainder as i64));
        }
        StageSpec::LookupKey { key } => {
            table.insert("key".to_string(), Value::Int(key as i64));
        }
        StageSpec::Map { key_mul, key_add } => {
            table.insert("key_mul".to_string(), Value::Int(key_mul as i64));
            table.insert("key_add".to_string(), Value::Int(key_add as i64));
        }
        StageSpec::MapValues { mul, add } => {
            table.insert("mul".to_string(), Value::Int(mul as i64));
            table.insert("add".to_string(), Value::Int(add as i64));
        }
        StageSpec::FlatMap { fanout } => {
            table.insert("fanout".to_string(), Value::Int(fanout as i64));
        }
        StageSpec::Join { build } => {
            let build = match build {
                BuildSide::Dimension => Value::Str("dimension".to_string()),
                BuildSide::Stage(i) => Value::Int(i as i64),
            };
            table.insert("build".to_string(), build);
        }
        StageSpec::Union
        | StageSpec::Cogroup
        | StageSpec::GroupByKey
        | StageSpec::ReduceByKey
        | StageSpec::CountByKey
        | StageSpec::AggregateByKey
        | StageSpec::SortByKey => {}
    }
    Value::Table(table)
}

fn wave_json(wave: &WaveReport) -> Value {
    let mut table = Value::table();
    table.insert("wave", Value::Int(wave.wave as i64));
    table.insert("concurrent", Value::Bool(wave.concurrent));
    table.insert("runtime_ps", Value::Int(wave.runtime_ps as i64));
    table.insert("serial_runtime_ps", Value::Int(wave.serial_runtime_ps as i64));
    table.insert(
        "branches",
        Value::Array(
            wave.branches
                .iter()
                .map(|b| {
                    let mut branch = Value::table();
                    branch.insert("branch", Value::Int(b.branch as i64));
                    branch.insert(
                        "stages",
                        Value::Array(b.stages.iter().map(|&s| Value::Int(s as i64)).collect()),
                    );
                    branch.insert("first_vault", Value::Int(b.first_vault as i64));
                    branch.insert("vaults", Value::Int(b.vaults as i64));
                    branch.insert("runtime_ps", Value::Int(b.runtime_ps as i64));
                    branch.insert("critical", Value::Bool(b.critical));
                    branch
                })
                .collect(),
        ),
    );
    table
}

/// Renders a counter registry as the artifact's nested `metrics` table:
/// keys group at their *first* dot (phase labels keep their own dots —
/// `phase_ps.partition.scan` is group `phase_ps`, leaf
/// `partition.scan`), counts as integers, values as floats.
fn metrics_json(stats: &Stats) -> Value {
    let mut groups: BTreeMap<String, BTreeMap<String, Value>> = BTreeMap::new();
    for (key, stat) in stats.iter() {
        let (group, leaf) = key.split_once('.').unwrap_or(("misc", key));
        let value = match stat {
            Stat::Count(n) => Value::Int(n as i64),
            Stat::Value(v) => Value::Float(v),
        };
        groups.entry(group.to_string()).or_default().insert(leaf.to_string(), value);
    }
    Value::Table(groups.into_iter().map(|(g, t)| (g, Value::Table(t))).collect())
}

/// One run's artifact entry; `metrics` is [`run_metrics`] of its report.
fn run_json(run: &CampaignRun, metrics: Option<Stats>, timings: bool) -> Value {
    let mut table = Value::table();
    table.insert("system", Value::Str(run.spec.system.name().to_string()));
    table.insert("topology", Value::Str(if run.spec.tiny { "tiny" } else { "scaled" }.to_string()));
    table.insert("tuples_per_vault", Value::Int(run.spec.tuples_per_vault as i64));
    table.insert("seed", Value::Int(run.spec.seed as i64));
    if let Some(theta) = run.spec.theta {
        table.insert("zipf_theta", Value::Float(theta));
    }
    if let Some(u) = run.spec.underprovision {
        table.insert("underprovision", Value::Float(u));
    }
    table.insert("exit", exit_json(&run.exit));
    table.insert("retried", Value::Bool(run.retried));
    table.insert("memoized", Value::Bool(run.memoized));
    if timings {
        // Cache provenance, not simulation output (see the schema-7
        // comment): present only when the artifact already carries host
        // measurements, so cold and warm default artifacts stay
        // byte-identical.
        table.insert("memoized_persistent", Value::Bool(run.memoized_persistent));
    }
    // A skipped or lost run keeps its sweep axes and exit — a valid
    // partial artifact — but has no simulation output to serialize.
    let Some((report, mut metrics)) = run.report.as_ref().zip(metrics) else {
        table.insert("skipped", Value::Bool(true));
        return table;
    };
    if timings {
        // Host measurement, not simulation output: `metrics.host.*` is
        // the artifact's single digest-excluded subtree, ignored by
        // `mondrian diff` and absent from byte-compared artifacts.
        metrics.add_value("host.sim_wall_ms", run.sim_wall_ms);
    }
    table.insert("metrics", metrics_json(&metrics));
    table.insert("source_rows", Value::Int(report.source_rows as i64));
    table.insert("output_rows", Value::Int(report.output.len() as i64));
    table.insert("runtime_ps", Value::Int(report.runtime_ps() as i64));
    table.insert("makespan_ps", Value::Int(report.makespan_ps() as i64));
    table.insert("instructions", Value::Int(report.instructions() as i64));
    table.insert("energy_j", Value::Float(report.energy_j()));
    table.insert("verified", Value::Bool(report.verified()));
    table.insert("schedule", Value::Array(report.schedule.waves.iter().map(wave_json).collect()));
    table.insert(
        "fused",
        Value::Array(
            report
                .schedule
                .fused
                .iter()
                .map(|f| {
                    let mut edge = Value::table();
                    edge.insert("producer", Value::Int(f.producer as i64));
                    edge.insert("consumer", Value::Int(f.consumer as i64));
                    edge.insert("chunks", Value::Int(f.chunks as i64));
                    edge.insert("streamed", Value::Bool(f.streamed));
                    edge.insert("streamed_ps", Value::Int(f.streamed_ps as i64));
                    edge.insert("unfused_ps", Value::Int(f.unfused_ps as i64));
                    edge
                })
                .collect(),
        ),
    );
    // Schema 8: the planner's decisions for `concurrency = "auto"` runs
    // — predictions plus the schedule deviations it proposed, and
    // whether the planned schedule actually won the race.
    if let Some(planned) = &report.planned {
        let mut block = Value::table();
        block.insert(
            "stage_predicted_ps",
            Value::Array(
                planned.stage_predicted_ps.iter().map(|&t| Value::Int(t as i64)).collect(),
            ),
        );
        block.insert("predicted_makespan_ps", Value::Int(planned.predicted_makespan_ps as i64));
        block.insert("planner_won", Value::Bool(planned.planner_won));
        block.insert(
            "waves",
            Value::Array(
                planned
                    .waves
                    .iter()
                    .map(|w| {
                        let mut wave = Value::table();
                        wave.insert("wave", Value::Int(w.wave as i64));
                        wave.insert(
                            "leases",
                            Value::Array(
                                w.leases
                                    .iter()
                                    .map(|l| {
                                        let mut lease = Value::table();
                                        lease.insert("branch", Value::Int(l.branch as i64));
                                        lease.insert(
                                            "first_vault",
                                            Value::Int(i64::from(l.first_vault)),
                                        );
                                        lease.insert("vaults", Value::Int(i64::from(l.vaults)));
                                        lease
                                    })
                                    .collect(),
                            ),
                        );
                        wave
                    })
                    .collect(),
            ),
        );
        block.insert(
            "edges",
            Value::Array(
                planned
                    .edges
                    .iter()
                    .map(|e| {
                        let mut edge = Value::table();
                        edge.insert("producer", Value::Int(e.producer as i64));
                        edge.insert("consumer", Value::Int(e.consumer as i64));
                        edge.insert("chunks", Value::Int(e.chunks as i64));
                        edge
                    })
                    .collect(),
            ),
        );
        table.insert("planned", block);
    }
    table.insert(
        "stages",
        Value::Array(
            report
                .stages
                .iter()
                .map(|s| {
                    let mut stage = Value::table();
                    stage.insert("op", Value::Str(s.spec.name().to_string()));
                    stage.insert(
                        "basic_operator",
                        Value::Str(s.basic_operator().name().to_string()),
                    );
                    stage.insert("wave", Value::Int(s.wave as i64));
                    stage.insert("branch", Value::Int(s.branch as i64));
                    stage.insert("concurrent", Value::Bool(s.concurrent));
                    stage.insert("streamed", Value::Bool(s.streamed));
                    stage.insert("input_rows", Value::Int(s.input_rows as i64));
                    stage.insert("output_rows", Value::Int(s.output_rows as i64));
                    stage.insert("output_digest", Value::Str(format!("{:016x}", s.output_digest)));
                    stage.insert("runtime_ps", Value::Int(s.report.runtime_ps as i64));
                    stage.insert("serial_runtime_ps", Value::Int(s.serial_runtime_ps as i64));
                    stage.insert("instructions", Value::Int(s.report.instructions as i64));
                    stage.insert("energy_j", Value::Float(s.report.energy.total_j()));
                    stage.insert("phases", Value::Int(s.report.phases.len() as i64));
                    stage.insert("shuffle_retries", Value::Int(s.report.shuffle_retries as i64));
                    stage.insert("engine_verified", Value::Bool(s.report.verified));
                    stage.insert("reference_ok", Value::Bool(s.reference_ok));
                    stage.insert("matches_serial", Value::Bool(s.matches_serial));
                    stage
                })
                .collect(),
        ),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Format;

    const MANIFEST: &str = r#"
        [campaign]
        name = "smoke"
        systems = ["mondrian", "cpu"]
        tuples_per_vault = 64

        [[stage]]
        op = "filter"

        [[stage]]
        op = "reduce_by_key"

        [[stage]]
        op = "sort_by_key"
    "#;

    #[test]
    fn campaign_runs_and_serializes_deterministically() {
        let manifest = Manifest::parse(MANIFEST, Format::Toml).unwrap();
        let a = run_campaign(&manifest, |_| {});
        let b = run_campaign(&manifest, |_| {});
        assert!(a.verified());
        assert_eq!(a.runs.len(), 2);
        assert_eq!(a.to_json(), b.to_json(), "artifact must be byte-identical");
        let json = a.to_json();
        assert!(json.contains("\"campaign\": \"smoke\""));
        assert!(json.contains("\"reference_ok\": true"));
        assert!(json.contains("\"matches_serial\": true"));
        assert!(json.contains("\"output_digest\""));
        // The artifact is valid JSON in our own parser.
        crate::value::parse_json(&json).unwrap();
        // Both systems compute the same functional outputs, so the second
        // system's reference prefixes come from the cache.
        assert_eq!(a.reference_hits, 3, "second system reuses all three prefixes");
    }

    #[test]
    fn a_different_model_fingerprint_misses_the_store() {
        let manifest = Manifest::parse(MANIFEST, Format::Toml).unwrap();
        let root = std::env::temp_dir().join(format!("mondrian-salt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let run = |salt: &str| {
            let store = Arc::new(Store::open(&root, salt).unwrap());
            let campaign = run_campaign_store(&manifest, 1, Some(store), &(), |_| {});
            campaign.cache.expect("a store was attached")
        };
        assert_eq!(run(&store_salt()).run_hits, 0, "cold");
        assert_eq!(run(&store_salt()).run_hits, 2, "warm under the same model");
        let other = run(&salt_for(mondrian_core::MODEL_FINGERPRINT ^ 1));
        assert_eq!(other.hits(), 0, "another model reads nothing the first one wrote");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn human_summary_has_one_line_per_run() {
        let manifest = Manifest::parse(MANIFEST, Format::Toml).unwrap();
        let campaign = run_campaign(&manifest, |_| {});
        let summary = campaign.human_summary();
        assert_eq!(summary.lines().count(), 3, "two runs + the footer");
        assert!(summary.contains("all verified"));
    }

    #[test]
    fn jobs_resolution_precedence_and_validation() {
        assert_eq!(resolve_jobs_from(Some(3), Some("8"), Some(2)), Ok(3));
        assert_eq!(resolve_jobs_from(None, Some("8"), Some(2)), Ok(8));
        assert_eq!(resolve_jobs_from(None, None, Some(2)), Ok(2));
        assert!(resolve_jobs_from(None, None, None).unwrap() >= 1);
        // A mistyped environment value is a hard error, not a silent
        // fall-through to every host core.
        assert!(resolve_jobs_from(None, Some("two"), None).is_err());
        assert!(resolve_jobs_from(None, Some("0"), None).is_err());
        assert!(resolve_jobs_from(Some(0), None, None).is_err(), "flag path validates too");
    }

    #[test]
    fn ineffective_axes_are_memoized() {
        // The CPU system never uses permutable regions, so an
        // underprovisioning sweep cannot change its runs: one simulation,
        // N - 1 memo hits.
        let text = MANIFEST.replace("[\"mondrian\", \"cpu\"]", "[\"cpu\"]")
            + "\n[sweep]\nunderprovision = [0.5, 1.0]\n";
        let manifest = Manifest::parse(&text, Format::Toml).unwrap();
        let campaign = run_campaign(&manifest, |_| {});
        assert_eq!(campaign.runs.len(), 2);
        assert_eq!(campaign.memo_hits, 1);
        assert!(!campaign.runs[0].memoized);
        assert!(campaign.runs[1].memoized);
        assert_eq!(
            campaign.runs[0].report.as_ref().unwrap().makespan_ps(),
            campaign.runs[1].report.as_ref().unwrap().makespan_ps()
        );
        // On a permutable system the axis is real and nothing memoizes.
        let text = MANIFEST.replace("[\"mondrian\", \"cpu\"]", "[\"mondrian\"]")
            + "\n[sweep]\nunderprovision = [0.5, 1.0]\n";
        let manifest = Manifest::parse(&text, Format::Toml).unwrap();
        let campaign = run_campaign(&manifest, |_| {});
        assert_eq!(campaign.memo_hits, 0);
        assert!(campaign.runs[0]
            .report
            .as_ref()
            .unwrap()
            .stages
            .iter()
            .any(|s| s.report.shuffle_retries > 0));
    }
}
