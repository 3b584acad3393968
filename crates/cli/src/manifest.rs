//! The campaign manifest: a declarative TOML or JSON description of a
//! pipeline, the systems to run it on, and the parameter sweeps.
//!
//! See `examples/manifests/` for complete examples and the README for the
//! schema reference. The shape, in TOML terms:
//!
//! ```toml
//! [campaign]
//! name = "spark-pipeline"       # required
//! systems = ["mondrian", "cpu"] # or ["all"]; default all
//! topology = "tiny"             # "tiny" | "scaled"; default tiny
//! tuples_per_vault = 256        # default 256
//! seed = 7                      # default the paper seed
//! key_dist = "uniform"          # "uniform" | "zipf"; default uniform
//! zipf_theta = 0.9              # only with key_dist = "zipf"
//! key_bound = 4096              # optional source key upper bound
//! concurrency = "serial"        # "serial" | "branch" | "stream" | "auto"; default serial
//! jobs = 4                      # worker threads; default all host cores
//!                               # (overridden by MONDRIAN_JOBS / --jobs)
//! sim_threads = 2               # accepted and ignored (the engine is
//!                               # single-threaded); must be at least 1
//!
//! [sweep]                       # optional; lists override the scalars
//! tuples_per_vault = [256, 512]
//! seeds = [1, 2, 3]
//! zipf_theta = [0.6, 0.9]       # key-distribution skew axis
//! topology = ["tiny", "scaled"] # HMC/vault topology axis
//! underprovision = [0.5, 1.0]   # §5.4 permutable-region sizing axis
//!
//! [limits]                      # optional cooperative resource limits
//! wall_time_ms = 60000          # campaign wall-clock budget (host time)
//! max_events = 1000000          # per-run non-tick event budget (sim state)
//! max_sweep_points = 64         # cap on the resolved cross product
//! max_memory_bytes = 16777216   # cap on the estimated peak relation bytes
//!
//! [assertions]                  # optional result assertions
//! max_makespan_ps = 900000000   # per-run simulated-makespan ceiling
//! matches_serial = true         # require every scheduled stage to verify
//! stage_digests = ["0011223344556677"]  # expected per-stage output
//!                               # digests (16 hex chars, one per stage)
//!
//! [faults]                      # optional deterministic fault plan
//! run = 0                       # sweep position the plan targets
//! panic_at_event = 100          # panic at the Nth non-tick event
//! stall_at_event = 100          # stall instead (stall_ms per fire)
//! stall_ms = 50
//! corrupt_digest_stage = 1      # XOR-corrupt this stage's digest
//! panic_in_vault_poll = true    # panic inside a vault poll
//! times = 1                     # fires before disarming; default unlimited
//!
//! [[stage]]                     # one per pipeline stage, in order
//! op = "filter"                 # stage name (see StageSpec)
//! modulus = 10
//! remainder = 0
//! # name = "drop-odds"          # optional unique label (JUnit, traces)
//! # input = "prev"              # "prev" (default) | "source" | stage index,
//! #                             # or a list of edges for multi-input stages
//! #                             # (union 2+, cogroup exactly 2): input = [0, 1]
//! ```
//!
//! A JSON manifest is the same tree spelled as an object:
//! `{"campaign": {...}, "sweep": {...}, "stage": [{...}, ...]}`.
//!
//! Parsing is strict: unknown keys in any section (and duplicate stage
//! names) are rejected, and every parse error maps to the CLI's
//! `invalid_manifest` exit code. The `MONDRIAN_FAULT` environment
//! variable overrides `[faults]` with the same keys spelled as a
//! `;`-separated list (`run=0;panic_at_event=100;times=1`).

use mondrian_core::fault::FaultPlan;
use mondrian_core::{KeyDist, SystemKind};
use mondrian_pipeline::{
    BuildSide, Concurrency, Pipeline, PipelineConfig, Stage, StageInput, StageSpec,
};

use crate::value::{parse_json, parse_toml, Value};

/// Manifest text formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// TOML subset (`.toml`).
    Toml,
    /// JSON (`.json`).
    Json,
}

impl Format {
    /// Picks the format from a file name.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown extensions.
    pub fn from_path(path: &str) -> Result<Format, String> {
        if path.ends_with(".toml") {
            Ok(Format::Toml)
        } else if path.ends_with(".json") {
            Ok(Format::Json)
        } else {
            Err(format!("{path}: unknown manifest extension (expected .toml or .json)"))
        }
    }
}

/// One fully resolved run of the campaign's cross product.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// The evaluated system.
    pub system: SystemKind,
    /// Whether the run uses the minimal test topology.
    pub tiny: bool,
    /// Source tuples per vault.
    pub tuples_per_vault: usize,
    /// Dataset seed.
    pub seed: u64,
    /// Key-distribution skew override (None = the campaign's base
    /// distribution).
    pub theta: Option<f64>,
    /// §5.4 permutable-region underprovisioning factor (None = exact
    /// sizing).
    pub underprovision: Option<f64>,
}

impl RunSpec {
    /// A short label naming the swept axes of this run.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{:<16} {:<6} tpv={:<6} seed={:<10}",
            self.system.name(),
            if self.tiny { "tiny" } else { "scaled" },
            self.tuples_per_vault,
            self.seed,
        );
        if let Some(t) = self.theta {
            label.push_str(&format!(" theta={t:<4}"));
        }
        if let Some(u) = self.underprovision {
            label.push_str(&format!(" up={u:<4}"));
        }
        label
    }

    /// [`Self::label`] with the table-column padding collapsed to single
    /// spaces — the run's name in trace process lanes and progress lines,
    /// where alignment is noise.
    pub fn id(&self) -> String {
        self.label().split_whitespace().collect::<Vec<_>>().join(" ")
    }
}

/// Cooperative resource limits (`[limits]`). Every limit is enforced at
/// deterministic checkpoints, so a tripped limit truncates the campaign
/// at the same point for every `--jobs` value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Limits {
    /// Campaign wall-clock budget in milliseconds (host time; checked at
    /// sweep, stage, and wave boundaries).
    pub wall_time_ms: Option<u64>,
    /// Per-run non-tick event budget (pure simulation state).
    pub max_events: Option<u64>,
    /// Cap on the resolved sweep cross product; runs past the cap are
    /// skipped before execution.
    pub max_sweep_points: Option<usize>,
    /// Cap on a run's estimated peak relation footprint, derived from
    /// the manifest's cardinalities before execution.
    pub max_memory_bytes: Option<u64>,
}

/// Campaign-level result assertions (`[assertions]`), evaluated at
/// artifact-assembly time against each completed run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Assertions {
    /// Per-run simulated-makespan ceiling in picoseconds.
    pub max_makespan_ps: Option<u64>,
    /// Require every scheduled-concurrency stage to match the serial
    /// reference.
    pub matches_serial: bool,
    /// Expected per-stage output digests (one per stage, in order).
    pub stage_digests: Option<Vec<u64>>,
}

/// A parsed campaign manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Campaign name (echoed into the result artifact).
    pub name: String,
    /// Systems to run on.
    pub systems: Vec<SystemKind>,
    /// Whether the base topology is the minimal test topology.
    pub tiny: bool,
    /// Topology axis (tiny flags; singleton unless swept).
    pub topologies: Vec<bool>,
    /// Tuples-per-vault values (singleton unless swept).
    pub tuples_per_vault: Vec<usize>,
    /// Seeds (singleton unless swept).
    pub seeds: Vec<u64>,
    /// Source key distribution.
    pub dist: KeyDist,
    /// Key-distribution theta axis (singleton `None` unless swept).
    pub thetas: Vec<Option<f64>>,
    /// Underprovisioning-factor axis (singleton `None` unless swept).
    pub underprovision: Vec<Option<f64>>,
    /// Optional source key upper bound.
    pub key_bound: Option<u64>,
    /// How the executor schedules stages onto the machine.
    pub concurrency: Concurrency,
    /// Worker threads for the sweep (`None` = decide at run time: the
    /// `MONDRIAN_JOBS` environment variable, else every host core).
    /// Execution speed only — results are byte-identical for every value.
    pub jobs: Option<usize>,
    /// The retired `sim_threads` key, still parsed and validated (at
    /// least 1) so existing manifests keep loading. A no-op: the engine
    /// event loop is single-threaded and nothing reads this field.
    pub sim_threads: Option<usize>,
    /// The pipeline stages.
    pub stages: Vec<Stage>,
    /// Optional per-stage labels (unique when present).
    pub stage_names: Vec<Option<String>>,
    /// Cooperative resource limits.
    pub limits: Limits,
    /// Result assertions.
    pub assertions: Assertions,
    /// Deterministic fault plan (`[faults]` or `MONDRIAN_FAULT`).
    pub fault: Option<FaultPlan>,
}

impl Manifest {
    /// Parses a manifest document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema error.
    pub fn parse(text: &str, format: Format) -> Result<Manifest, String> {
        let doc = match format {
            Format::Toml => parse_toml(text)?,
            Format::Json => parse_json(text)?,
        };
        Manifest::from_value(&doc)
    }

    /// Builds a manifest from a parsed document tree.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema error.
    pub fn from_value(doc: &Value) -> Result<Manifest, String> {
        check_keys(
            doc,
            "the manifest",
            &["campaign", "sweep", "stage", "limits", "assertions", "faults"],
        )?;
        let campaign = doc.get("campaign").ok_or("missing [campaign] section")?;
        check_keys(
            campaign,
            "[campaign]",
            &[
                "name",
                "systems",
                "topology",
                "tuples_per_vault",
                "seed",
                "key_dist",
                "zipf_theta",
                "key_bound",
                "concurrency",
                "jobs",
                "sim_threads",
            ],
        )?;
        let name = campaign
            .get("name")
            .and_then(Value::as_str)
            .ok_or("campaign.name (string) is required")?
            .to_string();

        let systems = match campaign.get("systems") {
            None => SystemKind::ALL.to_vec(),
            Some(v) => {
                let names = v.as_array().ok_or("campaign.systems must be an array")?;
                let all =
                    names.iter().any(|n| n.as_str().is_some_and(|s| s.eq_ignore_ascii_case("all")));
                if all {
                    if names.len() != 1 {
                        return Err("\"all\" cannot be combined with other systems".into());
                    }
                    SystemKind::ALL.to_vec()
                } else {
                    let mut systems = Vec::new();
                    for n in names {
                        let n = n.as_str().ok_or("campaign.systems entries must be strings")?;
                        systems.push(parse_system(n)?);
                    }
                    if systems.is_empty() {
                        return Err("campaign.systems is empty".into());
                    }
                    systems
                }
            }
        };

        let tiny = match campaign.get("topology") {
            None => true,
            Some(v) => parse_topology(v)?,
        };

        let concurrency = match campaign.get("concurrency") {
            None => Concurrency::Serial,
            Some(v) => v.as_str().and_then(Concurrency::parse).ok_or(
                "campaign.concurrency must be \"serial\", \"branch\", \"stream\" or \"auto\"",
            )?,
        };

        let tpv_scalar =
            get_usize(campaign, "campaign.tuples_per_vault", "tuples_per_vault")?.unwrap_or(256);
        let seed_scalar = get_u64(campaign, "campaign.seed", "seed")?.unwrap_or(0x6d6f6e64);

        let dist = match campaign.get("key_dist").map(|v| v.as_str()) {
            None | Some(Some("uniform")) => KeyDist::Uniform,
            Some(Some("zipf")) => {
                let theta = campaign
                    .get("zipf_theta")
                    .and_then(Value::as_float)
                    .ok_or("key_dist = \"zipf\" requires zipf_theta (float)")?;
                if !(theta.is_finite() && theta >= 0.0) {
                    return Err("zipf_theta must be a non-negative finite number".into());
                }
                KeyDist::Zipf(theta)
            }
            _ => return Err("campaign.key_dist must be \"uniform\" or \"zipf\"".into()),
        };
        let key_bound = get_u64(campaign, "campaign.key_bound", "key_bound")?;
        let jobs = get_usize(campaign, "campaign.jobs", "jobs")?;
        if jobs == Some(0) {
            return Err("campaign.jobs must be at least 1".into());
        }
        let sim_threads = get_usize(campaign, "campaign.sim_threads", "sim_threads")?;
        if sim_threads == Some(0) {
            return Err("campaign.sim_threads must be at least 1".into());
        }

        let mut tuples_per_vault = vec![tpv_scalar];
        let mut seeds = vec![seed_scalar];
        let mut thetas: Vec<Option<f64>> = vec![None];
        let mut topologies = vec![tiny];
        let mut underprovision: Vec<Option<f64>> = vec![None];
        if let Some(sweep) = doc.get("sweep") {
            check_keys(
                sweep,
                "[sweep]",
                &["tuples_per_vault", "seeds", "zipf_theta", "topology", "underprovision"],
            )?;
            if let Some(v) = sweep.get("tuples_per_vault") {
                tuples_per_vault = int_list(v, "sweep.tuples_per_vault")?
                    .into_iter()
                    .map(|i| i as usize)
                    .collect();
            }
            if let Some(v) = sweep.get("seeds") {
                seeds = int_list(v, "sweep.seeds")?.into_iter().map(|i| i as u64).collect();
            }
            if let Some(v) = sweep.get("zipf_theta") {
                thetas = float_list(v, "sweep.zipf_theta")?
                    .into_iter()
                    .map(|t| {
                        if t.is_finite() && t >= 0.0 {
                            Ok(Some(t))
                        } else {
                            Err("sweep.zipf_theta entries must be non-negative finite".to_string())
                        }
                    })
                    .collect::<Result<_, _>>()?;
            }
            if let Some(v) = sweep.get("topology") {
                let entries = v.as_array().ok_or("sweep.topology must be an array")?;
                if entries.is_empty() {
                    return Err("sweep.topology is empty".into());
                }
                topologies = entries.iter().map(parse_topology).collect::<Result<_, _>>()?;
            }
            if let Some(v) = sweep.get("underprovision") {
                underprovision = float_list(v, "sweep.underprovision")?
                    .into_iter()
                    .map(|f| {
                        if f.is_finite() && f > 0.0 {
                            Ok(Some(f))
                        } else {
                            Err("sweep.underprovision entries must be positive finite".to_string())
                        }
                    })
                    .collect::<Result<_, _>>()?;
            }
        }

        let limits = match doc.get("limits") {
            None => Limits::default(),
            Some(v) => parse_limits(v)?,
        };
        let assertions = match doc.get("assertions") {
            None => Assertions::default(),
            Some(v) => parse_assertions(v)?,
        };
        let fault = match doc.get("faults") {
            None => None,
            Some(v) => Some(parse_faults(v)?),
        };

        let stage_list = doc
            .get("stage")
            .and_then(Value::as_array)
            .ok_or("at least one [[stage]] is required")?;
        if stage_list.is_empty() {
            return Err("at least one [[stage]] is required".into());
        }
        let mut stages = Vec::with_capacity(stage_list.len());
        let mut stage_names: Vec<Option<String>> = Vec::with_capacity(stage_list.len());
        for (i, s) in stage_list.iter().enumerate() {
            let (stage, name) = parse_stage(s).map_err(|e| format!("stage {i}: {e}"))?;
            if let Some(name) = &name {
                if let Some(prev) =
                    stage_names.iter().position(|n| n.as_deref() == Some(name.as_str()))
                {
                    return Err(format!(
                        "stage {i}: duplicate stage name {name:?} (already used by stage {prev})"
                    ));
                }
            }
            stages.push(stage);
            stage_names.push(name);
        }
        if let Some(digests) = &assertions.stage_digests {
            if digests.len() != stages.len() {
                return Err(format!(
                    "assertions.stage_digests has {} entries but the pipeline has {} stages",
                    digests.len(),
                    stages.len()
                ));
            }
        }
        let manifest = Manifest {
            name,
            systems,
            tiny,
            topologies,
            tuples_per_vault,
            seeds,
            dist,
            thetas,
            underprovision,
            key_bound,
            concurrency,
            jobs,
            sim_threads,
            stages,
            stage_names,
            limits,
            assertions,
            fault,
        };
        manifest.pipeline().validate()?;
        Ok(manifest)
    }

    /// The declared pipeline.
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::from_stages(self.stages.clone())
    }

    /// The campaign's cross product, in deterministic order: system-major,
    /// then topology, tuples-per-vault, seed, theta, underprovisioning.
    pub fn runs(&self) -> Vec<RunSpec> {
        let mut out = Vec::new();
        for &system in &self.systems {
            for &tiny in &self.topologies {
                for &tuples_per_vault in &self.tuples_per_vault {
                    for &seed in &self.seeds {
                        for &theta in &self.thetas {
                            for &underprovision in &self.underprovision {
                                out.push(RunSpec {
                                    system,
                                    tiny,
                                    tuples_per_vault,
                                    seed,
                                    theta,
                                    underprovision,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The pipeline configuration of one resolved run.
    pub fn config_for(&self, run: RunSpec) -> PipelineConfig {
        let mut cfg = if run.tiny {
            PipelineConfig::tiny(run.system)
        } else {
            PipelineConfig::new(run.system)
        };
        cfg.tuples_per_vault = run.tuples_per_vault;
        cfg.seed = run.seed;
        cfg.dist = match run.theta {
            Some(theta) => KeyDist::Zipf(theta),
            None => self.dist,
        };
        cfg.key_bound = self.key_bound;
        cfg.underprovision = run.underprovision;
        cfg.concurrency = self.concurrency;
        cfg
    }
}

/// Rejects unknown keys in a section — schema typos surface at parse
/// time as `invalid_manifest` instead of silently changing behavior.
fn check_keys(table: &Value, ctx: &str, allowed: &[&str]) -> Result<(), String> {
    if let Value::Table(entries) = table {
        for key in entries.keys() {
            if !allowed.contains(&key.as_str()) {
                let mut expected: Vec<&str> = allowed.to_vec();
                expected.sort_unstable();
                return Err(format!("unknown key {key:?} in {ctx}; expected one of {expected:?}"));
            }
        }
    }
    Ok(())
}

fn get_bool(table: &Value, ctx: &str, key: &str) -> Result<Option<bool>, String> {
    match table.get(key) {
        None => Ok(None),
        Some(v) => match v.as_bool() {
            Some(b) => Ok(Some(b)),
            None => Err(format!("{ctx} must be a boolean")),
        },
    }
}

fn parse_limits(v: &Value) -> Result<Limits, String> {
    check_keys(
        v,
        "[limits]",
        &["wall_time_ms", "max_events", "max_sweep_points", "max_memory_bytes"],
    )?;
    Ok(Limits {
        wall_time_ms: get_u64(v, "limits.wall_time_ms", "wall_time_ms")?,
        max_events: get_u64(v, "limits.max_events", "max_events")?,
        max_sweep_points: get_usize(v, "limits.max_sweep_points", "max_sweep_points")?,
        max_memory_bytes: get_u64(v, "limits.max_memory_bytes", "max_memory_bytes")?,
    })
}

fn parse_assertions(v: &Value) -> Result<Assertions, String> {
    check_keys(v, "[assertions]", &["max_makespan_ps", "matches_serial", "stage_digests"])?;
    let stage_digests = match v.get("stage_digests") {
        None => None,
        Some(list) => {
            let items =
                list.as_array().ok_or("assertions.stage_digests must be an array of strings")?;
            let mut digests = Vec::with_capacity(items.len());
            for item in items {
                let hex =
                    item.as_str().ok_or("assertions.stage_digests entries must be strings")?;
                if hex.len() != 16 {
                    return Err(format!(
                        "assertions.stage_digests entry {hex:?} must be 16 hex characters"
                    ));
                }
                let digest = u64::from_str_radix(hex, 16).map_err(|_| {
                    format!("assertions.stage_digests entry {hex:?} must be 16 hex characters")
                })?;
                digests.push(digest);
            }
            Some(digests)
        }
    };
    Ok(Assertions {
        max_makespan_ps: get_u64(v, "assertions.max_makespan_ps", "max_makespan_ps")?,
        matches_serial: get_bool(v, "assertions.matches_serial", "matches_serial")?
            .unwrap_or(false),
        stage_digests,
    })
}

fn parse_faults(v: &Value) -> Result<FaultPlan, String> {
    check_keys(
        v,
        "[faults]",
        &[
            "run",
            "panic_at_event",
            "stall_at_event",
            "stall_ms",
            "corrupt_digest_stage",
            "panic_in_vault_poll",
            "times",
        ],
    )?;
    Ok(FaultPlan {
        run: get_usize(v, "faults.run", "run")?.unwrap_or(0),
        panic_at_event: get_u64(v, "faults.panic_at_event", "panic_at_event")?,
        stall_at_event: get_u64(v, "faults.stall_at_event", "stall_at_event")?,
        stall_ms: get_u64(v, "faults.stall_ms", "stall_ms")?.unwrap_or(50),
        corrupt_digest_stage: get_usize(v, "faults.corrupt_digest_stage", "corrupt_digest_stage")?,
        panic_in_vault_poll: get_bool(v, "faults.panic_in_vault_poll", "panic_in_vault_poll")?
            .unwrap_or(false),
        times: get_u64(v, "faults.times", "times")?,
    })
}

/// Parses a `MONDRIAN_FAULT` specification: the `[faults]` keys as a
/// `;`-separated `key=value` list, e.g. `run=0;panic_at_event=100;times=1`.
///
/// # Errors
///
/// Returns a description of the first unknown key or malformed value.
pub fn parse_fault_spec(spec: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan { stall_ms: 50, ..FaultPlan::default() };
    for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("MONDRIAN_FAULT entry {part:?} is not key=value"))?;
        let (key, value) = (key.trim(), value.trim());
        let int = || -> Result<u64, String> {
            value.parse::<u64>().map_err(|_| {
                format!("MONDRIAN_FAULT {key}={value:?} must be a non-negative integer")
            })
        };
        match key {
            "run" => plan.run = int()? as usize,
            "panic_at_event" => plan.panic_at_event = Some(int()?),
            "stall_at_event" => plan.stall_at_event = Some(int()?),
            "stall_ms" => plan.stall_ms = int()?,
            "corrupt_digest_stage" => plan.corrupt_digest_stage = Some(int()? as usize),
            "panic_in_vault_poll" => {
                plan.panic_in_vault_poll = match value {
                    "true" => true,
                    "false" => false,
                    _ => {
                        return Err(format!(
                            "MONDRIAN_FAULT panic_in_vault_poll={value:?} must be true or false"
                        ))
                    }
                }
            }
            "times" => plan.times = Some(int()?),
            other => return Err(format!("MONDRIAN_FAULT has unknown key {other:?}")),
        }
    }
    Ok(plan)
}

fn parse_system(name: &str) -> Result<SystemKind, String> {
    SystemKind::ALL.into_iter().find(|k| k.name().eq_ignore_ascii_case(name)).ok_or_else(|| {
        let known: Vec<&str> = SystemKind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown system {name:?}; expected one of {known:?} or \"all\"")
    })
}

fn parse_topology(v: &Value) -> Result<bool, String> {
    match v.as_str() {
        Some("tiny") => Ok(true),
        Some("scaled") => Ok(false),
        _ => Err("topology entries must be \"tiny\" or \"scaled\"".into()),
    }
}

fn get_u64(table: &Value, ctx: &str, key: &str) -> Result<Option<u64>, String> {
    match table.get(key) {
        None => Ok(None),
        Some(v) => match v.as_int() {
            Some(i) if i >= 0 => Ok(Some(i as u64)),
            _ => Err(format!("{ctx} must be a non-negative integer")),
        },
    }
}

fn get_usize(table: &Value, ctx: &str, key: &str) -> Result<Option<usize>, String> {
    Ok(get_u64(table, ctx, key)?.map(|v| v as usize))
}

fn int_list(v: &Value, ctx: &str) -> Result<Vec<i64>, String> {
    let items = v.as_array().ok_or_else(|| format!("{ctx} must be an array"))?;
    if items.is_empty() {
        return Err(format!("{ctx} is empty"));
    }
    items
        .iter()
        .map(|i| match i.as_int() {
            Some(i) if i >= 0 => Ok(i),
            _ => Err(format!("{ctx} entries must be non-negative integers")),
        })
        .collect()
}

fn float_list(v: &Value, ctx: &str) -> Result<Vec<f64>, String> {
    let items = v.as_array().ok_or_else(|| format!("{ctx} must be an array"))?;
    if items.is_empty() {
        return Err(format!("{ctx} is empty"));
    }
    items
        .iter()
        .map(|i| i.as_float().ok_or_else(|| format!("{ctx} entries must be numbers")))
        .collect()
}

fn parse_input_edge(v: &Value) -> Result<StageInput, String> {
    match (v.as_str(), v.as_int()) {
        (Some("prev"), _) => Ok(StageInput::Prev),
        (Some("source"), _) => Ok(StageInput::Source),
        (_, Some(i)) if i >= 0 => Ok(StageInput::Stage(i as usize)),
        _ => Err("input edges must be \"prev\", \"source\", or an earlier stage index".into()),
    }
}

fn parse_stage(s: &Value) -> Result<(Stage, Option<String>), String> {
    let op = s.get("op").and_then(Value::as_str).ok_or("missing op (string)")?;
    let op_keys: &[&str] = match op {
        "filter" => &["modulus", "remainder"],
        "lookup_key" => &["key"],
        "map" => &["key_mul", "key_add"],
        "map_values" => &["mul", "add"],
        "flat_map" => &["fanout"],
        "join" => &["build"],
        _ => &[],
    };
    let mut allowed = vec!["op", "input", "name"];
    allowed.extend_from_slice(op_keys);
    check_keys(s, &format!("[[stage]] op = {op:?}"), &allowed)?;
    let name = match s.get("name") {
        None => None,
        Some(v) => {
            let name = v.as_str().ok_or("stage name must be a string")?;
            if name.is_empty() {
                return Err("stage name must be non-empty".into());
            }
            Some(name.to_string())
        }
    };
    let u = |key: &str, default: u64| -> Result<u64, String> {
        get_u64(s, key, key).map(|v| v.unwrap_or(default))
    };
    let spec = match op {
        "filter" => {
            let modulus = u("modulus", 10)?;
            if modulus == 0 {
                return Err("filter.modulus must be non-zero".into());
            }
            StageSpec::Filter { modulus, remainder: u("remainder", 0)? }
        }
        "lookup_key" => StageSpec::LookupKey { key: u("key", 0)? },
        "map" => StageSpec::Map { key_mul: u("key_mul", 1)?, key_add: u("key_add", 1)? },
        "map_values" => StageSpec::MapValues { mul: u("mul", 3)?, add: u("add", 1)? },
        "union" => StageSpec::Union,
        "cogroup" => StageSpec::Cogroup,
        "flat_map" => {
            let fanout = u("fanout", 2)?;
            if !(1..=32).contains(&fanout) {
                return Err("flat_map.fanout must be between 1 and 32".into());
            }
            StageSpec::FlatMap { fanout }
        }
        "group_by_key" => StageSpec::GroupByKey,
        "reduce_by_key" => StageSpec::ReduceByKey,
        "count_by_key" => StageSpec::CountByKey,
        "aggregate_by_key" => StageSpec::AggregateByKey,
        "sort_by_key" => StageSpec::SortByKey,
        "join" => {
            let build = match s.get("build") {
                None => BuildSide::Dimension,
                Some(v) => match (v.as_str(), v.as_int()) {
                    (Some("dimension"), _) => BuildSide::Dimension,
                    (_, Some(i)) if i >= 0 => BuildSide::Stage(i as usize),
                    _ => {
                        return Err(
                            "join.build must be \"dimension\" or an earlier stage index".into()
                        )
                    }
                },
            };
            StageSpec::Join { build }
        }
        other => {
            return Err(format!(
                "unknown op {other:?}; expected one of filter, lookup_key, map, map_values, \
                 union, cogroup, flat_map, group_by_key, reduce_by_key, count_by_key, \
                 aggregate_by_key, sort_by_key, join"
            ))
        }
    };
    // A scalar edge or an `input = [...]` list — multi-input stages
    // (union, cogroup) name every feeder explicitly.
    let inputs = match s.get("input") {
        None => vec![StageInput::Prev],
        Some(v) => match v.as_array() {
            Some(edges) => {
                if edges.is_empty() {
                    return Err("input = [...] must name at least one edge".into());
                }
                edges.iter().map(parse_input_edge).collect::<Result<_, _>>()?
            }
            None => vec![parse_input_edge(v)?],
        },
    };
    Ok((Stage { spec, inputs }, name))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
        [campaign]
        name = "t"
        systems = ["mondrian"]

        [[stage]]
        op = "filter"

        [[stage]]
        op = "reduce_by_key"

        [[stage]]
        op = "sort_by_key"
    "#;

    #[test]
    fn minimal_manifest_fills_defaults() {
        let m = Manifest::parse(MINIMAL, Format::Toml).unwrap();
        assert_eq!(m.name, "t");
        assert_eq!(m.systems, vec![SystemKind::Mondrian]);
        assert!(m.tiny);
        assert_eq!(m.tuples_per_vault, vec![256]);
        assert_eq!(m.seeds, vec![0x6d6f6e64]);
        assert_eq!(m.thetas, vec![None]);
        assert_eq!(m.topologies, vec![true]);
        assert_eq!(m.underprovision, vec![None]);
        assert_eq!(m.concurrency, Concurrency::Serial);
        assert_eq!(m.sim_threads, None);
        assert_eq!(m.stages.len(), 3);
        assert_eq!(m.stages[0].spec, StageSpec::Filter { modulus: 10, remainder: 0 });
        assert_eq!(m.stages[0].inputs, vec![StageInput::Prev]);
        assert_eq!(m.runs().len(), 1);
    }

    #[test]
    fn multi_input_stages_parse_edge_lists() {
        let text = r#"
            [campaign]
            name = "multi"
            systems = ["mondrian"]

            [[stage]]
            op = "filter"

            [[stage]]
            op = "flat_map"
            fanout = 3

            [[stage]]
            op = "map_values"
            input = "source"

            [[stage]]
            op = "union"
            input = [1, 2]

            [[stage]]
            op = "cogroup"
            input = [1, 2]
        "#;
        let m = Manifest::parse(text, Format::Toml).unwrap();
        assert_eq!(m.stages[1].spec, StageSpec::FlatMap { fanout: 3 });
        assert_eq!(m.stages[3].spec, StageSpec::Union);
        assert_eq!(m.stages[3].inputs, vec![StageInput::Stage(1), StageInput::Stage(2)]);
        assert_eq!(m.stages[4].inputs, vec![StageInput::Stage(1), StageInput::Stage(2)]);

        // Arity violations surface at parse time via pipeline validation.
        let one_edge = text.replace(
            "input = [1, 2]\n\n            [[stage]]",
            "input = [1]\n\n            [[stage]]",
        );
        assert!(Manifest::parse(&one_edge, Format::Toml).unwrap_err().contains("at least 2"));
        let bad_fanout = text.replace("fanout = 3", "fanout = 99");
        assert!(Manifest::parse(&bad_fanout, Format::Toml)
            .unwrap_err()
            .contains("fanout must be between"));
        let empty = text.replace(
            "input = [1, 2]\n\n            [[stage]]",
            "input = []\n\n            [[stage]]",
        );
        assert!(Manifest::parse(&empty, Format::Toml).unwrap_err().contains("at least one edge"));
    }

    #[test]
    fn sweep_lists_cross_product() {
        let text = format!(
            "{MINIMAL}\n[sweep]\ntuples_per_vault = [256, 512]\nseeds = [1, 2, 3]\n\
             zipf_theta = [0.6, 0.9]\nunderprovision = [0.5, 1.0]\n"
        );
        let m = Manifest::parse(&text, Format::Toml).unwrap();
        let runs = m.runs();
        assert_eq!(runs.len(), 2 * 3 * 2 * 2);
        assert_eq!(
            runs[0],
            RunSpec {
                system: SystemKind::Mondrian,
                tiny: true,
                tuples_per_vault: 256,
                seed: 1,
                theta: Some(0.6),
                underprovision: Some(0.5),
            }
        );
        let last = runs.last().unwrap();
        assert_eq!((last.tuples_per_vault, last.seed), (512, 3));
        assert_eq!((last.theta, last.underprovision), (Some(0.9), Some(1.0)));
        // Theta sweeps override the base distribution.
        assert_eq!(m.config_for(runs[0]).dist, KeyDist::Zipf(0.6));
        assert_eq!(m.config_for(runs[0]).underprovision, Some(0.5));
    }

    #[test]
    fn topology_sweep_and_concurrency_knob() {
        let text = MINIMAL.replace(
            "systems = [\"mondrian\"]",
            "systems = [\"mondrian\"]\nconcurrency = \"branch\"",
        ) + "\n[sweep]\ntopology = [\"tiny\", \"scaled\"]\n";
        let m = Manifest::parse(&text, Format::Toml).unwrap();
        assert_eq!(m.concurrency, Concurrency::Branch);
        assert_eq!(m.topologies, vec![true, false]);
        let runs = m.runs();
        assert_eq!(runs.len(), 2);
        assert!(runs[0].tiny && !runs[1].tiny);
        assert_eq!(m.config_for(runs[0]).concurrency, Concurrency::Branch);
    }

    #[test]
    fn stream_concurrency_parses() {
        let text = MINIMAL.replace(
            "systems = [\"mondrian\"]",
            "systems = [\"mondrian\"]\nconcurrency = \"stream\"",
        );
        let m = Manifest::parse(&text, Format::Toml).unwrap();
        assert_eq!(m.concurrency, Concurrency::Stream);
        assert_eq!(m.config_for(m.runs()[0]).concurrency, Concurrency::Stream);
    }

    #[test]
    fn auto_concurrency_parses() {
        let text = MINIMAL.replace(
            "systems = [\"mondrian\"]",
            "systems = [\"mondrian\"]\nconcurrency = \"auto\"",
        );
        let m = Manifest::parse(&text, Format::Toml).unwrap();
        assert_eq!(m.concurrency, Concurrency::Auto);
        assert_eq!(m.config_for(m.runs()[0]).concurrency, Concurrency::Auto);
    }

    #[test]
    fn sim_threads_knob_parses_and_reaches_config() {
        let text = MINIMAL
            .replace("systems = [\"mondrian\"]", "systems = [\"mondrian\"]\nsim_threads = 4");
        let m = Manifest::parse(&text, Format::Toml).unwrap();
        assert_eq!(m.sim_threads, Some(4));
        // The key is a no-op: the run configuration is the same as without it.
        let default = Manifest::parse(MINIMAL, Format::Toml).unwrap();
        assert_eq!(
            format!("{:?}", m.config_for(m.runs()[0])),
            format!("{:?}", default.config_for(default.runs()[0]))
        );
        let zero = MINIMAL
            .replace("systems = [\"mondrian\"]", "systems = [\"mondrian\"]\nsim_threads = 0");
        assert!(Manifest::parse(&zero, Format::Toml)
            .unwrap_err()
            .contains("sim_threads must be at least 1"));
    }

    #[test]
    fn all_expands_to_every_system() {
        let text = MINIMAL.replace("[\"mondrian\"]", "[\"all\"]");
        let m = Manifest::parse(&text, Format::Toml).unwrap();
        assert_eq!(m.systems.len(), SystemKind::ALL.len());
    }

    #[test]
    fn json_manifests_parse_too() {
        let text = r#"{
            "campaign": {"name": "j", "systems": ["cpu"], "seed": 3},
            "stage": [
                {"op": "count_by_key"},
                {"op": "filter", "input": "source"},
                {"op": "join", "build": 0, "input": 1}
            ]
        }"#;
        let m = Manifest::parse(text, Format::Json).unwrap();
        assert_eq!(m.systems, vec![SystemKind::Cpu]);
        assert_eq!(m.seeds, vec![3]);
        assert_eq!(m.stages[1].inputs, vec![StageInput::Source]);
        assert_eq!(m.stages[2].spec, StageSpec::Join { build: BuildSide::Stage(0) });
        assert_eq!(m.stages[2].inputs, vec![StageInput::Stage(1)]);
    }

    #[test]
    fn schema_errors_are_descriptive() {
        let no_stage = "[campaign]\nname = \"x\"\n";
        assert!(Manifest::parse(no_stage, Format::Toml).unwrap_err().contains("[[stage]]"));
        let bad_system = MINIMAL.replace("mondrian", "cray");
        assert!(Manifest::parse(&bad_system, Format::Toml).unwrap_err().contains("unknown system"));
        let bad_op = MINIMAL.replace("\"filter\"", "\"frobnicate\"");
        assert!(Manifest::parse(&bad_op, Format::Toml).unwrap_err().contains("unknown op"));
        let bad_conc = MINIMAL.replace(
            "systems = [\"mondrian\"]",
            "systems = [\"mondrian\"]\nconcurrency = \"warp\"",
        );
        assert!(Manifest::parse(&bad_conc, Format::Toml).unwrap_err().contains("concurrency"));
        // Forward references are caught at parse time via validate().
        let forward = r#"
            [campaign]
            name = "x"
            [[stage]]
            op = "join"
            build = 3
        "#;
        assert!(Manifest::parse(forward, Format::Toml)
            .unwrap_err()
            .contains("not an earlier stage"));
        let forward_input = r#"
            [campaign]
            name = "x"
            [[stage]]
            op = "sort_by_key"
            input = 2
        "#;
        assert!(Manifest::parse(forward_input, Format::Toml)
            .unwrap_err()
            .contains("not an earlier stage"));
    }

    #[test]
    fn limits_assertions_and_faults_parse() {
        let text = format!(
            "{MINIMAL}\n\
             [limits]\n\
             wall_time_ms = 60000\n\
             max_events = 1000\n\
             max_sweep_points = 4\n\
             max_memory_bytes = 1048576\n\
             [assertions]\n\
             max_makespan_ps = 900000000\n\
             matches_serial = true\n\
             stage_digests = [\"0011223344556677\", \"8899aabbccddeeff\", \"0000000000000001\"]\n\
             [faults]\n\
             run = 1\n\
             panic_at_event = 100\n\
             times = 1\n"
        );
        let m = Manifest::parse(&text, Format::Toml).unwrap();
        assert_eq!(
            m.limits,
            Limits {
                wall_time_ms: Some(60000),
                max_events: Some(1000),
                max_sweep_points: Some(4),
                max_memory_bytes: Some(1_048_576),
            }
        );
        assert_eq!(m.assertions.max_makespan_ps, Some(900_000_000));
        assert!(m.assertions.matches_serial);
        assert_eq!(
            m.assertions.stage_digests,
            Some(vec![0x0011_2233_4455_6677, 0x8899_aabb_ccdd_eeff, 1])
        );
        let fault = m.fault.unwrap();
        assert_eq!((fault.run, fault.panic_at_event, fault.times), (1, Some(100), Some(1)));

        // Absent sections give inert defaults.
        let plain = Manifest::parse(MINIMAL, Format::Toml).unwrap();
        assert_eq!(plain.limits, Limits::default());
        assert_eq!(plain.assertions, Assertions::default());
        assert!(plain.fault.is_none());
    }

    #[test]
    fn unknown_keys_are_rejected_with_exact_messages() {
        // Snapshot the messages: the CLI surfaces them verbatim under the
        // invalid_manifest exit code, so they are part of the contract.
        let top = format!("{MINIMAL}\n[limitz]\nmax_events = 1\n");
        assert_eq!(
            Manifest::parse(&top, Format::Toml).unwrap_err(),
            "unknown key \"limitz\" in the manifest; expected one of \
             [\"assertions\", \"campaign\", \"faults\", \"limits\", \"stage\", \"sweep\"]"
        );
        let campaign = MINIMAL.replace("name = \"t\"", "name = \"t\"\nretries = 3");
        assert_eq!(
            Manifest::parse(&campaign, Format::Toml).unwrap_err(),
            "unknown key \"retries\" in [campaign]; expected one of \
             [\"concurrency\", \"jobs\", \"key_bound\", \"key_dist\", \"name\", \"seed\", \
             \"sim_threads\", \"systems\", \"topology\", \"tuples_per_vault\", \"zipf_theta\"]"
        );
        let stage = MINIMAL.replace("op = \"filter\"", "op = \"filter\"\nmodulos = 2");
        assert_eq!(
            Manifest::parse(&stage, Format::Toml).unwrap_err(),
            "stage 0: unknown key \"modulos\" in [[stage]] op = \"filter\"; expected one of \
             [\"input\", \"modulus\", \"name\", \"op\", \"remainder\"]"
        );
        // A key valid for another op is still unknown for this one.
        let cross = MINIMAL.replace("op = \"filter\"", "op = \"filter\"\nfanout = 2");
        assert!(Manifest::parse(&cross, Format::Toml)
            .unwrap_err()
            .contains("unknown key \"fanout\""));
        let sweep = format!("{MINIMAL}\n[sweep]\nseed = [1, 2]\n");
        assert!(Manifest::parse(&sweep, Format::Toml)
            .unwrap_err()
            .contains("unknown key \"seed\" in [sweep]"));
        let limits = format!("{MINIMAL}\n[limits]\nwalltime = 5\n");
        assert!(Manifest::parse(&limits, Format::Toml)
            .unwrap_err()
            .contains("unknown key \"walltime\" in [limits]"));
    }

    #[test]
    fn duplicate_stage_names_are_rejected() {
        let named = MINIMAL
            .replace("op = \"filter\"", "op = \"filter\"\nname = \"a\"")
            .replace("op = \"reduce_by_key\"", "op = \"reduce_by_key\"\nname = \"a\"");
        assert_eq!(
            Manifest::parse(&named, Format::Toml).unwrap_err(),
            "stage 1: duplicate stage name \"a\" (already used by stage 0)"
        );
        let distinct = MINIMAL
            .replace("op = \"filter\"", "op = \"filter\"\nname = \"a\"")
            .replace("op = \"reduce_by_key\"", "op = \"reduce_by_key\"\nname = \"b\"");
        let m = Manifest::parse(&distinct, Format::Toml).unwrap();
        assert_eq!(m.stage_names, vec![Some("a".into()), Some("b".into()), None]);
    }

    #[test]
    fn stage_digest_assertions_validate_shape() {
        let short = format!("{MINIMAL}\n[assertions]\nstage_digests = [\"0011223344556677\"]\n");
        assert!(Manifest::parse(&short, Format::Toml)
            .unwrap_err()
            .contains("1 entries but the pipeline has 3 stages"));
        let bad_hex = format!("{MINIMAL}\n[assertions]\nstage_digests = [\"xyz\", \"a\", \"b\"]\n");
        assert!(Manifest::parse(&bad_hex, Format::Toml)
            .unwrap_err()
            .contains("must be 16 hex characters"));
    }

    #[test]
    fn fault_env_spec_parses() {
        let plan = parse_fault_spec("run=2; panic_at_event=50; times=1").unwrap();
        assert_eq!((plan.run, plan.panic_at_event, plan.times), (2, Some(50), Some(1)));
        let poll = parse_fault_spec("panic_in_vault_poll=true").unwrap();
        assert!(poll.panic_in_vault_poll);
        assert!(parse_fault_spec("frob=1").unwrap_err().contains("unknown key \"frob\""));
        assert!(parse_fault_spec("run").unwrap_err().contains("not key=value"));
        assert!(parse_fault_spec("run=x").unwrap_err().contains("non-negative integer"));
    }

    #[test]
    fn format_detection() {
        assert_eq!(Format::from_path("a/b.toml").unwrap(), Format::Toml);
        assert_eq!(Format::from_path("b.json").unwrap(), Format::Json);
        assert!(Format::from_path("b.yaml").is_err());
    }
}
