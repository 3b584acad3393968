//! Aggregated results of one pipeline run.

use mondrian_core::{Report, SystemKind};
use mondrian_noc::{MeshStats, SerDesStats};
use mondrian_ops::OperatorKind;
use mondrian_sim::Time;
use mondrian_workloads::Tuple;

use crate::schedule::Concurrency;
use crate::stage::{StageInput, StageSpec};

/// FNV-1a over a byte stream.
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a fingerprint of a tuple relation — the artifact's compact proof
/// that two schedules produced byte-identical stage outputs.
pub fn relation_digest(rel: &[Tuple]) -> u64 {
    let words =
        std::iter::once(rel.len() as u64).chain(rel.iter().flat_map(|t| [t.key, t.payload]));
    fnv1a(words.flat_map(u64::to_le_bytes))
}

/// One executed stage: its specification plus the engine's full report.
#[derive(Debug, Clone)]
pub struct StageOutcome {
    /// The stage specification.
    pub spec: StageSpec,
    /// Where the stage's input relations came from, in edge order
    /// (single edge for 1-input stages; union 2+, cogroup exactly 2).
    pub inputs: Vec<StageInput>,
    /// The wave the scheduler placed the stage in.
    pub wave: usize,
    /// The branch the stage belongs to.
    pub branch: usize,
    /// Whether the charged execution ran on a leased vault partition
    /// concurrently with other branches (false for serial execution and
    /// serial fallbacks).
    pub concurrent: bool,
    /// Whether the charged execution consumed its primary input as a
    /// chunk stream overlapped with its producer's output phase
    /// (`Concurrency::Stream` and `Concurrency::Auto` only; false when
    /// the per-pair fallback kept the materialized schedule).
    pub streamed: bool,
    /// The serial reference executor's runtime for this stage.
    pub serial_runtime_ps: Time,
    /// Whether every execution of this stage — charged, or partitioned
    /// and then discarded by a wave's serial fallback — produced output
    /// byte-identical to the serial reference execution. Trivially true
    /// for serial runs and unpartitioned stages; false means the
    /// concurrent executor's equivalence proof failed, which fails
    /// verification even when the serial schedule ended up charged.
    pub matches_serial: bool,
    /// FNV-1a digest of the stage's projected output relation.
    pub output_digest: u64,
    /// Rows fed into the stage.
    pub input_rows: usize,
    /// Rows the stage produced (after projection).
    pub output_rows: usize,
    /// Whether the projected output matched the stage's pure reference
    /// semantics.
    pub reference_ok: bool,
    /// The engine's per-operator report (phases, runtime, energy, output).
    pub report: Report,
}

impl StageOutcome {
    /// The basic operator that simulated this stage.
    pub fn basic_operator(&self) -> OperatorKind {
        self.spec.basic_operator()
    }

    /// Whether the engine's internal verification, the pipeline's
    /// reference check, and (for scheduled runs) the serial-equivalence
    /// check all passed.
    pub fn verified(&self) -> bool {
        self.report.verified && self.reference_ok && self.matches_serial
    }
}

/// One branch of a wave: which stages it ran, on which lease, how long it
/// took, and its mesh traffic (attributed per partition).
#[derive(Debug, Clone)]
pub struct BranchSchedule {
    /// Branch id within the pipeline DAG.
    pub branch: usize,
    /// The branch's stages, in execution order.
    pub stages: Vec<usize>,
    /// First global vault of the branch's lease.
    pub first_vault: u32,
    /// Vaults leased to the branch.
    pub vaults: u32,
    /// The branch's runtime under the charged schedule.
    pub runtime_ps: Time,
    /// Whether this branch was the wave's critical path.
    pub critical: bool,
    /// Mesh traffic of the branch's stages, attributed to its partition.
    pub mesh: MeshStats,
}

/// One scheduled wave: mutually independent branches joined at a barrier.
#[derive(Debug, Clone)]
pub struct WaveReport {
    /// Wave index (topological level).
    pub wave: usize,
    /// Whether the wave charged the concurrent (partitioned) schedule;
    /// false for singleton waves and serial fallbacks.
    pub concurrent: bool,
    /// The charged wave time: max over branches when concurrent, the sum
    /// of stage runtimes otherwise.
    pub runtime_ps: Time,
    /// What the same wave costs under the serial reference schedule.
    pub serial_runtime_ps: Time,
    /// Per-branch schedules.
    pub branches: Vec<BranchSchedule>,
    /// SerDes traffic of the whole wave, merged across branches — the
    /// chip-to-chip links are shared by every tenant, so their traffic is
    /// charged globally rather than per partition.
    pub serdes: SerDesStats,
}

/// One producer→consumer edge the stream scheduler fused: the producer's
/// output relation chunks through a bounded channel into the consumer's
/// partition phase instead of materializing at a wave barrier.
#[derive(Debug, Clone)]
pub struct FusedEdge {
    /// Producer stage index.
    pub producer: usize,
    /// Consumer stage index.
    pub consumer: usize,
    /// Arrival chunks the producer's output streamed through.
    pub chunks: usize,
    /// Whether the streamed schedule was charged (false = the per-pair
    /// fallback kept the materialized schedule for this edge).
    pub streamed: bool,
    /// The consumer's slot duration under the streamed schedule (chunk
    /// rounds overlapped with the producer's output phase, then the
    /// remaining probe work).
    pub streamed_ps: Time,
    /// The consumer's duration under the materialized (branch) schedule.
    pub unfused_ps: Time,
}

/// One vault lease the planner proposed for a branch of a wave.
#[derive(Debug, Clone)]
pub struct PlannedLease {
    /// Branch id within the pipeline DAG.
    pub branch: usize,
    /// First global vault of the proposed lease.
    pub first_vault: u32,
    /// Vaults the planner would lease to the branch.
    pub vaults: u32,
}

/// The planner's lease proposal for one multi-branch wave.
#[derive(Debug, Clone)]
pub struct PlannedWaveReport {
    /// Wave index (topological level).
    pub wave: usize,
    /// Proposed leases, one per branch of the wave, in branch-slot order.
    pub leases: Vec<PlannedLease>,
}

/// The planner's chunk-count proposal for one fused edge.
#[derive(Debug, Clone)]
pub struct PlannedEdgeReport {
    /// Producer stage index.
    pub producer: usize,
    /// Consumer stage index.
    pub consumer: usize,
    /// Proposed arrival-chunk count (0 = skip fusing this edge).
    pub chunks: usize,
}

/// What the cost-model planner ([`crate::plan`]) predicted and decided
/// for an adaptive (`Concurrency::Auto`) run, recorded in the artifact so
/// `mondrian explain` can render predicted-vs-actual makespans and
/// `mondrian diff` can attribute wins to planner decisions.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Predicted whole-machine runtime per stage, in stage-index order.
    pub stage_predicted_ps: Vec<Time>,
    /// Predicted end-to-end makespan of the planned schedule.
    pub predicted_makespan_ps: Time,
    /// Whether the planned schedule beat the default stream schedule and
    /// was charged (false = the executor's candidate race kept the
    /// default, so `auto` still ties the best hand-tuned mode).
    pub planner_won: bool,
    /// Lease proposals for the multi-branch waves the planner re-split.
    pub waves: Vec<PlannedWaveReport>,
    /// Chunk-count proposals for the fused edges.
    pub edges: Vec<PlannedEdgeReport>,
}

/// The executed schedule of one pipeline run.
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    /// The executor mode that produced this schedule.
    pub mode: Concurrency,
    /// The waves, in execution order.
    pub waves: Vec<WaveReport>,
    /// Producer→consumer edges considered for intra-stage pipelining
    /// (empty outside `Concurrency::Stream` and `Concurrency::Auto`).
    pub fused: Vec<FusedEdge>,
    /// End-to-end makespan: the sum of charged wave times.
    pub makespan_ps: Time,
}

impl ScheduleReport {
    /// Whether any wave charged a concurrent schedule.
    pub fn any_concurrent(&self) -> bool {
        self.waves.iter().any(|w| w.concurrent)
    }

    /// Whether any fused edge charged the streamed schedule.
    pub fn any_streamed(&self) -> bool {
        self.fused.iter().any(|f| f.streamed)
    }
}

/// Results of one whole-pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The evaluated system.
    pub system: SystemKind,
    /// Rows of the generated source relation.
    pub source_rows: usize,
    /// Per-stage outcomes, in stage-index order.
    pub stages: Vec<StageOutcome>,
    /// The executed schedule (waves, branches, makespan).
    pub schedule: ScheduleReport,
    /// The cost-model planner's predictions and decisions
    /// (`Concurrency::Auto` runs only).
    pub planned: Option<PlanReport>,
    /// The final output relation.
    pub output: Vec<Tuple>,
}

impl PipelineReport {
    /// Whether every stage verified (engine check, reference check, and
    /// serial-equivalence check).
    pub fn verified(&self) -> bool {
        self.stages.iter().all(StageOutcome::verified)
    }

    /// Total machine-busy time: the sum of stage runtimes, regardless of
    /// how the schedule overlapped them.
    pub fn runtime_ps(&self) -> Time {
        self.stages.iter().map(|s| s.report.runtime_ps).sum()
    }

    /// End-to-end makespan under the executed schedule. Equals
    /// [`PipelineReport::runtime_ps`] for serial runs; concurrent branch
    /// waves can make it strictly smaller.
    pub fn makespan_ps(&self) -> Time {
        self.schedule.makespan_ps
    }

    /// Instructions retired across all stages.
    pub fn instructions(&self) -> u64 {
        self.stages.iter().map(|s| s.report.instructions).sum()
    }

    /// Discrete engine events processed across all charged stage runs
    /// (vault ticks excluded — see `PhaseOutcome::events`).
    pub fn events(&self) -> u64 {
        self.stages.iter().flat_map(|s| &s.report.phases).map(|p| p.events).sum()
    }

    /// Total energy across all stages, in joules.
    pub fn energy_j(&self) -> f64 {
        self.stages.iter().map(|s| s.report.energy.total_j()).sum()
    }

    /// Renders the per-stage summary table shown by the CLI and examples.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} — {} source rows, {} stages, {} schedule, {}\n",
            self.system,
            self.source_rows,
            self.stages.len(),
            self.schedule.mode.name(),
            if self.verified() { "verified" } else { "VERIFICATION FAILED" },
        ));
        out.push_str(&format!(
            "  {:<18} {:>8} {:>5} {:>10} {:>10} {:>12} {:>12}  {}\n",
            "stage", "operator", "wave", "rows in", "rows out", "runtime µs", "energy µJ", "ok"
        ));
        for s in &self.stages {
            out.push_str(&format!(
                "  {:<18} {:>8} {:>4}{} {:>10} {:>10} {:>12.3} {:>12.3}  {}\n",
                s.spec.name(),
                s.basic_operator().name(),
                s.wave,
                if s.streamed {
                    "~"
                } else if s.concurrent {
                    "*"
                } else {
                    " "
                },
                s.input_rows,
                s.output_rows,
                s.report.runtime_ps as f64 / 1e6,
                s.report.energy.total_j() * 1e6,
                if s.verified() { "yes" } else { "NO" },
            ));
        }
        out.push_str(&format!(
            "  {:<18} {:>8} {:>5} {:>10} {:>10} {:>12.3} {:>12.3}\n",
            "total",
            "",
            "",
            self.source_rows,
            self.output.len(),
            self.runtime_ps() as f64 / 1e6,
            self.energy_j() * 1e6,
        ));
        if self.schedule.any_concurrent() || self.schedule.any_streamed() {
            out.push_str(&format!(
                "  makespan {:>.3} µs ({} waves, * = ran on a leased partition, \
                 ~ = streamed from its producer)\n",
                self.makespan_ps() as f64 / 1e6,
                self.schedule.waves.len(),
            ));
        }
        out
    }

    /// Renders the per-wave branch table: which branches ran concurrently,
    /// on which vault leases, and which one was each wave's critical path.
    pub fn schedule_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "schedule ({}): makespan {:.3} µs vs {:.3} µs serial\n",
            self.schedule.mode.name(),
            self.makespan_ps() as f64 / 1e6,
            self.runtime_ps() as f64 / 1e6,
        ));
        for wave in &self.schedule.waves {
            out.push_str(&format!(
                "  wave {} ({}, {:.3} µs):\n",
                wave.wave,
                if wave.concurrent { "concurrent" } else { "serial" },
                wave.runtime_ps as f64 / 1e6,
            ));
            for b in &wave.branches {
                let stages: Vec<&str> =
                    b.stages.iter().map(|&i| self.stages[i].spec.name()).collect();
                out.push_str(&format!(
                    "    branch {}: vaults {}..{} {:>10.3} µs{}  [{}]\n",
                    b.branch,
                    b.first_vault,
                    b.first_vault + b.vaults,
                    b.runtime_ps as f64 / 1e6,
                    if b.critical { " <- critical" } else { "" },
                    stages.join(" -> "),
                ));
            }
        }
        for f in &self.schedule.fused {
            out.push_str(&format!(
                "  fused {} -> {} ({} -> {}): {} chunks, {:.3} µs streamed vs {:.3} µs \
                 materialized{}\n",
                f.producer,
                f.consumer,
                self.stages[f.producer].spec.name(),
                self.stages[f.consumer].spec.name(),
                f.chunks,
                f.streamed_ps as f64 / 1e6,
                f.unfused_ps as f64 / 1e6,
                if f.streamed { "" } else { " <- fallback" },
            ));
        }
        if let Some(plan) = &self.planned {
            out.push_str(&format!(
                "  planner: predicted {:.3} µs makespan, {}\n",
                plan.predicted_makespan_ps as f64 / 1e6,
                if plan.planner_won {
                    "planned schedule charged"
                } else {
                    "default schedule kept (never-worse fallback)"
                },
            ));
        }
        out
    }
}
