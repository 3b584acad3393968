//! The pipeline executor: lowers a stage DAG onto the simulated engine.
//!
//! Every stage first runs in a **serial reference pass**: each stage on
//! the whole machine, verified against its reference executor. The pass
//! builds the reference chain first, so every stage's inputs are known
//! before any simulation, and then simulates the stages as independent
//! jobs on the run's thread budget ([`PipelineConfig::threads`]); runs
//! with an event budget or a fault plan simulate them in stage order. One
//! schedule executor then charges the run; [`Concurrency`] sets its two
//! settings:
//!
//! * **Vault leases** (every mode but `serial`) — the executor decomposes
//!   the plan into branch waves ([`crate::schedule::Dag`]); the branches
//!   of one wave lease disjoint vault partitions ([`PartitionSpec`]) of
//!   the same machine and execute concurrently, joining at a barrier. A
//!   wave only charges the concurrent makespan when it beats running its
//!   stages back to back. Without leases every wave charges the serial
//!   pass's runs back to back.
//! * **Streaming** (`stream` and `auto`) — for every fused
//!   producer→consumer edge ([`Dag::fused_pairs`]) the consumer
//!   re-executes with its primary input arriving as a bounded stream of
//!   chunks ([`mondrian_core::ExperimentBuilder::streamed_input`]), and
//!   the wave timeline overlaps the producer's probe/output phase with
//!   the consumer's per-chunk partition rounds instead of materializing
//!   the relation at a wave barrier. A pair never charges more than its
//!   materialized slot, and a wave never more than its unstreamed charge.
//!
//! The two fallbacks make `stream ≤ branch ≤ serial` hold by
//! construction, and every partitioned or streamed run is verified
//! byte-identical to the serial reference pass, charged or not.
//!
//! **Auto** adds a race: the cost-model planner ([`crate::plan`])
//! predicts per-stage makespans from the serial pass's actual
//! cardinalities and proposes weighted vault leases per wave plus tuned
//! chunk counts per fused edge. The executor runs the default stream
//! schedule and the planned one and charges whichever measured faster, so
//! `auto ≤ min(serial, branch, stream)` holds by construction and a wrong
//! prediction can never regress a run. The two candidates share engine
//! runs ([`RunMemo`]): a stage the planned candidate runs on the same
//! lease, or streams in the same chunk size, as the default candidate is
//! simulated once and verified in both.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mondrian_core::fault::{Abort, AbortReason, FaultHandle};
use mondrian_core::{ExperimentBuilder, KeyDist, PartitionSpec, Report, SystemConfig, SystemKind};
use mondrian_noc::{MeshStats, SerDesStats};
use mondrian_obs::{ProgressEvent, ProgressSink};
use mondrian_sim::{fan_out, Time};
use mondrian_workloads::{uniform_relation, zipfian_relation, Tuple};

use crate::plan::{Plan, StageShape};
use crate::report::{
    relation_digest, BranchSchedule, FusedEdge, PipelineReport, PlanReport, PlannedEdgeReport,
    PlannedLease, PlannedWaveReport, ScheduleReport, StageOutcome, WaveReport,
};
use crate::schedule::{Concurrency, Dag};
use crate::stage::{BuildSide, Stage, StageInput, StageSpec};

/// A shared stage relation: stage edges hand these around by refcount
/// bump instead of deep-cloning tuple vectors.
type Rel = Arc<[Tuple]>;

/// A multi-stage analytic query: a DAG of Table 1 transformations, each
/// lowered onto one of the four basic operators. Stages name their input
/// edge explicitly ([`StageInput`]) and joins may reference any earlier
/// stage as their build side, so plans with independent branches — e.g. a
/// join over two separate scan→group-by chains — are first class.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    stages: Vec<Stage>,
}

impl Pipeline {
    /// Builds a pure chain: every stage consumes its predecessor's output.
    pub fn new(specs: Vec<StageSpec>) -> Self {
        Self { stages: specs.into_iter().map(Stage::chained).collect() }
    }

    /// Builds a pipeline from explicit stages (specification + input edge).
    pub fn from_stages(stages: Vec<Stage>) -> Self {
        Self { stages }
    }

    /// Builds a pipeline from bare Spark transformations using each one's
    /// default lowering parameters.
    ///
    /// # Errors
    ///
    /// Returns the offending transformation's name if it has no standalone
    /// lowering (`Union`, `Cogroup`, `FlatMap`, `Reduce`).
    pub fn from_spark_ops(ops: &[mondrian_ops::spark::SparkOp]) -> Result<Self, String> {
        let specs = ops
            .iter()
            .map(|&op| {
                StageSpec::default_for(op)
                    .ok_or_else(|| format!("{op:?} has no standalone lowering"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::new(specs))
    }

    /// The stage list.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The scheduled shape of the plan: dependencies, branches and waves.
    pub fn dag(&self) -> Dag {
        Dag::build(&self.stages)
    }

    /// Validates the plan shape.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: an empty
    /// plan, an input or join build side referencing a non-earlier stage,
    /// or a stage whose input-edge count violates its operator's arity
    /// (read from the operator registry, not a `match`).
    pub fn validate(&self) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err("pipeline has no stages".into());
        }
        for (i, stage) in self.stages.iter().enumerate() {
            let profile = mondrian_ops::operator(stage.basic_operator()).profile();
            let edges = stage.inputs.len();
            if edges < profile.min_inputs {
                return Err(format!(
                    "stage {i} ({}) needs at least {} input edges, got {edges}",
                    stage.name(),
                    profile.min_inputs,
                ));
            }
            if edges > profile.max_inputs {
                return Err(format!(
                    "stage {i} ({}) takes at most {} input edges, got {edges}",
                    stage.name(),
                    profile.max_inputs,
                ));
            }
            for &input in &stage.inputs {
                if let StageInput::Stage(j) = input {
                    if j >= i {
                        return Err(format!(
                            "stage {i} reads stage {j}, which is not an earlier stage"
                        ));
                    }
                }
            }
            if let StageSpec::Join { build: BuildSide::Stage(j) } = stage.spec {
                if j >= i {
                    return Err(format!(
                        "stage {i} (join) references stage {j}, which is not an earlier stage"
                    ));
                }
            }
        }
        Ok(())
    }

    /// A fingerprint of the plan: the digest of every stage's
    /// specification and input wiring, in order. Campaign runners fold it
    /// into persistent full-run cache keys so a manifest edit that
    /// changes the plan invalidates exactly the runs it affects.
    pub fn plan_key(&self) -> u64 {
        crate::report::fnv1a(format!("{:?}", self.stages).bytes())
    }

    /// Runs the pipeline under `cfg`, honoring `cfg.concurrency`.
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid (see [`Pipeline::validate`]) or the
    /// underlying experiment hits an inconsistent configuration.
    pub fn run(&self, cfg: &PipelineConfig) -> PipelineReport {
        self.run_cached(cfg, &ExecCache::default())
    }

    /// Like [`Pipeline::run`], but reuses `cache` across runs: pure
    /// per-stage reference outputs are memoized by (plan, source, stage
    /// prefix), so sweeping the same pipeline over many systems stops
    /// recomputing identical prefix semantics.
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid (see [`Pipeline::validate`]).
    pub fn run_cached(&self, cfg: &PipelineConfig, cache: &ExecCache) -> PipelineReport {
        self.run_observed(cfg, cache, "", &())
    }

    /// Like [`Pipeline::run_cached`], additionally streaming
    /// [`ProgressEvent`]s to `sink` as the run executes, tagged with
    /// `label`. Stage events fire from the serial reference pass in
    /// stage order, as each stage's run is assembled; wave events fire
    /// from the schedule executor in wave order (serial runs emit none).
    /// Purely observational: the report is byte-identical to an
    /// unobserved run.
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid (see [`Pipeline::validate`]).
    pub fn run_observed(
        &self,
        cfg: &PipelineConfig,
        cache: &ExecCache,
        label: &str,
        sink: &dyn ProgressSink,
    ) -> PipelineReport {
        self.validate().expect("invalid pipeline");
        let dag = self.dag();
        let source: Rel = cfg.source_relation().into();
        let (serial, outputs) = self.serial_pass(cfg, cache, &source, label, sink);

        // Every mode runs one schedule executor; auto races a planned
        // candidate against it. Serial runs lease nothing, so every wave
        // charges its stages back to back, and their progress stream
        // carries stage events only.
        let obs = Observer {
            label,
            sink: if cfg.concurrency == Concurrency::Serial { &() } else { sink },
        };
        let (sched, planned) = if cfg.concurrency == Concurrency::Auto {
            let (sched, planned) = self.race_planned(cfg, &dag, &source, &serial, &outputs, obs);
            (sched, Some(planned))
        } else {
            let memo = RunMemo::default();
            (self.exec_schedule(cfg, &dag, &source, &serial, &outputs, obs, None, &memo), None)
        };
        self.assemble(cfg, &dag, source.len(), serial, sched, planned)
    }

    /// The serial reference pass: every stage on the whole machine, each
    /// verified against its reference executor. Every schedule is verified
    /// against (and its inputs resolved from) the returned outputs.
    ///
    /// The pass first builds the reference chain on the calling thread, in
    /// stage order: each stage's inputs resolve from the chain, the store
    /// is probed once, and the stage's output is the stored projection of
    /// a verified stage or else the pure reference output. A stage's
    /// engine output must equal that relation to verify, so every stage
    /// the store did not serve is then simulated, and checked against the
    /// chain, as an independent job on up to `cfg.threads` threads. The
    /// runs are assembled in stage order (store write, progress events), so
    /// the result is the same for every thread count, and a stage that
    /// fails verification feeds its consumers the reference output, not
    /// its own.
    ///
    /// Runs with an event budget or an armed fault plan take
    /// [`Pipeline::serial_pass_in_order`] instead: both are defined over
    /// the ordered event count of the stages that ran before.
    fn serial_pass(
        &self,
        cfg: &PipelineConfig,
        cache: &ExecCache,
        source: &Rel,
        label: &str,
        sink: &dyn ProgressSink,
    ) -> (Vec<StageRun>, Vec<Rel>) {
        if cfg.max_events.is_some() || cfg.fault.is_some() {
            return self.serial_pass_in_order(cfg, cache, source, label, sink);
        }
        // The chain. A stage the store serves (its digest chain of spec,
        // source, input digests and build digest is unchanged) skips both
        // its simulation and its reference execution, so an edited
        // manifest re-simulates only the affected DAG suffix.
        let mut outputs: Vec<Rel> = Vec::with_capacity(self.stages.len());
        let mut links: Vec<ChainLink> = Vec::with_capacity(self.stages.len());
        for (i, stage) in self.stages.iter().enumerate() {
            check_deadline(cfg);
            let inputs = resolve_inputs(stage, i, source, &outputs);
            let build = resolve_build(&stage.spec, &outputs);
            let key = cache.stage_key(cfg, stage, &inputs, build.as_deref());
            let stored = key.as_deref().and_then(|key| cache.load_stage_run(key));
            outputs.push(match &stored {
                Some(run) if run.reference_ok => run.projected.clone(),
                _ => cache.reference_output(cfg, stage, &inputs, build.as_deref()),
            });
            links.push(ChainLink { inputs, build, key, stored });
        }

        let unserved: Vec<usize> =
            (0..links.len()).filter(|&i| links[i].stored.is_none()).collect();
        // A verified run shares the chain's relation instead of keeping
        // an equal copy of its own.
        let fresh = fan_out(unserved.len(), cfg.threads, |j| {
            check_deadline(cfg);
            let i = unserved[j];
            let (inputs, build) = (links[i].inputs.clone(), links[i].build.clone());
            let mut run =
                run_stage_engine(cfg, cfg.system_config(), &self.stages[i], inputs, build, None);
            run.reference_ok = run.projected[..] == outputs[i][..];
            if run.reference_ok {
                run.projected = outputs[i].clone();
            }
            run
        });
        let mut fresh = fresh.into_iter();
        let serial = self
            .stages
            .iter()
            .zip(links)
            .enumerate()
            .map(|(i, (stage, link))| {
                let op = stage.name().to_string();
                sink.emit(label, &ProgressEvent::StageStarted { stage: i, op: op.clone() });
                let run = link.stored.unwrap_or_else(|| {
                    let run = fresh.next().expect("one fresh run per unserved stage");
                    if let Some(key) = &link.key {
                        cache.save_stage_run(key, &run);
                    }
                    run
                });
                sink.emit(label, &stage_finished(i, op, &run));
                run
            })
            .collect();
        (serial, outputs)
    }

    /// The serial pass one stage after another, each stage fed from its
    /// predecessors' engine outputs: the path of runs whose event budget
    /// or fault plan counts events across stages in stage order.
    fn serial_pass_in_order(
        &self,
        cfg: &PipelineConfig,
        cache: &ExecCache,
        source: &Rel,
        label: &str,
        sink: &dyn ProgressSink,
    ) -> (Vec<StageRun>, Vec<Rel>) {
        let mut outputs: Vec<Rel> = Vec::new();
        let mut serial: Vec<StageRun> = Vec::new();
        // Non-tick events consumed by completed stages: the run-wide
        // `max_events` budget is metered here, at stage boundaries, and
        // the in-flight stage's remainder is enforced inside its own
        // event loop.
        let mut events_used: u64 = 0;
        for (i, stage) in self.stages.iter().enumerate() {
            check_deadline(cfg);
            let mut remaining_budget = None;
            if let Some(budget) = cfg.max_events {
                let remaining = budget.saturating_sub(events_used);
                if remaining == 0 {
                    Abort::throw(
                        AbortReason::LimitEvents,
                        format!("event budget {budget} exhausted before stage {i}"),
                    );
                }
                remaining_budget = Some(remaining);
            }
            sink.emit(
                label,
                &ProgressEvent::StageStarted { stage: i, op: stage.name().to_string() },
            );
            let inputs = resolve_inputs(stage, i, source, &outputs);
            let build = resolve_build(&stage.spec, &outputs);
            // Persistent-store fast path: a stage whose digest chain
            // (spec, source, input digests, build digest) is unchanged is
            // served from disk — its engine simulation *and* reference
            // execution are both skipped, and the loop's event metering
            // and progress events proceed from the stored report exactly
            // as they would from a live one. An edited manifest therefore
            // re-simulates only the affected DAG suffix: the first
            // changed stage misses (new spec or new input digest), and
            // the divergent digests cascade downstream.
            let stage_key = cache.stage_key(cfg, stage, &inputs, build.as_deref());
            let stored = stage_key.as_deref().and_then(|key| cache.load_stage_run(key));
            let run = if let Some(run) = stored {
                run
            } else {
                let mut sys = cfg.system_config();
                sys.event_budget = remaining_budget;
                let expected = cache.reference_output(cfg, stage, &inputs, build.as_deref());
                let mut run = run_stage_engine(cfg, sys, stage, inputs.clone(), build, None);
                run.reference_ok = run.projected[..] == expected[..];
                if let Some(key) = &stage_key {
                    cache.save_stage_run(key, &run);
                }
                run
            };
            events_used += run.report.phases.iter().map(|p| p.events).sum::<u64>();
            sink.emit(label, &stage_finished(i, stage.name().to_string(), &run));
            outputs.push(run.projected.clone());
            serial.push(run);
        }
        (serial, outputs)
    }

    /// The branch-mode wave execution: waves with two or more ready
    /// branches lease disjoint vault partitions (except under
    /// `Concurrency::Serial`) and execute concurrently; each partitioned
    /// stage is verified byte-identical to the serial pass (`matches`),
    /// its run parked in `chosen` when the wave charges the concurrent
    /// layout, and a wave falls back to the serial schedule when
    /// concurrency does not pay. A plan may override a wave's equal
    /// lease split with its weighted proposal. Leased runs go through
    /// `memo`.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn exec_waves(
        &self,
        cfg: &PipelineConfig,
        dag: &Dag,
        source: &Rel,
        serial: &[StageRun],
        outputs: &[Rel],
        chosen: &mut [Option<StageRun>],
        matches: &mut [bool],
        obs: Observer<'_>,
        plan: Option<&Plan>,
        memo: &RunMemo,
    ) -> Vec<WaveExec> {
        let base = cfg.system_config();
        let total_vaults = base.total_vaults();
        let mut execs = Vec::with_capacity(dag.waves.len());
        let serial_exec = |w: usize, wave_branches: &[usize]| {
            let report = serial_wave(w, wave_branches, dag, serial, total_vaults);
            obs.emit(&ProgressEvent::WaveCompleted {
                wave: w,
                concurrent: false,
                runtime_ps: report.runtime_ps,
            });
            WaveExec { report, leases: None }
        };

        for (w, wave_branches) in dag.waves.iter().enumerate() {
            // Wave boundaries are cooperative wall-time checkpoints.
            check_deadline(cfg);
            let serial_sum: Time = wave_branches
                .iter()
                .flat_map(|&b| &dag.branches[b])
                .map(|&i| serial[i].report.runtime_ps)
                .sum();
            let leases = if cfg.concurrency != Concurrency::Serial && wave_branches.len() >= 2 {
                plan.and_then(|p| p.wave_leases(w))
                    .filter(|leases| leases.len() == wave_branches.len())
                    .or_else(|| PartitionSpec::split(total_vaults, wave_branches.len() as u32))
            } else {
                None
            };
            let Some(leases) = leases else {
                // A serial run, a singleton wave, or more tenants than
                // vaults: the serial schedule is the only schedule.
                execs.push(serial_exec(w, wave_branches));
                continue;
            };

            // Execute every branch of the wave on its lease, on up to
            // `cfg.threads` threads. Inputs come from the serial pass's
            // outputs, so cross-branch edges from earlier waves resolve
            // identically in both schedules. Each branch's simulation is
            // self-contained and deterministic and the runs come back by
            // slot, so the merge is byte-identical for every thread count.
            let run_branch = |slot: usize, b: usize| -> Vec<StageRun> {
                dag.branches[b]
                    .iter()
                    .map(|&i| {
                        memo.run((i, Some(leases[slot]), None), || {
                            let stage = &self.stages[i];
                            let inputs = resolve_inputs(stage, i, source, outputs);
                            let build = resolve_build(&stage.spec, outputs);
                            let sys = base.restrict(leases[slot]);
                            run_stage_engine(cfg, sys, stage, inputs, build, None)
                        })
                    })
                    .collect()
            };
            let branch_runs: Vec<Vec<StageRun>> =
                fan_out(wave_branches.len(), cfg.threads, |slot| {
                    run_branch(slot, wave_branches[slot])
                });
            for (slot, &b) in wave_branches.iter().enumerate() {
                for (&i, run) in dag.branches[b].iter().zip(&branch_runs[slot]) {
                    matches[i] = run.projected[..] == outputs[i][..];
                }
            }
            let branch_times: Vec<Time> = branch_runs
                .iter()
                .map(|runs| runs.iter().map(|r| r.report.runtime_ps).sum())
                .collect();
            let concurrent_time = branch_times.iter().copied().max().unwrap_or(0);
            if concurrent_time >= serial_sum {
                // Concurrency does not pay: charge the serial schedule.
                execs.push(serial_exec(w, wave_branches));
                continue;
            }

            // Wave report: per-branch mesh traffic stays attributed to the
            // branch's partition; SerDes traffic merges into one globally
            // charged total.
            let mut serdes = SerDesStats::default();
            let mut branches = Vec::with_capacity(wave_branches.len());
            for (slot, &b) in wave_branches.iter().enumerate() {
                let mut mesh = MeshStats::default();
                for r in &branch_runs[slot] {
                    mesh.merge(&r.report.mesh_totals);
                    serdes.merge(&r.report.serdes_totals);
                }
                branches.push(BranchSchedule {
                    branch: b,
                    stages: dag.branches[b].clone(),
                    first_vault: leases[slot].first_vault,
                    vaults: leases[slot].vaults,
                    runtime_ps: branch_times[slot],
                    critical: false,
                    mesh,
                });
            }
            mark_critical(&mut branches);
            obs.emit(&ProgressEvent::WaveCompleted {
                wave: w,
                concurrent: true,
                runtime_ps: concurrent_time,
            });
            execs.push(WaveExec {
                report: WaveReport {
                    wave: w,
                    concurrent: true,
                    runtime_ps: concurrent_time,
                    serial_runtime_ps: serial_sum,
                    branches,
                    serdes,
                },
                leases: Some(leases),
            });
            for (runs, &b) in branch_runs.into_iter().zip(wave_branches) {
                for (&i, run) in dag.branches[b].iter().zip(runs) {
                    chosen[i] = Some(run);
                }
            }
        }
        execs
    }

    /// The adaptive race: builds a cost-model plan from the serial pass's
    /// actual cardinalities ([`crate::plan::plan_pipeline`]), then races
    /// the default stream schedule against the planned one (weighted
    /// leases, tuned chunk counts) and returns whichever measured faster.
    /// The default candidate is byte-for-byte the `Concurrency::Stream`
    /// execution, so `auto ≤ min(serial, branch, stream)` holds by
    /// construction; the `planned` block records the predictions and who
    /// won so artifacts can attribute the outcome. The candidates share
    /// one [`RunMemo`]: the default records its engine runs and the
    /// planned candidate takes every run it asks for again.
    fn race_planned(
        &self,
        cfg: &PipelineConfig,
        dag: &Dag,
        source: &Rel,
        serial: &[StageRun],
        outputs: &[Rel],
        obs: Observer<'_>,
    ) -> (SchedExec, PlanReport) {
        let plan = self.plan(cfg, dag, serial, outputs);

        // Candidate D: the default stream schedule (emits the progress
        // events). Candidate P: the planned schedule, raced silently —
        // observation must not depend on which candidate wins.
        let mut memo = RunMemo { record: plan.proposes_changes(), ..RunMemo::default() };
        let default = self.exec_schedule(cfg, dag, source, serial, outputs, obs, None, &memo);
        memo.record = false;
        let planned_exec = plan.proposes_changes().then(|| {
            let silent = Observer { label: obs.label, sink: &() };
            self.exec_schedule(cfg, dag, source, serial, outputs, silent, Some(&plan), &memo)
        });
        let planner_won =
            planned_exec.as_ref().is_some_and(|p| p.makespan_ps() < default.makespan_ps());
        let (mut winner, loser) = if planner_won {
            (planned_exec.expect("planner_won implies a planned candidate"), Some(default))
        } else {
            (default, planned_exec)
        };
        // Every candidate run was verified against the serial outputs;
        // a mismatch in either candidate fails the run, charged or not.
        if let Some(loser) = &loser {
            for (m, &lm) in winner.matches.iter_mut().zip(&loser.matches) {
                *m &= lm;
            }
        }
        let planned = PlanReport {
            stage_predicted_ps: plan.stage_predicted_ps.clone(),
            predicted_makespan_ps: plan.predicted_makespan_ps,
            planner_won,
            waves: plan
                .waves
                .iter()
                .map(|w| PlannedWaveReport {
                    wave: w.wave,
                    leases: w
                        .leases
                        .iter()
                        .enumerate()
                        .map(|(slot, l)| PlannedLease {
                            branch: dag.waves[w.wave][slot],
                            first_vault: l.first_vault,
                            vaults: l.vaults,
                        })
                        .collect(),
                })
                .collect(),
            edges: plan
                .edges
                .iter()
                .map(|e| PlannedEdgeReport {
                    producer: e.producer,
                    consumer: e.consumer,
                    chunks: e.chunks,
                })
                .collect(),
        };
        (winner, planned)
    }

    /// The cost-model plan for this run, built from the serial pass's
    /// actual cardinalities ([`crate::plan::plan_pipeline`]).
    fn plan(&self, cfg: &PipelineConfig, dag: &Dag, serial: &[StageRun], outputs: &[Rel]) -> Plan {
        let shapes: Vec<StageShape> = self
            .stages
            .iter()
            .enumerate()
            .map(|(i, stage)| StageShape {
                rows_in: serial[i].input_rows,
                rows_build: resolve_build(&stage.spec, outputs).map_or(0, |r| r.len()),
                rows_out: outputs[i].len(),
            })
            .collect();
        let sys = cfg.system_config();
        crate::plan::plan_pipeline(&self.stages, dag, &shapes, &sys, STREAM_CHUNKS)
    }

    /// One complete schedule execution — the only executor, behind every
    /// mode and both `Concurrency::Auto` candidates (the planned one
    /// overrides leases and chunk counts). Runs the waves (leased unless
    /// `Concurrency::Serial`), re-executes fused consumers with chunked
    /// input (`Concurrency::Stream` and `Concurrency::Auto` only), and
    /// walks the wave timeline; every fallback applies per execution.
    /// Leased and streamed runs go through `memo`.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn exec_schedule(
        &self,
        cfg: &PipelineConfig,
        dag: &Dag,
        source: &Rel,
        serial: &[StageRun],
        outputs: &[Rel],
        obs: Observer<'_>,
        plan: Option<&Plan>,
        memo: &RunMemo,
    ) -> SchedExec {
        let n = self.stages.len();
        let mut chosen: Vec<Option<StageRun>> = (0..n).map(|_| None).collect();
        let mut matches = vec![true; n];
        let execs = self.exec_waves(
            cfg,
            dag,
            source,
            serial,
            outputs,
            &mut chosen,
            &mut matches,
            obs,
            plan,
            memo,
        );
        let concurrent: Vec<bool> = chosen.iter().map(Option::is_some).collect();
        let base = cfg.system_config();

        // Streamed consumer runs for every candidate pair. The consumer
        // re-executes under the same lease its branch-mode charged run
        // used, with the producer's verified serial output as the chunk
        // stream, and is held to the same differential contract as
        // partitioned runs: projected output byte-identical to serial.
        let fused_pairs = match cfg.concurrency {
            Concurrency::Stream | Concurrency::Auto => dag.fused_pairs(&self.stages),
            Concurrency::Serial | Concurrency::Branch => Vec::new(),
        };
        let mut pairs: Vec<PairExec> = Vec::new();
        for (producer, consumer) in fused_pairs {
            let unfused_ps = chosen[consumer]
                .as_ref()
                .map_or(serial[consumer].report.runtime_ps, |r| r.report.runtime_ps);
            // An empty producer output has no partition rounds to overlap:
            // fusing it would charge the consumer a round for zero tuples.
            // Skip the fusion and keep the materialized slot.
            if outputs[producer].is_empty() {
                pairs.push(PairExec::fallback(producer, consumer, unfused_ps));
                continue;
            }
            let chunk_count =
                plan.and_then(|p| p.edge_chunks(producer, consumer)).unwrap_or(STREAM_CHUNKS);
            let wave = &execs[dag.wave_of(consumer)];
            let lease = wave.leases.as_ref().map(|leases| {
                let slot = wave
                    .report
                    .branches
                    .iter()
                    .position(|b| b.branch == dag.branch_of[consumer])
                    .expect("consumer's branch is in its wave");
                leases[slot]
            });
            let chunk_rows = chunk_len(outputs[producer].len(), chunk_count);
            let run = memo.run((consumer, lease, Some(chunk_rows)), || {
                let sys = lease.map_or_else(|| base.clone(), |l| base.restrict(l));
                let stage = &self.stages[consumer];
                let inputs = resolve_inputs(stage, consumer, source, outputs);
                let build = resolve_build(&stage.spec, outputs);
                let chunks = chunk_stream(&outputs[producer], chunk_count);
                run_stage_engine(cfg, sys, stage, inputs, build, Some(chunks))
            });
            matches[consumer] &= run.projected[..] == outputs[consumer][..];
            // An engine path that records no per-chunk rounds cannot be
            // overlapped in the timeline walk — fall back to the
            // materialized slot instead of panicking (the run is still
            // held to the differential contract above).
            let Some((spans, rest)) = stream_rounds(&run) else {
                pairs.push(PairExec::fallback(producer, consumer, unfused_ps));
                continue;
            };
            pairs.push(PairExec {
                producer,
                consumer,
                active: true,
                avail: Vec::new(),
                spans,
                rest,
                fused_ps: unfused_ps,
                unfused_ps,
                run: Some(run),
            });
        }

        // Timeline walk: process the waves in order on an absolute clock,
        // replaying each wave's charged layout (concurrent branches from
        // the wave start, or back-to-back serial order) with fused-pair
        // overlap applied. Producers record when each chunk of their
        // output becomes available; consumers fold the chunk arrivals
        // and their partition rounds into the pipelined completion time.
        let mut streamed = vec![false; n];
        let mut clock: Time = 0;
        let mut waves = Vec::with_capacity(execs.len());
        // Cross-branch producers of the wave being walked (pair indices);
        // their chunk availability is clamped once the wave's charged
        // time is known.
        let mut cross_wave: Vec<usize> = Vec::new();
        for we in execs {
            let mut report = we.report;
            let branch_charged = report.runtime_ps;
            let mut adjusted: Vec<Time> = Vec::with_capacity(report.branches.len());
            let mut cursor = clock; // serial layout: branches back to back
            for branch in &report.branches {
                let mut at = if report.concurrent { clock } else { cursor };
                let start = at;
                for &i in &branch.stages {
                    let unfused = chosen[i]
                        .as_ref()
                        .map_or(serial[i].report.runtime_ps, |r| r.report.runtime_ps);
                    let mut duration = unfused;
                    if let Some(pair) = pairs.iter_mut().find(|p| p.active && p.consumer == i) {
                        // Pipelined completion: each chunk partitions as
                        // soon as it arrives and the previous round is
                        // done; the probe tail follows the last round.
                        let mut done: Time = 0;
                        for (&arrival, &round) in pair.avail.iter().zip(&pair.spans) {
                            done = done.max(arrival) + round;
                        }
                        pair.fused_ps = done.max(at) + pair.rest - at;
                        if pair.fused_ps < unfused {
                            streamed[i] = true;
                            duration = pair.fused_ps;
                        }
                    }
                    if let Some(pi) = pairs.iter().position(|p| p.active && p.producer == i) {
                        let report = chosen[i].as_ref().map_or(&serial[i].report, |r| &r.report);
                        let out_ps = report.probe_time();
                        let pre = report.runtime_ps - out_ps;
                        let pair = &mut pairs[pi];
                        let k = pair.spans.len() as u64;
                        if dag.branch_of[pair.producer] == dag.branch_of[pair.consumer] {
                            // Same lease: the consumer's rounds overlap
                            // the producer's output phase chunk by chunk.
                            pair.avail =
                                (1..=k).map(|j| at + pre + (out_ps * j).div_ceil(k)).collect();
                        } else {
                            // Cross-branch: the consumer owns no lease
                            // while the producer's wave runs, so the
                            // chunks buffer until the producer's branch
                            // retires its lease; the wave's end-of-walk
                            // pass then decides which rounds fit on the
                            // freed vaults before the barrier and defers
                            // the rest into the consumer's slot.
                            pair.avail = vec![at + pre + out_ps; k as usize];
                            cross_wave.push(pi);
                        }
                    }
                    at += duration;
                }
                adjusted.push(at - start);
                cursor = at;
            }
            let layout_time: Time = if report.concurrent {
                adjusted.iter().copied().max().unwrap_or(0)
            } else {
                adjusted.iter().sum()
            };
            let charged = layout_time.min(branch_charged);
            // Cross-branch chunks are consumable only while idle vaults
            // exist: rounds that fit between the producer's branch
            // retiring its lease and this wave's barrier complete there;
            // the rest defer into the consumer's own slot (a
            // serial-layout wave keeps the whole machine busy to its
            // end, so everything defers).
            let barrier = clock + charged;
            for &pi in &cross_wave {
                let pair = &mut pairs[pi];
                let mut done: Time = 0;
                let mut fit = 0;
                if report.concurrent {
                    for (&arrival, &round) in pair.avail.iter().zip(&pair.spans) {
                        let t = done.max(arrival) + round;
                        if t > barrier {
                            break;
                        }
                        done = t;
                        fit += 1;
                    }
                }
                let deferred: Time = pair.spans[fit..].iter().sum();
                pair.avail.clear();
                pair.rest += deferred;
            }
            cross_wave.clear();
            // The walk's adjusted layout is the stream schedule's
            // accounting even when the wave's charged time did not
            // improve — a pair streamed in a non-critical branch still
            // charges its streamed run, so the branch table must say so.
            for (b, &t) in report.branches.iter_mut().zip(&adjusted) {
                b.runtime_ps = t;
                b.critical = false;
            }
            mark_critical(&mut report.branches);
            report.runtime_ps = charged;
            clock += charged;
            waves.push(report);
        }

        // Charge the streamed runs and record every fused edge (with its
        // per-pair verdict) in the schedule report.
        let mut fused = Vec::with_capacity(pairs.len());
        for pair in &mut pairs {
            debug_assert!(
                pair.active || pair.fused_ps == pair.unfused_ps,
                "a fallback pair must charge its materialized slot"
            );
            if streamed[pair.consumer] {
                chosen[pair.consumer] = pair.run.take();
            }
            fused.push(FusedEdge {
                producer: pair.producer,
                consumer: pair.consumer,
                chunks: pair.spans.len(),
                streamed: streamed[pair.consumer],
                streamed_ps: pair.fused_ps,
                unfused_ps: pair.unfused_ps,
            });
        }

        // NoC accounting follows the charged runs: a wave holding a
        // streamed consumer re-merges its branch mesh totals and its
        // globally-charged SerDes from the runs actually charged (the
        // streamed run's per-chunk rounds produce different traffic than
        // the materialized one exec_waves merged).
        for wave in waves
            .iter_mut()
            .filter(|w| w.branches.iter().any(|b| b.stages.iter().any(|&i| streamed[i])))
        {
            let mut serdes = SerDesStats::default();
            for branch in &mut wave.branches {
                let mut mesh = MeshStats::default();
                for &i in &branch.stages {
                    let rep = chosen[i].as_ref().map_or(&serial[i].report, |r| &r.report);
                    mesh.merge(&rep.mesh_totals);
                    serdes.merge(&rep.serdes_totals);
                }
                branch.mesh = mesh;
            }
            wave.serdes = serdes;
        }

        SchedExec { chosen, matches, concurrent, streamed, waves, fused }
    }

    /// Assembles the run's report from the charged execution: per stage,
    /// the scheduled (partitioned or streamed) run when the schedule
    /// charged one, else the serial pass's run.
    fn assemble(
        &self,
        cfg: &PipelineConfig,
        dag: &Dag,
        source_rows: usize,
        serial: Vec<StageRun>,
        mut sched: SchedExec,
        planned: Option<PlanReport>,
    ) -> PipelineReport {
        let makespan = sched.makespan_ps();
        let output = serial.last().expect("validated non-empty").projected.to_vec();
        let mut stages = Vec::with_capacity(self.stages.len());
        for (i, (stage, run)) in self.stages.iter().zip(serial).enumerate() {
            let serial_runtime_ps = run.report.runtime_ps;
            let serial_reference_ok = run.reference_ok;
            let run = match sched.chosen[i].take() {
                Some(mut scheduled_run) => {
                    // The scheduled run was checked against the serial
                    // output, not the pure reference directly; its
                    // reference verdict follows transitively (identical
                    // to a serial output that itself matched the
                    // reference).
                    scheduled_run.reference_ok = sched.matches[i] && serial_reference_ok;
                    scheduled_run
                }
                None => run,
            };
            stages.push(StageOutcome {
                spec: stage.spec,
                inputs: stage.inputs.clone(),
                wave: dag.wave_of(i),
                branch: dag.branch_of[i],
                concurrent: sched.concurrent[i],
                streamed: sched.streamed[i],
                serial_runtime_ps,
                matches_serial: sched.matches[i],
                // The digest-corruption fault point: the artifact records a
                // digest that no longer matches the (correct) relation, which
                // an `assertions.stage_digests` block then catches at assembly.
                output_digest: relation_digest(&run.projected)
                    ^ mondrian_core::fault::digest_xor(cfg.fault.as_deref(), i),
                input_rows: run.input_rows,
                output_rows: run.projected.len(),
                reference_ok: run.reference_ok,
                report: run.report,
            });
        }
        PipelineReport {
            system: cfg.system,
            source_rows,
            stages,
            schedule: ScheduleReport {
                mode: cfg.concurrency,
                waves: sched.waves,
                fused: sched.fused,
                makespan_ps: makespan,
            },
            planned,
            output,
        }
    }
}

/// The run label and progress sink the schedulers report through.
/// Observation only — nothing the sink does can influence the report.
#[derive(Clone, Copy)]
struct Observer<'a> {
    label: &'a str,
    sink: &'a dyn ProgressSink,
}

impl Observer<'_> {
    fn emit(&self, event: &ProgressEvent) {
        self.sink.emit(self.label, event);
    }
}

/// One wave of the branch-mode execution, kept with the leases its
/// concurrent layout ran on (fused consumers re-run under the same
/// lease).
struct WaveExec {
    report: WaveReport,
    leases: Option<Vec<PartitionSpec>>,
}

/// One fused producer→consumer candidate of a stream run.
struct PairExec {
    producer: usize,
    consumer: usize,
    /// Whether the timeline walk may stream this pair. A fallback pair
    /// (empty producer output, or an engine path without per-chunk
    /// rounds) stays in the report but always charges its materialized
    /// slot.
    active: bool,
    /// Absolute availability time of each chunk, recorded when the
    /// timeline walk passes the producer.
    avail: Vec<Time>,
    /// The consumer's per-chunk partition rounds (engine-simulated).
    spans: Vec<Time>,
    /// The streamed run's time after the last partition round.
    rest: Time,
    /// The consumer's slot duration under streaming (set by the walk).
    fused_ps: Time,
    /// The consumer's slot duration under the materialized schedule.
    unfused_ps: Time,
    /// The streamed run, taken when the pair charges it.
    run: Option<StageRun>,
}

impl PairExec {
    /// A pair the walk skips: it records the edge (zero chunks) and
    /// keeps the consumer's materialized slot charged.
    fn fallback(producer: usize, consumer: usize, unfused_ps: Time) -> Self {
        PairExec {
            producer,
            consumer,
            active: false,
            avail: Vec::new(),
            spans: Vec::new(),
            rest: 0,
            fused_ps: unfused_ps,
            unfused_ps,
            run: None,
        }
    }
}

/// One complete schedule execution, before report assembly. Every mode
/// but auto charges its only execution; auto races two and charges the
/// faster.
struct SchedExec {
    chosen: Vec<Option<StageRun>>,
    matches: Vec<bool>,
    concurrent: Vec<bool>,
    streamed: Vec<bool>,
    waves: Vec<WaveReport>,
    fused: Vec<FusedEdge>,
}

impl SchedExec {
    fn makespan_ps(&self) -> Time {
        self.waves.iter().map(|w| w.runtime_ps).sum()
    }
}

/// How many arrival chunks a fused edge streams through by default: the
/// bounded channel between a producer's output phase and its consumer's
/// partition phase. Deterministic — the chunking is part of the
/// schedule's identity; the planner may override it per edge.
const STREAM_CHUNKS: usize = 8;

/// Splits a producer's output relation into its bounded-channel arrival
/// chunks: up to `chunks` equal slices, at least one tuple each. Empty
/// relations never stream — their fused edges fall back to the
/// materialized slot before chunking.
fn chunk_stream(rel: &Rel, chunks: usize) -> Vec<Rel> {
    assert!(!rel.is_empty(), "empty producer outputs skip fusion");
    rel.chunks(chunk_len(rel.len(), chunks)).map(Arc::from).collect()
}

/// The length of [`chunk_stream`]'s slices (all but possibly the last):
/// two chunk counts that cut a relation of `rows` tuples the same way
/// stream the same run.
fn chunk_len(rows: usize, chunks: usize) -> usize {
    rows.div_ceil(chunks.clamp(1, rows))
}

/// Extracts a streamed run's per-chunk partition rounds and its time
/// past the last round. `None` when the engine path recorded no stream
/// info — the caller falls back to the materialized slot.
fn stream_rounds(run: &StageRun) -> Option<(Vec<Time>, Time)> {
    let info = run.report.stream.as_ref()?;
    let spans = info.chunk_partition_ps.clone();
    let rest = run.report.runtime_ps.saturating_sub(spans.iter().sum::<Time>());
    Some((spans, rest))
}

/// One stage of the serial pass's reference chain: its resolved input
/// edges and build side, its store key and the run the store served.
struct ChainLink {
    inputs: Vec<Rel>,
    build: Option<Rel>,
    key: Option<Vec<u8>>,
    stored: Option<StageRun>,
}

/// One executed stage (on the whole machine or on a lease).
#[derive(Clone)]
struct StageRun {
    input_rows: usize,
    report: Report,
    projected: Rel,
    reference_ok: bool,
}

/// Runs one stage's engine simulation on `sys_cfg` and projects its
/// output. Multi-input stages hand every resolved edge relation to the
/// builder, in edge order; a streamed run replaces its primary edge with
/// the chunked arrival stream. The reference verdict is filled in by the
/// caller: serial runs compare against the pure reference executor,
/// partition and streamed runs against the serial outputs.
fn run_stage_engine(
    cfg: &PipelineConfig,
    sys_cfg: SystemConfig,
    stage: &Stage,
    inputs: Vec<Rel>,
    build: Option<Rel>,
    stream: Option<Vec<Rel>>,
) -> StageRun {
    let input_rows = inputs.iter().map(|r| r.len()).sum();
    let mut edges = inputs.into_iter();
    let mut builder = ExperimentBuilder::new(stage.spec.basic_operator())
        .config(sys_cfg)
        .input(edges.next().expect("validated: every stage has an input edge"));
    for rel in edges {
        builder = builder.add_input(rel);
    }
    if let Some(chunks) = stream {
        builder = builder.streamed_input(chunks);
    }
    if let StageSpec::FlatMap { fanout } = stage.spec {
        builder = builder.fanout(fanout);
    }
    if let Some(pred) = stage.spec.scan_predicate() {
        builder = builder.scan_predicate(pred);
    }
    if let Some(r) = build {
        builder = builder.join_build(r);
    }
    if let Some(f) = cfg.underprovision {
        builder = builder.underprovision_permutable(f);
    }
    let report = builder.run();
    let projected: Rel = stage.spec.project_output(&report.output).into();
    StageRun { input_rows, report, projected, reference_ok: false }
}

/// Which engine run a schedule asks for: the stage index, the lease it
/// runs on (`None` = the whole machine) and, for a streamed consumer, the
/// length of its arrival chunks ([`chunk_len`]). Inputs always come from
/// the serial pass's outputs, so equal keys within one pipeline run name
/// byte-identical simulations. The lease is compared whole, `index`
/// included, because it labels the run's stats.
type RunKey = (usize, Option<PartitionSpec>, Option<usize>);

/// The engine runs shared between `Concurrency::Auto`'s two race
/// candidates. The default candidate records a copy of every leased and
/// streamed run (`record`); the planned candidate asks for the same keys
/// and takes the recorded run instead of simulating it again, then checks
/// it against the serial outputs exactly as a fresh run. A hit removes its
/// entry, because each candidate asks for a key at most once, so the memo
/// never holds more than the default candidate's runs.
///
/// The memo lives for one [`Pipeline::run_observed`] call and is dropped
/// on unwind, so the campaign's bounded retry simulates from scratch. A
/// hit does not enter the engine, so the run's fault points do not fire a
/// second time: `stall_at_event` under `auto` stalls once for a shared
/// run, not once per candidate. Every other mode runs one candidate with
/// an empty, non-recording memo and simulates every run.
#[derive(Default)]
struct RunMemo {
    runs: Mutex<HashMap<RunKey, StageRun>>,
    record: bool,
}

impl RunMemo {
    /// The recorded run for `key`, or `exec`'s fresh run (recorded when
    /// the memo records). The lock is not held while `exec` simulates, so
    /// concurrent branches run in parallel.
    fn run(&self, key: RunKey, exec: impl FnOnce() -> StageRun) -> StageRun {
        if let Some(run) = self.runs.lock().expect("run memo poisoned").remove(&key) {
            return run;
        }
        let run = exec();
        if self.record {
            self.runs.lock().expect("run memo poisoned").insert(key, run.clone());
        }
        run
    }
}

/// The progress event of a finished serial-pass stage.
fn stage_finished(stage: usize, op: String, run: &StageRun) -> ProgressEvent {
    ProgressEvent::StageFinished {
        stage,
        op,
        output_rows: run.projected.len(),
        runtime_ps: run.report.runtime_ps,
    }
}

/// Cooperative wall-time checkpoint: unwinds with a structured
/// `limit_wall_time` abort once the run's deadline has passed.
fn check_deadline(cfg: &PipelineConfig) {
    if let Some(deadline) = cfg.deadline {
        if Instant::now() >= deadline {
            Abort::throw(AbortReason::LimitWallTime, "wall-time budget exhausted");
        }
    }
}

/// A wave charged under the serial schedule (singleton waves, fallbacks,
/// and every wave of a serial run).
fn serial_wave(
    w: usize,
    wave_branches: &[usize],
    dag: &Dag,
    serial: &[StageRun],
    total_vaults: u32,
) -> WaveReport {
    let mut serdes = SerDesStats::default();
    let mut branches = Vec::with_capacity(wave_branches.len());
    let mut sum: Time = 0;
    for &b in wave_branches {
        let mut mesh = MeshStats::default();
        let mut runtime: Time = 0;
        for &i in &dag.branches[b] {
            mesh.merge(&serial[i].report.mesh_totals);
            serdes.merge(&serial[i].report.serdes_totals);
            runtime += serial[i].report.runtime_ps;
        }
        sum += runtime;
        branches.push(BranchSchedule {
            branch: b,
            stages: dag.branches[b].clone(),
            first_vault: 0,
            vaults: total_vaults,
            runtime_ps: runtime,
            critical: false,
            mesh,
        });
    }
    mark_critical(&mut branches);
    WaveReport {
        wave: w,
        concurrent: false,
        runtime_ps: sum,
        serial_runtime_ps: sum,
        branches,
        serdes,
    }
}

fn mark_critical(branches: &mut [BranchSchedule]) {
    if let Some(max) = branches.iter().map(|b| b.runtime_ps).max() {
        if let Some(b) = branches.iter_mut().find(|b| b.runtime_ps == max) {
            b.critical = true;
        }
    }
}

fn resolve_input(input: StageInput, i: usize, source: &Rel, outputs: &[Rel]) -> Rel {
    match input {
        StageInput::Source => source.clone(),
        StageInput::Prev => {
            if i == 0 {
                source.clone()
            } else {
                outputs[i - 1].clone()
            }
        }
        StageInput::Stage(j) => outputs[j].clone(),
    }
}

/// Resolves every input edge of a stage, in edge order — the scheduler
/// feeds multi-input stages from multiple DAG edges with refcount bumps,
/// not copies.
fn resolve_inputs(stage: &Stage, i: usize, source: &Rel, outputs: &[Rel]) -> Vec<Rel> {
    stage.inputs.iter().map(|&input| resolve_input(input, i, source, outputs)).collect()
}

fn resolve_build(spec: &StageSpec, outputs: &[Rel]) -> Option<Rel> {
    match spec {
        StageSpec::Join { build: BuildSide::Stage(j) } => Some(outputs[*j].clone()),
        _ => None,
    }
}

/// Identity of a run's source relation: everything that determines the
/// generated tuples, independent of the evaluated system.
type SourceKey = (bool, usize, u64, Option<u64>, Option<u64>);

/// One persisted serial-pass stage result: exactly the state the serial
/// reference pass produces for a stage, so a backed [`ExecCache`] can
/// serve the stage without running either the engine or the reference
/// executor.
#[derive(Debug, Clone)]
pub struct StageEntry {
    /// Rows consumed across every input edge.
    pub input_rows: usize,
    /// Whether the engine output matched the pure reference executor.
    pub reference_ok: bool,
    /// The engine's full stage report.
    pub report: Report,
    /// The stage's projected output relation.
    pub projected: Rel,
}

/// A persistent backing for [`ExecCache`]: per-stage serial results and
/// pure reference-prefix relations, addressed by opaque key bytes the
/// cache derives from each entry's digest chain. Implementations must
/// treat corruption as a miss and tolerate concurrent use — the cache
/// calls them from every campaign worker.
pub trait ExecStore: Send + Sync + std::fmt::Debug {
    /// Loads a reference-prefix relation; `None` is a miss.
    fn load_ref(&self, key: &[u8]) -> Option<Rel>;
    /// Persists a reference-prefix relation (best-effort).
    fn save_ref(&self, key: &[u8], rel: &[Tuple]);
    /// Loads a serial-pass stage result; `None` is a miss.
    fn load_stage(&self, key: &[u8]) -> Option<StageEntry>;
    /// Persists a serial-pass stage result (best-effort).
    fn save_stage(&self, key: &[u8], entry: &StageEntry);
}

/// Cross-run cache of pure per-stage reference outputs, keyed by
/// `(stage spec, source identity, input-edge digests, build digest)` —
/// multi-input stages fold every edge's relation digest into one key
/// component. Campaigns sweeping one plan over many systems share
/// identical stage-prefix semantics; the cache computes each prefix's
/// reference output once. The digests guard against poisoning: should a
/// run's engine output diverge from the reference chain, its downstream
/// inputs differ and miss the cache instead of overwriting another
/// system's expected values. The stage index and plan identity are *not*
/// part of the key — the input-digest chain already pins the prefix
/// semantics, so two plans sharing a prefix share its entries.
///
/// An optional persistent backing ([`ExecCache::with_backing`]) extends
/// both layers across processes: reference relations and whole
/// serial-pass stage results (engine report included) are written
/// through to the store and consulted on memory misses. Runs with an
/// armed fault plan never touch the backing, in either direction.
///
/// The cache is thread-safe — campaign workers running sweep points on
/// separate OS threads share one instance. Cached *values* are identical
/// whichever thread computes them (the reference executors are pure), so
/// sharing never changes results; only the hit/miss counters depend on
/// scheduling (two threads may both miss on the same prefix at once and
/// compute it redundantly rather than block one another).
#[derive(Debug, Default)]
pub struct ExecCache {
    #[allow(clippy::type_complexity)]
    reference: Mutex<HashMap<(u64, SourceKey, u64, Option<u64>), Rel>>,
    reference_hits: AtomicU64,
    reference_misses: AtomicU64,
    backing: Option<Arc<dyn ExecStore>>,
}

impl ExecCache {
    /// A cache that extends both memo layers through `store`.
    pub fn with_backing(store: Arc<dyn ExecStore>) -> Self {
        Self { backing: Some(store), ..Self::default() }
    }

    fn reference_output(
        &self,
        cfg: &PipelineConfig,
        stage: &Stage,
        inputs: &[Rel],
        build: Option<&[Tuple]>,
    ) -> Rel {
        let inputs_digest =
            crate::report::fnv1a(inputs.iter().flat_map(|rel| relation_digest(rel).to_le_bytes()));
        let spec_digest = crate::report::fnv1a(format!("{:?}", stage.spec).bytes());
        let build_digest = build.map(relation_digest);
        let key = (spec_digest, cfg.source_key(), inputs_digest, build_digest);
        if let Some(v) = self.reference.lock().expect("cache poisoned").get(&key) {
            self.reference_hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        // The reference output is system-independent pure semantics, so
        // the persistent key carries no system, underprovisioning, or
        // budget component — only the digest chain.
        let store_key = (cfg.fault.is_none() && self.backing.is_some())
            .then(|| format!("ref1|{:?}", key).into_bytes());
        if let (Some(store), Some(store_key)) = (&self.backing, &store_key) {
            if let Some(v) = store.load_ref(store_key) {
                self.reference_hits.fetch_add(1, Ordering::Relaxed);
                self.reference.lock().expect("cache poisoned").insert(key, v.clone());
                return v;
            }
        }
        // Compute outside the lock: a long reference computation must not
        // serialize unrelated cache lookups from other workers.
        let input_refs: Vec<&[Tuple]> = inputs.iter().map(|rel| &rel[..]).collect();
        let v: Rel = stage.spec.reference_output(&input_refs, build, cfg.seed).into();
        self.reference_misses.fetch_add(1, Ordering::Relaxed);
        self.reference.lock().expect("cache poisoned").insert(key, v.clone());
        if let (Some(store), Some(store_key)) = (&self.backing, &store_key) {
            store.save_ref(store_key, &v);
        }
        v
    }

    /// The persistent key of a serial-pass stage result, or `None` when
    /// the result must not be persisted (no backing, or a fault plan is
    /// armed — an injected fault may corrupt anything downstream of its
    /// site, and PR 8's exclusion rule keeps such state out of every
    /// memo layer). Unlike reference entries the key carries the system,
    /// the (permutability-normalized) underprovisioning factor, and the
    /// event budget: the stored engine report depends on all three.
    /// Thread counts and the concurrency mode are deliberately absent —
    /// the serial pass is byte-identical across them.
    fn stage_key(
        &self,
        cfg: &PipelineConfig,
        stage: &Stage,
        inputs: &[Rel],
        build: Option<&[Tuple]>,
    ) -> Option<Vec<u8>> {
        if self.backing.is_none() || cfg.fault.is_some() {
            return None;
        }
        let inputs_digest =
            crate::report::fnv1a(inputs.iter().flat_map(|rel| relation_digest(rel).to_le_bytes()));
        let underprovision = cfg.effective_underprovision().map(f64::to_bits);
        let key = (
            cfg.system,
            cfg.source_key(),
            underprovision,
            cfg.max_events,
            format!("{:?}", stage.spec),
            inputs_digest,
            build.map(relation_digest),
        );
        Some(format!("stage1|{:?}", key).into_bytes())
    }

    fn load_stage_run(&self, key: &[u8]) -> Option<StageRun> {
        let entry = self.backing.as_ref()?.load_stage(key)?;
        Some(StageRun {
            input_rows: entry.input_rows,
            report: entry.report,
            projected: entry.projected,
            reference_ok: entry.reference_ok,
        })
    }

    fn save_stage_run(&self, key: &[u8], run: &StageRun) {
        if let Some(store) = &self.backing {
            store.save_stage(
                key,
                &StageEntry {
                    input_rows: run.input_rows,
                    reference_ok: run.reference_ok,
                    report: run.report.clone(),
                    projected: run.projected.clone(),
                },
            );
        }
    }

    /// Reference outputs served from the cache (memory or backing).
    pub fn reference_hits(&self) -> u64 {
        self.reference_hits.load(Ordering::Relaxed)
    }

    /// Reference outputs computed and inserted.
    pub fn reference_misses(&self) -> u64 {
        self.reference_misses.load(Ordering::Relaxed)
    }
}

/// Workload-and-machine configuration of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The evaluated system.
    pub system: SystemKind,
    /// Minimal test topology (1 HMC × 4 vaults) instead of the paper's.
    pub tiny: bool,
    /// Source-relation tuples per vault.
    pub tuples_per_vault: usize,
    /// RNG seed for the source relation and derived dimensions.
    pub seed: u64,
    /// Source key distribution.
    pub dist: KeyDist,
    /// Source key upper bound; defaults to a quarter of the relation size
    /// (the paper's average group size of four, §6).
    pub key_bound: Option<u64>,
    /// Deliberately undersize permutable destination regions by this
    /// factor (< 1.0 exercises the §5.4 overflow/retry path on permutable
    /// systems).
    pub underprovision: Option<f64>,
    /// How to schedule the stages onto the machine.
    pub concurrency: Concurrency,
    /// OS threads this run may use, the calling thread included: the
    /// serial pass simulates its stages, and waves with several leased
    /// branches execute them, on up to this many threads. Purely an
    /// execution-speed knob — results are byte-identical for every value
    /// (1 = fully in-order execution).
    pub threads: usize,
    /// Cooperative non-tick event budget for the whole run, metered over
    /// the serial reference pass (stage boundaries plus the in-flight
    /// stage's own event loop). Exceeding it unwinds with a structured
    /// `limit_events` abort. Branch
    /// and stream re-executions are alternative timing models of work
    /// the serial pass already paid for, so they are not re-budgeted.
    pub max_events: Option<u64>,
    /// Cooperative wall-time deadline, checked at stage and wave
    /// boundaries; crossing it unwinds with a structured
    /// `limit_wall_time` abort. Host-dependent by nature for nonzero
    /// budgets — an already-expired deadline degrades deterministically.
    pub deadline: Option<Instant>,
    /// Armed fault plan for this run.
    pub fault: Option<Arc<FaultHandle>>,
}

impl PipelineConfig {
    /// The scaled paper topology on `system`.
    pub fn new(system: SystemKind) -> Self {
        Self {
            system,
            tiny: false,
            tuples_per_vault: 1024,
            seed: 0x6d6f6e64, // "mond"
            dist: KeyDist::Uniform,
            key_bound: None,
            underprovision: None,
            concurrency: Concurrency::Serial,
            threads: 1,
            max_events: None,
            deadline: None,
            fault: None,
        }
    }

    /// The minimal test topology on `system`.
    pub fn tiny(system: SystemKind) -> Self {
        Self { tiny: true, tuples_per_vault: 256, ..Self::new(system) }
    }

    /// The underprovisioning factor that can shape this run: `None` on
    /// systems without permutable regions, where the factor changes
    /// nothing. Every memo and store key normalizes through this, so
    /// sweeping the factor there does not re-simulate.
    pub fn effective_underprovision(&self) -> Option<f64> {
        self.system.uses_permutability().then_some(self.underprovision).flatten()
    }

    /// The machine configuration of this run.
    pub fn system_config(&self) -> SystemConfig {
        let mut cfg = if self.tiny {
            SystemConfig::tiny(self.system)
        } else {
            SystemConfig::scaled(self.system)
        };
        cfg.tuples_per_vault = self.tuples_per_vault;
        cfg.seed = self.seed;
        cfg.fault = self.fault.clone();
        cfg
    }

    /// Generates the pipeline's source relation.
    pub fn source_relation(&self) -> Vec<Tuple> {
        let cfg = self.system_config();
        let total = self.tuples_per_vault * cfg.total_vaults() as usize;
        let bound = self.key_bound.unwrap_or_else(|| (total as u64 / 4).max(1));
        match self.dist {
            KeyDist::Uniform => uniform_relation(total, bound, self.seed),
            KeyDist::Zipf(theta) => zipfian_relation(total, bound, theta, self.seed),
        }
    }

    /// Everything that determines the source relation (and therefore every
    /// stage's functional output), independent of the evaluated system —
    /// the memoization key shared across a sweep.
    pub fn source_key(&self) -> SourceKey {
        let theta = match self.dist {
            KeyDist::Uniform => None,
            KeyDist::Zipf(t) => Some(t.to_bits()),
        };
        (self.tiny, self.tuples_per_vault, self.seed, theta, self.key_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mondrian_ops::spark::SparkOp;

    #[test]
    fn from_spark_ops_uses_default_lowerings() {
        let p =
            Pipeline::from_spark_ops(&[SparkOp::Filter, SparkOp::ReduceByKey, SparkOp::SortByKey])
                .unwrap();
        assert_eq!(p.stages().len(), 3);
        assert!(p.validate().is_ok());
        assert!(p.stages().iter().all(|s| s.inputs == vec![StageInput::Prev]));
        assert!(Pipeline::from_spark_ops(&[SparkOp::Union]).is_err());
        // FlatMap chains standalone now; Cogroup still needs explicit edges.
        assert!(Pipeline::from_spark_ops(&[SparkOp::FlatMap, SparkOp::CountByKey]).is_ok());
        assert!(Pipeline::from_spark_ops(&[SparkOp::Cogroup]).is_err());
    }

    #[test]
    fn validation_enforces_operator_arity() {
        use crate::stage::Stage;
        // A union with one edge violates min_inputs = 2.
        let one_edge = Pipeline::from_stages(vec![
            Stage::chained(StageSpec::Filter { modulus: 10, remainder: 0 }),
            Stage::chained(StageSpec::Union),
        ]);
        assert!(one_edge.validate().unwrap_err().contains("at least 2"));
        // A cogroup with three edges violates max_inputs = 2.
        let three_edges = Pipeline::from_stages(vec![
            Stage::chained(StageSpec::Filter { modulus: 10, remainder: 0 }),
            Stage::with_inputs(
                StageSpec::Cogroup,
                vec![StageInput::Source, StageInput::Stage(0), StageInput::Prev],
            ),
        ]);
        assert!(three_edges.validate().unwrap_err().contains("at most 2"));
        // A scan stage with two edges is rejected too.
        let scan_two = Pipeline::from_stages(vec![
            Stage::chained(StageSpec::Filter { modulus: 10, remainder: 0 }),
            Stage::with_inputs(StageSpec::SortByKey, vec![StageInput::Prev, StageInput::Source]),
        ]);
        assert!(scan_two.validate().is_err());
        // Properly wired union + cogroup pass.
        let ok = Pipeline::from_stages(vec![
            Stage::chained(StageSpec::Filter { modulus: 10, remainder: 0 }),
            Stage::with_input(StageSpec::Filter { modulus: 3, remainder: 1 }, StageInput::Source),
            Stage::with_inputs(StageSpec::Union, vec![StageInput::Stage(0), StageInput::Stage(1)]),
            Stage::with_inputs(
                StageSpec::Cogroup,
                vec![StageInput::Stage(0), StageInput::Stage(1)],
            ),
        ]);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        assert!(Pipeline::new(vec![]).validate().is_err());
        let forward_ref = Pipeline::new(vec![StageSpec::Join { build: BuildSide::Stage(0) }]);
        assert!(forward_ref.validate().is_err(), "join cannot reference itself");
        let forward_input = Pipeline::from_stages(vec![
            Stage::chained(StageSpec::CountByKey),
            Stage::with_input(StageSpec::SortByKey, StageInput::Stage(1)),
        ]);
        assert!(forward_input.validate().is_err(), "input cannot reference itself or later");
        let ok = Pipeline::new(vec![
            StageSpec::CountByKey,
            StageSpec::Join { build: BuildSide::Stage(0) },
        ]);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn empty_producer_edges_fall_back_to_materialized() {
        // Filter{2,0} keeps odd payloads, Filter{2,1} keeps even ones:
        // their composition is empty, so the fusable edge into the
        // group-by has an empty producer output. The schedule must skip
        // the fusion (no partition round charged for zero tuples)
        // instead of streaming a single empty chunk.
        let pipeline = Pipeline::from_stages(vec![
            Stage::chained(StageSpec::Filter { modulus: 2, remainder: 0 }),
            Stage::chained(StageSpec::Filter { modulus: 2, remainder: 1 }),
            Stage::chained(StageSpec::GroupByKey),
        ]);
        let mut cfg = PipelineConfig::tiny(SystemKind::Mondrian);
        cfg.concurrency = Concurrency::Serial;
        let serial = pipeline.run(&cfg);
        assert!(serial.verified());
        assert!(serial.output.is_empty(), "the filters cancel out");
        for mode in [Concurrency::Stream, Concurrency::Auto] {
            cfg.concurrency = mode;
            let report = pipeline.run(&cfg);
            assert!(report.verified(), "{mode:?} run failed");
            assert_eq!(report.output, serial.output);
            let edge = report
                .schedule
                .fused
                .iter()
                .find(|f| f.consumer == 2)
                .expect("the group-by edge is fusable");
            assert!(!edge.streamed, "an empty stream must not charge");
            assert_eq!(edge.chunks, 0, "no chunks were formed");
            assert_eq!(edge.streamed_ps, edge.unfused_ps, "materialized slot kept");
            assert!(report.makespan_ps() <= serial.makespan_ps());
        }
    }

    #[test]
    fn runs_without_chunk_accounting_fall_back_not_panic() {
        // An engine path that records no per-chunk rounds yields `None`
        // from `stream_rounds`, which the scheduler treats as a per-pair
        // fallback to the materialized slot (it used to panic).
        let cfg = PipelineConfig::tiny(SystemKind::Mondrian);
        let stage = Stage::chained(StageSpec::GroupByKey);
        let source: Rel = Arc::from(cfg.source_relation());
        let materialized =
            run_stage_engine(&cfg, cfg.system_config(), &stage, vec![source.clone()], None, None);
        assert!(
            stream_rounds(&materialized).is_none(),
            "a run without stream info has no rounds to overlap"
        );
        let chunks = chunk_stream(&source, 4);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), source.len());
        let streamed =
            run_stage_engine(&cfg, cfg.system_config(), &stage, vec![source], None, Some(chunks));
        let (spans, rest) = stream_rounds(&streamed).expect("streamed run records rounds");
        assert_eq!(spans.len(), 4);
        assert_eq!(rest + spans.iter().sum::<Time>(), streamed.report.runtime_ps);
    }

    #[test]
    fn chunk_stream_respects_requested_counts() {
        let rel: Rel =
            Arc::from(PipelineConfig::tiny(SystemKind::Mondrian).source_relation()[..10].to_vec());
        assert_eq!(chunk_stream(&rel, 4).len(), 4);
        assert_eq!(chunk_stream(&rel, 1).len(), 1);
        assert_eq!(chunk_stream(&rel, 0).len(), 1, "zero clamps to one chunk");
        assert_eq!(chunk_stream(&rel, 100).len(), 10, "never more chunks than tuples");
    }

    #[test]
    fn auto_mode_records_a_plan_and_never_loses() {
        let pipeline = Pipeline::from_stages(vec![
            Stage::chained(StageSpec::Filter { modulus: 10, remainder: 0 }),
            Stage::chained(StageSpec::GroupByKey),
            Stage::with_input(StageSpec::Map { key_mul: 1, key_add: 3 }, StageInput::Source),
            Stage::chained(StageSpec::SortByKey),
            Stage::with_input(StageSpec::Join { build: BuildSide::Stage(3) }, StageInput::Stage(1)),
        ]);
        for system in [SystemKind::Mondrian, SystemKind::Cpu] {
            let mut cfg = PipelineConfig::tiny(system);
            cfg.concurrency = Concurrency::Serial;
            let serial = pipeline.run(&cfg);
            cfg.concurrency = Concurrency::Branch;
            let branch = pipeline.run(&cfg);
            cfg.concurrency = Concurrency::Stream;
            let stream = pipeline.run(&cfg);
            cfg.concurrency = Concurrency::Auto;
            let auto = pipeline.run(&cfg);
            assert!(auto.verified(), "auto run failed on {system}");
            assert_eq!(auto.output, serial.output, "auto must stay byte-identical to serial");
            let planned = auto.planned.as_ref().expect("auto records its plan");
            assert_eq!(planned.stage_predicted_ps.len(), pipeline.stages().len());
            assert!(planned.predicted_makespan_ps > 0);
            let best = serial.makespan_ps().min(branch.makespan_ps()).min(stream.makespan_ps());
            assert!(
                auto.makespan_ps() <= best,
                "auto lost on {system}: {} > {} ps",
                auto.makespan_ps(),
                best
            );
            assert!(serial.planned.is_none() && stream.planned.is_none());
        }
    }

    #[test]
    fn shared_runs_change_nothing() {
        // Wave 0 holds three filter -> {group-by, group-by, sort}
        // branches, the first two with a fused edge; the planner re-leases
        // it unequally on CPU, where it runs concurrently. Wave 1 holds two
        // joins on the equal split, which the planned candidate shares
        // with the default one.
        let pipeline = Pipeline::from_stages(vec![
            Stage::chained(StageSpec::Filter { modulus: 10, remainder: 0 }),
            Stage::chained(StageSpec::GroupByKey),
            Stage::with_input(StageSpec::Filter { modulus: 3, remainder: 1 }, StageInput::Source),
            Stage::chained(StageSpec::GroupByKey),
            Stage::with_input(StageSpec::Filter { modulus: 7, remainder: 2 }, StageInput::Source),
            Stage::chained(StageSpec::SortByKey),
            Stage::with_input(StageSpec::Join { build: BuildSide::Stage(3) }, StageInput::Stage(1)),
            Stage::with_input(StageSpec::Join { build: BuildSide::Stage(3) }, StageInput::Stage(5)),
        ]);
        let mut cfg = PipelineConfig::tiny(SystemKind::Cpu);
        cfg.concurrency = Concurrency::Auto;
        let dag = pipeline.dag();
        assert_eq!(dag.waves.len(), 2);
        assert!(!dag.fused_pairs(pipeline.stages()).is_empty());
        let source: Rel = cfg.source_relation().into();
        let (serial, outputs) = pipeline.serial_pass(&cfg, &ExecCache::default(), &source, "", &());
        let plan = pipeline.plan(&cfg, &dag, &serial, &outputs);
        assert!(plan.wave_leases(0).is_some() && plan.wave_leases(1).is_none());
        let obs = Observer { label: "", sink: &() };
        let exec = |plan: Option<&Plan>, memo: &RunMemo| {
            pipeline.exec_schedule(&cfg, &dag, &source, &serial, &outputs, obs, plan, memo)
        };
        // The fields a candidate charges, and the checks it made.
        let charged = |e: &SchedExec| {
            format!("{:?} {:?} {:?} {}", e.waves, e.fused, e.matches, e.makespan_ps())
        };

        let mut memo = RunMemo { record: true, ..RunMemo::default() };
        let default = exec(None, &memo);
        memo.record = false;
        let recorded = memo.runs.lock().unwrap().len();
        let planned = exec(Some(&plan), &memo);
        let served = recorded - memo.runs.lock().unwrap().len();
        assert!(served >= 1, "the planned candidate shares no run with the default");

        assert_eq!(charged(&default), charged(&exec(None, &RunMemo::default())));
        assert_eq!(charged(&planned), charged(&exec(Some(&plan), &RunMemo::default())));
        assert!(planned.waves[0].concurrent, "the re-leased wave is charged");
        assert!(planned.matches.iter().all(|&m| m));
    }

    #[test]
    fn source_relation_is_deterministic() {
        let cfg = PipelineConfig::tiny(SystemKind::Mondrian);
        assert_eq!(cfg.source_relation(), cfg.source_relation());
        assert_eq!(cfg.source_relation().len(), 256 * 4);
    }

    #[test]
    fn source_key_distinguishes_sources() {
        let a = PipelineConfig::tiny(SystemKind::Mondrian);
        let mut b = PipelineConfig::tiny(SystemKind::Cpu);
        assert_eq!(a.source_key(), b.source_key(), "system does not change the source");
        b.seed += 1;
        assert_ne!(a.source_key(), b.source_key());
    }
}
