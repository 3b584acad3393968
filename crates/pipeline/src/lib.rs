//! # mondrian-pipeline
//!
//! Multi-stage analytic queries on the Mondrian Data Engine.
//!
//! Table 1 of the paper maps the common Spark transformations onto four
//! basic physical operators; the engine's experiment driver simulates
//! one operator at a time. This crate closes the gap to real analytics:
//! a [`Pipeline`] is a DAG of declarative [`Stage`]s — each a
//! [`StageSpec`] plus an explicit list of input edges ([`StageInput`]) —
//! and the executor lowers every stage onto its Table 1 operator (via
//! the open operator IR, including the multi-input `union`/`cogroup`
//! and the 1→N `flat_map`), runs it on the simulated system, and
//! threads each stage's **actual output relation** into its consumers.
//! Join stages may take their build side from any earlier stage's
//! output; multi-input stages name every feeder edge explicitly.
//!
//! Because the paper's vaults are independent execution partitions, the
//! executor can also **lease the machine out**. Every run starts with a
//! serial reference pass (each stage alone on the whole machine), then
//! one schedule executor charges it; [`Concurrency`] picks its two
//! settings. With **vault leases** (every mode but
//! [`Concurrency::Serial`]), independent DAG branches (e.g. a join's two
//! input chains) run concurrently on disjoint vault partitions, joined at
//! wave barriers; a wave only charges the concurrent makespan when it
//! beats the serial schedule. With **streaming** ([`Concurrency::Stream`]
//! and [`Concurrency::Auto`]), eligible producer→consumer edges
//! ([`Dag::fused_pairs`]) chunk the producer's output relation through a
//! bounded channel into the consumer's partition phase, overlapping the
//! producer's probe/output phase with the consumer's histogram/scatter
//! rounds instead of materializing the relation at a wave barrier; a
//! per-pair fallback keeps a streamed schedule never charged slower than
//! the unstreamed one. [`Concurrency::Auto`] races the default stream
//! schedule against a cost-model plan and charges the faster. Every
//! partitioned or streamed stage's output must be byte-identical to the
//! serial reference pass.
//!
//! Every stage is verified against the engine's own functional check and
//! the stage's pure functional semantics
//! ([`StageSpec::reference_output`]); branch runs add the
//! serial-equivalence check on top.
//!
//! # Quickstart
//!
//! ```
//! use mondrian_pipeline::{Pipeline, PipelineConfig, StageSpec};
//! use mondrian_core::SystemKind;
//!
//! let pipeline = Pipeline::new(vec![
//!     StageSpec::Filter { modulus: 10, remainder: 0 },
//!     StageSpec::ReduceByKey,
//!     StageSpec::SortByKey,
//! ]);
//! let report = pipeline.run(&PipelineConfig::tiny(SystemKind::Mondrian));
//! assert!(report.verified());
//! assert_eq!(report.stages.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod observe;
pub mod plan;
mod report;
mod schedule;
mod stage;

pub use exec::{ExecCache, ExecStore, Pipeline, PipelineConfig, StageEntry};
pub use observe::{run_metrics, trace_run};
pub use report::{
    relation_digest, BranchSchedule, FusedEdge, PipelineReport, PlanReport, PlannedEdgeReport,
    PlannedLease, PlannedWaveReport, ScheduleReport, StageOutcome, WaveReport,
};
pub use schedule::{Concurrency, Dag};
pub use stage::{derive_dimension, BuildSide, Stage, StageInput, StageSpec};
