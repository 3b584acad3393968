//! # mondrian-ops
//!
//! The four basic in-memory data operators of the paper — **Scan**,
//! **Sort**, **Group-by** and **Join** (§2, Table 2) — in both algorithm
//! families the paper contrasts:
//!
//! * the **CPU-optimized, hash-based** family (radix partitioning with
//!   histogram + scatter, hash-table build/probe joins, hash aggregation,
//!   quicksort), adapted from the multi-core radix join literature the
//!   paper builds on, and
//! * the **NMP-friendly, sort-based** family (SIMD bitonic first pass +
//!   mergesort, sort-merge join, sorted aggregation) that trades extra
//!   passes over the data for purely sequential access (§4.1).
//!
//! Every algorithm exists in two coupled forms:
//!
//! 1. a **functional** implementation over real [`Tuple`] data that
//!    produces verifiable results (tested against naive references), and
//! 2. an **instrumented kernel** ([`mondrian_cores::Kernel`]) that lazily
//!    replays the algorithm's micro-op stream — instruction counts, SIMD
//!    usage, memory addresses and the dependence structure — for the timing
//!    model. Kernels derive their decisions from the same data, so the
//!    simulated access pattern is the real access pattern.
//!
//! The operators themselves are organized as an **open IR** ([`operator`]):
//! each one is a trait object bundling its descriptor (the Table 2 phase
//! plan and dataset-shaping facts) with its naive reference executor —
//! the one statement of what it computes, which every engine run and
//! pipeline stage is verified against. Beyond the
//! paper's four, the IR carries the multi-input and 1→N stage kinds that
//! complete Table 1 — `Union` (concatenating scan), `Cogroup`
//! (multi-input grouped join) and `FlatMap` (1→N expanding scan,
//! [`flat_map`]).
//!
//! The crate also encodes Table 1 (the Spark-operator → basic-operator
//! mapping, [`spark`]) and Table 2 (per-operator phase structure,
//! [`phases`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod flat_map;
pub mod groupby;
pub mod hash;
pub mod join;
pub mod operator;
pub mod partition;
pub mod phases;
pub mod reference;
pub mod scan;
pub mod sort;
pub mod spark;

mod opqueue;

pub use agg::Aggregates;
pub use hash::{mix64, PartitionScheme};
pub use operator::{operator, CostHints, OpInvocation, OpOutput, OpProfile, OpSpec, Operator};
pub use opqueue::ChainKernel;
pub use phases::{OperatorKind, PhaseInfo};
pub use scan::ScanPredicate;

use mondrian_workloads::Tuple;

/// Snapshot of tuple data shared between the functional layer and kernels.
///
/// A reference-counted slice: builders, stages and kernels pass relations
/// around by bumping a refcount instead of deep-cloning tuple vectors —
/// the pipeline's allocation diet depends on it.
pub type Data = std::sync::Arc<[Tuple]>;
