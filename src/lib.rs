//! # Mondrian Data Engine
//!
//! Umbrella crate for the reproduction of *“The Mondrian Data Engine”*
//! (Drumond et al., ISCA 2017): an algorithm–hardware co-designed
//! near-memory-processing (NMP) architecture for in-memory data analytics.
//!
//! This crate re-exports the workspace members so that examples and
//! integration tests can use one coherent namespace:
//!
//! * [`engine`] — the Mondrian Data Engine itself: system configurations,
//!   the programming model (`malloc_permutable`, `shuffle_begin`/`shuffle_end`,
//!   stream buffers) and the experiment runner,
//! * [`ops`] — the four basic data operators (Scan, Sort, Group-by, Join) in
//!   both their CPU-optimized hash-based and NMP-friendly sort-based variants,
//! * [`pipeline`] — multi-stage analytic queries: Spark transformation
//!   chains lowered onto the basic operators and executed stage by stage
//!   on any simulated system,
//! * [`workloads`] — tuple dataset generators,
//! * [`energy`] — the component-level energy model,
//! * plus the hardware substrates: [`sim`], [`mem`], [`noc`], [`cache`],
//!   [`cores`].
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`; in short:
//!
//! ```
//! use mondrian::engine::{ExperimentBuilder, OperatorKind, SystemKind};
//!
//! let report = ExperimentBuilder::new(OperatorKind::Join)
//!     .tuples_per_vault(512)
//!     .system(SystemKind::Mondrian)
//!     .run();
//! assert!(report.runtime_ps > 0);
//! ```

#![forbid(unsafe_code)]

pub use mondrian_cache as cache;
pub use mondrian_core as engine;
pub use mondrian_cores as cores;
pub use mondrian_energy as energy;
pub use mondrian_mem as mem;
pub use mondrian_noc as noc;
pub use mondrian_ops as ops;
pub use mondrian_pipeline as pipeline;
pub use mondrian_sim as sim;
pub use mondrian_workloads as workloads;
