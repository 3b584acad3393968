//! # mondrian-core — the Mondrian Data Engine
//!
//! The paper's primary contribution, assembled from the substrate crates:
//! a near-memory-processing data-analytics engine co-designed with its
//! hardware —
//!
//! * [`config`] — the six evaluated system configurations (Table 3),
//! * [`layout`] — the flat physical address space carved into per-vault
//!   regions,
//! * [`system`] — the machine model: cores, caches, meshes, SerDes links
//!   and vault controllers in one deterministic, single-threaded event
//!   loop, including the permutability handshake
//!   (`shuffle_begin`/`shuffle_end`, §5.3–§5.4),
//! * [`experiment`] — the end-to-end driver running Scan/Sort/Group-by/Join
//!   on any system and verifying results against reference implementations,
//! * [`fault`] — structured aborts (cooperative limits) and deterministic
//!   fault injection.
//!
//! # Quickstart
//!
//! ```
//! use mondrian_core::{ExperimentBuilder, OperatorKind, SystemKind};
//!
//! let report = ExperimentBuilder::new(OperatorKind::Scan)
//!     .system(SystemKind::Mondrian)
//!     .tiny()
//!     .tuples_per_vault(256)
//!     .run();
//! assert!(report.verified);
//! assert!(report.runtime_ps > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod experiment;
pub mod fault;
pub mod layout;
pub mod system;

/// Identity of the engine model: the FNV-1a of the golden digest tables
/// in `tests/engine_golden.rs`, which a test holds it to. A change to the
/// simulated output regenerates those tables and so must update this
/// constant too; the persistent store folds it into its directory name,
/// so every store filled by the old model stops being read.
pub const MODEL_FINGERPRINT: u64 = 0x5e7f_de7d_735a_e66c;

pub use config::{PartitionSpec, SystemConfig, SystemKind};
pub use experiment::{ExperimentBuilder, KeyDist, Report, StageOutput, StreamInfo};
pub use fault::{Abort, AbortReason, FaultHandle, FaultPlan};
pub use layout::{Layout, Region};
pub use mondrian_ops::OperatorKind;
pub use system::{Machine, PhaseOutcome};
