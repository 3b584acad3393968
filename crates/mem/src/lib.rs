//! # mondrian-mem
//!
//! HMC-style stacked-DRAM timing and event model for the Mondrian Data
//! Engine reproduction — the substrate the paper gets from DRAMSim2 plus its
//! custom HMC extensions.
//!
//! The crate models the memory side of one vault (the HMC's unit of
//! partitioning: a vertical stack of DRAM partitions plus a dedicated
//! controller on the logic die):
//!
//! * [`VaultConfig`]/[`DramTiming`] — geometry and Table 3 timing, with
//!   [`DevicePreset`]s for the HBM / Wide I/O 2 row-buffer ablation,
//! * [`AddressMap`] — the flat physical address space of §5.1, with
//!   vault-contiguous partitions and bank-interleaved rows,
//! * [`VaultController`] — FR-FCFS command scheduling, row-buffer state,
//!   bandwidth-capped data path, activation accounting (the quantity that
//!   dominates DRAM dynamic energy, §3.1), and
//! * the **permutable region** machinery of §5.3: [`PermutableRegion`],
//!   arrival logging, and the [`PermutableOverflow`] exception path.
//!
//! Higher layers (caches, cores, networks) talk to vaults through
//! [`DramRequest`]/[`DramCompletion`] pairs; the engine crate owns the event
//! loop and polls [`VaultController::next_event_time`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod config;
mod vault;

pub use addr::{bank_of, AddressMap, GlobalVaultId, Location, PartitionView};
pub use config::{DevicePreset, DramTiming, VaultConfig};
pub use vault::{
    drain, AccessKind, DramCompletion, DramRequest, PermutableOverflow, PermutableRegion,
    VaultController, VaultStats, QUEUE_DEPTH_BUCKETS,
};
