//! # mondrian-noc
//!
//! Interconnect models for the Mondrian Data Engine reproduction.
//!
//! Two fabrics from Table 3:
//!
//! * [`Mesh`] — the 2D mesh on each HMC's logic die connecting the 16 vault
//!   tiles (16-byte links, 3 cycles/hop at 1 GHz, XY dimension-order
//!   routing). Link contention is modeled by per-directional-link channel
//!   reservations; energy accounting records bit·mm as required by the
//!   paper's 0.04 pJ/bit/mm NoC energy model.
//! * [`SerDesLink`] — an inter-device serial link (10 GHz lanes, 160 Gb/s =
//!   20 B/ns per direction, packet-based protocol with header overhead).
//!   The NMP systems connect their four HMCs fully; the CPU-centric system
//!   hangs the HMCs off the CPU in a star (Fig. 5) — topology is assembled
//!   by the engine crate from these links.
//!
//! Both models are *reservation-based*: `send` computes the delivery time of
//! a message immediately, accounting for queuing behind earlier reservations
//! on every channel along the path. This is the standard contention-aware
//! analytic alternative to flit-level simulation and preserves the paper's
//! bottlenecks (e.g. the SerDes links capping Mondrian's partitioning
//! throughput, §7.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mesh;
mod serdes;

pub use mesh::{Mesh, MeshConfig, MeshStats, TileId};
pub use serdes::{SerDesConfig, SerDesLink, SerDesStats};
