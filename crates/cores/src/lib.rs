//! # mondrian-cores
//!
//! Core timing models for the Mondrian Data Engine reproduction.
//!
//! The paper compares three compute units (Table 3):
//!
//! * **CPU baseline** — ARM Cortex-A57-like: 2 GHz, out-of-order, 3-wide,
//!   128-entry ROB,
//! * **NMP baseline** — Qualcomm Krait400-like: 1 GHz, out-of-order, 3-wide,
//!   48-entry ROB (the best OoO core that fits the per-vault power budget),
//! * **Mondrian** — ARM Cortex-A35-like: 1 GHz, dual-issue in-order, with a
//!   1024-bit fixed-point SIMD unit, eight 384 B programmable **stream
//!   buffers** issuing binding prefetches, and a 256 B **object buffer**
//!   that coalesces permutable stores into object-sized network messages.
//!
//! All three are instances of [`Core`], an execution-driven window model:
//! a [`Kernel`] (implemented over the real tuple data by `mondrian-ops`)
//! yields [`MicroOp`]s; the core dispatches up to `width` ops per cycle into
//! a reorder window, loads occupy the window until the memory system
//! answers, and ops marked dependent on the previous load cannot complete —
//! or, for loads, even issue — before that load's data returns. Memory-level
//! parallelism therefore emerges exactly as in §3.2's arithmetic: roughly
//! window size ÷ ops-per-iteration, bounded by dependence chains.
//!
//! The in-order Mondrian core is modeled as the same window machine with a
//! small (16-entry) scoreboard window — accurate for its intended operating
//! point, where nearly every load is a 1-cycle stream-buffer hit and wide
//! SIMD does the heavy lifting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core_model;
mod micro;
mod object;
mod stream;

pub use core_model::{Core, CoreConfig, CoreStats, CoreStatus, MemKind, MemRequest};
pub use micro::{Dep, Kernel, MicroOp, StoreKind, VecKernel};
pub use object::ObjectBuffer;
pub use stream::{StreamBufferSet, StreamConfig};
