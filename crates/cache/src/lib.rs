//! # mondrian-cache
//!
//! Cache-hierarchy models for the Mondrian Data Engine reproduction.
//!
//! The CPU-centric baseline (Table 3) relies on a classic hierarchy — 32 KB
//! 2-way L1d caches per core, a shared 4 MB 16-way NUCA LLC, 32 MSHRs and a
//! next-3-line prefetcher — which is exactly the machinery the paper argues
//! is mismatched with large-scale analytics (§3). The NMP baseline keeps the
//! same L1s near each vault. This crate provides:
//!
//! * [`Cache`] — a set-associative, write-back/write-allocate cache with
//!   true-LRU replacement and **pending-fill** (MSHR) states so that a line
//!   is usable only after its memory fill actually completes; secondary
//!   misses merge onto the outstanding fill,
//! * [`NextLinePrefetcher`] — the paper's next-line prefetcher (up to three
//!   lines ahead), and
//! * [`CacheStats`] — hit/miss/writeback accounting for the energy model.
//!
//! Timing is owned by the engine crate: `Cache` decides *what* happens
//! (hit, merged miss, fill, eviction), the engine decides *when*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod prefetch;

pub use cache::{Cache, CacheConfig, CacheStats, FillOutcome, Lookup};
pub use prefetch::NextLinePrefetcher;
