//! # mondrian-workloads
//!
//! Dataset generators for the Mondrian Data Engine reproduction.
//!
//! The paper evaluates all operators on collections of **16-byte tuples**
//! — an 8-byte integer key plus an 8-byte integer payload — "representing
//! an in-memory columnar database" (§6), with uniformly distributed keys.
//! Join inputs follow a foreign-key relationship (every tuple of the outer
//! relation S matches exactly one tuple of the inner relation R); the
//! group-by workload has an average group size of four tuples.
//!
//! Beyond the paper's uniform datasets, [`zipfian_relation`] generates
//! skewed keys for the skew-handling extension the paper defers to future
//! work (§5.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod tuple;
mod zipf;

pub use gen::{foreign_key_pair, grouped_relation, uniform_relation, zipfian_relation};
pub use tuple::{Tuple, TUPLE_BYTES};
pub use zipf::Zipf;
