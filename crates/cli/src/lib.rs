//! # mondrian-cli
//!
//! Library backing the `mondrian` binary: manifest parsing
//! ([`manifest`]), the TOML/JSON document model ([`value`]), campaign
//! execution ([`campaign`]), artifact comparison ([`diff`]), the
//! artifact profiler ([`profile`]) and the JUnit XML renderer
//! ([`junit`]). The binary in `main.rs` is a thin argument
//! layer over these modules so integration tests can exercise
//! everything in-process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod diff;
pub mod junit;
pub mod manifest;
pub mod profile;
pub mod value;
