//! # mondrian-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation (§7). Each `benches/*.rs` target is a standalone
//! binary (`harness = false`) that runs the relevant experiments on the
//! simulated systems and prints the same rows/series the paper reports:
//!
//! * `table5_partition` — partition-phase speedups vs CPU (Table 5),
//! * `fig6_probe` — probe-phase speedups per operator (Fig. 6),
//! * `fig7_overall` — end-to-end speedups (Fig. 7),
//! * `fig8_energy` — energy breakdowns (Fig. 8),
//! * `fig9_efficiency` — performance/energy vs CPU (Fig. 9),
//! * `tables_1_2` — the static operator-characterization tables,
//! * `ablations` — row-buffer size, SIMD width, stream-buffer, window and
//!   object-size sweeps backing the design discussion, and
//! * `micro` — Criterion micro-benchmarks of the substrate models.
//!
//! Scale knobs come from the environment so `cargo bench` stays fast by
//! default: `MONDRIAN_BENCH_TPV` (tuples per vault, default 1024) and
//! `MONDRIAN_BENCH_SEED`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mondrian_core::{ExperimentBuilder, OperatorKind, Report, SystemKind};

/// Tuples per vault for bench runs (`MONDRIAN_BENCH_TPV`, default 1024).
pub fn bench_tpv() -> usize {
    std::env::var("MONDRIAN_BENCH_TPV").ok().and_then(|v| v.parse().ok()).unwrap_or(1024)
}

/// Dataset seed for bench runs (`MONDRIAN_BENCH_SEED`, default paper seed).
pub fn bench_seed() -> u64 {
    std::env::var("MONDRIAN_BENCH_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0x6d6f6e64)
}

/// Runs one experiment at bench scale, asserting functional correctness.
pub fn run(op: OperatorKind, system: SystemKind) -> Report {
    let report = ExperimentBuilder::new(op)
        .system(system)
        .tuples_per_vault(bench_tpv())
        .seed(bench_seed())
        .run();
    assert!(report.verified, "{op} on {system} failed verification");
    report
}

/// Formats a speedup ("49.2x") or "1.0x" baseline cell.
pub fn speedup(base: u64, this: u64) -> String {
    format!("{:.1}x", base as f64 / this.max(1) as f64)
}

/// Prints the standard bench header.
pub fn header(title: &str, paper_ref: &str) {
    println!("\n=== {title} ===");
    println!(
        "(reproduces {paper_ref}; tuples/vault = {}, seed = {:#x})",
        bench_tpv(),
        bench_seed()
    );
    println!("note: magnitudes are shape-comparable, not absolute — see EXPERIMENTS.md\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        assert!(bench_tpv() >= 16);
        assert_eq!(speedup(100, 10), "10.0x");
        assert_eq!(speedup(100, 0), "100.0x");
    }
}
