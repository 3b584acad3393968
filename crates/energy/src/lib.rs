//! # mondrian-energy
//!
//! The paper's custom energy-modeling framework (§6, Table 4), rebuilt: a
//! set of per-component power/energy constants applied to event counts
//! collected by the timing simulation.
//!
//! | Component | Power / Energy |
//! |-----------|----------------|
//! | CPU core (A57)          | 2.1 W |
//! | NMP baseline core       | 312 mW |
//! | Mondrian core           | 180 mW |
//! | LLC                     | 0.09 nJ/access, 110 mW leakage |
//! | NoC                     | 0.04 pJ/bit/mm, 30 mW leakage |
//! | HMC (per 8 GB cube)     | 980 mW background, 0.65 nJ/activation, 2 pJ/bit access |
//! | SerDes                  | idle 1 pJ/bit, busy 3 pJ/bit |
//!
//! The headline observation the model must reproduce (Fig. 8): row
//! activations dominate DRAM dynamic energy under random access — §3.1's
//! CACTI-3DD analysis puts the activation share at 14% when a whole 256 B
//! row is consumed but 80% when only 8 B of it is used — so converting
//! random accesses to sequential streams is an *energy* optimization first.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod params;

pub use model::{CoreActivity, CoreClass, EnergyBreakdown, SystemActivity};
pub use params::EnergyParams;

/// Computes the energy breakdown of one simulated run.
///
/// # Example
///
/// ```
/// use mondrian_energy::*;
/// let params = EnergyParams::table4();
/// let activity = SystemActivity {
///     runtime_ps: 1_000_000, // 1 µs
///     cores: vec![CoreActivity { class: CoreClass::Mondrian, busy_fraction: 1.0 }; 4],
///     row_activations: 1000,
///     dram_bits_accessed: 8 * 1024 * 1024,
///     hmc_cubes: 4,
///     serdes_directions: 24,
///     serdes_busy_bits: 1_000_000,
///     noc_bit_mm: 1e9,
///     noc_meshes: 4,
///     llc_accesses: 0,
///     has_llc: false,
/// };
/// let e = compute_energy(&params, &activity);
/// assert!(e.total_j() > 0.0);
/// assert!(e.dram_static_j > 0.0);
/// ```
pub fn compute_energy(params: &EnergyParams, activity: &SystemActivity) -> EnergyBreakdown {
    model::compute(params, activity)
}
