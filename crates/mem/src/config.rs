//! DRAM device geometry and timing configuration.
//!
//! Defaults follow Table 3 of the paper: HMC-style stacked DRAM with 256 B
//! row buffers, tCK = 1.6 ns, tRAS = 22.4 ns, tRCD = 11.2 ns, tCAS = 11.2 ns,
//! tWR = 14.4 ns, tRP = 11.2 ns, and an effective peak bandwidth of 8 GB/s
//! per vault. Presets for HBM (2 KB rows) and Wide I/O 2 (4 KB rows) support
//! the row-buffer-size ablation from §3.1.

use mondrian_sim::{Time, PS_PER_NS};

/// DRAM command timing parameters, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// DRAM command clock period.
    pub t_ck: Time,
    /// Minimum time a row must stay open after activation (ACT → PRE).
    pub t_ras: Time,
    /// Activate to column command delay (ACT → RD/WR).
    pub t_rcd: Time,
    /// Column access strobe latency (RD → first data).
    pub t_cas: Time,
    /// Write recovery time (end of write data → PRE).
    pub t_wr: Time,
    /// Precharge latency (PRE → ACT).
    pub t_rp: Time,
}

impl DramTiming {
    /// Timing from Table 3 of the paper (shared by all evaluated systems).
    pub fn table3() -> Self {
        Self {
            t_ck: (1.6 * PS_PER_NS as f64) as Time,
            t_ras: (22.4 * PS_PER_NS as f64) as Time,
            t_rcd: (11.2 * PS_PER_NS as f64) as Time,
            t_cas: (11.2 * PS_PER_NS as f64) as Time,
            t_wr: (14.4 * PS_PER_NS as f64) as Time,
            t_rp: (11.2 * PS_PER_NS as f64) as Time,
        }
    }
}

impl Default for DramTiming {
    fn default() -> Self {
        Self::table3()
    }
}

/// Stacked-DRAM device family, used by the row-buffer ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DevicePreset {
    /// Micron Hybrid Memory Cube: 256 B rows, the paper's default.
    Hmc,
    /// High Bandwidth Memory: 2 KB rows.
    Hbm,
    /// JEDEC Wide I/O 2: 4 KB rows.
    WideIo2,
    /// Conventional planar DDR3: 8 KB effective row (8 × 1 KB devices).
    Ddr3,
}

impl DevicePreset {
    /// Row-buffer size in bytes for this device family.
    pub fn row_bytes(self) -> u32 {
        match self {
            DevicePreset::Hmc => 256,
            DevicePreset::Hbm => 2048,
            DevicePreset::WideIo2 => 4096,
            DevicePreset::Ddr3 => 8192,
        }
    }
}

/// Full configuration of one memory vault (partition).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VaultConfig {
    /// Command timing.
    pub timing: DramTiming,
    /// Row-buffer size in bytes (256 for HMC).
    pub row_bytes: u32,
    /// Number of banks a vault can keep open concurrently.
    pub banks: u32,
    /// Vault capacity in bytes (power of two).
    pub capacity: u64,
    /// Peak effective data bandwidth of the vault in bytes per nanosecond
    /// (8.0 for the paper's 8 GB/s HMC vault).
    pub peak_bytes_per_ns: f64,
    /// Fixed controller pipeline overhead applied to every request.
    pub ctrl_overhead: Time,
    /// FR-FCFS scheduling window: how many queued requests the controller
    /// may inspect when choosing the next command. The paper (§4.1.2) notes
    /// this window is far too short to recover row locality during shuffles.
    pub sched_window: usize,
    /// Maximum request payload in bytes (HMC protocol allows 8–256 B).
    pub max_access_bytes: u32,
}

impl VaultConfig {
    /// The paper's HMC vault: 256 B rows, 8 banks, 8 GB/s, 16-entry window.
    pub fn hmc() -> Self {
        Self {
            timing: DramTiming::table3(),
            row_bytes: DevicePreset::Hmc.row_bytes(),
            banks: 8,
            capacity: 512 << 20,
            peak_bytes_per_ns: 8.0,
            ctrl_overhead: (1.6 * PS_PER_NS as f64) as Time,
            sched_window: 16,
            max_access_bytes: 256,
        }
    }

    /// A preset variant with a different row-buffer size (ablation §3.1).
    pub fn with_preset(preset: DevicePreset) -> Self {
        Self { row_bytes: preset.row_bytes(), ..Self::hmc() }
    }

    /// Transfer time for `bytes` of payload on the vault data path.
    pub fn transfer_time(&self, bytes: u32) -> Time {
        let ps_per_byte = PS_PER_NS as f64 / self.peak_bytes_per_ns;
        (bytes as f64 * ps_per_byte).round() as Time
    }

    /// Number of rows in the vault.
    pub fn rows(&self) -> u64 {
        self.capacity / self.row_bytes as u64
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (zero banks, capacity not
    /// a multiple of the row size, etc.). Called by the vault constructor.
    pub fn validate(&self) {
        assert!(self.banks > 0, "vault must have at least one bank");
        // The scheduler indexes banks with candidates in a `u64` mask.
        assert!(self.banks <= 64, "a vault has at most 64 banks");
        assert!(self.row_bytes > 0, "row size must be non-zero");
        assert!(
            self.capacity.is_multiple_of(self.row_bytes as u64),
            "capacity must be a whole number of rows"
        );
        assert!(self.peak_bytes_per_ns > 0.0, "bandwidth must be positive");
        assert!(self.sched_window >= 1, "scheduling window must be >= 1");
        assert!(self.max_access_bytes >= 8, "HMC minimum access is 8 B");
    }
}

impl Default for VaultConfig {
    fn default() -> Self {
        Self::hmc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_values() {
        let t = DramTiming::table3();
        assert_eq!(t.t_ck, 1_600);
        assert_eq!(t.t_ras, 22_400);
        assert_eq!(t.t_rcd, 11_200);
        assert_eq!(t.t_cas, 11_200);
        assert_eq!(t.t_wr, 14_400);
        assert_eq!(t.t_rp, 11_200);
    }

    #[test]
    fn row_sizes_match_paper() {
        assert_eq!(DevicePreset::Hmc.row_bytes(), 256);
        assert_eq!(DevicePreset::Hbm.row_bytes(), 2048);
        assert_eq!(DevicePreset::WideIo2.row_bytes(), 4096);
        // DDR3: 8 × 1 KB (§3.1: "8×1KB").
        assert_eq!(DevicePreset::Ddr3.row_bytes(), 8192);
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        let cfg = VaultConfig::hmc();
        // 8 GB/s = 8 B/ns → 16 B tuple = 2 ns.
        assert_eq!(cfg.transfer_time(16), 2_000);
        assert_eq!(cfg.transfer_time(64), 8_000);
        assert_eq!(cfg.transfer_time(256), 32_000);
    }

    #[test]
    fn hmc_config_is_valid() {
        VaultConfig::hmc().validate();
        VaultConfig::with_preset(DevicePreset::Hbm).validate();
    }

    #[test]
    fn rows_count() {
        let mut cfg = VaultConfig::hmc();
        cfg.capacity = 1 << 20;
        assert_eq!(cfg.rows(), (1 << 20) / 256);
    }
}
