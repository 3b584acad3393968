//! System configurations: the six evaluated machines (§6, Table 3).

use std::sync::Arc;

use crate::fault::FaultHandle;
use mondrian_cache::CacheConfig;
use mondrian_cores::CoreConfig;
use mondrian_mem::{AddressMap, PartitionView, VaultConfig};
use mondrian_noc::{MeshConfig, SerDesConfig};
use mondrian_sim::{Time, PS_PER_NS};

/// The evaluated system configurations (§6, "Evaluated configurations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// CPU-centric baseline: 16 OoO cores, cache hierarchy, passive HMCs in
    /// a star (Fig. 5).
    Cpu,
    /// NMP baseline: one Krait400-class OoO core per vault, conventional
    /// partitioning, best probe algorithm (hash-based).
    Nmp,
    /// NMP baseline + permutable partitioning.
    NmpPerm,
    /// NMP baseline running the hash-based (random-access) probe.
    NmpRand,
    /// NMP baseline running the sort-based (sequential) probe.
    NmpSeq,
    /// Mondrian compute units (SIMD + streams) without permutability.
    MondrianNoperm,
    /// The full Mondrian Data Engine.
    Mondrian,
}

impl SystemKind {
    /// All configurations.
    pub const ALL: [SystemKind; 7] = [
        SystemKind::Cpu,
        SystemKind::Nmp,
        SystemKind::NmpPerm,
        SystemKind::NmpRand,
        SystemKind::NmpSeq,
        SystemKind::MondrianNoperm,
        SystemKind::Mondrian,
    ];

    /// Figure label.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::Cpu => "CPU",
            SystemKind::Nmp => "NMP",
            SystemKind::NmpPerm => "NMP-perm",
            SystemKind::NmpRand => "NMP-rand",
            SystemKind::NmpSeq => "NMP-seq",
            SystemKind::MondrianNoperm => "Mondrian-noperm",
            SystemKind::Mondrian => "Mondrian",
        }
    }

    /// Whether compute sits in the vaults (all but the CPU baseline).
    pub fn is_nmp(&self) -> bool {
        !matches!(self, SystemKind::Cpu)
    }

    /// Whether the partitioning phase uses permutable stores.
    pub fn uses_permutability(&self) -> bool {
        matches!(self, SystemKind::NmpPerm | SystemKind::Mondrian)
    }

    /// Whether the cores have SIMD + stream buffers (Mondrian units).
    pub fn is_mondrian(&self) -> bool {
        matches!(self, SystemKind::Mondrian | SystemKind::MondrianNoperm)
    }

    /// Whether the probe phase uses the sort-based (sequential) algorithms.
    pub fn probe_is_sorted(&self) -> bool {
        matches!(self, SystemKind::NmpSeq | SystemKind::Mondrian | SystemKind::MondrianNoperm)
    }

    /// The core model for this system.
    pub fn core_config(&self) -> CoreConfig {
        match self {
            SystemKind::Cpu => CoreConfig::cortex_a57(),
            SystemKind::Nmp | SystemKind::NmpPerm | SystemKind::NmpRand | SystemKind::NmpSeq => {
                CoreConfig::krait400()
            }
            SystemKind::Mondrian | SystemKind::MondrianNoperm => CoreConfig::mondrian_a35(),
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A leased, contiguous vault subset of a machine — the handle under which
/// operators run when the machine is shared between concurrent pipeline
/// branches (machine-level multi-tenancy). The spec names the partition
/// within its parent so time, energy and NoC traffic can be attributed to
/// the physical vaults the lease covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionSpec {
    /// Lease index within the wave (used for stat attribution labels).
    pub index: u32,
    /// Global id of the partition's first vault.
    pub first_vault: u32,
    /// Number of vaults leased (a power of two).
    pub vaults: u32,
    /// Total vaults of the parent machine.
    pub total_vaults: u32,
}

impl PartitionSpec {
    /// The whole machine as a single (trivial) lease.
    pub fn whole(total_vaults: u32) -> Self {
        Self { index: 0, first_vault: 0, vaults: total_vaults, total_vaults }
    }

    /// Splits `total_vaults` into `shares` equal, disjoint, contiguous
    /// leases. Returns `None` when the machine cannot seat that many
    /// tenants (fewer vaults than shares). Shares are rounded down to the
    /// next power of two per lease, so some trailing vaults may stay idle
    /// when `shares` is not a power of two.
    pub fn split(total_vaults: u32, shares: u32) -> Option<Vec<PartitionSpec>> {
        assert!(shares > 0, "cannot split into zero shares");
        let per = (total_vaults / shares.next_power_of_two()).max(1);
        if per * shares > total_vaults {
            return None;
        }
        Some(
            (0..shares)
                .map(|i| PartitionSpec {
                    index: i,
                    first_vault: i * per,
                    vaults: per,
                    total_vaults,
                })
                .collect(),
        )
    }

    /// Whether this lease covers the whole parent machine.
    pub fn is_whole(&self) -> bool {
        self.first_vault == 0 && self.vaults == self.total_vaults
    }

    /// Splits `total_vaults` into one lease per weight, sized roughly
    /// proportionally to the weights (the planner's predicted branch
    /// costs): every lease starts at one vault, then the lease with the
    /// highest remaining weight-per-vault ratio is repeatedly doubled
    /// until no lease fits in the unassigned vaults. Sizes stay powers of
    /// two and leases are laid out largest-first, so every lease satisfies
    /// [`SystemConfig::restrict`]'s alignment rules; the returned vector is
    /// in input order with `index = i`. Deterministic (ratio ties break
    /// toward the lowest index); returns `None` exactly when
    /// [`PartitionSpec::split`] would (machine cannot seat that many
    /// tenants). Equal weights degenerate to the equal split, with any
    /// spare vaults going to the lowest-indexed branches.
    pub fn split_weighted(total_vaults: u32, weights: &[u64]) -> Option<Vec<PartitionSpec>> {
        let shares = u32::try_from(weights.len()).expect("weight count fits u32");
        assert!(shares > 0, "cannot split into zero shares");
        let per = (total_vaults / shares.next_power_of_two()).max(1);
        if per * shares > total_vaults {
            return None;
        }
        // Zero predicted cost (an empty branch) still deserves a vault of
        // progress per doubling round; clamping keeps the greedy loop from
        // starving it at a single vault forever.
        let weights: Vec<u64> = weights.iter().map(|&w| w.max(1)).collect();
        let mut sizes = vec![1u32; weights.len()];
        let mut used = shares;
        // Greedy doubling: grow the lease whose predicted cost per leased
        // vault is largest. Cross-multiplied comparison keeps this exact
        // in integers; doubling lease i consumes sizes[i] spare vaults.
        loop {
            let candidate =
                (0..weights.len()).filter(|&i| sizes[i] <= total_vaults - used).max_by(|&a, &b| {
                    let ra = weights[a] as u128 * sizes[b] as u128;
                    let rb = weights[b] as u128 * sizes[a] as u128;
                    ra.cmp(&rb).then(b.cmp(&a))
                });
            let Some(i) = candidate else { break };
            used += sizes[i];
            sizes[i] *= 2;
        }
        // Largest-first layout: offsets accumulate descending powers of
        // two, so every first_vault is a multiple of its lease size.
        let mut order: Vec<usize> = (0..sizes.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(sizes[i]), i));
        let mut leases = vec![PartitionSpec::whole(total_vaults); sizes.len()];
        let mut at = 0;
        for &i in &order {
            leases[i] = PartitionSpec {
                index: u32::try_from(i).expect("lease index fits u32"),
                first_vault: at,
                vaults: sizes[i],
                total_vaults,
            };
            at += sizes[i];
        }
        Some(leases)
    }
}

/// Full machine + workload-scale configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Which evaluated system.
    pub kind: SystemKind,
    /// HMC devices (4 × 8 GB in the paper).
    pub hmcs: u32,
    /// Vaults per HMC (16 × 512 MB modeled vaults).
    pub vaults_per_hmc: u32,
    /// CPU cores (16, Cloudera's 2 GB/core provisioning rule, §6).
    pub cpu_cores: u32,
    /// Vault memory model.
    pub vault: VaultConfig,
    /// Intra-HMC mesh.
    pub mesh: MeshConfig,
    /// Inter-device links.
    pub serdes: SerDesConfig,
    /// L1 cache of CPU/NMP cores.
    pub l1: CacheConfig,
    /// Shared LLC (CPU system only).
    pub llc: CacheConfig,
    /// L1 hit latency in core cycles (Table 3: 2 cycles).
    pub l1_hit_cycles: u64,
    /// Average LLC hit latency in CPU cycles (NUCA bank + on-chip hops).
    pub llc_hit_cycles: u64,
    /// Tuples per vault of the large relation (S); scaled down from the
    /// paper's 32M/vault, see DESIGN.md §2.4.
    pub tuples_per_vault: usize,
    /// |R| as a fraction denominator: |R| = |S| / r_divisor.
    pub r_divisor: usize,
    /// CPU radix bits for Join/Group-by partitioning (16 in the paper).
    pub cpu_radix_bits: u32,
    /// Fixed cost of the shuffle_begin/shuffle_end MSI barrier per phase
    /// boundary (§5.4's all-to-all notification).
    pub barrier: Time,
    /// RNG seed for dataset generation.
    pub seed: u64,
    /// When `Some`, this configuration describes a leased vault partition
    /// of a larger machine rather than a whole machine (multi-tenancy).
    pub partition: Option<PartitionSpec>,
    /// Cooperative non-tick event budget over this machine's lifetime
    /// (cumulative across phases). The event loop unwinds with a
    /// structured [`crate::fault::Abort`] the moment the count would
    /// exceed the budget.
    pub event_budget: Option<u64>,
    /// Armed fault plan for this run.
    pub fault: Option<Arc<FaultHandle>>,
}

impl SystemConfig {
    /// The paper's topology at a laptop-scale dataset size.
    ///
    /// Vault capacity is shrunk (with proportionally scaled data) so that
    /// whole-system discrete-event simulation stays tractable; all
    /// *relative* quantities the evaluation depends on are preserved.
    pub fn scaled(kind: SystemKind) -> Self {
        let mut vault = VaultConfig::hmc();
        vault.capacity = 16 << 20; // 16 MB modeled vaults
        Self {
            kind,
            hmcs: 4,
            vaults_per_hmc: 16,
            cpu_cores: 16,
            vault,
            mesh: MeshConfig::hmc_4x4(),
            serdes: SerDesConfig::table3(),
            l1: CacheConfig::l1d(),
            llc: CacheConfig::llc(),
            l1_hit_cycles: 2,
            llc_hit_cycles: 20,
            tuples_per_vault: 8192,
            r_divisor: 1,
            cpu_radix_bits: 16,
            barrier: 200 * PS_PER_NS,
            seed: 0x6d6f6e64, // "mond"
            partition: None,
            event_budget: None,
            fault: None,
        }
    }

    /// A minimal configuration for fast tests: 1 HMC, 4 vaults, 2 CPU
    /// cores, tiny relations.
    pub fn tiny(kind: SystemKind) -> Self {
        let mut cfg = Self::scaled(kind);
        cfg.hmcs = 1;
        cfg.vaults_per_hmc = 4;
        cfg.mesh = MeshConfig::square_for(4);
        cfg.cpu_cores = 2;
        cfg.tuples_per_vault = 256;
        cfg.cpu_radix_bits = 8;
        cfg
    }

    /// Total vault count.
    pub fn total_vaults(&self) -> u32 {
        self.hmcs * self.vaults_per_hmc
    }

    /// Number of compute units in this system.
    pub fn compute_units(&self) -> u32 {
        if self.kind.is_nmp() {
            self.total_vaults()
        } else {
            self.cpu_cores
        }
    }

    /// Radix bits used by the partitioning phase on this system: 16 on the
    /// CPU (cache-tuned), log2(vaults) on NMP systems (§6).
    pub fn partition_bits(&self) -> u32 {
        if self.kind.is_nmp() {
            self.total_vaults().trailing_zeros()
        } else {
            self.cpu_radix_bits
        }
    }

    /// The flat physical address map (§5.1). For a leased partition this is
    /// the partition-local (0-based) map; [`SystemConfig::partition_view`]
    /// translates back to the parent machine.
    pub fn address_map(&self) -> AddressMap {
        AddressMap::new(
            self.hmcs,
            self.vaults_per_hmc,
            self.vault.capacity,
            self.vault.row_bytes,
            self.vault.banks,
        )
    }

    /// The memory view translating this (possibly leased) machine's local
    /// vault ids and addresses back into its parent's global space. Whole
    /// machines get the identity view.
    pub fn partition_view(&self) -> PartitionView {
        let p = self.partition.unwrap_or_else(|| PartitionSpec::whole(self.total_vaults()));
        let parent = AddressMap::new(
            p.total_vaults / self.vaults_per_hmc.min(p.total_vaults),
            self.vaults_per_hmc.min(p.total_vaults),
            self.vault.capacity,
            self.vault.row_bytes,
            self.vault.banks,
        );
        parent.view(p.first_vault, p.vaults).1
    }

    /// Restricts this (whole-machine) configuration to the leased vault
    /// subset `spec`: the sub-machine keeps the per-vault hardware but owns
    /// only `spec.vaults` vaults, a proportional share of the compute (at
    /// least one CPU core on the CPU system), and partition-scoped radix
    /// bits. Mesh and SerDes configurations are inherited; the mesh is
    /// modeled per partition (dedicated bandwidth share), while SerDes
    /// traffic is still charged globally when leases are merged.
    ///
    /// # Panics
    ///
    /// Panics if the spec is misaligned (not a power-of-two, aligned,
    /// in-range subset of this machine) or if this configuration is itself
    /// already a partition.
    pub fn restrict(&self, spec: PartitionSpec) -> SystemConfig {
        assert!(self.partition.is_none(), "cannot sub-lease a leased partition");
        assert_eq!(spec.total_vaults, self.total_vaults(), "lease of a different machine");
        assert!(spec.vaults > 0 && spec.vaults.is_power_of_two(), "lease must be a power of two");
        assert!(
            spec.first_vault.is_multiple_of(spec.vaults)
                && spec.first_vault + spec.vaults <= self.total_vaults(),
            "lease [{}, {}) misaligned for {} vaults",
            spec.first_vault,
            spec.first_vault + spec.vaults,
            self.total_vaults()
        );
        let mut cfg = self.clone();
        if spec.vaults >= self.vaults_per_hmc {
            cfg.hmcs = spec.vaults / self.vaults_per_hmc;
        } else {
            cfg.hmcs = 1;
            cfg.vaults_per_hmc = spec.vaults;
        }
        cfg.cpu_cores =
            (self.cpu_cores * spec.vaults / self.total_vaults()).max(1).min(spec.vaults);
        cfg.partition = Some(spec);
        cfg.validate();
        cfg
    }

    /// Validates consistency.
    ///
    /// # Panics
    ///
    /// Panics if the topology is inconsistent (mesh too small, vault count
    /// not a power of two, CPU cores not dividing the vault count, ...).
    pub fn validate(&self) {
        assert!(self.total_vaults().is_power_of_two(), "vault count must be a power of two");
        assert!(self.mesh.tiles() >= self.vaults_per_hmc, "mesh must seat every vault");
        assert!(
            self.cpu_cores > 0 && self.total_vaults().is_multiple_of(self.cpu_cores),
            "CPU cores must evenly split the vaults"
        );
        assert!(self.tuples_per_vault >= 16, "need at least one SIMD group per vault");
        assert!(self.r_divisor >= 1);
        self.vault.validate();
    }

    /// Renders the Table 3 style parameter sheet.
    pub fn table3_sheet(&self) -> String {
        let core = self.kind.core_config();
        format!(
            "{kind}: {units} compute units ({ghz:.1} GHz, {width}-wide, {window}-entry window)\n\
             DRAM: {hmcs} HMC × {vph} vaults × {cap} MB, {row} B rows, {banks} banks\n\
             NoC: {mw}×{mh} mesh, {link} B links, {hops} cycles/hop\n\
             SerDes: {gbps:.0} Gb/s per direction\n\
             Workload: {tpv} tuples/vault, partition bits {bits}",
            kind = self.kind,
            units = self.compute_units(),
            ghz = core.clock.ghz(),
            width = core.width,
            window = core.window,
            hmcs = self.hmcs,
            vph = self.vaults_per_hmc,
            cap = self.vault.capacity >> 20,
            row = self.vault.row_bytes,
            banks = self.vault.banks,
            mw = self.mesh.width,
            mh = self.mesh.height,
            link = self.mesh.link_bytes_per_cycle,
            hops = self.mesh.hop_cycles,
            gbps = self.serdes.bytes_per_ns * 8.0,
            tpv = self.tuples_per_vault,
            bits = self.partition_bits(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_matches_paper_topology() {
        let cfg = SystemConfig::scaled(SystemKind::Mondrian);
        cfg.validate();
        assert_eq!(cfg.total_vaults(), 64);
        assert_eq!(cfg.compute_units(), 64);
        assert_eq!(cfg.partition_bits(), 6, "6 bits = 64 vaults (§6)");
        let cpu = SystemConfig::scaled(SystemKind::Cpu);
        assert_eq!(cpu.compute_units(), 16);
        assert_eq!(cpu.partition_bits(), 16, "16 low-order bits on the CPU (§6)");
    }

    #[test]
    fn core_configs_match_table3() {
        assert_eq!(SystemKind::Cpu.core_config().window, 128);
        assert_eq!(SystemKind::Nmp.core_config().window, 48);
        assert!(SystemKind::Mondrian.core_config().simd);
        assert!(!SystemKind::NmpSeq.core_config().simd);
    }

    #[test]
    fn config_flags() {
        assert!(SystemKind::NmpPerm.uses_permutability());
        assert!(SystemKind::Mondrian.uses_permutability());
        assert!(!SystemKind::MondrianNoperm.uses_permutability());
        assert!(SystemKind::NmpSeq.probe_is_sorted());
        assert!(!SystemKind::NmpRand.probe_is_sorted());
        assert!(SystemKind::Mondrian.probe_is_sorted());
        assert!(!SystemKind::Cpu.is_nmp());
    }

    #[test]
    fn tiny_is_valid() {
        for kind in SystemKind::ALL {
            SystemConfig::tiny(kind).validate();
        }
    }

    #[test]
    fn restrict_scales_topology_and_compute() {
        let cfg = SystemConfig::scaled(SystemKind::Mondrian);
        let leases = PartitionSpec::split(cfg.total_vaults(), 2).unwrap();
        let half = cfg.restrict(leases[1]);
        assert_eq!(half.total_vaults(), 32);
        assert_eq!(half.hmcs, 2);
        assert_eq!(half.compute_units(), 32, "NMP keeps one unit per leased vault");
        assert_eq!(half.partition_bits(), 5, "radix bits follow the leased vault count");
        let view = half.partition_view();
        assert_eq!(view.first_vault(), 32);
        assert_eq!(view.global_vault(0), 32);
        assert_eq!(view.parent_vaults(), 64);

        // CPU system: proportional cores, never zero.
        let cpu = SystemConfig::tiny(SystemKind::Cpu);
        let leases = PartitionSpec::split(cpu.total_vaults(), 2).unwrap();
        let half = cpu.restrict(leases[0]);
        assert_eq!(half.total_vaults(), 2);
        assert_eq!(half.cpu_cores, 1);
        assert_eq!(half.vaults_per_hmc, 2, "sub-device lease collapses onto one HMC");
    }

    #[test]
    fn split_covers_disjoint_contiguous_leases() {
        let leases = PartitionSpec::split(64, 2).unwrap();
        assert_eq!(leases.len(), 2);
        assert_eq!((leases[0].first_vault, leases[0].vaults), (0, 32));
        assert_eq!((leases[1].first_vault, leases[1].vaults), (32, 32));
        // Three tenants on 64 vaults: 16 each, 16 idle.
        let leases = PartitionSpec::split(64, 3).unwrap();
        assert_eq!(leases.iter().map(|l| l.vaults).sum::<u32>(), 48);
        // Too many tenants for the machine.
        assert!(PartitionSpec::split(2, 3).is_none());
        assert!(PartitionSpec::whole(64).is_whole());
        assert!(!leases[1].is_whole());
    }

    #[test]
    fn split_weighted_favors_heavy_branches_and_stays_aligned() {
        // Three tenants on 64 vaults: the equal split would leave 16
        // vaults idle; the weighted split hands the heavy branch a double
        // share and fills the machine.
        let three = PartitionSpec::split_weighted(64, &[1, 1, 10]).unwrap();
        assert_eq!(three[2].vaults, 32, "heavy branch gets the double share");
        assert_eq!(three.iter().map(|l| l.vaults).sum::<u32>(), 64, "spare vaults are used");
        let cfg = SystemConfig::scaled(SystemKind::Mondrian);
        for lease in &three {
            assert_eq!(cfg.restrict(*lease).total_vaults(), lease.vaults); // validates alignment
        }
        // Leases are disjoint.
        let mut spans: Vec<_> =
            three.iter().map(|l| (l.first_vault, l.first_vault + l.vaults)).collect();
        spans.sort_unstable();
        assert!(spans.windows(2).all(|w| w[0].1 <= w[1].0));

        // Equal weights degenerate to the equal split.
        let eq = PartitionSpec::split_weighted(64, &[5, 5]).unwrap();
        assert_eq!((eq[0].vaults, eq[1].vaults), (32, 32));

        // Same None condition as the equal split.
        assert!(PartitionSpec::split_weighted(2, &[1, 1, 1]).is_none());
        // All-zero weights behave like equal weights.
        let zero = PartitionSpec::split_weighted(8, &[0, 0]).unwrap();
        assert_eq!((zero[0].vaults, zero[1].vaults), (4, 4));
    }

    #[test]
    #[should_panic(expected = "cannot sub-lease")]
    fn restrict_rejects_nested_leases() {
        let cfg = SystemConfig::tiny(SystemKind::Mondrian);
        let leases = PartitionSpec::split(cfg.total_vaults(), 2).unwrap();
        cfg.restrict(leases[0]).restrict(PartitionSpec::whole(2));
    }

    #[test]
    fn table3_sheet_mentions_key_parameters() {
        let sheet = SystemConfig::scaled(SystemKind::Mondrian).table3_sheet();
        assert!(sheet.contains("64 compute units"));
        assert!(sheet.contains("256 B rows"));
        assert!(sheet.contains("160 Gb/s"));
    }
}
