//! The experiment driver: runs one operator on one evaluated system,
//! end to end — dataset generation, partitioning, probe, verification and
//! energy accounting.
//!
//! Every data operator of §4–§6 (Table 2) has one shape: a partition phase
//! and then a per-partition probe. The drivers share that shape instead of
//! restating it:
//!
//! - *Partition* (`Experiment::partition_inputs`): each materialized
//!   input side runs a histogram phase, then each runs its scatter —
//!   conventional stores, or the permutable shuffle with its §5.4
//!   overflow/retry round — and a streamed primary side follows with one
//!   fused histogram + scatter round per arrival chunk. Side 0 uses the A
//!   regions, side 1 the B regions.
//! - *Probe*: the system's local sort (Sort, and every sorted probe), the
//!   grouping probe (`Experiment::group_probe`, shared by Group-by and
//!   Cogroup), or a merge join / the hash-join chain (`hash_join`) for
//!   Join. Scan, Union and FlatMap are probe-only scans.
//!
//! Per (operator × system) these pick the kernels (hash-based vs
//! sort-based, scalar vs SIMD, conventional vs permutable shuffles), run
//! each phase on the [`Machine`] and commit the functional data
//! transformation between phases. `Experiment::run` then verifies the
//! captured output against the operator's registered reference
//! ([`mondrian_ops::Operator::reference`]) over the relations it ran on.

use std::collections::BTreeMap;
use std::sync::Arc;

use mondrian_cores::{Kernel, StoreKind};
use mondrian_energy::{
    compute_energy, CoreActivity, CoreClass, EnergyBreakdown, EnergyParams, SystemActivity,
};
use mondrian_mem::PermutableRegion;
use mondrian_ops::flat_map::{FlatMapKernel, SimdFlatMapKernel};
use mondrian_ops::groupby::{
    hash_group, sorted_group, HashAggKernel, SimdSortedAggKernel, SortedAggKernel,
    GROUP_ENTRY_BYTES,
};
use mondrian_ops::join::{
    build_index, merge_join, probe_index, HashProbeKernel, MergeJoinKernel, SimdMergeJoinKernel,
};
use mondrian_ops::operator::{operator, OpInvocation, OpSpec};
use mondrian_ops::partition::{
    exclusive_prefix, histogram_into, scatter_addresses, HistogramKernel, PermutableScatterKernel,
    ScatterKernel, SimdHistogramKernel, SimdPermutableScatterKernel, SimdScatterKernel,
};
use mondrian_ops::scan::{scan_filter, ScalarScanKernel, ScanPredicate, SimdScanKernel};
use mondrian_ops::sort::{
    bitonic_runs, merge_pass, BitonicRunKernel, QuicksortKernel, ScalarMergePassKernel,
    SimdMergePassKernel, BITONIC_RUN,
};
use mondrian_ops::{reference, Aggregates, ChainKernel, Data, OperatorKind, PartitionScheme};
use mondrian_sim::{Stats, Time};
use mondrian_workloads::{
    foreign_key_pair, uniform_relation, zipfian_relation, Tuple, TUPLE_BYTES,
};

use crate::config::{SystemConfig, SystemKind};
use crate::layout::{Layout, Region};
use crate::system::{Machine, PhaseOutcome};

/// Key distribution of the generated datasets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniform keys — the paper's evaluation setting (§6).
    Uniform,
    /// Zipfian keys with the given skew — the future-work extension (§5.4).
    Zipf(f64),
}

/// Builder for one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    op: OperatorKind,
    cfg: SystemConfig,
    dist: KeyDist,
    /// Deliberately undersize permutable regions by this factor (failure
    /// injection for the §5.4 overflow/retry path).
    underprovision: Option<f64>,
    /// Injected input relations (replace dataset generation), in order.
    /// Single-input operators read the first; multi-input operators
    /// (union, cogroup) read all of them; for joins the first is the
    /// probe side S. Shared, not cloned: pipeline stages hand the same
    /// `Arc<[Tuple]>` to many builders.
    inputs: Vec<Arc<[Tuple]>>,
    /// Injected build relation R for joins. Without it, an injected join
    /// derives a primary-key dimension from the probe side's keys.
    build: Option<Arc<[Tuple]>>,
    /// Scan predicate override (defaults to the §6 searched-value scan).
    pred: Option<ScanPredicate>,
    /// 1→N output amplification for flat_map (None = `OpSpec::new`'s
    /// FlatMap default).
    fanout: Option<u64>,
    /// Chunked arrival of the primary input (intra-stage pipelining):
    /// the partition phase runs once per chunk instead of once over the
    /// materialized relation.
    stream: Option<Vec<Arc<[Tuple]>>>,
}

impl ExperimentBuilder {
    /// Starts from the scaled paper topology on the Mondrian system.
    pub fn new(op: OperatorKind) -> Self {
        Self {
            op,
            cfg: SystemConfig::scaled(SystemKind::Mondrian),
            dist: KeyDist::Uniform,
            underprovision: None,
            inputs: Vec::new(),
            build: None,
            pred: None,
            fanout: None,
            stream: None,
        }
    }

    /// Selects the evaluated system.
    pub fn system(mut self, kind: SystemKind) -> Self {
        let tpv = self.cfg.tuples_per_vault;
        let seed = self.cfg.seed;
        let hmcs = self.cfg.hmcs;
        let vph = self.cfg.vaults_per_hmc;
        let mut cfg = if hmcs == 1 && vph <= 4 {
            SystemConfig::tiny(kind)
        } else {
            SystemConfig::scaled(kind)
        };
        cfg.tuples_per_vault = tpv;
        cfg.seed = seed;
        self.cfg = cfg;
        self
    }

    /// Uses the minimal test topology (1 HMC × 4 vaults).
    pub fn tiny(mut self) -> Self {
        let kind = self.cfg.kind;
        let tpv = self.cfg.tuples_per_vault.min(512);
        let seed = self.cfg.seed;
        self.cfg = SystemConfig::tiny(kind);
        self.cfg.tuples_per_vault = tpv;
        self.cfg.seed = seed;
        self
    }

    /// Tuples of the (large) relation per vault.
    pub fn tuples_per_vault(mut self, n: usize) -> Self {
        self.cfg.tuples_per_vault = n;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Key distribution.
    pub fn key_distribution(mut self, dist: KeyDist) -> Self {
        self.dist = dist;
        self
    }

    /// Replaces the whole configuration.
    pub fn config(mut self, cfg: SystemConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Runs the operator on a leased vault partition instead of the whole
    /// machine: the experiment builds a sub-machine covering only the
    /// leased vaults (with a proportional compute share), and its report
    /// attributes time, energy and NoC traffic to that partition. Used by
    /// the pipeline scheduler to execute independent DAG branches
    /// concurrently on disjoint vault subsets.
    ///
    /// # Panics
    ///
    /// Panics if the lease is misaligned for the current configuration
    /// (see [`SystemConfig::restrict`]).
    pub fn partition(mut self, spec: crate::config::PartitionSpec) -> Self {
        self.cfg = self.cfg.restrict(spec);
        self
    }

    /// Failure injection: size permutable regions at `factor` × the needed
    /// bytes (< 1.0 forces the overflow exception and the retry round).
    pub fn underprovision_permutable(mut self, factor: f64) -> Self {
        self.underprovision = Some(factor);
        self
    }

    /// Injects the primary input relation instead of generating a dataset:
    /// the relation is range-partitioned across vaults in order, and the
    /// run's [`Report::output`] captures the operator's actual output so
    /// multi-stage pipelines can thread relations between experiments. For
    /// joins, the injected relation is the probe side S. Replaces any
    /// previously injected inputs; use [`ExperimentBuilder::add_input`]
    /// for the further relations of multi-input operators.
    pub fn input(mut self, relation: impl Into<Arc<[Tuple]>>) -> Self {
        self.inputs = vec![relation.into()];
        self
    }

    /// Appends a further input relation — multi-input operators (union,
    /// cogroup) consume every injected relation in order.
    pub fn add_input(mut self, relation: impl Into<Arc<[Tuple]>>) -> Self {
        self.inputs.push(relation.into());
        self
    }

    /// Sets flat_map's 1→N output-amplification factor (outputs per
    /// matching input tuple). Ignored by every other operator.
    pub fn fanout(mut self, fanout: u64) -> Self {
        self.fanout = Some(fanout.max(1));
        self
    }

    /// Streams the primary input into the operator in arrival chunks
    /// instead of materializing it up front (intra-stage pipelining):
    /// the partition phase runs one histogram/scatter round per chunk —
    /// charging mesh and SerDes traffic per round — and the report
    /// records each round's simulated span ([`Report::stream`]) so a
    /// scheduler can overlap the rounds with the producer's output
    /// phase. Replaces any previously injected primary input with the
    /// chunks' concatenation; the functional output is identical to the
    /// materialized run. Only operators whose [`OpProfile`] carries
    /// `streams_input` (the partition-phase family) accept a streamed
    /// input.
    ///
    /// [`OpProfile`]: mondrian_ops::operator::OpProfile
    pub fn streamed_input(mut self, chunks: Vec<Arc<[Tuple]>>) -> Self {
        let total: Vec<Tuple> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
        let total: Arc<[Tuple]> = total.into();
        if self.inputs.is_empty() {
            self.inputs.push(total);
        } else {
            self.inputs[0] = total;
        }
        self.stream = Some(chunks);
        self
    }

    /// Injects the build-side relation R of a join (used together with
    /// [`ExperimentBuilder::input`]). Without it, an injected join builds
    /// against a derived primary-key dimension over the probe keys.
    pub fn join_build(mut self, relation: impl Into<Arc<[Tuple]>>) -> Self {
        self.build = Some(relation.into());
        self
    }

    /// Overrides the Scan operator's predicate. The default remains the
    /// paper's searched-value scan (key equality with the first key).
    pub fn scan_predicate(mut self, pred: ScanPredicate) -> Self {
        self.pred = Some(pred);
        self
    }

    /// Runs the experiment.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or verification fails.
    pub fn run(self) -> Report {
        Experiment::new(self).run()
    }
}

/// The functional output relation of one operator run, captured so that
/// pipeline stages can feed each other. This *is* the operator IR's
/// output type — re-exported under the historical name.
pub use mondrian_ops::operator::OpOutput as StageOutput;

/// Chunked-arrival accounting of a streamed run
/// ([`ExperimentBuilder::streamed_input`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamInfo {
    /// Chunks the primary input arrived in.
    pub chunks: usize,
    /// Simulated span of each chunk's partition round (histogram +
    /// scatter phases, barriers included), in arrival order. A scheduler
    /// overlapping the rounds with a producer's output phase reads the
    /// per-chunk costs from here.
    pub chunk_partition_ps: Vec<Time>,
}

/// Results of one experiment.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operator evaluated.
    pub op: OperatorKind,
    /// System evaluated.
    pub system: SystemKind,
    /// Per-phase outcomes, in execution order.
    pub phases: Vec<PhaseOutcome>,
    /// End-to-end runtime.
    pub runtime_ps: Time,
    /// Instructions retired across all compute units.
    pub instructions: u64,
    /// Energy breakdown (Table 4 model).
    pub energy: EnergyBreakdown,
    /// All hardware statistics.
    pub stats: Stats,
    /// Whether the functional output equals the operator's registered
    /// reference over the run's input relations.
    pub verified: bool,
    /// Number of shuffle retry rounds taken (§5.4 overflow handling).
    pub shuffle_retries: u32,
    /// Human-readable result summary (match counts, group counts, ...).
    pub summary: String,
    /// The operator's functional output relation.
    pub output: StageOutput,
    /// The vault lease the run executed under (the whole machine unless
    /// the builder leased a partition).
    pub partition: crate::config::PartitionSpec,
    /// Machine-wide mesh traffic rollup, attributed to `partition`.
    pub mesh_totals: mondrian_noc::MeshStats,
    /// SerDes traffic rollup; always charged globally when leases merge.
    pub serdes_totals: mondrian_noc::SerDesStats,
    /// Chunked-arrival accounting when the primary input was streamed
    /// (`None` for materialized runs).
    pub stream: Option<StreamInfo>,
}

impl Report {
    /// Total time of partitioning phases.
    pub fn partition_time(&self) -> Time {
        self.phases
            .iter()
            .filter(|p| p.label.starts_with("partition."))
            .map(PhaseOutcome::duration)
            .sum()
    }

    /// Total time of probe phases.
    pub fn probe_time(&self) -> Time {
        self.phases
            .iter()
            .filter(|p| p.label.starts_with("probe."))
            .map(PhaseOutcome::duration)
            .sum()
    }

    /// Aggregate IPC across compute units (instructions / unit-cycles).
    pub fn ipc(&self) -> f64 {
        let core = self.system.core_config();
        let cycles = core.clock.ps_to_cycles_ceil(self.runtime_ps.max(1));
        let units = self.phases.first().map_or(1, |p| p.core_busy.len()) as u64;
        self.instructions as f64 / (cycles * units) as f64
    }

    /// Performance per joule, the paper's efficiency metric (Fig. 9).
    pub fn perf_per_joule(&self) -> f64 {
        1.0 / (self.runtime_ps as f64 * 1e-12 * self.energy.total_j())
    }
}

/// Per-compute-unit kernels for one phase.
type KernelSet = Vec<Option<Box<dyn Kernel>>>;

/// Destination bookkeeping of a streamed shuffle: the consumer
/// provisions its destination regions once for the whole stream, so each
/// chunk's scatter appends after the tuples earlier chunks delivered and
/// the accumulated layout equals the materialized shuffle's.
struct StreamDest {
    /// Global destination start slot of each partition, from the full
    /// stream's totals (CPU bucket space; NMP destinations are per-vault
    /// regions and ignore this).
    starts: Vec<u64>,
    /// Tuples already delivered per partition by earlier chunks.
    appended: Vec<u64>,
}

/// A relation split into per-vault partitions (shared slices, not owned
/// vectors: handing a partition to a kernel is a refcount bump).
type VaultData = Vec<Data>;

/// A partitioned relation: the tuples each destination partition
/// received, in arrival order.
type Parts = Vec<Vec<Tuple>>;

/// The regions of partition side 0 (the A side) and side 1 (the B side):
/// input, partitioned output, and the local sort's pong buffer.
const SIDES: [(Region, Region, Region); 2] =
    [(Region::InputA, Region::OutA, Region::PongA), (Region::InputB, Region::OutB, Region::PongB)];

/// What one operator driver ran: the invocation (spec and whole input
/// relations) and the output it captured. [`Experiment::run`] verifies the
/// output against the registered reference of that same invocation.
struct Ran {
    spec: OpSpec,
    inputs: Vec<Data>,
    /// Join build side R (the derived dimension when none was injected).
    build: Option<Data>,
    output: StageOutput,
    summary: String,
}

struct Experiment {
    op: OperatorKind,
    cfg: SystemConfig,
    dist: KeyDist,
    underprovision: Option<f64>,
    inputs: Vec<Arc<[Tuple]>>,
    build: Option<Arc<[Tuple]>>,
    pred: Option<ScanPredicate>,
    fanout: Option<u64>,
    stream: Option<Vec<Data>>,
    stream_spans: Vec<Time>,
    layout: Layout,
    machine: Machine,
    phases: Vec<PhaseOutcome>,
    shuffle_retries: u32,
}

impl Experiment {
    fn new(mut b: ExperimentBuilder) -> Self {
        if let Some(longest) = b.inputs.iter().map(|r| r.len()).max() {
            // Injected relations dictate the per-vault scale; keep the
            // configured knob consistent so capacity checks see the truth.
            let vaults = b.cfg.total_vaults() as usize;
            b.cfg.tuples_per_vault = longest.div_ceil(vaults).max(16);
        }
        b.cfg.validate();
        assert!(
            b.stream.is_none() || operator(b.op).profile().streams_input,
            "{:?} does not stream its primary input (see OpProfile::streams_input)",
            b.op
        );
        let layout = Layout::new(b.cfg.vault.capacity);
        assert!(
            b.cfg.tuples_per_vault * 2 <= layout.region_tuples(),
            "tuples_per_vault too large for the region layout"
        );
        let machine = Machine::new(b.cfg.clone());
        Self {
            op: b.op,
            cfg: b.cfg,
            dist: b.dist,
            underprovision: b.underprovision,
            inputs: b.inputs,
            build: b.build,
            pred: b.pred,
            fanout: b.fanout,
            stream: b.stream,
            stream_spans: Vec::new(),
            layout,
            machine,
            phases: Vec::new(),
            shuffle_retries: 0,
        }
    }

    /// Splits an injected relation into per-vault partitions, in order,
    /// padding trailing vaults with empty partitions.
    fn chunk_to_vaults(&self, rel: &[Tuple]) -> VaultData {
        let vaults = self.vaults();
        let per = rel.len().div_ceil(vaults).max(1);
        let mut out: VaultData = rel.chunks(per).map(Arc::from).collect();
        out.resize_with(vaults, || Vec::new().into());
        out
    }

    fn vaults(&self) -> usize {
        self.cfg.total_vaults() as usize
    }

    fn units(&self) -> usize {
        self.cfg.compute_units() as usize
    }

    /// Compute unit `u`'s contiguous share of `n` vaults or destination
    /// partitions (NMP: its own vault's; CPU: a slice).
    fn unit_share(&self, u: usize, n: usize) -> std::ops::Range<usize> {
        let per = n / self.units();
        u * per..(u + 1) * per
    }

    /// The vault whose Meta/scratch regions unit `u` uses.
    fn home_vault(&self, u: usize) -> u32 {
        self.unit_share(u, self.vaults()).start as u32
    }

    fn run_phase(&mut self, kernels: KernelSet, label: &str) -> Result<PhaseOutcome, u64> {
        let outcome = self.machine.run_phase(kernels, label)?;
        self.phases.push(outcome.clone());
        self.machine.advance_time(self.cfg.barrier);
        Ok(outcome)
    }

    fn run_phase_ok(&mut self, kernels: KernelSet, label: &str) {
        self.run_phase(kernels, label)
            .unwrap_or_else(|n| panic!("phase {label}: {n} unexpected permutable overflows"));
    }

    /// Generates one relation of `total` tuples under the configured key
    /// distribution.
    fn gen_relation(&self, total: usize, key_bound: u64, seed: u64) -> Vec<Tuple> {
        match self.dist {
            KeyDist::Uniform => uniform_relation(total, key_bound, seed),
            KeyDist::Zipf(theta) => zipfian_relation(total, key_bound, theta, seed),
        }
    }

    /// Key upper bound for generated datasets: grouping operators shrink
    /// the key space per their descriptor (the paper's average group size
    /// of four, §6).
    fn generated_key_bound(&self, total: usize) -> u64 {
        let divisor = operator(self.op).profile().group_key_divisor;
        (total as u64 / divisor).max(1)
    }

    /// The primary input relation (the injected one, else generated).
    fn generate_single(&self) -> Data {
        match self.inputs.first() {
            Some(input) => input.clone(),
            None => {
                let total = self.cfg.tuples_per_vault * self.vaults();
                self.gen_relation(total, self.generated_key_bound(total), self.cfg.seed).into()
            }
        }
    }

    /// The join's build side R and probe side S.
    fn generate_join(&self) -> (Data, Data) {
        if let Some(s) = self.inputs.first() {
            let r = match &self.build {
                Some(r) => r.clone(),
                // Derived dimension: one tuple per distinct probe key, with
                // a seeded deterministic payload.
                None => mondrian_ops::operator::derive_dimension(s, self.cfg.seed).into(),
            };
            return (r, s.clone());
        }
        let s_per_vault = self.cfg.tuples_per_vault;
        let r_per_vault = (s_per_vault / self.cfg.r_divisor).max(1);
        let (r, s) = foreign_key_pair(
            r_per_vault * self.vaults(),
            s_per_vault * self.vaults(),
            self.cfg.seed,
        );
        (r.into(), s.into())
    }

    /// Key upper bound of the whole dataset (for range partitioning).
    fn key_bound(&self) -> u64 {
        if !self.inputs.is_empty() {
            return self
                .inputs
                .iter()
                .flat_map(|rel| rel.iter().map(|t| t.key))
                .max()
                .map_or(1, |k| k.saturating_add(1));
        }
        self.generated_key_bound(self.cfg.tuples_per_vault * self.vaults())
    }

    fn partition_scheme(&self) -> PartitionScheme {
        let bits = self.cfg.partition_bits();
        if operator(self.op).profile().partitions_by_range {
            PartitionScheme::Range { parts: 1 << bits, key_bound: self.key_bound() }
        } else {
            PartitionScheme::LowBits { bits }
        }
    }

    /// Base address of global destination slot `slot` in `region` (CPU
    /// buckets span the region across all vaults).
    fn global_out_addr(&self, region: Region, slot: u64) -> u64 {
        let per = self.layout.region_tuples() as u64;
        self.layout.tuple_addr((slot / per) as u32, region, (slot % per) as usize)
    }

    /// Base address of each destination partition of `parts` in `region`:
    /// on NMP systems partition `p` opens vault `p`'s region; CPU buckets
    /// lie back to back in the global bucket space.
    fn part_bases(&self, region: Region, parts: &Parts) -> Vec<u64> {
        if self.cfg.kind.is_nmp() {
            (0..parts.len()).map(|p| self.layout.region_base(p as u32, region)).collect()
        } else {
            let counts: Vec<u64> = parts.iter().map(|p| p.len() as u64).collect();
            exclusive_prefix(&counts).into_iter().map(|s| self.global_out_addr(region, s)).collect()
        }
    }

    /// One kernel chain per compute unit over the vaults it owns, in
    /// order: `kernel(u, v)` is unit `u`'s kernel for vault `v`.
    fn vault_chains(&self, mut kernel: impl FnMut(usize, usize) -> Box<dyn Kernel>) -> KernelSet {
        (0..self.units())
            .map(|u| chain(self.unit_share(u, self.vaults()).map(|v| kernel(u, v)).collect()))
            .collect()
    }

    // ----- partition phase -----------------------------------------------

    /// Histogram kernels over partition side `side`'s `input`, counting
    /// into the side's meta slot of each unit's Meta region.
    fn histogram_kernels(&self, input: &[Data], side: usize, scheme: PartitionScheme) -> KernelSet {
        let (meta_slot, _) = side_slots(side, scheme);
        let simd = self.cfg.kind.is_mondrian();
        self.vault_chains(|u, v| {
            let counter_base = self.layout.meta_addr(self.home_vault(u), meta_slot);
            let base = self.layout.region_base(v as u32, SIDES[side].0);
            let data = input[v].clone();
            if simd {
                Box::new(SimdHistogramKernel::new(data, base, counter_base, scheme))
            } else {
                Box::new(HistogramKernel::new(data, base, counter_base, scheme))
            }
        })
    }

    /// Conventional scatter of partition side `side`: returns kernels plus
    /// the functional destination contents (per destination partition, in
    /// cursor order). A streamed chunk passes `stream` so its writes
    /// append after the tuples earlier chunks delivered, into regions
    /// provisioned for the whole stream — the accumulated destination
    /// layout then equals the materialized shuffle's, so downstream probe
    /// phases touch the same addresses.
    fn conventional_scatter(
        &self,
        input: &[Data],
        side: usize,
        scheme: PartitionScheme,
        stream: Option<&StreamDest>,
    ) -> (KernelSet, Parts) {
        let (in_region, out_region, _) = SIDES[side];
        let (_, cursor_slot) = side_slots(side, scheme);
        let parts = scheme.parts() as usize;
        // Per-source bucket counts; sources ordered by vault index (units
        // process their vaults in order).
        let per_source: Vec<Vec<u64>> = input
            .iter()
            .map(|d| {
                let mut counts = Vec::with_capacity(parts);
                histogram_into(d, scheme, &mut counts);
                counts
            })
            .collect();
        let mut totals = vec![0u64; parts];
        for counts in &per_source {
            for (t, c) in totals.iter_mut().zip(counts) {
                *t += c;
            }
        }
        // Destination start slots.
        let starts: Vec<u64> = if self.cfg.kind.is_nmp() {
            // One partition per vault, each at the base of its out region.
            (0..parts as u64).map(|p| p * self.layout.region_tuples() as u64).collect()
        } else if let Some(stream) = stream {
            // Global bucket space provisioned from the whole stream's
            // totals, not this chunk's.
            stream.starts.clone()
        } else {
            // Global bucket space across the out regions of all vaults.
            exclusive_prefix(&totals)
        };
        // Walk sources in vault order, advancing per-destination slots
        // (streamed chunks continue where the previous chunk stopped).
        // The cursor array is one reused scratch buffer across all
        // sources, not a fresh allocation per vault.
        let mut next_in_dest: Vec<u64> =
            stream.map_or_else(|| vec![0; parts], |s| s.appended.clone());
        let mut dest_content: Parts =
            totals.iter().map(|&t| Vec::with_capacity(t as usize)).collect();
        let mut source_addrs: Vec<Vec<u64>> = Vec::with_capacity(input.len());
        let mut cursors: Vec<u64> = Vec::with_capacity(parts);
        for (v, data) in input.iter().enumerate() {
            cursors.clear();
            cursors.extend((0..parts).map(|p| {
                if self.cfg.kind.is_nmp() {
                    self.layout.tuple_addr(p as u32, out_region, next_in_dest[p] as usize)
                } else {
                    self.global_out_addr(out_region, starts[p] + next_in_dest[p])
                }
            }));
            let addrs = scatter_addresses(data, scheme, &mut cursors);
            source_addrs.push(addrs);
            for (p, c) in next_in_dest.iter_mut().zip(&per_source[v]) {
                *p += c;
            }
            for t in data.iter() {
                dest_content[scheme.bucket(t.key) as usize].push(*t);
            }
            // dest_content built in source order == cursor order because
            // sources run their tuples sequentially and cursor ranges are
            // disjoint per source.
        }
        let store_kind =
            if self.cfg.kind.is_nmp() { StoreKind::Streaming } else { StoreKind::Cached };
        let simd = self.cfg.kind.is_mondrian();
        let kernels = self.vault_chains(|u, v| {
            let cursor_base = self.layout.meta_addr(self.home_vault(u), cursor_slot);
            let base = self.layout.region_base(v as u32, in_region);
            let (data, addrs) = (input[v].clone(), std::mem::take(&mut source_addrs[v]));
            if simd {
                Box::new(SimdScatterKernel::new(data, base, cursor_base, addrs, scheme))
            } else {
                Box::new(ScatterKernel::new(data, base, cursor_base, addrs, store_kind, scheme))
            }
        });
        (kernels, dest_content)
    }

    /// Permutable scatter kernels (destination = vault = bucket).
    fn permutable_scatter_kernels(
        &self,
        input: &[Data],
        in_region: Region,
        scheme: PartitionScheme,
    ) -> KernelSet {
        assert!(self.cfg.kind.is_nmp());
        let simd = self.cfg.kind.is_mondrian();
        self.vault_chains(|_, v| {
            let base = self.layout.region_base(v as u32, in_region);
            let data = input[v].clone();
            let dsts: Vec<u32> = data.iter().map(|t| scheme.bucket(t.key)).collect();
            if simd {
                Box::new(SimdPermutableScatterKernel::new(data, base, dsts))
            } else {
                Box::new(PermutableScatterKernel::new(data, base, dsts))
            }
        })
    }

    /// Runs a permutable shuffle of partition side `side`'s `input` into
    /// its output region, handling the overflow/retry exception path.
    /// Returns the per-vault received contents in hardware arrival order.
    /// A streamed chunk passes its `stream` bookkeeping: its region window
    /// opens after the tuples earlier chunks delivered (so the accumulated
    /// destination layout equals the materialized shuffle's), and the
    /// chunk's histogram kernels fuse into the scatter phase — one
    /// synchronization per consumed chunk.
    fn run_permutable_shuffle(
        &mut self,
        input: &[Data],
        side: usize,
        scheme: PartitionScheme,
        label: &str,
        stream: Option<&StreamDest>,
    ) -> Parts {
        let (in_region, out_region, _) = SIDES[side];
        let parts = scheme.parts() as usize;
        let mut inbound = vec![0u64; parts];
        let mut counts = Vec::with_capacity(parts);
        for data in input {
            histogram_into(data, scheme, &mut counts);
            for (i, &c) in counts.iter().enumerate() {
                inbound[i] += c;
            }
        }
        let mut factor = self.underprovision.unwrap_or(1.0);
        loop {
            let row = self.cfg.vault.row_bytes as u64;
            let regions: Vec<PermutableRegion> = (0..parts)
                .map(|v| {
                    // A streamed chunk's window opens at the previous
                    // chunk's fill level, rounded down to the row
                    // boundary the §5.3 controller requires — the first
                    // arrivals of a chunk may rewrite the simulated
                    // addresses of the previous chunk's partial tail
                    // row; the arrival log, not the address trace,
                    // carries the functional content.
                    let appended = stream.map_or(0, |s| s.appended[v]) * TUPLE_BYTES as u64;
                    let exact = inbound[v] * TUPLE_BYTES as u64;
                    let size = ((exact as f64 * factor) as u64).div_ceil(256).max(1) * 256;
                    PermutableRegion {
                        base: self.layout.region_base(v as u32, out_region) + appended / row * row,
                        size,
                        object_bytes: TUPLE_BYTES,
                    }
                })
                .collect();
            self.machine.shuffle_begin(regions);
            let mut kernels = self.permutable_scatter_kernels(input, in_region, scheme);
            if stream.is_some() {
                // §5.4 retries re-run the fused round, histogram included.
                kernels = fuse_kernel_sets(self.histogram_kernels(input, side, scheme), kernels);
            }
            match self.run_phase(kernels, label) {
                Ok(_) => break,
                Err(_) => {
                    // §5.4: overflow raises an exception to the CPU, which
                    // re-provisions and re-runs the shuffle.
                    self.shuffle_retries += 1;
                    factor = 1.0;
                    assert!(
                        self.shuffle_retries < 4,
                        "shuffle keeps overflowing with exact sizing"
                    );
                }
            }
        }
        let arrivals = self.machine.shuffle_end();
        (0..parts as u32)
            .map(|v| {
                arrivals
                    .get(&v)
                    .map(|log| {
                        log.iter().map(|&(core, seq)| input[core as usize][seq as usize]).collect()
                    })
                    .unwrap_or_default()
            })
            .collect()
    }

    /// One scatter phase of partition side `side`'s `input` on whatever
    /// machinery this system has: the permutable shuffle, or conventional
    /// scatter. A streamed chunk passes its `stream` bookkeeping and its
    /// histogram fuses into the same phase. Returns per-destination
    /// contents.
    fn scatter(
        &mut self,
        input: &[Data],
        side: usize,
        scheme: PartitionScheme,
        label: &str,
        stream: Option<&StreamDest>,
    ) -> Parts {
        if self.cfg.kind.uses_permutability() {
            return self.run_permutable_shuffle(input, side, scheme, label, stream);
        }
        let (mut kernels, dest) = self.conventional_scatter(input, side, scheme, stream);
        if stream.is_some() {
            kernels = fuse_kernel_sets(self.histogram_kernels(input, side, scheme), kernels);
        }
        self.run_phase_ok(kernels, label);
        dest
    }

    /// The partition phase of an operator over its input sides (whole
    /// relations; side `i` moves between the regions of `SIDES[i]`). Every
    /// materialized side runs its histogram phase, then every materialized
    /// side its scatter phase (side 1's labels carry `suffix`). A streamed
    /// run then feeds side `streamed` chunk by chunk through
    /// [`Experiment::partition_streamed`]. Returns each side's
    /// per-destination contents.
    fn partition_inputs<const N: usize>(
        &mut self,
        sides: [&Data; N],
        streamed: usize,
        suffix: &str,
    ) -> [Parts; N] {
        let scheme = self.partition_scheme();
        let label = |phase: &str, side: usize| match side {
            0 => phase.to_string(),
            _ => format!("{phase}{suffix}"),
        };
        let chunks = self.stream.clone();
        let materialized: Vec<(usize, VaultData)> = (0..N)
            .filter(|&i| chunks.is_none() || i != streamed)
            .map(|i| (i, self.chunk_to_vaults(sides[i])))
            .collect();
        for (i, input) in &materialized {
            let kernels = self.histogram_kernels(input, *i, scheme);
            self.run_phase_ok(kernels, &label("partition.histogram", *i));
        }
        let mut parts: [Parts; N] = std::array::from_fn(|_| Vec::new());
        for (i, input) in &materialized {
            parts[*i] = self.scatter(input, *i, scheme, &label("partition.scatter", *i), None);
        }
        if let Some(chunks) = chunks {
            parts[streamed] = self.partition_streamed(&chunks, streamed, scheme);
        }
        parts
    }

    /// Streams partition side `side` through the partition machinery
    /// chunk by chunk: one histogram + scatter round per arrival chunk,
    /// mesh and SerDes traffic charged per round, destination contents
    /// accumulated across rounds. The simulated span of each round is
    /// recorded for the report's [`StreamInfo`], so a scheduler can
    /// overlap the rounds with the producing stage's output phase. The
    /// accumulated contents equal the materialized shuffle's up to
    /// arrival order within each destination, which every consuming
    /// probe phase canonicalizes (sorting, grouping, or canonical join
    /// rows).
    fn partition_streamed(
        &mut self,
        chunks: &[Data],
        side: usize,
        scheme: PartitionScheme,
    ) -> Parts {
        let parts_n = scheme.parts() as usize;
        // The destination regions are provisioned once for the whole
        // stream (the bounded channel sits on the input side): CPU
        // bucket starts come from the full stream's totals, and every
        // chunk appends after the tuples earlier chunks delivered.
        let mut totals = vec![0u64; parts_n];
        let mut counts = Vec::with_capacity(parts_n);
        for chunk in chunks {
            histogram_into(chunk, scheme, &mut counts);
            for (t, &c) in totals.iter_mut().zip(&counts) {
                *t += c;
            }
        }
        let mut dest =
            StreamDest { starts: exclusive_prefix(&totals), appended: vec![0u64; parts_n] };
        let mut parts: Parts = vec![Vec::new(); parts_n];
        for (k, chunk) in chunks.iter().enumerate() {
            let t0 = self.machine.now();
            let vaulted = self.chunk_to_vaults(chunk);
            // One fused phase per round: the chunk's histogram chains
            // into its scatter on every compute unit, so a chunk
            // consumption step synchronizes once at its end instead of
            // once per Table 2 sub-phase — the bounded channel hands
            // over chunks, not global barriers.
            let label = format!("partition.stream.c{k}");
            let delivered = self.scatter(&vaulted, side, scheme, &label, Some(&dest));
            for ((p, d), appended) in parts.iter_mut().zip(delivered).zip(&mut dest.appended) {
                *appended += d.len() as u64;
                p.extend(d);
            }
            self.stream_spans.push(self.machine.now() - t0);
        }
        parts
    }

    // ----- operators ------------------------------------------------------

    fn run(mut self) -> Report {
        let ran = match self.op {
            OperatorKind::Scan => self.run_scan(),
            OperatorKind::Sort => self.run_sort(),
            OperatorKind::GroupBy => self.run_groupby(),
            OperatorKind::Join => self.run_join(),
            OperatorKind::Union => self.run_union(),
            OperatorKind::Cogroup => self.run_cogroup(),
            OperatorKind::FlatMap => self.run_flat_map(),
        };
        // One check for every operator: the captured output must equal
        // the registered reference over the relations the driver ran on.
        // The report comes first, so the machine is freed before the
        // reference is built.
        let (op, seed) = (self.op, self.cfg.seed);
        let mut report = self.finish(false, ran.summary, ran.output);
        let inputs: Vec<&[Tuple]> = ran.inputs.iter().map(|r| &r[..]).collect();
        let inv = OpInvocation { inputs: &inputs, build: ran.build.as_deref(), seed };
        report.verified = report.output == operator(op).reference(&ran.spec, &inv);
        report
    }

    fn run_scan(&mut self) -> Ran {
        let whole = self.generate_single();
        let input = self.chunk_to_vaults(&whole);
        let pred = self
            .pred
            .unwrap_or_else(|| ScanPredicate::KeyEquals(whole.first().map_or(0, |t| t.key)));
        let matches: Vec<Tuple> = input.iter().flat_map(|d| scan_filter(d, pred)).collect();
        let simd = self.cfg.kind.is_mondrian();
        let kernels = self.vault_chains(|_, v| {
            let base = self.layout.region_base(v as u32, Region::InputA);
            let out = self.layout.region_base(v as u32, Region::Result);
            let data = input[v].clone();
            if simd {
                Box::new(SimdScanKernel::new(data, base, out, pred))
            } else {
                Box::new(ScalarScanKernel::new(data, base, out, pred, StoreKind::Cached))
            }
        });
        self.run_phase_ok(kernels, "probe.scan");
        Ran {
            spec: OpSpec { pred: Some(pred), ..OpSpec::new(OperatorKind::Scan) },
            inputs: vec![whole],
            build: None,
            summary: format!("scan: {} matches of {pred:?}", matches.len()),
            output: StageOutput::Tuples(matches),
        }
    }

    /// Sorts each destination partition of partition side `side` with the
    /// system's sort, in place between the side's output region and its
    /// pong buffer, and returns the sorted partitions. `tag` names the
    /// sort's phases.
    fn local_sort(&mut self, mut parts: Parts, side: usize, tag: &str) -> Parts {
        let (_, ping, pong) = SIDES[side];
        let kind = self.cfg.kind;
        if !kind.is_nmp() {
            // CPU: quicksort per bucket, chained per core. Buckets live in
            // the global out space.
            let bases = self.part_bases(ping, &parts);
            let kernels: KernelSet = (0..self.units())
                .map(|u| {
                    chain(
                        self.unit_share(u, parts.len())
                            .filter(|&b| !parts[b].is_empty())
                            .map(|b| {
                                Box::new(QuicksortKernel::new(&parts[b], bases[b]))
                                    as Box<dyn Kernel>
                            })
                            .collect(),
                    )
                })
                .collect();
            self.run_phase_ok(kernels, &format!("probe.sort.{tag}"));
            for p in &mut parts {
                p.sort_unstable();
            }
            return parts;
        }
        // NMP systems: mergesort. Mondrian opens with the SIMD bitonic pass.
        let simd = kind.is_mondrian();
        let mut run: Vec<usize> = vec![1; parts.len()];
        let mut cur: Vec<Region> = vec![ping; parts.len()];
        if simd {
            let kernels: KernelSet =
                (0..self.units())
                    .map(|v| {
                        let data = Arc::<[Tuple]>::from(parts[v].as_slice());
                        let in_base = self.layout.region_base(v as u32, ping);
                        let out_base = self.layout.region_base(v as u32, pong);
                        Some(Box::new(BitonicRunKernel::new(data, in_base, out_base))
                            as Box<dyn Kernel>)
                    })
                    .collect();
            self.run_phase_ok(kernels, &format!("probe.bitonic.{tag}"));
            for (v, p) in parts.iter_mut().enumerate() {
                *p = bitonic_runs(p, BITONIC_RUN);
                run[v] = BITONIC_RUN;
                cur[v] = pong;
            }
        }
        // Merge passes until every vault is sorted.
        let mut pass = 0u32;
        loop {
            let active: Vec<usize> =
                (0..parts.len()).filter(|&v| run[v] < parts[v].len().max(1)).collect();
            if active.is_empty() {
                break;
            }
            let kernels: KernelSet = (0..self.units())
                .map(|v| {
                    if !active.contains(&v) {
                        return None;
                    }
                    let data = Arc::<[Tuple]>::from(parts[v].as_slice());
                    let (src, dst) = if cur[v] == ping { (ping, pong) } else { (pong, ping) };
                    let in_base = self.layout.region_base(v as u32, src);
                    let out_base = self.layout.region_base(v as u32, dst);
                    let k: Box<dyn Kernel> = if simd {
                        Box::new(SimdMergePassKernel::new(data, run[v], in_base, out_base))
                    } else {
                        Box::new(ScalarMergePassKernel::new(data, run[v], in_base, out_base))
                    };
                    Some(k)
                })
                .collect();
            self.run_phase_ok(kernels, &format!("probe.merge.{tag}.{pass}"));
            for &v in &active {
                parts[v] = merge_pass(&parts[v], run[v]);
                run[v] *= 2;
                cur[v] = if cur[v] == ping { pong } else { ping };
            }
            pass += 1;
        }
        parts
    }

    /// The grouping probe of Group-by (one side) and Cogroup (two sides):
    /// aggregates every side's partitions by key in one phase and returns
    /// each side's groups. The sort-based family sorts each side first
    /// (`tags` name the sorts' phases) and runs sorted aggregation; the
    /// hash-based family aggregates per partition into a scratch table,
    /// side `i` at table slot `i` (the sides run back to back on a unit,
    /// so the scratch space is shared). Tables are sized for all-distinct
    /// keys: injected relations (e.g. an already-grouped stage output)
    /// carry no average-group-size guarantee.
    fn group_probe<const N: usize>(
        &mut self,
        sides: [Parts; N],
        tags: [&str; N],
        label: &str,
    ) -> [BTreeMap<u64, Aggregates>; N] {
        let mut groups: [BTreeMap<u64, Aggregates>; N] = std::array::from_fn(|_| BTreeMap::new());
        if self.cfg.kind.probe_is_sorted() {
            let mut sorted = Vec::with_capacity(N);
            for (side, (parts, tag)) in sides.into_iter().zip(tags).enumerate() {
                sorted.push(self.local_sort(parts, side, tag));
            }
            // Each side's aggregate stream gets its own half of the
            // Result region. Only the two-sided split is guarded, like
            // union/flat_map guard their result writes (one
            // GROUP_ENTRY_BYTES record per group, groups ≤ tuples): a
            // one-sided Group-by writes from the region's base, and the
            // 64 B-per-group bound would panic on skewed inputs it handles.
            let half_bytes = self.layout.region_tuples() as u64 / 2 * TUPLE_BYTES as u64;
            if N == 2 {
                for side in &sorted {
                    for (v, p) in side.iter().enumerate() {
                        assert!(
                            p.len() as u64 * GROUP_ENTRY_BYTES as u64 <= half_bytes,
                            "cogroup aggregate output overflows the result region of vault {v}"
                        );
                    }
                }
            }
            let simd = self.cfg.kind.is_mondrian();
            let kernels: KernelSet = (0..self.units())
                .map(|v| {
                    let out = self.layout.region_base(v as u32, Region::Result);
                    let aggs = sorted.iter().enumerate().map(|(side, parts)| {
                        let data = Arc::<[Tuple]>::from(parts[v].as_slice());
                        // The sorted copy lives in whichever buffer the
                        // last merge pass targeted; the base only affects
                        // addresses, so use the output region consistently.
                        let base = self.layout.region_base(v as u32, SIDES[side].1);
                        let out = out + side as u64 * half_bytes;
                        if simd {
                            Box::new(SimdSortedAggKernel::new(data, base, out)) as Box<dyn Kernel>
                        } else {
                            Box::new(SortedAggKernel::new(data, base, out))
                        }
                    });
                    chain(aggs.collect())
                })
                .collect();
            self.run_phase_ok(kernels, label);
            for (side, parts) in sorted.iter().enumerate() {
                for p in parts {
                    merge_groups(&mut groups[side], sorted_group(p));
                }
            }
        } else {
            // NMP-rand aggregates its vault's partition; the CPU walks its
            // bucket range over cache-resident scratch tables.
            let bases: Vec<Vec<u64>> =
                sides.iter().enumerate().map(|(i, p)| self.part_bases(SIDES[i].1, p)).collect();
            let kernels: KernelSet = (0..self.units())
                .map(|u| {
                    let hv = self.home_vault(u);
                    let mut aggs: Vec<Box<dyn Kernel>> = Vec::new();
                    for b in self.unit_share(u, sides[0].len()) {
                        for (side, parts) in sides.iter().enumerate() {
                            if parts[b].is_empty() {
                                continue;
                            }
                            aggs.push(Box::new(HashAggKernel::new(
                                Arc::<[Tuple]>::from(parts[b].as_slice()),
                                bases[side][b],
                                self.layout.table_addr(hv, side),
                                table_bits(parts[b].len()),
                            )));
                        }
                    }
                    chain(aggs)
                })
                .collect();
            self.run_phase_ok(kernels, label);
            for (side, parts) in sides.iter().enumerate() {
                for p in parts {
                    merge_groups(&mut groups[side], hash_group(p, table_bits(p.len())));
                }
            }
        }
        groups
    }

    fn run_sort(&mut self) -> Ran {
        let whole = self.generate_single();
        let [parts] = self.partition_inputs([&whole], 0, "");
        // The output is the concatenation in partition order.
        let sorted: Vec<Tuple> = self.local_sort(parts, 0, "local").concat();
        Ran {
            spec: OpSpec::new(OperatorKind::Sort),
            inputs: vec![whole],
            build: None,
            summary: format!("sort: {} tuples totally ordered", sorted.len()),
            output: StageOutput::Tuples(sorted),
        }
    }

    fn run_groupby(&mut self) -> Ran {
        let whole = self.generate_single();
        let [parts] = self.partition_inputs([&whole], 0, "");
        let [groups] = self.group_probe([parts], ["groupby"], "probe.aggregate");
        Ran {
            spec: OpSpec::new(OperatorKind::GroupBy),
            inputs: vec![whole],
            build: None,
            summary: format!("group by: {} groups aggregated", groups.len()),
            output: StageOutput::Groups(groups),
        }
    }

    fn run_join(&mut self) -> Ran {
        let (r, s) = self.generate_join();
        // The build side R partitions up front; a streamed probe side S
        // follows chunk by chunk.
        let [r_parts, s_parts] = self.partition_inputs([&r, &s], 1, ".s");
        let mut rows: Vec<reference::JoinRow> = Vec::new();
        if self.cfg.kind.probe_is_sorted() {
            let r_sorted = self.local_sort(r_parts, 0, "r");
            let s_sorted = self.local_sort(s_parts, 1, "s");
            let simd = self.cfg.kind.is_mondrian();
            let kernels: KernelSet = (0..self.units())
                .map(|v| {
                    let r = Arc::<[Tuple]>::from(r_sorted[v].as_slice());
                    let s = Arc::<[Tuple]>::from(s_sorted[v].as_slice());
                    let rb = self.layout.region_base(v as u32, Region::OutA);
                    let sb = self.layout.region_base(v as u32, Region::OutB);
                    let out = self.layout.region_base(v as u32, Region::Result);
                    let k: Box<dyn Kernel> = if simd {
                        Box::new(SimdMergeJoinKernel::new(r, s, rb, sb, out))
                    } else {
                        Box::new(MergeJoinKernel::new(r, s, rb, sb, out, StoreKind::Streaming))
                    };
                    Some(k)
                })
                .collect();
            self.run_phase_ok(kernels, "probe.mergejoin");
            for v in 0..self.vaults() {
                rows.extend(merge_join(&r_sorted[v], &s_sorted[v]));
            }
        } else {
            // NMP-rand joins its vault's partition pair with streaming
            // stores; the CPU joins its bucket range over cache-resident
            // buckets, skipping buckets without probe tuples.
            let nmp = self.cfg.kind.is_nmp();
            let store = if nmp { StoreKind::Streaming } else { StoreKind::Cached };
            let r_bases = self.part_bases(Region::OutA, &r_parts);
            let s_bases = self.part_bases(Region::OutB, &s_parts);
            let kernels: KernelSet = (0..self.units())
                .map(|u| {
                    let hv = self.home_vault(u);
                    let mut joins: Vec<Box<dyn Kernel>> = Vec::new();
                    for b in self.unit_share(u, r_parts.len()) {
                        if !nmp && s_parts[b].is_empty() {
                            continue;
                        }
                        let at = JoinAddrs {
                            r: r_bases[b],
                            s: s_bases[b],
                            reordered: self.layout.region_base(hv, Region::PongA),
                            counter: self.layout.meta_addr(hv, 0),
                            out: self.layout.region_base(hv, Region::Result),
                        };
                        let (kernels, matched) = hash_join(&r_parts[b], &s_parts[b], at, store);
                        joins.extend(kernels);
                        rows.extend(matched);
                    }
                    chain(joins)
                })
                .collect();
            self.run_phase_ok(kernels, "probe.hashjoin");
        }
        let rows = reference::canonical(rows);
        Ran {
            spec: OpSpec::new(OperatorKind::Join),
            inputs: vec![s],
            build: Some(r),
            summary: format!("join: {} matched rows", rows.len()),
            output: StageOutput::Rows(rows),
        }
    }

    /// Union: the multi-input concatenating scan. Every input relation is
    /// chunked across the vaults and each compute unit chains a match-all
    /// scan over each input's chunk, appending to its vault's Result
    /// region — so the simulated traffic is exactly the concatenation's.
    fn run_union(&mut self) -> Ran {
        let rels: Vec<Data> = if self.inputs.is_empty() {
            // Standalone: the configured dataset split into two seeded
            // halves, so the operator is exercised as a true multi-input.
            let total = self.cfg.tuples_per_vault * self.vaults();
            let bound = self.generated_key_bound(total);
            let half = (total / 2).max(1);
            vec![
                self.gen_relation(half, bound, self.cfg.seed).into(),
                self.gen_relation(total - half, bound, self.cfg.seed ^ 0x0075_6e69_6f6e).into(),
            ]
        } else {
            self.inputs.clone()
        };
        assert!(rels.len() >= 2, "union needs at least two input relations");
        let chunked: Vec<VaultData> = rels.iter().map(|r| self.chunk_to_vaults(r)).collect();
        for v in 0..self.vaults() {
            let appended: usize = chunked.iter().map(|c| c[v].len()).sum();
            assert!(
                appended <= self.layout.region_tuples(),
                "union output overflows the result region of vault {v}"
            );
        }
        let simd = self.cfg.kind.is_mondrian();
        let kernels = self.vault_chains(|_, v| {
            let mut out = self.layout.region_base(v as u32, Region::Result);
            let mut scans: Vec<Box<dyn Kernel>> = Vec::new();
            for (k, input) in chunked.iter().enumerate().filter(|(_, c)| !c[v].is_empty()) {
                // Inputs alternate between the two input regions; they are
                // scanned sequentially, so reuse is a modeling choice, not
                // a correctness one.
                let region = if k % 2 == 0 { Region::InputA } else { Region::InputB };
                let base = self.layout.region_base(v as u32, region);
                let (data, all) = (input[v].clone(), ScanPredicate::All);
                let len = data.len() as u64;
                scans.push(if simd {
                    Box::new(SimdScanKernel::new(data, base, out, all))
                } else {
                    Box::new(ScalarScanKernel::new(data, base, out, all, StoreKind::Cached))
                });
                out += len * TUPLE_BYTES as u64;
            }
            Box::new(ChainKernel::new(scans))
        });
        self.run_phase_ok(kernels, "probe.union");
        // Reassemble the functional output from the *chunked* per-vault
        // data (input-major, vault order) — the reference comparison then
        // actually exercises the vault chunking, not just a re-concat of
        // the original relations.
        let tuples: Vec<Tuple> =
            chunked.iter().flat_map(|c| c.iter().flat_map(|chunk| chunk.iter().copied())).collect();
        Ran {
            spec: OpSpec::new(OperatorKind::Union),
            summary: format!("union: {} tuples from {} inputs", tuples.len(), rels.len()),
            inputs: rels,
            build: None,
            output: StageOutput::Tuples(tuples),
        }
    }

    /// FlatMap: the 1→N expanding scan. The kernels issue `fanout`× the
    /// stores of a plain scan, so the memory/mesh/SerDes accounting
    /// carries the output-amplification factor, and the captured
    /// [`StageOutput::Expanded`] records it for downstream consumers.
    fn run_flat_map(&mut self) -> Ran {
        let whole = self.generate_single();
        let input = self.chunk_to_vaults(&whole);
        let fanout = self.fanout.unwrap_or(OpSpec::new(OperatorKind::FlatMap).fanout).max(1);
        let pred = self.pred.unwrap_or(ScanPredicate::All);
        let max_chunk = input.iter().map(|d| d.len()).max().unwrap_or(0);
        assert!(
            max_chunk.saturating_mul(fanout as usize) <= self.layout.region_tuples(),
            "flat_map fanout {fanout} overflows the result region ({max_chunk} tuples/vault)"
        );
        let simd = self.cfg.kind.is_mondrian();
        let kernels = self.vault_chains(|_, v| {
            let base = self.layout.region_base(v as u32, Region::InputA);
            let out = self.layout.region_base(v as u32, Region::Result);
            let data = input[v].clone();
            if simd {
                Box::new(SimdFlatMapKernel::new(data, base, out, pred, fanout))
            } else {
                Box::new(FlatMapKernel::new(data, base, out, pred, fanout, StoreKind::Cached))
            }
        });
        self.run_phase_ok(kernels, "probe.flat_map");
        // Expand each vault's chunk and reassemble in vault order; the
        // reference runs over the unchunked relation, so the comparison
        // exercises the chunk/reassemble round trip (chunking preserves
        // input order, expansion is per-tuple).
        let tuples: Vec<Tuple> = input
            .iter()
            .flat_map(|chunk| mondrian_ops::flat_map::flat_map_expand(chunk, pred, fanout))
            .collect();
        let matches = tuples.len() / fanout as usize;
        Ran {
            spec: OpSpec { kind: OperatorKind::FlatMap, pred: Some(pred), fanout },
            inputs: vec![whole],
            build: None,
            summary: format!(
                "flat_map: {matches} matches expanded x{fanout} to {} tuples",
                tuples.len()
            ),
            output: StageOutput::Expanded { tuples, fanout },
        }
    }

    /// Cogroup: the multi-input grouped join. Both relations shuffle on
    /// the partition machinery (separate histogram/scatter rounds, like a
    /// join's two sides), then the grouping probe groups *both* sides by
    /// key in one phase and the per-key groups are paired.
    fn run_cogroup(&mut self) -> Ran {
        let (a_full, b_full): (Data, Data) = match self.inputs.len() {
            2 => (self.inputs[0].clone(), self.inputs[1].clone()),
            0 => {
                let total = self.cfg.tuples_per_vault * self.vaults();
                let bound = self.generated_key_bound(total);
                (
                    self.gen_relation(total, bound, self.cfg.seed).into(),
                    self.gen_relation(total, bound, self.cfg.seed ^ 0x0063_6f67_726f_7570).into(),
                )
            }
            n => panic!("cogroup takes exactly two input relations, got {n}"),
        };
        // The materialized side B partitions up front; a streamed side A
        // follows chunk by chunk.
        let [a_parts, b_parts] = self.partition_inputs([&a_full, &b_full], 0, ".b");
        let [a_groups, b_groups] =
            self.group_probe([a_parts, b_parts], ["cg.a", "cg.b"], "probe.cogroup");
        let mut got: BTreeMap<u64, (Aggregates, Aggregates)> = BTreeMap::new();
        for (k, agg) in a_groups {
            got.entry(k).or_default().0 = agg;
        }
        for (k, agg) in b_groups {
            got.entry(k).or_default().1 = agg;
        }
        Ran {
            spec: OpSpec::new(OperatorKind::Cogroup),
            summary: format!(
                "cogroup: {} keys across {} + {} tuples",
                got.len(),
                a_full.len(),
                b_full.len()
            ),
            inputs: vec![a_full, b_full],
            build: None,
            output: StageOutput::CoGroups(got),
        }
    }

    fn finish(mut self, verified: bool, summary: String, output: StageOutput) -> Report {
        let runtime = self.machine.now();
        let partition = self.machine.partition();
        let (mesh_totals, serdes_totals) = self.machine.noc_rollup();
        let stats = self.machine.export_stats();
        // Weighted per-core busy fractions across phases.
        let units = self.units();
        let mut busy = vec![0.0f64; units];
        let mut total_dur = 0u128;
        for p in &self.phases {
            let d = p.duration() as u128;
            total_dur += d;
            for (b, pb) in busy.iter_mut().zip(&p.core_busy) {
                *b += pb * d as f64;
            }
        }
        if total_dur > 0 {
            for b in &mut busy {
                *b /= total_dur as f64;
            }
        }
        let class = match self.cfg.kind {
            SystemKind::Cpu => CoreClass::Cpu,
            SystemKind::Mondrian | SystemKind::MondrianNoperm => CoreClass::Mondrian,
            _ => CoreClass::Nmp,
        };
        let dram_bits =
            (stats.sum_by_suffix("read_bytes") + stats.sum_by_suffix("write_bytes")) * 8.0;
        // serdes busy bits: sum only the busy_bits entries.
        let serdes_busy: f64 = stats
            .iter()
            .filter(|(k, _)| k.starts_with("serdes.") && k.ends_with("busy_bits"))
            .map(|(_, s)| s.as_f64())
            .sum();
        let llc_accesses =
            stats.count("llc.hits") + stats.count("llc.misses") + stats.count("llc.pending_hits");
        let activity = SystemActivity {
            runtime_ps: runtime.max(1),
            cores: busy.iter().map(|&b| CoreActivity { class, busy_fraction: b }).collect(),
            row_activations: stats.sum_by_suffix("activations") as u64,
            dram_bits_accessed: dram_bits as u64,
            hmc_cubes: self.cfg.hmcs,
            serdes_directions: self.machine.serdes_directions(),
            serdes_busy_bits: serdes_busy as u64,
            noc_bit_mm: stats.sum_by_suffix("bit_mm"),
            noc_meshes: self.cfg.hmcs,
            llc_accesses,
            has_llc: !self.cfg.kind.is_nmp(),
        };
        let energy = compute_energy(&EnergyParams::table4(), &activity);
        let instructions = self.phases.iter().map(|p| p.instructions).sum();
        let stream = self.stream.as_ref().map(|chunks| StreamInfo {
            chunks: chunks.len(),
            chunk_partition_ps: std::mem::take(&mut self.stream_spans),
        });
        Report {
            op: self.op,
            system: self.cfg.kind,
            phases: std::mem::take(&mut self.phases),
            runtime_ps: runtime,
            instructions,
            energy,
            stats,
            verified,
            shuffle_retries: self.shuffle_retries,
            summary,
            output,
            partition,
            mesh_totals,
            serdes_totals,
            stream,
        }
    }
}

/// Chains two per-unit kernel sets into one phase: each unit runs `a`'s
/// kernel, then `b`'s (a unit idle on one side runs the other's alone).
/// Streamed partition rounds use this to consume a chunk — histogram
/// then scatter — behind a single end-of-round barrier. Both sets must
/// cover the same compute units.
fn fuse_kernel_sets(a: KernelSet, b: KernelSet) -> KernelSet {
    assert_eq!(a.len(), b.len(), "fused kernel sets must cover the same units");
    a.into_iter().zip(b).map(|(x, y)| chain(x.into_iter().chain(y).collect())).collect()
}

/// The (histogram meta slot, scatter cursor slot) of partition side
/// `side`: with `P` partitions, side 0 counts at slot 0 and scatters
/// from slot `P`, side 1 counts at `2P` and scatters from `3P`.
fn side_slots(side: usize, scheme: PartitionScheme) -> (usize, usize) {
    let p = scheme.parts() as usize;
    (2 * side * p, (2 * side + 1) * p)
}

/// One compute unit's kernels, run back to back.
fn chain(kernels: Vec<Box<dyn Kernel>>) -> Option<Box<dyn Kernel>> {
    Some(Box::new(ChainKernel::new(kernels)))
}

/// Addresses of one hash-join partition pair: R and S as partitioned, the
/// buffer R is reordered into, the histogram counters and the output.
struct JoinAddrs {
    r: u64,
    s: u64,
    reordered: u64,
    counter: u64,
    out: u64,
}

/// The hash join of one partition pair: the index build — a histogram of
/// R, then R reordered by index range into `at.reordered` — chained with
/// the probe of S. Returns the kernel chain and the rows it matches.
fn hash_join(
    r: &[Tuple],
    s: &[Tuple],
    at: JoinAddrs,
    store: StoreKind,
) -> (Vec<Box<dyn Kernel>>, Vec<reference::JoinRow>) {
    let r = Data::from(r);
    let bits = index_bits(r.len());
    let idx = Arc::new(build_index(&r, bits));
    let rows = probe_index(&idx, s);
    let scheme = PartitionScheme::HashBits { bits };
    let mut cursors: Vec<u64> = idx.offsets[..idx.offsets.len() - 1]
        .iter()
        .map(|&o| at.reordered + o as u64 * TUPLE_BYTES as u64)
        .collect();
    let addrs = scatter_addresses(&r, scheme, &mut cursors);
    let kernels: Vec<Box<dyn Kernel>> = vec![
        Box::new(HistogramKernel::new(r.clone(), at.r, at.counter, scheme)),
        Box::new(ScatterKernel::new(r, at.r, at.counter, addrs, store, scheme)),
        Box::new(HashProbeKernel::new(s.into(), idx, at.s, at.reordered, at.out, store)),
    ];
    (kernels, rows)
}

/// Folds one partition's groups into one side's groups.
fn merge_groups(
    into: &mut BTreeMap<u64, Aggregates>,
    groups: impl IntoIterator<Item = (u64, Aggregates)>,
) {
    for (k, a) in groups {
        into.entry(k).or_default().merge(&a);
    }
}

/// Hash-table bits for roughly 2× occupancy over `entries` (group tables).
fn table_bits(entries: usize) -> u32 {
    (entries.max(2) * 2).next_power_of_two().trailing_zeros()
}

/// Join-index bits: ~2 R tuples per index range, the radix-join
/// convention — probes walk a short dependence chain.
fn index_bits(r_len: usize) -> u32 {
    (r_len.max(4) / 2).next_power_of_two().trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioned_experiment_runs_and_attributes_globally() {
        let cfg = SystemConfig::tiny(SystemKind::Mondrian);
        let leases = crate::config::PartitionSpec::split(cfg.total_vaults(), 2).unwrap();
        let input: Vec<Tuple> = (0..128).map(|i| Tuple::new(i % 13, i)).collect();
        let report = ExperimentBuilder::new(OperatorKind::Scan)
            .config(cfg)
            .partition(leases[1])
            .input(input)
            .scan_predicate(ScanPredicate::All)
            .run();
        assert!(report.verified);
        assert_eq!(report.partition.first_vault, 2);
        assert_eq!(report.partition.vaults, 2);
        // Stats attribute traffic to the leased global vaults (2, 3) only.
        assert!(report.stats.iter().any(|(k, _)| k.starts_with("vault.2.")));
        assert!(report.stats.iter().any(|(k, _)| k.starts_with("vault.3.")));
        assert!(!report.stats.iter().any(|(k, _)| k.starts_with("vault.0.")));
        assert!(report.mesh_totals.messages > 0, "scan traffic crosses the partition mesh");
    }

    /// The streamed-input contract: chunked arrival changes the phase
    /// schedule (per-chunk histogram/scatter rounds) but never the
    /// functional output — for every partition-phase operator.
    #[test]
    fn streamed_input_is_functionally_identical() {
        let rel: Vec<Tuple> = (0..256).map(|i| Tuple::new(i % 17, i * 3 + 1)).collect();
        let side_b: Vec<Tuple> = (0..192).map(|i| Tuple::new(i % 11, i)).collect();
        let chunks: Vec<Arc<[Tuple]>> = rel.chunks(64).map(Arc::from).collect();
        for op in [OperatorKind::Sort, OperatorKind::GroupBy, OperatorKind::Join] {
            let base = || {
                ExperimentBuilder::new(op).system(SystemKind::Mondrian).tiny().tuples_per_vault(64)
            };
            let materialized = base().input(rel.clone()).run();
            let streamed = base().streamed_input(chunks.clone()).run();
            assert!(materialized.verified && streamed.verified, "{op:?} failed");
            assert_eq!(materialized.output, streamed.output, "{op:?} output diverged");
            assert_eq!(materialized.stream, None);
            let info = streamed.stream.expect("streamed run records chunk accounting");
            assert_eq!(info.chunks, 4);
            assert_eq!(info.chunk_partition_ps.len(), 4);
            assert!(info.chunk_partition_ps.iter().all(|&t| t > 0));
            assert!(
                info.chunk_partition_ps.iter().sum::<Time>() <= streamed.runtime_ps,
                "chunk rounds are a slice of the run"
            );
        }
        // Cogroup streams side A past a materialized side B.
        let materialized = ExperimentBuilder::new(OperatorKind::Cogroup)
            .system(SystemKind::Cpu)
            .tiny()
            .input(rel.clone())
            .add_input(side_b.clone())
            .run();
        let streamed = ExperimentBuilder::new(OperatorKind::Cogroup)
            .system(SystemKind::Cpu)
            .tiny()
            .input(rel)
            .add_input(side_b)
            .streamed_input(chunks)
            .run();
        assert!(materialized.verified && streamed.verified);
        assert_eq!(materialized.output, streamed.output, "cogroup output diverged");
    }

    #[test]
    #[should_panic(expected = "does not stream its primary input")]
    fn streaming_a_scan_is_rejected() {
        let rel: Vec<Tuple> = (0..64).map(|i| Tuple::new(i, i)).collect();
        let chunks: Vec<Arc<[Tuple]>> = rel.chunks(16).map(Arc::from).collect();
        let _ = ExperimentBuilder::new(OperatorKind::Scan).tiny().streamed_input(chunks).run();
    }

    #[test]
    fn seed_survives_the_tiny_topology() {
        let run = |b: ExperimentBuilder| b.system(SystemKind::Nmp).tuples_per_vault(64).run();
        let before = run(ExperimentBuilder::new(OperatorKind::Sort).seed(7).tiny());
        let after = run(ExperimentBuilder::new(OperatorKind::Sort).tiny().seed(7));
        let default = run(ExperimentBuilder::new(OperatorKind::Sort).tiny());
        assert_eq!(format!("{before:?}"), format!("{after:?}"), "seed set before tiny() is kept");
        assert_ne!(before.output, default.output, "seed 7 is not the default seed");
    }

    #[test]
    fn table_bits_gives_headroom() {
        assert_eq!(table_bits(2), 2);
        assert_eq!(table_bits(4), 3);
        assert_eq!(table_bits(100), 8);
        assert!(1usize << table_bits(1000) >= 2000);
    }
}
