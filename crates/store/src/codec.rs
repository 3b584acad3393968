//! The binary codec for the persisted result types.
//!
//! The repository deliberately carries no serialization dependency, so the
//! store encodes the [`PipelineReport`] tree itself, through one trait,
//! [`Codec`]. Each layout is stated once and both directions follow from
//! that one statement: a struct lists its `field: Type` pairs in encoding
//! order in [`record!`], a fieldless enum lists its tags in [`tags!`], and
//! only the enums that carry data ([`StageInput`], [`StageSpec`],
//! [`OpOutput`], [`Stat`]) and the [`Stats`] registry are written by hand.
//!
//! The format is little-endian and length-prefixed: integers at their
//! width (`usize` as 8 bytes), `f64` as its bits, `bool`s and enum tags as
//! one byte, strings, sequences and maps as an 8-byte count followed by
//! their elements, and `Option` as a 0/1 tag byte followed by the value.
//! It is versioned by [`crate::STORE_FORMAT_VERSION`]: any layout change
//! must bump that constant, which rotates the on-disk directory instead of
//! attempting migration. The `encoding_is_pinned` test holds FNV-1a
//! digests of a fixed set of encoded values, so a layout change cannot
//! slip through without that bump.
//!
//! Every decoder returns `Option`: a short buffer, an invalid enum tag, an
//! implausible length, or malformed UTF-8 yields `None`, which the store
//! treats as a cache miss (the entry is re-simulated and overwritten).

use std::collections::BTreeMap;
use std::sync::Arc;

use mondrian_core::{OperatorKind, PartitionSpec, PhaseOutcome, Report, StreamInfo, SystemKind};
use mondrian_energy::EnergyBreakdown;
use mondrian_noc::{MeshStats, SerDesStats};
use mondrian_ops::{Aggregates, OpOutput};
use mondrian_pipeline::{
    BranchSchedule, BuildSide, Concurrency, FusedEdge, PipelineReport, PlanReport,
    PlannedEdgeReport, PlannedLease, PlannedWaveReport, ScheduleReport, StageEntry, StageInput,
    StageOutcome, StageSpec, WaveReport,
};
use mondrian_sim::{Stat, Stats};
use mondrian_workloads::Tuple;

/// A persisted type: how one value is written and read back.
pub(crate) trait Codec {
    /// The fewest bytes one encoded value takes. A decoded count is
    /// bounded by the bytes left, so a corrupted count fails the decode
    /// instead of attempting a huge allocation.
    const MIN_BYTES: usize;

    /// Appends the value's bytes.
    fn enc(&self, e: &mut Enc);

    /// Reads one value; `None` on any corruption.
    fn dec(d: &mut Dec) -> Option<Self>
    where
        Self: Sized;
}

/// Byte sink for the encoders.
#[derive(Default)]
pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    /// Bytes as they are, with no count.
    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// A count-prefixed byte string.
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        bytes.len().enc(self);
        self.raw(bytes);
    }
}

/// Bounds-checked byte source for the decoders.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Whether every byte was consumed — trailing garbage is corruption.
    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The next `n` bytes, borrowed from the buffer.
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// A count-prefixed byte string, borrowed from the buffer.
    pub(crate) fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = usize::dec(self)?;
        self.take(n)
    }

    /// A count of elements of at least `min_bytes` each, sanity-bounded
    /// by the remaining bytes.
    fn count(&mut self, min_bytes: usize) -> Option<usize> {
        let n = usize::dec(self)?;
        (n.checked_mul(min_bytes.max(1))? <= self.buf.len() - self.pos).then_some(n)
    }
}

/// Encodes one value.
pub(crate) fn encode<T: Codec + ?Sized>(value: &T) -> Vec<u8> {
    let mut e = Enc::default();
    value.enc(&mut e);
    e.buf
}

/// Decodes one value that fills `buf` exactly; `None` on any corruption.
pub(crate) fn decode<T: Codec>(buf: &[u8]) -> Option<T> {
    let mut d = Dec::new(buf);
    let value = T::dec(&mut d)?;
    d.done().then_some(value)
}

macro_rules! le_ints {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn enc(&self, e: &mut Enc) {
                e.raw(&self.to_le_bytes());
            }
            fn dec(d: &mut Dec) -> Option<Self> {
                Some(<$t>::from_le_bytes(d.take(Self::MIN_BYTES)?.try_into().ok()?))
            }
        }
    )*};
}

le_ints!(u8, u32, u64, u128);

impl Codec for usize {
    const MIN_BYTES: usize = 8;
    fn enc(&self, e: &mut Enc) {
        (*self as u64).enc(e);
    }
    fn dec(d: &mut Dec) -> Option<Self> {
        usize::try_from(u64::dec(d)?).ok()
    }
}

impl Codec for f64 {
    const MIN_BYTES: usize = 8;
    fn enc(&self, e: &mut Enc) {
        self.to_bits().enc(e);
    }
    fn dec(d: &mut Dec) -> Option<Self> {
        Some(f64::from_bits(u64::dec(d)?))
    }
}

impl Codec for bool {
    const MIN_BYTES: usize = 1;
    fn enc(&self, e: &mut Enc) {
        u8::from(*self).enc(e);
    }
    fn dec(d: &mut Dec) -> Option<Self> {
        match u8::dec(d)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Codec for String {
    const MIN_BYTES: usize = 8;
    fn enc(&self, e: &mut Enc) {
        e.bytes(self.as_bytes());
    }
    fn dec(d: &mut Dec) -> Option<Self> {
        String::from_utf8(d.bytes()?.to_vec()).ok()
    }
}

/// Encode-only: a slice decodes as a `Vec<T>` or an `Arc<[T]>`.
impl<T: Codec> Codec for [T] {
    const MIN_BYTES: usize = 8;
    fn enc(&self, e: &mut Enc) {
        self.len().enc(e);
        for v in self {
            v.enc(e);
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn enc(&self, e: &mut Enc) {
        self.as_slice().enc(e);
    }
    fn dec(d: &mut Dec) -> Option<Self> {
        let n = d.count(T::MIN_BYTES)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::dec(d)?);
        }
        Some(v)
    }
}

impl<T: Codec> Codec for Arc<[T]> {
    const MIN_BYTES: usize = 8;
    fn enc(&self, e: &mut Enc) {
        (**self).enc(e);
    }
    fn dec(d: &mut Dec) -> Option<Self> {
        Vec::dec(d).map(Arc::from)
    }
}

impl<T: Codec> Codec for Option<T> {
    const MIN_BYTES: usize = 1;
    fn enc(&self, e: &mut Enc) {
        match self {
            None => 0u8.enc(e),
            Some(v) => {
                1u8.enc(e);
                v.enc(e);
            }
        }
    }
    fn dec(d: &mut Dec) -> Option<Self> {
        match u8::dec(d)? {
            0 => Some(None),
            1 => Some(Some(T::dec(d)?)),
            _ => None,
        }
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    const MIN_BYTES: usize = 8;
    fn enc(&self, e: &mut Enc) {
        self.len().enc(e);
        for (k, v) in self {
            k.enc(e);
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec) -> Option<Self> {
        let n = d.count(K::MIN_BYTES + V::MIN_BYTES)?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let k = K::dec(d)?;
            map.insert(k, V::dec(d)?);
        }
        Some(map)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn enc(&self, e: &mut Enc) {
        self.0.enc(e);
        self.1.enc(e);
    }
    fn dec(d: &mut Dec) -> Option<Self> {
        Some((A::dec(d)?, B::dec(d)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES + C::MIN_BYTES;
    fn enc(&self, e: &mut Enc) {
        self.0.enc(e);
        self.1.enc(e);
        self.2.enc(e);
    }
    fn dec(d: &mut Dec) -> Option<Self> {
        Some((A::dec(d)?, B::dec(d)?, C::dec(d)?))
    }
}

/// A struct's layout: its fields, each once, in encoding order.
macro_rules! record {
    ($($ty:ident { $($field:ident: $ft:ty),* $(,)? })*) => {$(
        impl Codec for $ty {
            const MIN_BYTES: usize = 0 $(+ <$ft as Codec>::MIN_BYTES)*;
            fn enc(&self, e: &mut Enc) {
                $(<$ft as Codec>::enc(&self.$field, e);)*
            }
            fn dec(d: &mut Dec) -> Option<Self> {
                Some($ty { $($field: <$ft as Codec>::dec(d)?),* })
            }
        }
    )*};
}

/// A fieldless enum's layout: one tag byte per variant.
macro_rules! tags {
    ($($ty:ident { $($tag:literal => $variant:ident),* $(,)? })*) => {$(
        impl Codec for $ty {
            const MIN_BYTES: usize = 1;
            fn enc(&self, e: &mut Enc) {
                let tag: u8 = match self { $($ty::$variant => $tag),* };
                tag.enc(e);
            }
            fn dec(d: &mut Dec) -> Option<Self> {
                Some(match u8::dec(d)? { $($tag => $ty::$variant,)* _ => return None })
            }
        }
    )*};
}

tags! {
    SystemKind {
        0 => Cpu, 1 => Nmp, 2 => NmpPerm, 3 => NmpRand, 4 => NmpSeq, 5 => MondrianNoperm,
        6 => Mondrian,
    }
    OperatorKind {
        0 => Scan, 1 => Join, 2 => GroupBy, 3 => Sort, 4 => Union, 5 => Cogroup, 6 => FlatMap,
    }
    Concurrency { 0 => Serial, 1 => Branch, 2 => Stream, 3 => Auto }
}

record! {
    Tuple { key: u64, payload: u64 }
    PhaseOutcome {
        label: String, start: u64, end: u64, instructions: u64, simd_ops: u64,
        core_busy: Vec<f64>, overflows: u64, events: u64,
    }
    EnergyBreakdown {
        cores_j: f64, llc_j: f64, dram_dynamic_j: f64, dram_static_j: f64, serdes_j: f64,
        noc_j: f64,
    }
    MeshStats { messages: u64, hops: u64, bit_mm: f64, busy_time: u64 }
    SerDesStats { packets: u64, busy_bits: u64, busy_time: u64 }
    PartitionSpec { index: u32, first_vault: u32, vaults: u32, total_vaults: u32 }
    Aggregates { count: u64, sum: u64, sum_sq: u128, min: u64, max: u64 }
    StreamInfo { chunks: usize, chunk_partition_ps: Vec<u64> }
    Report {
        op: OperatorKind, system: SystemKind, phases: Vec<PhaseOutcome>, runtime_ps: u64,
        instructions: u64, energy: EnergyBreakdown, stats: Stats, verified: bool,
        shuffle_retries: u32, summary: String, output: OpOutput, partition: PartitionSpec,
        mesh_totals: MeshStats, serdes_totals: SerDesStats, stream: Option<StreamInfo>,
    }
    StageOutcome {
        spec: StageSpec, inputs: Vec<StageInput>, wave: usize, branch: usize, concurrent: bool,
        streamed: bool, serial_runtime_ps: u64, matches_serial: bool, output_digest: u64,
        input_rows: usize, output_rows: usize, reference_ok: bool, report: Report,
    }
    BranchSchedule {
        branch: usize, stages: Vec<usize>, first_vault: u32, vaults: u32, runtime_ps: u64,
        critical: bool, mesh: MeshStats,
    }
    WaveReport {
        wave: usize, concurrent: bool, runtime_ps: u64, serial_runtime_ps: u64,
        branches: Vec<BranchSchedule>, serdes: SerDesStats,
    }
    FusedEdge {
        producer: usize, consumer: usize, chunks: usize, streamed: bool, streamed_ps: u64,
        unfused_ps: u64,
    }
    PlannedLease { branch: usize, first_vault: u32, vaults: u32 }
    PlannedWaveReport { wave: usize, leases: Vec<PlannedLease> }
    PlannedEdgeReport { producer: usize, consumer: usize, chunks: usize }
    PlanReport {
        stage_predicted_ps: Vec<u64>, predicted_makespan_ps: u64, planner_won: bool,
        waves: Vec<PlannedWaveReport>, edges: Vec<PlannedEdgeReport>,
    }
    ScheduleReport {
        mode: Concurrency, waves: Vec<WaveReport>, fused: Vec<FusedEdge>, makespan_ps: u64,
    }
    PipelineReport {
        system: SystemKind, source_rows: usize, stages: Vec<StageOutcome>,
        schedule: ScheduleReport, planned: Option<PlanReport>, output: Vec<Tuple>,
    }
    StageEntry { input_rows: usize, reference_ok: bool, report: Report, projected: Arc<[Tuple]> }
}

impl Codec for StageInput {
    const MIN_BYTES: usize = 1;
    fn enc(&self, e: &mut Enc) {
        match *self {
            StageInput::Prev => 0u8.enc(e),
            StageInput::Source => 1u8.enc(e),
            StageInput::Stage(j) => (2u8, j).enc(e),
        }
    }
    fn dec(d: &mut Dec) -> Option<Self> {
        Some(match u8::dec(d)? {
            0 => StageInput::Prev,
            1 => StageInput::Source,
            2 => StageInput::Stage(usize::dec(d)?),
            _ => return None,
        })
    }
}

impl Codec for StageSpec {
    const MIN_BYTES: usize = 1;
    fn enc(&self, e: &mut Enc) {
        match *self {
            StageSpec::Filter { modulus, remainder } => (0u8, modulus, remainder).enc(e),
            StageSpec::LookupKey { key } => (1u8, key).enc(e),
            StageSpec::Map { key_mul, key_add } => (2u8, key_mul, key_add).enc(e),
            StageSpec::MapValues { mul, add } => (3u8, mul, add).enc(e),
            StageSpec::Union => 4u8.enc(e),
            StageSpec::FlatMap { fanout } => (5u8, fanout).enc(e),
            StageSpec::Cogroup => 6u8.enc(e),
            StageSpec::GroupByKey => 7u8.enc(e),
            StageSpec::ReduceByKey => 8u8.enc(e),
            StageSpec::CountByKey => 9u8.enc(e),
            StageSpec::AggregateByKey => 10u8.enc(e),
            StageSpec::SortByKey => 11u8.enc(e),
            StageSpec::Join { build: BuildSide::Dimension } => (12u8, 0u8).enc(e),
            StageSpec::Join { build: BuildSide::Stage(j) } => (12u8, 1u8, j).enc(e),
        }
    }
    fn dec(d: &mut Dec) -> Option<Self> {
        Some(match u8::dec(d)? {
            0 => StageSpec::Filter { modulus: u64::dec(d)?, remainder: u64::dec(d)? },
            1 => StageSpec::LookupKey { key: u64::dec(d)? },
            2 => StageSpec::Map { key_mul: u64::dec(d)?, key_add: u64::dec(d)? },
            3 => StageSpec::MapValues { mul: u64::dec(d)?, add: u64::dec(d)? },
            4 => StageSpec::Union,
            5 => StageSpec::FlatMap { fanout: u64::dec(d)? },
            6 => StageSpec::Cogroup,
            7 => StageSpec::GroupByKey,
            8 => StageSpec::ReduceByKey,
            9 => StageSpec::CountByKey,
            10 => StageSpec::AggregateByKey,
            11 => StageSpec::SortByKey,
            12 => StageSpec::Join {
                build: match u8::dec(d)? {
                    0 => BuildSide::Dimension,
                    1 => BuildSide::Stage(usize::dec(d)?),
                    _ => return None,
                },
            },
            _ => return None,
        })
    }
}

impl Codec for OpOutput {
    const MIN_BYTES: usize = 1;
    fn enc(&self, e: &mut Enc) {
        match self {
            OpOutput::Tuples(rel) => {
                0u8.enc(e);
                rel.enc(e);
            }
            OpOutput::Expanded { tuples, fanout } => {
                1u8.enc(e);
                tuples.enc(e);
                fanout.enc(e);
            }
            OpOutput::Groups(groups) => {
                2u8.enc(e);
                groups.enc(e);
            }
            OpOutput::CoGroups(groups) => {
                3u8.enc(e);
                groups.enc(e);
            }
            OpOutput::Rows(rows) => {
                4u8.enc(e);
                rows.enc(e);
            }
        }
    }
    fn dec(d: &mut Dec) -> Option<Self> {
        Some(match u8::dec(d)? {
            0 => OpOutput::Tuples(Vec::dec(d)?),
            1 => OpOutput::Expanded { tuples: Vec::dec(d)?, fanout: u64::dec(d)? },
            2 => OpOutput::Groups(BTreeMap::dec(d)?),
            3 => OpOutput::CoGroups(BTreeMap::dec(d)?),
            4 => OpOutput::Rows(Vec::dec(d)?),
            _ => return None,
        })
    }
}

impl Codec for Stat {
    const MIN_BYTES: usize = 9;
    fn enc(&self, e: &mut Enc) {
        match *self {
            Stat::Count(c) => (0u8, c).enc(e),
            Stat::Value(v) => (1u8, v).enc(e),
        }
    }
    fn dec(d: &mut Dec) -> Option<Self> {
        match u8::dec(d)? {
            0 => Some(Stat::Count(u64::dec(d)?)),
            1 => Some(Stat::Value(f64::dec(d)?)),
            _ => None,
        }
    }
}

/// A count, then `(key, stat)` pairs in key order, so they collect into
/// the registry in one pass; a key is never copied or searched for twice.
impl Codec for Stats {
    const MIN_BYTES: usize = 8;
    fn enc(&self, e: &mut Enc) {
        self.len().enc(e);
        for (k, stat) in self.iter() {
            e.bytes(k.as_bytes());
            stat.enc(e);
        }
    }
    fn dec(d: &mut Dec) -> Option<Self> {
        let n = d.count(<(String, Stat)>::MIN_BYTES)?;
        (0..n).map(|_| <(String, Stat)>::dec(d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mondrian_core::ExperimentBuilder;
    use mondrian_pipeline::{fnv1a, Pipeline, PipelineConfig, Stage};

    #[test]
    fn per_device_stats_roundtrip_to_an_equal_registry() {
        let mut report = ExperimentBuilder::new(OperatorKind::Join)
            .system(SystemKind::Mondrian)
            .tiny()
            .tuples_per_vault(32)
            .run();
        assert!(report.stats.iter().any(|(k, _)| k.starts_with("vault.")));
        assert!(report.stats.iter().any(|(k, _)| k.starts_with("mesh.")));
        // A partitioned core's L1 and both stat flavors, whatever the
        // simulated system happened to export.
        report.stats.add_count("l1.p0.2.misses", 7);
        report.stats.add_count("l1.p1.0.hits", 11);
        report.stats.add_value("mesh.at_v3.bit_mm", 1.5);
        report.stats.add_value("vault.9.util", 0.25);
        let back: Report = decode(&encode(&report)).expect("report decodes");
        assert_eq!(back.stats, report.stats);
        assert_eq!(format!("{back:?}"), format!("{report:?}"));
    }

    #[test]
    fn a_bad_stat_flavor_tag_fails_the_decode() {
        let mut stats = Stats::new();
        stats.add_count("vault.0.reads", 1);
        let mut bytes = encode(&stats);
        // Layout: count (8), key length (8), key, flavor tag, payload (8).
        let tag = 8 + 8 + "vault.0.reads".len();
        assert_eq!(decode(&bytes), Some(stats));
        bytes[tag] = 2;
        assert_eq!(decode::<Stats>(&bytes), None);
    }

    /// Records `value`'s encoding digest after checking that the bytes
    /// decode back to an equal value.
    fn pin<T: Codec + std::fmt::Debug>(pins: &mut Vec<(String, u64)>, name: String, value: &T) {
        let bytes = encode(value);
        let back: T = decode(&bytes).unwrap_or_else(|| panic!("{name} decodes"));
        assert_eq!(format!("{back:?}"), format!("{value:?}"), "{name} round-trips");
        pins.push((name, fnv1a(bytes)));
    }

    fn aggregates(n: u64) -> Aggregates {
        Aggregates { count: n, sum: n * 3, sum_sq: u128::from(n) << 70, min: 1, max: n + 5 }
    }

    /// The persisted layout, pinned: FNV-1a digests of the encodings of a
    /// small DAG's reports under every concurrency mode (a join with a
    /// stage build side, flat_map, union, cogroup; `auto` carries its
    /// plan), a stage entry holding a streamed report, and every
    /// `OpOutput`, `StageSpec` and tag variant.
    ///
    /// A digest that changes is a change of the on-disk layout: bump
    /// [`crate::STORE_FORMAT_VERSION`] with it, or existing stores decode
    /// into the wrong fields. The reports come from the engine, so an
    /// engine change that moves `engine_golden` moves their digests too;
    /// only then may they be regenerated without a bump.
    #[test]
    fn encoding_is_pinned() {
        let dag = Pipeline::from_stages(vec![
            Stage::chained(StageSpec::Filter { modulus: 10, remainder: 0 }),
            Stage::chained(StageSpec::FlatMap { fanout: 3 }),
            Stage::with_input(StageSpec::Filter { modulus: 3, remainder: 1 }, StageInput::Source),
            Stage::with_inputs(StageSpec::Union, vec![StageInput::Stage(1), StageInput::Stage(2)]),
            Stage::with_inputs(
                StageSpec::Cogroup,
                vec![StageInput::Stage(1), StageInput::Stage(2)],
            ),
            Stage::with_input(StageSpec::SortByKey, StageInput::Stage(2)),
            Stage::with_input(StageSpec::Join { build: BuildSide::Stage(5) }, StageInput::Stage(3)),
            Stage::chained(StageSpec::GroupByKey),
        ]);
        let modes =
            [Concurrency::Serial, Concurrency::Branch, Concurrency::Stream, Concurrency::Auto];
        let mut pins = Vec::new();
        let mut streamed = None;
        for mode in modes {
            let mut cfg = PipelineConfig::tiny(SystemKind::Mondrian);
            cfg.tuples_per_vault = 32;
            cfg.concurrency = mode;
            let report = dag.run(&cfg);
            assert!(report.verified());
            assert_eq!(report.planned.is_some(), mode == Concurrency::Auto);
            streamed = streamed
                .or_else(|| report.stages.iter().find(|s| s.report.stream.is_some()).cloned());
            pin(&mut pins, format!("report {mode:?}"), &report);
        }
        let stage = streamed.expect("the stream run streams a stage");
        let entry = StageEntry {
            input_rows: stage.input_rows,
            reference_ok: stage.reference_ok,
            report: stage.report,
            projected: vec![Tuple { key: 7, payload: 9 }, Tuple { key: 1, payload: u64::MAX }]
                .into(),
        };
        pin(&mut pins, "stage entry".into(), &entry);
        let rel = vec![Tuple { key: 3, payload: 4 }, Tuple { key: 0, payload: u64::MAX }];
        let outputs = [
            OpOutput::Tuples(rel.clone()),
            OpOutput::Expanded { tuples: rel, fanout: 3 },
            OpOutput::Groups([(2, aggregates(2)), (9, aggregates(9))].into()),
            OpOutput::CoGroups([(4, (aggregates(1), aggregates(4)))].into()),
            OpOutput::Rows(vec![(1, 2, 3), (u64::MAX, 0, 7)]),
        ];
        for (i, output) in outputs.iter().enumerate() {
            pin(&mut pins, format!("output {i}"), output);
        }
        let specs = [
            StageSpec::Filter { modulus: 10, remainder: 3 },
            StageSpec::LookupKey { key: 42 },
            StageSpec::Map { key_mul: 5, key_add: 6 },
            StageSpec::MapValues { mul: 7, add: 8 },
            StageSpec::Union,
            StageSpec::FlatMap { fanout: 4 },
            StageSpec::Cogroup,
            StageSpec::GroupByKey,
            StageSpec::ReduceByKey,
            StageSpec::CountByKey,
            StageSpec::AggregateByKey,
            StageSpec::SortByKey,
            StageSpec::Join { build: BuildSide::Dimension },
            StageSpec::Join { build: BuildSide::Stage(11) },
        ];
        for (i, spec) in specs.iter().enumerate() {
            pin(&mut pins, format!("spec {i}"), spec);
        }
        for system in SystemKind::ALL {
            pin(&mut pins, format!("system {system:?}"), &system);
        }
        let ops = [
            OperatorKind::Scan,
            OperatorKind::Join,
            OperatorKind::GroupBy,
            OperatorKind::Sort,
            OperatorKind::Union,
            OperatorKind::Cogroup,
            OperatorKind::FlatMap,
        ];
        for op in ops {
            pin(&mut pins, format!("op {op:?}"), &op);
        }
        for mode in modes {
            pin(&mut pins, format!("mode {mode:?}"), &mode);
        }
        // The three tag enums share one-byte encodings, hence digests; each
        // is listed by name so a renumbered variant shows as itself.
        let expected: &[(&str, u64)] = &[
            ("report Serial", 0x5ec7_57b2_8833_bcb1),
            ("report Branch", 0x3cfa_1bde_7932_d6cc),
            ("report Stream", 0xa17f_60ab_3615_4ce9),
            ("report Auto", 0x56fd_ea76_e5ad_2acf),
            ("stage entry", 0xa2d2_717c_4560_c533),
            ("output 0", 0x726e_6532_0bdb_8372),
            ("output 1", 0xbec8_68a7_4ce8_f1a2),
            ("output 2", 0x6a5f_afef_0e8c_439d),
            ("output 3", 0xcafc_627b_ea0a_e77d),
            ("output 4", 0xa519_e3ea_c8e8_af0e),
            ("spec 0", 0x5708_3a38_1e13_ef36),
            ("spec 1", 0xb960_a184_f070_32c6),
            ("spec 2", 0x1a93_123e_8dda_4806),
            ("spec 3", 0x81a2_0a98_cf89_67dd),
            ("spec 4", 0xaf63_b94c_8601_b113),
            ("spec 5", 0x80db_f38a_6946_83e4),
            ("spec 6", 0xaf63_bb4c_8601_b479),
            ("spec 7", 0xaf63_ba4c_8601_b2c6),
            ("spec 8", 0xaf63_c54c_8601_c577),
            ("spec 9", 0xaf63_c44c_8601_c3c4),
            ("spec 10", 0xaf63_c74c_8601_c8dd),
            ("spec 11", 0xaf63_c64c_8601_c72a),
            ("spec 12", 0x0840_2007_b4f6_fc91),
            ("spec 13", 0x222c_372b_3732_e775),
            ("system Cpu", 0xaf63_bd4c_8601_b7df),
            ("system Nmp", 0xaf63_bc4c_8601_b62c),
            ("system NmpPerm", 0xaf63_bf4c_8601_bb45),
            ("system NmpRand", 0xaf63_be4c_8601_b992),
            ("system NmpSeq", 0xaf63_b94c_8601_b113),
            ("system MondrianNoperm", 0xaf63_b84c_8601_af60),
            ("system Mondrian", 0xaf63_bb4c_8601_b479),
            ("op Scan", 0xaf63_bd4c_8601_b7df),
            ("op Join", 0xaf63_bc4c_8601_b62c),
            ("op GroupBy", 0xaf63_bf4c_8601_bb45),
            ("op Sort", 0xaf63_be4c_8601_b992),
            ("op Union", 0xaf63_b94c_8601_b113),
            ("op Cogroup", 0xaf63_b84c_8601_af60),
            ("op FlatMap", 0xaf63_bb4c_8601_b479),
            ("mode Serial", 0xaf63_bd4c_8601_b7df),
            ("mode Branch", 0xaf63_bc4c_8601_b62c),
            ("mode Stream", 0xaf63_bf4c_8601_bb45),
            ("mode Auto", 0xaf63_be4c_8601_b992),
        ];
        let expected: Vec<(String, u64)> =
            expected.iter().map(|&(name, digest)| (name.to_string(), digest)).collect();
        assert_eq!(pins, expected);
    }
}
