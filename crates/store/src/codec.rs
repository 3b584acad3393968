//! A hand-rolled binary codec for the persisted result types.
//!
//! The repository deliberately carries no serialization dependency, so the
//! store encodes the [`PipelineReport`] tree the same way the CLI renders
//! JSON: by hand, field by field. The format is little-endian,
//! length-prefixed, and strictly versioned by [`crate::STORE_FORMAT_VERSION`]
//! — any layout change must bump that constant, which rotates the on-disk
//! directory instead of attempting migration.
//!
//! Every decoder returns `Option`: a short buffer, an invalid enum tag, an
//! implausible length, or malformed UTF-8 yields `None`, which the store
//! treats as a cache miss (the entry is re-simulated and overwritten).

use std::collections::BTreeMap;
use std::sync::Arc;

use mondrian_core::{OperatorKind, PartitionSpec, PhaseOutcome, Report, StreamInfo, SystemKind};
use mondrian_energy::EnergyBreakdown;
use mondrian_noc::{MeshStats, SerDesStats};
use mondrian_ops::reference::JoinRow;
use mondrian_ops::{Aggregates, OpOutput};
use mondrian_pipeline::{
    BranchSchedule, BuildSide, Concurrency, FusedEdge, PipelineReport, PlanReport,
    PlannedEdgeReport, PlannedLease, PlannedWaveReport, ScheduleReport, StageEntry, StageInput,
    StageOutcome, StageSpec, WaveReport,
};
use mondrian_sim::{Stat, Stats};
use mondrian_workloads::Tuple;

/// Byte sink for the encoders.
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
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

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn u128(&mut self) -> Option<u128> {
        Some(u128::from_le_bytes(self.take(16)?.try_into().ok()?))
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn str(&mut self) -> Option<String> {
        let len = self.len(1)?;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    /// A length prefix, sanity-bounded by the remaining bytes: a corrupted
    /// length field must fail the decode, not attempt a huge allocation.
    fn len(&mut self, min_elem_bytes: usize) -> Option<usize> {
        let n = self.usize()?;
        let remaining = self.buf.len() - self.pos;
        if n.checked_mul(min_elem_bytes.max(1))? > remaining {
            return None;
        }
        Some(n)
    }
}

fn w_tuple(e: &mut Enc, t: &Tuple) {
    e.u64(t.key);
    e.u64(t.payload);
}

fn r_tuple(d: &mut Dec) -> Option<Tuple> {
    Some(Tuple { key: d.u64()?, payload: d.u64()? })
}

fn w_tuples(e: &mut Enc, rel: &[Tuple]) {
    e.usize(rel.len());
    for t in rel {
        w_tuple(e, t);
    }
}

fn r_tuples(d: &mut Dec) -> Option<Vec<Tuple>> {
    let n = d.len(16)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(r_tuple(d)?);
    }
    Some(v)
}

fn w_system(e: &mut Enc, s: SystemKind) {
    e.u8(match s {
        SystemKind::Cpu => 0,
        SystemKind::Nmp => 1,
        SystemKind::NmpPerm => 2,
        SystemKind::NmpRand => 3,
        SystemKind::NmpSeq => 4,
        SystemKind::MondrianNoperm => 5,
        SystemKind::Mondrian => 6,
    });
}

fn r_system(d: &mut Dec) -> Option<SystemKind> {
    Some(match d.u8()? {
        0 => SystemKind::Cpu,
        1 => SystemKind::Nmp,
        2 => SystemKind::NmpPerm,
        3 => SystemKind::NmpRand,
        4 => SystemKind::NmpSeq,
        5 => SystemKind::MondrianNoperm,
        6 => SystemKind::Mondrian,
        _ => return None,
    })
}

fn w_op_kind(e: &mut Enc, op: OperatorKind) {
    e.u8(match op {
        OperatorKind::Scan => 0,
        OperatorKind::Join => 1,
        OperatorKind::GroupBy => 2,
        OperatorKind::Sort => 3,
        OperatorKind::Union => 4,
        OperatorKind::Cogroup => 5,
        OperatorKind::FlatMap => 6,
    });
}

fn r_op_kind(d: &mut Dec) -> Option<OperatorKind> {
    Some(match d.u8()? {
        0 => OperatorKind::Scan,
        1 => OperatorKind::Join,
        2 => OperatorKind::GroupBy,
        3 => OperatorKind::Sort,
        4 => OperatorKind::Union,
        5 => OperatorKind::Cogroup,
        6 => OperatorKind::FlatMap,
        _ => return None,
    })
}

fn w_concurrency(e: &mut Enc, c: Concurrency) {
    e.u8(match c {
        Concurrency::Serial => 0,
        Concurrency::Branch => 1,
        Concurrency::Stream => 2,
        Concurrency::Auto => 3,
    });
}

fn r_concurrency(d: &mut Dec) -> Option<Concurrency> {
    Some(match d.u8()? {
        0 => Concurrency::Serial,
        1 => Concurrency::Branch,
        2 => Concurrency::Stream,
        3 => Concurrency::Auto,
        _ => return None,
    })
}

fn w_stage_input(e: &mut Enc, i: StageInput) {
    match i {
        StageInput::Prev => e.u8(0),
        StageInput::Source => e.u8(1),
        StageInput::Stage(j) => {
            e.u8(2);
            e.usize(j);
        }
    }
}

fn r_stage_input(d: &mut Dec) -> Option<StageInput> {
    Some(match d.u8()? {
        0 => StageInput::Prev,
        1 => StageInput::Source,
        2 => StageInput::Stage(d.usize()?),
        _ => return None,
    })
}

fn w_stage_spec(e: &mut Enc, s: &StageSpec) {
    match *s {
        StageSpec::Filter { modulus, remainder } => {
            e.u8(0);
            e.u64(modulus);
            e.u64(remainder);
        }
        StageSpec::LookupKey { key } => {
            e.u8(1);
            e.u64(key);
        }
        StageSpec::Map { key_mul, key_add } => {
            e.u8(2);
            e.u64(key_mul);
            e.u64(key_add);
        }
        StageSpec::MapValues { mul, add } => {
            e.u8(3);
            e.u64(mul);
            e.u64(add);
        }
        StageSpec::Union => e.u8(4),
        StageSpec::FlatMap { fanout } => {
            e.u8(5);
            e.u64(fanout);
        }
        StageSpec::Cogroup => e.u8(6),
        StageSpec::GroupByKey => e.u8(7),
        StageSpec::ReduceByKey => e.u8(8),
        StageSpec::CountByKey => e.u8(9),
        StageSpec::AggregateByKey => e.u8(10),
        StageSpec::SortByKey => e.u8(11),
        StageSpec::Join { build } => {
            e.u8(12);
            match build {
                BuildSide::Dimension => e.u8(0),
                BuildSide::Stage(j) => {
                    e.u8(1);
                    e.usize(j);
                }
            }
        }
    }
}

fn r_stage_spec(d: &mut Dec) -> Option<StageSpec> {
    Some(match d.u8()? {
        0 => StageSpec::Filter { modulus: d.u64()?, remainder: d.u64()? },
        1 => StageSpec::LookupKey { key: d.u64()? },
        2 => StageSpec::Map { key_mul: d.u64()?, key_add: d.u64()? },
        3 => StageSpec::MapValues { mul: d.u64()?, add: d.u64()? },
        4 => StageSpec::Union,
        5 => StageSpec::FlatMap { fanout: d.u64()? },
        6 => StageSpec::Cogroup,
        7 => StageSpec::GroupByKey,
        8 => StageSpec::ReduceByKey,
        9 => StageSpec::CountByKey,
        10 => StageSpec::AggregateByKey,
        11 => StageSpec::SortByKey,
        12 => StageSpec::Join {
            build: match d.u8()? {
                0 => BuildSide::Dimension,
                1 => BuildSide::Stage(d.usize()?),
                _ => return None,
            },
        },
        _ => return None,
    })
}

fn w_phase(e: &mut Enc, p: &PhaseOutcome) {
    e.str(&p.label);
    e.u64(p.start);
    e.u64(p.end);
    e.u64(p.instructions);
    e.u64(p.simd_ops);
    e.usize(p.core_busy.len());
    for &b in &p.core_busy {
        e.f64(b);
    }
    e.u64(p.overflows);
    e.u64(p.events);
}

fn r_phase(d: &mut Dec) -> Option<PhaseOutcome> {
    let label = d.str()?;
    let start = d.u64()?;
    let end = d.u64()?;
    let instructions = d.u64()?;
    let simd_ops = d.u64()?;
    let n = d.len(8)?;
    let mut core_busy = Vec::with_capacity(n);
    for _ in 0..n {
        core_busy.push(d.f64()?);
    }
    Some(PhaseOutcome {
        label,
        start,
        end,
        instructions,
        simd_ops,
        core_busy,
        overflows: d.u64()?,
        events: d.u64()?,
    })
}

fn w_energy(e: &mut Enc, b: &EnergyBreakdown) {
    e.f64(b.cores_j);
    e.f64(b.llc_j);
    e.f64(b.dram_dynamic_j);
    e.f64(b.dram_static_j);
    e.f64(b.serdes_j);
    e.f64(b.noc_j);
}

fn r_energy(d: &mut Dec) -> Option<EnergyBreakdown> {
    Some(EnergyBreakdown {
        cores_j: d.f64()?,
        llc_j: d.f64()?,
        dram_dynamic_j: d.f64()?,
        dram_static_j: d.f64()?,
        serdes_j: d.f64()?,
        noc_j: d.f64()?,
    })
}

fn w_stats(e: &mut Enc, s: &Stats) {
    e.usize(s.len());
    for (k, stat) in s.iter() {
        e.str(k);
        match stat {
            Stat::Count(c) => {
                e.u8(0);
                e.u64(c);
            }
            Stat::Value(v) => {
                e.u8(1);
                e.f64(v);
            }
        }
    }
}

/// The pairs arrive in key order, so they collect into the registry in
/// one pass; a key is never copied or searched for twice.
fn r_stats(d: &mut Dec) -> Option<Stats> {
    let n = d.len(17)?;
    (0..n)
        .map(|_| {
            let key = d.str()?;
            let stat = match d.u8()? {
                0 => Stat::Count(d.u64()?),
                1 => Stat::Value(d.f64()?),
                _ => return None,
            };
            Some((key, stat))
        })
        .collect()
}

fn w_mesh(e: &mut Enc, m: &MeshStats) {
    e.u64(m.messages);
    e.u64(m.hops);
    e.f64(m.bit_mm);
    e.u64(m.busy_time);
}

fn r_mesh(d: &mut Dec) -> Option<MeshStats> {
    Some(MeshStats { messages: d.u64()?, hops: d.u64()?, bit_mm: d.f64()?, busy_time: d.u64()? })
}

fn w_serdes(e: &mut Enc, s: &SerDesStats) {
    e.u64(s.packets);
    e.u64(s.busy_bits);
    e.u64(s.busy_time);
}

fn r_serdes(d: &mut Dec) -> Option<SerDesStats> {
    Some(SerDesStats { packets: d.u64()?, busy_bits: d.u64()?, busy_time: d.u64()? })
}

fn w_partition(e: &mut Enc, p: &PartitionSpec) {
    e.u32(p.index);
    e.u32(p.first_vault);
    e.u32(p.vaults);
    e.u32(p.total_vaults);
}

fn r_partition(d: &mut Dec) -> Option<PartitionSpec> {
    Some(PartitionSpec {
        index: d.u32()?,
        first_vault: d.u32()?,
        vaults: d.u32()?,
        total_vaults: d.u32()?,
    })
}

fn w_aggregates(e: &mut Enc, a: &Aggregates) {
    e.u64(a.count);
    e.u64(a.sum);
    e.u128(a.sum_sq);
    e.u64(a.min);
    e.u64(a.max);
}

fn r_aggregates(d: &mut Dec) -> Option<Aggregates> {
    Some(Aggregates {
        count: d.u64()?,
        sum: d.u64()?,
        sum_sq: d.u128()?,
        min: d.u64()?,
        max: d.u64()?,
    })
}

fn w_op_output(e: &mut Enc, o: &OpOutput) {
    match o {
        OpOutput::Tuples(rel) => {
            e.u8(0);
            w_tuples(e, rel);
        }
        OpOutput::Expanded { tuples, fanout } => {
            e.u8(1);
            w_tuples(e, tuples);
            e.u64(*fanout);
        }
        OpOutput::Groups(groups) => {
            e.u8(2);
            e.usize(groups.len());
            for (&k, a) in groups {
                e.u64(k);
                w_aggregates(e, a);
            }
        }
        OpOutput::CoGroups(groups) => {
            e.u8(3);
            e.usize(groups.len());
            for (&k, (a, b)) in groups {
                e.u64(k);
                w_aggregates(e, a);
                w_aggregates(e, b);
            }
        }
        OpOutput::Rows(rows) => {
            e.u8(4);
            e.usize(rows.len());
            for &(k, r, s) in rows {
                e.u64(k);
                e.u64(r);
                e.u64(s);
            }
        }
    }
}

fn r_op_output(d: &mut Dec) -> Option<OpOutput> {
    Some(match d.u8()? {
        0 => OpOutput::Tuples(r_tuples(d)?),
        1 => OpOutput::Expanded { tuples: r_tuples(d)?, fanout: d.u64()? },
        2 => {
            let n = d.len(48)?;
            let mut groups = BTreeMap::new();
            for _ in 0..n {
                let k = d.u64()?;
                groups.insert(k, r_aggregates(d)?);
            }
            OpOutput::Groups(groups)
        }
        3 => {
            let n = d.len(88)?;
            let mut groups = BTreeMap::new();
            for _ in 0..n {
                let k = d.u64()?;
                let a = r_aggregates(d)?;
                let b = r_aggregates(d)?;
                groups.insert(k, (a, b));
            }
            OpOutput::CoGroups(groups)
        }
        4 => {
            let n = d.len(24)?;
            let mut rows: Vec<JoinRow> = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push((d.u64()?, d.u64()?, d.u64()?));
            }
            OpOutput::Rows(rows)
        }
        _ => return None,
    })
}

fn w_stream_info(e: &mut Enc, s: &Option<StreamInfo>) {
    match s {
        None => e.u8(0),
        Some(info) => {
            e.u8(1);
            e.usize(info.chunks);
            e.usize(info.chunk_partition_ps.len());
            for &t in &info.chunk_partition_ps {
                e.u64(t);
            }
        }
    }
}

fn r_stream_info(d: &mut Dec) -> Option<Option<StreamInfo>> {
    Some(match d.u8()? {
        0 => None,
        1 => {
            let chunks = d.usize()?;
            let n = d.len(8)?;
            let mut chunk_partition_ps = Vec::with_capacity(n);
            for _ in 0..n {
                chunk_partition_ps.push(d.u64()?);
            }
            Some(StreamInfo { chunks, chunk_partition_ps })
        }
        _ => return None,
    })
}

fn w_report(e: &mut Enc, r: &Report) {
    w_op_kind(e, r.op);
    w_system(e, r.system);
    e.usize(r.phases.len());
    for p in &r.phases {
        w_phase(e, p);
    }
    e.u64(r.runtime_ps);
    e.u64(r.instructions);
    w_energy(e, &r.energy);
    w_stats(e, &r.stats);
    e.bool(r.verified);
    e.u32(r.shuffle_retries);
    e.str(&r.summary);
    w_op_output(e, &r.output);
    w_partition(e, &r.partition);
    w_mesh(e, &r.mesh_totals);
    w_serdes(e, &r.serdes_totals);
    w_stream_info(e, &r.stream);
}

fn r_report(d: &mut Dec) -> Option<Report> {
    let op = r_op_kind(d)?;
    let system = r_system(d)?;
    let n = d.len(1)?;
    let mut phases = Vec::with_capacity(n);
    for _ in 0..n {
        phases.push(r_phase(d)?);
    }
    Some(Report {
        op,
        system,
        phases,
        runtime_ps: d.u64()?,
        instructions: d.u64()?,
        energy: r_energy(d)?,
        stats: r_stats(d)?,
        verified: d.bool()?,
        shuffle_retries: d.u32()?,
        summary: d.str()?,
        output: r_op_output(d)?,
        partition: r_partition(d)?,
        mesh_totals: r_mesh(d)?,
        serdes_totals: r_serdes(d)?,
        stream: r_stream_info(d)?,
    })
}

fn w_stage_outcome(e: &mut Enc, s: &StageOutcome) {
    w_stage_spec(e, &s.spec);
    e.usize(s.inputs.len());
    for &i in &s.inputs {
        w_stage_input(e, i);
    }
    e.usize(s.wave);
    e.usize(s.branch);
    e.bool(s.concurrent);
    e.bool(s.streamed);
    e.u64(s.serial_runtime_ps);
    e.bool(s.matches_serial);
    e.u64(s.output_digest);
    e.usize(s.input_rows);
    e.usize(s.output_rows);
    e.bool(s.reference_ok);
    w_report(e, &s.report);
}

fn r_stage_outcome(d: &mut Dec) -> Option<StageOutcome> {
    let spec = r_stage_spec(d)?;
    let n = d.len(1)?;
    let mut inputs = Vec::with_capacity(n);
    for _ in 0..n {
        inputs.push(r_stage_input(d)?);
    }
    Some(StageOutcome {
        spec,
        inputs,
        wave: d.usize()?,
        branch: d.usize()?,
        concurrent: d.bool()?,
        streamed: d.bool()?,
        serial_runtime_ps: d.u64()?,
        matches_serial: d.bool()?,
        output_digest: d.u64()?,
        input_rows: d.usize()?,
        output_rows: d.usize()?,
        reference_ok: d.bool()?,
        report: r_report(d)?,
    })
}

fn w_branch(e: &mut Enc, b: &BranchSchedule) {
    e.usize(b.branch);
    e.usize(b.stages.len());
    for &s in &b.stages {
        e.usize(s);
    }
    e.u32(b.first_vault);
    e.u32(b.vaults);
    e.u64(b.runtime_ps);
    e.bool(b.critical);
    w_mesh(e, &b.mesh);
}

fn r_branch(d: &mut Dec) -> Option<BranchSchedule> {
    let branch = d.usize()?;
    let n = d.len(8)?;
    let mut stages = Vec::with_capacity(n);
    for _ in 0..n {
        stages.push(d.usize()?);
    }
    Some(BranchSchedule {
        branch,
        stages,
        first_vault: d.u32()?,
        vaults: d.u32()?,
        runtime_ps: d.u64()?,
        critical: d.bool()?,
        mesh: r_mesh(d)?,
    })
}

fn w_wave(e: &mut Enc, w: &WaveReport) {
    e.usize(w.wave);
    e.bool(w.concurrent);
    e.u64(w.runtime_ps);
    e.u64(w.serial_runtime_ps);
    e.usize(w.branches.len());
    for b in &w.branches {
        w_branch(e, b);
    }
    w_serdes(e, &w.serdes);
}

fn r_wave(d: &mut Dec) -> Option<WaveReport> {
    let wave = d.usize()?;
    let concurrent = d.bool()?;
    let runtime_ps = d.u64()?;
    let serial_runtime_ps = d.u64()?;
    let n = d.len(1)?;
    let mut branches = Vec::with_capacity(n);
    for _ in 0..n {
        branches.push(r_branch(d)?);
    }
    Some(WaveReport {
        wave,
        concurrent,
        runtime_ps,
        serial_runtime_ps,
        branches,
        serdes: r_serdes(d)?,
    })
}

fn w_fused(e: &mut Enc, f: &FusedEdge) {
    e.usize(f.producer);
    e.usize(f.consumer);
    e.usize(f.chunks);
    e.bool(f.streamed);
    e.u64(f.streamed_ps);
    e.u64(f.unfused_ps);
}

fn r_fused(d: &mut Dec) -> Option<FusedEdge> {
    Some(FusedEdge {
        producer: d.usize()?,
        consumer: d.usize()?,
        chunks: d.usize()?,
        streamed: d.bool()?,
        streamed_ps: d.u64()?,
        unfused_ps: d.u64()?,
    })
}

fn w_planned(e: &mut Enc, p: &PlanReport) {
    e.usize(p.stage_predicted_ps.len());
    for &t in &p.stage_predicted_ps {
        e.u64(t);
    }
    e.u64(p.predicted_makespan_ps);
    e.bool(p.planner_won);
    e.usize(p.waves.len());
    for w in &p.waves {
        e.usize(w.wave);
        e.usize(w.leases.len());
        for l in &w.leases {
            e.usize(l.branch);
            e.u32(l.first_vault);
            e.u32(l.vaults);
        }
    }
    e.usize(p.edges.len());
    for edge in &p.edges {
        e.usize(edge.producer);
        e.usize(edge.consumer);
        e.usize(edge.chunks);
    }
}

fn r_planned(d: &mut Dec) -> Option<PlanReport> {
    let n = d.len(8)?;
    let mut stage_predicted_ps = Vec::with_capacity(n);
    for _ in 0..n {
        stage_predicted_ps.push(d.u64()?);
    }
    let predicted_makespan_ps = d.u64()?;
    let planner_won = d.bool()?;
    let n = d.len(1)?;
    let mut waves = Vec::with_capacity(n);
    for _ in 0..n {
        let wave = d.usize()?;
        let k = d.len(8)?;
        let mut leases = Vec::with_capacity(k);
        for _ in 0..k {
            leases.push(PlannedLease {
                branch: d.usize()?,
                first_vault: d.u32()?,
                vaults: d.u32()?,
            });
        }
        waves.push(PlannedWaveReport { wave, leases });
    }
    let n = d.len(8)?;
    let mut edges = Vec::with_capacity(n);
    for _ in 0..n {
        edges.push(PlannedEdgeReport {
            producer: d.usize()?,
            consumer: d.usize()?,
            chunks: d.usize()?,
        });
    }
    Some(PlanReport { stage_predicted_ps, predicted_makespan_ps, planner_won, waves, edges })
}

fn w_schedule(e: &mut Enc, s: &ScheduleReport) {
    w_concurrency(e, s.mode);
    e.usize(s.waves.len());
    for w in &s.waves {
        w_wave(e, w);
    }
    e.usize(s.fused.len());
    for f in &s.fused {
        w_fused(e, f);
    }
    e.u64(s.makespan_ps);
}

fn r_schedule(d: &mut Dec) -> Option<ScheduleReport> {
    let mode = r_concurrency(d)?;
    let n = d.len(1)?;
    let mut waves = Vec::with_capacity(n);
    for _ in 0..n {
        waves.push(r_wave(d)?);
    }
    let n = d.len(1)?;
    let mut fused = Vec::with_capacity(n);
    for _ in 0..n {
        fused.push(r_fused(d)?);
    }
    Some(ScheduleReport { mode, waves, fused, makespan_ps: d.u64()? })
}

/// Serializes a full-run [`PipelineReport`].
pub(crate) fn encode_pipeline_report(r: &PipelineReport) -> Vec<u8> {
    let mut e = Enc::new();
    w_system(&mut e, r.system);
    e.usize(r.source_rows);
    e.usize(r.stages.len());
    for s in &r.stages {
        w_stage_outcome(&mut e, s);
    }
    w_schedule(&mut e, &r.schedule);
    match &r.planned {
        Some(p) => {
            e.bool(true);
            w_planned(&mut e, p);
        }
        None => e.bool(false),
    }
    w_tuples(&mut e, &r.output);
    e.into_bytes()
}

/// Deserializes a full-run [`PipelineReport`]; `None` on any corruption.
pub(crate) fn decode_pipeline_report(buf: &[u8]) -> Option<PipelineReport> {
    let mut d = Dec::new(buf);
    let system = r_system(&mut d)?;
    let source_rows = d.usize()?;
    let n = d.len(1)?;
    let mut stages = Vec::with_capacity(n);
    for _ in 0..n {
        stages.push(r_stage_outcome(&mut d)?);
    }
    let schedule = r_schedule(&mut d)?;
    let planned = if d.bool()? { Some(r_planned(&mut d)?) } else { None };
    let output = r_tuples(&mut d)?;
    if !d.done() {
        return None;
    }
    Some(PipelineReport { system, source_rows, stages, schedule, planned, output })
}

/// Serializes a per-stage [`StageEntry`].
pub(crate) fn encode_stage_entry(entry: &StageEntry) -> Vec<u8> {
    let mut e = Enc::new();
    e.usize(entry.input_rows);
    e.bool(entry.reference_ok);
    w_report(&mut e, &entry.report);
    w_tuples(&mut e, &entry.projected);
    e.into_bytes()
}

/// Deserializes a per-stage [`StageEntry`]; `None` on any corruption.
pub(crate) fn decode_stage_entry(buf: &[u8]) -> Option<StageEntry> {
    let mut d = Dec::new(buf);
    let input_rows = d.usize()?;
    let reference_ok = d.bool()?;
    let report = r_report(&mut d)?;
    let projected: Arc<[Tuple]> = r_tuples(&mut d)?.into();
    if !d.done() {
        return None;
    }
    Some(StageEntry { input_rows, reference_ok, report, projected })
}

/// Serializes a reference-prefix relation.
pub(crate) fn encode_rel(rel: &[Tuple]) -> Vec<u8> {
    let mut e = Enc::new();
    w_tuples(&mut e, rel);
    e.into_bytes()
}

/// Deserializes a reference-prefix relation; `None` on any corruption.
pub(crate) fn decode_rel(buf: &[u8]) -> Option<Arc<[Tuple]>> {
    let mut d = Dec::new(buf);
    let rel = r_tuples(&mut d)?;
    if !d.done() {
        return None;
    }
    Some(rel.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mondrian_core::ExperimentBuilder;

    fn roundtrip(report: &Report) -> Option<Report> {
        let mut e = Enc::new();
        w_report(&mut e, report);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = r_report(&mut d)?;
        d.done().then_some(back)
    }

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
        let back = roundtrip(&report).expect("report decodes");
        assert_eq!(back.stats, report.stats);
        assert_eq!(format!("{back:?}"), format!("{report:?}"));
    }

    #[test]
    fn a_bad_stat_flavor_tag_fails_the_decode() {
        let mut stats = Stats::new();
        stats.add_count("vault.0.reads", 1);
        let mut e = Enc::new();
        w_stats(&mut e, &stats);
        let mut bytes = e.into_bytes();
        // Layout: count (8), key length (8), key, flavor tag, payload (8).
        let tag = 8 + 8 + "vault.0.reads".len();
        assert_eq!(r_stats(&mut Dec::new(&bytes)), Some(stats));
        bytes[tag] = 2;
        assert_eq!(r_stats(&mut Dec::new(&bytes)), None);
    }
}
