//! Golden digests of the engine, per operator driver and per topology.
//!
//! Each run is digested over its runtime, every phase's
//! `(label, start, end, events)` and the full statistics registry; the
//! `tiny` table also digests the captured output, the shuffle retries and
//! the per-chunk stream spans. A host-side engine change that keeps the
//! simulation byte-identical leaves every digest unchanged.
//!
//! - `tiny_operator_digests_are_pinned` covers every operator driver on
//!   the 4-vault `tiny` topology: the 7 operators on each of the 7
//!   systems, the streamed partition phase of Sort, Group-by, Join and
//!   Cogroup (primary input in 4 chunks, cogroup with an injected second
//!   side), and the §5.4 overflow/retry round of an underprovisioned
//!   Group-by on both permutable systems.
//! - `scaled_join_digests_are_pinned` guards the many-vault event loop on
//!   the 64-vault `scaled` topology: one Join per evaluated system. CPU
//!   covers the LLC path, NMP the inter-HMC links, and Mondrian the
//!   stream buffers and permutable scatter.
//! - `model_fingerprint_covers_the_goldens` holds
//!   `mondrian_core::MODEL_FINGERPRINT` to the two tables, so regenerating
//!   a digest also rotates every persistent store.

use std::sync::Arc;

use mondrian_core::{ExperimentBuilder, OperatorKind, Report, StageOutput, SystemKind};
use mondrian_sim::Stat;
use mondrian_workloads::{uniform_relation, Tuple};

/// `(system, FNV-1a digest)` for a Join on `scaled` at 16 tuples/vault,
/// seed 7. NMP and NMP-rand both run the hash-based probe, so their
/// digests coincide.
const GOLDEN: [(SystemKind, u64); 7] = [
    (SystemKind::Cpu, 0xe0d4_8542_9a4a_2ba5),
    (SystemKind::Nmp, 0x2eaa_1ee3_513f_060b),
    (SystemKind::NmpPerm, 0x0324_9cd4_5db2_53c6),
    (SystemKind::NmpRand, 0x2eaa_1ee3_513f_060b),
    (SystemKind::NmpSeq, 0xb4da_6ec0_7081_ea85),
    (SystemKind::MondrianNoperm, 0x7e21_61ed_318b_188e),
    (SystemKind::Mondrian, 0xcab0_0132_fdc5_2373),
];

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn digest(report: &Report) -> u64 {
    engine_hash(report).0
}

/// The engine digest extended with the functional output, the §5.4 retry
/// count and the streamed rounds' spans.
fn full_digest(report: &Report) -> u64 {
    let mut h = engine_hash(report);
    let tuples = |h: &mut Fnv, tuples: &[Tuple]| {
        h.u64(tuples.len() as u64);
        for t in tuples {
            h.u64(t.key);
            h.u64(t.payload);
        }
    };
    let groups = |h: &mut Fnv, a: &mondrian_ops::Aggregates| {
        h.u64(a.count);
        h.u64(a.sum);
        h.bytes(&a.sum_sq.to_le_bytes());
        h.u64(a.min);
        h.u64(a.max);
    };
    match &report.output {
        StageOutput::Tuples(v) => {
            h.u64(0);
            tuples(&mut h, v);
        }
        StageOutput::Expanded { tuples: v, fanout } => {
            h.u64(1);
            h.u64(*fanout);
            tuples(&mut h, v);
        }
        StageOutput::Groups(g) => {
            h.u64(2);
            h.u64(g.len() as u64);
            for (k, a) in g {
                h.u64(*k);
                groups(&mut h, a);
            }
        }
        StageOutput::CoGroups(g) => {
            h.u64(3);
            h.u64(g.len() as u64);
            for (k, (a, b)) in g {
                h.u64(*k);
                groups(&mut h, a);
                groups(&mut h, b);
            }
        }
        StageOutput::Rows(rows) => {
            h.u64(4);
            h.u64(rows.len() as u64);
            for &(k, r, s) in rows {
                h.u64(k);
                h.u64(r);
                h.u64(s);
            }
        }
    }
    h.u64(u64::from(report.shuffle_retries));
    if let Some(info) = &report.stream {
        h.u64(info.chunks as u64);
        for &t in &info.chunk_partition_ps {
            h.u64(t);
        }
    }
    h.0
}

#[test]
fn model_fingerprint_covers_the_goldens() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for d in GOLDEN.iter().map(|g| g.1).chain(TINY.iter().map(|t| t.1)) {
        h.u64(d);
    }
    assert_eq!(
        mondrian_core::MODEL_FINGERPRINT,
        h.0,
        "the golden tables changed; set MODEL_FINGERPRINT to {:#018x}",
        h.0
    );
}

fn engine_hash(report: &Report) -> Fnv {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(report.runtime_ps);
    for p in &report.phases {
        h.str(&p.label);
        h.u64(p.start);
        h.u64(p.end);
        h.u64(p.events);
    }
    for (key, stat) in report.stats.iter() {
        h.str(key);
        match stat {
            Stat::Count(c) => h.u64(c),
            Stat::Value(v) => h.u64(v.to_bits()),
        }
    }
    h
}

#[test]
fn scaled_join_digests_are_pinned() {
    let mismatches: Vec<String> = GOLDEN
        .iter()
        .filter_map(|&(system, want)| {
            let report = ExperimentBuilder::new(OperatorKind::Join)
                .system(system)
                .tuples_per_vault(16)
                .seed(7)
                .run();
            assert!(report.verified, "{system} failed verification");
            let got = digest(&report);
            (got != want).then(|| format!("(SystemKind::{system:?}, {got:#018x}),"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "engine output drifted; actual digests:\n{}",
        mismatches.join("\n")
    );
}

/// The `tiny` cases, in table order: `(case name, report)`. Every run is
/// seed 7 at 64 tuples/vault; streamed runs feed a 256-tuple relation in
/// 4 chunks of 64.
fn tiny_cases() -> Vec<(String, Report)> {
    let base = |op: OperatorKind, system: SystemKind| {
        ExperimentBuilder::new(op).system(system).tiny().tuples_per_vault(64).seed(7)
    };
    let primary = uniform_relation(256, 64, 7);
    let side_b: Arc<[Tuple]> = uniform_relation(192, 64, 8).into();
    let chunks: Vec<Arc<[Tuple]>> = primary.chunks(64).map(Arc::from).collect();
    let mut cases = Vec::new();
    for system in SystemKind::ALL {
        for op in OperatorKind::ALL {
            cases.push((format!("{op:?}/{system}"), base(op, system).run()));
        }
        for op in [OperatorKind::Sort, OperatorKind::GroupBy, OperatorKind::Join] {
            let report = base(op, system).streamed_input(chunks.clone()).run();
            cases.push((format!("stream {op:?}/{system}"), report));
        }
        let report = base(OperatorKind::Cogroup, system)
            .input(primary.clone())
            .add_input(side_b.clone())
            .streamed_input(chunks.clone())
            .run();
        cases.push((format!("stream Cogroup/{system}"), report));
    }
    for system in [SystemKind::NmpPerm, SystemKind::Mondrian] {
        let report = base(OperatorKind::GroupBy, system).underprovision_permutable(0.5).run();
        assert_eq!(report.shuffle_retries, 1, "{system}: one §5.4 retry");
        cases.push((format!("underprovision GroupBy/{system}"), report));
    }
    cases
}

/// `(case, FNV-1a full digest)` for every [`tiny_cases`] run.
const TINY: [(&str, u64); 79] = [
    ("Scan/CPU", 0x33a823bc07667371),
    ("Sort/CPU", 0x9512ced8b1255d9b),
    ("GroupBy/CPU", 0x2f9c9e7c7201e93c),
    ("Join/CPU", 0xc9ab88590e6bbccb),
    ("Union/CPU", 0x7328341b8090a8d2),
    ("Cogroup/CPU", 0x0ae449b8c8919f75),
    ("FlatMap/CPU", 0x2bba2ae8b52b825e),
    ("stream Sort/CPU", 0x27ddee0d381e9316),
    ("stream GroupBy/CPU", 0x5aac839644e3e543),
    ("stream Join/CPU", 0xb4a2bc30c4e3b4d7),
    ("stream Cogroup/CPU", 0x38cc129e1bc05b0c),
    ("Scan/NMP", 0x2214bc6ad7486385),
    ("Sort/NMP", 0x7e54c6fd5de5613f),
    ("GroupBy/NMP", 0x2ba574fe37cba8e4),
    ("Join/NMP", 0xae05d7299cb43239),
    ("Union/NMP", 0xcb54d9acbccc9dfb),
    ("Cogroup/NMP", 0x7b6d6581b739aedb),
    ("FlatMap/NMP", 0x107f45ae67b40ce0),
    ("stream Sort/NMP", 0x5f84e4c1e2b06086),
    ("stream GroupBy/NMP", 0x7ad74c635eeb3975),
    ("stream Join/NMP", 0xa08973debd057d66),
    ("stream Cogroup/NMP", 0xdd01538df434290a),
    ("Scan/NMP-perm", 0x2214bc6ad7486385),
    ("Sort/NMP-perm", 0x963afbea627f106d),
    ("GroupBy/NMP-perm", 0xdcb8a65907d5369e),
    ("Join/NMP-perm", 0x361cc41ba2e9207f),
    ("Union/NMP-perm", 0xcb54d9acbccc9dfb),
    ("Cogroup/NMP-perm", 0xe2f3098abeeb7732),
    ("FlatMap/NMP-perm", 0x107f45ae67b40ce0),
    ("stream Sort/NMP-perm", 0x442db03dbf11d397),
    ("stream GroupBy/NMP-perm", 0x108f3a709a451a20),
    ("stream Join/NMP-perm", 0x419c54bff0209716),
    ("stream Cogroup/NMP-perm", 0x2bfe8a9414afedfa),
    ("Scan/NMP-rand", 0x2214bc6ad7486385),
    ("Sort/NMP-rand", 0x7e54c6fd5de5613f),
    ("GroupBy/NMP-rand", 0x2ba574fe37cba8e4),
    ("Join/NMP-rand", 0xae05d7299cb43239),
    ("Union/NMP-rand", 0xcb54d9acbccc9dfb),
    ("Cogroup/NMP-rand", 0x7b6d6581b739aedb),
    ("FlatMap/NMP-rand", 0x107f45ae67b40ce0),
    ("stream Sort/NMP-rand", 0x5f84e4c1e2b06086),
    ("stream GroupBy/NMP-rand", 0x7ad74c635eeb3975),
    ("stream Join/NMP-rand", 0xa08973debd057d66),
    ("stream Cogroup/NMP-rand", 0xdd01538df434290a),
    ("Scan/NMP-seq", 0x2214bc6ad7486385),
    ("Sort/NMP-seq", 0x7e54c6fd5de5613f),
    ("GroupBy/NMP-seq", 0xd5cc1ae90be47393),
    ("Join/NMP-seq", 0x628bfaacc09432f2),
    ("Union/NMP-seq", 0xcb54d9acbccc9dfb),
    ("Cogroup/NMP-seq", 0xf44cf30d76a16126),
    ("FlatMap/NMP-seq", 0x107f45ae67b40ce0),
    ("stream Sort/NMP-seq", 0x5f84e4c1e2b06086),
    ("stream GroupBy/NMP-seq", 0x3a3a3bc7570019b0),
    ("stream Join/NMP-seq", 0xcdfc75624c7f7c52),
    ("stream Cogroup/NMP-seq", 0xf105282cfbd5cede),
    ("Scan/Mondrian-noperm", 0x98ff2294148f6213),
    ("Sort/Mondrian-noperm", 0xbca0a8e02cc1dc2f),
    ("GroupBy/Mondrian-noperm", 0x094d78e5a91595c5),
    ("Join/Mondrian-noperm", 0x3a2d16b3e2644390),
    ("Union/Mondrian-noperm", 0x2f7dab89cf315905),
    ("Cogroup/Mondrian-noperm", 0x5fe27523dc34d3be),
    ("FlatMap/Mondrian-noperm", 0x169ed412721d6c56),
    ("stream Sort/Mondrian-noperm", 0x3d0fc2b754b1ce80),
    ("stream GroupBy/Mondrian-noperm", 0x4ea867b8d944997c),
    ("stream Join/Mondrian-noperm", 0x068763838c5471c1),
    ("stream Cogroup/Mondrian-noperm", 0xc1b5f9a7ca9e7045),
    ("Scan/Mondrian", 0x98ff2294148f6213),
    ("Sort/Mondrian", 0x5aa57450335d1d7f),
    ("GroupBy/Mondrian", 0x2b8cbdd274c12faa),
    ("Join/Mondrian", 0xf2406cde27eb39cf),
    ("Union/Mondrian", 0x2f7dab89cf315905),
    ("Cogroup/Mondrian", 0xa9a3cebcf8dd0bf5),
    ("FlatMap/Mondrian", 0x169ed412721d6c56),
    ("stream Sort/Mondrian", 0xe7034b35216fab6f),
    ("stream GroupBy/Mondrian", 0xf1fb8664c71f7e70),
    ("stream Join/Mondrian", 0x6456814c4e1eb228),
    ("stream Cogroup/Mondrian", 0xcbd60840bd7e507e),
    ("underprovision GroupBy/NMP-perm", 0xe4281e04153bda9a),
    ("underprovision GroupBy/Mondrian", 0xea26d7b8db06d3fe),
];

#[test]
fn tiny_operator_digests_are_pinned() {
    let actual: Vec<(String, u64)> = tiny_cases()
        .iter()
        .map(|(name, report)| {
            assert!(report.verified, "{name} failed verification");
            (name.clone(), full_digest(report))
        })
        .collect();
    let drifted = actual.len() != TINY.len()
        || actual
            .iter()
            .zip(TINY)
            .any(|((name, got), (want_name, want))| name != want_name || *got != want);
    assert!(
        !drifted,
        "engine output drifted; actual digests:\n{}",
        actual
            .iter()
            .map(|(name, got)| format!("    (\"{name}\", {got:#018x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
