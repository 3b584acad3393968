//! Golden digests of the engine on the 64-vault `scaled` topology.
//!
//! Every checked-in baseline artifact runs on `tiny` (4 vaults), so these
//! pins are the tier-1 guard for the many-vault event loop: one Join per
//! evaluated system, digested over its runtime, every phase's
//! `(label, start, end, events)` and the full statistics registry. CPU
//! covers the LLC path, NMP the inter-HMC links, and Mondrian the stream
//! buffers and permutable scatter. A host-side engine change that keeps
//! the simulation byte-identical leaves every digest unchanged.

use mondrian_core::{ExperimentBuilder, OperatorKind, Report, SystemKind};
use mondrian_sim::Stat;

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
    h.0
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
