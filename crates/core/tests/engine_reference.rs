//! The engine's one correctness statement, swept as a property: on random
//! uniform and Zipfian relations, every operator's engine output equals
//! its registered reference (`mondrian_ops::Operator::reference`) over the
//! relations the test injected, and the run reports itself verified.
//!
//! Each case draws a seed, a key distribution, relation sizes and operator
//! parameters, picks one of the seven systems in rotation (so every
//! probe family, both scatter kinds and the SIMD units take turns), and
//! runs all seven operators on the tiny topology. Partition-phase
//! operators take their primary input streamed in chunks on odd cases.

use std::sync::Arc;

use mondrian_core::{ExperimentBuilder, OperatorKind, SystemKind};
use mondrian_ops::{operator, OpInvocation, OpSpec, ScanPredicate};
use mondrian_workloads::{uniform_relation, zipfian_relation, Tuple};

/// Cases swept; each runs every operator once.
const CASES: u64 = 28;

/// A small deterministic generator for the case parameters.
struct Draw(u64);

impl Draw {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = mondrian_ops::mix64(self.0.wrapping_add(0x9e37_79b9_7f4a_7c15));
        self.0 % bound
    }
}

/// A generated relation under one of the swept key distributions.
fn relation(n: usize, key_bound: u64, dist: u64, seed: u64) -> Vec<Tuple> {
    match dist {
        0 => uniform_relation(n, key_bound, seed),
        1 => zipfian_relation(n, key_bound, 0.5, seed),
        2 => zipfian_relation(n, key_bound, 0.9, seed),
        // Heavy skew: most tuples share very few keys.
        _ => zipfian_relation(n, key_bound, 1.2, seed),
    }
}

#[test]
fn every_operator_on_the_engine_equals_its_reference() {
    for case in 0..CASES {
        let mut draw = Draw(case);
        let system = SystemKind::ALL[(case % 7) as usize];
        let seed = draw.below(1000);
        let dist = draw.below(4);
        let key_bound = 8 + draw.below(120);
        let a = relation(16 + draw.below(240) as usize, key_bound, dist, seed);
        let b = relation(16 + draw.below(120) as usize, key_bound, draw.below(4), seed ^ 0xb);
        let pred = match draw.below(4) {
            0 => None,
            1 => Some(ScanPredicate::KeyBelow(key_bound / 2)),
            2 => Some(ScanPredicate::PayloadModNot { modulus: 3, remainder: 0 }),
            _ => Some(ScanPredicate::All),
        };
        let fanout = 1 + draw.below(4);
        let join_build = draw.below(2) == 1;
        let stream = case % 2 == 1;
        for kind in OperatorKind::ALL {
            let profile = operator(kind).profile();
            let two_inputs = profile.min_inputs == 2;
            let mut builder =
                ExperimentBuilder::new(kind).system(system).tiny().seed(seed).input(a.clone());
            if two_inputs {
                builder = builder.add_input(b.clone());
            }
            if kind == OperatorKind::Join && join_build {
                builder = builder.join_build(b.clone());
            }
            if let Some(p) = pred {
                builder = builder.scan_predicate(p);
            }
            if stream && profile.streams_input {
                let chunks: Vec<Arc<[Tuple]>> = a.chunks(48).map(Arc::from).collect();
                builder = builder.streamed_input(chunks);
            }
            let report = builder.fanout(fanout).run();

            let inputs: Vec<&[Tuple]> = if two_inputs { vec![&a, &b] } else { vec![&a] };
            let build = (kind == OperatorKind::Join && join_build).then_some(&b[..]);
            // Operators other than Scan and FlatMap ignore pred and fanout,
            // in the engine and in the reference alike.
            let spec = OpSpec { kind, pred, fanout };
            let expect =
                operator(kind).reference(&spec, &OpInvocation { inputs: &inputs, build, seed });
            let label = format!("case {case}: {kind:?} on {system:?}");
            assert_eq!(report.output, expect, "{label}: engine output differs from the reference");
            assert!(report.verified, "{label}: run not verified");
        }
    }
}

/// A FlatMap run that sets no fanout expands by the fanout of a default
/// [`OpSpec`]: the engine and the registry share one default.
#[test]
fn default_flat_map_equals_the_default_spec_reference() {
    let rel = uniform_relation(64, 16, 3);
    let report =
        ExperimentBuilder::new(OperatorKind::FlatMap).tiny().seed(1).input(rel.clone()).run();
    let inv = OpInvocation { inputs: &[&rel], build: None, seed: 1 };
    let spec = OpSpec::new(OperatorKind::FlatMap);
    assert_eq!(report.output, operator(OperatorKind::FlatMap).reference(&spec, &inv));
}
