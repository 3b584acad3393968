//! Property tests for the opened operator IR: the registered reference
//! executors of `union`, `cogroup` and `flat_map` keep their defining
//! properties (input order, key coverage, count sums, amplification)
//! across key distributions (uniform and Zipfian at several skews),
//! relation sizes and seeds. That every engine run equals its operator's
//! reference is checked on the engine itself (`mondrian-core`'s
//! `engine_reference` tests).

use proptest::prelude::*;

use mondrian_ops::operator::{operator, OpInvocation, OpOutput, OpSpec};
use mondrian_ops::reference;
use mondrian_ops::scan::ScanPredicate;
use mondrian_ops::OperatorKind;
use mondrian_workloads::{uniform_relation, zipfian_relation, Tuple};

/// A generated relation under one of the swept key distributions.
fn relation(n: usize, key_bound: u64, dist: u64, seed: u64) -> Vec<Tuple> {
    match dist % 4 {
        0 => uniform_relation(n, key_bound, seed),
        1 => zipfian_relation(n, key_bound, 0.5, seed),
        2 => zipfian_relation(n, key_bound, 0.9, seed),
        // Heavy skew: most tuples share very few keys.
        _ => zipfian_relation(n, key_bound, 1.2, seed),
    }
}

fn inv<'a>(inputs: &'a [&'a [Tuple]], seed: u64) -> OpInvocation<'a> {
    OpInvocation { inputs, build: None, seed }
}

proptest! {
    /// Union's reference is plain concatenation in input order for 2..5
    /// inputs of any distribution.
    #[test]
    fn union_matches_reference(
        params in (2usize..5, 1usize..300, 1usize..300, 0u64..4, 0u64..1000)
    ) {
        let (k, na, nb, dist, seed) = params;
        let rels: Vec<Vec<Tuple>> = (0..k)
            .map(|i| relation(if i % 2 == 0 { na } else { nb }, 64, dist, seed + i as u64))
            .collect();
        let inputs: Vec<&[Tuple]> = rels.iter().map(|r| &r[..]).collect();
        let op = operator(OperatorKind::Union);
        let spec = OpSpec::new(OperatorKind::Union);
        let got = op.reference(&spec, &inv(&inputs, seed));
        prop_assert_eq!(got.rows(), rels.iter().map(Vec::len).sum::<usize>());
        // Concatenation preserves each input's tuples in order.
        prop_assert_eq!(got, OpOutput::Tuples(rels.concat()));
    }

    /// Cogroup's reference pairs the two sides' group-bys: every key of
    /// either side appears, and the group counts add up to the inputs.
    #[test]
    fn cogroup_matches_reference(
        params in (1usize..400, 1usize..400, 0u64..4, 0u64..4, 0u64..1000)
    ) {
        let (na, nb, dist_a, dist_b, seed) = params;
        let a = relation(na, 32, dist_a, seed);
        let b = relation(nb, 32, dist_b, seed ^ 0xb);
        let inputs: [&[Tuple]; 2] = [&a, &b];
        let op = operator(OperatorKind::Cogroup);
        let spec = OpSpec::new(OperatorKind::Cogroup);
        let got = op.reference(&spec, &inv(&inputs, seed));
        if let OpOutput::CoGroups(groups) = &got {
            let keys: std::collections::BTreeSet<u64> =
                a.iter().chain(&b).map(|t| t.key).collect();
            prop_assert_eq!(groups.len(), keys.len(), "every key of either side appears");
            // Group counts add up to the input sizes.
            let count_a: u64 = groups.values().map(|(ga, _)| ga.count).sum();
            let count_b: u64 = groups.values().map(|(_, gb)| gb.count).sum();
            prop_assert_eq!((count_a, count_b), (na as u64, nb as u64));
            // Each side is that side's own group-by.
            let (ga, gb) = (reference::grouped(&a), reference::grouped(&b));
            for (k, (sa, sb)) in groups {
                prop_assert_eq!(sa, &ga.get(k).copied().unwrap_or_default());
                prop_assert_eq!(sb, &gb.get(k).copied().unwrap_or_default());
            }
        } else {
            prop_assert!(false, "cogroup yields paired groups");
        }
    }

    /// FlatMap's reference amplifies the matching rows exactly by fanout
    /// for every fanout and predicate, and the output carries the
    /// amplification factor.
    #[test]
    fn flat_map_matches_reference(
        params in (1usize..500, 1u64..9, 0u64..4, 0u64..1000, 0u64..3)
    ) {
        let (n, fanout, dist, seed, pred_sel) = params;
        let rel = relation(n, 64, dist, seed);
        let pred = match pred_sel {
            0 => ScanPredicate::All,
            1 => ScanPredicate::KeyBelow(32),
            _ => ScanPredicate::PayloadModNot { modulus: 3, remainder: 0 },
        };
        let op = operator(OperatorKind::FlatMap);
        let spec = OpSpec { kind: OperatorKind::FlatMap, pred: Some(pred), fanout };
        let inputs: [&[Tuple]; 1] = [&rel];
        let got = op.reference(&spec, &inv(&inputs, seed));
        let matches = reference::filtered(&rel, pred).len();
        prop_assert_eq!(got.rows(), matches * fanout as usize);
        prop_assert_eq!(got.amplification(), fanout);
        // Keys survive expansion: the key multiset amplifies uniformly.
        if let OpOutput::Expanded { tuples, .. } = &got {
            let mut per_key: std::collections::BTreeMap<u64, usize> = Default::default();
            for t in tuples {
                *per_key.entry(t.key).or_default() += 1;
            }
            for (key, count) in per_key {
                let input_count =
                    reference::filtered(&rel, pred).iter().filter(|t| t.key == key).count();
                prop_assert_eq!(count, input_count * fanout as usize);
            }
        }
    }
}

/// The union reference concatenates in input order — pinned explicitly
/// against a hand-built expectation (not just executor-vs-executor).
#[test]
fn union_is_ordered_concatenation() {
    let a = vec![Tuple::new(3, 1), Tuple::new(1, 2)];
    let b = vec![Tuple::new(9, 9)];
    let c = vec![Tuple::new(0, 0), Tuple::new(3, 5)];
    let out = reference::unioned(&[&a, &b, &c]);
    let expect: Vec<Tuple> = a.iter().chain(&b).chain(&c).copied().collect();
    assert_eq!(out, expect);
}

/// Cogroup against an empty side degenerates to a one-sided group-by.
#[test]
fn cogroup_with_empty_side_is_group_by() {
    let a = uniform_relation(200, 16, 7);
    let empty: Vec<Tuple> = Vec::new();
    let cg = reference::cogrouped(&a, &empty);
    let grouped = reference::grouped(&a);
    assert_eq!(cg.len(), grouped.len());
    for (k, (ga, gb)) in &cg {
        assert_eq!(ga, &grouped[k]);
        assert_eq!(gb.count, 0);
    }
}
