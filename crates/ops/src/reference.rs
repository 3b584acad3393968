//! Naive reference implementations used to validate the real operators.

use std::collections::BTreeMap;

use mondrian_workloads::Tuple;

use crate::agg::Aggregates;
use crate::scan::ScanPredicate;

/// A joined output row: `(key, r_payload, s_payload)`.
pub type JoinRow = (u64, u64, u64);

/// O(|R|·|S|) nested-loop join — ground truth for join tests.
pub fn nested_loop_join(r: &[Tuple], s: &[Tuple]) -> Vec<JoinRow> {
    let mut out = Vec::new();
    for st in s {
        for rt in r {
            if rt.key == st.key {
                out.push((st.key, rt.payload, st.payload));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Ground-truth sort.
pub fn sorted(rel: &[Tuple]) -> Vec<Tuple> {
    let mut v = rel.to_vec();
    v.sort_unstable();
    v
}

/// Ground-truth group-by with the six aggregates.
pub fn grouped(rel: &[Tuple]) -> BTreeMap<u64, Aggregates> {
    let mut out: BTreeMap<u64, Aggregates> = BTreeMap::new();
    for t in rel {
        out.entry(t.key).or_default().update(t);
    }
    out
}

/// Ground-truth predicated scan, preserving input order.
pub fn filtered(rel: &[Tuple], pred: ScanPredicate) -> Vec<Tuple> {
    rel.iter().copied().filter(|t| pred.matches(t)).collect()
}

/// Canonicalizes a join result for comparison.
pub fn canonical(mut rows: Vec<JoinRow>) -> Vec<JoinRow> {
    rows.sort_unstable();
    rows
}

/// Ground-truth union: the input relations concatenated in order.
pub fn unioned(inputs: &[&[Tuple]]) -> Vec<Tuple> {
    inputs.iter().flat_map(|rel| rel.iter().copied()).collect()
}

/// Ground-truth cogroup: per key, the six aggregates of each input side
/// (a key appears when either side holds it; the absent side keeps empty
/// aggregates).
pub fn cogrouped(a: &[Tuple], b: &[Tuple]) -> BTreeMap<u64, (Aggregates, Aggregates)> {
    let mut out: BTreeMap<u64, (Aggregates, Aggregates)> = BTreeMap::new();
    for t in a {
        out.entry(t.key).or_default().0.update(t);
    }
    for t in b {
        out.entry(t.key).or_default().1.update(t);
    }
    out
}

/// Ground-truth flat_map: the per-tuple expansion loop over matching
/// tuples, in input order.
pub fn flat_mapped(rel: &[Tuple], pred: ScanPredicate, fanout: u64) -> Vec<Tuple> {
    let fanout = fanout.max(1);
    rel.iter()
        .filter(|t| pred.matches(t))
        .flat_map(|t| (0..fanout).map(move |j| crate::flat_map::expand(*t, fanout, j)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_loop_finds_all_matches() {
        let r = vec![Tuple::new(1, 100), Tuple::new(2, 200)];
        let s = vec![Tuple::new(1, 10), Tuple::new(1, 11), Tuple::new(3, 30)];
        let out = nested_loop_join(&r, &s);
        assert_eq!(out, vec![(1, 100, 10), (1, 100, 11)]);
    }

    #[test]
    fn grouped_aggregates() {
        let rel = vec![Tuple::new(5, 1), Tuple::new(5, 3)];
        let g = grouped(&rel);
        assert_eq!(g[&5].sum, 4);
    }

    #[test]
    fn unioned_concatenates_in_input_order() {
        let a = vec![Tuple::new(1, 1), Tuple::new(2, 2)];
        let b = vec![Tuple::new(0, 9)];
        let out = unioned(&[&a, &b, &a]);
        assert_eq!(out.len(), 5);
        assert_eq!(out[2], Tuple::new(0, 9));
        assert_eq!(out[3], Tuple::new(1, 1));
    }

    #[test]
    fn cogrouped_keeps_one_sided_keys() {
        let a = vec![Tuple::new(1, 10), Tuple::new(1, 20)];
        let b = vec![Tuple::new(2, 5)];
        let g = cogrouped(&a, &b);
        assert_eq!(g.len(), 2);
        assert_eq!(g[&1].0.count, 2);
        assert_eq!(g[&1].1.count, 0, "side B has no key 1");
        assert_eq!(g[&2].1.sum, 5);
    }
}
