//! Spark-operator layer (Table 1 of the paper).
//!
//! Table 1 characterizes the common Spark transformations by the basic
//! physical operator each one reduces to. This module encodes that
//! mapping; what each basic operator computes is stated once, by its
//! registered reference executor ([`crate::operator`]).

use crate::phases::OperatorKind;

/// Spark transformations from Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum SparkOp {
    Filter,
    Union,
    LookupKey,
    Map,
    FlatMap,
    MapValues,
    GroupByKey,
    Cogroup,
    ReduceByKey,
    Reduce,
    CountByKey,
    AggregateByKey,
    Join,
    SortByKey,
}

impl SparkOp {
    /// All Table 1 operators.
    pub const ALL: [SparkOp; 14] = [
        SparkOp::Filter,
        SparkOp::Union,
        SparkOp::LookupKey,
        SparkOp::Map,
        SparkOp::FlatMap,
        SparkOp::MapValues,
        SparkOp::GroupByKey,
        SparkOp::Cogroup,
        SparkOp::ReduceByKey,
        SparkOp::Reduce,
        SparkOp::CountByKey,
        SparkOp::AggregateByKey,
        SparkOp::Join,
        SparkOp::SortByKey,
    ];

    /// The basic data operator implementing this transformation (Table 1).
    ///
    /// `Union`, `Cogroup` and `FlatMap` lower to their own dedicated
    /// operators — the open operator IR models multi-input and 1→N stages
    /// directly instead of approximating them as plain Scan/Group-by.
    pub fn basic_operator(&self) -> OperatorKind {
        match self {
            SparkOp::Filter | SparkOp::LookupKey | SparkOp::Map | SparkOp::MapValues => {
                OperatorKind::Scan
            }
            SparkOp::Union => OperatorKind::Union,
            SparkOp::FlatMap => OperatorKind::FlatMap,
            SparkOp::Cogroup => OperatorKind::Cogroup,
            SparkOp::GroupByKey
            | SparkOp::ReduceByKey
            | SparkOp::Reduce
            | SparkOp::CountByKey
            | SparkOp::AggregateByKey => OperatorKind::GroupBy,
            SparkOp::Join => OperatorKind::Join,
            SparkOp::SortByKey => OperatorKind::Sort,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the full Table 1 mapping: all fourteen Spark transformations
    /// and the exact basic operator each one lowers to. `Union`, `Cogroup`
    /// and `FlatMap` must reach their dedicated operators — any
    /// Scan/Group-by aliasing regression fails here.
    #[test]
    fn table1_mapping_is_pinned() {
        use OperatorKind::*;
        let expected = [
            (SparkOp::Filter, Scan),
            (SparkOp::Union, Union),
            (SparkOp::LookupKey, Scan),
            (SparkOp::Map, Scan),
            (SparkOp::FlatMap, FlatMap),
            (SparkOp::MapValues, Scan),
            (SparkOp::GroupByKey, GroupBy),
            (SparkOp::Cogroup, Cogroup),
            (SparkOp::ReduceByKey, GroupBy),
            (SparkOp::Reduce, GroupBy),
            (SparkOp::CountByKey, GroupBy),
            (SparkOp::AggregateByKey, GroupBy),
            (SparkOp::Join, Join),
            (SparkOp::SortByKey, Sort),
        ];
        assert_eq!(expected.len(), SparkOp::ALL.len(), "every Table 1 row is pinned");
        for ((op, kind), listed) in expected.into_iter().zip(SparkOp::ALL) {
            assert_eq!(op, listed, "pin order matches SparkOp::ALL");
            assert_eq!(op.basic_operator(), kind, "{op:?} lowers to {kind:?}");
        }
        // 4 Scan-backed, 5 GroupBy-backed, and one dedicated operator each
        // for Union, Cogroup, FlatMap, Join, Sort.
        let count = |k| SparkOp::ALL.iter().filter(|o| o.basic_operator() == k).count();
        assert_eq!(count(Scan), 4);
        assert_eq!(count(GroupBy), 5);
        for dedicated in [Union, Cogroup, FlatMap] {
            assert_eq!(count(dedicated), 1, "{dedicated:?} is not aliased");
        }
    }
}
