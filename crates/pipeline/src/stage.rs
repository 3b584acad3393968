//! Declarative pipeline stages and their lowering onto the basic
//! operators (Table 1).
//!
//! A [`StageSpec`] is a Spark transformation plus the parameters the
//! functional semantics need. Each stage knows three things:
//!
//! 1. which [`SparkOp`] it is and therefore (via Table 1) which basic
//!    [`OperatorKind`] simulates it,
//! 2. how to configure the simulated operator (the scan predicate, the
//!    join build side, flat_map's fanout), and
//! 3. how to **project** an operator output into the relation handed to
//!    the next stage — applied both to the engine's captured
//!    [`StageOutput`] and to the registered reference output the
//!    projection is verified against.
//!
//! Stages carry an explicit list of **input edges** ([`StageInput`]):
//! single-input stages name one, `union` names two or more, `cogroup`
//! exactly two — the plumbing that makes plans true multi-input DAGs.

use mondrian_core::StageOutput;
use mondrian_ops::spark::SparkOp;
use mondrian_ops::{operator, Aggregates, OpInvocation, OpSpec, OperatorKind, ScanPredicate};
use mondrian_workloads::Tuple;

pub use mondrian_ops::operator::derive_dimension;

/// Where a stage input relation comes from. Together with join build-side
/// references this makes plans true DAGs: a stage that reads `Source` or
/// an out-of-chain `Stage(j)` opens an independent branch that the
/// scheduler may run concurrently with other branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageInput {
    /// The previous stage's output (the source relation for stage 0) —
    /// the default chain edge.
    Prev,
    /// The pipeline's source relation.
    Source,
    /// The output of an earlier stage, by zero-based index.
    Stage(usize),
}

impl std::fmt::Display for StageInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageInput::Prev => f.write_str("prev"),
            StageInput::Source => f.write_str("source"),
            StageInput::Stage(j) => write!(f, "stage {j}"),
        }
    }
}

/// One stage of a pipeline plan: the declarative transformation plus the
/// edges naming where its input relations come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// The transformation.
    pub spec: StageSpec,
    /// The input edges, in operator order. Single-input stages carry one;
    /// `union` carries two or more, `cogroup` exactly two. For joins the
    /// (single) edge feeds the probe side.
    pub inputs: Vec<StageInput>,
}

impl Stage {
    /// A stage consuming the previous stage's output (the classic chain).
    pub fn chained(spec: StageSpec) -> Stage {
        Stage { spec, inputs: vec![StageInput::Prev] }
    }

    /// A single-input stage reading an explicit edge.
    pub fn with_input(spec: StageSpec, input: StageInput) -> Stage {
        Stage { spec, inputs: vec![input] }
    }

    /// A multi-input stage reading explicit edges, in order.
    pub fn with_inputs(spec: StageSpec, inputs: Vec<StageInput>) -> Stage {
        Stage { spec, inputs }
    }

    /// The stage's manifest identifier (delegates to the spec).
    pub fn name(&self) -> &'static str {
        self.spec.name()
    }

    /// The basic operator simulating this stage (delegates to the spec).
    pub fn basic_operator(&self) -> OperatorKind {
        self.spec.basic_operator()
    }
}

/// Where a join stage's build-side relation R comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildSide {
    /// A primary-key dimension derived from the probe side's distinct keys
    /// (payloads are a seeded deterministic hash of the key).
    Dimension,
    /// The output relation of an earlier stage — a DAG edge, referenced by
    /// zero-based stage index.
    Stage(usize),
}

/// One declarative stage of an analytic pipeline.
///
/// Group-by-backed stages reduce each group's [`Aggregates`] to one
/// payload: `group_by_key` and `count_by_key` keep the group **count**,
/// `reduce_by_key` the wrapping **sum**, and `aggregate_by_key` the
/// **max** — so downstream stages see a well-defined scalar relation.
/// `cogroup` keeps **both** sides' group sizes:
/// `count_a · 2³² + count_b` (wrapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageSpec {
    /// `Filter`: keep tuples whose payload is not `remainder` mod
    /// `modulus` (lowers to Scan).
    Filter {
        /// The modulus (must be non-zero).
        modulus: u64,
        /// The dropped remainder class.
        remainder: u64,
    },
    /// `LookupKey`: keep tuples whose key equals `key` (lowers to Scan).
    LookupKey {
        /// The searched key.
        key: u64,
    },
    /// `Map`: re-key every tuple to `key * key_mul + key_add` (wrapping;
    /// lowers to Scan).
    Map {
        /// Key multiplier.
        key_mul: u64,
        /// Key addend.
        key_add: u64,
    },
    /// `MapValues`: transform every payload to `payload * mul + add`
    /// (wrapping; lowers to Scan).
    MapValues {
        /// Payload multiplier.
        mul: u64,
        /// Payload addend.
        add: u64,
    },
    /// `Union`: concatenate all input relations in edge order (lowers to
    /// the multi-input Union operator).
    Union,
    /// `FlatMap`: expand every tuple into `fanout` tuples — keys kept,
    /// payload `payload · fanout + j` wrapping (lowers to the 1→N
    /// FlatMap operator).
    FlatMap {
        /// Output tuples per input tuple (≥ 1).
        fanout: u64,
    },
    /// `Cogroup`: group both input relations by key and pair the groups;
    /// one tuple per key, payload = `count_a · 2³² + count_b` wrapping
    /// (lowers to the multi-input Cogroup operator).
    Cogroup,
    /// `GroupByKey`: one tuple per key, payload = group size (lowers to
    /// Group-by).
    GroupByKey,
    /// `ReduceByKey` with `+`: one tuple per key, payload = wrapping sum
    /// (lowers to Group-by).
    ReduceByKey,
    /// `CountByKey`: one tuple per key, payload = count (lowers to
    /// Group-by).
    CountByKey,
    /// `AggregateByKey`: one tuple per key, payload = max (lowers to
    /// Group-by).
    AggregateByKey,
    /// `SortByKey`: totally order the relation (lowers to Sort).
    SortByKey,
    /// `Join` against `build`: output one tuple per matched row, key kept,
    /// payload = `r_payload + s_payload` wrapping (lowers to Join).
    Join {
        /// The build-side relation source.
        build: BuildSide,
    },
}

impl StageSpec {
    /// The Spark transformation this stage encodes.
    pub fn spark_op(&self) -> SparkOp {
        match self {
            StageSpec::Filter { .. } => SparkOp::Filter,
            StageSpec::LookupKey { .. } => SparkOp::LookupKey,
            StageSpec::Map { .. } => SparkOp::Map,
            StageSpec::MapValues { .. } => SparkOp::MapValues,
            StageSpec::Union => SparkOp::Union,
            StageSpec::FlatMap { .. } => SparkOp::FlatMap,
            StageSpec::Cogroup => SparkOp::Cogroup,
            StageSpec::GroupByKey => SparkOp::GroupByKey,
            StageSpec::ReduceByKey => SparkOp::ReduceByKey,
            StageSpec::CountByKey => SparkOp::CountByKey,
            StageSpec::AggregateByKey => SparkOp::AggregateByKey,
            StageSpec::SortByKey => SparkOp::SortByKey,
            StageSpec::Join { .. } => SparkOp::Join,
        }
    }

    /// The basic operator simulating this stage (Table 1).
    pub fn basic_operator(&self) -> OperatorKind {
        self.spark_op().basic_operator()
    }

    /// The stage's manifest identifier.
    pub fn name(&self) -> &'static str {
        match self {
            StageSpec::Filter { .. } => "filter",
            StageSpec::LookupKey { .. } => "lookup_key",
            StageSpec::Map { .. } => "map",
            StageSpec::MapValues { .. } => "map_values",
            StageSpec::Union => "union",
            StageSpec::FlatMap { .. } => "flat_map",
            StageSpec::Cogroup => "cogroup",
            StageSpec::GroupByKey => "group_by_key",
            StageSpec::ReduceByKey => "reduce_by_key",
            StageSpec::CountByKey => "count_by_key",
            StageSpec::AggregateByKey => "aggregate_by_key",
            StageSpec::SortByKey => "sort_by_key",
            StageSpec::Join { .. } => "join",
        }
    }

    /// The default lowering of a Table 1 transformation, if this subsystem
    /// can run it as a chained single-input stage. `Union` and `Cogroup`
    /// return `None` — they need explicit multi-input edges
    /// ([`Stage::with_inputs`] or `input = [...]` in a manifest) — and so
    /// does `Reduce`, whose output is a scalar, not a relation.
    pub fn default_for(op: SparkOp) -> Option<StageSpec> {
        match op {
            SparkOp::Filter => Some(StageSpec::Filter { modulus: 10, remainder: 0 }),
            SparkOp::LookupKey => Some(StageSpec::LookupKey { key: 0 }),
            SparkOp::Map => Some(StageSpec::Map { key_mul: 1, key_add: 1 }),
            SparkOp::FlatMap => {
                Some(StageSpec::FlatMap { fanout: OpSpec::new(OperatorKind::FlatMap).fanout })
            }
            SparkOp::MapValues => Some(StageSpec::MapValues { mul: 3, add: 1 }),
            SparkOp::GroupByKey => Some(StageSpec::GroupByKey),
            SparkOp::ReduceByKey => Some(StageSpec::ReduceByKey),
            SparkOp::CountByKey => Some(StageSpec::CountByKey),
            SparkOp::AggregateByKey => Some(StageSpec::AggregateByKey),
            SparkOp::SortByKey => Some(StageSpec::SortByKey),
            SparkOp::Join => Some(StageSpec::Join { build: BuildSide::Dimension }),
            SparkOp::Union | SparkOp::Cogroup | SparkOp::Reduce => None,
        }
    }

    /// The predicate the simulated Scan evaluates for scan-backed stages.
    pub fn scan_predicate(&self) -> Option<ScanPredicate> {
        match *self {
            StageSpec::Filter { modulus, remainder } => {
                Some(ScanPredicate::PayloadModNot { modulus, remainder })
            }
            StageSpec::LookupKey { key } => Some(ScanPredicate::KeyEquals(key)),
            StageSpec::Map { .. } | StageSpec::MapValues { .. } => Some(ScanPredicate::All),
            _ => None,
        }
    }

    /// The per-tuple transformation scan-backed stages apply on top of the
    /// predicate (identity for all other stages).
    fn transform(&self, t: Tuple) -> Tuple {
        match *self {
            StageSpec::Map { key_mul, key_add } => {
                Tuple::new(t.key.wrapping_mul(key_mul).wrapping_add(key_add), t.payload)
            }
            StageSpec::MapValues { mul, add } => {
                Tuple::new(t.key, t.payload.wrapping_mul(mul).wrapping_add(add))
            }
            _ => t,
        }
    }

    /// Reduces one group's aggregates to this stage's output payload.
    fn project_group(&self, a: &Aggregates) -> u64 {
        match self {
            StageSpec::GroupByKey | StageSpec::CountByKey => a.count,
            StageSpec::ReduceByKey => a.sum,
            StageSpec::AggregateByKey => a.max,
            _ => unreachable!("not a group-by stage: {self:?}"),
        }
    }

    /// Reduces one key's paired cogroup aggregates to the stage's output
    /// payload: `count_a · 2³² + count_b` (wrapping) — both group sizes
    /// stay recoverable downstream.
    fn project_cogroup(a: &Aggregates, b: &Aggregates) -> u64 {
        a.count.wrapping_mul(1 << 32).wrapping_add(b.count)
    }

    /// Projects the engine's captured output into the tuple relation this
    /// stage hands to its successor. Dispatches on the output's shape —
    /// the engine guarantees each operator family captures its own
    /// variant, so no `OperatorKind` match is needed.
    pub fn project_output(&self, output: &StageOutput) -> Vec<Tuple> {
        match output {
            StageOutput::Tuples(v) => v.iter().map(|&t| self.transform(t)).collect(),
            StageOutput::Expanded { tuples, .. } => tuples.clone(),
            StageOutput::Groups(g) => {
                g.iter().map(|(&k, a)| Tuple::new(k, self.project_group(a))).collect()
            }
            StageOutput::CoGroups(g) => {
                g.iter().map(|(&k, (a, b))| Tuple::new(k, Self::project_cogroup(a, b))).collect()
            }
            StageOutput::Rows(rows) => {
                rows.iter().map(|&(k, rp, sp)| Tuple::new(k, rp.wrapping_add(sp))).collect()
            }
        }
    }

    /// Structural output-cardinality estimate for the planner's cost model
    /// ([`crate::plan`]) when no executed run is available (`mondrian
    /// explain` predicts a manifest before simulating it): per-edge input
    /// rows in, estimated output rows out. `key_bound` is the source
    /// relation's key-space bound — the cap on distinct keys the grouping
    /// family can emit. Estimates only; at execution time the planner uses
    /// the serial pass's *actual* cardinalities instead.
    pub fn estimate_output_rows(&self, inputs: &[usize], key_bound: u64) -> usize {
        let rows = inputs.first().copied().unwrap_or(0);
        let distinct = |n: usize| n.min(usize::try_from(key_bound.max(1)).unwrap_or(usize::MAX));
        match *self {
            // Filter keeps every payload class but one.
            StageSpec::Filter { modulus, .. } => {
                let m = usize::try_from(modulus.max(1)).unwrap_or(usize::MAX);
                rows - rows / m
            }
            // A searched-value scan keeps roughly one key's worth of rows.
            StageSpec::LookupKey { .. } => {
                rows / usize::try_from(key_bound.max(1)).unwrap_or(usize::MAX).max(1)
            }
            StageSpec::Map { .. } | StageSpec::MapValues { .. } | StageSpec::SortByKey => rows,
            StageSpec::Union => inputs.iter().sum(),
            StageSpec::FlatMap { fanout } => {
                rows.saturating_mul(usize::try_from(fanout.max(1)).unwrap_or(usize::MAX))
            }
            // Grouping emits one tuple per distinct key.
            StageSpec::Cogroup => distinct(inputs.iter().sum()),
            StageSpec::GroupByKey
            | StageSpec::ReduceByKey
            | StageSpec::CountByKey
            | StageSpec::AggregateByKey => distinct(rows),
            // A primary-key dimension matches each probe row about once.
            StageSpec::Join { .. } => rows,
        }
    }

    /// The stage's pure functional semantics: the expected output relation
    /// for `inputs` (and `build` for joins) — the registered reference of
    /// the basic operator ([`mondrian_ops::Operator::reference`]),
    /// projected like the engine's output. No simulation machinery is
    /// involved. Single-input stages read `inputs[0]`.
    pub fn reference_output(
        &self,
        inputs: &[&[Tuple]],
        build: Option<&[Tuple]>,
        seed: u64,
    ) -> Vec<Tuple> {
        let kind = self.basic_operator();
        let fanout = match *self {
            StageSpec::FlatMap { fanout } => fanout,
            _ => 1,
        };
        let spec = OpSpec { kind, pred: self.scan_predicate(), fanout };
        let inv = OpInvocation { inputs, build, seed };
        self.project_output(&operator(kind).reference(&spec, &inv))
    }
}

impl std::fmt::Display for StageSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowering_covers_all_operators() {
        use OperatorKind::*;
        assert_eq!(StageSpec::Filter { modulus: 10, remainder: 0 }.basic_operator(), Scan);
        assert_eq!(StageSpec::ReduceByKey.basic_operator(), GroupBy);
        assert_eq!(StageSpec::SortByKey.basic_operator(), Sort);
        assert_eq!(StageSpec::Join { build: BuildSide::Dimension }.basic_operator(), Join);
        // The opened stage kinds lower to their dedicated operators —
        // no Scan/Group-by aliasing.
        assert_eq!(StageSpec::Union.basic_operator(), Union);
        assert_eq!(StageSpec::Cogroup.basic_operator(), Cogroup);
        assert_eq!(StageSpec::FlatMap { fanout: 2 }.basic_operator(), FlatMap);
    }

    #[test]
    fn default_lowering_matches_table1_support() {
        let supported =
            SparkOp::ALL.iter().filter(|&&op| StageSpec::default_for(op).is_some()).count();
        assert_eq!(supported, 11, "11 of the 14 Table 1 ops run as chained stages");
        for op in SparkOp::ALL {
            if let Some(spec) = StageSpec::default_for(op) {
                assert_eq!(spec.spark_op(), op, "lowering must round-trip the SparkOp");
            }
        }
    }

    #[test]
    fn reference_semantics_match_spark_executors() {
        let rel = vec![Tuple::new(1, 10), Tuple::new(2, 5), Tuple::new(1, 7)];
        // Filter keeps payloads not ≡ 0 (mod 5): 10 and 5 drop out.
        let f = StageSpec::Filter { modulus: 5, remainder: 0 };
        assert_eq!(f.reference_output(&[&rel], None, 0), vec![Tuple::new(1, 7)]);
        // ReduceByKey sums payloads per key.
        let sums = StageSpec::ReduceByKey.reference_output(&[&rel], None, 0);
        assert_eq!(sums, vec![Tuple::new(1, 17), Tuple::new(2, 5)]);
        // CountByKey counts.
        let counts = StageSpec::CountByKey.reference_output(&[&rel], None, 0);
        assert_eq!(counts, vec![Tuple::new(1, 2), Tuple::new(2, 1)]);
        // SortByKey totally orders.
        let sorted = StageSpec::SortByKey.reference_output(&[&rel], None, 0);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        // Join against an explicit build side: every key-1 tuple matches.
        let dim = vec![Tuple::new(1, 100), Tuple::new(3, 300)];
        let joined =
            StageSpec::Join { build: BuildSide::Stage(0) }.reference_output(&[&rel], Some(&dim), 0);
        // Canonical row order sorts by (key, r_payload, s_payload).
        assert_eq!(joined, vec![Tuple::new(1, 107), Tuple::new(1, 110)]);
    }

    #[test]
    fn new_stage_reference_semantics() {
        let a = vec![Tuple::new(1, 10), Tuple::new(2, 5)];
        let b = vec![Tuple::new(1, 7)];
        // Union concatenates in edge order.
        let unioned = StageSpec::Union.reference_output(&[&a, &b], None, 0);
        assert_eq!(unioned, vec![Tuple::new(1, 10), Tuple::new(2, 5), Tuple::new(1, 7)]);
        // FlatMap expands every tuple, keys preserved.
        let expanded = StageSpec::FlatMap { fanout: 3 }.reference_output(&[&b], None, 0);
        assert_eq!(expanded.len(), 3);
        assert!(expanded.iter().all(|t| t.key == 1));
        assert_eq!(expanded[0].payload, 21, "payload * fanout + 0");
        // Cogroup pairs both sides' group sizes.
        let cg = StageSpec::Cogroup.reference_output(&[&a, &b], None, 0);
        assert_eq!(cg.len(), 2);
        assert_eq!(cg[0], Tuple::new(1, (1 << 32) + 1), "one tuple each side");
        assert_eq!(cg[1], Tuple::new(2, 1 << 32), "key 2 only on side A");
    }

    #[test]
    fn cardinality_estimates_track_the_semantics() {
        assert_eq!(
            StageSpec::Filter { modulus: 10, remainder: 0 }.estimate_output_rows(&[1000], 64),
            900
        );
        assert_eq!(StageSpec::FlatMap { fanout: 3 }.estimate_output_rows(&[100], 64), 300);
        assert_eq!(StageSpec::Union.estimate_output_rows(&[100, 50], 64), 150);
        assert_eq!(StageSpec::GroupByKey.estimate_output_rows(&[1000], 64), 64);
        assert_eq!(StageSpec::GroupByKey.estimate_output_rows(&[40], 64), 40);
        assert_eq!(StageSpec::Cogroup.estimate_output_rows(&[100, 100], 64), 64);
        assert_eq!(StageSpec::SortByKey.estimate_output_rows(&[123], 64), 123);
        assert_eq!(
            StageSpec::Join { build: BuildSide::Dimension }.estimate_output_rows(&[77], 64),
            77
        );
        assert_eq!(StageSpec::LookupKey { key: 1 }.estimate_output_rows(&[640], 64), 10);
    }

    #[test]
    fn multi_input_stage_constructors() {
        let u =
            Stage::with_inputs(StageSpec::Union, vec![StageInput::Stage(0), StageInput::Source]);
        assert_eq!(u.inputs, vec![StageInput::Stage(0), StageInput::Source]);
        assert_eq!(Stage::chained(StageSpec::SortByKey).inputs, vec![StageInput::Prev]);
    }
}
