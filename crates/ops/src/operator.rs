//! The open operator IR.
//!
//! Every operator of the engine is a first-class trait object
//! ([`Operator`]) bundling two things:
//!
//! 1. a static **descriptor** ([`OpProfile`]): identity, display name,
//!    input arity, the Table 2 phase plan, and the dataset-shaping facts
//!    the experiment driver needs (range vs hash partitioning, group-key
//!    shrinking), and
//! 2. a **naive reference executor** ([`Operator::reference`]): the one
//!    statement of what the operator computes. Every execution —
//!    engine-simulated, serial or branch-concurrent, standalone or as a
//!    pipeline stage — is verified byte-identically against it.
//!
//! The operators live in a static [`REGISTRY`]; `core` and `pipeline`
//! dispatch through [`operator`] and descriptor fields instead of
//! matching on [`OperatorKind`].

use std::collections::BTreeMap;

use mondrian_workloads::Tuple;

use crate::agg::Aggregates;
use crate::phases::{OperatorKind, PhaseInfo};
use crate::reference::{self, JoinRow};
use crate::scan::ScanPredicate;

/// Relative per-tuple work hints for the planner's cost model
/// ([`mondrian_pipeline::plan`]): abstract cycles per tuple for each
/// phase slot of the Table 2 plan. These are coarse algorithm-family
/// weights (a sort's local pass costs more per tuple than a scan's
/// predicate test), not calibrated hardware numbers — the planner only
/// needs the *ratios* to rank candidate schedules, and the executor's
/// measured makespans always win over the prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostHints {
    /// Cycles per input tuple of one partitioning round (histogram +
    /// scatter); charged twice (0 when the plan has no partition phase).
    pub partition_cycles: u32,
    /// Cycles per build-side tuple of the hash-table build phase (0 when
    /// the plan has none).
    pub build_cycles: u32,
    /// Cycles per input tuple of the operation phase (the local
    /// sort/probe/aggregate work).
    pub op_cycles: u32,
    /// Cycles per *output* tuple of materializing the result.
    pub output_cycles: u32,
}

/// Static descriptor of one operator: everything the execution layers
/// need to know about it without matching on its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpProfile {
    /// The operator's identity.
    pub kind: OperatorKind,
    /// Display name (the paper's figure label for the basic four).
    pub name: &'static str,
    /// Minimum number of input relations the operator consumes.
    pub min_inputs: usize,
    /// Maximum number of input relations (`usize::MAX` = unbounded).
    pub max_inputs: usize,
    /// The Table 2 phase plan.
    pub phases: PhaseInfo,
    /// Whether the partitioning phase splits by key *range* (high-order
    /// bits, Sort) instead of low-order hash bits.
    pub partitions_by_range: bool,
    /// Standalone dataset generation shrinks the key space by this
    /// divisor (grouping operators target the paper's average group size
    /// of four, §6; 1 everywhere else).
    pub group_key_divisor: u64,
    /// Whether the operator's output phase streams tuples as they are
    /// produced — the eligible *producer* side of intra-stage pipelining
    /// (the scan family: its single probe phase writes matches in input
    /// order, so a downstream partition phase can consume them chunk by
    /// chunk before the phase completes).
    pub streams_output: bool,
    /// Whether the operator's partition phase can consume its primary
    /// input chunk by chunk — the eligible *consumer* side of intra-stage
    /// pipelining (the partition-phase family: histogram + scatter rounds
    /// are incremental over arrival chunks).
    pub streams_input: bool,
    /// Relative per-tuple phase costs for the planner's cost model.
    pub cost: CostHints,
}

/// Parameters of one concrete operator invocation — the descriptor the
/// execution layers hand around instead of switching on [`OperatorKind`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSpec {
    /// Which operator runs.
    pub kind: OperatorKind,
    /// Scan-predicate override (`None` = the operator's default: the §6
    /// searched-value scan for Scan, match-all for FlatMap).
    pub pred: Option<ScanPredicate>,
    /// 1→N output amplification: outputs per matching input tuple. Only
    /// FlatMap reads it; [`OpSpec::new`] gives FlatMap 2 (the one
    /// statement of its default) and every other operator 1.
    pub fanout: u64,
}

impl OpSpec {
    /// A default invocation of `kind`.
    pub fn new(kind: OperatorKind) -> Self {
        let fanout = if kind == OperatorKind::FlatMap { 2 } else { 1 };
        Self { kind, pred: None, fanout }
    }

    /// The registered operator this spec invokes.
    pub fn operator(&self) -> &'static dyn Operator {
        operator(self.kind)
    }
}

/// The relations one operator invocation consumes.
#[derive(Debug, Clone, Copy)]
pub struct OpInvocation<'a> {
    /// Input relations, in order. Single-input operators read
    /// `inputs[0]`; joins read the probe side S there.
    pub inputs: &'a [&'a [Tuple]],
    /// Join build side R (`None` = derive a primary-key dimension from
    /// the probe side's distinct keys).
    pub build: Option<&'a [Tuple]>,
    /// Seed for derived data (dimension payloads).
    pub seed: u64,
}

impl<'a> OpInvocation<'a> {
    /// The sole input of a single-input operator.
    ///
    /// # Panics
    ///
    /// Panics if the invocation does not carry exactly one input.
    pub fn single(&self) -> &'a [Tuple] {
        assert_eq!(self.inputs.len(), 1, "operator takes exactly one input relation");
        self.inputs[0]
    }
}

/// The functional output relation of one operator run, captured so that
/// pipeline stages can feed each other.
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutput {
    /// Tuple relation (Scan: the matches in input order; Sort: the totally
    /// ordered relation; Union: the concatenation in input order).
    Tuples(Vec<Tuple>),
    /// 1→N scan output (FlatMap): the expanded relation together with the
    /// output-amplification factor it was produced under, so downstream
    /// accounting can attribute the amplified traffic.
    Expanded {
        /// The expanded relation, in input order.
        tuples: Vec<Tuple>,
        /// Output rows per matching input row.
        fanout: u64,
    },
    /// Group-by result: key → the six aggregates.
    Groups(BTreeMap<u64, Aggregates>),
    /// Cogroup result: key → the six aggregates of each input side.
    CoGroups(BTreeMap<u64, (Aggregates, Aggregates)>),
    /// Join result rows `(key, r_payload, s_payload)` in canonical order.
    Rows(Vec<JoinRow>),
}

impl OpOutput {
    /// Number of output rows/groups.
    pub fn rows(&self) -> usize {
        match self {
            OpOutput::Tuples(v) => v.len(),
            OpOutput::Expanded { tuples, .. } => tuples.len(),
            OpOutput::Groups(g) => g.len(),
            OpOutput::CoGroups(g) => g.len(),
            OpOutput::Rows(r) => r.len(),
        }
    }

    /// Whether the output is empty.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// The output-amplification factor the run carried (1 unless the
    /// operator models 1→N output).
    pub fn amplification(&self) -> u64 {
        match self {
            OpOutput::Expanded { fanout, .. } => *fanout,
            _ => 1,
        }
    }
}

/// One operator of the open IR. Implementations are stateless unit
/// structs registered in [`REGISTRY`].
pub trait Operator: Sync {
    /// The operator's static descriptor.
    fn profile(&self) -> OpProfile;

    /// The naive reference executor — ground truth for verification.
    fn reference(&self, spec: &OpSpec, inv: &OpInvocation) -> OpOutput;
}

/// The primary-key dimension a build-less join runs against: one tuple
/// per distinct probe key, payload a seeded deterministic hash.
pub fn derive_dimension(probe: &[Tuple], seed: u64) -> Vec<Tuple> {
    let keys: std::collections::BTreeSet<u64> = probe.iter().map(|t| t.key).collect();
    keys.into_iter().map(|k| Tuple::new(k, crate::mix64(k ^ seed))).collect()
}

/// The effective predicate of a scan-backed invocation: the override, or
/// the paper's searched-value scan (key equality with the first key).
fn scan_pred(spec: &OpSpec, input: &[Tuple]) -> ScanPredicate {
    spec.pred.unwrap_or_else(|| ScanPredicate::KeyEquals(input.first().map_or(0, |t| t.key)))
}

struct ScanOp;

impl Operator for ScanOp {
    fn profile(&self) -> OpProfile {
        OpProfile {
            kind: OperatorKind::Scan,
            name: "Scan",
            min_inputs: 1,
            max_inputs: 1,
            phases: PhaseInfo {
                has_partitioning: false,
                histogram: None,
                distribution: None,
                hash_table_build: None,
                operation: "Scan keys",
            },
            partitions_by_range: false,
            group_key_divisor: 1,
            streams_output: true,
            streams_input: false,
            cost: CostHints {
                partition_cycles: 0,
                build_cycles: 0,
                op_cycles: 2,
                output_cycles: 1,
            },
        }
    }

    fn reference(&self, spec: &OpSpec, inv: &OpInvocation) -> OpOutput {
        let input = inv.single();
        OpOutput::Tuples(reference::filtered(input, scan_pred(spec, input)))
    }
}

struct SortOp;

impl Operator for SortOp {
    fn profile(&self) -> OpProfile {
        OpProfile {
            kind: OperatorKind::Sort,
            name: "Sort",
            min_inputs: 1,
            max_inputs: 1,
            phases: PhaseInfo {
                has_partitioning: true,
                histogram: Some("Hash keys with high order bits"),
                distribution: Some("Copy to partitions"),
                hash_table_build: None,
                operation: "Local sort",
            },
            partitions_by_range: true,
            group_key_divisor: 1,
            streams_output: false,
            streams_input: true,
            cost: CostHints {
                partition_cycles: 3,
                build_cycles: 0,
                op_cycles: 12,
                output_cycles: 1,
            },
        }
    }

    fn reference(&self, _spec: &OpSpec, inv: &OpInvocation) -> OpOutput {
        OpOutput::Tuples(reference::sorted(inv.single()))
    }
}

struct GroupByOp;

impl Operator for GroupByOp {
    fn profile(&self) -> OpProfile {
        OpProfile {
            kind: OperatorKind::GroupBy,
            name: "Group by",
            min_inputs: 1,
            max_inputs: 1,
            phases: PhaseInfo {
                has_partitioning: true,
                histogram: Some("Hash keys with low order bits"),
                distribution: Some("Copy to partitions"),
                hash_table_build: Some("Hash keys & reorder"),
                operation: "Group by key",
            },
            partitions_by_range: false,
            group_key_divisor: 4,
            streams_output: false,
            streams_input: true,
            cost: CostHints {
                partition_cycles: 3,
                build_cycles: 6,
                op_cycles: 4,
                output_cycles: 1,
            },
        }
    }

    fn reference(&self, _spec: &OpSpec, inv: &OpInvocation) -> OpOutput {
        OpOutput::Groups(reference::grouped(inv.single()))
    }
}

struct JoinOp;

impl Operator for JoinOp {
    fn profile(&self) -> OpProfile {
        OpProfile {
            kind: OperatorKind::Join,
            name: "Join",
            min_inputs: 1,
            max_inputs: 1,
            phases: PhaseInfo {
                has_partitioning: true,
                histogram: Some("Hash keys with low order bits"),
                distribution: Some("Copy to partitions"),
                hash_table_build: Some("Hash keys & reorder"),
                operation: "Join by key",
            },
            partitions_by_range: false,
            group_key_divisor: 1,
            streams_output: false,
            streams_input: true,
            cost: CostHints {
                partition_cycles: 3,
                build_cycles: 8,
                op_cycles: 6,
                output_cycles: 2,
            },
        }
    }

    fn reference(&self, _spec: &OpSpec, inv: &OpInvocation) -> OpOutput {
        let s = inv.single();
        // The build side: the invocation's, or the derived PK dimension.
        let derived;
        let r = match inv.build {
            Some(r) => r,
            None => {
                derived = derive_dimension(s, inv.seed);
                &derived[..]
            }
        };
        let mut by_key: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for t in r {
            by_key.entry(t.key).or_default().push(t.payload);
        }
        let mut rows: Vec<JoinRow> = Vec::new();
        for st in s {
            if let Some(payloads) = by_key.get(&st.key) {
                rows.extend(payloads.iter().map(|&rp| (st.key, rp, st.payload)));
            }
        }
        OpOutput::Rows(reference::canonical(rows))
    }
}

struct UnionOp;

impl Operator for UnionOp {
    fn profile(&self) -> OpProfile {
        OpProfile {
            kind: OperatorKind::Union,
            name: "Union",
            min_inputs: 2,
            max_inputs: usize::MAX,
            phases: PhaseInfo {
                has_partitioning: false,
                histogram: None,
                distribution: None,
                hash_table_build: None,
                operation: "Concatenating scan",
            },
            partitions_by_range: false,
            group_key_divisor: 1,
            streams_output: true,
            streams_input: false,
            cost: CostHints {
                partition_cycles: 0,
                build_cycles: 0,
                op_cycles: 1,
                output_cycles: 1,
            },
        }
    }

    fn reference(&self, _spec: &OpSpec, inv: &OpInvocation) -> OpOutput {
        OpOutput::Tuples(reference::unioned(inv.inputs))
    }
}

struct CogroupOp;

impl Operator for CogroupOp {
    fn profile(&self) -> OpProfile {
        OpProfile {
            kind: OperatorKind::Cogroup,
            name: "Cogroup",
            min_inputs: 2,
            max_inputs: 2,
            phases: PhaseInfo {
                has_partitioning: true,
                histogram: Some("Hash keys with low order bits"),
                distribution: Some("Copy to partitions"),
                hash_table_build: Some("Hash keys & reorder"),
                operation: "Cogroup by key",
            },
            partitions_by_range: false,
            group_key_divisor: 4,
            streams_output: false,
            streams_input: true,
            cost: CostHints {
                partition_cycles: 3,
                build_cycles: 8,
                op_cycles: 5,
                output_cycles: 1,
            },
        }
    }

    fn reference(&self, _spec: &OpSpec, inv: &OpInvocation) -> OpOutput {
        assert_eq!(inv.inputs.len(), 2, "cogroup takes exactly two input relations");
        OpOutput::CoGroups(reference::cogrouped(inv.inputs[0], inv.inputs[1]))
    }
}

struct FlatMapOp;

impl Operator for FlatMapOp {
    fn profile(&self) -> OpProfile {
        OpProfile {
            kind: OperatorKind::FlatMap,
            name: "Flat map",
            min_inputs: 1,
            max_inputs: 1,
            phases: PhaseInfo {
                has_partitioning: false,
                histogram: None,
                distribution: None,
                hash_table_build: None,
                operation: "Scan & expand 1→N",
            },
            partitions_by_range: false,
            group_key_divisor: 1,
            streams_output: true,
            streams_input: false,
            cost: CostHints {
                partition_cycles: 0,
                build_cycles: 0,
                op_cycles: 2,
                output_cycles: 1,
            },
        }
    }

    fn reference(&self, spec: &OpSpec, inv: &OpInvocation) -> OpOutput {
        let pred = spec.pred.unwrap_or(ScanPredicate::All);
        let fanout = spec.fanout.max(1);
        OpOutput::Expanded { tuples: reference::flat_mapped(inv.single(), pred, fanout), fanout }
    }
}

/// Every registered operator, in [`OperatorKind::ALL`] order.
pub static REGISTRY: [&dyn Operator; 7] =
    [&ScanOp, &SortOp, &GroupByOp, &JoinOp, &UnionOp, &CogroupOp, &FlatMapOp];

/// Looks an operator up in the registry.
///
/// # Panics
///
/// Panics if `kind` has no registered operator — a registration bug, not
/// a user error.
pub fn operator(kind: OperatorKind) -> &'static dyn Operator {
    REGISTRY
        .iter()
        .copied()
        .find(|op| op.profile().kind == kind)
        .unwrap_or_else(|| panic!("no operator registered for {kind:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv<'a>(inputs: &'a [&'a [Tuple]]) -> OpInvocation<'a> {
        OpInvocation { inputs, build: None, seed: 7 }
    }

    #[test]
    fn registry_covers_every_kind_in_order() {
        for (kind, op) in OperatorKind::ALL.into_iter().zip(REGISTRY) {
            assert_eq!(op.profile().kind, kind, "registry order matches OperatorKind::ALL");
            assert_eq!(operator(kind).profile().kind, kind);
        }
    }

    #[test]
    fn arity_descriptors_separate_the_families() {
        assert_eq!(operator(OperatorKind::Scan).profile().max_inputs, 1);
        assert_eq!(operator(OperatorKind::Union).profile().min_inputs, 2);
        assert_eq!(operator(OperatorKind::Union).profile().max_inputs, usize::MAX);
        let cg = operator(OperatorKind::Cogroup).profile();
        assert_eq!((cg.min_inputs, cg.max_inputs), (2, 2));
        assert!(operator(OperatorKind::Sort).profile().partitions_by_range);
        assert_eq!(operator(OperatorKind::Cogroup).profile().group_key_divisor, 4);
    }

    #[test]
    fn streamable_facts_partition_the_registry() {
        // Intra-stage pipelining splits the registry cleanly: the scan
        // family streams its output, the partition-phase family streams
        // its primary input, and no operator does both.
        for kind in OperatorKind::ALL {
            let p = operator(kind).profile();
            assert!(!(p.streams_output && p.streams_input), "{kind:?} cannot be both sides");
            assert_eq!(
                p.streams_input, p.phases.has_partitioning,
                "{kind:?}: streamed consumption is the partition phase's property"
            );
        }
        let producers: Vec<_> = OperatorKind::ALL
            .into_iter()
            .filter(|&k| operator(k).profile().streams_output)
            .collect();
        assert_eq!(producers, vec![OperatorKind::Scan, OperatorKind::Union, OperatorKind::FlatMap],);
    }

    #[test]
    fn cost_hints_follow_the_phase_plans() {
        // The planner charges partition/build cycles only when the Table 2
        // plan has those phases; every operator does *some* per-tuple work.
        for kind in OperatorKind::ALL {
            let p = operator(kind).profile();
            assert_eq!(
                p.cost.partition_cycles > 0,
                p.phases.has_partitioning,
                "{kind:?}: partition cost iff a partition phase exists"
            );
            assert_eq!(
                p.cost.build_cycles > 0,
                p.phases.hash_table_build.is_some(),
                "{kind:?}: build cost iff a build phase exists"
            );
            assert!(p.cost.op_cycles > 0 && p.cost.output_cycles > 0);
        }
        // Ratios the model leans on: a sort's local pass outweighs a scan.
        let sort = operator(OperatorKind::Sort).profile().cost;
        let scan = operator(OperatorKind::Scan).profile().cost;
        assert!(sort.op_cycles > scan.op_cycles);
    }

    #[test]
    fn flat_map_output_carries_amplification() {
        let rel: Vec<Tuple> = (0..10).map(|i| Tuple::new(i, i)).collect();
        let spec = OpSpec { fanout: 4, ..OpSpec::new(OperatorKind::FlatMap) };
        let out = operator(OperatorKind::FlatMap).reference(&spec, &inv(&[&rel]));
        assert_eq!(out.rows(), 40);
        assert_eq!(out.amplification(), 4);
        assert_eq!(OpOutput::Tuples(rel).amplification(), 1);
    }

    #[test]
    fn derived_dimension_is_deterministic_and_primary_key() {
        let rel = vec![Tuple::new(4, 0), Tuple::new(1, 0), Tuple::new(4, 9)];
        let a = derive_dimension(&rel, 7);
        assert_eq!(a, derive_dimension(&rel, 7));
        assert_eq!(a.len(), 2, "distinct keys only");
        assert!(a.windows(2).all(|w| w[0].key < w[1].key));
        assert_ne!(derive_dimension(&rel, 8), a, "seed changes payloads");
    }
}
