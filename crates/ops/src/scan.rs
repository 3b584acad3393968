//! The Scan operator.
//!
//! "The last and simplest operator, scan, does not have a data partitioning
//! phase; each input data partition is scanned in parallel, and each tuple
//! is compared to the searched value." (§6)

use mondrian_cores::{Dep, Kernel, MicroOp, StoreKind};
use mondrian_workloads::{Tuple, TUPLE_BYTES};

use crate::opqueue::OpQueue;
use crate::Data;

/// The predicate evaluated per tuple by the Scan operator.
///
/// The paper's evaluation scans for one searched value
/// ([`ScanPredicate::KeyEquals`], §6); the other variants let Scan carry
/// the Table 1 transformations that lower onto it (`Filter`, `Map`,
/// `MapValues`, ...) when Scan runs as a pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanPredicate {
    /// Tuples whose key equals the searched value (§6's scan).
    KeyEquals(u64),
    /// Tuples whose key is strictly below the bound (range filter).
    KeyBelow(u64),
    /// Tuples whose payload is **not** congruent to `remainder` modulo
    /// `modulus` (a selective `Filter`). Congruence mod 0 is equality, so
    /// `modulus = 0` keeps every tuple whose payload differs from
    /// `remainder`.
    PayloadModNot {
        /// The modulus (0 degenerates to payload inequality).
        modulus: u64,
        /// The dropped remainder class.
        remainder: u64,
    },
    /// Every tuple matches (full-relation pass, e.g. `Map`).
    All,
}

impl ScanPredicate {
    /// Evaluates the predicate on one tuple.
    pub fn matches(&self, t: &Tuple) -> bool {
        match *self {
            ScanPredicate::KeyEquals(needle) => t.key == needle,
            ScanPredicate::KeyBelow(bound) => t.key < bound,
            ScanPredicate::PayloadModNot { modulus: 0, remainder } => t.payload != remainder,
            ScanPredicate::PayloadModNot { modulus, remainder } => t.payload % modulus != remainder,
            ScanPredicate::All => true,
        }
    }
}

/// Functional scan under an arbitrary [`ScanPredicate`].
pub fn scan_filter(data: &[Tuple], pred: ScanPredicate) -> Vec<Tuple> {
    data.iter().copied().filter(|t| pred.matches(t)).collect()
}

/// Scalar scan kernel (CPU and NMP baselines): one 16 B load plus ~5
/// dependent compare/branch instructions per tuple.
pub struct ScalarScanKernel {
    data: Data,
    base: u64,
    out_base: u64,
    pred: ScanPredicate,
    store_kind: StoreKind,
    i: usize,
    matches: u64,
    q: OpQueue,
}

impl ScalarScanKernel {
    /// Scans `data` (resident at `base`) for tuples matching `pred`,
    /// writing matches to `out_base`.
    pub fn new(
        data: Data,
        base: u64,
        out_base: u64,
        pred: ScanPredicate,
        store_kind: StoreKind,
    ) -> Self {
        Self { data, base, out_base, pred, store_kind, i: 0, matches: 0, q: OpQueue::new() }
    }
}

impl Kernel for ScalarScanKernel {
    fn next_op(&mut self) -> Option<MicroOp> {
        if self.q.is_empty() {
            if self.i >= self.data.len() {
                return None;
            }
            let t = self.data[self.i];
            let addr = self.base + (self.i as u64) * TUPLE_BYTES as u64;
            self.q.push(MicroOp::load(addr, TUPLE_BYTES));
            self.q.push(MicroOp::compute_dep(5));
            if self.pred.matches(&t) {
                let out = self.out_base + self.matches * TUPLE_BYTES as u64;
                self.q.push(MicroOp::Store {
                    addr: out,
                    bytes: TUPLE_BYTES,
                    kind: self.store_kind,
                });
                self.matches += 1;
            }
            self.i += 1;
        }
        self.q.pop()
    }

    fn name(&self) -> &'static str {
        "scan.scalar"
    }
}

/// SIMD streaming scan kernel (Mondrian): tuples arrive through stream
/// buffer 0 in 128 B groups; one 1024-bit SIMD compare covers 8 tuples.
pub struct SimdScanKernel {
    data: Data,
    base: u64,
    out_base: u64,
    pred: ScanPredicate,
    i: usize,
    matches: u64,
    configured: bool,
    q: OpQueue,
}

impl SimdScanKernel {
    /// Streaming scan of `data` at `base` for tuples matching `pred`.
    pub fn new(data: Data, base: u64, out_base: u64, pred: ScanPredicate) -> Self {
        Self { data, base, out_base, pred, i: 0, matches: 0, configured: false, q: OpQueue::new() }
    }
}

impl Kernel for SimdScanKernel {
    fn next_op(&mut self) -> Option<MicroOp> {
        if !self.configured {
            self.configured = true;
            return Some(MicroOp::ConfigStream {
                buf: 0,
                base: self.base,
                len: self.data.len() as u64 * TUPLE_BYTES as u64,
            });
        }
        if self.q.is_empty() {
            if self.i >= self.data.len() {
                return None;
            }
            let group = (self.data.len() - self.i).min(8);
            let addr = self.base + (self.i as u64) * TUPLE_BYTES as u64;
            {
                // Pop in 64 B pieces: finer grain keeps the in-order core fed
                // even when the buffer holds less than a full SIMD group.
                let mut off = 0u32;
                while off < group as u32 * TUPLE_BYTES {
                    let piece = (group as u32 * TUPLE_BYTES - off).min(64);
                    self.q.push(MicroOp::stream_load(0, addr + off as u64, piece));
                    off += piece;
                }
            }
            self.q.push(MicroOp::Simd { dep: Dep::OnPrevLoad });
            let hits =
                self.data[self.i..self.i + group].iter().filter(|t| self.pred.matches(t)).count();
            if hits > 0 {
                let out = self.out_base + self.matches * TUPLE_BYTES as u64;
                self.q.push(MicroOp::Store {
                    addr: out,
                    bytes: hits as u32 * TUPLE_BYTES,
                    kind: StoreKind::Streaming,
                });
                self.matches += hits as u64;
            }
            self.i += group;
        }
        self.q.pop()
    }

    fn name(&self) -> &'static str {
        "scan.simd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_ops(k: &mut dyn Kernel) -> Vec<MicroOp> {
        std::iter::from_fn(|| k.next_op()).collect()
    }

    #[test]
    fn predicates_partition_the_relation() {
        let data: Vec<Tuple> = (0..100).map(|i| Tuple::new(i, i * 3)).collect();
        assert_eq!(scan_filter(&data, ScanPredicate::All).len(), 100);
        assert_eq!(scan_filter(&data, ScanPredicate::KeyBelow(10)).len(), 10);
        let kept = scan_filter(&data, ScanPredicate::PayloadModNot { modulus: 3, remainder: 0 });
        assert!(kept.is_empty(), "all payloads are multiples of 3");
        let dropped_none =
            scan_filter(&data, ScanPredicate::PayloadModNot { modulus: 3, remainder: 1 });
        assert_eq!(dropped_none.len(), 100);
        // Congruence mod 0 is equality: drops exactly the one payload == 6.
        let mod_zero =
            scan_filter(&data, ScanPredicate::PayloadModNot { modulus: 0, remainder: 6 });
        assert_eq!(mod_zero.len(), 99);
        assert!(mod_zero.iter().all(|t| t.payload != 6));
        // Order is preserved.
        let below = scan_filter(&data, ScanPredicate::KeyBelow(50));
        assert!(below.windows(2).all(|w| w[0].key < w[1].key));
    }

    #[test]
    fn scalar_kernel_emits_one_load_per_tuple() {
        let data: crate::Data = (0..32).map(|i| Tuple::new(i, i)).collect();
        let mut k = ScalarScanKernel::new(
            data.clone(),
            0,
            1 << 20,
            ScanPredicate::KeyEquals(5),
            StoreKind::Cached,
        );
        let ops = collect_ops(&mut k);
        let loads = ops.iter().filter(|o| matches!(o, MicroOp::Load { .. })).count();
        let stores = ops.iter().filter(|o| matches!(o, MicroOp::Store { .. })).count();
        assert_eq!(loads, 32);
        assert_eq!(stores, 1, "exactly one key matches");
        // Loads walk the array sequentially.
        let addrs: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                MicroOp::Load { addr, .. } => Some(*addr),
                _ => None,
            })
            .collect();
        assert!(addrs.windows(2).all(|w| w[1] == w[0] + 16));
    }

    #[test]
    fn simd_kernel_uses_one_op_per_8_tuples() {
        let data: crate::Data = (0..64).map(|i| Tuple::new(i, i)).collect();
        let mut k = SimdScanKernel::new(data.clone(), 4096, 1 << 20, ScanPredicate::KeyEquals(3));
        let ops = collect_ops(&mut k);
        let simds = ops.iter().filter(|o| matches!(o, MicroOp::Simd { .. })).count();
        assert_eq!(simds, 8, "64 tuples / 8 lanes");
        assert!(matches!(ops[0], MicroOp::ConfigStream { buf: 0, base: 4096, len: 1024 }));
    }

    #[test]
    fn simd_kernel_handles_ragged_tail() {
        let data: crate::Data = (0..13).map(|i| Tuple::new(i, i)).collect();
        let mut k = SimdScanKernel::new(data, 0, 1 << 20, ScanPredicate::KeyEquals(99));
        let ops = collect_ops(&mut k);
        let pops: Vec<u32> = ops
            .iter()
            .filter_map(|o| match o {
                MicroOp::Load { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(
            pops,
            vec![64, 64, 64, 16],
            "8 tuples (two 64 B pops) then the 5-tuple tail (64 + 16)"
        );
    }
}
