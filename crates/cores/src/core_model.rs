//! The execution-driven core window model.
//!
//! One [`Core`] executes one operator-phase [`Kernel`]. The model is a
//! dispatch/retire window machine:
//!
//! * up to `width` micro-ops dispatch per cycle into a `window`-entry
//!   reorder window (the ROB for the OoO baselines, a scoreboard-sized
//!   window for the in-order Mondrian core),
//! * compute ops complete one cycle after their last instruction dispatches
//!   (or after their load dependence resolves),
//! * loads occupy a window entry until the memory system answers; a load
//!   whose *address* depends on an outstanding load cannot even issue —
//!   this is what limits MLP in hash probes and histogram updates (§3.2),
//! * entries retire in order; dispatch stalls when the window is full and
//!   the head is still waiting on memory,
//! * stores are fire-and-forget through a bounded store queue
//!   (`store_credits`), so write bandwidth backpressures the core,
//! * stream-buffer pops cost one cycle when data is prefetched and stall the
//!   (in-order) core otherwise; permutable stores drain through the object
//!   buffer without occupying store credits (§5.4: the engine does not bound
//!   permutable stores in flight).
//!
//! The core runs *ahead* of global time: `advance` executes until the kernel
//! blocks on memory or finishes, emitting [`MemRequest`]s with their issue
//! timestamps. The engine routes each request through caches, networks and
//! vaults, then reports the completion time back via [`Core::complete_mem`].

use std::collections::{HashMap, VecDeque};

use mondrian_sim::{Clock, Stats, Time};

use crate::micro::{Dep, Kernel, MicroOp, StoreKind};
use crate::object::ObjectBuffer;
use crate::stream::{StreamBufferSet, StreamConfig};

/// Static configuration of a core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Core clock.
    pub clock: Clock,
    /// Dispatch/retire width (instructions per cycle).
    pub width: u32,
    /// Reorder-window entries (ROB size; small scoreboard for in-order).
    pub window: u32,
    /// Store-queue entries bounding fire-and-forget writes in flight.
    pub store_credits: u32,
    /// Whether the core has a SIMD unit (kernels with [`MicroOp::Simd`]
    /// require it).
    pub simd: bool,
    /// SIMD lanes in tuples (8 for the 1024-bit unit over 16 B tuples).
    pub simd_tuples: u32,
    /// Stream buffers (Mondrian only).
    pub stream: Option<StreamConfig>,
    /// Object buffer capacity in bytes (Mondrian only; 256 in the paper).
    pub object_buffer_bytes: u32,
}

impl CoreConfig {
    /// The CPU baseline core: ARM Cortex-A57-like, 2 GHz, 3-wide OoO,
    /// 128-entry ROB (Table 3).
    pub fn cortex_a57() -> Self {
        Self {
            clock: Clock::from_ghz(2.0),
            width: 3,
            window: 128,
            store_credits: 32,
            simd: false,
            simd_tuples: 0,
            stream: None,
            object_buffer_bytes: 256,
        }
    }

    /// The NMP baseline core: Qualcomm Krait400-like, 1 GHz, 3-wide OoO,
    /// 48-entry ROB (Table 3).
    pub fn krait400() -> Self {
        Self {
            clock: Clock::from_ghz(1.0),
            width: 3,
            window: 48,
            store_credits: 64,
            simd: false,
            simd_tuples: 0,
            stream: None,
            object_buffer_bytes: 256,
        }
    }

    /// The Mondrian compute unit: ARM Cortex-A35-like, 1 GHz, dual-issue
    /// in-order (16-entry scoreboard window), 1024-bit fixed-point SIMD
    /// (8 × 16 B tuples per op), 8 × 384 B stream buffers, 256 B object
    /// buffer (§5.2).
    pub fn mondrian_a35() -> Self {
        Self {
            clock: Clock::from_ghz(1.0),
            width: 2,
            window: 16,
            store_credits: 16,
            simd: true,
            simd_tuples: 8,
            stream: Some(StreamConfig::mondrian()),
            object_buffer_bytes: 256,
        }
    }
}

/// Kind of memory traffic a core emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// Demand load.
    Load,
    /// Store of the given flavor.
    Store(StoreKind),
    /// Stream-buffer binding prefetch for buffer `buf`.
    StreamFill {
        /// Stream buffer index.
        buf: u8,
    },
}

/// A memory request emitted by a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Core-unique tag, echoed back in [`Core::complete_mem`].
    pub tag: u64,
    /// Physical address (unused for permutable stores).
    pub addr: u64,
    /// Access size in bytes.
    pub bytes: u32,
    /// Traffic kind.
    pub kind: MemKind,
    /// Earliest time the request leaves the core.
    pub issue_at: Time,
}

/// Result of [`Core::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStatus {
    /// Waiting on one or more memory completions.
    Blocked,
    /// Kernel fully dispatched and window drained at the given time (memory
    /// writes may still be in flight; the engine tracks those).
    Finished(Time),
}

/// Retired-work counters for IPC and energy accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Scalar instructions retired (weighted per [`MicroOp::instructions`]).
    pub instructions: u64,
    /// SIMD operations retired.
    pub simd_ops: u64,
    /// Demand loads issued.
    pub loads: u64,
    /// Stores issued (all flavors).
    pub stores: u64,
    /// Stream-buffer pops that hit prefetched data.
    pub stream_hits: u64,
    /// Stream-buffer pops that stalled the core.
    pub stream_stalls: u64,
}

impl CoreStats {
    /// Exports counters into a [`Stats`] registry under `prefix`.
    pub fn export(&self, stats: &mut Stats, prefix: &str) {
        stats.add_count(&format!("{prefix}.instructions"), self.instructions);
        stats.add_count(&format!("{prefix}.simd_ops"), self.simd_ops);
        stats.add_count(&format!("{prefix}.loads"), self.loads);
        stats.add_count(&format!("{prefix}.stores"), self.stores);
        stats.add_count(&format!("{prefix}.stream_hits"), self.stream_hits);
        stats.add_count(&format!("{prefix}.stream_stalls"), self.stream_stalls);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Done {
    /// Completion time known.
    At(Time),
    /// Completion pending on memory tag `tag`; resolves to
    /// `max(min_time, completion + extra)`.
    AfterTag { tag: u64, min_time: Time, extra: Time },
}

#[derive(Debug, Clone, Copy)]
struct DeferredLoad {
    tag: u64,
    addr: u64,
    bytes: u32,
}

/// Tracks the result availability of the most recent load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LastLoad {
    Known(Time),
    Pending(u64),
}

/// An execution-driven core.
///
/// See the [crate docs](crate) for the model; see `CoreConfig` presets for
/// the three evaluated cores.
pub struct Core {
    cfg: CoreConfig,
    kernel: Box<dyn Kernel>,
    window: VecDeque<Done>,
    deferred: HashMap<u64, Vec<DeferredLoad>>,
    last_load: LastLoad,
    /// Current dispatch cycle (ps, aligned to clock edges).
    slot_ps: Time,
    /// Dispatch slots consumed in the current cycle.
    slots_used: u32,
    next_tag: u64,
    store_credits: u32,
    streams: Option<StreamBufferSet>,
    object_buffer: ObjectBuffer,
    /// Op that could not dispatch (stream stall / store-credit stall).
    stalled: Option<MicroOp>,
    /// Objects shipped through the object buffer so far (permutable-store
    /// emission sequence).
    perm_objects: u64,
    /// Time of the completion event that released the current stall
    /// (valid while `stall_armed`).
    stall_release: Time,
    /// Whether the current stall has been released.
    stall_armed: bool,
    /// Latest in-order retirement time.
    last_retire: Time,
    kernel_done: bool,
    finished_at: Option<Time>,
    stats: CoreStats,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("kernel", &self.kernel.name())
            .field("slot_ps", &self.slot_ps)
            .field("window_occupancy", &self.window.len())
            .field("finished_at", &self.finished_at)
            .finish()
    }
}

impl Core {
    /// Creates a core executing `kernel` from time zero.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate.
    pub fn new(cfg: CoreConfig, kernel: Box<dyn Kernel>) -> Self {
        assert!(cfg.width > 0 && cfg.window > 0, "degenerate core");
        let mut object_buffer = ObjectBuffer::new(cfg.object_buffer_bytes);
        object_buffer.set_object_bytes(16); // default tuple-sized objects
        Self {
            streams: cfg.stream.map(StreamBufferSet::new),
            kernel,
            cfg,
            window: VecDeque::new(),
            deferred: HashMap::new(),
            last_load: LastLoad::Known(0),
            slot_ps: 0,
            slots_used: 0,
            next_tag: 0,
            store_credits: cfg.store_credits,
            object_buffer,
            stalled: None,
            perm_objects: 0,
            stall_release: 0,
            stall_armed: false,
            last_retire: 0,
            kernel_done: false,
            finished_at: None,
            stats: CoreStats::default(),
        }
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Starts the core's clock at `t` (phases begin where the previous
    /// phase ended).
    ///
    /// # Panics
    ///
    /// Panics if the core has already dispatched work.
    pub fn set_start(&mut self, t: Time) {
        assert!(
            self.next_tag == 0 && self.window.is_empty() && self.stats.instructions == 0,
            "cannot move the clock of a running core"
        );
        self.slot_ps = self.cfg.clock.next_edge(t);
        self.last_retire = self.slot_ps;
    }

    /// Total instructions retired (weighted per [`MicroOp::instructions`]).
    pub fn instructions(&self) -> u64 {
        self.stats.instructions
    }

    /// Declares the data-object granularity for permutable stores
    /// (`malloc_permutable`'s `object_size`).
    pub fn set_object_bytes(&mut self, bytes: u32) {
        self.object_buffer.set_object_bytes(bytes);
    }

    /// Retired-work counters.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The core's current virtual time (its dispatch front).
    pub fn now(&self) -> Time {
        self.slot_ps
    }

    /// Whether the kernel has fully executed.
    pub fn finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// The time dispatch+retirement completed, if finished.
    pub fn finished_at(&self) -> Option<Time> {
        self.finished_at
    }

    fn period(&self) -> Time {
        self.cfg.clock.period_ps()
    }

    /// Consumes `n` dispatch slots; returns the dispatch time of the last
    /// one.
    fn take_slots(&mut self, n: u64) -> Time {
        debug_assert!(n > 0);
        let width = self.cfg.width as u64;
        let mut remaining = n;
        loop {
            let free = width - self.slots_used as u64;
            if free == 0 {
                self.slot_ps += self.period();
                self.slots_used = 0;
                continue;
            }
            let take = remaining.min(free);
            self.slots_used += take as u32;
            remaining -= take;
            if remaining == 0 {
                return self.slot_ps;
            }
        }
    }

    /// Ensures a window slot is free. Returns `false` if blocked on the
    /// window head.
    fn make_room(&mut self) -> bool {
        while self.window.len() >= self.cfg.window as usize {
            match self.window.front().copied() {
                Some(Done::At(t)) => {
                    self.retire_head(t);
                }
                _ => return false,
            }
        }
        true
    }

    fn retire_head(&mut self, t: Time) {
        self.window.pop_front();
        self.last_retire = self.last_retire.max(t);
        // The freed slot is usable no earlier than the retire time.
        if t > self.slot_ps {
            self.slot_ps = self.cfg.clock.next_edge(t);
            self.slots_used = 0;
        }
    }

    fn fresh_tag(&mut self) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        t
    }

    /// Runs until the kernel blocks on memory or finishes.
    ///
    /// Emits memory requests into `out`; the engine must eventually answer
    /// each one (except permutable stores) via [`Core::complete_mem`].
    pub fn advance(&mut self, out: &mut Vec<MemRequest>) -> CoreStatus {
        if let Some(at) = self.finished_at {
            return CoreStatus::Finished(at);
        }
        loop {
            let op = match self.stalled.take() {
                Some(op) => {
                    // Time passed while stalled: resume at the completion
                    // that released the stall.
                    if self.stall_armed && self.stall_release > self.slot_ps {
                        self.slot_ps = self.cfg.clock.next_edge(self.stall_release);
                        self.slots_used = 0;
                    }
                    self.stall_armed = false;
                    self.stall_release = 0;
                    op
                }
                None => match self.kernel.next_op() {
                    Some(op) => op,
                    None => {
                        self.kernel_done = true;
                        // Drain the window.
                        while let Some(head) = self.window.front().copied() {
                            match head {
                                Done::At(t) => self.retire_head(t),
                                Done::AfterTag { .. } => return CoreStatus::Blocked,
                            }
                        }
                        let at = self.last_retire.max(self.slot_ps);
                        self.finished_at = Some(at);
                        return CoreStatus::Finished(at);
                    }
                },
            };
            if !self.dispatch(op, out) {
                return CoreStatus::Blocked;
            }
        }
    }

    /// Dispatches one op. Returns `false` (with the op stashed) on stall.
    fn dispatch(&mut self, op: MicroOp, out: &mut Vec<MemRequest>) -> bool {
        if !self.make_room() {
            self.stalled = Some(op);
            return false;
        }
        let period = self.period();
        match op {
            MicroOp::Compute { n, dep } => {
                let slot = self.take_slots(n.max(1) as u64);
                self.stats.instructions += n as u64;
                self.push_alu_entry(slot, dep, period);
            }
            MicroOp::Simd { dep } => {
                assert!(self.cfg.simd, "kernel issued SIMD on a core without a SIMD unit");
                let slot = self.take_slots(1);
                self.stats.instructions += 1;
                self.stats.simd_ops += 1;
                self.push_alu_entry(slot, dep, period);
            }
            MicroOp::Load { addr, bytes, dep, stream: Some(buf) } => {
                return self.dispatch_stream_load(buf, addr, bytes, dep, out);
            }
            MicroOp::Load { addr, bytes, dep, stream: None } => {
                let slot = self.take_slots(1);
                self.stats.instructions += 1;
                self.stats.loads += 1;
                let tag = self.fresh_tag();
                match (dep, self.last_load) {
                    (Dep::OnPrevLoad, LastLoad::Pending(dep_tag)) => {
                        // Address depends on an outstanding load: park.
                        self.deferred.entry(dep_tag).or_default().push(DeferredLoad {
                            tag,
                            addr,
                            bytes,
                        });
                    }
                    (Dep::OnPrevLoad, LastLoad::Known(t)) => {
                        let issue_at = slot.max(t + period);
                        out.push(MemRequest { tag, addr, bytes, kind: MemKind::Load, issue_at });
                    }
                    (Dep::None, _) => {
                        out.push(MemRequest {
                            tag,
                            addr,
                            bytes,
                            kind: MemKind::Load,
                            issue_at: slot,
                        });
                    }
                }
                self.push_after_tag(tag, slot + period, 0);
                self.last_load = LastLoad::Pending(tag);
            }
            MicroOp::Store { addr, bytes, kind } => {
                if let StoreKind::Permutable { dst_vault } = kind {
                    let slot = self.take_slots(1);
                    self.stats.instructions += 1;
                    self.stats.stores += 1;
                    if let Some((dst, object_bytes)) = self.object_buffer.push(bytes, dst_vault) {
                        let tag = self.fresh_tag();
                        let seq = self.perm_objects;
                        self.perm_objects += 1;
                        // The address field is unused for permutable stores
                        // (the destination controller assigns the final
                        // address); it carries the object emission sequence
                        // so the engine can commit the permutation.
                        out.push(MemRequest {
                            tag,
                            addr: seq,
                            bytes: object_bytes,
                            kind: MemKind::Store(StoreKind::Permutable { dst_vault: dst }),
                            issue_at: slot,
                        });
                    }
                    self.window.push_back(Done::At(slot + period));
                } else {
                    if self.store_credits == 0 {
                        self.stalled = Some(op);
                        return false;
                    }
                    let slot = self.take_slots(1);
                    self.stats.instructions += 1;
                    self.stats.stores += 1;
                    self.store_credits -= 1;
                    let tag = self.fresh_tag();
                    out.push(MemRequest {
                        tag,
                        addr,
                        bytes,
                        kind: MemKind::Store(kind),
                        issue_at: slot,
                    });
                    self.window.push_back(Done::At(slot + period));
                }
            }
            MicroOp::ConfigStream { buf, base, len } => {
                let slot = self.take_slots(1);
                self.stats.instructions += 1;
                let streams = self
                    .streams
                    .as_mut()
                    .expect("kernel configured a stream on a core without stream buffers");
                let chunk = streams.config().chunk;
                let fills = streams.configure(buf, base, len);
                for addr in fills {
                    let tag = self.fresh_tag();
                    out.push(MemRequest {
                        tag,
                        addr,
                        bytes: chunk,
                        kind: MemKind::StreamFill { buf },
                        issue_at: slot,
                    });
                }
                self.window.push_back(Done::At(slot + period));
            }
        }
        true
    }

    fn push_alu_entry(&mut self, slot: Time, dep: Dep, period: Time) {
        match (dep, self.last_load) {
            (Dep::None, _) => self.window.push_back(Done::At(slot + period)),
            (Dep::OnPrevLoad, LastLoad::Known(t)) => {
                self.window.push_back(Done::At((slot + period).max(t + period)));
            }
            (Dep::OnPrevLoad, LastLoad::Pending(tag)) => {
                self.push_after_tag(tag, slot + period, period);
            }
        }
    }

    /// Appends an entry waiting on load `tag`. Loads take fresh, increasing
    /// tags and dependents wait on the newest load, so `AfterTag` tags never
    /// decrease along the window; [`Core::complete_mem`] relies on that.
    fn push_after_tag(&mut self, tag: u64, min_time: Time, extra: Time) {
        debug_assert!(
            self.window
                .iter()
                .rev()
                .find_map(|e| match *e {
                    Done::AfterTag { tag, .. } => Some(tag),
                    Done::At(_) => None,
                })
                .is_none_or(|newest| newest <= tag),
            "AfterTag tags must not decrease along the window"
        );
        self.window.push_back(Done::AfterTag { tag, min_time, extra });
    }

    fn dispatch_stream_load(
        &mut self,
        buf: u8,
        addr: u64,
        bytes: u32,
        dep: Dep,
        out: &mut Vec<MemRequest>,
    ) -> bool {
        // A stream pop consuming the previous pop's data serializes through
        // the pipeline naturally; a dependence on an outstanding *scalar*
        // load must stall the (in-order) core.
        if let (Dep::OnPrevLoad, LastLoad::Pending(_)) = (dep, self.last_load) {
            self.stalled = Some(MicroOp::Load { addr, bytes, dep, stream: Some(buf) });
            return false;
        }
        let ready = {
            let streams =
                self.streams.as_ref().expect("kernel used a stream buffer on a core without them");
            streams.ready(buf, bytes)
        };
        if !ready {
            self.stats.stream_stalls += 1;
            self.stalled = Some(MicroOp::Load { addr, bytes, dep, stream: Some(buf) });
            return false;
        }
        if let (Dep::OnPrevLoad, LastLoad::Known(t)) = (dep, self.last_load) {
            if t > self.slot_ps {
                self.slot_ps = self.cfg.clock.next_edge(t);
                self.slots_used = 0;
            }
        }
        let slot = self.take_slots(1);
        let period = self.period();
        self.stats.instructions += 1;
        self.stats.loads += 1;
        self.stats.stream_hits += 1;
        let streams = self.streams.as_mut().expect("checked above");
        let chunk = streams.config().chunk;
        let refills: Vec<u64> = streams.pop(buf, bytes);
        for fill_addr in refills {
            let tag = self.fresh_tag();
            out.push(MemRequest {
                tag,
                addr: fill_addr,
                bytes: chunk,
                kind: MemKind::StreamFill { buf },
                issue_at: slot,
            });
        }
        self.window.push_back(Done::At(slot + period));
        self.last_load = LastLoad::Known(slot + period);
        true
    }

    /// Reports completion of a previously emitted request at time `done`.
    ///
    /// `req` must be the request the engine is answering; new requests
    /// released by this completion (deferred dependent loads) are appended
    /// to `out`. Call [`Core::advance`] afterwards to resume dispatch.
    pub fn complete_mem(&mut self, req: &MemRequest, done: Time, out: &mut Vec<MemRequest>) {
        let period = self.period();
        match req.kind {
            MemKind::Load => {
                // Resolve window entries waiting on this tag. Tags never
                // decrease along the window, so the scan stops at the
                // first larger one.
                for entry in self.window.iter_mut() {
                    if let Done::AfterTag { tag, min_time, extra } = *entry {
                        if tag > req.tag {
                            break;
                        }
                        if tag == req.tag {
                            *entry = Done::At(min_time.max(done + extra));
                        }
                    }
                }
                if self.last_load == LastLoad::Pending(req.tag) {
                    self.last_load = LastLoad::Known(done);
                }
                // Release address-dependent loads parked on this tag.
                if let Some(waiters) = self.deferred.remove(&req.tag) {
                    for w in waiters {
                        out.push(MemRequest {
                            tag: w.tag,
                            addr: w.addr,
                            bytes: w.bytes,
                            kind: MemKind::Load,
                            issue_at: done + period,
                        });
                    }
                }
            }
            MemKind::Store(_) => {
                self.store_credits += 1;
                debug_assert!(self.store_credits <= self.cfg.store_credits);
            }
            MemKind::StreamFill { buf } => {
                self.streams
                    .as_mut()
                    .expect("stream fill completion on core without streams")
                    .fill_complete(buf, req.addr);
            }
        }
        self.try_release_stall(done);
    }

    /// If the core is stalled and this completion satisfies the stall's
    /// condition, record the release time (first such completion wins).
    fn try_release_stall(&mut self, done: Time) {
        if self.stall_armed {
            return;
        }
        let Some(op) = self.stalled else { return };
        let released = match op {
            MicroOp::Store { kind, .. } => {
                !matches!(kind, StoreKind::Permutable { .. }) && self.store_credits > 0
            }
            MicroOp::Load { bytes, dep, stream: Some(buf), .. } => {
                let dep_ok =
                    !matches!((dep, self.last_load), (Dep::OnPrevLoad, LastLoad::Pending(_)));
                dep_ok && self.streams.as_ref().is_some_and(|s| s.ready(buf, bytes))
            }
            _ => false,
        };
        if released {
            self.stall_release = done;
            self.stall_armed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::VecKernel;

    /// Minimal engine: serves every request after a fixed latency from
    /// issue, in issue order. Returns (finish_time, requests_served).
    fn run_fixed_latency(core: &mut Core, latency: Time) -> (Time, usize) {
        let mut outstanding: Vec<MemRequest> = Vec::new();
        let mut served = 0;
        let mut out = Vec::new();
        loop {
            match core.advance(&mut out) {
                CoreStatus::Finished(at) => {
                    // Drain remaining (stores / fills nobody waits on).
                    served += outstanding.len() + out.len();
                    return (at, served);
                }
                CoreStatus::Blocked => {
                    outstanding.append(&mut out);
                    assert!(
                        !outstanding.is_empty(),
                        "blocked with no outstanding memory: deadlock"
                    );
                    // Serve everything outstanding, oldest first (a real
                    // engine delivers completions at their own event times).
                    outstanding.sort_by_key(|r| r.issue_at);
                    for req in outstanding.drain(..) {
                        let done = req.issue_at + latency;
                        core.complete_mem(&req, done, &mut out);
                        served += 1;
                    }
                }
            }
        }
    }

    fn ooo(width: u32, window: u32) -> CoreConfig {
        CoreConfig {
            clock: Clock::from_ghz(1.0),
            width,
            window,
            store_credits: 4,
            simd: true,
            simd_tuples: 8,
            stream: Some(StreamConfig::mondrian()),
            object_buffer_bytes: 256,
        }
    }

    #[test]
    fn pure_compute_runs_at_full_width() {
        let cfg = ooo(3, 32);
        let ops = vec![MicroOp::compute(300)];
        let mut core = Core::new(cfg, Box::new(VecKernel::new(ops)));
        let (at, _) = run_fixed_latency(&mut core, 0);
        // 300 instructions at 3/cycle = 100 cycles (+1 completion).
        assert_eq!(at, 100_000);
        assert_eq!(core.stats().instructions, 300);
    }

    #[test]
    fn independent_loads_overlap_up_to_window() {
        // 8 independent loads, window 4, memory latency 100 cycles:
        // two waves of 4 → ≈ 200 cycles, far less than 8 × 100.
        let cfg = ooo(1, 4);
        let ops: Vec<MicroOp> = (0..8).map(|i| MicroOp::load(i * 64, 16)).collect();
        let mut core = Core::new(cfg, Box::new(VecKernel::new(ops)));
        let (at, _) = run_fixed_latency(&mut core, 100_000);
        assert!(at <= 230_000, "expected ~2 waves, got {at}");
        assert!(at >= 200_000, "cannot beat two serialized waves, got {at}");
    }

    #[test]
    fn dependent_loads_serialize() {
        // 8 address-dependent loads: each issues only after the previous
        // returns → ≈ 8 × 100 cycles regardless of window size.
        let cfg = ooo(3, 128);
        let ops: Vec<MicroOp> = (0..8).map(|i| MicroOp::load_dep(i * 64, 16)).collect();
        let mut core = Core::new(cfg, Box::new(VecKernel::new(ops)));
        let (at, _) = run_fixed_latency(&mut core, 100_000);
        assert!(at >= 800_000, "dependent chain must serialize, got {at}");
    }

    #[test]
    fn dependent_compute_waits_for_load() {
        let cfg = ooo(3, 32);
        let ops = vec![MicroOp::load(0, 16), MicroOp::compute_dep(1)];
        let mut core = Core::new(cfg, Box::new(VecKernel::new(ops)));
        let (at, _) = run_fixed_latency(&mut core, 50_000);
        // Load issues at 0, completes at 50 ns; dependent compute one cycle
        // later.
        assert_eq!(at, 51_000);
    }

    #[test]
    fn store_credits_throttle() {
        // 8 stores, 2 credits, 100-cycle write latency: waves of 2.
        let mut cfg = ooo(3, 64);
        cfg.store_credits = 2;
        let ops: Vec<MicroOp> = (0..8).map(|i| MicroOp::store(i * 64, 16)).collect();
        let mut core = Core::new(cfg, Box::new(VecKernel::new(ops)));
        let (_, served) = run_fixed_latency(&mut core, 100_000);
        assert!(served >= 6, "stores must round-trip through memory");
        // The core itself finishes dispatch after the 6th store completes
        // (credits for 7 and 8), i.e. at least 3 waves in.
        assert!(core.finished_at().unwrap() >= 300_000);
    }

    #[test]
    fn permutable_stores_do_not_block() {
        let mut cfg = ooo(3, 64);
        cfg.store_credits = 1;
        let ops: Vec<MicroOp> = (0..32)
            .map(|_| MicroOp::Store {
                addr: 0,
                bytes: 16,
                kind: StoreKind::Permutable { dst_vault: 7 },
            })
            .collect();
        let mut core = Core::new(cfg, Box::new(VecKernel::new(ops)));
        let mut out = Vec::new();
        let status = core.advance(&mut out);
        // Fire-and-forget: finishes without any completions at ~16 cycles
        // (32 ops, width 3, window churn).
        assert!(matches!(status, CoreStatus::Finished(_)));
        assert_eq!(out.len(), 32, "one object message per tuple");
        assert!(out
            .iter()
            .all(|r| matches!(r.kind, MemKind::Store(StoreKind::Permutable { dst_vault: 7 }))));
    }

    #[test]
    fn object_buffer_coalesces_small_stores() {
        let cfg = ooo(3, 64);
        let mut core = Core::new(
            cfg,
            Box::new(VecKernel::new(
                (0..8)
                    .map(|_| MicroOp::Store {
                        addr: 0,
                        bytes: 16,
                        kind: StoreKind::Permutable { dst_vault: 3 },
                    })
                    .collect(),
            )),
        );
        core.set_object_bytes(64); // 4 tuples per object
        let mut out = Vec::new();
        let status = core.advance(&mut out);
        assert!(matches!(status, CoreStatus::Finished(_)));
        assert_eq!(out.len(), 2, "8 × 16 B stores → 2 × 64 B objects");
        assert!(out.iter().all(|r| r.bytes == 64));
    }

    #[test]
    fn stream_pops_cost_one_cycle_when_ready() {
        let cfg = ooo(2, 16);
        let ops = vec![
            MicroOp::ConfigStream { buf: 0, base: 0, len: 256 },
            MicroOp::stream_load(0, 0, 16),
            MicroOp::stream_load(0, 16, 16),
        ];
        let mut core = Core::new(cfg, Box::new(VecKernel::new(ops)));
        let (at, _) = run_fixed_latency(&mut core, 30_000);
        // Config at cycle 0 issues fills; first pop waits for fill (~30 ns),
        // second pop hits immediately after.
        assert!(at < 40_000, "second pop must not wait another 30 ns, got {at}");
        assert_eq!(core.stats().stream_hits, 2);
        assert_eq!(core.stats().stream_stalls, 1, "first pop stalls once");
    }

    #[test]
    fn stream_steady_state_never_stalls() {
        // Long stream, fast memory: after warm-up, pops always hit.
        let cfg = ooo(2, 16);
        let n = 64u64;
        let mut ops = vec![MicroOp::ConfigStream { buf: 0, base: 0, len: n * 16 }];
        for i in 0..n {
            ops.push(MicroOp::stream_load(0, i * 16, 16));
        }
        let mut core = Core::new(cfg, Box::new(VecKernel::new(ops)));
        let (_, _) = run_fixed_latency(&mut core, 5_000);
        assert_eq!(core.stats().stream_hits, n);
        // The lazy test harness only completes fills when the core stalls,
        // so a stall per buffer refill round is expected here; the bound
        // still catches per-pop stalling (which would be 64).
        assert!(
            core.stats().stream_stalls <= 4,
            "expected only refill-round stalls, got {}",
            core.stats().stream_stalls
        );
    }

    #[test]
    #[should_panic(expected = "SIMD on a core without")]
    fn simd_requires_simd_unit() {
        let mut cfg = ooo(3, 32);
        cfg.simd = false;
        let mut core =
            Core::new(cfg, Box::new(VecKernel::new(vec![MicroOp::Simd { dep: Dep::None }])));
        let mut out = Vec::new();
        core.advance(&mut out);
    }

    #[test]
    fn finished_is_idempotent() {
        let cfg = ooo(3, 32);
        let mut core = Core::new(cfg, Box::new(VecKernel::new(vec![MicroOp::compute(3)])));
        let mut out = Vec::new();
        let s1 = core.advance(&mut out);
        let s2 = core.advance(&mut out);
        assert_eq!(s1, s2);
        assert!(core.finished());
    }

    #[test]
    fn presets_match_table3() {
        let a57 = CoreConfig::cortex_a57();
        assert_eq!(a57.clock.ghz(), 2.0);
        assert_eq!((a57.width, a57.window), (3, 128));
        let krait = CoreConfig::krait400();
        assert_eq!(krait.clock.ghz(), 1.0);
        assert_eq!((krait.width, krait.window), (3, 48));
        let a35 = CoreConfig::mondrian_a35();
        assert_eq!(a35.width, 2);
        assert!(a35.simd);
        assert_eq!(a35.simd_tuples, 8);
        assert_eq!(a35.stream.unwrap().buffers, 8);
        assert_eq!(a35.stream.unwrap().capacity, 384);
    }
}
