//! The simulated machine: cores, caches, networks and vaults wired into one
//! discrete-event loop.
//!
//! A [`Machine`] owns the hardware state of one evaluated system (Fig. 3a /
//! Fig. 5) and executes operator *phases*: the engine hands every compute
//! unit a kernel, the event loop routes the resulting memory traffic
//! through caches, meshes, SerDes links and vault controllers, and the
//! phase ends when all cores have finished and all in-flight memory (the
//! shuffle barrier of §5.4) has drained.

use std::collections::{HashMap, VecDeque};

use mondrian_cache::{Cache, Lookup, NextLinePrefetcher};
use mondrian_cores::{Core, CoreStatus, Kernel, MemKind, MemRequest, StoreKind};
use mondrian_mem::{
    AccessKind, AddressMap, DramCompletion, DramRequest, PermutableOverflow, PermutableRegion,
    VaultController,
};
use mondrian_noc::{Mesh, MeshStats, SerDesLink, SerDesStats};
use mondrian_sim::{EventQueue, Stats, Time, PS_PER_NS};

use crate::config::{PartitionSpec, SystemConfig};
use crate::fault::{self, Abort, AbortReason};

/// Outcome of one executed phase.
#[derive(Debug, Clone)]
pub struct PhaseOutcome {
    /// Phase label (for reports).
    pub label: String,
    /// Phase start time.
    pub start: Time,
    /// Phase end time (cores drained *and* memory quiesced).
    pub end: Time,
    /// Instructions retired across all compute units.
    pub instructions: u64,
    /// SIMD operations retired.
    pub simd_ops: u64,
    /// Per-core busy fraction (achieved IPC / peak) for the energy model.
    pub core_busy: Vec<f64>,
    /// Permutable writes dropped due to destination-buffer overflow (the
    /// §5.4 exception path; non-zero values fail the phase).
    pub overflows: u64,
    /// Discrete events processed by the phase's event loop, excluding
    /// vault ticks. `engine.events`, the `max_events` trip point and
    /// `panic_at_event` are all defined over this count, and the
    /// checked-in baselines pin it, so ticks stay out.
    pub events: u64,
}

impl PhaseOutcome {
    /// Phase duration.
    pub fn duration(&self) -> Time {
        self.end - self.start
    }
}

/// Where a memory request originates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ep {
    /// The CPU chip (CPU-centric system).
    Cpu,
    /// A vault's logic-layer tile.
    Vault(u32),
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    core: usize,
    req: MemRequest,
}

/// The request id of a DRAM request without a continuation.
const NO_CONTINUATION: u64 = u64::MAX;

/// Continuation attached to each DRAM request.
#[derive(Debug, Clone, Copy)]
enum VaultOp {
    /// Stream-buffer fill: respond to the local core.
    StreamFill { pending: usize },
    /// 64 B line fill headed to core `core`'s L1.
    L1Fill { core: usize, line: u64 },
    /// 64 B line fill headed to the shared LLC.
    LlcFill { line: u64 },
    /// Fire-and-forget (writebacks, permutable writes).
    Fire,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Advance(usize),
    VaultTick(u32),
    MemDone { pending: usize },
    L1FillDone { core: usize, line: u64 },
    LlcFillDone { line: u64 },
}

/// A slot vector that reuses freed slots: it grows with the entries
/// alive at once, not with every entry a phase ever inserts. Slot
/// indices label in-flight requests only; nothing orders by them.
#[derive(Debug)]
struct Slots<T> {
    items: Vec<T>,
    free: Vec<usize>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Self { items: Vec::new(), free: Vec::new() }
    }
}

impl<T: Copy> Slots<T> {
    fn insert(&mut self, item: T) -> usize {
        if let Some(i) = self.free.pop() {
            self.items[i] = item;
            i
        } else {
            self.items.push(item);
            self.items.len() - 1
        }
    }

    /// The entry in slot `i`, whose slot is freed for reuse.
    fn take(&mut self, i: usize) -> T {
        self.free.push(i);
        self.items[i]
    }

    fn clear(&mut self) {
        self.items.clear();
        self.free.clear();
    }
}

impl<T> std::ops::Index<usize> for Slots<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.items[i]
    }
}

/// Reusable per-phase working state. `run_phase` used to rebuild every one
/// of these maps, queues and buffers on each phase; operators run many
/// short phases per stage, so the machine now owns a single copy that is
/// cleared — capacity retained — at phase entry. The DRAM continuations
/// and the touched-vault list are per-phase too, but live on the machine
/// itself, where [`Machine::enqueue_dram`] reaches them.
#[derive(Debug, Default)]
struct PhaseScratch {
    /// Core requests in flight, freed at their `MemDone` or when a
    /// stalled request is retried under a fresh slot.
    pending: Slots<Pending>,
    vault_tick: Vec<Option<Time>>,
    l1_waiters: Vec<HashMap<u64, Vec<usize>>>,
    llc_waiters: HashMap<u64, Vec<(usize, u64)>>,
    stalls: Vec<VecDeque<usize>>,
    handle_reqs: VecDeque<(usize, MemRequest)>,
    out_buf: Vec<MemRequest>,
    /// Completions of the vault tick being handled.
    done: Vec<DramCompletion>,
}

impl PhaseScratch {
    fn reset(&mut self, vaults: usize, units: usize) {
        self.pending.clear();
        self.vault_tick.clear();
        self.vault_tick.resize(vaults, None);
        self.l1_waiters.resize_with(units, HashMap::new);
        for w in &mut self.l1_waiters {
            w.clear();
        }
        self.llc_waiters.clear();
        self.stalls.resize_with(units, VecDeque::new);
        for s in &mut self.stalls {
            s.clear();
        }
        self.handle_reqs.clear();
        self.out_buf.clear();
        self.done.clear();
    }
}

/// One evaluated system's hardware.
pub struct Machine {
    cfg: SystemConfig,
    map: AddressMap,
    vaults: Vec<VaultController>,
    meshes: Vec<Mesh>,
    /// Per HMC: (CPU→HMC, HMC→CPU).
    cpu_links: Vec<(SerDesLink, SerDesLink)>,
    /// Directional inter-HMC links (NMP fully-connected network).
    hmc_links: HashMap<(u32, u32), SerDesLink>,
    l1s: Vec<Cache>,
    llc: Option<Cache>,
    prefetcher: NextLinePrefetcher,
    /// Clock period of the compute units, which time L1 and LLC hits.
    core_period: Time,
    now: Time,
    /// Permutable region base per vault while a shuffle is active.
    perm_bases: HashMap<u32, u64>,
    /// Arrival metadata from the last shuffle: per vault, `(core, seq)` in
    /// arrival order.
    perm_arrivals: HashMap<u32, Vec<(u32, u32)>>,
    /// Reusable per-phase buffers (allocation diet; see [`PhaseScratch`]).
    scratch: PhaseScratch,
    /// Continuation of every DRAM request in flight that has one, indexed
    /// by its request id and taken when the request completes.
    vault_ops: Slots<VaultOp>,
    /// Vaults enqueued into since the event loop last rescheduled vault
    /// ticks. Only these can need an earlier tick, so the loop rescans
    /// them instead of every vault.
    touched_vaults: Vec<u32>,
    /// Cumulative non-tick events across every phase this machine has run
    /// — the deterministic clock the cooperative event budget and the
    /// `panic_at_event` fault point are measured against.
    events_done: u64,
    stats: Stats,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("kind", &self.cfg.kind)
            .field("vaults", &self.vaults.len())
            .field("now", &self.now)
            .finish()
    }
}

impl Machine {
    /// Builds the machine for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: SystemConfig) -> Self {
        cfg.validate();
        let map = cfg.address_map();
        let vaults = (0..cfg.total_vaults())
            .map(|v| VaultController::new(cfg.vault, map.vault_base(v)))
            .collect();
        let meshes = (0..cfg.hmcs).map(|_| Mesh::new(cfg.mesh)).collect();
        let cpu_links = (0..cfg.hmcs)
            .map(|_| (SerDesLink::new(cfg.serdes), SerDesLink::new(cfg.serdes)))
            .collect();
        let mut hmc_links = HashMap::new();
        if cfg.kind.is_nmp() {
            for a in 0..cfg.hmcs {
                for b in 0..cfg.hmcs {
                    if a != b {
                        hmc_links.insert((a, b), SerDesLink::new(cfg.serdes));
                    }
                }
            }
        }
        let units = cfg.compute_units() as usize;
        let l1_cfg = if cfg.kind.is_mondrian() {
            mondrian_cache::CacheConfig::mondrian_l1()
        } else {
            cfg.l1
        };
        let l1s = (0..units).map(|_| Cache::new(l1_cfg)).collect();
        let llc = (!cfg.kind.is_nmp()).then(|| Cache::new(cfg.llc));
        Self {
            map,
            vaults,
            meshes,
            cpu_links,
            hmc_links,
            l1s,
            llc,
            prefetcher: NextLinePrefetcher::table3(),
            core_period: cfg.kind.core_config().clock.period_ps(),
            now: 0,
            perm_bases: HashMap::new(),
            perm_arrivals: HashMap::new(),
            scratch: PhaseScratch::default(),
            vault_ops: Slots::default(),
            touched_vaults: Vec::new(),
            events_done: 0,
            stats: Stats::new(),
            cfg,
        }
    }

    /// Cumulative non-tick events processed over this machine's lifetime.
    pub fn events_done(&self) -> u64 {
        self.events_done
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The vault lease this machine executes under. Whole machines report
    /// the trivial lease covering every vault.
    pub fn partition(&self) -> PartitionSpec {
        self.cfg.partition.unwrap_or_else(|| PartitionSpec::whole(self.cfg.total_vaults()))
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Advances the clock by `delta` without doing work — used for fixed
    /// synchronization costs such as the shuffle_begin/shuffle_end MSI
    /// barriers (§5.4).
    pub fn advance_time(&mut self, delta: Time) {
        self.now += delta;
    }

    /// The flat address map.
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Installs per-vault permutable destination regions — the hardware
    /// half of `shuffle_begin` (§5.4). `regions[v]` applies to vault `v`.
    ///
    /// # Panics
    ///
    /// Panics if region count mismatches the vault count.
    pub fn shuffle_begin(&mut self, regions: Vec<PermutableRegion>) {
        assert_eq!(regions.len(), self.vaults.len());
        self.perm_bases.clear();
        self.perm_arrivals.clear();
        for (v, region) in regions.into_iter().enumerate() {
            self.perm_bases.insert(v as u32, region.base);
            self.vaults[v].set_permutable_region(region);
        }
    }

    /// Tears down permutable regions and collects the arrival logs — the
    /// hardware half of `shuffle_end`.
    pub fn shuffle_end(&mut self) -> HashMap<u32, Vec<(u32, u32)>> {
        for v in self.vaults.iter_mut() {
            v.clear_permutable_region();
        }
        self.perm_bases.clear();
        std::mem::take(&mut self.perm_arrivals)
    }

    fn tile_of(&self, vault: u32) -> u32 {
        vault % self.cfg.vaults_per_hmc
    }

    fn hmc_of(&self, vault: u32) -> u32 {
        vault / self.cfg.vaults_per_hmc
    }

    /// Network-interface tile on a mesh for external link `peer_slot`.
    fn ni_tile(&self, slot: u32) -> u32 {
        let w = self.cfg.mesh.width;
        let h = self.cfg.mesh.height;
        let corners = [0, w - 1, (h - 1) * w, h * w - 1];
        corners[(slot % 4) as usize]
    }

    /// Routes `bytes` of payload from `from` to vault `to`; returns the
    /// arrival time.
    fn route_to_vault(&mut self, from: Ep, to: u32, bytes: u32, t: Time) -> Time {
        let dst_hmc = self.hmc_of(to);
        let dst_tile = self.tile_of(to);
        match from {
            Ep::Cpu => {
                let t1 = self.cpu_links[dst_hmc as usize].0.send(bytes, t);
                let ni = self.ni_tile(0);
                self.meshes[dst_hmc as usize].send_unreserved(ni, dst_tile, bytes, t1)
            }
            Ep::Vault(src) => {
                let src_hmc = self.hmc_of(src);
                let src_tile = self.tile_of(src);
                if src_hmc == dst_hmc {
                    self.meshes[src_hmc as usize].send(src_tile, dst_tile, bytes, t)
                } else {
                    let ni_out = self.ni_tile(dst_hmc);
                    let t1 =
                        self.meshes[src_hmc as usize].send_unreserved(src_tile, ni_out, bytes, t);
                    let t2 = self
                        .hmc_links
                        .get_mut(&(src_hmc, dst_hmc))
                        .expect("fully-connected NMP network")
                        .send(bytes, t1);
                    let ni_in = self.ni_tile(src_hmc);
                    self.meshes[dst_hmc as usize].send_unreserved(ni_in, dst_tile, bytes, t2)
                }
            }
        }
    }

    /// Routes a response from vault `from` back to `to`.
    fn route_from_vault(&mut self, from: u32, to: Ep, bytes: u32, t: Time) -> Time {
        let src_hmc = self.hmc_of(from);
        let src_tile = self.tile_of(from);
        match to {
            Ep::Cpu => {
                let ni = self.ni_tile(0);
                let t1 = self.meshes[src_hmc as usize].send_unreserved(src_tile, ni, bytes, t);
                self.cpu_links[src_hmc as usize].1.send(bytes, t1)
            }
            Ep::Vault(dst) => {
                // Symmetric to route_to_vault.
                let dst_hmc = self.hmc_of(dst);
                if src_hmc == dst_hmc {
                    let dt = self.tile_of(dst);
                    self.meshes[src_hmc as usize].send(src_tile, dt, bytes, t)
                } else {
                    let ni_out = self.ni_tile(dst_hmc);
                    let t1 =
                        self.meshes[src_hmc as usize].send_unreserved(src_tile, ni_out, bytes, t);
                    let t2 = self
                        .hmc_links
                        .get_mut(&(src_hmc, dst_hmc))
                        .expect("fully-connected NMP network")
                        .send(bytes, t1);
                    let ni_in = self.ni_tile(src_hmc);
                    let dt = self.tile_of(dst);
                    self.meshes[dst_hmc as usize].send_unreserved(ni_in, dt, bytes, t2)
                }
            }
        }
    }

    fn endpoint(&self, core: usize) -> Ep {
        if self.cfg.kind.is_nmp() {
            Ep::Vault(core as u32)
        } else {
            Ep::Cpu
        }
    }

    /// Runs one phase: `kernels[i]` executes on compute unit `i` (`None`
    /// idles the unit).
    ///
    /// After each batch of core requests the loop reschedules only the
    /// vaults that batch enqueued into (`touched_vaults`), in ascending
    /// order — the order a scan of every vault would schedule them in. Any
    /// other vault's next event can only move through its own tick, which
    /// reschedules it.
    ///
    /// A reschedule to a sooner time leaves the vault's later tick in the
    /// queue. `vault_tick` names the one live tick per vault, and a popped
    /// tick it does not name is skipped: at that time the vault has
    /// nothing due (its next event is later), so polling it would do
    /// nothing but queue a duplicate of the live tick.
    ///
    /// # Errors
    ///
    /// Returns the number of dropped permutable writes if any destination
    /// buffer overflowed — the exception the CPU must handle by resizing
    /// and re-running the shuffle (§5.4).
    ///
    /// # Panics
    ///
    /// Panics on kernel/machine mismatches (wrong kernel count, SIMD on
    /// non-SIMD cores, deadlock).
    pub fn run_phase(
        &mut self,
        kernels: Vec<Option<Box<dyn Kernel>>>,
        label: &str,
    ) -> Result<PhaseOutcome, u64> {
        assert_eq!(kernels.len(), self.l1s.len(), "one kernel slot per compute unit");
        let start = self.now;
        let core_cfg = self.cfg.kind.core_config();
        let mut cores: Vec<Option<Core>> = kernels
            .into_iter()
            .map(|k| {
                k.map(|kernel| {
                    let mut c = Core::new(core_cfg, kernel);
                    c.set_start(start);
                    c
                })
            })
            .collect();

        let mut queue: EventQueue<Ev> = EventQueue::new();
        // The phase working set lives on the machine (allocation reuse
        // across phases); it is taken whole so the borrow checker sees it
        // as disjoint from `self` inside the loop, and restored at exit.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.reset(self.vaults.len(), self.l1s.len());
        self.vault_ops.clear();
        self.touched_vaults.clear();
        let PhaseScratch {
            pending,
            vault_tick,
            l1_waiters,
            llc_waiters,
            stalls,
            handle_reqs,
            out_buf,
            done,
        } = &mut scratch;
        let mut overflows: u64 = 0;
        let mut end = start;

        for (i, c) in cores.iter().enumerate() {
            if c.is_some() {
                queue.schedule(start, Ev::Advance(i));
            }
        }

        // The borrow checker forbids neat closures over `self` here; the
        // loop body is written out imperatively instead.
        macro_rules! sched_vault {
            ($q:expr, $vt:expr, $v:expr) => {{
                let v = $v as usize;
                if let Some(t) = self.vaults[v].next_event_time() {
                    if $vt[v].is_none_or(|cur| t < cur) {
                        $vt[v] = Some(t);
                        $q.schedule(t, Ev::VaultTick($v as u32));
                    }
                }
            }};
        }

        macro_rules! advance_core {
            ($i:expr) => {{
                let i = $i;
                if let Some(core) = cores[i].as_mut() {
                    out_buf.clear();
                    let status = core.advance(out_buf);
                    for r in out_buf.drain(..) {
                        handle_reqs.push_back((i, r));
                    }
                    if let CoreStatus::Finished(at) = status {
                        end = end.max(at);
                    }
                }
            }};
        }

        // Main event loop.
        let mut guard: u64 = 0;
        let mut events: u64 = 0;
        loop {
            // Drain newly emitted core requests first (they carry their own
            // issue timestamps).
            if !handle_reqs.is_empty() {
                while let Some((i, req)) = handle_reqs.pop_front() {
                    self.issue_request(
                        i,
                        req,
                        &mut queue,
                        pending,
                        l1_waiters,
                        llc_waiters,
                        stalls,
                        &mut overflows,
                    );
                }
                // Only the vaults just enqueued into can need an earlier
                // tick.
                let mut touched = std::mem::take(&mut self.touched_vaults);
                touched.sort_unstable();
                touched.dedup();
                for &v in &touched {
                    sched_vault!(queue, vault_tick, v);
                }
                touched.clear();
                self.touched_vaults = touched;
                debug_assert!(
                    self.vaults.iter().zip(vault_tick.iter()).all(|(vault, tick)| {
                        vault.next_event_time().is_none_or(|t| tick.is_some_and(|cur| cur <= t))
                    }),
                    "a vault outside the touched set needs an earlier tick in phase {label}"
                );
            }
            let Some((t, ev)) = queue.pop() else {
                break;
            };
            self.now = self.now.max(t);
            end = end.max(t);
            guard += 1;
            assert!(guard < 2_000_000_000, "event-loop runaway in phase {label}");
            if !matches!(ev, Ev::VaultTick(_)) {
                events += 1;
                self.events_done += 1;
                // Cooperative checkpoints, measured against the cumulative
                // non-tick event count.
                crate::faultpoint!(self.cfg.fault, fault::Site::Event(self.events_done));
                if let Some(budget) = self.cfg.event_budget {
                    if self.events_done > budget {
                        Abort::throw(
                            AbortReason::LimitEvents,
                            format!("event budget {budget} exhausted in phase {label}"),
                        );
                    }
                }
            }
            match ev {
                Ev::Advance(i) => advance_core!(i),
                Ev::VaultTick(v) => {
                    if vault_tick[v as usize] != Some(t) {
                        // A leftover of an earlier reschedule to a sooner
                        // time; the live tick is still queued.
                        debug_assert!(
                            self.vaults[v as usize].next_event_time().is_none_or(|n| n > t),
                            "stale tick for vault {v} at {t} would have found work"
                        );
                        continue;
                    }
                    vault_tick[v as usize] = None;
                    crate::faultpoint!(self.cfg.fault, fault::Site::VaultPoll);
                    self.vaults[v as usize].poll_into(t, done);
                    for c in done.iter() {
                        if c.id == NO_CONTINUATION {
                            continue;
                        }
                        match self.vault_ops.take(c.id as usize) {
                            VaultOp::Fire => {}
                            VaultOp::StreamFill { pending: p } => {
                                let done_at = c.finish + PS_PER_NS;
                                queue.schedule(done_at, Ev::MemDone { pending: p });
                            }
                            VaultOp::L1Fill { core, line } => {
                                let back = self.route_from_vault(
                                    v,
                                    self.endpoint(core),
                                    self.l1s[core].config().line_bytes,
                                    c.finish,
                                );
                                queue.schedule(back, Ev::L1FillDone { core, line });
                            }
                            VaultOp::LlcFill { line } => {
                                let bytes = self.cfg.llc.line_bytes;
                                let back = self.route_from_vault(v, Ep::Cpu, bytes, c.finish);
                                queue.schedule(back, Ev::LlcFillDone { line });
                            }
                        }
                    }
                    sched_vault!(queue, vault_tick, v);
                }
                Ev::MemDone { pending: p } => {
                    let Pending { core: core_id, req } = pending.take(p);
                    if let Some(core) = cores[core_id].as_mut() {
                        out_buf.clear();
                        core.complete_mem(&req, t, out_buf);
                        for r in out_buf.drain(..) {
                            handle_reqs.push_back((core_id, r));
                        }
                    }
                    queue.schedule(t, Ev::Advance(core_id));
                }
                Ev::L1FillDone { core, line } => {
                    self.l1s[core].complete_fill(line);
                    if let Some(waiters) = l1_waiters[core].remove(&line) {
                        for p in waiters {
                            let req = pending[p].req;
                            if matches!(req.kind, MemKind::Store(_)) {
                                self.l1s[core].mark_dirty(req.addr);
                            }
                            queue.schedule(t, Ev::MemDone { pending: p });
                        }
                    }
                    // Retry accesses stalled on MSHRs (they re-enter
                    // issue_request with fresh pending slots; the stalled
                    // slot itself is abandoned).
                    while let Some(p) = stalls[core].pop_front() {
                        if !self.l1s[core].mshr_available() {
                            stalls[core].push_front(p);
                            break;
                        }
                        let mut retry = pending.take(p).req;
                        retry.issue_at = t;
                        handle_reqs.push_back((core, retry));
                    }
                    queue.schedule(t, Ev::Advance(core));
                }
                Ev::LlcFillDone { line } => {
                    let llc = self.llc.as_mut().expect("LLC fills only on the CPU system");
                    llc.complete_fill(line);
                    if let Some(waiters) = llc_waiters.remove(&line) {
                        for (core, l1_line) in waiters {
                            queue.schedule(t + PS_PER_NS, Ev::L1FillDone { core, line: l1_line });
                        }
                    }
                }
            }
        }

        // Hand the (cleared-on-entry) working set back for the next phase.
        self.scratch = scratch;

        // All cores must have finished; otherwise we deadlocked.
        let mut instructions = 0;
        let mut simd_ops = 0;
        let mut core_busy = Vec::with_capacity(cores.len());
        for (i, c) in cores.iter().enumerate() {
            let Some(core) = c else {
                core_busy.push(0.0);
                continue;
            };
            assert!(core.finished(), "compute unit {i} deadlocked in phase {label} (window stuck)");
            instructions += core.stats().instructions;
            simd_ops += core.stats().simd_ops;
            let cycles = core.config().clock.ps_to_cycles_ceil((end - start).max(1));
            let ipc = core.stats().instructions as f64 / cycles as f64;
            core_busy.push((ipc / core.config().width as f64).min(1.0));
        }
        self.now = end;
        let outcome = PhaseOutcome {
            label: label.to_owned(),
            start,
            end,
            instructions,
            simd_ops,
            core_busy,
            overflows,
            events,
        };
        if overflows > 0 {
            return Err(overflows);
        }
        Ok(outcome)
    }

    /// Issues one core memory request into caches/network/vaults.
    #[allow(clippy::too_many_arguments)]
    fn issue_request(
        &mut self,
        core: usize,
        req: MemRequest,
        queue: &mut EventQueue<Ev>,
        pending: &mut Slots<Pending>,
        l1_waiters: &mut [HashMap<u64, Vec<usize>>],
        llc_waiters: &mut HashMap<u64, Vec<(usize, u64)>>,
        stalls: &mut [VecDeque<usize>],
        overflows: &mut u64,
    ) {
        let t = req.issue_at;
        match req.kind {
            MemKind::Load | MemKind::Store(StoreKind::Cached) => {
                let p = pending.insert(Pending { core, req });
                self.cached_access(core, p, req, queue, l1_waiters, llc_waiters, stalls);
            }
            MemKind::Store(StoreKind::Streaming) => {
                let p = pending.insert(Pending { core, req });
                let vault = self.map.vault_of(req.addr);
                let arr = self.route_to_vault(self.endpoint(core), vault, req.bytes, t);
                // Posted write: the store queue entry frees once the network
                // has accepted the message (link back-pressure applies via
                // the reservation in `arr`); the DRAM write itself still
                // holds the phase open until it drains.
                queue.schedule(arr, Ev::MemDone { pending: p });
                // Split at DRAM row boundaries (the HMC protocol would carry
                // this as one packet; the controller issues per-row column
                // commands).
                let row_bytes = self.cfg.vault.row_bytes as u64;
                let mut addr = req.addr;
                let end = req.addr + req.bytes as u64;
                while addr < end {
                    let row_end = (addr / row_bytes + 1) * row_bytes;
                    let chunk = end.min(row_end) - addr;
                    let bytes = chunk as u32;
                    self.enqueue_dram(vault, addr, bytes, AccessKind::Write, arr, VaultOp::Fire)
                        .expect("plain writes cannot overflow");
                    addr += chunk;
                }
            }
            MemKind::Store(StoreKind::Permutable { dst_vault }) => {
                // The request's address field carries the object emission
                // sequence (see the core model).
                let seq = req.addr;
                let arr = self.route_to_vault(self.endpoint(core), dst_vault, req.bytes, t);
                let base = *self
                    .perm_bases
                    .get(&dst_vault)
                    .expect("permutable store outside an active shuffle");
                let kind = AccessKind::PermutableWrite;
                match self.enqueue_dram(dst_vault, base, req.bytes, kind, arr, VaultOp::Fire) {
                    Ok(()) => {
                        let arrival =
                            (core as u32, u32::try_from(seq).expect("object seq fits u32"));
                        self.perm_arrivals.entry(dst_vault).or_default().push(arrival);
                    }
                    Err(_) => *overflows += 1,
                }
            }
            MemKind::StreamFill { .. } => {
                let p = pending.insert(Pending { core, req });
                let vault = self.map.vault_of(req.addr);
                debug_assert_eq!(
                    vault, core as u32,
                    "stream buffers prefetch from the local vault only"
                );
                let op = VaultOp::StreamFill { pending: p };
                self.enqueue_dram(vault, req.addr, req.bytes, AccessKind::Read, t + PS_PER_NS, op)
                    .expect("reads cannot overflow");
            }
        }
    }

    /// Enqueues a DRAM request into vault `vault`, registers its
    /// continuation `op` under a free request id and marks the vault
    /// touched. A [`VaultOp::Fire`] request takes no slot: it is tagged
    /// [`NO_CONTINUATION`], so a permutable scatter's flood of writes (the
    /// only requests that can overflow) never grows the continuation
    /// table. Every vault enqueue in the engine goes through here.
    fn enqueue_dram(
        &mut self,
        vault: u32,
        addr: u64,
        bytes: u32,
        kind: AccessKind,
        at: Time,
        op: VaultOp,
    ) -> Result<(), PermutableOverflow> {
        let id = match op {
            VaultOp::Fire => NO_CONTINUATION,
            op => self.vault_ops.insert(op) as u64,
        };
        let res = self.vaults[vault as usize].enqueue(DramRequest { id, addr, bytes, kind }, at);
        self.touched_vaults.push(vault);
        res
    }

    /// A cacheable load/store works its way through L1 (and the LLC on the
    /// CPU system).
    #[allow(clippy::too_many_arguments)]
    fn cached_access(
        &mut self,
        core: usize,
        p: usize,
        req: MemRequest,
        queue: &mut EventQueue<Ev>,
        l1_waiters: &mut [HashMap<u64, Vec<usize>>],
        llc_waiters: &mut HashMap<u64, Vec<(usize, u64)>>,
        stalls: &mut [VecDeque<usize>],
    ) {
        let is_write = matches!(req.kind, MemKind::Store(_));
        let t_hit = req.issue_at + self.cfg.l1_hit_cycles * self.core_period;
        let line = self.cfg.l1.line_of(req.addr);
        match self.l1s[core].lookup(req.addr, is_write) {
            Lookup::Hit => {
                queue.schedule(t_hit, Ev::MemDone { pending: p });
            }
            Lookup::PendingMiss => {
                l1_waiters[core].entry(line).or_default().push(p);
            }
            Lookup::Miss => {
                if !self.l1s[core].can_begin_fill(line) {
                    stalls[core].push_back(p);
                    return;
                }
                l1_waiters[core].entry(line).or_default().push(p);
                self.start_l1_fill(core, line, t_hit, false, queue, llc_waiters);
                // Next-line prefetcher reacts to the demand miss.
                for cand in self.prefetcher.candidates(req.addr) {
                    if self.l1s[core].can_begin_fill(cand) {
                        self.start_l1_fill(core, cand, t_hit, true, queue, llc_waiters);
                    }
                }
            }
        }
    }

    /// Starts an L1 line fill (demand or prefetch) and pushes it down the
    /// hierarchy.
    fn start_l1_fill(
        &mut self,
        core: usize,
        line: u64,
        t: Time,
        prefetch: bool,
        queue: &mut EventQueue<Ev>,
        llc_waiters: &mut HashMap<u64, Vec<(usize, u64)>>,
    ) {
        let line_bytes = self.l1s[core].config().line_bytes;
        let fill = self.l1s[core].begin_fill(line, prefetch);
        if let Some(wb) = fill.writeback {
            self.writeback(core, wb, line_bytes, t);
        }
        if self.llc.is_some() {
            // CPU system: consult the shared LLC.
            let t_llc = t + self.cfg.llc_hit_cycles * self.core_period;
            let llc = self.llc.as_mut().expect("checked");
            match llc.lookup(line, false) {
                Lookup::Hit => {
                    queue.schedule(t_llc, Ev::L1FillDone { core, line });
                }
                Lookup::PendingMiss => {
                    llc_waiters.entry(line).or_default().push((core, line));
                }
                Lookup::Miss => {
                    // When the LLC cannot accept another fill (MSHR pool or
                    // set exhausted), fetch the line from memory directly
                    // without allocating it in the LLC.
                    if !llc.can_begin_fill(line) {
                        self.memory_read_for_l1(core, line, t_llc);
                        return;
                    }
                    let fill = llc.begin_fill(line, false);
                    llc_waiters.entry(line).or_default().push((core, line));
                    let bytes = self.cfg.llc.line_bytes;
                    if let Some(wb) = fill.writeback {
                        self.writeback_from_cpu(wb, bytes, t_llc);
                    }
                    let vault = self.map.vault_of(line);
                    let arr = self.route_to_vault(Ep::Cpu, vault, 8, t_llc);
                    let op = VaultOp::LlcFill { line };
                    self.enqueue_dram(vault, line, bytes, AccessKind::Read, arr, op)
                        .expect("reads cannot overflow");
                }
            }
        } else {
            // NMP systems: L1 misses go straight to DRAM.
            self.memory_read_for_l1(core, line, t);
        }
    }

    fn memory_read_for_l1(&mut self, core: usize, line: u64, t: Time) {
        let vault = self.map.vault_of(line);
        let arr = self.route_to_vault(self.endpoint(core), vault, 8, t);
        let bytes = self.l1s[core].config().line_bytes;
        let op = VaultOp::L1Fill { core, line };
        self.enqueue_dram(vault, line, bytes, AccessKind::Read, arr, op)
            .expect("reads cannot overflow");
    }

    fn writeback(&mut self, core: usize, addr: u64, bytes: u32, t: Time) {
        if let Some(llc) = self.llc.as_mut() {
            // CPU: L1 writebacks land in the LLC when it holds the line.
            if let Lookup::Hit = llc.lookup(addr, true) {
                return;
            }
            self.writeback_from_cpu(addr, bytes, t);
        } else {
            let vault = self.map.vault_of(addr);
            let arr = self.route_to_vault(self.endpoint(core), vault, bytes, t);
            self.enqueue_dram(vault, addr, bytes, AccessKind::Write, arr, VaultOp::Fire)
                .expect("writes fit");
        }
    }

    fn writeback_from_cpu(&mut self, addr: u64, bytes: u32, t: Time) {
        let vault = self.map.vault_of(addr);
        let arr = self.route_to_vault(Ep::Cpu, vault, bytes, t);
        self.enqueue_dram(vault, addr, bytes, AccessKind::Write, arr, VaultOp::Fire)
            .expect("writes fit");
    }

    /// Exports all component statistics into one registry and returns it.
    ///
    /// A whole machine exports under the familiar local labels. A leased
    /// partition attributes its traffic to the *global* hardware it
    /// actually touched: vault counters carry global vault ids, and mesh /
    /// SerDes counters are keyed by the global vault their device window
    /// starts at, so merging the registries of concurrently leased
    /// partitions never conflates two tenants' vaults while SerDes traffic
    /// still aggregates globally under the shared `serdes.` namespace.
    pub fn export_stats(&mut self) -> Stats {
        let mut s = std::mem::take(&mut self.stats);
        let view = self.cfg.partition_view();
        let whole = view.is_whole();
        let vph = self.cfg.vaults_per_hmc;
        for (v, vault) in self.vaults.iter().enumerate() {
            let g = view.global_vault(v as u32);
            vault.stats().export(&mut s, &format!("vault.{g}"));
        }
        for (h, mesh) in self.meshes.iter().enumerate() {
            let label = if whole {
                format!("mesh.{h}")
            } else {
                format!("mesh.at_v{}", view.global_vault(h as u32 * vph))
            };
            mesh.stats().export(&mut s, &label);
        }
        for (h, (tx, rx)) in self.cpu_links.iter().enumerate() {
            let tag = if whole {
                format!("cpu{h}")
            } else {
                format!("cpu_at_v{}", view.global_vault(h as u32 * vph))
            };
            tx.stats().export(&mut s, &format!("serdes.{tag}.tx"));
            rx.stats().export(&mut s, &format!("serdes.{tag}.rx"));
        }
        for ((a, b), link) in &self.hmc_links {
            link.stats().export(&mut s, &format!("serdes.hmc{a}to{b}"));
        }
        let part = self.partition();
        for (i, l1) in self.l1s.iter().enumerate() {
            let label = if whole {
                format!("l1.{i}")
            } else if self.cfg.kind.is_nmp() {
                format!("l1.{}", view.global_vault(i as u32))
            } else {
                format!("l1.p{}.{i}", part.index)
            };
            l1.stats().export(&mut s, &label);
        }
        if let Some(llc) = &self.llc {
            llc.stats().export(&mut s, "llc");
        }
        s
    }

    /// Machine-wide NoC rollup: every mesh's traffic merged into one total
    /// (attributed to this machine's lease), and every SerDes direction —
    /// CPU links and inter-HMC links alike — merged into one globally
    /// charged total. The lessor folds these across concurrent partitions
    /// at the join barrier.
    pub fn noc_rollup(&self) -> (MeshStats, SerDesStats) {
        let mut mesh = MeshStats::default();
        for m in &self.meshes {
            mesh.merge(m.stats());
        }
        let mut serdes = SerDesStats::default();
        for (tx, rx) in &self.cpu_links {
            serdes.merge(tx.stats());
            serdes.merge(rx.stats());
        }
        for link in self.hmc_links.values() {
            serdes.merge(link.stats());
        }
        (mesh, serdes)
    }

    /// Number of SerDes link *directions* powered in this system (for idle
    /// energy).
    pub fn serdes_directions(&self) -> u32 {
        (self.cpu_links.len() * 2 + self.hmc_links.len()) as u32
    }
}
