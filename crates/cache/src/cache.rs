//! Set-associative cache with pending-fill (MSHR) tracking.

use mondrian_sim::Stats;

/// Cache geometry and limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Maximum outstanding fills (MSHRs).
    pub mshrs: u32,
}

impl CacheConfig {
    /// The CPU/NMP L1 data cache: 32 KB, 2-way, 64 B lines, 32 MSHRs.
    pub fn l1d() -> Self {
        Self { capacity: 32 << 10, ways: 2, line_bytes: 64, mshrs: 32 }
    }

    /// The Mondrian compute unit's small cache: 8 KB (§5.2), 2-way.
    pub fn mondrian_l1() -> Self {
        Self { capacity: 8 << 10, ways: 2, line_bytes: 64, mshrs: 8 }
    }

    /// The shared LLC: 4 MB, 16-way, 64 B lines.
    pub fn llc() -> Self {
        Self { capacity: 4 << 20, ways: 16, line_bytes: 64, mshrs: 64 }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity / (self.ways as u64 * self.line_bytes as u64)
    }

    /// The line-aligned base address containing `addr`.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes as u64 * self.line_bytes as u64
    }
}

/// Result of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line is resident and ready.
    Hit,
    /// The line has an outstanding fill; the access merges onto it (no new
    /// memory traffic, but the requester must wait for the fill).
    PendingMiss,
    /// The line is absent; a fill must be started.
    Miss,
}

/// Result of starting a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// A dirty victim line that must be written back to memory, if any.
    pub writeback: Option<u64>,
}

/// Event counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Ready hits.
    pub hits: u64,
    /// Accesses that merged onto an outstanding fill.
    pub pending_hits: u64,
    /// Demand misses that started a fill.
    pub misses: u64,
    /// Fills triggered by the prefetcher.
    pub prefetch_fills: u64,
    /// Clean evictions.
    pub evictions_clean: u64,
    /// Dirty evictions (each produces a memory write).
    pub evictions_dirty: u64,
}

impl CacheStats {
    /// Total accesses observed (hits + pending hits + misses).
    pub fn accesses(&self) -> u64 {
        self.hits + self.pending_hits + self.misses
    }

    /// Exports counters into a [`Stats`] registry under `prefix`.
    pub fn export(&self, stats: &mut Stats, prefix: &str) {
        stats.add_count(&format!("{prefix}.hits"), self.hits);
        stats.add_count(&format!("{prefix}.pending_hits"), self.pending_hits);
        stats.add_count(&format!("{prefix}.misses"), self.misses);
        stats.add_count(&format!("{prefix}.prefetch_fills"), self.prefetch_fills);
        stats.add_count(&format!("{prefix}.evictions_dirty"), self.evictions_dirty);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineState {
    Invalid,
    /// Fill in flight; data not yet usable.
    Pending,
    Valid {
        dirty: bool,
    },
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    state: LineState,
    lru: u64,
}

/// A set-associative, write-back/write-allocate cache with true LRU and
/// MSHR-style pending-fill tracking.
///
/// The cache is a *state* model: `lookup` classifies an access, `begin_fill`
/// allocates a victim way and reports any dirty writeback, and
/// `complete_fill` makes the line usable. The embedding engine provides all
/// timing (when the fill's memory request completes, it calls
/// [`Cache::complete_fill`]).
///
/// # Example
///
/// ```
/// use mondrian_cache::{Cache, CacheConfig, Lookup};
/// let mut c = Cache::new(CacheConfig::l1d());
/// assert_eq!(c.lookup(0x40, false), Lookup::Miss);
/// c.begin_fill(0x40, false);
/// assert_eq!(c.lookup(0x40, false), Lookup::PendingMiss);
/// c.complete_fill(0x40);
/// assert_eq!(c.lookup(0x40, true), Lookup::Hit); // and now dirty
/// ```
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// Every way of every set, set-major: set `s` is
    /// `lines[s * ways..(s + 1) * ways]`.
    lines: Vec<Line>,
    /// The set count, `cfg.sets()`, computed once.
    sets: u64,
    tick: u64,
    outstanding: u32,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets/ways/line).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.ways > 0 && cfg.line_bytes > 0, "degenerate geometry");
        let sets = cfg.sets();
        assert!(sets > 0, "capacity too small for one set");
        assert!(
            cfg.capacity == sets * cfg.ways as u64 * cfg.line_bytes as u64,
            "capacity must factor exactly into sets × ways × line"
        );
        Self {
            lines: vec![
                Line { tag: 0, state: LineState::Invalid, lru: 0 };
                (sets * cfg.ways as u64) as usize
            ],
            sets,
            cfg,
            tick: 0,
            outstanding: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.cfg.line_bytes as u64;
        ((line % self.sets) as usize, line / self.sets)
    }

    /// The ways of set `set`.
    fn set(&self, set: usize) -> &[Line] {
        let ways = self.cfg.ways as usize;
        &self.lines[set * ways..(set + 1) * ways]
    }

    fn set_mut(&mut self, set: usize) -> &mut [Line] {
        let ways = self.cfg.ways as usize;
        &mut self.lines[set * ways..(set + 1) * ways]
    }

    /// Classifies an access to `addr` and updates LRU/dirty state on a hit.
    pub fn lookup(&mut self, addr: u64, write: bool) -> Lookup {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index(addr);
        for line in self.set_mut(set) {
            if line.tag != tag {
                continue;
            }
            match line.state {
                LineState::Valid { dirty } => {
                    line.lru = tick;
                    if write {
                        line.state = LineState::Valid { dirty: true };
                    } else {
                        line.state = LineState::Valid { dirty };
                    }
                    self.stats.hits += 1;
                    return Lookup::Hit;
                }
                LineState::Pending => {
                    line.lru = tick;
                    self.stats.pending_hits += 1;
                    return Lookup::PendingMiss;
                }
                LineState::Invalid => {}
            }
        }
        self.stats.misses += 1;
        Lookup::Miss
    }

    /// Whether the line containing `addr` is resident and ready (no LRU or
    /// statistics side effects).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.set(set).iter().any(|l| l.tag == tag && matches!(l.state, LineState::Valid { .. }))
    }

    /// Whether the line containing `addr` is resident *or* has a fill in
    /// flight (no side effects) — used by prefetch filtering.
    pub fn tracked(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.set(set).iter().any(|l| l.tag == tag && l.state != LineState::Invalid)
    }

    /// Whether an MSHR is available for a new fill.
    pub fn mshr_available(&self) -> bool {
        self.outstanding < self.cfg.mshrs
    }

    /// Whether a fill for `addr`'s line can start right now: an MSHR is
    /// free, the line is absent, and its set has an evictable way (a set
    /// whose ways are all mid-fill cannot accept another fill).
    pub fn can_begin_fill(&self, addr: u64) -> bool {
        if !self.mshr_available() {
            return false;
        }
        let (set, tag) = self.index(addr);
        let mut evictable = false;
        for l in self.set(set) {
            if l.tag == tag && l.state != LineState::Invalid {
                return false; // already present or pending
            }
            evictable |= l.state != LineState::Pending;
        }
        evictable
    }

    /// Starts a fill for the line containing `addr`, evicting the LRU valid
    /// way. Set `prefetch` for prefetcher-initiated fills (counted
    /// separately).
    ///
    /// Returns the dirty victim to write back, if any.
    ///
    /// # Panics
    ///
    /// Panics if no MSHR is available or the line is already present or
    /// pending (callers must consult [`Cache::lookup`]/
    /// [`Cache::mshr_available`] first).
    pub fn begin_fill(&mut self, addr: u64, prefetch: bool) -> FillOutcome {
        assert!(self.mshr_available(), "no MSHR available");
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index(addr);
        assert!(
            !self.set(set).iter().any(|l| l.tag == tag && l.state != LineState::Invalid),
            "line already present"
        );
        if prefetch {
            self.stats.prefetch_fills += 1;
        }
        self.outstanding += 1;
        let sets_count = self.sets;
        let line_bytes = self.cfg.line_bytes as u64;
        // Victim: an invalid way if any, else the LRU way that is not
        // pending (pending lines cannot be evicted mid-fill).
        let ways = self.cfg.ways as usize;
        let set_lines = &mut self.lines[set * ways..(set + 1) * ways];
        if let Some(way) = set_lines.iter_mut().find(|l| l.state == LineState::Invalid) {
            *way = Line { tag, state: LineState::Pending, lru: tick };
            return FillOutcome { writeback: None };
        }
        let victim = set_lines
            .iter_mut()
            .filter(|l| matches!(l.state, LineState::Valid { .. }))
            .min_by_key(|l| l.lru)
            .expect("set entirely pending: callers must check can_begin_fill");
        let writeback = match victim.state {
            LineState::Valid { dirty: true } => {
                self.stats.evictions_dirty += 1;
                Some((victim.tag * sets_count + set as u64) * line_bytes)
            }
            _ => {
                self.stats.evictions_clean += 1;
                None
            }
        };
        *victim = Line { tag, state: LineState::Pending, lru: tick };
        FillOutcome { writeback }
    }

    /// Completes a previously started fill, making the line usable.
    ///
    /// # Panics
    ///
    /// Panics if no fill is pending for that line.
    pub fn complete_fill(&mut self, addr: u64) {
        let (set, tag) = self.index(addr);
        let line = self
            .set_mut(set)
            .iter_mut()
            .find(|l| l.tag == tag && l.state == LineState::Pending)
            .expect("no pending fill for line");
        line.state = LineState::Valid { dirty: false };
        self.outstanding -= 1;
    }

    /// Marks a resident line dirty (used when a write merges with a fill).
    ///
    /// Does nothing if the line is not resident.
    pub fn mark_dirty(&mut self, addr: u64) {
        let (set, tag) = self.index(addr);
        if let Some(line) = self
            .set_mut(set)
            .iter_mut()
            .find(|l| l.tag == tag && matches!(l.state, LineState::Valid { .. }))
        {
            line.state = LineState::Valid { dirty: true };
        }
    }

    /// Number of fills currently outstanding.
    pub fn outstanding_fills(&self) -> u32 {
        self.outstanding
    }

    /// Event counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Invalidates all contents and resets statistics.
    pub fn reset(&mut self) {
        for line in &mut self.lines {
            line.state = LineState::Invalid;
        }
        self.tick = 0;
        self.outstanding = 0;
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64 B lines = 256 B.
        Cache::new(CacheConfig { capacity: 256, ways: 2, line_bytes: 64, mshrs: 4 })
    }

    fn fill(c: &mut Cache, addr: u64) -> FillOutcome {
        let out = c.begin_fill(addr, false);
        c.complete_fill(addr);
        out
    }

    #[test]
    fn geometry() {
        let c = CacheConfig::l1d();
        assert_eq!(c.sets(), 256);
        assert_eq!(CacheConfig::llc().sets(), 4096);
        assert_eq!(c.line_of(0x7f), 0x40);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.lookup(0, false), Lookup::Miss);
        fill(&mut c, 0);
        assert_eq!(c.lookup(0, false), Lookup::Hit);
        assert_eq!(c.lookup(63, false), Lookup::Hit, "same line");
        assert_eq!(c.lookup(64, false), Lookup::Miss, "next line");
    }

    #[test]
    fn pending_fill_merges() {
        let mut c = tiny();
        assert_eq!(c.lookup(0, false), Lookup::Miss);
        c.begin_fill(0, false);
        assert_eq!(c.lookup(0, false), Lookup::PendingMiss);
        assert_eq!(c.stats().pending_hits, 1);
        c.complete_fill(0);
        assert_eq!(c.lookup(0, false), Lookup::Hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines 0 and 128 (2 sets × 64 B ⇒ stride 128).
        fill(&mut c, 0);
        fill(&mut c, 128);
        c.lookup(0, false); // touch 0 → LRU is 128
        fill(&mut c, 256); // evicts 128
        assert!(c.probe(0));
        assert!(!c.probe(128));
        assert!(c.probe(256));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        fill(&mut c, 0);
        c.lookup(0, true); // dirty, but then 128 is filled later → 0 is LRU
        fill(&mut c, 128);
        let out = c.begin_fill(256, false);
        assert_eq!(out.writeback, Some(0), "dirty LRU line 0 must write back");
        assert_eq!(c.stats().evictions_dirty, 1);
        c.complete_fill(256);
        // Touch 128, then evict: victim is 256 (filled earlier), clean.
        c.lookup(128, false);
        let out = c.begin_fill(0, false);
        assert_eq!(out.writeback, None);
        assert_eq!(c.stats().evictions_clean, 1);
    }

    #[test]
    fn writeback_address_reconstruction() {
        let mut c = tiny();
        // Line at 0x1080: line index 66, set = 66 % 2 = 0, tag = 33.
        fill(&mut c, 0x1080);
        c.lookup(0x1080, true);
        fill(&mut c, 0x80); // same set (line 2, set 0)
        let out = c.begin_fill(0x180, false); // set 1? line 6 → set 0. evict LRU = 0x1080
        assert_eq!(out.writeback, Some(0x1080));
    }

    #[test]
    fn mshr_limit() {
        let mut c = Cache::new(CacheConfig { capacity: 512, ways: 2, line_bytes: 64, mshrs: 2 });
        c.begin_fill(0, false);
        c.begin_fill(64, false);
        assert!(!c.mshr_available());
        c.complete_fill(0);
        assert!(c.mshr_available());
        assert_eq!(c.outstanding_fills(), 1);
    }

    #[test]
    fn write_hit_marks_dirty_for_later_eviction() {
        let mut c = tiny();
        fill(&mut c, 0);
        assert_eq!(c.lookup(0, true), Lookup::Hit);
        fill(&mut c, 128);
        c.lookup(128, false);
        // Evicting line 0 must now produce a writeback.
        let out = c.begin_fill(256, false);
        assert_eq!(out.writeback, Some(0));
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn double_fill_panics() {
        let mut c = tiny();
        fill(&mut c, 0);
        c.begin_fill(0, false);
    }

    #[test]
    fn reset_clears_all() {
        let mut c = tiny();
        fill(&mut c, 0);
        c.reset();
        assert!(!c.probe(0));
        assert_eq!(c.stats().accesses(), 0);
    }
}
