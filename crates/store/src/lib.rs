//! The persistent cross-campaign result store.
//!
//! The engine's two in-memory memoization layers — the effective-key
//! full-run memo and the cross-system reference-prefix [`ExecCache`]
//! backing — die with the process. This crate persists both to disk, so a
//! repeated campaign simulates nothing and an edited manifest re-simulates
//! only the affected DAG suffix:
//!
//! * **run entries** — full [`PipelineReport`]s keyed by the campaign's
//!   effective key extended with the plan digest,
//! * **stage entries** — per-stage serial-pass results keyed by the
//!   `(stage spec, source identity, input digests, build digest)` chain,
//! * **ref entries** — pure reference-prefix relations under the same
//!   digest-chain keying.
//!
//! Layout: one flat directory `<root>/v<FORMAT>-<fingerprint>/` whose name
//! binds the store format version and the engine fingerprint — a layout or
//! schema change rotates the directory instead of attempting migration.
//! Each entry is a checksummed file written atomically (tempfile + rename)
//! that embeds its complete key material; a checksum, magic, key, or codec
//! mismatch is treated as a miss and the entry is re-simulated and
//! overwritten. A `journal.log` of touch generations drives deterministic
//! least-recently-used eviction for `prune`.
//!
//! [`ExecCache`]: mondrian_pipeline::ExecCache

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mondrian_pipeline::{fnv1a, ExecStore, PipelineReport, StageEntry};
use mondrian_workloads::Tuple;

use codec::{Codec, Dec, Enc};

/// On-disk layout version: bump on any codec or entry-format change.
pub const STORE_FORMAT_VERSION: u32 = 2;

/// Entry-file magic.
const MAGIC: [u8; 4] = *b"MNDS";

/// File-name prefixes of the three entry kinds, indexed by [`RUN`],
/// [`STAGE`] and [`REF`].
const KINDS: [&str; 3] = ["run", "stage", "ref"];
const RUN: usize = 0;
const STAGE: usize = 1;
const REF: usize = 2;

/// Resolves the store's base directory, in precedence order: the
/// `--cache-dir` flag, the `MONDRIAN_CACHE` environment variable, then
/// `$HOME/.cache/mondrian`. `None` when nothing resolves (no `$HOME`).
pub fn resolve_root(flag: Option<&str>) -> Option<PathBuf> {
    if let Some(dir) = flag {
        return Some(PathBuf::from(dir));
    }
    if let Ok(dir) = std::env::var("MONDRIAN_CACHE") {
        if !dir.is_empty() {
            return Some(PathBuf::from(dir));
        }
    }
    std::env::var_os("HOME").map(|home| PathBuf::from(home).join(".cache").join("mondrian"))
}

/// A snapshot of one store's hit/miss/traffic counters, by entry kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Full-run reports served from disk.
    pub run_hits: u64,
    /// Full-run probes that missed (absent, corrupt, or key-mismatched).
    pub run_misses: u64,
    /// Per-stage serial-pass results served from disk.
    pub stage_hits: u64,
    /// Per-stage probes that missed.
    pub stage_misses: u64,
    /// Reference-prefix relations served from disk.
    pub ref_hits: u64,
    /// Reference-prefix probes that missed.
    pub ref_misses: u64,
    /// Payload bytes read by hits.
    pub bytes_read: u64,
    /// Payload bytes written by saves.
    pub bytes_written: u64,
}

impl CacheCounters {
    /// Total hits across every entry kind.
    pub fn hits(&self) -> u64 {
        self.run_hits + self.stage_hits + self.ref_hits
    }

    /// Total misses across every entry kind.
    pub fn misses(&self) -> u64 {
        self.run_misses + self.stage_misses + self.ref_misses
    }

    /// Total bytes moved (read + written).
    pub fn bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// Per-kind entry counts and sizes, as reported by [`Store::stats`].
#[derive(Debug, Clone, Default)]
pub struct StoreStats {
    /// `(kind, entry count, total bytes)` for each entry kind, in
    /// [`KINDS`] order.
    pub kinds: Vec<(String, u64, u64)>,
    /// Entries across all kinds.
    pub total_entries: u64,
    /// Bytes across all kinds.
    pub total_bytes: u64,
}

/// What [`Store::prune`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// Entries examined.
    pub examined: u64,
    /// Entries evicted (least recently used first).
    pub evicted: u64,
    /// Bytes freed by eviction.
    pub freed_bytes: u64,
    /// Entries remaining after the prune.
    pub remaining_entries: u64,
    /// Bytes remaining after the prune.
    pub remaining_bytes: u64,
}

/// The content-addressed on-disk store. Thread-safe: campaign workers on
/// separate OS threads share one instance behind an `Arc`. Every
/// operation is best-effort — I/O errors degrade to misses (loads) or
/// no-ops (saves), never into the simulation results.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    /// The touch generation this session writes; loaded as (max journaled
    /// generation + 1) so each session's touches sort after every earlier
    /// session's.
    generation: u64,
    /// Entry file names touched (saved or hit) this session, flushed to
    /// the journal sorted — so journal content is deterministic for any
    /// `--jobs` value.
    touched: Mutex<BTreeSet<String>>,
    /// Loads served, by entry kind.
    hits: [AtomicU64; 3],
    /// Loads that missed (absent, corrupt, or key-mismatched), by kind.
    misses: [AtomicU64; 3],
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl Store {
    /// Opens (creating if necessary) the versioned store under `root`.
    /// `salt` folds caller-level versioning — the artifact schema — into
    /// the engine fingerprint, so entries never leak across schemas.
    ///
    /// # Errors
    ///
    /// Returns the error when the store directory cannot be created.
    pub fn open(root: &Path, salt: &str) -> std::io::Result<Store> {
        let fingerprint = fnv1a(
            format!("mondrian-store|v{STORE_FORMAT_VERSION}|{salt}|{}", env!("CARGO_PKG_VERSION"))
                .bytes(),
        );
        let dir = root.join(format!("v{STORE_FORMAT_VERSION}-{fingerprint:016x}"));
        fs::create_dir_all(&dir)?;
        let generation =
            read_journal(&dir.join("journal.log")).values().copied().max().unwrap_or(0) + 1;
        Ok(Store {
            dir,
            generation,
            touched: Mutex::new(BTreeSet::new()),
            hits: Default::default(),
            misses: Default::default(),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        })
    }

    /// The store's versioned directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A snapshot of the session's hit/miss/traffic counters.
    pub fn counters(&self) -> CacheCounters {
        let [run_hits, stage_hits, ref_hits] =
            self.hits.each_ref().map(|c| c.load(Ordering::Relaxed));
        let [run_misses, stage_misses, ref_misses] =
            self.misses.each_ref().map(|c| c.load(Ordering::Relaxed));
        CacheCounters {
            run_hits,
            run_misses,
            stage_hits,
            stage_misses,
            ref_hits,
            ref_misses,
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Loads a full-run report. Any corruption is a miss.
    pub fn load_run(&self, key: &str) -> Option<PipelineReport> {
        self.load(RUN, key.as_bytes())
    }

    /// Persists a full-run report (atomic tempfile + rename; best-effort).
    pub fn save_run(&self, key: &str, report: &PipelineReport) {
        self.save(RUN, key.as_bytes(), report);
    }

    /// The file name an entry lives under: kind prefix + key hash. The
    /// full key material is embedded in (and verified against) the entry
    /// itself, so hash collisions degrade to misses, never wrong results.
    fn file_name(kind: usize, key: &[u8]) -> String {
        format!("{}-{:016x}.bin", KINDS[kind], fnv1a(key.iter().copied()))
    }

    /// Loads and decodes one entry, counting the hit or miss under `kind`.
    fn load<T: Codec>(&self, kind: usize, key: &[u8]) -> Option<T> {
        let name = Self::file_name(kind, key);
        let value = fs::read(self.dir.join(&name)).ok().and_then(|raw| {
            let payload = decode_entry(&raw, key)?;
            self.bytes_read.fetch_add(payload.len() as u64, Ordering::Relaxed);
            self.touch(name);
            codec::decode(payload)
        });
        let counters = if value.is_some() { &self.hits } else { &self.misses };
        counters[kind].fetch_add(1, Ordering::Relaxed);
        value
    }

    fn save<T: Codec + ?Sized>(&self, kind: usize, key: &[u8], value: &T) {
        let name = Self::file_name(kind, key);
        let tmp = self.dir.join(format!(".{name}.{}.tmp", std::process::id()));
        let payload = codec::encode(value);
        let bytes = encode_entry(key, &payload);
        let written = fs::write(&tmp, &bytes).and_then(|()| fs::rename(&tmp, self.dir.join(&name)));
        match written {
            Ok(()) => {
                self.bytes_written.fetch_add(payload.len() as u64, Ordering::Relaxed);
                self.touch(name);
            }
            Err(_) => {
                let _ = fs::remove_file(&tmp);
            }
        }
    }

    fn touch(&self, name: String) {
        self.touched.lock().expect("store poisoned").insert(name);
    }

    /// Appends this session's touches to the journal, sorted — called at
    /// campaign end (and on drop), so journal order is deterministic for
    /// any worker count: one generation per session, file names sorted
    /// within it.
    pub fn flush_journal(&self) {
        let touched = std::mem::take(&mut *self.touched.lock().expect("store poisoned"));
        if touched.is_empty() {
            return;
        }
        let mut out = String::new();
        for name in &touched {
            out.push_str(&format!("{} {name}\n", self.generation));
        }
        let _ = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join("journal.log"))
            .and_then(|mut f| f.write_all(out.as_bytes()));
    }

    /// Per-kind entry counts and sizes, from a sorted directory walk.
    ///
    /// # Errors
    ///
    /// Returns the error when the store directory cannot be read.
    pub fn stats(&self) -> std::io::Result<StoreStats> {
        let mut stats = StoreStats::default();
        let entries = self.entries()?;
        for kind in KINDS {
            let (mut count, mut bytes) = (0, 0);
            for (name, size) in &entries {
                if name.starts_with(&format!("{kind}-")) {
                    count += 1;
                    bytes += size;
                }
            }
            stats.kinds.push((kind.to_string(), count, bytes));
            stats.total_entries += count;
            stats.total_bytes += bytes;
        }
        Ok(stats)
    }

    /// Deletes every entry and the journal.
    ///
    /// # Errors
    ///
    /// Returns the first deletion error.
    pub fn clear(&self) -> std::io::Result<()> {
        for (name, _) in self.entries()? {
            fs::remove_file(self.dir.join(name))?;
        }
        let _ = fs::remove_file(self.dir.join("journal.log"));
        self.touched.lock().expect("store poisoned").clear();
        Ok(())
    }

    /// Evicts least-recently-used entries until the store holds at most
    /// `max_bytes` of entries. Deterministic: entries order by (journaled
    /// touch generation, file name) — a full campaign touches its entries
    /// in one generation, so eviction follows campaign recency with a
    /// stable name tiebreak, independent of thread scheduling.
    ///
    /// # Errors
    ///
    /// Returns the first directory-walk or deletion error.
    pub fn prune(&self, max_bytes: u64) -> std::io::Result<PruneReport> {
        self.flush_journal();
        let journal_path = self.dir.join("journal.log");
        let generations = read_journal(&journal_path);
        let entries = self.entries()?;
        let mut report = PruneReport {
            examined: entries.len() as u64,
            remaining_entries: entries.len() as u64,
            remaining_bytes: entries.iter().map(|(_, s)| s).sum(),
            ..PruneReport::default()
        };
        // An entry absent from the journal belongs to a writer that has
        // not flushed yet (a concurrent session racing this prune):
        // treat it as newest, never as oldest — evicting it would delete
        // an entry younger than every generation this prune read. Its
        // writer journals it at the true generation on its own flush.
        let mut order: Vec<(u64, &String, u64)> = entries
            .iter()
            .map(|(name, size)| (generations.get(name).copied().unwrap_or(u64::MAX), name, *size))
            .collect();
        order.sort();
        let mut evicted: BTreeSet<&String> = BTreeSet::new();
        for &(_, name, size) in &order {
            if report.remaining_bytes <= max_bytes {
                break;
            }
            fs::remove_file(self.dir.join(name))?;
            evicted.insert(name);
            report.evicted += 1;
            report.freed_bytes += size;
            report.remaining_entries -= 1;
            report.remaining_bytes -= size;
        }
        if report.evicted > 0 {
            // Rewrite the journal for the survivors so it never regrows
            // stale names; keep (generation, name) order. Unjournaled
            // survivors stay out — their writer owns their first entry.
            let mut out = String::new();
            for &(generation, name, _) in &order {
                if !evicted.contains(name) && generations.contains_key(name) {
                    out.push_str(&format!("{generation} {name}\n"));
                }
            }
            fs::write(&journal_path, out)?;
        }
        Ok(report)
    }

    /// Every entry file `(name, size)`, sorted by name.
    fn entries(&self) -> std::io::Result<Vec<(String, u64)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".bin") && KINDS.iter().any(|k| name.starts_with(&format!("{k}-"))) {
                out.push((name, entry.metadata()?.len()));
            }
        }
        out.sort();
        Ok(out)
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        self.flush_journal();
    }
}

impl ExecStore for Store {
    fn load_ref(&self, key: &[u8]) -> Option<std::sync::Arc<[Tuple]>> {
        self.load(REF, key)
    }

    fn save_ref(&self, key: &[u8], rel: &[Tuple]) {
        self.save(REF, key, rel);
    }

    fn load_stage(&self, key: &[u8]) -> Option<StageEntry> {
        self.load(STAGE, key)
    }

    fn save_stage(&self, key: &[u8], entry: &StageEntry) {
        self.save(STAGE, key, entry);
    }
}

/// Entry file layout: magic, format version, key length + key material,
/// payload length + payload, FNV-1a checksum over everything before it.
fn encode_entry(key: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut e = Enc::default();
    e.raw(&MAGIC);
    STORE_FORMAT_VERSION.enc(&mut e);
    e.bytes(key);
    e.bytes(payload);
    let checksum = fnv1a(e.buf.iter().copied());
    checksum.enc(&mut e);
    e.buf
}

/// Validates checksum, magic, version and the embedded key (a hash
/// collision or a truncated/flipped file is a miss), returning the
/// payload.
fn decode_entry<'a>(raw: &'a [u8], key: &[u8]) -> Option<&'a [u8]> {
    let (body, checksum) = raw.split_at(raw.len().checked_sub(8)?);
    if codec::decode::<u64>(checksum)? != fnv1a(body.iter().copied()) {
        return None;
    }
    let mut d = Dec::new(body);
    if d.take(4)? != MAGIC || u32::dec(&mut d)? != STORE_FORMAT_VERSION || d.bytes()? != key {
        return None;
    }
    let payload = d.bytes()?;
    d.done().then_some(payload)
}

fn read_journal(path: &Path) -> BTreeMap<String, u64> {
    let mut generations = BTreeMap::new();
    if let Ok(text) = fs::read_to_string(path) {
        for line in text.lines() {
            if let Some((generation, name)) = line.split_once(' ') {
                if let Ok(generation) = generation.parse::<u64>() {
                    let slot = generations.entry(name.to_string()).or_insert(0);
                    *slot = (*slot).max(generation);
                }
            }
        }
    }
    generations
}

#[cfg(test)]
mod tests {
    use super::*;
    use mondrian_core::SystemKind;
    use mondrian_pipeline::{Pipeline, PipelineConfig, StageSpec};

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mondrian-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_report() -> PipelineReport {
        let pipeline = Pipeline::new(vec![
            StageSpec::Filter { modulus: 10, remainder: 0 },
            StageSpec::CountByKey,
        ]);
        let mut cfg = PipelineConfig::tiny(SystemKind::Mondrian);
        cfg.tuples_per_vault = 32;
        pipeline.run(&cfg)
    }

    #[test]
    fn run_entries_roundtrip_byte_identically() {
        let root = tmp_root("roundtrip");
        let store = Store::open(&root, "test").unwrap();
        let report = sample_report();
        assert!(store.load_run("k1").is_none(), "empty store misses");
        store.save_run("k1", &report);
        let loaded = store.load_run("k1").expect("saved entry loads");
        // The codec must preserve everything the artifact serializes —
        // compare the strongest available equivalences.
        assert_eq!(loaded.output, report.output);
        assert_eq!(loaded.stages.len(), report.stages.len());
        assert_eq!(loaded.makespan_ps(), report.makespan_ps());
        assert_eq!(loaded.events(), report.events());
        assert_eq!(format!("{loaded:?}"), format!("{report:?}"));
        assert_eq!(store.counters().run_hits, 1);
        assert_eq!(store.counters().run_misses, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn planned_blocks_roundtrip() {
        use mondrian_pipeline::Concurrency;
        let root = tmp_root("planned");
        let store = Store::open(&root, "test").unwrap();
        let pipeline = Pipeline::new(vec![
            StageSpec::Filter { modulus: 10, remainder: 0 },
            StageSpec::CountByKey,
        ]);
        let mut cfg = PipelineConfig::tiny(SystemKind::Mondrian);
        cfg.tuples_per_vault = 32;
        cfg.concurrency = Concurrency::Auto;
        let report = pipeline.run(&cfg);
        assert!(report.planned.is_some(), "auto runs record their plan");
        store.save_run("auto", &report);
        let loaded = store.load_run("auto").expect("saved entry loads");
        assert_eq!(format!("{loaded:?}"), format!("{report:?}"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let root = tmp_root("corrupt");
        let store = Store::open(&root, "test").unwrap();
        let report = sample_report();
        store.save_run("k1", &report);
        let name = Store::file_name(RUN, b"k1");
        let path = store.dir().join(&name);
        // Flip one payload byte: the checksum must catch it.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load_run("k1").is_none(), "bit flip must miss");
        // Truncate: the checksum (and lengths) must catch it.
        store.save_run("k1", &report);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(store.load_run("k1").is_none(), "truncation must miss");
        // A different key hashing to the same file (simulated by writing
        // under the other key's name) must miss on key verification.
        store.save_run("k1", &report);
        let other = store.dir().join(Store::file_name(RUN, b"k2"));
        fs::copy(&path, &other).unwrap();
        assert!(store.load_run("k2").is_none(), "key mismatch must miss");
        // And a fresh save overwrites the corruption.
        store.save_run("k1", &report);
        assert!(store.load_run("k1").is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn prune_evicts_deterministically_by_generation_then_name() {
        let root = tmp_root("prune");
        let report = sample_report();
        // Session 1 writes k1, k2; session 2 writes k3 and touches k1.
        {
            let store = Store::open(&root, "test").unwrap();
            store.save_run("k1", &report);
            store.save_run("k2", &report);
        }
        let store = Store::open(&root, "test").unwrap();
        store.save_run("k3", &report);
        assert!(store.load_run("k1").is_some());
        store.flush_journal();
        let stats = store.stats().unwrap();
        assert_eq!(stats.total_entries, 3);
        let entry_bytes = stats.total_bytes / 3;
        // Budget for two entries: k2 (only touched in generation 1) must
        // be the eviction victim; k1 (re-touched) and k3 survive.
        let pruned = store.prune(2 * entry_bytes).unwrap();
        assert_eq!(pruned.evicted, 1);
        assert_eq!(pruned.remaining_entries, 2);
        assert!(store.load_run("k1").is_some(), "recently used survives");
        assert!(store.load_run("k3").is_some(), "newest survives");
        assert!(store.load_run("k2").is_none(), "LRU entry evicted");
        // Prune with room is a no-op.
        let idle = store.prune(u64::MAX).unwrap();
        assert_eq!(idle.evicted, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn prune_never_evicts_a_concurrent_writers_fresh_entries() {
        let root = tmp_root("prune-race");
        let report = sample_report();
        // Session 1 journals k1 and k2 at generation 1.
        {
            let store = Store::open(&root, "test").unwrap();
            store.save_run("k1", &report);
            store.save_run("k2", &report);
        }
        // Session 2: a pruner and a concurrent writer share the store.
        // The writer saves k3 but has not flushed its journal when the
        // prune walks the directory — the entry is younger than every
        // generation the pruner read, so it must never be the victim.
        let pruner = Store::open(&root, "test").unwrap();
        let writer = Store::open(&root, "test").unwrap();
        writer.save_run("k3", &report);
        let stats = pruner.stats().unwrap();
        assert_eq!(stats.total_entries, 3);
        let entry_bytes = stats.total_bytes / 3;
        let pruned = pruner.prune(2 * entry_bytes).unwrap();
        assert_eq!(pruned.evicted, 1, "budget for two of three entries");
        assert!(writer.load_run("k3").is_some(), "the in-flight entry survives");
        // The victim came from the journaled generation-1 pair, and the
        // rewritten journal does not adopt the writer's unflushed entry
        // — the writer journals it at its own generation on flush.
        let survivors = fs::read_to_string(pruner.dir().join("journal.log")).unwrap();
        assert!(!survivors.contains(&Store::file_name(RUN, b"k3")));
        writer.flush_journal();
        let journaled = read_journal(&pruner.dir().join("journal.log"));
        assert_eq!(
            journaled.get(&Store::file_name(RUN, b"k3")).copied(),
            Some(writer.generation),
            "the writer's flush records the true generation"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn losing_an_eviction_race_is_a_miss_not_corruption() {
        let root = tmp_root("lost-race");
        let store = Store::open(&root, "test").unwrap();
        let report = sample_report();
        store.save_run("k1", &report);
        // Another process prunes the entry away between this session's
        // save and its next load: the read must degrade to a clean miss.
        fs::remove_file(store.dir().join(Store::file_name(RUN, b"k1"))).unwrap();
        assert!(store.load_run("k1").is_none(), "a lost race reads as a miss");
        assert_eq!(store.counters().run_misses, 1);
        // The miss path re-simulates and overwrites; the store recovers.
        store.save_run("k1", &report);
        assert!(store.load_run("k1").is_some());
        let _ = fs::remove_dir_all(&root);
    }

    /// A stage entry built from the sample run's last stage.
    fn sample_entry() -> StageEntry {
        let report = sample_report();
        let stage = report.stages.last().expect("the sample has stages");
        StageEntry {
            input_rows: stage.input_rows,
            reference_ok: stage.reference_ok,
            report: stage.report.clone(),
            projected: report.output.clone().into(),
        }
    }

    #[test]
    fn stage_and_ref_entries_roundtrip() {
        let root = tmp_root("stage-ref");
        let store = Store::open(&root, "test").unwrap();
        let entry = sample_entry();
        assert!(store.load_stage(b"s").is_none(), "empty store misses");
        store.save_stage(b"s", &entry);
        let loaded = store.load_stage(b"s").expect("saved stage entry loads");
        assert_eq!(format!("{loaded:?}"), format!("{entry:?}"));
        assert!(store.load_ref(b"r").is_none(), "empty store misses");
        store.save_ref(b"r", &entry.projected);
        assert_eq!(store.load_ref(b"r").as_deref(), Some(&entry.projected[..]));
        // A key names an entry of one kind only.
        assert!(store.load_ref(b"s").is_none() && store.load_stage(b"r").is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn counters_report_each_kinds_own_hits_and_misses() {
        let root = tmp_root("counters");
        let store = Store::open(&root, "test").unwrap();
        let (report, entry) = (sample_report(), sample_entry());
        let rel = [Tuple { key: 1, payload: 2 }];
        store.save_run("k", &report);
        store.save_stage(b"k", &entry);
        store.save_ref(b"k", &rel);
        // Hits 1 / 2 / 3 and misses 4 / 5 / 6 for run / stage / ref, so a
        // counter read from the wrong kind shows.
        (0..1).for_each(|_| assert!(store.load_run("k").is_some()));
        (0..2).for_each(|_| assert!(store.load_stage(b"k").is_some()));
        (0..3).for_each(|_| assert!(store.load_ref(b"k").is_some()));
        (0..4).for_each(|_| assert!(store.load_run("x").is_none()));
        (0..5).for_each(|_| assert!(store.load_stage(b"x").is_none()));
        (0..6).for_each(|_| assert!(store.load_ref(b"x").is_none()));
        let (run, stage, rf) = (
            codec::encode(&report).len() as u64,
            codec::encode(&entry).len() as u64,
            codec::encode(&rel[..]).len() as u64,
        );
        assert_eq!(
            store.counters(),
            CacheCounters {
                run_hits: 1,
                run_misses: 4,
                stage_hits: 2,
                stage_misses: 5,
                ref_hits: 3,
                ref_misses: 6,
                bytes_read: run + 2 * stage + 3 * rf,
                bytes_written: run + stage + rf,
            }
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn every_truncation_and_byte_flip_of_an_entry_is_a_miss() {
        let root = tmp_root("flips");
        let store = Store::open(&root, "test").unwrap();
        let rel = [Tuple { key: 5, payload: 6 }];
        store.save_ref(b"k", &rel);
        let path = store.dir().join(Store::file_name(REF, b"k"));
        let good = fs::read(&path).unwrap();
        let prefixes = (0..good.len()).map(|len| good[..len].to_vec());
        let flips = (0..good.len()).map(|i| {
            let mut bytes = good.clone();
            bytes[i] ^= 0x01;
            bytes
        });
        for (i, bad) in prefixes.chain(flips).enumerate() {
            fs::write(&path, &bad).unwrap();
            assert!(store.load_ref(b"k").is_none(), "corrupt variant {i} must miss");
        }
        assert_eq!(store.counters().ref_misses, 2 * good.len() as u64);
        fs::write(&path, &good).unwrap();
        assert_eq!(store.load_ref(b"k").as_deref(), Some(&rel[..]), "the intact entry hits");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn clear_empties_the_store() {
        let root = tmp_root("clear");
        let store = Store::open(&root, "test").unwrap();
        store.save_run("k1", &sample_report());
        assert_eq!(store.stats().unwrap().total_entries, 1);
        store.clear().unwrap();
        assert_eq!(store.stats().unwrap().total_entries, 0);
        assert!(store.load_run("k1").is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn salt_and_version_rotate_the_directory() {
        let root = tmp_root("salt");
        let a = Store::open(&root, "schema7").unwrap();
        let b = Store::open(&root, "schema8").unwrap();
        assert_ne!(a.dir(), b.dir(), "a schema bump must not see old entries");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn resolve_root_precedence() {
        assert_eq!(resolve_root(Some("/x/y")), Some(PathBuf::from("/x/y")));
        // Flag beats everything; the env/HOME branches depend on process
        // state and are exercised by the CLI integration tests.
    }
}
