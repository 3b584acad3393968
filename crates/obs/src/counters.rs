//! The unified counter registry: one typed, hierarchical tree for every
//! statistic the engine reports — vault/DRAM traffic, NoC rollups, cache
//! behavior, engine event counts — replacing per-component ad-hoc stat
//! structs at the reporting boundary.

use std::collections::BTreeMap;

use mondrian_sim::{Stat, Stats};

/// A single typed metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    /// An event count.
    Count(u64),
    /// A continuous quantity.
    Value(f64),
}

impl Metric {
    /// The metric as a float regardless of flavor.
    pub fn as_f64(&self) -> f64 {
        match *self {
            Metric::Count(c) => c as f64,
            Metric::Value(v) => v,
        }
    }
}

/// The hierarchical counter registry. Keys are `.`-separated paths
/// (`"mem.read_bytes"`, `"phase_ps.probe.scan"`); iteration order is
/// the sorted key order, so serialization is deterministic.
///
/// # Example
///
/// ```
/// use mondrian_obs::{Counters, Metric};
/// let mut c = Counters::new();
/// c.add_count("mem.read_bytes", 64);
/// c.add_count("mem.read_bytes", 64);
/// assert_eq!(c.get("mem.read_bytes"), Some(Metric::Count(128)));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    entries: BTreeMap<String, Metric>,
}

impl Counters {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the count at `key`, creating it if absent.
    ///
    /// # Panics
    ///
    /// Panics if `key` already holds a [`Metric::Value`].
    pub fn add_count(&mut self, key: &str, n: u64) {
        // Look up by `&str` first: only an insert allocates the key.
        match self.entries.get_mut(key) {
            Some(Metric::Count(c)) => *c += n,
            Some(Metric::Value(_)) => panic!("metric {key} is a value, not a count"),
            None => {
                self.entries.insert(key.to_owned(), Metric::Count(n));
            }
        }
    }

    /// Adds `v` to the value at `key`, creating it if absent.
    ///
    /// # Panics
    ///
    /// Panics if `key` already holds a [`Metric::Count`].
    pub fn add_value(&mut self, key: &str, v: f64) {
        match self.entries.get_mut(key) {
            Some(Metric::Value(x)) => *x += v,
            Some(Metric::Count(_)) => panic!("metric {key} is a count, not a value"),
            // `0.0 + v`, not `v`: a first add of -0.0 stores 0.0.
            None => {
                self.entries.insert(key.to_owned(), Metric::Value(0.0 + v));
            }
        }
    }

    /// Sets `key` to `metric`, replacing any previous entry.
    pub fn set(&mut self, key: &str, metric: Metric) {
        self.entries.insert(key.to_owned(), metric);
    }

    /// Looks up a metric.
    pub fn get(&self, key: &str) -> Option<Metric> {
        self.entries.get(key).copied()
    }

    /// Looks up a count, defaulting to zero.
    ///
    /// # Panics
    ///
    /// Panics if `key` holds a [`Metric::Value`].
    pub fn count(&self, key: &str) -> u64 {
        match self.get(key) {
            None => 0,
            Some(Metric::Count(c)) => c,
            Some(Metric::Value(v)) => panic!("metric {key} is a value ({v}), not a count"),
        }
    }

    /// Looks up any metric as a float, defaulting to zero.
    pub fn value(&self, key: &str) -> f64 {
        self.get(key).map(|m| m.as_f64()).unwrap_or(0.0)
    }

    /// Iterates over `(key, metric)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Metric)> {
        self.entries.iter().map(|(k, m)| (k.as_str(), *m))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges another registry into this one, adding overlapping entries.
    ///
    /// # Panics
    ///
    /// Panics if an overlapping key has mismatched flavors.
    pub fn merge(&mut self, other: &Counters) {
        for (k, m) in other.iter() {
            match m {
                Metric::Count(c) => self.add_count(k, c),
                Metric::Value(v) => self.add_value(k, v),
            }
        }
    }

    /// The per-key change from `baseline` to `self`: every key present in
    /// either registry whose value differs, as a signed [`Metric::Value`]
    /// delta (`self - baseline`; keys absent on one side count as zero).
    pub fn diff(&self, baseline: &Counters) -> Counters {
        let mut out = Counters::new();
        let keys = self.entries.keys().chain(baseline.entries.keys());
        for k in keys {
            let delta = self.value(k) - baseline.value(k);
            if delta != 0.0 {
                out.set(k, Metric::Value(delta));
            }
        }
        out
    }

    /// Imports every entry of a component [`Stats`] registry, optionally
    /// re-rooted under `prefix`.
    pub fn absorb_stats(&mut self, stats: &Stats, prefix: &str) {
        for (k, s) in stats.iter() {
            let key = if prefix.is_empty() { k.to_string() } else { format!("{prefix}.{k}") };
            match s {
                Stat::Count(c) => self.add_count(&key, c),
                Stat::Value(v) => self.add_value(&key, v),
            }
        }
    }

    /// Serializes the registry as one flat, deterministic JSON object
    /// (sorted keys; floats rendered with the artifact's conventions).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, m)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&crate::escape_json(k));
            out.push_str("\":");
            match m {
                Metric::Count(c) => out.push_str(&c.to_string()),
                Metric::Value(v) => out.push_str(&crate::format_f64(v)),
            }
        }
        out.push('}');
        out
    }
}

/// The counter path for a standardized campaign exit reason:
/// `engine.exits.<reason>`.
///
/// The robustness layer rolls one count per sweep point into the
/// campaign-level registry under this path — `engine.exits.ok`,
/// `engine.exits.limit_events`, `engine.exits.worker_panic`, … — so
/// consumers can read the failure taxonomy out of `metrics` without
/// touching the per-run `exit` objects. Exit counters live under the
/// `engine` group (the first path segment) like every other engine
/// statistic, and merge across runs like any [`Metric::Count`].
pub fn exit_counter_key(reason: &str) -> String {
    format!("engine.exits.{reason}")
}

impl From<&Stats> for Counters {
    fn from(stats: &Stats) -> Self {
        let mut c = Counters::new();
        c.absorb_stats(stats, "");
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_counters_group_under_engine_and_merge() {
        let mut a = Counters::new();
        a.add_count(&exit_counter_key("ok"), 2);
        a.add_count(&exit_counter_key("limit_events"), 1);
        let mut b = Counters::new();
        b.add_count(&exit_counter_key("ok"), 1);
        a.merge(&b);
        assert_eq!(a.count("engine.exits.ok"), 3);
        assert_eq!(a.count("engine.exits.limit_events"), 1);
        assert!(a.iter().all(|(k, _)| k.starts_with("engine.")));
    }

    #[test]
    fn counts_and_values_accumulate() {
        let mut c = Counters::new();
        c.add_count("a", 1);
        c.add_count("a", 2);
        c.add_value("v", 0.5);
        c.add_value("v", 0.25);
        assert_eq!(c.count("a"), 3);
        assert_eq!(c.value("v"), 0.75);
        assert_eq!(c.len(), 2);
        assert_eq!(c.count("missing"), 0);
        // A first add of -0.0 stores +0.0, as `0.0 + v` always did.
        c.add_value("z", -0.0);
        assert!(c.value("z").is_sign_positive());
    }

    #[test]
    #[should_panic(expected = "is a value")]
    fn flavor_mismatch_panics() {
        let mut c = Counters::new();
        c.add_value("x", 1.0);
        c.add_count("x", 1);
    }

    #[test]
    #[should_panic(expected = "is a count")]
    fn value_onto_count_panics() {
        let mut c = Counters::new();
        c.add_count("x", 1);
        c.add_value("x", 1.0);
    }

    #[test]
    fn merge_adds_and_diff_subtracts() {
        let mut a = Counters::new();
        a.add_count("c", 5);
        a.add_value("v", 1.0);
        let mut b = Counters::new();
        b.add_count("c", 2);
        b.add_count("only_b", 7);
        // Diff before the merge exercises the negative-delta path: keys
        // absent on one side count as zero.
        let d = a.diff(&b);
        assert_eq!(d.value("c"), 3.0);
        assert_eq!(d.value("v"), 1.0);
        assert_eq!(d.value("only_b"), -7.0);
        a.merge(&b);
        assert_eq!(a.count("c"), 7);
        assert_eq!(a.diff(&b).value("c"), 5.0);
        // `only_b` now agrees on both sides, so the delta is omitted.
        assert_eq!(a.diff(&b).get("only_b"), None);
        // Equal registries diff to empty.
        assert!(a.diff(&a).is_empty());
    }

    #[test]
    fn stats_roundtrip_and_json() {
        let mut s = Stats::new();
        s.add_count("vault.0.read_bytes", 64);
        s.add_value("energy", 2.0);
        let mut c = Counters::from(&s);
        c.absorb_stats(&s, "again");
        assert_eq!(c.count("vault.0.read_bytes"), 64);
        assert_eq!(c.count("again.vault.0.read_bytes"), 64);
        let json = Counters::from(&s).to_json();
        assert_eq!(json, "{\"energy\":2.0,\"vault.0.read_bytes\":64}");
    }
}
