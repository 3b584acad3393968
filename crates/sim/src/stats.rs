//! Hierarchical statistics registry.
//!
//! Components keep their hot counters in plain struct fields and export them
//! into a [`Stats`] registry at reporting time. Keys are `.`-separated paths
//! (`"vault.3.row_activations"`), which the energy model and the benchmark
//! harness aggregate by prefix.

use std::collections::BTreeMap;
use std::fmt;

/// A single named statistic value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stat {
    /// An event count (row activations, instructions, ...).
    Count(u64),
    /// A continuous quantity (energy in joules, utilization, ...).
    Value(f64),
}

impl Stat {
    /// The statistic as a float regardless of flavor.
    pub fn as_f64(&self) -> f64 {
        match *self {
            Stat::Count(c) => c as f64,
            Stat::Value(v) => v,
        }
    }

    /// The statistic as a count.
    ///
    /// # Panics
    ///
    /// Panics if the statistic is a [`Stat::Value`].
    pub fn as_count(&self) -> u64 {
        match *self {
            Stat::Count(c) => c,
            Stat::Value(v) => panic!("stat is a value ({v}), not a count"),
        }
    }
}

/// An ordered map of named statistics.
///
/// # Example
///
/// ```
/// use mondrian_sim::Stats;
/// let mut s = Stats::new();
/// s.add_count("vault.0.activations", 10);
/// s.add_count("vault.1.activations", 32);
/// assert_eq!(s.sum_by_suffix("activations"), 42.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    entries: BTreeMap<String, Stat>,
}

impl Stats {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter at `key`, creating it if absent.
    ///
    /// # Panics
    ///
    /// Panics if `key` already holds a [`Stat::Value`].
    pub fn add_count(&mut self, key: &str, n: u64) {
        // Look up by `&str` first: only an insert allocates the key.
        match self.entries.get_mut(key) {
            Some(Stat::Count(c)) => *c += n,
            Some(Stat::Value(_)) => panic!("stat {key} is a value, not a count"),
            None => {
                self.entries.insert(key.to_owned(), Stat::Count(n));
            }
        }
    }

    /// Adds `v` to the value at `key`, creating it if absent.
    ///
    /// # Panics
    ///
    /// Panics if `key` already holds a [`Stat::Count`].
    pub fn add_value(&mut self, key: &str, v: f64) {
        match self.entries.get_mut(key) {
            Some(Stat::Value(x)) => *x += v,
            Some(Stat::Count(_)) => panic!("stat {key} is a count, not a value"),
            // `0.0 + v`, not `v`: a first add of -0.0 stores 0.0.
            None => {
                self.entries.insert(key.to_owned(), Stat::Value(0.0 + v));
            }
        }
    }

    /// Sets `key` to `stat`, replacing any previous value.
    pub fn set(&mut self, key: &str, stat: Stat) {
        self.entries.insert(key.to_owned(), stat);
    }

    /// Looks up a statistic.
    pub fn get(&self, key: &str) -> Option<Stat> {
        self.entries.get(key).copied()
    }

    /// Looks up a count, defaulting to zero.
    pub fn count(&self, key: &str) -> u64 {
        self.get(key).map(|s| s.as_count()).unwrap_or(0)
    }

    /// Looks up a value, defaulting to zero.
    pub fn value(&self, key: &str) -> f64 {
        self.get(key).map(|s| s.as_f64()).unwrap_or(0.0)
    }

    /// Sums every statistic whose key ends with `.{suffix}` or equals
    /// `suffix`.
    pub fn sum_by_suffix(&self, suffix: &str) -> f64 {
        self.entries
            .iter()
            .filter(|(k, _)| k.as_str() == suffix || k.ends_with(&format!(".{suffix}")))
            .map(|(_, s)| s.as_f64())
            .sum()
    }

    /// Sums every statistic whose key starts with `prefix`.
    pub fn sum_by_prefix(&self, prefix: &str) -> f64 {
        self.entries.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, s)| s.as_f64()).sum()
    }

    /// Iterates over `(key, stat)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Stat)> {
        self.entries.iter().map(|(k, s)| (k.as_str(), *s))
    }

    /// Merges another registry into this one, adding overlapping entries.
    ///
    /// # Panics
    ///
    /// Panics if an overlapping key has mismatched flavors.
    pub fn merge(&mut self, other: &Stats) {
        for (k, s) in other.iter() {
            match s {
                Stat::Count(c) => self.add_count(k, c),
                Stat::Value(v) => self.add_value(k, v),
            }
        }
    }

    /// Number of registered statistics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl FromIterator<(String, Stat)> for Stats {
    /// Builds a registry from `(key, stat)` pairs in one pass. A repeated
    /// key keeps its last stat, as a [`Stats::set`] loop would.
    fn from_iter<I: IntoIterator<Item = (String, Stat)>>(pairs: I) -> Self {
        Stats { entries: pairs.into_iter().collect() }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, s) in &self.entries {
            match s {
                Stat::Count(c) => writeln!(f, "{k} = {c}")?,
                Stat::Value(v) => writeln!(f, "{k} = {v:.6}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let mut s = Stats::new();
        s.add_count("a.b", 1);
        s.add_count("a.b", 2);
        assert_eq!(s.count("a.b"), 3);
        assert_eq!(s.len(), 1);
        assert_eq!(s.count("missing"), 0);
    }

    #[test]
    fn values_accumulate() {
        let mut s = Stats::new();
        s.add_value("e", 0.5);
        s.add_value("e", 0.25);
        assert!((s.value("e") - 0.75).abs() < 1e-12);
        // A first add of -0.0 stores +0.0, as `0.0 + v` always did.
        s.add_value("z", -0.0);
        assert!(s.value("z").is_sign_positive());
    }

    #[test]
    #[should_panic(expected = "is a value")]
    fn flavor_mismatch_panics() {
        let mut s = Stats::new();
        s.add_value("x", 1.0);
        s.add_count("x", 1);
    }

    #[test]
    #[should_panic(expected = "is a count")]
    fn value_onto_count_panics() {
        let mut s = Stats::new();
        s.add_count("x", 1);
        s.add_value("x", 1.0);
    }

    #[test]
    fn collect_equals_set_loop_last_write_wins() {
        let pairs = vec![
            ("b".to_string(), Stat::Count(1)),
            ("a".to_string(), Stat::Value(2.0)),
            ("b".to_string(), Stat::Count(7)),
            ("c".to_string(), Stat::Count(3)),
            ("a".to_string(), Stat::Count(4)),
        ];
        let mut looped = Stats::new();
        for (k, stat) in &pairs {
            looped.set(k, *stat);
        }
        let collected: Stats = pairs.into_iter().collect();
        assert_eq!(collected, looped);
        assert_eq!(collected.get("a"), Some(Stat::Count(4)));
        assert_eq!(collected.get("b"), Some(Stat::Count(7)));
        assert_eq!(collected.len(), 3);
    }

    #[test]
    fn suffix_and_prefix_sums() {
        let mut s = Stats::new();
        s.add_count("vault.0.acts", 1);
        s.add_count("vault.1.acts", 2);
        s.add_count("vault.1.reads", 100);
        s.add_count("acts", 4);
        assert_eq!(s.sum_by_suffix("acts"), 7.0);
        assert_eq!(s.sum_by_prefix("vault.1."), 102.0);
        // "facts" must not match the ".acts" suffix.
        s.add_count("vault.2.facts", 1000);
        assert_eq!(s.sum_by_suffix("acts"), 7.0);
    }

    #[test]
    fn merge_adds() {
        let mut a = Stats::new();
        a.add_count("c", 1);
        a.add_value("v", 1.0);
        let mut b = Stats::new();
        b.add_count("c", 2);
        b.add_value("v", 0.5);
        b.add_count("only_b", 9);
        a.merge(&b);
        assert_eq!(a.count("c"), 3);
        assert!((a.value("v") - 1.5).abs() < 1e-12);
        assert_eq!(a.count("only_b"), 9);
    }

    #[test]
    fn display_is_nonempty() {
        let mut s = Stats::new();
        s.add_count("k", 1);
        assert!(format!("{s}").contains("k = 1"));
    }
}
