//! The counter path for standardized campaign exit reasons. The counter
//! registry itself is [`mondrian_sim::Stats`].

/// The counter path for a standardized campaign exit reason:
/// `engine.exits.<reason>`.
///
/// The robustness layer rolls one count per sweep point into the
/// campaign-level registry under this path — `engine.exits.ok`,
/// `engine.exits.limit_events`, `engine.exits.worker_panic`, … — so
/// consumers can read the failure taxonomy out of `metrics` without
/// touching the per-run `exit` objects. Exit counters live under the
/// `engine` group (the first path segment) like every other engine
/// statistic, and merge across runs like any [`mondrian_sim::Stat::Count`].
pub fn exit_counter_key(reason: &str) -> String {
    format!("engine.exits.{reason}")
}

#[cfg(test)]
mod tests {
    use mondrian_sim::Stats;

    use super::*;

    #[test]
    fn exit_counters_group_under_engine_and_merge() {
        let mut a = Stats::new();
        a.add_count(&exit_counter_key("ok"), 2);
        a.add_count(&exit_counter_key("limit_events"), 1);
        let mut b = Stats::new();
        b.add_count(&exit_counter_key("ok"), 1);
        a.merge(&b);
        assert_eq!(a.count("engine.exits.ok"), 3);
        assert_eq!(a.count("engine.exits.limit_events"), 1);
        assert!(a.iter().all(|(k, _)| k.starts_with("engine.")));
    }
}
