//! Post-hoc observability over a finished run: the simulated-timeline
//! trace replay and the unified metrics rollup.
//!
//! Both derive entirely from the deterministic [`PipelineReport`] — the
//! trace is *replayed* from the charged schedule rather than recorded
//! live, so it is byte-identical for every `--jobs` value and thread
//! interleaving by construction, exactly like the artifact itself.

use mondrian_obs::{Arg, Tracer};
use mondrian_sim::{Stat, Stats, Time};

use crate::report::{PipelineReport, StageOutcome};

/// Trace-lane ids within one run's process. Kept in disjoint ranges so
/// schedule, branch, phase, and stream lanes never collide.
const LANE_SCHEDULE: u64 = 0;
const LANE_COUNTERS: u64 = 1;
const LANE_BRANCH_BASE: u64 = 10;
const LANE_PHASE_BASE: u64 = 1000;
const LANE_STREAM_BASE: u64 = 2000;

/// Maps one engine stat key onto its unified-registry path: per-device
/// instances aggregate away (`vault.3.read_bytes` → `mem.read_bytes`,
/// `mesh.at_v8.hops` → `noc.mesh_hops`, `l1.p0.2.misses` →
/// `cache.l1_misses`), while structured suffixes like the queue-depth
/// histogram buckets survive whole. A renamed key is built in `buf`, which
/// the caller reuses across keys; an unchanged key is returned as is.
fn metric_key<'a>(stat_key: &'a str, buf: &'a mut String) -> &'a str {
    let last = || stat_key.rsplit('.').next().expect("split yields at least one piece");
    let (prefix, tail) = if let Some(rest) = stat_key.strip_prefix("vault.") {
        ("mem.", rest.split_once('.').map_or(rest, |(_, s)| s))
    } else if stat_key.starts_with("mesh.") {
        ("noc.mesh_", last())
    } else if stat_key.starts_with("serdes.") {
        ("noc.serdes_", last())
    } else if stat_key.starts_with("l1.") {
        ("cache.l1_", last())
    } else if stat_key.starts_with("llc.") {
        ("cache.llc_", last())
    } else {
        return stat_key;
    };
    buf.clear();
    buf.push_str(prefix);
    buf.push_str(tail);
    buf
}

/// Rolls one run's charged stage reports up into the unified counter
/// registry: engine totals, per-phase simulated time, and the memory /
/// NoC / cache traffic aggregated across device instances.
pub fn run_metrics(report: &PipelineReport) -> Stats {
    let mut c = Stats::new();
    c.add_count("engine.instructions", report.instructions());
    c.add_count("engine.events", report.events());
    c.add_count(
        "engine.simd_ops",
        report.stages.iter().flat_map(|s| &s.report.phases).map(|p| p.simd_ops).sum(),
    );
    let mut buf = String::new();
    for stage in &report.stages {
        for phase in &stage.report.phases {
            buf.clear();
            buf.push_str("phase_ps.");
            buf.push_str(&phase.label);
            c.add_count(&buf, phase.duration());
        }
        for (k, stat) in stage.report.stats.iter() {
            let key = metric_key(k, &mut buf);
            match stat {
                Stat::Count(n) => c.add_count(key, n),
                Stat::Value(v) => c.add_value(key, v),
            }
        }
    }
    c
}

/// The consumer-slot duration a stage was charged under the executed
/// schedule: its fused edge's streamed slot when the stream scheduler
/// charged the overlap, the charged report's runtime otherwise.
fn slot_ps(report: &PipelineReport, i: usize) -> Time {
    let stage = &report.stages[i];
    if stage.streamed {
        if let Some(edge) = report.schedule.fused.iter().find(|f| f.consumer == i && f.streamed) {
            return edge.streamed_ps;
        }
    }
    stage.report.runtime_ps
}

fn stage_args(stage: &StageOutcome, first_vault: u32, vaults: u32) -> Vec<(String, Arg)> {
    vec![
        ("operator".into(), Arg::Str(stage.basic_operator().name().to_string())),
        ("rows_in".into(), Arg::Int(stage.input_rows as i64)),
        ("rows_out".into(), Arg::Int(stage.output_rows as i64)),
        ("first_vault".into(), Arg::Int(first_vault as i64)),
        ("vaults".into(), Arg::Int(vaults as i64)),
    ]
}

/// Replays `report`'s charged schedule into `tracer` as process `pid`:
/// wave spans on the schedule lane, stage spans on per-branch lanes,
/// engine phases on per-stage lanes (with vault-lease attribution),
/// chunk rounds on per-stage stream lanes, and cumulative traffic
/// counter samples at every stage-slot end.
///
/// Every timestamp is a simulated-picosecond offset from the run's
/// start; nothing here reads the host clock.
pub fn trace_run(tracer: &mut Tracer, pid: u64, label: &str, report: &PipelineReport) {
    tracer.set_process_name(pid, label);
    tracer.set_thread_name(pid, LANE_SCHEDULE, "schedule");
    tracer.set_thread_name(pid, LANE_COUNTERS, "counters");

    // (ts at slot end, dram bytes of the slot's stage, energy in joules):
    // accumulated into cumulative counter samples after the walk, in
    // timestamp order.
    let mut samples: Vec<(Time, f64, f64)> = Vec::new();
    let mut cursor: Time = 0;
    for wave in &report.schedule.waves {
        let wave_start = cursor;
        let wave_end = cursor + wave.runtime_ps;
        tracer.begin_span(
            pid,
            LANE_SCHEDULE,
            &format!("wave {}", wave.wave),
            "wave",
            wave_start,
            vec![
                ("concurrent".into(), Arg::Str(wave.concurrent.to_string())),
                ("serial_runtime_ps".into(), Arg::Int(wave.serial_runtime_ps as i64)),
            ],
        );
        // Concurrent waves start every branch at the wave start; serial
        // layouts run the branches back to back — mirroring how the
        // schedulers charged the wave.
        let mut serial_cursor = wave_start;
        for branch in &wave.branches {
            let lane = LANE_BRANCH_BASE + branch.branch as u64;
            tracer.set_thread_name(pid, lane, &format!("branch {}", branch.branch));
            let mut at = if wave.concurrent { wave_start } else { serial_cursor };
            for &i in &branch.stages {
                let stage = &report.stages[i];
                let slot = slot_ps(report, i);
                let slot_end = at + slot;
                tracer.begin_span(
                    pid,
                    lane,
                    stage.spec.name(),
                    "stage",
                    at,
                    stage_args(stage, branch.first_vault, branch.vaults),
                );
                tracer.end_span(pid, lane, slot_end);

                // Engine phases, anchored so they *end* at the slot end: a
                // streamed consumer's early phases overlap its producer's
                // output phase, starting before the consumer's slot.
                let phase_lane = LANE_PHASE_BASE + i as u64;
                tracer.set_thread_name(pid, phase_lane, &format!("stage {i} phases"));
                let base = slot_end.saturating_sub(stage.report.runtime_ps);
                for phase in &stage.report.phases {
                    tracer.begin_span(
                        pid,
                        phase_lane,
                        &phase.label,
                        "phase",
                        base + phase.start,
                        vec![
                            ("instructions".into(), Arg::Int(phase.instructions as i64)),
                            ("events".into(), Arg::Int(phase.events as i64)),
                        ],
                    );
                    tracer.end_span(pid, phase_lane, base + phase.end);
                }
                if let Some(stream) =
                    stage.streamed.then_some(stage.report.stream.as_ref()).flatten()
                {
                    let stream_lane = LANE_STREAM_BASE + i as u64;
                    tracer.set_thread_name(pid, stream_lane, &format!("stage {i} stream"));
                    let mut t = base;
                    for (round, &span) in stream.chunk_partition_ps.iter().enumerate() {
                        tracer.begin_span(
                            pid,
                            stream_lane,
                            &format!("chunk {round}"),
                            "stream",
                            t,
                            vec![],
                        );
                        t += span;
                        tracer.end_span(pid, stream_lane, t);
                    }
                }

                let dram_bytes = stage.report.stats.iter().fold(0u64, |acc, (k, s)| {
                    if k.ends_with(".read_bytes") || k.ends_with(".write_bytes") {
                        if let Stat::Count(n) = s {
                            return acc + n;
                        }
                    }
                    acc
                });
                samples.push((slot_end, dram_bytes as f64, stage.report.energy.total_j()));
                at = slot_end;
            }
            serial_cursor = at;
        }
        tracer.end_span(pid, LANE_SCHEDULE, wave_end);
        cursor = wave_end;
    }

    samples.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("simulated times are finite"));
    let (mut bytes, mut joules) = (0.0, 0.0);
    for (ts, b, j) in samples {
        bytes += b;
        joules += j;
        tracer.counter(
            pid,
            LANE_COUNTERS,
            "cumulative",
            ts,
            &[("dram_bytes", bytes), ("energy_j", joules)],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_keys_map_to_unified_paths() {
        let mut buf = String::new();
        let mut key = |k: &str| metric_key(k, &mut buf).to_string();
        assert_eq!(key("vault.3.read_bytes"), "mem.read_bytes");
        assert_eq!(key("vault.12.queue_depth.b4"), "mem.queue_depth.b4");
        assert_eq!(key("mesh.0.hops"), "noc.mesh_hops");
        assert_eq!(key("mesh.at_v8.bit_mm"), "noc.mesh_bit_mm");
        assert_eq!(key("serdes.cpu0.tx.packets"), "noc.serdes_packets");
        assert_eq!(key("serdes.hmc0to1.busy_ps"), "noc.serdes_busy_ps");
        assert_eq!(key("l1.p0.2.misses"), "cache.l1_misses");
        assert_eq!(key("llc.hits"), "cache.llc_hits");
        assert_eq!(key("something_else"), "something_else");
    }
}
