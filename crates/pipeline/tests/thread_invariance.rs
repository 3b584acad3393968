//! Thread-count invariance: `PipelineConfig::threads` only sets how many
//! OS threads simulate a run's serial-pass stages and leased branches. The
//! report, and the abort a tripped limit raises, must be the same for
//! every value.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mondrian_core::fault::{Abort, AbortReason};
use mondrian_core::SystemKind;
use mondrian_pipeline::{
    BuildSide, Concurrency, Pipeline, PipelineConfig, Stage, StageInput, StageSpec,
};

/// Two waves of branches: a join whose build side is an earlier stage,
/// a flat_map, a union, a cogroup and a sort.
fn dag() -> Pipeline {
    Pipeline::from_stages(vec![
        Stage::chained(StageSpec::Filter { modulus: 4, remainder: 0 }),
        Stage::chained(StageSpec::GroupByKey),
        Stage::with_input(StageSpec::FlatMap { fanout: 2 }, StageInput::Source),
        Stage::with_inputs(StageSpec::Union, vec![StageInput::Stage(0), StageInput::Stage(2)]),
        Stage::with_inputs(StageSpec::Cogroup, vec![StageInput::Stage(0), StageInput::Stage(2)]),
        Stage::with_input(StageSpec::Join { build: BuildSide::Stage(1) }, StageInput::Stage(3)),
        Stage::with_input(StageSpec::SortByKey, StageInput::Stage(5)),
    ])
}

fn config(system: SystemKind, mode: Concurrency, threads: usize) -> PipelineConfig {
    let mut cfg = PipelineConfig::tiny(system);
    cfg.tuples_per_vault = 32;
    cfg.concurrency = mode;
    cfg.threads = threads;
    cfg
}

const MODES: [Concurrency; 4] =
    [Concurrency::Serial, Concurrency::Branch, Concurrency::Stream, Concurrency::Auto];

#[test]
fn reports_are_identical_for_every_thread_count() {
    let pipeline = dag();
    let dag = pipeline.dag();
    assert!(dag.waves.iter().any(|w| w.len() >= 2), "a wave leases several branches");
    assert!(!dag.fused_pairs(pipeline.stages()).is_empty(), "an edge streams");
    for system in [SystemKind::Cpu, SystemKind::NmpRand, SystemKind::Mondrian] {
        for mode in MODES {
            let one = pipeline.run(&config(system, mode, 1));
            assert!(one.verified(), "{system} {mode:?} failed verification");
            let one = format!("{one:?}");
            for threads in [2, 4] {
                let many = format!("{:?}", pipeline.run(&config(system, mode, threads)));
                assert!(one == many, "{system} {mode:?}: threads = {threads} changed the report");
            }
        }
    }
}

/// The structured abort `cfg`'s run raises.
fn abort_of(pipeline: &Pipeline, cfg: &PipelineConfig) -> (AbortReason, String) {
    let payload = catch_unwind(AssertUnwindSafe(|| pipeline.run(cfg))).expect_err("a limit trips");
    let abort = payload.downcast_ref::<Abort>().expect("a limit unwinds with an Abort");
    (abort.reason, abort.detail.clone())
}

#[test]
fn limits_trip_alike_at_one_and_four_threads() {
    let pipeline = dag();
    let system = SystemKind::Mondrian;
    let events: u64 = pipeline.run(&config(system, Concurrency::Serial, 1)).events();
    for mode in MODES {
        let budget = |threads| {
            let mut cfg = config(system, mode, threads);
            cfg.max_events = Some(events / 2);
            abort_of(&pipeline, &cfg)
        };
        let one = budget(1);
        assert_eq!(one.0, AbortReason::LimitEvents, "{mode:?}");
        assert!(one.1.contains("in phase"), "the budget trips mid-stage: {}", one.1);
        assert_eq!(budget(4), one, "{mode:?}");

        let expired = |threads| {
            let mut cfg = config(system, mode, threads);
            cfg.deadline = Some(Instant::now());
            abort_of(&pipeline, &cfg)
        };
        let one = expired(1);
        assert_eq!(one.0, AbortReason::LimitWallTime, "{mode:?}");
        assert_eq!(expired(4), one, "{mode:?}");
    }
}
