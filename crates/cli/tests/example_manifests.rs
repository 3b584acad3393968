//! The example manifests shipped under `examples/manifests/` must keep
//! parsing and verifying: they are the CLI's documented entry points.

use mondrian_cli::campaign::{run_campaign, CampaignRun};
use mondrian_cli::manifest::{Format, Manifest};
use mondrian_pipeline::{Concurrency, PipelineReport};

/// Every example campaign completes, so each run carries a report.
fn rep(run: &CampaignRun) -> &PipelineReport {
    run.report.as_ref().expect("example runs complete")
}

fn example(name: &str) -> String {
    let path = format!("{}/../../examples/manifests/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn spark_pipeline_toml_parses_to_the_documented_campaign() {
    let m = Manifest::parse(&example("spark_pipeline.toml"), Format::Toml).unwrap();
    assert_eq!(m.name, "spark-pipeline");
    assert_eq!(m.systems.len(), 7, "runs on every evaluated system");
    assert!(m.stages.len() >= 3, "the acceptance pipeline has at least 3 stages");
    assert!(m.tiny);
    // Scan, Group-by and Sort all participate.
    let ops: Vec<_> = m.stages.iter().map(|s| s.basic_operator()).collect();
    assert_eq!(ops.len(), 3);
    assert_eq!(m.runs().len(), 7);
}

#[test]
fn join_campaign_json_runs_verified_and_deterministic() {
    let m = Manifest::parse(&example("join_campaign.json"), Format::Json).unwrap();
    assert_eq!(m.runs().len(), 4, "2 systems x 2 swept seeds");
    let a = run_campaign(&m, |_| {});
    assert!(a.verified(), "example campaign must verify");
    let b = run_campaign(&m, |_| {});
    assert_eq!(a.to_json(), b.to_json(), "artifact must be byte-identical per seed");
}

/// The opened operator layer at the manifest level: `cogroup_union.toml`
/// exercises union, cogroup and flat_map as declarative stages with
/// multi-input `input = [...]` edges, runs verified on the four
/// representative systems, and stays byte-identical between the serial
/// and branch schedules.
#[test]
fn cogroup_union_manifest_runs_all_new_stage_kinds() {
    let m = Manifest::parse(&example("cogroup_union.toml"), Format::Toml).unwrap();
    assert_eq!(m.systems.len(), 4, "both algorithm families, both partitioning mechanisms");
    assert_eq!(m.concurrency, mondrian_pipeline::Concurrency::Branch);
    let names: Vec<&str> = m.stages.iter().map(|s| s.name()).collect();
    for required in ["union", "cogroup", "flat_map"] {
        assert!(names.contains(&required), "manifest must exercise {required}");
    }
    assert_eq!(m.stages[3].inputs.len(), 2, "union reads two explicit edges");

    let branch = run_campaign(&m, |_| {});
    assert!(branch.verified(), "cogroup_union campaign must verify on every system");
    let mut serial = m.clone();
    serial.concurrency = mondrian_pipeline::Concurrency::Serial;
    let s = run_campaign(&serial, |_| {});
    for (br, sr) in branch.runs.iter().zip(&s.runs) {
        assert_eq!(rep(br).output, rep(sr).output);
        for (bs, ss) in rep(br).stages.iter().zip(&rep(sr).stages) {
            assert_eq!(bs.output_digest, ss.output_digest, "{} diverged", bs.spec);
        }
        assert!(rep(br).makespan_ps() <= rep(sr).makespan_ps());
    }
}

/// The intra-stage pipelining acceptance scenario at the manifest
/// level: `stream_chain.toml` is a linear chain (branch tenancy cannot
/// help), yet `concurrency = "stream"` must beat both `"serial"` and
/// `"branch"` strictly on CPU while every run's stage outputs stay
/// byte-identical across all three modes.
#[test]
fn stream_chain_campaign_beats_branch_with_identical_outputs() {
    let stream = Manifest::parse(&example("stream_chain.toml"), Format::Toml).unwrap();
    assert_eq!(stream.concurrency, mondrian_pipeline::Concurrency::Stream);
    let mut branch = stream.clone();
    branch.concurrency = mondrian_pipeline::Concurrency::Branch;
    let mut serial = stream.clone();
    serial.concurrency = mondrian_pipeline::Concurrency::Serial;

    let st = run_campaign(&stream, |_| {});
    let br = run_campaign(&branch, |_| {});
    let se = run_campaign(&serial, |_| {});
    assert!(st.verified() && br.verified() && se.verified());

    let mut strictly_faster = Vec::new();
    for ((sr, br), ser) in st.runs.iter().zip(&br.runs).zip(&se.runs) {
        for (ss, es) in rep(sr).stages.iter().zip(&rep(ser).stages) {
            assert_eq!(
                ss.output_digest,
                es.output_digest,
                "{}: stage {} diverged under streaming",
                sr.spec.system.name(),
                ss.spec
            );
        }
        assert_eq!(rep(sr).output, rep(ser).output);
        // A linear chain: branch ≡ serial, and stream never slower.
        assert_eq!(rep(br).makespan_ps(), rep(ser).makespan_ps());
        assert!(rep(sr).makespan_ps() <= rep(br).makespan_ps());
        if rep(sr).makespan_ps() < rep(br).makespan_ps() {
            assert!(rep(sr).schedule.any_streamed());
            strictly_faster.push(sr.spec.system);
        }
    }
    assert!(
        strictly_faster.contains(&mondrian_core::SystemKind::Cpu),
        "streaming must beat the branch schedule on CPU; got {strictly_faster:?}"
    );
}

/// The acceptance scenario at the manifest level: the two-branch DAG
/// campaign run with `concurrency = "branch"` must report a strictly
/// smaller makespan than `"serial"` on at least one system, while every
/// run's stage outputs stay byte-identical between the two modes.
#[test]
fn branch_join_campaign_beats_serial_with_identical_outputs() {
    let branch = Manifest::parse(&example("branch_join.toml"), Format::Toml).unwrap();
    assert_eq!(branch.concurrency, mondrian_pipeline::Concurrency::Branch);
    let mut serial = branch.clone();
    serial.concurrency = mondrian_pipeline::Concurrency::Serial;

    let b = run_campaign(&branch, |_| {});
    let s = run_campaign(&serial, |_| {});
    assert!(b.verified() && s.verified());
    assert_eq!(b.runs.len(), s.runs.len());

    let mut strictly_faster = 0;
    for (br, sr) in b.runs.iter().zip(&s.runs) {
        assert_eq!(br.spec, sr.spec);
        // Stage outputs byte-identical between the two modes.
        for (bs, ss) in rep(br).stages.iter().zip(&rep(sr).stages) {
            assert_eq!(
                bs.output_digest,
                ss.output_digest,
                "{}: stage {} output diverged between schedules",
                br.spec.system.name(),
                bs.spec
            );
        }
        assert_eq!(rep(br).output, rep(sr).output);
        assert!(rep(br).makespan_ps() <= rep(sr).makespan_ps());
        if rep(br).makespan_ps() < rep(sr).makespan_ps() {
            strictly_faster += 1;
        }
    }
    assert!(strictly_faster > 0, "branch schedule must beat serial on at least one system");
}

/// `(manifest, mode, FNV-1a digest of Campaign::to_json())` at `jobs = 1`.
/// The checked-in baselines pin only each manifest's default mode; these
/// pin every schedule byte-for-byte, so a refactor of the executor that
/// moves one byte of a `serial` or `auto` artifact fails here.
const MODE_DIGESTS: [(&str, Concurrency, u64); 12] = [
    ("branch_join.toml", Concurrency::Serial, 0x56f2_0a6a_49f3_1936),
    ("branch_join.toml", Concurrency::Branch, 0xc74a_b397_f3e4_1b29),
    ("branch_join.toml", Concurrency::Stream, 0x5356_ac43_886c_25da),
    ("branch_join.toml", Concurrency::Auto, 0xf3ac_4da0_6223_3683),
    ("stream_chain.toml", Concurrency::Serial, 0x65cd_6593_41a7_2c55),
    ("stream_chain.toml", Concurrency::Branch, 0x4c5d_41d2_0088_6da1),
    ("stream_chain.toml", Concurrency::Stream, 0x846a_5a3f_ecd2_43e4),
    ("stream_chain.toml", Concurrency::Auto, 0xb020_0235_6007_a477),
    ("cogroup_union.toml", Concurrency::Serial, 0x8649_210b_1ab5_7ef2),
    ("cogroup_union.toml", Concurrency::Branch, 0x9139_aa66_929c_068a),
    ("cogroup_union.toml", Concurrency::Stream, 0xdb4f_f45b_18fa_06d8),
    ("cogroup_union.toml", Concurrency::Auto, 0xb89e_ce77_3515_9cc5),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn every_mode_artifact_matches_its_golden_digest() {
    let mut got = Vec::new();
    for (name, mode, _) in MODE_DIGESTS {
        let mut m = Manifest::parse(&example(name), Format::Toml).unwrap();
        m.concurrency = mode;
        let campaign = run_campaign(&m, |_| {});
        assert!(campaign.verified(), "{name} --concurrency {} must verify", mode.name());
        got.push((name, mode, fnv1a(campaign.to_json().as_bytes())));
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(name, mode, d)| format!("(\"{name}\", Concurrency::{mode:?}, {d:#018x}),"))
        .collect();
    assert_eq!(got, MODE_DIGESTS, "artifact digests moved:\n{}", rendered.join("\n"));
}
