//! The scenario smoke: a named timeline scenario — fault burst, quiet
//! shift, scrub schedule, `expect` blocks — submitted to a **real
//! `serve` backend** over TCP, asserting every expect verdict came back
//! as a typed per-row outcome and the remote report **byte-matches a
//! local oracle**. CI runs this as the scenario smoke (`scripts/ci.sh`);
//! it finishes in about a second. Pass an output directory as the first
//! argument to also write `local.json` / `remote.json` for a shell-level
//! `cmp`.
//!
//! ```text
//! cargo run --release --example scenario_campaign [OUT_DIR]
//! ```

use chunkpoint::campaign::{canonical_report_json, run_campaign, CampaignSpec, SchemeSpec};
use chunkpoint::core::{MitigationScheme, SystemConfig};
use chunkpoint::exec::{CampaignExecutor, ShardedExecutor};
use chunkpoint::scenario::{
    ExpectField, ExpectOp, ExpectValue, Expectation, ScenarioDef, TimelineEvent,
};
use chunkpoint::serve::REPORT_AXES;
use chunkpoint::workloads::Benchmark;
use chunkpoint_bench::harness::Backends;

/// Three regimes the static grid cannot express: a saturating burst in
/// the decode task's output-drain exposure window, a quiet shift to a
/// zero error rate with an expect block every row must satisfy, and a
/// periodic scrub schedule.
fn scenario_axis() -> Vec<ScenarioDef> {
    let mut storm = ScenarioDef::named("storm");
    storm.tags = vec!["burst".to_owned()];
    storm.timeline = vec![TimelineEvent::FaultBurst {
        cycle: 2_000,
        words: 64,
        rate: 1.0,
    }];
    let mut calm = ScenarioDef::named("calm");
    calm.timeline = vec![TimelineEvent::ErrorRateShift {
        cycle: 0,
        rate: 0.0,
    }];
    calm.expect = vec![
        Expectation {
            field: ExpectField::Completed,
            op: ExpectOp::Eq,
            value: ExpectValue::Bool(true),
        },
        Expectation {
            field: ExpectField::DetectedErrors,
            op: ExpectOp::Eq,
            value: ExpectValue::Uint(0),
        },
    ];
    let mut scrubbed = ScenarioDef::named("scrubbed");
    scrubbed.timeline = vec![TimelineEvent::Scrub { period: 4_096 }];
    vec![storm, calm, scrubbed]
}

fn main() {
    let out_dir = std::env::args().nth(1);
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    let spec = CampaignSpec::new(config, 0x5CE7_A10)
        .benchmarks(&[Benchmark::AdpcmDecode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
        .error_rates(&[1e-6])
        .replicates(2)
        .timeline_scenarios(&scenario_axis());
    let total = spec.scenarios().len();

    // The local oracle: a plain single-threaded engine run, canonically
    // rendered.
    let oracle = run_campaign(&spec, 1);
    let expected =
        canonical_report_json(spec.campaign_seed, &oracle.results, &REPORT_AXES).render();

    // The real backend: a serve instance on an ephemeral TCP port; the
    // scenario axis crosses the wire as spec JSON and the verdicts come
    // back as journal rows.
    let backends = Backends::start(1, 1, 0);
    let remote = ShardedExecutor::new(backends.addrs.clone())
        .submit(&spec)
        .wait()
        .expect("remote run");
    println!("remote: {total} scenario rows via {}", backends.addrs[0]);

    // Expect verdicts are typed outcomes on exactly the calm rows.
    let mut verdicts = 0usize;
    for row in &remote.results {
        match row.scenario.scenario.as_deref() {
            Some("calm") => {
                assert_eq!(row.expect_passed, Some(true), "calm row failed its expect");
                assert!(row.expect_failures.is_empty());
                verdicts += 1;
            }
            _ => assert_eq!(row.expect_passed, None, "unexpected verdict"),
        }
    }
    assert!(verdicts > 0, "no expect block was evaluated");
    assert_eq!(
        remote.report, expected,
        "remote report diverged from the local oracle"
    );
    println!("byte-identical remote vs local-oracle reports ✓ ({verdicts} expect verdicts passed)");

    if let Some(dir) = out_dir {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create out dir");
        std::fs::write(dir.join("local.json"), expected.as_bytes()).expect("write local.json");
        std::fs::write(dir.join("remote.json"), remote.report.as_bytes())
            .expect("write remote.json");
        println!("wrote {}/local.json and remote.json", dir.display());
    }
}
