//! The acceptance test of the timeline-scenario axis: a spec carrying
//! named scenarios — fault bursts, error-rate shifts, and `expect`
//! blocks — through all three execution paths (in-process, one real
//! remote `serve` process, two-backend sharded) must produce
//! **byte-identical** canonical reports, with expect verdicts riding
//! the journal rows as typed outcomes, never panics. A second sharded
//! run against a warm [`RangeCache`] must splice every row from disk
//! instead of re-executing.

use std::time::Duration;

use chunkpoint_campaign::{
    canonical_report_json, run_campaign, CampaignSpec, CancelToken, SchemeSpec,
};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_exec::{
    CampaignEvent, CampaignExecutor, CampaignRun, LocalExecutor, ShardConfig, ShardedExecutor,
};
use chunkpoint_scenario::{
    ExpectField, ExpectOp, ExpectValue, Expectation, ScenarioDef, TimelineEvent,
};
use chunkpoint_serve::REPORT_AXES;
use chunkpoint_shard::run_sharded_ctl;
use chunkpoint_workloads::Benchmark;

#[path = "../../serve/tests/support/serve_process.rs"]
mod serve_process;
use serve_process::{temp_dir, ServeProcess};

/// Three scenarios chosen for deterministic, path-independent verdicts:
///
/// * `storm` — a saturating fault burst at cycle 2000, which falls in
///   the AdpcmDecode block-0-output → end-of-frame-drain exposure
///   window (strikes materialise lazily at read time, so a burst
///   outside every write→read window would be invisible);
/// * `calm` — the error process shifted to zero from cycle 0, with an
///   expect block every row satisfies;
/// * `doomed` — no timeline at all, but an unsatisfiable expect
///   (`cycles <= 0`), so every row carries a typed failure.
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
    let mut doomed = ScenarioDef::named("doomed");
    doomed.expect = vec![Expectation {
        field: ExpectField::Cycles,
        op: ExpectOp::Le,
        value: ExpectValue::Uint(0),
    }];
    vec![storm, calm, doomed]
}

fn scenario_spec() -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    CampaignSpec::new(config, 0x5CE0_A41)
        .benchmarks(&[Benchmark::AdpcmDecode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
        .error_rates(&[1e-6])
        .replicates(2)
        .timeline_scenarios(&scenario_axis())
}

fn run_and_wait(handle: chunkpoint_exec::CampaignHandle, path: &str) -> CampaignRun {
    let events: Vec<CampaignEvent> = handle.events().collect();
    let run = handle.wait().unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(
        matches!(events.last(), Some(CampaignEvent::Complete)),
        "{path}: stream did not end with Complete"
    );
    run
}

/// The headline: timeline scenarios and expect verdicts survive every
/// execution path byte-for-byte.
#[test]
fn scenario_axis_is_byte_identical_across_paths() {
    let _ = chunkpoint_telemetry::install_campaign_metrics();
    let spec = scenario_spec();
    let grid = spec.scenarios();
    let total = grid.len();
    assert_eq!(
        total, 12,
        "1 bench × 2 schemes × 1 rate × 3 scenarios × 2 reps"
    );

    // The oracle: a plain single-threaded engine run.
    let reference = run_campaign(&spec, 1);
    let expected =
        canonical_report_json(spec.campaign_seed, &reference.results, &REPORT_AXES).render();

    // Expect verdicts are typed outcomes on exactly the rows whose
    // scenario carries an expect block — and nothing panicked to get
    // here.
    for row in &reference.results {
        match row.scenario.scenario.as_deref() {
            Some("calm") => {
                assert_eq!(row.expect_passed, Some(true), "calm row failed its expect");
                assert!(row.expect_failures.is_empty());
            }
            Some("doomed") => {
                assert_eq!(row.expect_passed, Some(false), "doomed row passed");
                assert!(
                    row.expect_failures.iter().any(|f| f.contains("cycles")),
                    "failure should name the field: {:?}",
                    row.expect_failures
                );
            }
            _ => assert_eq!(row.expect_passed, None, "storm has no expect block"),
        }
    }
    // The storm actually perturbed the run: its rows differ from calm's
    // on at least one scheme (same benchmark, same seeds otherwise).
    assert!(
        reference
            .results
            .iter()
            .filter(|r| r.scenario.scenario.as_deref() == Some("storm"))
            .any(|r| r.errors_detected > 0 || r.restarts > 0 || r.correct == Some(false)),
        "the burst went unnoticed on every storm row"
    );

    // Local, two threads.
    let local = run_and_wait(LocalExecutor::new(2).submit(&spec), "local");
    assert_eq!(local.report, expected, "local bytes diverged");
    assert_eq!(local.results, reference.results, "local rows diverged");

    // Remote: the scenario axis crosses the wire as spec JSON, the
    // verdicts come back as journal rows.
    let backend = ServeProcess::start("scn_remote");
    let remote_exec = ShardedExecutor::new(vec![backend.addr.clone()]).with_config(ShardConfig {
        poll_interval: Duration::from_millis(10),
        ..ShardConfig::default()
    });
    let remote = run_and_wait(remote_exec.submit(&spec), "remote");
    assert_eq!(remote.report, expected, "remote bytes diverged");
    assert_eq!(remote.results, reference.results, "remote rows diverged");
    backend.shutdown();

    // Sharded across two real backends.
    let shard_a = ServeProcess::start("scn_shard_a");
    let shard_b = ServeProcess::start("scn_shard_b");
    let sharded_exec = ShardedExecutor::new(vec![shard_a.addr.clone(), shard_b.addr.clone()])
        .with_config(ShardConfig {
            poll_interval: Duration::from_millis(10),
            ..ShardConfig::default()
        });
    let sharded = run_and_wait(sharded_exec.submit(&spec), "sharded");
    assert_eq!(sharded.report, expected, "sharded bytes diverged");
    assert_eq!(sharded.results, reference.results, "sharded rows diverged");
    shard_a.shutdown();
    shard_b.shutdown();
}

/// A warm range cache answers a scenario-axis campaign without
/// dispatching anything: every row splices from disk and the report
/// bytes still match the engine oracle.
#[test]
fn warm_cache_splices_scenario_rows_instead_of_re_executing() {
    let spec = scenario_spec();
    let total = spec.scenarios().len();
    let reference = run_campaign(&spec, 1);
    let expected =
        canonical_report_json(spec.campaign_seed, &reference.results, &REPORT_AXES).render();

    let cache_dir = temp_dir("scn_cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let shard_a = ServeProcess::start("scn_warm_a");
    let shard_b = ServeProcess::start("scn_warm_b");
    let backends = vec![shard_a.addr.clone(), shard_b.addr.clone()];
    let config = ShardConfig {
        poll_interval: Duration::from_millis(10),
        cache_dir: Some(cache_dir.clone()),
        ..ShardConfig::default()
    };

    // Cold: everything executes remotely, rows seal into the cache.
    let cold = run_sharded_ctl(&spec, &backends, &config, &CancelToken::new(), |_| {})
        .expect("cold sharded run");
    assert_eq!(cold.report, expected, "cold bytes diverged");
    assert_eq!(cold.spliced, 0, "an empty cache spliced rows");
    assert!(cold.dispatches >= 2);

    // Warm: the whole grid splices, nothing is dispatched — the
    // backends could be gone entirely.
    shard_a.shutdown();
    shard_b.shutdown();
    let warm = run_sharded_ctl(&spec, &backends, &config, &CancelToken::new(), |_| {})
        .expect("warm sharded run");
    assert_eq!(warm.report, expected, "warm bytes diverged");
    assert_eq!(
        warm.spliced, total,
        "warm run re-executed instead of splicing"
    );
    assert_eq!(warm.dispatches, 0, "warm run dispatched to a backend");
    assert_eq!(warm.results, reference.results, "spliced rows diverged");
    let _ = std::fs::remove_dir_all(&cache_dir);
}
