//! The acceptance test of the unified executor API: one spec, three
//! execution paths — in-process, one real remote `serve` process, and
//! two-backend sharded — and the three [`CampaignRun`] reports must be
//! **byte-identical**, each path having emitted a complete, well-formed
//! event stream.

use std::time::{Duration, Instant};

use chunkpoint_campaign::{canonical_report_json, run_campaign, CampaignSpec, SchemeSpec};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_exec::{
    CampaignEvent, CampaignExecutor, CampaignRun, LocalExecutor, RemoteExecutor, ShardConfig,
    ShardedExecutor,
};
use chunkpoint_serve::REPORT_AXES;
use chunkpoint_workloads::Benchmark;

#[path = "../../serve/tests/support/serve_process.rs"]
mod serve_process;
use serve_process::{temp_dir, ServeProcess};

fn parity_spec() -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    CampaignSpec::new(config, 0x0E4EC_9A41)
        .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
        .error_rates(&[1e-6, 1e-5])
        .replicates(2)
}

/// Drains a handle's event stream and waits, then checks the stream's
/// shape: one final `Complete`, `ScenarioDone` for every scenario, and
/// progress that reached `done == total`.
fn run_and_audit(handle: chunkpoint_exec::CampaignHandle, total: usize, path: &str) -> CampaignRun {
    let events: Vec<CampaignEvent> = handle.events().collect();
    let run = handle.wait().unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(
        matches!(events.last(), Some(CampaignEvent::Complete)),
        "{path}: stream did not end with Complete"
    );
    let completes = events
        .iter()
        .filter(|e| matches!(e, CampaignEvent::Complete))
        .count();
    assert_eq!(completes, 1, "{path}: {completes} Complete events");
    let scenarios_seen = events
        .iter()
        .filter(|e| matches!(e, CampaignEvent::ScenarioDone(_)))
        .count();
    assert_eq!(
        scenarios_seen, total,
        "{path}: ScenarioDone events do not cover the grid"
    );
    assert!(
        events.iter().any(
            |e| matches!(e, CampaignEvent::Progress { done, total: t } if done == t && *t == total)
        ),
        "{path}: no done == total progress event"
    );
    // Progress is monotone.
    let mut last_done = 0usize;
    for event in &events {
        if let CampaignEvent::Progress { done, .. } = event {
            assert!(*done >= last_done, "{path}: progress went backwards");
            last_done = *done;
        }
    }
    assert_eq!(run.scenarios, total, "{path}: wrong scenario count");
    assert_eq!(run.results.len(), total, "{path}: wrong row count");
    run
}

/// The headline: the same spec through all three executors produces
/// byte-identical canonical reports — and each path's event stream is
/// complete and well-formed.
#[test]
fn three_executors_one_report() {
    // Telemetry live for the whole run: the campaign engine's sink
    // records scenario wall times and queue depths into the global
    // registry while every byte-identity assert below still holds —
    // the observability layer is provably out-of-band.
    let _ = chunkpoint_telemetry::install_campaign_metrics();
    let spec = parity_spec();
    let total = spec.scenarios().len();

    // The oracle: a plain single-threaded engine run.
    let reference = run_campaign(&spec, 1);
    let expected =
        canonical_report_json(spec.campaign_seed, &reference.results, &REPORT_AXES).render();

    // Local, on two worker threads (determinism makes thread count
    // invisible).
    let local = run_and_audit(LocalExecutor::new(2).submit(&spec), total, "local");
    assert_eq!(local.report, expected, "local bytes diverged");

    // Remote, against one real serve process.
    let remote_backend = ServeProcess::start("remote");
    let remote_exec = RemoteExecutor::new(remote_backend.addr.clone()).with_config(ShardConfig {
        poll_interval: Duration::from_millis(10),
        ..ShardConfig::default()
    });
    let remote = run_and_audit(remote_exec.submit(&spec), total, "remote");
    assert_eq!(remote.report, expected, "remote bytes diverged");
    assert!(remote.dispatches >= 1);

    // The backend's content-addressed cache answers the resubmission
    // without re-simulating — same bytes, same API.
    let resubmit_started = Instant::now();
    let cached = run_and_audit(remote_exec.submit(&spec), total, "remote-cached");
    assert_eq!(cached.report, expected, "cached bytes diverged");
    assert!(
        resubmit_started.elapsed() < Duration::from_secs(5),
        "cache hit should answer fast"
    );
    remote_backend.shutdown();

    // Sharded, across two real serve processes — with a live trace
    // sink: dispatch decisions become structured span events and the
    // bytes still match.
    let trace_out = temp_dir("parity_trace");
    let _ = std::fs::remove_file(&trace_out);
    let shard_a = ServeProcess::start("shard_a");
    let shard_b = ServeProcess::start("shard_b");
    let sharded_exec = ShardedExecutor::new(vec![shard_a.addr.clone(), shard_b.addr.clone()])
        .with_config(ShardConfig {
            poll_interval: Duration::from_millis(10),
            tracer: chunkpoint_telemetry::Tracer::to_file(&trace_out).expect("trace sink"),
            ..ShardConfig::default()
        });
    let sharded = run_and_audit(sharded_exec.submit(&spec), total, "sharded");
    assert_eq!(sharded.report, expected, "sharded bytes diverged");
    assert!(
        sharded.dispatches >= 2,
        "two shards need at least two dispatches"
    );

    // And the three runs agree with each other, row for row.
    assert_eq!(local.report, remote.report);
    assert_eq!(remote.report, sharded.report);
    assert_eq!(local.results, sharded.results);
    shard_a.shutdown();
    shard_b.shutdown();

    // The registry really was live: the engine's sink metered the
    // local path's scenarios, and every executor path counted its
    // events — telemetry recorded *and* the bytes above matched.
    let scrape = chunkpoint_telemetry::Scrape::parse(&chunkpoint_telemetry::render_text(
        chunkpoint_telemetry::global(),
    ))
    .expect("scrape parses");
    assert!(
        scrape
            .value("campaign_scenario_wall_seconds_count", &[])
            .unwrap_or(0.0)
            >= total as f64,
        "engine sink never observed the local run's scenarios"
    );
    for executor in ["local", "remote", "sharded"] {
        assert!(
            scrape
                .value("exec_events_total", &[("executor", executor)])
                .unwrap_or(0.0)
                > 0.0,
            "{executor} path emitted no counted events"
        );
    }
    // And the dispatch trace holds well-formed records for both shards.
    let trace = std::fs::read_to_string(&trace_out).expect("trace file");
    let dispatched = trace
        .lines()
        .map(|line| chunkpoint_campaign::JsonValue::parse(line).expect("trace line is JSON"))
        .filter(|r| {
            r.get("name")
                .and_then(chunkpoint_campaign::JsonValue::as_str)
                == Some("dispatched")
        })
        .count();
    assert_eq!(dispatched, 2, "one dispatched event per shard");
    let _ = std::fs::remove_file(&trace_out);
}

/// A spec carrying its own `scenario_range` executes only its slice on
/// **every** path — the sharded executor must not silently widen it
/// back to the full grid.
#[test]
fn ranged_specs_stay_byte_identical_across_paths() {
    let full = parity_spec();
    let grid_len = full.scenarios().len();
    let (start, end) = (2usize, grid_len - 3);
    let spec = full.scenario_range(start, end);
    let total = end - start;

    // Oracle: the engine's own ranged run, canonically rendered.
    let reference = run_campaign(&spec, 1);
    assert_eq!(reference.results.len(), total);
    let expected =
        canonical_report_json(spec.campaign_seed, &reference.results, &REPORT_AXES).render();

    let local = run_and_audit(LocalExecutor::new(2).submit(&spec), total, "ranged-local");
    assert_eq!(local.report, expected, "ranged local bytes diverged");

    let backend = ServeProcess::start("ranged_remote");
    let remote = run_and_audit(
        RemoteExecutor::new(backend.addr.clone()).submit(&spec),
        total,
        "ranged-remote",
    );
    assert_eq!(remote.report, expected, "ranged remote bytes diverged");
    backend.shutdown();

    let shard_a = ServeProcess::start("ranged_a");
    let shard_b = ServeProcess::start("ranged_b");
    let sharded = run_and_audit(
        ShardedExecutor::new(vec![shard_a.addr.clone(), shard_b.addr.clone()]).submit(&spec),
        total,
        "ranged-sharded",
    );
    assert_eq!(sharded.report, expected, "ranged sharded bytes diverged");
    assert!(sharded
        .results
        .iter()
        .all(|r| r.scenario.index >= start && r.scenario.index < end));
    shard_a.shutdown();
    shard_b.shutdown();
}

/// Weighted sharding is still byte-identical — weights move scenarios
/// between backends, never change them.
#[test]
fn weighted_sharding_matches_even_sharding_bytes() {
    let spec = parity_spec();
    let total = spec.scenarios().len();
    let reference = run_campaign(&spec, 1);
    let expected =
        canonical_report_json(spec.campaign_seed, &reference.results, &REPORT_AXES).render();

    let shard_a = ServeProcess::start("weighted_a");
    let shard_b = ServeProcess::start("weighted_b");
    let executor = ShardedExecutor::new(vec![shard_a.addr.clone(), shard_b.addr.clone()])
        .with_weights(vec![3.0, 1.0])
        .with_config(ShardConfig {
            poll_interval: Duration::from_millis(10),
            ..ShardConfig::default()
        });
    let handle = executor.submit(&spec);
    let mut dispatched_ranges = Vec::new();
    for event in handle.events() {
        if let CampaignEvent::ShardDispatched { range, .. } = event {
            dispatched_ranges.push(range);
        }
    }
    let run = handle.wait().expect("weighted sharded run");
    assert_eq!(run.report, expected, "weighted bytes diverged");
    // The 3:1 weights actually skewed the partition.
    assert_eq!(dispatched_ranges.len(), 2);
    let sizes: Vec<usize> = dispatched_ranges.iter().map(|(s, e)| e - s).collect();
    assert!(
        sizes[0] >= 3 * sizes[1],
        "weights were ignored: {sizes:?} for a 3:1 split of {total}"
    );
    shard_a.shutdown();
    shard_b.shutdown();
}
