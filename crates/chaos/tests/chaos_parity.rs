//! The acceptance test of the chaos tentpole: real `serve` processes
//! behind the deterministic fault proxy, driven through the unified
//! executor API across a grid of fault plans. Every run must end in one
//! of exactly two states — a report **byte-identical** to the
//! fault-free baseline, or a **typed** error (with salvaged partial
//! results on the sharded path). Never corrupt bytes, never a hang.

use std::time::{Duration, Instant};

use chunkpoint_campaign::{canonical_report_json, run_campaign, CampaignSpec, SchemeSpec};
use chunkpoint_chaos::{ChaosProxy, FaultKind, FaultPlan};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_exec::{CampaignEvent, CampaignExecutor, ExecError, ShardConfig, ShardedExecutor};
use chunkpoint_serve::REPORT_AXES;
use chunkpoint_workloads::Benchmark;

#[path = "../../serve/tests/support/serve_process.rs"]
mod serve_process;
use serve_process::ServeProcess;

/// A small, fast campaign with a per-run seed: fresh seeds keep each
/// chaos run a real simulation instead of a backend cache hit.
fn chaos_spec(campaign_seed: u64) -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    CampaignSpec::new(config, campaign_seed)
        .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
        .error_rates(&[1e-6, 1e-5])
        .replicates(2)
}

fn expected_report(spec: &CampaignSpec) -> String {
    let reference = run_campaign(spec, 1);
    canonical_report_json(spec.campaign_seed, &reference.results, &REPORT_AXES).render()
}

/// A remote config tuned for chaos: fast polls, and a strike budget
/// sized from the plan itself — `max_fault_run` bounds the longest
/// streak of consecutive faulted connections, so any budget above it
/// deterministically outlasts every streak the plan can produce.
fn surviving_config(plan: &FaultPlan) -> ShardConfig {
    #[allow(clippy::cast_possible_truncation)]
    let strikes = plan.max_fault_run(512) as u32 + 2;
    ShardConfig {
        poll_interval: Duration::from_millis(10),
        request_timeout: Duration::from_secs(10),
        backend_strikes: strikes,
        shard_attempts: strikes.max(5),
        backoff_seed: plan.seed,
        ..ShardConfig::default()
    }
}

/// Campaigns one faulted plan may run through its proxy before it must
/// have drawn a fault. How many connections a campaign makes depends on
/// how long its jobs run, so the check runs campaigns until the plan
/// bites instead of relying on one campaign reaching a faulted
/// connection index.
const MAX_CAMPAIGNS_PER_PLAN: u64 = 8;

/// The headline: a grid of fault plans between the executor and a real
/// `serve`. Mid-rate plans (with a strike budget sized from the plan)
/// must end **byte-identical** to the fault-free baseline; the
/// fault-free plan must too, through the proxy's faithful relay.
#[test]
fn faulted_runs_end_byte_identical_or_not_at_all() {
    // Telemetry live during the chaos grid: the engine sink meters
    // every in-process baseline run while the byte-identity asserts
    // hold — fault handling and metrics are both out-of-band.
    let _ = chunkpoint_telemetry::install_campaign_metrics();
    let backend = ServeProcess::start("grid");
    let plans = [
        FaultPlan::new(0xA1, 0.0),
        FaultPlan::new(0xB2, 0.2),
        FaultPlan::new(0xC3, 0.35),
        FaultPlan::new(0xD4, 0.35),
    ];
    for (index, plan) in plans.into_iter().enumerate() {
        let config = surviving_config(&plan);
        let seed = plan.seed;
        let rate = plan.rate;
        let mut proxy = ChaosProxy::start(&backend.addr, plan.clone()).expect("start proxy");
        // Fresh-seeded campaigns through the same proxy until it has
        // drawn a fault; every one must end byte-identical.
        let mut failures = 0;
        for campaign in 0..MAX_CAMPAIGNS_PER_PLAN {
            let spec = chaos_spec(0xC0DE + index as u64 + (campaign << 8));
            let expected = expected_report(&spec);
            let started = Instant::now();
            let run = ShardedExecutor::new(vec![proxy.addr()])
                .with_config(config.clone())
                .submit(&spec)
                .wait()
                .unwrap_or_else(|e| panic!("plan seed {seed:#x} rate {rate}: {e}"));
            assert_eq!(
                run.report, expected,
                "plan seed {seed:#x} rate {rate} changed the report bytes"
            );
            assert!(
                started.elapsed() < Duration::from_secs(120),
                "plan seed {seed:#x} rate {rate} was not wall-clock bounded"
            );
            failures += run.failures;
            if rate == 0.0 || proxy.faults() > 0 {
                break;
            }
        }
        if rate > 0.0 {
            assert!(
                proxy.faults() > 0,
                "plan seed {seed:#x} rate {rate} never actually faulted"
            );
            // Delay faults (stall, slow-loris) are survived invisibly;
            // every *failure-shaped* fault drawn must have been observed
            // and retried by the executor — never silently consumed.
            let damaging = (0..proxy.connections())
                .filter_map(|i| plan.fault_for(i))
                .filter(|f| !matches!(f.kind, FaultKind::Stall | FaultKind::SlowLoris))
                .count();
            assert!(
                failures >= damaging,
                "plan seed {seed:#x}: {damaging} damaging faults but only {failures} observed failures"
            );
        } else {
            assert_eq!(proxy.faults(), 0, "rate 0.0 must be a faithful relay");
            assert_eq!(failures, 0);
        }
        proxy.shutdown();
    }
    backend.shutdown();
}

/// Every connection refused, strike budget too small to outlast it: the
/// run must fail **typed** — and identically on a replay of the same
/// plan seed. This is the reproducibility contract: a chaos failure in
/// CI replays exactly from its seed.
#[test]
fn total_refusal_fails_typed_and_replays_identically() {
    let backend = ServeProcess::start("refuse");
    let spec = chaos_spec(0xDEAD);
    let config = ShardConfig {
        poll_interval: Duration::from_millis(5),
        request_timeout: Duration::from_secs(2),
        backend_strikes: 3,
        shard_attempts: 2,
        backoff_seed: 7,
        ..ShardConfig::default()
    };
    let mut outcomes = Vec::new();
    for _replay in 0..2 {
        let plan = FaultPlan::new(0x5EED, 1.0).kinds(&[FaultKind::Refuse]);
        let proxy = ChaosProxy::start(&backend.addr, plan).expect("start proxy");
        let started = Instant::now();
        let err = ShardedExecutor::new(vec![proxy.addr()])
            .with_config(config.clone())
            .submit(&spec)
            .wait()
            .expect_err("total refusal cannot succeed");
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "refusal must strike out fast, not hang"
        );
        assert!(
            matches!(&err, ExecError::Exhausted { partial, .. } if partial.results.is_empty()),
            "wrong error shape: {err}"
        );
        outcomes.push(std::mem::discriminant(&err));
    }
    assert_eq!(outcomes[0], outcomes[1], "same seed, different outcome");
    backend.shutdown();
}

/// Every response corrupted: the flipped body byte makes the payload
/// invalid UTF-8, so the typed client rejects every exchange — silent
/// corruption is structurally impossible, and the run fails typed.
#[test]
fn corruption_is_always_detected_never_consumed() {
    let backend = ServeProcess::start("corrupt");
    let spec = chaos_spec(0xBADB);
    let plan = FaultPlan::new(0xFACE, 1.0).kinds(&[FaultKind::CorruptByte]);
    let proxy = ChaosProxy::start(&backend.addr, plan).expect("start proxy");
    let err = ShardedExecutor::new(vec![proxy.addr()])
        .with_config(ShardConfig {
            poll_interval: Duration::from_millis(5),
            request_timeout: Duration::from_secs(2),
            backend_strikes: 2,
            shard_attempts: 2,
            backoff_seed: 0,
            ..ShardConfig::default()
        })
        .submit(&spec)
        .wait()
        .expect_err("all-corrupted traffic must fail typed");
    let rendered = err.to_string();
    assert!(
        matches!(&err, ExecError::Exhausted { partial, .. } if partial.results.is_empty()),
        "wrong error shape: {rendered}"
    );
    assert!(proxy.faults() > 0, "the proxy never corrupted anything");
    backend.shutdown();
}

/// Sharded across two backends, each behind its own mid-rate fault
/// proxy: with breaker strike budgets sized from the plans, the
/// coordinator survives every streak and the merged report stays
/// byte-identical to the fault-free baseline.
#[test]
fn sharded_run_survives_faulted_backends_byte_identical() {
    let _ = chunkpoint_telemetry::install_campaign_metrics();
    let backend_a = ServeProcess::start("shard_a");
    let backend_b = ServeProcess::start("shard_b");
    let plan_a = FaultPlan::new(0x11, 0.25);
    let plan_b = FaultPlan::new(0x22, 0.25);
    #[allow(clippy::cast_possible_truncation)]
    let strikes = plan_a.max_fault_run(512).max(plan_b.max_fault_run(512)) as u32 + 2;
    let proxy_a = ChaosProxy::start(&backend_a.addr, plan_a).expect("proxy a");
    let proxy_b = ChaosProxy::start(&backend_b.addr, plan_b).expect("proxy b");
    let spec = chaos_spec(0x54A2D);
    let expected = expected_report(&spec);
    let run = ShardedExecutor::new(vec![proxy_a.addr(), proxy_b.addr()])
        .with_config(ShardConfig {
            poll_interval: Duration::from_millis(10),
            request_timeout: Duration::from_secs(10),
            backend_strikes: strikes,
            shard_attempts: 5,
            breaker_cooldown: Duration::from_millis(25),
            breaker_max: Duration::from_millis(200),
            backoff_seed: 0x33,
            ..ShardConfig::default()
        })
        .submit(&spec)
        .wait()
        .expect("sized strike budget must outlast every fault streak");
    assert_eq!(run.report, expected, "sharded chaos changed the bytes");
    assert!(
        proxy_a.faults() + proxy_b.faults() > 0,
        "neither proxy ever faulted"
    );
    backend_a.shutdown();
    backend_b.shutdown();
}

/// Graceful degradation: shard 0 completes, then every backend dies
/// while shard 1 is still running. The run must fail with the typed
/// `Exhausted` carrying a `PartialCampaign` — shard 0's range, its
/// validated rows, and a canonical report over exactly those rows.
#[test]
fn exhaustion_salvages_completed_shards_as_partial_campaign() {
    let backend_a = ServeProcess::start("partial_a");
    let backend_b = ServeProcess::start("partial_b");
    // An even split of a grid whose halves differ in cost: shard 0 (on
    // A) decodes fault-free and finishes fast; shard 1 (on B) decodes at
    // a strike rate where every run burns all its SW restarts, and is
    // still running when the backends die. The halves took 2.8 ms and
    // 491 ms in a single-threaded release run on a 2-vCPU machine.
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    let spec = CampaignSpec::new(config, 0x9A57)
        .benchmarks(&[Benchmark::JpegDecode])
        .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
        .error_rates(&[0.0, 3e-4])
        .replicates(200)
        .normalize(false)
        .golden_check(false);
    let handle = ShardedExecutor::new(vec![backend_a.addr.clone(), backend_b.addr.clone()])
        .with_config(ShardConfig {
            poll_interval: Duration::from_millis(10),
            request_timeout: Duration::from_secs(2),
            backend_strikes: 2,
            shard_attempts: 2,
            breaker_cooldown: Duration::from_millis(25),
            breaker_max: Duration::from_millis(200),
            backoff_seed: 0,
            ..ShardConfig::default()
        })
        .submit(&spec);
    // Shard 0's rows arrive in one burst the moment its journal is
    // fetched; the first ScenarioDone means shard 0 is complete.
    let mut shard0_range = None;
    let mut events = handle.events();
    for event in events.by_ref() {
        match event {
            CampaignEvent::ShardDispatched {
                shard: 0, range, ..
            } => shard0_range = Some(range),
            CampaignEvent::ScenarioDone(_) => break,
            _ => {}
        }
    }
    let (start, end) = shard0_range.expect("shard 0 was dispatched");
    assert_eq!(start, 0, "the even partition starts at the grid's front");
    // Pull the rug: both backends gone, shard 1 outstanding.
    backend_a.shutdown();
    backend_b.shutdown();
    drop(events);
    let waited = Instant::now();
    let err = handle.wait().expect_err("no backends left: must fail");
    assert!(
        waited.elapsed() < Duration::from_secs(60),
        "exhaustion must be wall-clock bounded"
    );
    let ExecError::Exhausted { partial, .. } = err else {
        panic!("expected Exhausted with a partial campaign, got: {err}");
    };
    assert_eq!(
        partial.completed_ranges,
        vec![(start, end)],
        "exactly shard 0's range must be salvaged"
    );
    assert_eq!(partial.results.len(), end - start);
    assert!(partial
        .results
        .windows(2)
        .all(|w| w[0].scenario.index < w[1].scenario.index));
    // The salvaged report is the canonical report over exactly those
    // rows — byte-deterministic, verifiable against a local run of the
    // same sub-range.
    let reference = run_campaign(&spec.clone().scenario_range(start, end), 1);
    let expected_partial =
        canonical_report_json(spec.campaign_seed, &reference.results, &REPORT_AXES).render();
    assert_eq!(
        partial.report_so_far, expected_partial,
        "salvaged report bytes diverged from a local run of the salvaged range"
    );
}
