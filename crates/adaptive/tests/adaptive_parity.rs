//! The acceptance test of the adaptive tentpole: the controller's
//! stop/reallocate decisions are pure functions of the sealed results,
//! so the same `(spec, policy)` must produce **byte-identical** adaptive
//! reports over every executor — in-process at any thread count, one
//! real remote `serve`, two-backend sharded — and keep producing them
//! after a backend is SIGKILLed mid-run and behind the deterministic
//! chaos proxy.

use std::cell::Cell;
use std::process::Command;
use std::time::Duration;

use chunkpoint_adaptive::{AdaptiveController, AdaptivePolicy, AdaptiveRun};
use chunkpoint_campaign::{CampaignSpec, SchemeSpec};
use chunkpoint_chaos::{ChaosProxy, FaultPlan};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_exec::{CampaignEvent, LocalExecutor, RemoteExecutor, ShardConfig, ShardedExecutor};
use chunkpoint_workloads::Benchmark;

#[path = "../../serve/tests/support/serve_process.rs"]
mod serve_process;
use serve_process::ServeProcess;

impl ServeProcess {
    /// Sends `signal` (e.g. `"-9"`) to the serve process.
    fn signal(&self, signal: &str) {
        let _ = Command::new("kill")
            .args([signal, &self.child.id().to_string()])
            .status();
    }
}

fn adaptive_spec(campaign_seed: u64) -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    CampaignSpec::new(config, campaign_seed)
        .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .error_rates(&[1e-6, 1e-5])
        .replicates(6)
}

/// A very loose relative threshold: cells stop at the n = 2 floor, so
/// early stopping is (practically) guaranteed and saves most of the
/// grid — the interesting regime for parity.
fn early_stop_policy() -> AdaptivePolicy {
    AdaptivePolicy::new()
        .min_replicates(2)
        .round_replicates(2)
        .rel_ci(0.9)
}

/// The oracle every path must match byte for byte: the same controller
/// over the single-threaded in-process executor.
fn expected_adaptive(spec: &CampaignSpec, policy: &AdaptivePolicy) -> AdaptiveRun {
    AdaptiveController::new(LocalExecutor::new(1), policy.clone())
        .run(spec)
        .expect("local adaptive oracle")
}

/// The headline: the same `(spec, policy)` through in-process (two
/// thread counts), remote, and sharded execution produces byte-identical
/// adaptive reports — with early stopping actually observed.
#[test]
fn three_executors_one_adaptive_report() {
    let spec = adaptive_spec(0xADA_901);
    let policy = early_stop_policy();
    let budget = spec.scenarios().len();
    let oracle = expected_adaptive(&spec, &policy);
    assert!(
        oracle.executed < oracle.budget,
        "loose threshold must stop early: executed {} of {}",
        oracle.executed,
        oracle.budget
    );
    assert_eq!(oracle.budget, budget);
    assert!(oracle.report.contains("\"adaptive\""));

    // In-process, more worker threads: arrival order changes, bytes
    // don't — and every cell reports exactly one stop decision.
    let stops = Cell::new(0usize);
    let threaded = AdaptiveController::new(LocalExecutor::new(4), policy.clone())
        .run_ctl(&spec, &chunkpoint_campaign::CancelToken::new(), |event| {
            if matches!(event, CampaignEvent::CellStopped { .. }) {
                stops.set(stops.get() + 1);
            }
        })
        .expect("threaded adaptive run");
    assert_eq!(threaded.report, oracle.report, "thread count leaked");
    assert_eq!(stops.get(), oracle.cells.len(), "one stop per cell");

    // Remote, against one real serve process.
    let backend = ServeProcess::start("remote");
    let remote_exec = RemoteExecutor::new(backend.addr.clone()).with_config(ShardConfig {
        poll_interval: Duration::from_millis(10),
        ..ShardConfig::default()
    });
    let remote = AdaptiveController::new(remote_exec, policy.clone())
        .run(&spec)
        .expect("remote adaptive run");
    assert_eq!(remote.report, oracle.report, "remote bytes diverged");
    assert!(remote.dispatches >= 1);
    backend.shutdown();

    // Sharded, across two real serve processes.
    let shard_a = ServeProcess::start("shard_a");
    let shard_b = ServeProcess::start("shard_b");
    let sharded_exec = ShardedExecutor::new(vec![shard_a.addr.clone(), shard_b.addr.clone()])
        .with_config(ShardConfig {
            poll_interval: Duration::from_millis(10),
            ..ShardConfig::default()
        });
    let sharded = AdaptiveController::new(sharded_exec, policy)
        .run(&spec)
        .expect("sharded adaptive run");
    assert_eq!(sharded.report, oracle.report, "sharded bytes diverged");
    assert_eq!(sharded.results, oracle.results);
    shard_a.shutdown();
    shard_b.shutdown();
}

/// SIGKILL one of two backends mid-run: the coordinator's strikes and
/// re-dispatch absorb the loss inside each sub-campaign, the controller
/// never notices, and the adaptive report bytes are unchanged.
#[test]
fn backend_sigkill_mid_run_keeps_the_bytes() {
    let spec = adaptive_spec(0xADA_902);
    // No thresholds: fixed-grid replicate count, several rounds — the
    // kill lands mid-campaign with work still outstanding.
    let policy = AdaptivePolicy::new().round_replicates(2);
    let oracle = expected_adaptive(&spec, &policy);
    assert_eq!(oracle.executed, oracle.budget, "threshold-free = full grid");

    let shard_a = ServeProcess::start("kill_a");
    let shard_b = ServeProcess::start("kill_b");
    let executor = ShardedExecutor::new(vec![shard_a.addr.clone(), shard_b.addr.clone()])
        .with_config(ShardConfig {
            poll_interval: Duration::from_millis(10),
            request_timeout: Duration::from_secs(2),
            ..ShardConfig::default()
        });
    let killed = Cell::new(false);
    let seen = Cell::new(0usize);
    let run = AdaptiveController::new(executor, policy)
        .run_ctl(&spec, &chunkpoint_campaign::CancelToken::new(), |event| {
            if matches!(event, CampaignEvent::ScenarioDone(_)) {
                seen.set(seen.get() + 1);
                if seen.get() == 3 && !killed.get() {
                    killed.set(true);
                    shard_b.signal("-9");
                }
            }
        })
        .expect("adaptive run through a SIGKILL");
    assert!(killed.get(), "the kill never happened");
    assert_eq!(run.report, oracle.report, "a dead backend changed bytes");
    assert_eq!(run.results, oracle.results);
    shard_a.shutdown();
}

/// The controller behind the deterministic chaos proxy: injected
/// connection faults are retried inside the executor plane; the
/// decisions — fed only by sealed rows — replay byte-identically.
#[test]
fn chaos_faults_leave_adaptive_bytes_identical() {
    let spec = adaptive_spec(0xADA_903);
    let policy = early_stop_policy();
    let oracle = expected_adaptive(&spec, &policy);

    let backend = ServeProcess::start("chaos");
    let plan = FaultPlan::new(0xC4A0, 0.35);
    #[allow(clippy::cast_possible_truncation)]
    let strikes = plan.max_fault_run(512) as u32 + 2;
    let config = ShardConfig {
        poll_interval: Duration::from_millis(10),
        request_timeout: Duration::from_secs(10),
        backend_strikes: strikes,
        shard_attempts: strikes.max(5),
        poll_max: Duration::from_millis(200),
        backoff_seed: plan.seed,
        ..ShardConfig::default()
    };
    let mut proxy = ChaosProxy::start(&backend.addr, plan).expect("start proxy");
    let run = AdaptiveController::new(
        RemoteExecutor::new(proxy.addr()).with_config(config),
        policy,
    )
    .run(&spec)
    .expect("adaptive run through chaos");
    assert_eq!(run.report, oracle.report, "chaos changed the bytes");
    assert!(proxy.faults() > 0, "the proxy never actually faulted");
    proxy.shutdown();
    backend.shutdown();
}
