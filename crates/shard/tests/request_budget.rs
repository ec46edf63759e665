//! The coordinator's request budget on two real `serve` processes: a
//! fresh two-shard campaign submits each shard once, waits on each with
//! one status request, fetches each journal once, and sends nothing
//! after the last shard seals — counted by the backends' own
//! `serve_requests_total`.

use std::time::Duration;

use chunkpoint_campaign::{canonical_report_json, run_campaign, CampaignSpec, SchemeSpec};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_serve::REPORT_AXES;
use chunkpoint_shard::{exchange, run_sharded, ShardConfig};
use chunkpoint_workloads::Benchmark;

#[path = "../../serve/tests/support/serve_process.rs"]
mod serve_process;
use serve_process::ServeProcess;

const TIMEOUT: Duration = Duration::from_secs(10);

/// The campaign endpoints a sharded run may touch.
const ENDPOINTS: [&str; 5] = ["submit", "status", "journal", "result", "delete"];

/// `serve_requests_total` of each endpoint in [`ENDPOINTS`], scraped
/// from the backend's `/metrics`.
fn requests(addr: &str) -> Vec<u64> {
    let (status, text) = exchange(addr, "GET", "/metrics", None, TIMEOUT).expect("scrape");
    assert_eq!(status, 200);
    ENDPOINTS
        .iter()
        .map(|endpoint| {
            let series = format!("serve_requests_total{{endpoint=\"{endpoint}\"}} ");
            text.lines()
                .find_map(|line| line.strip_prefix(series.as_str()))
                .and_then(|value| value.trim().parse().ok())
                .unwrap_or_else(|| panic!("no {series} in the scrape"))
        })
        .collect()
}

#[test]
fn fresh_two_shard_campaign_sends_one_submit_status_and_journal_per_shard() {
    let backends = [
        ServeProcess::start("budget_a"),
        ServeProcess::start("budget_b"),
    ];
    let addrs: Vec<String> = backends.iter().map(|b| b.addr.clone()).collect();
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    let spec = CampaignSpec::new(config, 0xB0D6)
        .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .replicates(2)
        .normalize(false)
        .golden_check(false);
    let reference = run_campaign(&spec, 1);
    let expected =
        canonical_report_json(spec.campaign_seed, &reference.results, &REPORT_AXES).render();

    let before: Vec<Vec<u64>> = addrs.iter().map(|addr| requests(addr)).collect();
    // A wait bound far past the jobs' run time: each status request is
    // answered by its job finishing, never by the bound.
    let run = run_sharded(
        &spec,
        &addrs,
        &ShardConfig {
            poll_interval: Duration::from_secs(5),
            ..ShardConfig::default()
        },
    )
    .expect("sharded run");
    let after: Vec<Vec<u64>> = addrs.iter().map(|addr| requests(addr)).collect();

    assert_eq!(run.report, expected, "sharded bytes diverged");
    assert_eq!((run.shards, run.dispatches, run.failures), (2, 2, 0));
    for (k, addr) in addrs.iter().enumerate() {
        let moved: Vec<u64> = after[k]
            .iter()
            .zip(&before[k])
            .map(|(a, b)| a - b)
            .collect();
        assert_eq!(
            moved,
            vec![1, 1, 1, 0, 0],
            "backend {addr}: requests per endpoint {ENDPOINTS:?}"
        );
    }
    for backend in &backends {
        backend.shutdown();
    }
}
