//! Sharded-campaign walkthrough through the **unified executor API**:
//! split one λ-sweep grid across **two** campaign services with
//! [`chunkpoint::exec::ShardedExecutor`], watch the typed dispatch and
//! completion events stream by, and verify the merged report is
//! byte-identical to a single-machine run.
//!
//! By default the example starts two services in-process on ephemeral
//! ports; point it at running services instead with repeated `--backend`
//! flags:
//!
//! ```text
//! cargo run --release --example shard_campaign \
//!     [-- --backend HOST:PORT --backend HOST:PORT]
//! ```

use chunkpoint::campaign::rows::REPORT_AXES;
use chunkpoint::campaign::{canonical_report_json, run_campaign, Axis, CampaignSpec, SchemeSpec};
use chunkpoint::core::{MitigationScheme, SystemConfig};
use chunkpoint::exec::{CampaignEvent, CampaignExecutor, LiveAggregates, ShardedExecutor};
use chunkpoint::workloads::Benchmark;
use chunkpoint_bench::harness::Backends;
use chunkpoint_bench::report::Table;

/// The λ sweep: three decades around the paper's worst case.
const RATES: [f64; 3] = [1e-7, 1e-6, 1e-5];

fn sweep_spec() -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25; // short frames keep the example snappy
    CampaignSpec::new(config, 0x5A4DED)
        .benchmarks(&[Benchmark::AdpcmDecode])
        .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
        .scheme(
            "Proposed",
            SchemeSpec::Fixed(MitigationScheme::Hybrid {
                chunk_words: 16,
                l1_prime_t: 8,
            }),
        )
        .error_rates(&RATES)
        .replicates(6)
}

fn main() {
    let mut backends: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--backend" => backends.push(args.next().expect("--backend requires HOST:PORT")),
            other => {
                eprintln!("unknown flag {other}; usage: shard_campaign [--backend HOST:PORT ...]");
                std::process::exit(2);
            }
        }
    }
    // In-process services shut down and remove their data on drop.
    let local = backends.is_empty().then(|| Backends::start(2, 1, 1));
    if let Some(local) = &local {
        for addr in &local.addrs {
            println!("started in-process service on {addr}");
        }
        backends.clone_from(&local.addrs);
    }

    let spec = sweep_spec();
    println!(
        "dispatching a {}-scenario grid across {} backends…",
        spec.scenarios().len(),
        backends.len()
    );
    let handle = ShardedExecutor::new(backends).submit(&spec);
    let mut live = LiveAggregates::new(&[Axis::Scheme, Axis::ErrorRate]);
    for event in handle.events() {
        // Narrate the coordinator's decisions; fold scenario rows into
        // the live aggregates quietly (a shard bursts its whole range
        // at once — per-row lines would just scroll).
        match &event {
            CampaignEvent::ScenarioDone(_) => {
                live.observe(&event);
            }
            CampaignEvent::Progress { .. } => {
                live.observe(&event);
                println!("  {}", live.line());
            }
            other => println!("  {other}"),
        }
    }
    let run = handle.wait().expect("sharded campaign");
    println!(
        "merged {} scenarios in {} dispatch(es), {} failure(s)",
        run.scenarios, run.dispatches, run.failures
    );

    // The whole point: the merged report is byte-identical to a
    // single-machine run.
    let reference = run_campaign(&spec, 1);
    let expected =
        canonical_report_json(spec.campaign_seed, &reference.results, &REPORT_AXES).render();
    assert_eq!(run.report, expected, "sharded bytes diverged");
    println!("byte-identical to the unsharded single-threaded run ✓");

    // The live aggregator's cells are the final report's cells: print
    // the scheme × λ sweep.
    let table = Table::new(10, 14);
    println!();
    table.header(
        "scheme",
        &[
            "lambda".to_owned(),
            "energy ratio".to_owned(),
            "±95% CI".to_owned(),
            "n".to_owned(),
        ],
    );
    for (key, stats) in live.groups().groups() {
        table.row(
            &key[0],
            &[
                key[1].clone(),
                format!("{:.3}", stats.energy_ratio.mean()),
                format!("{:.3}", stats.energy_ratio.ci95_half_width()),
                stats.n.to_string(),
            ],
        );
    }
}
