//! Campaign-service walkthrough through the **unified executor API**:
//! submit a λ-sweep spec to a `serve` instance with a one-backend
//! [`chunkpoint::exec::ShardedExecutor`], stream its typed progress
//! events, and print the aggregate table — no hand-rolled HTTP loop;
//! the executor drives the typed shard client underneath.
//!
//! By default the example starts its own service in-process on an
//! ephemeral port (so it is self-contained); point it at a running
//! service instead with `--addr HOST:PORT`:
//!
//! ```text
//! cargo run --release --example serve_client [-- --addr 127.0.0.1:8077]
//! ```
//!
//! Submitting the same spec twice demonstrates the content-addressed
//! result cache: the second run answers from the backend's cache
//! without simulating anything — through the very same executor calls.

use std::time::Instant;

use chunkpoint::campaign::{Axis, CampaignSpec, SchemeSpec};
use chunkpoint::core::{MitigationScheme, SystemConfig};
use chunkpoint::exec::{CampaignEvent, CampaignExecutor, LiveAggregates, ShardedExecutor};
use chunkpoint::workloads::Benchmark;
use chunkpoint_bench::harness::Backends;
use chunkpoint_bench::report::Table;

/// The λ sweep: three decades around the paper's worst case.
const RATES: [f64; 3] = [1e-7, 1e-6, 1e-5];

fn sweep_spec() -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.5; // half-length frames keep the example snappy
    CampaignSpec::new(config, 0x5E44E)
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
        .replicates(5)
}

fn main() {
    // --addr HOST:PORT targets an external service; otherwise start one
    // in-process on an ephemeral port.
    let mut args = std::env::args().skip(1);
    let mut external: Option<String> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => external = Some(args.next().expect("--addr requires HOST:PORT")),
            other => {
                eprintln!("unknown flag {other}; usage: serve_client [--addr HOST:PORT]");
                std::process::exit(2);
            }
        }
    }
    // The in-process service shuts down and removes its data on drop.
    let (addr, _local) = match external {
        Some(addr) => (addr, None),
        None => {
            let local = Backends::start(1, 1, 0);
            println!("started in-process service on {}", local.addrs[0]);
            (local.addrs[0].clone(), Some(local))
        }
    };

    // Submit the sweep through the executor API and observe it live.
    let spec = sweep_spec();
    let executor = ShardedExecutor::new(vec![addr.clone()]);
    let started = Instant::now();
    let handle = executor.submit(&spec);
    let mut live = LiveAggregates::new(&[Axis::Scheme, Axis::ErrorRate]);
    for event in handle.events() {
        match &event {
            CampaignEvent::Progress { done, total } => {
                println!("  progress: {done}/{total} scenarios");
            }
            CampaignEvent::Complete => println!("  complete"),
            _ => {}
        }
        live.observe(&event);
    }
    let run = handle.wait().expect("remote campaign");
    println!(
        "done: {} scenarios in {:.2?} ({} dispatch(es))",
        run.scenarios,
        started.elapsed(),
        run.dispatches
    );

    // The executor already validated and ordered the rows; aggregate
    // them into the scheme × λ table.
    let cells = live.groups();
    let table = Table::new(10, 14);
    println!();
    table.header(
        "scheme",
        &[
            "lambda".to_owned(),
            "energy ratio".to_owned(),
            "±95% CI".to_owned(),
            "correct".to_owned(),
        ],
    );
    for scheme in ["SW-based", "Proposed"] {
        for rate in RATES {
            let stats = cells
                .get(&[scheme, &format!("{rate:e}")])
                .expect("aggregate cell");
            table.row(
                scheme,
                &[
                    format!("{rate:>.0e}"),
                    format!("{:.3}", stats.energy_ratio.mean()),
                    format!("{:.3}", stats.energy_ratio.ci95_half_width()),
                    format!("{}/{}", stats.correct, stats.n),
                ],
            );
        }
    }

    // Same spec again: the backend's content-addressed cache answers
    // without re-simulating — same API, same bytes, a fraction of the
    // time.
    let resubmit = Instant::now();
    let cached = executor.submit(&spec).wait().expect("cached campaign");
    assert_eq!(cached.report, run.report, "the cached resubmit diverged");
    println!();
    println!(
        "resubmit of the identical spec: byte-identical ✓, {:.2?}",
        resubmit.elapsed()
    );
}
