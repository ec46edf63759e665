//! The adaptive-controller smoke: a small campaign grid driven as
//! sequential-sampling control rounds over two self-hosted `serve`
//! shards — cells stop early once their CI95 half-width is inside the
//! policy threshold, and the freed replicate budget flows to the
//! noisiest open cells; every round's ranged sub-specs run through a
//! [`ShardedExecutor`] split evenly across the two shards. The
//! resulting report must be **byte-identical** to the single-threaded
//! in-process oracle. CI runs
//! this as the adaptive smoke (`scripts/ci.sh`); it finishes in about a
//! second.
//!
//! ```text
//! cargo run --release --example adaptive_campaign
//! ```

use chunkpoint::adaptive::{AdaptiveController, AdaptivePolicy};
use chunkpoint::campaign::{CampaignSpec, SchemeSpec};
use chunkpoint::core::{MitigationScheme, SystemConfig};
use chunkpoint::exec::{LocalExecutor, ShardedExecutor};
use chunkpoint::workloads::Benchmark;
use chunkpoint_bench::harness::Backends;

fn main() {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    let spec = CampaignSpec::new(config, 0xADA_E6)
        .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .error_rates(&[1e-6, 1e-5])
        .replicates(6);

    // Stop a cell once its CI95 half-width is within 90% of its mean —
    // loose on purpose, so the smoke demonstrably saves replicates —
    // but never below 2 replicates, in rounds of 2.
    let policy = AdaptivePolicy::new()
        .min_replicates(2)
        .round_replicates(2)
        .rel_ci(0.9);

    // The oracle every executor must match byte for byte.
    let oracle = AdaptiveController::new(LocalExecutor::new(1), policy.clone())
        .run(&spec)
        .expect("local adaptive oracle");

    // The same (spec, policy) over two serve shards.
    let shards = Backends::start(2, 1, 1);
    let executor = ShardedExecutor::new(shards.addrs.clone());
    let run = AdaptiveController::new(executor, policy)
        .run(&spec)
        .expect("sharded adaptive run");

    println!(
        "adaptive: {} of {} scenarios over {} rounds ({} saved) in {:.2?}",
        run.executed,
        run.budget,
        run.rounds,
        run.budget - run.executed,
        run.elapsed
    );
    for outcome in &run.cells {
        println!(
            "  cell {} [{}]: {} replicates, round {}, ci95 {:.3e}{}",
            outcome.cell,
            outcome.key,
            outcome.stop.replicates,
            outcome.stop.round,
            outcome.stop.ci95,
            if outcome.stop.converged {
                " (converged)"
            } else {
                ""
            }
        );
    }

    assert!(
        run.executed < run.budget,
        "loose threshold must stop early: executed {} of {}",
        run.executed,
        run.budget
    );
    assert!(
        run.cells.iter().any(|c| c.stop.converged),
        "no cell converged"
    );
    assert!(run.report.contains("\"adaptive\""));
    assert_eq!(
        run.report, oracle.report,
        "sharded adaptive bytes diverged from the local oracle"
    );
    println!("adaptive parity OK (sharded report byte-identical to the local oracle)");
}
