//! Campaign-engine throughput, written to `BENCH_campaign.json` so
//! successive PRs have a comparable scenarios/second trajectory.
//!
//! Runs a fixed evaluation grid at 1 / 2 / 4 / 8 worker threads, every
//! round timing each ladder point once, and checks that every thread
//! count renders the same canonical report bytes as a 1-thread run (the
//! engine's core guarantee). Wall-clock scaling is bounded by the
//! machine — the file records `cpus_available` — but the determinism
//! check is hardware-independent.
//!
//! Run with `cargo run --release -p chunkpoint_bench --bin
//! bench_campaign`. CI runs `--smoke --seeds 2 --threads 2`: the reduced
//! grid at 1 and 2 threads.

use chunkpoint_bench::harness::Bench;
use chunkpoint_campaign::{
    canonical_report_json, run_campaign, CampaignSpec, JsonValue, ScenarioResult, SchemeSpec,
};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_serve::REPORT_AXES;
use chunkpoint_workloads::Benchmark;

/// Thread counts of the scaling ladder.
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn grid(smoke: bool, seeds: u64, campaign_seed: u64) -> CampaignSpec {
    let config = SystemConfig::paper(campaign_seed);
    let benchmarks: &[Benchmark] = if smoke {
        &[Benchmark::AdpcmEncode]
    } else {
        &[
            Benchmark::AdpcmEncode,
            Benchmark::AdpcmDecode,
            Benchmark::G721Encode,
            Benchmark::G721Decode,
        ]
    };
    CampaignSpec::new(config, campaign_seed)
        .benchmarks(benchmarks)
        .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
        .scheme(
            "Proposed",
            SchemeSpec::Fixed(MitigationScheme::Hybrid {
                chunk_words: 16,
                l1_prime_t: 8,
            }),
        )
        .replicates(seeds)
}

fn report(spec: &CampaignSpec, results: &[ScenarioResult]) -> String {
    canonical_report_json(spec.campaign_seed, results, &REPORT_AXES).render()
}

fn main() {
    let bench = Bench::new("campaign", 12, 0xCA4A);
    let args = &bench.args;
    let spec = grid(args.smoke, args.seeds, args.seed);
    let scenarios = spec.scenarios().len();
    let mut ladder = if args.smoke {
        vec![1, args.threads.max(1)]
    } else {
        THREADS.to_vec()
    };
    ladder.dedup();
    let rate = |threads: usize| format!("threads_{threads}.scenarios_per_sec");
    println!("bench_campaign: {scenarios}-scenario grid at {ladder:?} threads");

    // Every ladder point must render the 1-thread report byte for byte.
    let reference = report(&spec, &run_campaign(&spec, 1).results);
    let mut figures = bench.run(|round| {
        for &threads in &ladder {
            let result = round.rate(&rate(threads), scenarios as f64, || {
                run_campaign(&spec, threads)
            });
            assert!(
                report(&spec, &result.results) == reference,
                "report bytes diverged at {threads} threads — determinism broken"
            );
        }
    });
    for &threads in &ladder[1..] {
        let speedup = format!("threads_{threads}.speedup_vs_1_thread");
        figures.ratio(&speedup, &rate(threads), &rate(1));
    }
    println!("canonical report bytes identical at every ladder point");

    let fields = JsonValue::object()
        .field("grid_scenarios", scenarios)
        .field("campaign_seed", args.seed)
        .field("seeds_per_cell", args.seeds)
        .field("deterministic_across_thread_counts", true)
        .field(
            "note",
            "canonical report bytes verified identical at every thread count; \
             wall-clock speedup is bounded by cpus_available",
        );
    bench.write(fields, &figures);
}
