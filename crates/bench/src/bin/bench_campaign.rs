//! Campaign-engine throughput measurement, emitting `BENCH_campaign.json`
//! so successive PRs have a comparable scenarios/second trajectory (the
//! campaign counterpart of `bench_ecc` / `BENCH_ecc.json`).
//!
//! Runs a fixed evaluation grid at 1 / 2 / 4 / 8 worker threads,
//! reporting the median throughput of several samples per thread count
//! and cross-checking that every thread count produced **bit-identical**
//! per-scenario results (the engine's core guarantee). Wall-clock
//! scaling is bounded by the machine — the JSON records
//! `cpus_available` so a single-core CI box reporting ~1x speedup is
//! interpretable — but the determinism check is hardware-independent.
//!
//! Run with `cargo run --release -p chunkpoint_bench --bin
//! bench_campaign`. `--smoke --seeds 2 --threads 2` runs the reduced CI
//! grid in a couple of seconds without touching `BENCH_campaign.json`
//! (unless `--json` is given).

use std::time::Instant;

use chunkpoint_campaign::{
    pool::default_threads, run_campaign, CampaignArgs, CampaignSpec, JsonValue, ScenarioResult,
    SchemeSpec,
};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_workloads::Benchmark;

/// Timed samples per thread count; the median is reported with the
/// min and max (shared machines are noisy, and the median is robust
/// against interference).
const SAMPLES: usize = 7;
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

fn fingerprint(results: &[ScenarioResult]) -> Vec<(u64, u64, u64, u64)> {
    results
        .iter()
        .map(|r| (r.energy_pj.to_bits(), r.cycles, r.rollbacks, r.restarts))
        .collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let args = CampaignArgs::parse_or_exit(12, 0xCA4A);
    let spec = grid(args.smoke, args.seeds, args.seed);
    let scenario_count = spec.scenarios().len();
    println!(
        "campaign throughput: {} scenarios/grid ({}), {} samples/thread-count",
        scenario_count,
        if args.smoke {
            "smoke grid"
        } else {
            "full grid"
        },
        SAMPLES
    );

    let ladder: Vec<usize> = if args.smoke {
        vec![1, args.threads.max(1)]
    } else {
        THREADS.to_vec()
    };

    // Reference fingerprint at 1 thread; every other count must match it.
    let reference = fingerprint(&run_campaign(&spec, 1).results);
    let mut rows = Vec::new();
    let mut base_rate = 0.0f64;
    for &threads in &ladder {
        let mut rates = Vec::with_capacity(SAMPLES);
        let mut elapsed = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let start = Instant::now();
            let result = run_campaign(&spec, threads);
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(
                fingerprint(&result.results),
                reference,
                "results diverged at {threads} threads — determinism broken"
            );
            rates.push(result.results.len() as f64 / secs);
            elapsed.push(secs);
        }
        let (min, max) = rates.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
            (lo.min(r), hi.max(r))
        });
        let rate = median(rates);
        if threads == 1 {
            base_rate = rate;
        }
        let speedup = if base_rate > 0.0 {
            rate / base_rate
        } else {
            1.0
        };
        println!(
            "{threads:>2} threads: {rate:>10.1} scenarios/s  (median of {SAMPLES}, \
             min {min:.1}, max {max:.1}; {speedup:.2}x vs 1 thread)"
        );
        rows.push(
            JsonValue::object()
                .field("threads", threads)
                .field("samples", SAMPLES)
                .field("scenarios_per_sec", rate)
                .field("scenarios_per_sec_min", min)
                .field("scenarios_per_sec_max", max)
                .field("elapsed_secs", median(elapsed))
                .field("speedup_vs_1_thread", speedup),
        );
    }

    let cpus = default_threads();
    let doc = JsonValue::object()
        .field("bench", "campaign_engine_throughput")
        .field("grid_scenarios", scenario_count)
        .field("campaign_seed", args.seed)
        .field("seeds_per_cell", args.seeds)
        .field("cpus_available", cpus)
        .field(
            "note",
            "per-scenario results verified bit-identical at every thread count; \
             wall-clock speedup is bounded by cpus_available",
        )
        .field("deterministic_across_thread_counts", true)
        .field("threads", JsonValue::Array(rows));

    if args.smoke {
        println!("smoke grid: determinism verified at every ladder point");
        if let Some(path) = &args.json {
            std::fs::write(path, doc.render() + "\n").expect("write json report");
            println!("wrote {path}");
        }
    } else {
        let path = args.json.as_deref().unwrap_or("BENCH_campaign.json");
        std::fs::write(path, doc.render() + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}
