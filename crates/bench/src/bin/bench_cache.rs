//! Result-cache payoff, written to `BENCH_cache.json`: how much wall
//! time the range-granular cache and spec-diffing incremental campaigns
//! save against a full clean re-run.
//!
//! Starts two in-process `chunkpoint_serve` instances on ephemeral
//! ports, and each round times four figures over real TCP:
//!
//! * `cold` — a sharded run of the grid with an empty cache (pays the
//!   cache's write-back on top of normal dispatch);
//! * `warm` — the identical spec re-run over the sealed cache (pure
//!   splice, zero dispatches);
//! * `full rerun` — one axis value edited, re-run **without** the
//!   cache;
//! * `incremental` — the same edit re-run through the spec diff + cache
//!   (only the changed cells execute).
//!
//! Each round uses a fresh campaign seed, so neither the cache nor the
//! backends' finished jobs answer for the previous round's work.
//!
//! Run with `cargo run --release -p chunkpoint_bench --bin bench_cache`
//! (`--smoke` for CI).

use chunkpoint_bench::harness::{Backends, Bench};
use chunkpoint_campaign::{
    canonical_report_json, diff_specs, run_campaign, translate_rows, CampaignSpec, JsonValue,
    SchemeSpec,
};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_serve::REPORT_AXES;
use chunkpoint_shard::{run_sharded, RangeCache, ShardConfig};
use chunkpoint_workloads::Benchmark;

fn grid_spec(seed: u64, scale: f64, replicates: u64, rates: &[f64]) -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = scale;
    CampaignSpec::new(config, seed)
        .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
        .error_rates(rates)
        .replicates(replicates)
}

fn main() {
    let bench = Bench::new("cache", 1, 0xCAC4E);
    let args = &bench.args;
    // One of four rate-axis values is edited, so the incremental path
    // re-executes a quarter of the grid; the non-smoke scale makes
    // scenario execution (not dispatch/poll overhead) the cost being
    // saved.
    let (scale, replicates) = if args.smoke { (0.25, 2) } else { (1.0, 6) };
    let specs = |seed| {
        (
            grid_spec(seed, scale, replicates, &[1e-7, 1e-6, 1e-5, 1e-4]),
            grid_spec(seed, scale, replicates, &[1e-7, 1e-6, 1e-5, 2e-4]),
        )
    };
    let scenarios = specs(args.seed).0.scenarios().len();
    let backends = Backends::start(2, 1, 1);
    let (addrs, cache_root) = (&backends.addrs, backends.scratch("cache"));
    println!("bench_cache: {scenarios}-scenario grid across {addrs:?}");
    let cached = ShardConfig {
        cache_dir: Some(cache_root.clone()),
        ..ShardConfig::default()
    };
    let plain = ShardConfig::default();
    let cache = RangeCache::new(&cache_root);

    let mut reuse = (0, 0);
    let mut figures = bench.run(|round| {
        let (old_spec, new_spec) = specs(args.seed + round.index() as u64);
        // Cold: first run of the original spec, sealing the cache.
        let cold = round.secs("cold_secs", || run_sharded(&old_spec, addrs, &cached));
        let cold = cold.expect("cold run");
        assert_eq!(cold.spliced, 0, "a cold cache cannot splice");
        // Warm: the identical spec again — a pure splice, zero dispatches.
        let warm = round.secs("warm_splice_secs", || {
            run_sharded(&old_spec, addrs, &cached)
        });
        let warm = warm.expect("warm run");
        assert_eq!(warm.report, cold.report, "warm bytes diverged");
        assert_eq!(warm.dispatches, 0, "warm cache still dispatched");
        // Full rerun: one axis value edited, no cache — the status quo.
        let full = round.secs("full_rerun_secs", || run_sharded(&new_spec, addrs, &plain));
        let full = full.expect("full rerun");
        // Incremental: diff the specs, seed the edited spec's cache with
        // the translated unchanged rows (what `shard --baseline` does),
        // re-run.
        let incremental = round.secs("incremental_secs", || {
            let old_rows = cache.load(&old_spec, &old_spec.scenarios());
            let old_rows: Vec<_> = old_rows.into_values().collect();
            let translated = translate_rows(&old_spec, &new_spec, &old_rows);
            let seeded = cache.store_scattered(&new_spec, &translated);
            seeded.expect("seed cache from baseline");
            run_sharded(&new_spec, addrs, &cached)
        });
        let incremental = incremental.expect("incremental run");
        let diff = diff_specs(&old_spec, &new_spec);
        assert_eq!(incremental.spliced, diff.reused(), "splice != diff reuse");
        reuse = (diff.reused(), diff.changed);

        // Byte identity: both re-runs must match a clean in-process run
        // of the edited spec exactly.
        let reference = run_campaign(&new_spec, 1);
        let expected =
            canonical_report_json(new_spec.campaign_seed, &reference.results, &REPORT_AXES);
        let expected = expected.render();
        assert!(
            incremental.report == expected && full.report == expected,
            "a re-run diverged from a clean run"
        );
    });
    figures.ratio(
        "incremental_speedup_vs_full",
        "full_rerun_secs",
        "incremental_secs",
    );

    let fields = JsonValue::object()
        .field("scenarios", scenarios)
        .field("backends", addrs.len())
        .field("rows_reused", reuse.0)
        .field("rows_changed", reuse.1)
        .field("byte_identical", true)
        .field(
            "note",
            "two in-process serve backends (1 job x 1 worker each); one error-rate value \
             edited between the baseline and the re-run; incremental = spec diff + cache \
             seed + sharded run of the changed cells only",
        );
    bench.write(fields, &figures);
}
