//! Result-cache payoff measurement, emitting `BENCH_cache.json`: how
//! much wall time the range-granular cache and spec-diffing incremental
//! campaigns save against a full clean re-run.
//!
//! Starts two in-process `chunkpoint_serve` instances on ephemeral
//! ports and measures four figures over real TCP:
//!
//! * `cold` — a sharded run of the grid with an empty cache (pays the
//!   cache's write-back on top of normal dispatch);
//! * `warm` — the identical spec re-run over the sealed cache (pure
//!   splice, zero dispatches);
//! * `full rerun` — one axis value edited, re-run **without** the
//!   cache (the status quo this PR replaces);
//! * `incremental` — the same edit re-run through the spec diff + cache
//!   (only the changed cells execute).
//!
//! Run with `cargo run --release -p chunkpoint_bench --bin bench_cache`.
//! `--smoke` shrinks the grid for CI; `--json PATH` overrides the
//! output path.

use std::time::Instant;

use chunkpoint_campaign::{
    canonical_report_json, diff_specs, pool::default_threads, run_campaign, translate_rows,
    CampaignArgs, CampaignSpec, JsonValue, SchemeSpec,
};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_serve::server::{ServeConfig, Server};
use chunkpoint_serve::REPORT_AXES;
use chunkpoint_shard::{exchange, run_sharded, RangeCache, ShardConfig};
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
    let args = CampaignArgs::parse_or_exit(1, 0xCAC4E);
    // One of four rate-axis values is edited, so the incremental path
    // re-executes a quarter of the grid; the non-smoke scale makes
    // scenario execution (not dispatch/poll overhead) the cost being
    // saved.
    let (scale, replicates) = if args.smoke { (0.25, 2) } else { (1.0, 6) };
    let old_rates = [1e-7, 1e-6, 1e-5, 1e-4];
    let new_rates = [1e-7, 1e-6, 1e-5, 2e-4];
    let old_spec = grid_spec(args.seed, scale, replicates, &old_rates);
    let new_spec = grid_spec(args.seed, scale, replicates, &new_rates);
    let scenarios = old_spec.scenarios().len();

    let cache_root =
        std::env::temp_dir().join(format!("chunkpoint_bench_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_root);

    let mut backends = Vec::new();
    let mut data_dirs = Vec::new();
    for k in 0..2 {
        let data_dir =
            std::env::temp_dir().join(format!("chunkpoint_bench_cache_{}_{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_dir);
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            data_dir: data_dir.clone(),
            max_jobs: 1,
            campaign_threads: 1,
            max_queued: 0,
            trace_out: None,
        })
        .expect("bind backend");
        let addr = server.local_addr().expect("addr").to_string();
        std::thread::spawn(move || server.run());
        backends.push(addr);
        data_dirs.push(data_dir);
    }
    println!(
        "bench_cache: {scenarios}-scenario grid across {} backends ({})",
        backends.len(),
        backends.join(", ")
    );

    let cached_config = ShardConfig {
        cache_dir: Some(cache_root.clone()),
        ..ShardConfig::default()
    };
    let plain_config = ShardConfig::default();

    // Cold: first run of the original spec, sealing the cache.
    let start = Instant::now();
    let cold = run_sharded(&old_spec, &backends, &cached_config).expect("cold run");
    let cold_secs = start.elapsed().as_secs_f64();
    assert_eq!(cold.spliced, 0, "a cold cache cannot splice");

    // Warm: the identical spec again — a pure splice, zero dispatches.
    let start = Instant::now();
    let warm = run_sharded(&old_spec, &backends, &cached_config).expect("warm run");
    let warm_secs = start.elapsed().as_secs_f64();
    assert_eq!(warm.report, cold.report, "warm bytes diverged");
    assert_eq!(warm.dispatches, 0, "warm cache still dispatched");

    // Full rerun: one axis value edited, no cache — the status quo.
    let start = Instant::now();
    let full = run_sharded(&new_spec, &backends, &plain_config).expect("full rerun");
    let full_secs = start.elapsed().as_secs_f64();

    // Incremental: diff the specs, seed the edited spec's cache with the
    // translated unchanged rows (what `shard --baseline` does), re-run.
    let cache = RangeCache::new(&cache_root);
    let start = Instant::now();
    let old_rows: Vec<_> = cache
        .load(&old_spec, &old_spec.scenarios())
        .into_values()
        .collect();
    let translated = translate_rows(&old_spec, &new_spec, &old_rows);
    cache
        .store_scattered(&new_spec, &translated)
        .expect("seed cache from baseline");
    let incremental = run_sharded(&new_spec, &backends, &cached_config).expect("incremental run");
    let incremental_secs = start.elapsed().as_secs_f64();
    let diff = diff_specs(&old_spec, &new_spec);
    assert_eq!(incremental.spliced, diff.reused(), "splice != diff reuse");

    // Byte identity: the incremental report must match a clean
    // in-process run of the edited spec exactly.
    let reference = run_campaign(&new_spec, 1);
    let expected =
        canonical_report_json(new_spec.campaign_seed, &reference.results, &REPORT_AXES).render();
    let identical = incremental.report == expected && full.report == expected;
    assert!(identical, "incremental report diverged from a clean run");

    let speedup = full_secs / incremental_secs.max(1e-9);
    println!(
        "cold (seal):     {cold_secs:>8.3} s ({} dispatches)",
        cold.dispatches
    );
    println!(
        "warm (splice):   {warm_secs:>8.3} s ({} rows spliced)",
        warm.spliced
    );
    println!(
        "full rerun:      {full_secs:>8.3} s ({} dispatches)",
        full.dispatches
    );
    println!(
        "incremental:     {incremental_secs:>8.3} s ({} spliced, {} changed, {speedup:.1}x vs full)",
        incremental.spliced, diff.changed
    );

    let doc = JsonValue::object()
        .field("bench", "range_cache_incremental_campaigns")
        .field("cpus_available", default_threads())
        .field("scenarios", scenarios)
        .field("backends", backends.len())
        .field("cold_secs", cold_secs)
        .field("warm_splice_secs", warm_secs)
        .field("full_rerun_secs", full_secs)
        .field("incremental_secs", incremental_secs)
        .field("rows_reused", diff.reused())
        .field("rows_changed", diff.changed)
        .field("incremental_speedup_vs_full", speedup)
        .field("byte_identical", identical)
        .field(
            "note",
            "two in-process serve backends (1 job x 1 worker each); one error-rate value \
             edited between the baseline and the re-run; incremental = spec diff + cache \
             seed + sharded run of the changed cells only",
        );

    if args.smoke {
        println!("smoke run: cache paths exercised");
        if let Some(path) = &args.json {
            std::fs::write(path, doc.render() + "\n").expect("write json report");
            println!("wrote {path}");
        }
    } else {
        let path = args.json.as_deref().unwrap_or("BENCH_cache.json");
        std::fs::write(path, doc.render() + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }

    for addr in &backends {
        let _ = exchange(
            addr,
            "POST",
            "/shutdown",
            None,
            std::time::Duration::from_secs(5),
        );
    }
    for dir in &data_dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_dir_all(&cache_root);
}
