//! Shard-coordinator throughput measurement, emitting `BENCH_shard.json`
//! so successive PRs have a comparable cross-backend trajectory (the
//! sharding counterpart of `BENCH_serve.json`).
//!
//! Starts two in-process `chunkpoint_serve` instances on ephemeral ports
//! and measures three figures over real TCP:
//!
//! * `unsharded` — the same grid run in-process single-threaded (the
//!   baseline the byte-identity is checked against);
//! * `sharded 2x` — the coordinator splitting the grid across both
//!   backends (dispatch + waiting status + journal fetch + merge
//!   included);
//! * `merge` — the journal-merge path alone, rows/second (the
//!   coordinator-side cost that grows with grid size).
//!
//! Run with `cargo run --release -p chunkpoint_bench --bin bench_shard`.
//! `--smoke` shrinks the grid for CI; `--json PATH` overrides the output
//! path. On a 1-CPU container the sharded figure is bounded by the host
//! (two backends share one core) — regenerate on wider machines.

use std::time::Instant;

use chunkpoint_campaign::{
    canonical_report_json, pool::default_threads, run_campaign, CampaignArgs, CampaignSpec,
    JsonValue, SchemeSpec,
};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_serve::server::{ServeConfig, Server};
use chunkpoint_serve::REPORT_AXES;
use chunkpoint_shard::{exchange, merged_report, run_sharded, ShardConfig};
use chunkpoint_workloads::Benchmark;

fn grid_spec(seed: u64, replicates: u64) -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    CampaignSpec::new(config, seed)
        .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
        .replicates(replicates)
}

fn main() {
    let args = CampaignArgs::parse_or_exit(1, 0x54A2D);
    let replicates = if args.smoke { 3 } else { 25 };
    let spec = grid_spec(args.seed, replicates);
    let scenarios = spec.scenarios().len();

    // Two in-process backends on ephemeral ports, one campaign job and
    // one worker each — the shape the CI smoke and the cross-process
    // tests use.
    let mut backends = Vec::new();
    let mut data_dirs = Vec::new();
    for k in 0..2 {
        let data_dir =
            std::env::temp_dir().join(format!("chunkpoint_bench_shard_{}_{k}", std::process::id()));
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
        "bench_shard: {scenarios}-scenario grid across {} backends ({})",
        backends.len(),
        backends.join(", ")
    );

    // Baseline: the unsharded single-threaded run (also the byte oracle).
    let start = Instant::now();
    let reference = run_campaign(&spec, 1);
    let unsharded_secs = start.elapsed().as_secs_f64();
    let expected =
        canonical_report_json(spec.campaign_seed, &reference.results, &REPORT_AXES).render();

    // Sharded end-to-end on the default config: dispatch, waiting
    // status, journal fetch, merge.
    let config = ShardConfig::default();
    let start = Instant::now();
    let run = run_sharded(&spec, &backends, &config).expect("sharded run");
    let sharded_secs = start.elapsed().as_secs_f64();
    let identical = run.report == expected;
    assert!(identical, "sharded report diverged from the unsharded run");

    // Merge alone: rows/second over the already-fetched result rows.
    let merge_rounds = if args.smoke { 20 } else { 200 };
    let start = Instant::now();
    for _ in 0..merge_rounds {
        let (_, rows) =
            merged_report(spec.campaign_seed, scenarios, run.results.clone()).expect("merge");
        std::hint::black_box(rows);
    }
    let merge_rows_per_sec =
        (merge_rounds * scenarios) as f64 / start.elapsed().as_secs_f64().max(1e-9);

    let unsharded_sps = scenarios as f64 / unsharded_secs.max(1e-9);
    let sharded_sps = scenarios as f64 / sharded_secs.max(1e-9);
    println!("unsharded:   {unsharded_sps:>9.1} scenarios/s (1 thread, in-process)");
    println!(
        "sharded 2x:  {sharded_sps:>9.1} scenarios/s ({} dispatches, byte-identical: {identical})",
        run.dispatches
    );
    println!("merge:       {merge_rows_per_sec:>9.0} rows/s");

    let doc = JsonValue::object()
        .field("bench", "shard_coordinator_throughput")
        .field("cpus_available", default_threads())
        .field("scenarios", scenarios)
        .field("backends", backends.len())
        .field("unsharded_scenarios_per_sec", unsharded_sps)
        .field("sharded_2x_scenarios_per_sec", sharded_sps)
        .field("merge_rows_per_sec", merge_rows_per_sec)
        .field("byte_identical", identical)
        .field(
            "note",
            "two in-process serve backends (1 job x 1 worker each) on ephemeral ports; \
             sharded figure includes dispatch, waiting status requests, journal fetch and merge; \
             wall speedup is bounded by cpus_available",
        );

    if args.smoke {
        println!("smoke run: shard paths exercised");
        if let Some(path) = &args.json {
            std::fs::write(path, doc.render() + "\n").expect("write json report");
            println!("wrote {path}");
        }
    } else {
        let path = args.json.as_deref().unwrap_or("BENCH_shard.json");
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
}
