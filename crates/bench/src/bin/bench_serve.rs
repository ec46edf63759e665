//! Campaign-service throughput measurement, emitting `BENCH_serve.json`
//! so successive PRs have a comparable requests/second trajectory (the
//! service counterpart of `BENCH_campaign.json`).
//!
//! Starts an in-process `chunkpoint_serve` server on an ephemeral port
//! and measures three request classes over real TCP connections (one
//! request per connection, as the service speaks it):
//!
//! * `healthz` — the protocol floor: parse + route + respond;
//! * `spec submission` — `POST /campaigns` with *unique* one-scenario
//!   specs (each request hashes the spec, persists a job dir, enqueues);
//! * `cache hit` — `POST /campaigns` re-submitting one finished spec
//!   (the content-addressed fast path the result cache exists for);
//! * `concurrent cache hit` — the same cache-hit request from several
//!   client threads at once (the accept-per-connection loop and the
//!   lock-free metrics hot path under contention).
//!
//! Run with `cargo run --release -p chunkpoint_bench --bin bench_serve`.
//! `--smoke` shrinks the request counts for CI; `--json PATH` overrides
//! the output path.

use std::time::{Duration, Instant};

use chunkpoint_campaign::{
    pool::default_threads, CampaignArgs, CampaignSpec, JsonValue, SchemeSpec,
};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_serve::server::{ServeConfig, Server};
use chunkpoint_shard::exchange;
use chunkpoint_workloads::Benchmark;

/// Deadline of each HTTP exchange with the service.
const TIMEOUT: Duration = Duration::from_secs(30);

/// A one-scenario spec, unique per `campaign_seed` (distinct content
/// hash), cheap enough that the runner pool drains submissions fast.
fn tiny_spec(campaign_seed: u64) -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    CampaignSpec::new(config, campaign_seed)
        .benchmarks(&[Benchmark::AdpcmEncode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .normalize(false)
        .golden_check(false)
}

/// Requests/second over `n` sequential request closures.
fn measure(n: usize, mut one: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        one(i);
    }
    n as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn main() {
    let args = CampaignArgs::parse_or_exit(1, 0xBE9C);
    let (healthz_n, submit_n, cache_n) = if args.smoke {
        (50, 10, 50)
    } else {
        (500, 100, 500)
    };

    let data_dir =
        std::env::temp_dir().join(format!("chunkpoint_bench_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: data_dir.clone(),
        max_jobs: 2,
        campaign_threads: args.threads,
        max_queued: 0,
        trace_out: None,
    })
    .expect("bind server");
    let addr = server.local_addr().expect("addr").to_string();
    let addr = addr.as_str();
    let serving = std::thread::spawn(move || server.run());
    println!(
        "bench_serve: service on {addr} ({} submissions, {} cache hits)",
        submit_n, cache_n
    );

    // Protocol floor.
    let healthz_rps = measure(healthz_n, |_| {
        let (status, _) = exchange(addr, "GET", "/healthz", None, TIMEOUT).expect("healthz");
        assert_eq!(status, 200);
    });

    // Unique-spec submission: hash + persist + enqueue per request.
    let submit_rps = measure(submit_n, |i| {
        let body = tiny_spec(args.seed + 1 + i as u64).to_json().render();
        let (status, response) =
            exchange(addr, "POST", "/campaigns", Some(&body), TIMEOUT).expect("submit");
        assert_eq!(status, 202, "{response}");
    });

    // Warm one spec to completion, then hammer the cache-hit path.
    let warm = tiny_spec(args.seed);
    let warm_body = warm.to_json().render();
    let (status, response) =
        exchange(addr, "POST", "/campaigns", Some(&warm_body), TIMEOUT).expect("warm submit");
    assert_eq!(status, 202, "{response}");
    let warm_id = JsonValue::parse(&response)
        .expect("submit json")
        .get("id")
        .and_then(|v| v.as_str().map(str::to_owned))
        .expect("id");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status_path = format!("/campaigns/{warm_id}?wait_ms=5000");
        let (_, body) = exchange(addr, "GET", &status_path, None, TIMEOUT).expect("status");
        if body.contains("\"status\":\"done\"") {
            break;
        }
        assert!(
            body.contains("\"status\":\"queued\"") || body.contains("\"status\":\"running\""),
            "warm job went sideways: {body}"
        );
        assert!(Instant::now() < deadline, "warm job never finished");
    }
    let cache_hit_rps = measure(cache_n, |_| {
        let (status, response) =
            exchange(addr, "POST", "/campaigns", Some(&warm_body), TIMEOUT).expect("cache hit");
        assert_eq!(status, 200, "{response}");
        assert!(response.contains("\"cached\":true"), "{response}");
    });

    // Concurrent clients hammering the same cache-hit path: aggregate
    // throughput across all threads, wall-clock measured over the
    // whole burst.
    let clients = 4usize;
    let per_client = (cache_n / clients).max(1);
    let warm_ref = &warm_body;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(move || {
                for _ in 0..per_client {
                    let (status, response) =
                        exchange(addr, "POST", "/campaigns", Some(warm_ref), TIMEOUT)
                            .expect("cache hit");
                    assert_eq!(status, 200, "{response}");
                }
            });
        }
    });
    let concurrent_rps = (clients * per_client) as f64 / start.elapsed().as_secs_f64().max(1e-9);

    println!("healthz:        {healthz_rps:>9.0} req/s");
    println!("spec submit:    {submit_rps:>9.0} req/s (unique specs; persist + enqueue)");
    println!("cache hit:      {cache_hit_rps:>9.0} req/s (content-addressed resubmit)");
    println!("concurrent x{clients}: {concurrent_rps:>8.0} req/s (cache hits from {clients} client threads)");

    let doc = JsonValue::object()
        .field("bench", "campaign_service_throughput")
        .field("cpus_available", default_threads())
        .field(
            "requests",
            JsonValue::object()
                .field("healthz", healthz_n)
                .field("submit", submit_n)
                .field("cache_hit", cache_n)
                .field("concurrent_cache_hit", clients * per_client),
        )
        .field("healthz_rps", healthz_rps)
        .field("submit_rps", submit_rps)
        .field("cache_hit_rps", cache_hit_rps)
        .field("concurrent_clients", clients)
        .field("concurrent_cache_hit_rps", concurrent_rps)
        .field(
            "note",
            "sequential requests, one TCP connection each; submit = unique one-scenario \
             specs (hash + persist + enqueue), cache_hit = resubmit of a finished spec, \
             concurrent_cache_hit = the same resubmit from 4 client threads at once",
        );

    if args.smoke {
        println!("smoke run: service paths exercised");
        if let Some(path) = &args.json {
            std::fs::write(path, doc.render() + "\n").expect("write json report");
            println!("wrote {path}");
        }
    } else {
        let path = args.json.as_deref().unwrap_or("BENCH_serve.json");
        std::fs::write(path, doc.render() + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }

    let (_, _) = exchange(addr, "POST", "/shutdown", None, TIMEOUT).expect("shutdown");
    serving.join().expect("server drained");
    let _ = std::fs::remove_dir_all(&data_dir);
}
