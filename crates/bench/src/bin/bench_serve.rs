//! Campaign-service throughput, written to `BENCH_serve.json` so
//! successive PRs have a comparable requests/second trajectory.
//!
//! Starts an in-process `chunkpoint_serve` server on an ephemeral port
//! and times four request classes over real TCP connections (one
//! request per connection, as the service speaks it):
//!
//! * `healthz` — the protocol floor: parse + route + respond;
//! * `cache hit` — `POST /campaigns` re-submitting one finished spec
//!   (the content-addressed fast path the result cache exists for);
//! * `concurrent cache hit` — the same cache-hit request from several
//!   client threads at once (the accept-per-connection loop and the
//!   lock-free metrics hot path under contention);
//! * `spec submission` — `POST /campaigns` with *unique* one-scenario
//!   specs, new ones every round (each request hashes the spec,
//!   persists a job dir, enqueues). The round then waits for the queue
//!   to drain, so every round starts on an idle service.
//!
//! Run with `cargo run --release -p chunkpoint_bench --bin bench_serve`
//! (`--smoke` for CI).

use std::time::Duration;

use chunkpoint_bench::harness::{tiny_spec, Backends, Bench};
use chunkpoint_campaign::JsonValue;
use chunkpoint_shard::exchange;

/// Deadline of each HTTP exchange with the service.
const TIMEOUT: Duration = Duration::from_secs(30);
/// Client threads of the concurrent cache-hit figure.
const CLIENTS: usize = 4;

/// Submits `body` and checks the status; returns the response body.
fn submit(addr: &str, body: &str, status: u16) -> String {
    let (got, response) =
        exchange(addr, "POST", "/campaigns", Some(body), TIMEOUT).expect("submit");
    assert_eq!(got, status, "{response}");
    response
}

fn main() {
    let bench = Bench::new("serve", 1, 0xBE9C);
    let args = &bench.args;
    let (healthz_n, submit_n, cache_n): (usize, usize, usize) = if args.smoke {
        (50, 10, 50)
    } else {
        (500, 100, 500)
    };
    let per_client = cache_n / CLIENTS;
    let backends = Backends::start(1, 2, args.threads);
    let addr = backends.addrs[0].as_str();
    println!("bench_serve: service on {addr} ({submit_n} submissions, {cache_n} cache hits)");

    // Finish one spec, so resubmitting it takes the cache-hit path.
    let warm = tiny_spec(args.seed).to_json().render();
    submit(addr, &warm, 202);
    backends.wait_idle();

    let cache_hits = |n: usize| {
        for _ in 0..n {
            let response = submit(addr, &warm, 200);
            assert!(response.contains("\"cached\":true"), "{response}");
        }
    };
    let figures = bench.run(|round| {
        round.rate("healthz_rps", healthz_n as f64, || {
            for _ in 0..healthz_n {
                let (status, _) =
                    exchange(addr, "GET", "/healthz", None, TIMEOUT).expect("healthz");
                assert_eq!(status, 200);
            }
        });
        round.rate("cache_hit_rps", cache_n as f64, || cache_hits(cache_n));
        let concurrent = (CLIENTS * per_client) as f64;
        round.rate("concurrent_cache_hit_rps", concurrent, || {
            std::thread::scope(|scope| {
                for _ in 0..CLIENTS {
                    scope.spawn(|| cache_hits(per_client));
                }
            });
        });
        let first = args.seed + 1 + (round.index() * submit_n) as u64;
        round.rate("submit_rps", submit_n as f64, || {
            for seed in first..first + submit_n as u64 {
                submit(addr, &tiny_spec(seed).to_json().render(), 202);
            }
        });
        backends.wait_idle();
    });

    let fields = JsonValue::object()
        .field(
            "requests",
            JsonValue::object()
                .field("healthz", healthz_n)
                .field("submit", submit_n)
                .field("cache_hit", cache_n)
                .field("concurrent_cache_hit", CLIENTS * per_client),
        )
        .field("concurrent_clients", CLIENTS)
        .field(
            "note",
            "sequential requests, one TCP connection each; submit = unique one-scenario \
             specs (hash + persist + enqueue), cache_hit = resubmit of a finished spec, \
             concurrent_cache_hit = the same resubmit from 4 client threads at once",
        );
    bench.write(fields, &figures);
}
