//! Chaos throughput, written to `BENCH_chaos.json` so successive PRs
//! have a comparable view of what fault injection costs: spec-submission
//! throughput through a [`chunkpoint_chaos::ChaosProxy`] at 0 % / 10 % /
//! 30 % fault rates, plus the shard layer's default circuit-breaker
//! cooldown schedule (the deterministic ladder a dying backend walks
//! before being declared dead).
//!
//! Every fault is drawn from a seeded [`FaultPlan`], and each round
//! starts a fresh proxy per rate, so a given rate injects the *same*
//! refusals, truncations, and stalls in every round — the numbers move
//! only when the code does. Each round submits specs of its own and
//! then waits for the backend to drain.
//!
//! Run with `cargo run --release -p chunkpoint_bench --bin bench_chaos`
//! (`--smoke` for CI).

use std::time::Duration;

use chunkpoint_bench::harness::{tiny_spec, Backends, Bench};
use chunkpoint_campaign::JsonValue;
use chunkpoint_chaos::{ChaosProxy, FaultPlan};
use chunkpoint_shard::{exchange, Backoff, ShardConfig};

const TIMEOUT: Duration = Duration::from_secs(10);

/// Submits one spec through the proxy, retrying transport failures and
/// retryable statuses up to the strike budget. Returns the attempts the
/// submission took (1 = clean first try).
fn submit_with_strikes(addr: &str, body: &str, strikes: u64) -> u64 {
    let mut last = String::new();
    for attempt in 1..=strikes.max(1) {
        match exchange(addr, "POST", "/campaigns", Some(body), TIMEOUT) {
            Ok((200 | 202, _)) => return attempt,
            Ok((status @ (408 | 429 | 500..), response)) => last = format!("{status} {response}"),
            Ok((status, response)) => panic!("submit rejected outright: {status} {response}"),
            Err(error) => last = error.to_string(),
        }
    }
    panic!("submission outlived its strike budget ({strikes}): {last}");
}

fn main() {
    let bench = Bench::new("chaos", 1, 0xC4A0);
    let args = &bench.args;
    let submit_n: u64 = if args.smoke { 8 } else { 40 };
    let backends = Backends::start(1, 2, args.threads);
    let upstream = &backends.addrs[0];
    println!("bench_chaos: service on {upstream} ({submit_n} submissions per rate)");

    let mut rates = Vec::new();
    let figures = bench.run(|round| {
        rates.clear();
        for (index, rate) in [0.0, 0.10, 0.30].into_iter().enumerate() {
            let plan = FaultPlan::new(args.seed ^ (index as u64 + 1), rate);
            // Sequential submissions: total connections are bounded by
            // n * strikes, so a fault-run scan over a generous window
            // yields a strike budget that outlasts any streak.
            let strikes = plan.max_fault_run(8_192) + 2;
            let mut proxy = ChaosProxy::start(upstream, plan).expect("start proxy");
            let first = args.seed + 1 + index as u64 * 10_000 + round.index() as u64 * submit_n;
            let name = format!("fault_{:.0}pct.submit_rps", rate * 100.0);
            let attempts: u64 = round.rate(&name, submit_n as f64, || {
                (first..first + submit_n)
                    .map(|seed| {
                        let body = tiny_spec(seed).to_json().render();
                        submit_with_strikes(&proxy.addr(), &body, strikes)
                    })
                    .sum()
            });
            rates.push(
                JsonValue::object()
                    .field("fault_rate", rate)
                    .field("connections", proxy.connections())
                    .field("faults_injected", proxy.faults())
                    .field("attempts", attempts)
                    .field("strike_budget", strikes),
            );
            proxy.shutdown();
        }
        backends.wait_idle();
    });

    // The shard layer's default breaker ladder (backend 0's jitter
    // lane): the cooldown after the 1st, 2nd, ... consecutive open.
    let config = ShardConfig::default();
    let backoff = Backoff::new(
        config.breaker_cooldown,
        config.breaker_max,
        config.backoff_seed,
    );
    let ladder: Vec<u64> = (0..8)
        .map(|step| backoff.delay(step).as_millis() as u64)
        .collect();
    println!("breaker cooldown ladder (ms): {ladder:?}");

    let fields = JsonValue::object()
        .field("submissions_per_rate", submit_n)
        .field("rates", JsonValue::from(rates))
        .field(
            "breaker_cooldown_ms",
            JsonValue::from(ladder.into_iter().map(JsonValue::from).collect::<Vec<_>>()),
        )
        .field(
            "note",
            "sequential unique-spec submissions through a seeded fault-injecting proxy; \
             strike budget = max_fault_run + 2 so every run completes deterministically; \
             breaker ladder = ShardConfig::default()'s cooldown, cap and seed",
        );
    bench.write(fields, &figures);
}
