//! The serve-side hardening satellites of the chaos work, proven
//! against real sockets: slow-loris requests die with a `408` inside
//! the phase deadline (never hold a handler hostage), and admission
//! control sheds new submissions past the queue bound with
//! `429 + Retry-After`, counting every shed in `/healthz`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use chunkpoint_campaign::{CampaignSpec, JsonValue, SchemeSpec};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_serve::http::read_request_within;
use chunkpoint_serve::server::{ServeConfig, Server};
use chunkpoint_shard::exchange;
use chunkpoint_workloads::Benchmark;

const TIMEOUT: Duration = Duration::from_secs(5);

/// Runs `read_request_within` with tight deadlines against whatever the
/// client closure dribbles in, returning the parse outcome's status
/// (`None` = a well-formed request got through).
fn parse_under_deadline(
    head_deadline: Duration,
    body_deadline: Duration,
    client: impl FnOnce(TcpStream) + Send + 'static,
) -> (Option<u16>, Duration) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let started = Instant::now();
        let outcome = read_request_within(&mut stream, head_deadline, body_deadline);
        let status = match outcome {
            Ok(Ok(_)) => None,
            Ok(Err(response)) => Some(response.status),
            Err(_) => Some(0), // socket died
        };
        tx.send((status, started.elapsed())).expect("report");
    });
    let stream = TcpStream::connect(addr).expect("connect");
    std::thread::spawn(move || client(stream));
    rx.recv_timeout(Duration::from_secs(30))
        .expect("parser must return, not hang")
}

/// A head dribbler: one byte every 50 ms, never reaching the head
/// terminator. The whole-phase deadline must cut it off with a `408` —
/// per-read timeouts alone would let this run for as long as the
/// attacker keeps dripping.
#[test]
fn slow_loris_head_times_out_with_408() {
    let deadline = Duration::from_millis(300);
    let (status, elapsed) = parse_under_deadline(deadline, deadline, |mut stream| {
        for byte in b"GET /healthz HTTP/1.1\r\nHost: victim\r\n" {
            if stream.write_all(&[*byte]).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        // Never send the terminating blank line; park on the socket.
        std::thread::sleep(Duration::from_secs(10));
    });
    assert_eq!(status, Some(408), "expected a request timeout");
    assert!(
        elapsed >= deadline && elapsed < deadline + Duration::from_secs(2),
        "408 must land at the deadline, not before or long after ({elapsed:?})"
    );
}

/// A body dribbler: complete head declaring a 64-byte body, then one
/// body byte every 50 ms. The body-phase deadline must 408 it.
#[test]
fn slow_loris_body_times_out_with_408() {
    let head_deadline = Duration::from_secs(5);
    let body_deadline = Duration::from_millis(300);
    let (status, elapsed) = parse_under_deadline(head_deadline, body_deadline, |mut stream| {
        let head = b"POST /campaigns HTTP/1.1\r\nContent-Length: 64\r\n\r\n";
        if stream.write_all(head).is_err() {
            return;
        }
        for _ in 0..64 {
            if stream.write_all(b"x").is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    assert_eq!(status, Some(408), "expected a request timeout");
    assert!(
        elapsed < Duration::from_secs(4),
        "body dribble must die at the body deadline ({elapsed:?})"
    );
}

/// A fast, complete request under the same tight deadlines parses fine
/// — the deadlines only bite the slow.
#[test]
fn prompt_requests_parse_under_tight_deadlines() {
    let deadline = Duration::from_millis(300);
    let (status, _) = parse_under_deadline(deadline, deadline, |mut stream| {
        let _ = stream.write_all(b"POST /campaigns HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}");
    });
    assert_eq!(status, None, "a prompt request must parse");
}

/// A campaign spec with a per-call seed (distinct seeds → distinct
/// jobs) and enough replicates to still be queued/running when the
/// next submission lands.
fn slow_spec(seed: u64) -> String {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    CampaignSpec::new(config, seed)
        .benchmarks(&[Benchmark::AdpcmEncode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .replicates(4000)
        .normalize(false)
        .golden_check(false)
        .to_json()
        .render()
}

/// Raw submit that captures the response head verbatim — `Retry-After`
/// is a header, so the typed client's `(status, body)` view cannot see
/// it.
fn raw_submit(addr: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(TIMEOUT))
        .expect("read timeout");
    write!(
        stream,
        "POST /campaigns HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    String::from_utf8_lossy(&response).into_owned()
}

fn health_counts(addr: &str) -> JsonValue {
    let (status, body) = exchange(addr, "GET", "/healthz", None, TIMEOUT).expect("healthz");
    assert_eq!(status, 200);
    JsonValue::parse(&body).expect("healthz JSON")
}

/// Admission control end to end: with one runner and a queue bound of
/// one, the third concurrent submission is shed as `429` with a
/// `Retry-After` header, `/healthz` counts the shed, and joining a job
/// that is already known stays exempt from the bound.
#[test]
fn overload_sheds_429_with_retry_after_and_counts_it() {
    let dir = std::env::temp_dir().join(format!("chunkpoint_serve_shed_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: dir.clone(),
        max_jobs: 1,
        campaign_threads: 1,
        max_queued: 1,
        trace_out: None,
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let serving = std::thread::spawn(move || server.run());

    // Job 1: wait until the runner picks it up (queue drains to 0).
    let first = raw_submit(&addr, &slow_spec(0x51));
    assert!(first.starts_with("HTTP/1.1 202"), "{first}");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let counts = health_counts(&addr);
        if counts.get("running").and_then(JsonValue::as_u64) == Some(1) {
            break;
        }
        assert!(Instant::now() < deadline, "job 1 never started running");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Job 2 fills the queue bound; job 3 must be shed.
    let second = raw_submit(&addr, &slow_spec(0x52));
    assert!(second.starts_with("HTTP/1.1 202"), "{second}");
    let third = raw_submit(&addr, &slow_spec(0x53));
    assert!(third.starts_with("HTTP/1.1 429"), "{third}");
    assert!(
        third.contains("Retry-After:"),
        "shed response must carry Retry-After: {third}"
    );
    assert!(third.contains("shedding load"), "{third}");

    // The shed is counted, and shed submissions never became jobs.
    let counts = health_counts(&addr);
    assert_eq!(counts.get("shed").and_then(JsonValue::as_u64), Some(1));
    let known: u64 = ["queued", "running", "done", "cancelled", "failed"]
        .iter()
        .filter_map(|key| counts.get(key).and_then(JsonValue::as_u64))
        .sum();
    assert_eq!(known, 2, "the shed submission must not appear as a job");

    // Joining an already-known job is exempt: resubmitting job 2's spec
    // answers its status, even with the queue still full.
    let rejoin = raw_submit(&addr, &slow_spec(0x52));
    assert!(
        rejoin.starts_with("HTTP/1.1 202") || rejoin.starts_with("HTTP/1.1 200"),
        "joins must never be shed: {rejoin}"
    );
    assert_eq!(
        health_counts(&addr).get("shed").and_then(JsonValue::as_u64),
        Some(1),
        "a join must not count as a shed"
    );

    let _ = exchange(&addr, "POST", "/shutdown", None, TIMEOUT);
    serving.join().expect("server drained");
    let _ = std::fs::remove_dir_all(&dir);
}
