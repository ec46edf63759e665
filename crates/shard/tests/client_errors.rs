//! Negative paths of the coordinator's HTTP client: every way a backend
//! can misbehave must surface a **typed** error — never a panic, never a
//! hang. Connection refused, torn responses of several shapes, a body
//! declared past the cap, and a backend that shuts down mid-poll.

use std::io::Write;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use chunkpoint_campaign::{CampaignSpec, SchemeSpec};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_serve::server::{ServeConfig, Server};
use chunkpoint_shard::{exchange, run_sharded, ClientError, ExecError, ShardConfig};
use chunkpoint_workloads::Benchmark;

const TIMEOUT: Duration = Duration::from_secs(5);

/// A one-shot server that accepts a single connection, reads the request
/// head, writes `response` verbatim, and closes.
fn spawn_raw(response: &'static [u8]) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        // Drain the request head so the client is not racing our close.
        let mut buf = [0u8; 4096];
        let _ = std::io::Read::read(&mut stream, &mut buf);
        stream.write_all(response).expect("write raw response");
        // Dropping the stream closes the connection.
    });
    addr
}

#[test]
fn connection_refused_is_typed() {
    // Bind then drop: the port was just free, so connecting is refused.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").to_string()
    };
    let err = exchange(&addr, "GET", "/healthz", None, TIMEOUT).expect_err("refused");
    assert!(matches!(err, ClientError::Connect(_)), "{err}");
}

#[test]
fn unresolvable_address_is_typed() {
    let err = exchange("does-not-resolve.invalid:1", "GET", "/", None, TIMEOUT)
        .expect_err("unresolvable");
    assert!(matches!(err, ClientError::Connect(_)), "{err}");
}

#[test]
fn garbage_status_line_is_torn() {
    let addr = spawn_raw(b"NONSENSE GARBAGE\r\n\r\n");
    let err = exchange(&addr, "GET", "/", None, TIMEOUT).expect_err("garbage");
    assert!(matches!(err, ClientError::TornResponse(_)), "{err}");
}

#[test]
fn eof_before_status_line_is_torn() {
    let addr = spawn_raw(b"");
    let err = exchange(&addr, "GET", "/", None, TIMEOUT).expect_err("eof");
    assert!(matches!(err, ClientError::TornResponse(_)), "{err}");
}

#[test]
fn eof_inside_head_is_torn() {
    let addr = spawn_raw(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n");
    let err = exchange(&addr, "GET", "/", None, TIMEOUT).expect_err("mid-head eof");
    assert!(matches!(err, ClientError::TornResponse(_)), "{err}");
}

#[test]
fn body_shorter_than_content_length_is_torn() {
    let addr = spawn_raw(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort");
    let start = Instant::now();
    let err = exchange(&addr, "GET", "/", None, TIMEOUT).expect_err("short body");
    assert!(matches!(err, ClientError::TornResponse(_)), "{err}");
    // The tear is detected at EOF, not by burning the whole timeout.
    assert!(start.elapsed() < TIMEOUT, "hung on a torn body");
}

#[test]
fn unparseable_content_length_is_torn() {
    // As at serve, only bare digits frame a body: a sign is no length.
    for response in [
        &b"HTTP/1.1 200 OK\r\nContent-Length: banana\r\n\r\n{}"[..],
        b"HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\n{}",
    ] {
        let addr = spawn_raw(response);
        let err = exchange(&addr, "GET", "/", None, TIMEOUT).expect_err("bad length");
        assert!(matches!(err, ClientError::TornResponse(_)), "{err}");
    }
}

#[test]
fn conflicting_content_lengths_are_torn() {
    let addr = spawn_raw(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nhello");
    let err = exchange(&addr, "GET", "/", None, TIMEOUT).expect_err("conflicting lengths");
    assert!(matches!(err, ClientError::TornResponse(_)), "{err}");
}

#[test]
fn repeated_agreeing_content_length_reads_normally() {
    let addr = spawn_raw(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello");
    let reply = exchange(&addr, "GET", "/", None, TIMEOUT).expect("agreeing lengths");
    assert_eq!(reply, (200, "hello".to_owned()));
}

#[test]
fn oversized_declared_body_is_refused_without_allocating() {
    // 1 TiB declared: the error must come from the header alone.
    let addr = spawn_raw(b"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n");
    let err = exchange(&addr, "GET", "/", None, TIMEOUT).expect_err("oversized");
    match err {
        ClientError::OversizedBody { declared, limit } => {
            assert_eq!(declared, 1_099_511_627_776);
            assert!(limit < declared);
        }
        other => panic!("expected OversizedBody, got {other}"),
    }
}

#[test]
fn non_utf8_body_is_torn() {
    let addr = spawn_raw(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\n\xff\xfe\xfd\xfc");
    let err = exchange(&addr, "GET", "/", None, TIMEOUT).expect_err("non-utf8");
    assert!(matches!(err, ClientError::TornResponse(_)), "{err}");
}

/// A 4xx answer to a submit is about the spec itself: the run stops at
/// once, with the backend, its status and its body typed in `Rejected`.
#[test]
fn client_error_on_submit_is_a_typed_rejection() {
    let backend = spawn_raw(b"HTTP/1.1 400 Bad Request\r\nContent-Length: 8\r\n\r\nbad spec");
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    let spec = CampaignSpec::new(config, 0x400)
        .benchmarks(&[Benchmark::AdpcmEncode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default));
    match run_sharded(&spec, &[backend.clone()], &ShardConfig::default()) {
        Err(ExecError::Rejected {
            backend: Some(addr),
            status: Some(400),
            detail,
        }) => assert_eq!((addr, detail.as_str()), (backend, "bad spec")),
        other => panic!("expected Rejected, got {other:?}"),
    }
}

/// A fake backend that accepts every submission and reports every job
/// failed — the deterministic-failure worst case (scenario that panics,
/// disk full everywhere). Serves connections until the test ends.
fn spawn_always_failing_backend() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let mut buf = [0u8; 4096];
            let n = std::io::Read::read(&mut stream, &mut buf).unwrap_or(0);
            let head = String::from_utf8_lossy(&buf[..n]);
            let body = if head.starts_with("POST /campaigns") {
                r#"{"id":"00000000000000ff","status":"queued","scenarios":1,"completed":0}"#
            } else {
                r#"{"id":"00000000000000ff","status":"failed","scenarios":1,"completed":0,"error":"boom"}"#
            };
            let _ = write!(
                stream,
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
        }
    });
    addr
}

/// A shard whose job fails on every dispatch must exhaust its attempt
/// budget and surface a typed error — not ping-pong between backends
/// forever (transport strikes never fire here: every exchange succeeds).
#[test]
fn deterministically_failing_job_exhausts_attempts() {
    let backend = spawn_always_failing_backend();
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    let spec = CampaignSpec::new(config, 0xFA11)
        .benchmarks(&[Benchmark::AdpcmEncode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .normalize(false)
        .golden_check(false);
    let shard_config = ShardConfig {
        poll_interval: Duration::from_millis(2),
        request_timeout: Duration::from_secs(2),
        ..ShardConfig::default()
    };
    let start = Instant::now();
    let err = run_sharded(&spec, &[backend], &shard_config).expect_err("must give up");
    match &err {
        ExecError::Exhausted { detail, .. } => {
            assert!(detail.contains("dispatch attempts"), "{detail}");
        }
        other => panic!("expected Exhausted, got {other}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "coordinator looped instead of exhausting attempts"
    );
}

/// Mid-poll shutdown: the coordinator's only backend drains away while a
/// campaign is in flight. The coordinator must come back with a typed
/// `Exhausted` error — no panic, no hang.
#[test]
fn mid_poll_shutdown_surfaces_exhausted() {
    let dir = std::env::temp_dir().join(format!("chunkpoint_shard_midpoll_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: dir.clone(),
        max_jobs: 1,
        campaign_threads: 1,
        max_queued: 0,
        trace_out: None,
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let serving = std::thread::spawn(move || server.run());

    // A grid big enough to still be running when the shutdown lands.
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    let spec = CampaignSpec::new(config, 0x9D0F)
        .benchmarks(&[Benchmark::AdpcmEncode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .replicates(4000)
        .normalize(false)
        .golden_check(false);

    let coordinator = {
        let spec = spec.clone();
        let backends = vec![addr.clone()];
        let config = ShardConfig {
            poll_interval: Duration::from_millis(5),
            request_timeout: Duration::from_secs(2),
            backend_strikes: 2,
            ..ShardConfig::default()
        };
        std::thread::spawn(move || run_sharded(&spec, &backends, &config))
    };

    // Let the coordinator submit and start polling, then pull the rug.
    std::thread::sleep(Duration::from_millis(100));
    let _ = exchange(&addr, "POST", "/shutdown", None, TIMEOUT);
    serving.join().expect("server drained");

    let start = Instant::now();
    let outcome = coordinator
        .join()
        .expect("coordinator thread must not panic");
    let err = outcome.expect_err("shutdown mid-poll must fail the run");
    assert!(matches!(err, ExecError::Exhausted { .. }), "{err}");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "coordinator hung after backend shutdown"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
