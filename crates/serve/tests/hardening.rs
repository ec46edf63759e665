//! Malformed-input regression suite for the serving plane, proven
//! against a live server on a real socket: every class of bad input a
//! client can send — garbage framing, unparseable bodies, well-formed
//! JSON that is not a spec, and specs that are internally inconsistent
//! — answers with a typed 4xx, and the service keeps serving real work
//! afterwards. Plus the shed path's derived `Retry-After`: the header
//! value is an integer inside the documented `[1, 60]` clamp, not a
//! hard-coded constant that ignores the queue.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use chunkpoint_campaign::{CampaignSpec, JsonValue, SchemeSpec, MAX_GRID_SCENARIOS};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_serve::server::{ServeConfig, Server};
use chunkpoint_shard::exchange;
use chunkpoint_workloads::Benchmark;

const TIMEOUT: Duration = Duration::from_secs(5);

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chunkpoint_hardening_{}_{tag}", std::process::id()))
}

/// Starts an in-process server on an ephemeral port; returns its
/// address, the serving thread's handle, and the data dir to clean up.
fn start_server(tag: &str, max_queued: usize) -> (String, std::thread::JoinHandle<()>, PathBuf) {
    let dir = temp_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: dir.clone(),
        max_jobs: 1,
        campaign_threads: 1,
        max_queued,
        trace_out: None,
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let serving = std::thread::spawn(move || server.run());
    (addr, serving, dir)
}

/// Sends raw bytes and returns the full response text (head + body) —
/// the typed client cannot send malformed framing, and discards the
/// headers this suite asserts on.
fn raw_exchange(addr: &str, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(TIMEOUT))
        .expect("read timeout");
    stream.write_all(bytes).expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    String::from_utf8_lossy(&response).into_owned()
}

fn post_campaigns(addr: &str, body: &[u8]) -> String {
    let mut request = format!(
        "POST /campaigns HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    raw_exchange(addr, &request)
}

/// The service must answer `/healthz` with a 200 after every abuse —
/// the regression being guarded: one malformed request must never wedge
/// or kill the accept loop or the job manager.
fn assert_alive(addr: &str, after: &str) {
    let (status, _) = exchange(addr, "GET", "/healthz", None, TIMEOUT)
        .unwrap_or_else(|e| panic!("service dead after {after}: {e}"));
    assert_eq!(status, 200, "service unhealthy after {after}");
}

fn tiny_spec(seed: u64) -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    CampaignSpec::new(config, seed)
        .benchmarks(&[Benchmark::AdpcmEncode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .normalize(false)
        .golden_check(false)
}

#[test]
fn malformed_inputs_get_typed_errors_and_the_service_survives() {
    let (addr, serving, dir) = start_server("malformed", 1024);

    // 1. Garbage request line: no method/path/version triple.
    let response = raw_exchange(&addr, b"NONSENSE\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("malformed request line"), "{response}");
    assert_alive(&addr, "a garbage request line");

    // 2. Unparseable Content-Length: well-formed line, broken framing.
    let response = raw_exchange(
        &addr,
        b"POST /campaigns HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
    );
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("bad Content-Length"), "{response}");
    assert_alive(&addr, "a bad Content-Length");

    // 3. A body that is not JSON at all.
    let response = post_campaigns(&addr, b"this is not json");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("body is not JSON"), "{response}");
    assert_alive(&addr, "a non-JSON body");

    // 4. Valid JSON that is not a campaign spec.
    let response = post_campaigns(&addr, b"{\"x\":1}");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert_alive(&addr, "a non-spec JSON body");

    // 5. A non-UTF-8 body: rejected before JSON parsing ever runs.
    let response = post_campaigns(&addr, &[0xff, 0xfe, 0x80]);
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("body is not UTF-8"), "{response}");
    assert_alive(&addr, "a non-UTF-8 body");

    // 6. A well-formed spec whose scenario_range overruns its own grid.
    let bad_range = tiny_spec(0xBAD)
        .scenario_range(0, 10_000)
        .to_json()
        .render();
    let response = post_campaigns(&addr, bad_range.as_bytes());
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("exceeds"), "{response}");
    assert_alive(&addr, "an out-of-range sub-spec");

    // 7. A well-formed spec whose optimizer axis has no feasible point
    // (the wire refuses a zero area budget, so a vanishing one).
    let mut config = SystemConfig::paper(0);
    config.constraints.area_overhead = 1e-9;
    let infeasible = CampaignSpec::new(config, 0x1F)
        .benchmarks(&[Benchmark::AdpcmEncode])
        .scheme("Optimal", SchemeSpec::Optimal);
    let response = post_campaigns(&addr, infeasible.to_json().render().as_bytes());
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("feasible"), "{response}");
    assert_alive(&addr, "an infeasible spec");

    // 8. A 200-byte spec whose replicate count asks for a grid no host
    // could hold: refused by the grid bound, never allocated.
    let huge = br#"{"version":1,"campaign_seed":7,"benchmarks":["ADPCM encode"],
  "schemes":[{"label":"Default","spec":{"kind":"fixed","scheme":{"kind":"default"}}}],
  "error_rates":[0.000001],"replicates":18446744073709551615,"normalize":false,"golden_check":false}"#;
    let response = post_campaigns(&addr, huge);
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(
        response.contains(&MAX_GRID_SCENARIOS.to_string()),
        "{response}"
    );
    assert_alive(&addr, "a grid past the scenario limit");

    // 9. An error rate of 2: a strike rate is a probability per word
    // and cycle, so the fault process would refuse it mid-run.
    let rate_two = br#"{"version":1,"campaign_seed":7,"benchmarks":["ADPCM encode"],
  "schemes":[{"label":"Default","spec":{"kind":"fixed","scheme":{"kind":"default"}}}],
  "error_rates":[2.0],"replicates":1,"normalize":false,"golden_check":false}"#;
    let response = post_campaigns(&addr, rate_two);
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("error_rates"), "{response}");
    assert!(response.contains("[0, 1)"), "{response}");
    assert_alive(&addr, "an error rate of 2");

    // 10. An input scale past the workloads' (0, 4] range.
    let scale_five = br#"{"version":1,"campaign_seed":7,"base":{"seed":0,"scale":5.0,
  "error_rate":0.000001,"area_overhead":0.2,"cycle_overhead":0.2},"benchmarks":["ADPCM encode"],
  "schemes":[{"label":"Default","spec":{"kind":"fixed","scheme":{"kind":"default"}}}],
  "error_rates":[0.000001],"replicates":1,"normalize":false,"golden_check":false}"#;
    let response = post_campaigns(&addr, scale_five);
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("scale"), "{response}");
    assert!(response.contains("(0, 4]"), "{response}");
    assert_alive(&addr, "a scale of 5");

    // 11–13. Scheme parameters the simulator would assert on mid-run: a
    // BCH strength outside the word-level code's 1..=18, and a chunk
    // outside the optimizer's 1..=512 (a chunk of 0 words never ends a
    // speech block; a larger frame overruns L1), in a fixed scheme and
    // on the chunk axis.
    let fixed = |scheme: &str, axis: &str| {
        format!(
            r#"{{"version":1,"campaign_seed":7,"benchmarks":["ADPCM encode"],
  "schemes":[{{"label":"Fixed","spec":{{"kind":"fixed","scheme":{scheme}}}}}],{axis}
  "error_rates":[0.000001],"replicates":1,"normalize":false,"golden_check":false}}"#
        )
    };
    for (case, spec, field, range) in [
        (
            11,
            fixed(r#"{"kind":"hw-ecc","t":19}"#, ""),
            "hw-ecc t",
            "1..=18",
        ),
        (
            12,
            fixed(
                r#"{"kind":"hybrid-single-parity","chunk_words":16,"l1_prime_t":0}"#,
                "",
            ),
            "l1_prime_t",
            "1..=18",
        ),
        (
            13,
            fixed(r#"{"kind":"hybrid","chunk_words":0,"l1_prime_t":8}"#, ""),
            "chunk_words",
            "1..=512",
        ),
        (
            13,
            fixed(
                r#"{"kind":"hybrid","chunk_words":16,"l1_prime_t":8}"#,
                r#""chunk_words":[16,100000],"#,
            ),
            "chunk_words",
            "1..=512",
        ),
    ] {
        let response = post_campaigns(&addr, spec.as_bytes());
        assert!(response.starts_with("HTTP/1.1 400"), "{case}: {response}");
        assert!(response.contains(field), "{case}: {response}");
        assert!(response.contains(range), "{case}: {response}");
        assert_alive(&addr, &format!("case {case}: {field} out of {range}"));
    }

    // After all of it, the service still does real work end to end.
    let good = tiny_spec(0x60D).to_json().render();
    let response = post_campaigns(&addr, good.as_bytes());
    assert!(
        response.starts_with("HTTP/1.1 202") || response.starts_with("HTTP/1.1 200"),
        "a valid spec must still be accepted: {response}"
    );

    let _ = exchange(&addr, "POST", "/shutdown", None, TIMEOUT);
    serving.join().expect("server drained");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A signed `Content-Length`, and two that disagree, are framing a proxy
/// in front may read differently: each gets a 400, and the service still
/// accepts a normal submit afterwards.
#[test]
fn signed_and_conflicting_lengths_are_refused() {
    let (addr, serving, dir) = start_server("lengths", 1024);
    let body = tiny_spec(0x1E6).to_json().render();
    for length in [
        format!("+{}", body.len()),
        format!("3\r\nContent-Length: {}", body.len()),
    ] {
        let request = format!(
            "POST /campaigns HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {length}\r\n\r\n{body}"
        );
        let response = raw_exchange(&addr, request.as_bytes());
        assert!(
            response.starts_with("HTTP/1.1 400"),
            "{length:?}: {response}"
        );
        assert!(
            response.contains("Content-Length"),
            "{length:?}: {response}"
        );
    }
    let response = post_campaigns(&addr, body.as_bytes());
    assert!(response.starts_with("HTTP/1.1 202"), "{response}");

    let _ = exchange(&addr, "POST", "/shutdown", None, TIMEOUT);
    serving.join().expect("server drained");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shed `Retry-After` is derived from queue depth and the observed
/// scenario wall-time mean, and always lands inside the documented
/// `[1, 60]` second clamp — an integral header a client can sleep on.
#[test]
fn shed_retry_after_is_derived_and_clamped() {
    let (addr, serving, dir) = start_server("retry_after", 1);
    let slow = |seed: u64| {
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
    };

    // Fill the single runner, wait for it to pick the job up, then
    // fill the queue bound of one.
    let first = post_campaigns(&addr, slow(0xA1).as_bytes());
    assert!(first.starts_with("HTTP/1.1 202"), "{first}");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = exchange(&addr, "GET", "/healthz", None, TIMEOUT).expect("healthz");
        assert_eq!(status, 200);
        let counts = JsonValue::parse(&body).expect("healthz JSON");
        if counts.get("running").and_then(JsonValue::as_u64) == Some(1) {
            break;
        }
        assert!(Instant::now() < deadline, "job 1 never started running");
        std::thread::sleep(Duration::from_millis(10));
    }
    let second = post_campaigns(&addr, slow(0xA2).as_bytes());
    assert!(second.starts_with("HTTP/1.1 202"), "{second}");

    // The shed response's Retry-After parses as an integer in [1, 60].
    let third = post_campaigns(&addr, slow(0xA3).as_bytes());
    assert!(third.starts_with("HTTP/1.1 429"), "{third}");
    let seconds: u64 = third
        .lines()
        .find_map(|line| line.strip_prefix("Retry-After: "))
        .unwrap_or_else(|| panic!("no Retry-After header: {third}"))
        .trim()
        .parse()
        .expect("Retry-After must be integral seconds");
    assert!(
        (1..=60).contains(&seconds),
        "derived Retry-After {seconds} escaped the clamp"
    );

    let _ = exchange(&addr, "POST", "/shutdown", None, TIMEOUT);
    serving.join().expect("server drained");
    let _ = std::fs::remove_dir_all(&dir);
}
