//! In-process service lifecycle: submit → poll → result → cache hit →
//! delete → graceful shutdown, all over real HTTP on an ephemeral port.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use chunkpoint_campaign::{
    canonical_report_json, run_campaign, CampaignSpec, JsonValue, SchemeSpec,
};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_serve::server::{ServeConfig, Server};
use chunkpoint_serve::REPORT_AXES;
use chunkpoint_shard::exchange;
use chunkpoint_workloads::Benchmark;

/// Deadline of each HTTP exchange with the service under test.
const TIMEOUT: Duration = Duration::from_secs(30);

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chunkpoint_service_{}_{tag}", std::process::id()))
}

fn tiny_spec() -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    CampaignSpec::new(config, 0xAB)
        .benchmarks(&[Benchmark::AdpcmEncode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
        .replicates(2)
}

fn wait_done(addr: &str, id: &str) -> JsonValue {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) =
            exchange(addr, "GET", &format!("/campaigns/{id}"), None, TIMEOUT).expect("status poll");
        assert_eq!(status, 200, "{body}");
        let doc = JsonValue::parse(&body).expect("status json");
        match doc.get("status").and_then(JsonValue::as_str) {
            Some("done") => return doc,
            Some("failed") => panic!("job failed: {body}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "job never finished: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn submit_poll_result_cache_delete_shutdown() {
    let dir = temp_dir("lifecycle");
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: dir.clone(),
        max_jobs: 2,
        campaign_threads: 2,
        max_queued: 0,
        trace_out: None,
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let addr = addr.as_str();
    let serving = std::thread::spawn(move || server.run());

    // Health before anything.
    let (status, body) = exchange(addr, "GET", "/healthz", None, TIMEOUT).expect("healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    // Submit.
    let spec = tiny_spec();
    let spec_body = spec.to_json().render();
    let (status, body) =
        exchange(addr, "POST", "/campaigns", Some(&spec_body), TIMEOUT).expect("submit");
    assert_eq!(status, 202, "{body}");
    let doc = JsonValue::parse(&body).expect("submit json");
    let id = doc.get("id").unwrap().as_str().expect("id").to_owned();
    assert_eq!(doc.get("cached").unwrap().as_bool(), Some(false));
    assert_eq!(doc.get("scenarios").unwrap().as_u64(), Some(4));

    // Poll to completion; fetch the report.
    let status_doc = wait_done(addr, &id);
    assert_eq!(status_doc.get("completed").unwrap().as_u64(), Some(4));
    let (status, report) = exchange(
        addr,
        "GET",
        &format!("/campaigns/{id}/result"),
        None,
        TIMEOUT,
    )
    .expect("result");
    assert_eq!(status, 200, "{report}");

    // The served report is the canonical timing-free report, byte for
    // byte identical to an in-process single-threaded run.
    let reference = run_campaign(&spec, 1);
    let expected = canonical_report_json(spec.campaign_seed, &reference.results, &REPORT_AXES);
    assert_eq!(report.trim_end(), expected.render());

    // The journal endpoint serves every sealed row of the finished job.
    let (status, body) = exchange(
        addr,
        "GET",
        &format!("/campaigns/{id}/journal"),
        None,
        TIMEOUT,
    )
    .expect("journal");
    assert_eq!(status, 200, "{body}");
    let journal = JsonValue::parse(&body).expect("journal json");
    assert_eq!(journal.get("id").unwrap().as_str(), Some(id.as_str()));
    let rows = journal.get("rows").unwrap().as_array().expect("rows");
    assert_eq!(rows.len(), 4);
    let mut journaled: Vec<u64> = rows
        .iter()
        .map(|row| row.get("index").unwrap().as_u64().expect("row index"))
        .collect();
    journaled.sort_unstable();
    assert_eq!(journaled, vec![0, 1, 2, 3]);

    // Resubmitting the identical spec is an instant cache hit.
    let t0 = Instant::now();
    let (status, body) =
        exchange(addr, "POST", "/campaigns", Some(&spec_body), TIMEOUT).expect("resubmit");
    assert_eq!(status, 200, "{body}");
    let doc = JsonValue::parse(&body).expect("resubmit json");
    assert_eq!(doc.get("cached").unwrap().as_bool(), Some(true));
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "cache hit was not instant: {:?}",
        t0.elapsed()
    );

    // A different spec is a different content address.
    let other = tiny_spec().replicates(3);
    let (status, body) = exchange(
        addr,
        "POST",
        "/campaigns",
        Some(&other.to_json().render()),
        TIMEOUT,
    )
    .expect("different spec");
    assert_eq!(status, 202, "{body}");
    let other_id = JsonValue::parse(&body)
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    assert_ne!(other_id, id);
    wait_done(addr, &other_id);

    // Delete removes the job and its result.
    let (status, _) = exchange(
        addr,
        "DELETE",
        &format!("/campaigns/{other_id}"),
        None,
        TIMEOUT,
    )
    .expect("delete");
    assert_eq!(status, 200);
    let (status, _) = exchange(
        addr,
        "GET",
        &format!("/campaigns/{other_id}"),
        None,
        TIMEOUT,
    )
    .expect("post-delete");
    assert_eq!(status, 404);

    // Unknown and malformed ids are 404s, not store accesses.
    let (status, _) =
        exchange(addr, "GET", "/campaigns/ffffffffffffffff", None, TIMEOUT).expect("unknown");
    assert_eq!(status, 404);
    let (status, _) = exchange(addr, "GET", "/campaigns/../etc", None, TIMEOUT).expect("traversal");
    assert_eq!(status, 404);

    // Bad specs are 400s.
    let (status, _) =
        exchange(addr, "POST", "/campaigns", Some("{not json"), TIMEOUT).expect("bad json");
    assert_eq!(status, 400);
    let (status, _) =
        exchange(addr, "POST", "/campaigns", Some("{\"version\":1}"), TIMEOUT).expect("bad spec");
    assert_eq!(status, 400);

    // Result of a still-unknown id refuses politely, then shut down.
    let (status, _) = exchange(addr, "POST", "/shutdown", None, TIMEOUT).expect("shutdown");
    assert_eq!(status, 200);
    serving.join().expect("server drained");
    let _ = std::fs::remove_dir_all(&dir);
}
