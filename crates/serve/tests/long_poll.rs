//! The waiting status request, `GET /campaigns/:id?wait_ms=N`, over real
//! HTTP: it holds its answer while the job is queued or running and
//! answers the moment the job finishes or is deleted, answers at once
//! for a done or unknown job, and is the only query the service takes.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use chunkpoint_campaign::{CampaignSpec, JsonValue, SchemeSpec};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_serve::server::{ServeConfig, Server};
use chunkpoint_shard::exchange;
use chunkpoint_workloads::Benchmark;

const TIMEOUT: Duration = Duration::from_secs(30);

/// The wait every request below asks for: far longer than any answer
/// may take, so an answer well inside it proves the wait ended early.
const WAIT_MS: u64 = 5_000;

/// An in-process service on an ephemeral port (1 job, 1 worker); the
/// serving thread ends on `POST /shutdown`.
struct Service {
    addr: String,
    serving: std::thread::JoinHandle<()>,
    dir: PathBuf,
}

impl Service {
    fn start(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("chunkpoint_long_poll_{}_{tag}", std::process::id()));
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
        Self { addr, serving, dir }
    }

    fn submit(&self, spec: &CampaignSpec) -> String {
        let (status, body) = exchange(
            &self.addr,
            "POST",
            "/campaigns",
            Some(&spec.to_json().render()),
            TIMEOUT,
        )
        .expect("submit");
        assert!(status == 200 || status == 202, "{body}");
        let doc = JsonValue::parse(&body).expect("submit json");
        doc.get("id")
            .and_then(JsonValue::as_str)
            .expect("id")
            .to_owned()
    }

    /// A status request waiting up to `WAIT_MS`: HTTP status, the job's
    /// status field, and how long the answer took.
    fn wait(&self, id: &str) -> (u16, Option<String>, Duration) {
        let started = Instant::now();
        let (status, body) = exchange(
            &self.addr,
            "GET",
            &format!("/campaigns/{id}?wait_ms={WAIT_MS}"),
            None,
            TIMEOUT,
        )
        .expect("status");
        let state = JsonValue::parse(&body).ok().and_then(|doc| {
            doc.get("status")
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
        });
        (status, state, started.elapsed())
    }

    fn stop(self) {
        let _ = exchange(&self.addr, "POST", "/shutdown", None, TIMEOUT);
        self.serving.join().expect("server drained");
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn spec(seed: u64, replicates: u64) -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    CampaignSpec::new(config, seed)
        .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
        .replicates(replicates)
        .normalize(false)
        .golden_check(false)
}

/// Well before the wait bound: the answer was the job finishing (or
/// leaving), not the bound running out.
fn well_before_the_bound(took: Duration) -> bool {
    took < Duration::from_millis(WAIT_MS / 2)
}

#[test]
fn waiting_status_returns_when_the_job_finishes() {
    let service = Service::start("finish");
    let id = service.submit(&spec(0x10F0, 8));
    // Asked straight after the submit, while the job is queued or
    // running: the answer is held until it is done.
    let (status, state, took) = service.wait(&id);
    assert_eq!(status, 200);
    assert_eq!(
        state.as_deref(),
        Some("done"),
        "answered before the job ended"
    );
    assert!(well_before_the_bound(took), "took {took:?}");
    service.stop();
}

#[test]
fn waiting_status_answers_at_once_for_done_and_unknown_jobs() {
    let service = Service::start("at_once");
    let id = service.submit(&spec(0x10F1, 1));
    assert_eq!(service.wait(&id).1.as_deref(), Some("done"));
    let (status, state, took) = service.wait(&id);
    assert_eq!((status, state.as_deref()), (200, Some("done")));
    assert!(took < Duration::from_secs(1), "a done job waited {took:?}");
    let (status, _, took) = service.wait("0123456789abcdef");
    assert_eq!(status, 404);
    assert!(
        took < Duration::from_secs(1),
        "an unknown job waited {took:?}"
    );
    service.stop();
}

#[test]
fn delete_wakes_a_waiter() {
    let service = Service::start("delete");
    // One runner: the first campaign occupies it for longer than this
    // test waits, so the second stays queued until it is deleted.
    let busy = service.submit(&spec(0x10F2, 4_000));
    let queued = service.submit(&spec(0x10F3, 4_000));
    let waiter = {
        let addr = service.addr.clone();
        let queued = queued.clone();
        std::thread::spawn(move || {
            let started = Instant::now();
            let (status, _) = exchange(
                &addr,
                "GET",
                &format!("/campaigns/{queued}?wait_ms={WAIT_MS}"),
                None,
                TIMEOUT,
            )
            .expect("waiting status");
            (status, started.elapsed())
        })
    };
    std::thread::sleep(Duration::from_millis(200));
    let (status, body) = exchange(
        &service.addr,
        "DELETE",
        &format!("/campaigns/{queued}"),
        None,
        TIMEOUT,
    )
    .expect("delete");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"was\":\"queued\""), "{body}");
    let (status, took) = waiter.join().expect("waiter");
    assert_eq!(status, 404, "the deleted job is gone");
    assert!(
        well_before_the_bound(took),
        "the delete never woke the waiter: {took:?}"
    );
    let _ = exchange(
        &service.addr,
        "DELETE",
        &format!("/campaigns/{busy}"),
        None,
        TIMEOUT,
    );
    service.stop();
}

#[test]
fn only_wait_ms_is_accepted_as_a_query() {
    let service = Service::start("query");
    let id = service.submit(&spec(0x10F4, 1));
    for target in [
        format!("/campaigns/{id}?wait_ms=x"),
        format!("/campaigns/{id}?foo=1"),
        format!("/campaigns/{id}/result?wait_ms=10"),
        "/healthz?wait_ms=10".to_owned(),
    ] {
        let (status, body) = exchange(&service.addr, "GET", &target, None, TIMEOUT).expect("get");
        assert_eq!(status, 400, "{target}: {body}");
    }
    let (status, _) = exchange(&service.addr, "GET", "/healthz", None, TIMEOUT).expect("healthz");
    assert_eq!(status, 200, "service still alive");
    // Without a query a status request answers at once, as it always has.
    let (status, body) = exchange(
        &service.addr,
        "GET",
        &format!("/campaigns/{id}"),
        None,
        TIMEOUT,
    )
    .expect("plain status");
    assert_eq!(status, 200, "{body}");
    service.stop();
}
