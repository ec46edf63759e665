//! The HTTP front: bind, accept, route, and gracefully shut down.
//!
//! Endpoints:
//!
//! | Method & path                  | Meaning                                                 |
//! |--------------------------------|---------------------------------------------------------|
//! | `POST /campaigns`              | submit a spec (body: canonical spec JSON)               |
//! | `GET /campaigns/:id`           | job status                                              |
//! | `GET /campaigns/:id?wait_ms=N` | job status once it leaves queued/running, or after N ms |
//! | `GET /campaigns/:id/result`    | final report (cache-served once done)                   |
//! | `GET /campaigns/:id/journal`   | sealed per-scenario rows journaled so far               |
//! | `DELETE /campaigns/:id`        | cancel and remove a job                                 |
//! | `GET /healthz`                 | liveness + job counts + uptime                          |
//! | `GET /metrics`                 | Prometheus-style text exposition                        |
//! | `POST /shutdown`               | graceful shutdown (used by CI and tests)                |
//!
//! `?wait_ms=N` is the only query string the service accepts, and only
//! on a status request; `N` is capped at
//! [`MAX_STATUS_WAIT`](crate::jobs::MAX_STATUS_WAIT). Any other
//! query is a `400`.
//!
//! Connections are handled one request each (`Connection: close`) on
//! short-lived threads; campaign execution happens on the job manager's
//! bounded runner pool, so a slow client can never stall a simulation
//! and vice versa.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chunkpoint_campaign::{CampaignSpec, JsonValue};
use chunkpoint_telemetry::{
    install_campaign_metrics_traced, render_text, Span, Tracer, SCENARIO_WALL_BUCKETS,
};

use crate::http::{read_request, Request, Response};
use crate::jobs::{JobManager, SubmitError};
use crate::metrics::{endpoint_of, metrics};
use crate::store::JobStore;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port `0` picks an ephemeral port).
    pub addr: String,
    /// Store root; journals and cached results live here across
    /// restarts.
    pub data_dir: PathBuf,
    /// Concurrent campaign jobs (runner threads).
    pub max_jobs: usize,
    /// Worker threads per campaign (`0` = all cores).
    pub campaign_threads: usize,
    /// Admission bound: *new* submissions are shed with `429 +
    /// Retry-After` while this many jobs are queued (`0` = unbounded).
    /// Joins, cache hits, and recovered jobs are never shed.
    pub max_queued: usize,
    /// Trace sink: when set, structured span/event records are written
    /// as JSON lines to this file (created/truncated at bind).
    pub trace_out: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8077".to_owned(),
            data_dir: PathBuf::from("chunkpoint-serve-data"),
            max_jobs: 2,
            campaign_threads: 0,
            max_queued: 1024,
            trace_out: None,
        }
    }
}

/// A bound, recovered, not-yet-serving service.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    manager: Arc<JobManager>,
    stop: Arc<AtomicBool>,
    runners: Vec<JoinHandle<()>>,
    started: Instant,
    serve_span: Arc<Span>,
}

impl Server {
    /// Binds the listener, opens the store, recovers persisted jobs
    /// (journaled-but-unfinished campaigns re-enqueue and will resume),
    /// spawns the runner pool, and wires the campaign engine's
    /// telemetry seam into the process-wide metrics registry.
    ///
    /// # Errors
    ///
    /// Propagates bind/store/trace-sink I/O errors.
    pub fn bind(config: &ServeConfig) -> std::io::Result<Self> {
        let tracer = match &config.trace_out {
            Some(path) => Tracer::to_file(path)?,
            None => Tracer::disabled(),
        };
        // The process root span opens first so the trace's first record
        // is always the `serve` span_begin; everything else hangs off it.
        let serve_span = Arc::new(tracer.root("serve"));
        // Idempotent (first caller wins): scenario wall-time histograms,
        // pool queue-depth gauges, and expect-verdict counters record
        // for every campaign this process runs; under a trace sink each
        // expect verdict also lands as an `expect_evaluated` span event.
        // Strictly out-of-band — results are unaffected.
        let _ = install_campaign_metrics_traced(serve_span.child("campaign"));
        // Register the request/job metric surface eagerly so the very
        // first `/metrics` scrape already exposes every series at zero
        // (scrapers difference counters; absent-then-present reads as
        // a reset).
        let _ = metrics();
        let store = JobStore::open(&config.data_dir)?;
        let manager = JobManager::recover(store, config.campaign_threads, config.max_queued);
        let runners = manager.spawn_runners(config.max_jobs);
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Self {
            listener,
            manager,
            stop: Arc::new(AtomicBool::new(false)),
            runners,
            started: Instant::now(),
            serve_span,
        })
    }

    /// The bound address (useful with port `0`).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `POST /shutdown` arrives, then drains: stops
    /// accepting, cancels running campaigns (journals keep them
    /// resumable), and joins every runner thread before returning.
    pub fn run(self) {
        let Server {
            listener,
            manager,
            stop,
            runners,
            started,
            serve_span,
        } = self;
        loop {
            let stream = match listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(_) => {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
            };
            // The /shutdown handler sets the flag and then knocks with a
            // bare connection to unblock this accept; checking after the
            // accept turns that knock into the exit.
            if stop.load(Ordering::Acquire) {
                break;
            }
            let manager = Arc::clone(&manager);
            let stop = Arc::clone(&stop);
            let serve_span = Arc::clone(&serve_span);
            std::thread::spawn(move || {
                handle_connection(stream, &manager, &stop, started, &serve_span);
            });
        }
        manager.shutdown(runners);
    }
}

fn handle_connection(
    mut stream: TcpStream,
    manager: &JobManager,
    stop: &AtomicBool,
    started: Instant,
    serve_span: &chunkpoint_telemetry::Span,
) {
    let t0 = Instant::now();
    let request = match read_request(&mut stream) {
        Ok(Ok(request)) => request,
        Ok(Err(bad_request)) => {
            // Protocol violations (408 slow-loris, 413, malformed
            // framing) never reach the router; meter them under "bad".
            if bad_request.status == 408 {
                metrics().request_timeouts.inc();
            }
            metrics().observe_request("bad", t0.elapsed().as_secs_f64());
            let _ = bad_request.write_to(&mut stream);
            return;
        }
        Err(_) => return, // socket died; nobody to answer
    };
    let endpoint = endpoint_of(&request.method, &request.path);
    let span = serve_span.child(endpoint);
    let response = route(&request, manager, stop, started);
    span.event(
        "handled",
        JsonValue::object()
            .field("method", request.method.as_str())
            .field("path", request.path.as_str())
            .field("status", u64::from(response.status)),
    );
    metrics().observe_request(endpoint, t0.elapsed().as_secs_f64());
    let _ = response.write_to(&mut stream);
    if request.method == "POST" && request.path == "/shutdown" {
        // Wake the (blocking) accept loop so it observes the stop flag.
        if let Ok(addr) = stream.local_addr() {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// Splits `/campaigns/:id[/result|/journal]` into its id and trailing
/// segment.
fn campaign_route(path: &str) -> Option<(&str, Option<&str>)> {
    let rest = path.strip_prefix("/campaigns/")?;
    match rest.split_once('/') {
        None => Some((rest, None)),
        Some((id, tail)) => Some((id, Some(tail))),
    }
}

/// Splits a request target into its path and the status wait of a
/// `?wait_ms=N` query (`None` without a query).
fn split_wait(target: &str) -> Result<(&str, Option<Duration>), Response> {
    let Some((path, query)) = target.split_once('?') else {
        return Ok((target, None));
    };
    match query.strip_prefix("wait_ms=").map(str::parse::<u64>) {
        Some(Ok(ms)) => Ok((path, Some(Duration::from_millis(ms)))),
        _ => Err(Response::error(
            400,
            "the only query accepted is ?wait_ms=<u64> on GET /campaigns/:id",
        )),
    }
}

fn route(request: &Request, manager: &JobManager, stop: &AtomicBool, started: Instant) -> Response {
    let (path, wait) = match split_wait(&request.path) {
        Ok(split) => split,
        Err(bad_query) => return bad_query,
    };
    let status_route =
        request.method == "GET" && campaign_route(path).is_some_and(|(_, tail)| tail.is_none());
    if wait.is_some() && !status_route {
        return Response::error(400, "wait_ms applies only to GET /campaigns/:id");
    }
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => Response::json(
            200,
            manager
                .counts()
                .to_json()
                .field("uptime_secs", started.elapsed().as_secs())
                .field("status", "ok")
                .render(),
        ),
        ("GET", "/metrics") => Response::text(200, render_text(chunkpoint_telemetry::global())),
        ("POST", "/shutdown") => {
            stop.store(true, Ordering::Release);
            Response::json(
                200,
                JsonValue::object().field("status", "stopping").render(),
            )
        }
        ("POST", "/campaigns") => submit(request, manager),
        (method, path) => match campaign_route(path) {
            Some((id, tail)) if JobStore::valid_id(id) => match (method, tail) {
                ("GET", None) => match manager.wait_status(id, wait.unwrap_or_default()) {
                    Some(status) => Response::json(200, status.to_json().render()),
                    None => Response::error(404, "unknown campaign"),
                },
                ("GET", Some("journal")) => match manager.journal(id) {
                    Some(doc) => Response::json(200, doc),
                    None => Response::error(404, "unknown campaign"),
                },
                ("GET", Some("result")) => match manager.status(id) {
                    None => Response::error(404, "unknown campaign"),
                    Some(status) => match manager.result(id) {
                        Some(report) => Response::json(200, report),
                        None => Response::error(
                            409,
                            &format!("campaign is {}, not done", status.state.name()),
                        ),
                    },
                },
                ("DELETE", None) => match manager.delete(id) {
                    Some(state) => Response::json(
                        200,
                        JsonValue::object()
                            .field("id", id)
                            .field("was", state.name())
                            .field("status", "deleted")
                            .render(),
                    ),
                    None => Response::error(404, "unknown campaign"),
                },
                _ => Response::error(405, "unsupported method for this resource"),
            },
            Some(_) => Response::error(404, "malformed campaign id"),
            None => Response::error(404, "no such route"),
        },
    }
}

/// Retry-After for a shed submission: the estimated time for the queue
/// to drain at the observed mean scenario wall time, clamped to
/// `[1, 60]` seconds. The clamp floor keeps the header honest when the
/// process has not completed a scenario yet (mean 0); the ceiling stops
/// a deep queue of slow campaigns from telling clients to go away for
/// hours — past a minute the estimate is noise anyway.
fn retry_after_hint(queued: usize, mean_scenario_secs: f64) -> u64 {
    #[allow(clippy::cast_precision_loss)]
    let estimate = (queued as f64 * mean_scenario_secs).ceil();
    if !estimate.is_finite() || estimate <= 1.0 {
        1
    } else if estimate >= 60.0 {
        60
    } else {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            estimate as u64
        }
    }
}

/// Derives the shed Retry-After from live telemetry: the mean of the
/// process-wide scenario wall-time histogram (the same series
/// `install_campaign_metrics` records into — re-fetching by name and
/// identical registration dedupes onto it), falling back to one second
/// per queued job before the first scenario completes.
fn shed_retry_after(queued: usize) -> u64 {
    let wall = chunkpoint_telemetry::global().histogram(
        "campaign_scenario_wall_seconds",
        &SCENARIO_WALL_BUCKETS,
        "Wall-clock execution time of completed scenarios",
    );
    let completed = wall.count();
    #[allow(clippy::cast_precision_loss)]
    let mean = if completed == 0 {
        1.0
    } else {
        wall.sum() / completed as f64
    };
    retry_after_hint(queued, mean)
}

fn submit(request: &Request, manager: &JobManager) -> Response {
    let value = match JsonValue::parse(&request.body) {
        Ok(value) => value,
        Err(e) => return Response::error(400, &format!("body is not JSON: {e}")),
    };
    let spec = match CampaignSpec::from_json(&value) {
        Ok(spec) => spec,
        Err(e) => return Response::error(400, &e),
    };
    match manager.submit(&spec) {
        Ok(submission) => {
            let status = if submission.cached { 200 } else { 202 };
            let doc = submission
                .status
                .to_json()
                .field("cached", submission.cached)
                .field("created", submission.created);
            Response::json(status, doc.render())
        }
        // 400 is reserved for "the spec itself is bad" (every replica
        // would refuse it); overload (429) and this backend's own
        // trouble (500/503) are retryable elsewhere, so shard
        // coordinators re-dispatch instead of aborting the campaign.
        Err(ref error @ SubmitError::Shed { queued, .. }) => {
            Response::error(429, &error.to_string()).with_retry_after(shed_retry_after(queued))
        }
        Err(ref error @ SubmitError::ShuttingDown) => Response::error(503, &error.to_string()),
        Err(SubmitError::Store(detail)) => Response::error(500, &detail),
        Err(SubmitError::Invalid(detail)) => Response::error(400, &detail),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_routes_split() {
        assert_eq!(
            campaign_route("/campaigns/0123456789abcdef"),
            Some(("0123456789abcdef", None))
        );
        assert_eq!(
            campaign_route("/campaigns/0123456789abcdef/result"),
            Some(("0123456789abcdef", Some("result")))
        );
        assert_eq!(campaign_route("/healthz"), None);
        // Traversal-shaped ids never reach the store (valid_id gate).
        let (id, _) = campaign_route("/campaigns/../../etc/passwd").unwrap();
        assert!(!JobStore::valid_id(id));
    }

    #[test]
    fn only_a_wait_ms_query_is_accepted() {
        assert_eq!(
            split_wait("/campaigns/0123456789abcdef").ok(),
            Some(("/campaigns/0123456789abcdef", None))
        );
        assert_eq!(
            split_wait("/campaigns/0123456789abcdef?wait_ms=250").ok(),
            Some((
                "/campaigns/0123456789abcdef",
                Some(Duration::from_millis(250))
            ))
        );
        for bad in ["?wait_ms=x", "?foo=1", "?wait_ms=", "?wait_ms=-1", "?"] {
            let target = format!("/campaigns/0123456789abcdef{bad}");
            let status = split_wait(&target).err().map(|response| response.status);
            assert_eq!(status, Some(400), "{bad}");
        }
    }

    #[test]
    fn retry_after_scales_with_queue_depth_and_clamps() {
        // Floor: empty-ish queues and unmeasured means never advertise 0.
        assert_eq!(retry_after_hint(0, 2.5), 1);
        assert_eq!(retry_after_hint(3, 0.0), 1);
        // Proportional region: ceil(queued × mean).
        assert_eq!(retry_after_hint(4, 1.0), 4);
        assert_eq!(retry_after_hint(7, 0.5), 4);
        assert_eq!(retry_after_hint(10, 2.0), 20);
        // Ceiling: a deep queue of slow campaigns caps at a minute.
        assert_eq!(retry_after_hint(500, 30.0), 60);
        // Degenerate means degrade to the floor, never a panic.
        assert_eq!(retry_after_hint(10, f64::NAN), 1);
        assert_eq!(retry_after_hint(10, f64::INFINITY), 1);
    }

    #[test]
    fn shed_retry_after_uses_the_live_histogram_mean() {
        // The fallback before any scenario completes in this process
        // is one second per queued job (still clamped).
        let hint = shed_retry_after(2);
        assert!((1..=60).contains(&hint), "hint {hint} escaped the clamp");
        // Feed the shared histogram a completion and the hint tracks
        // the (now measured) mean. Other tests in this process may
        // also have observed scenarios, so assert the clamp bounds
        // rather than an exact product.
        chunkpoint_telemetry::global()
            .histogram(
                "campaign_scenario_wall_seconds",
                &SCENARIO_WALL_BUCKETS,
                "Wall-clock execution time of completed scenarios",
            )
            .observe(0.5);
        let hint = shed_retry_after(120);
        assert!((1..=60).contains(&hint), "hint {hint} escaped the clamp");
    }
}
