//! The service's metric surface: per-endpoint request counters and
//! latency histograms, job-lifecycle counters, and the journal/cache
//! counters — all registered once in the process-wide registry and
//! rendered by `GET /metrics`.
//!
//! Handles are acquired once at first use ([`metrics`] is a
//! `OnceLock`), so the per-request cost is the lock-free atomic adds in
//! [`chunkpoint_telemetry::registry`]. Everything here is out-of-band:
//! no campaign result depends on any of these series.

use std::sync::{Arc, OnceLock};

use chunkpoint_telemetry::{global, Counter, Histogram, LATENCY_BUCKETS};

/// The request-classification label set: every request maps onto one of
/// these endpoint names (unknown routes and protocol violations fall
/// into `other`/`bad` so the scrape's totals still add up).
pub const ENDPOINTS: [&str; 10] = [
    "healthz", "metrics", "shutdown", "submit", "status", "journal", "result", "delete", "other",
    "bad",
];

/// Classifies a parsed request into its endpoint label.
#[must_use]
pub fn endpoint_of(method: &str, target: &str) -> &'static str {
    let path = target.split_once('?').map_or(target, |(path, _)| path);
    match (method, path) {
        ("GET", "/healthz") => "healthz",
        ("GET", "/metrics") => "metrics",
        ("POST", "/shutdown") => "shutdown",
        ("POST", "/campaigns") => "submit",
        (method, path) if path.starts_with("/campaigns/") => {
            match (method, path.rsplit_once('/').map(|(_, tail)| tail)) {
                ("GET", Some("journal")) => "journal",
                ("GET", Some("result")) => "result",
                ("GET", _) => "status",
                ("DELETE", _) => "delete",
                _ => "other",
            }
        }
        _ => "other",
    }
}

/// The service's registered metric handles.
#[derive(Debug)]
pub struct ServeMetrics {
    requests: Vec<(&'static str, Arc<Counter>, Arc<Histogram>)>,
    /// New jobs admitted and enqueued.
    pub jobs_submitted: Arc<Counter>,
    /// Submissions answered from the finished-result cache.
    pub jobs_cached: Arc<Counter>,
    /// Journaled jobs re-enqueued at startup recovery.
    pub jobs_recovered: Arc<Counter>,
    /// Submissions refused by admission control (the 429 path).
    pub jobs_shed: Arc<Counter>,
    /// Requests dropped at a read deadline (the 408 slow-loris path).
    pub request_timeouts: Arc<Counter>,
    /// Scenario rows sealed into job journals.
    pub journal_rows: Arc<Counter>,
    /// `GET /campaigns/:id/result` responses served from the cache.
    pub result_cache_hits: Arc<Counter>,
}

impl ServeMetrics {
    fn new() -> Self {
        let registry = global();
        let requests = ENDPOINTS
            .iter()
            .map(|&endpoint| {
                (
                    endpoint,
                    registry.counter_with(
                        "serve_requests_total",
                        &[("endpoint", endpoint)],
                        "HTTP requests handled, by endpoint",
                    ),
                    registry.histogram_with(
                        "serve_request_seconds",
                        &[("endpoint", endpoint)],
                        &LATENCY_BUCKETS,
                        "Request handling latency, by endpoint",
                    ),
                )
            })
            .collect();
        Self {
            requests,
            jobs_submitted: registry.counter(
                "serve_jobs_submitted_total",
                "New campaign jobs admitted and enqueued",
            ),
            jobs_cached: registry.counter(
                "serve_jobs_cached_total",
                "Submissions answered from the finished-result cache",
            ),
            jobs_recovered: registry.counter(
                "serve_jobs_recovered_total",
                "Journaled jobs re-enqueued by startup recovery",
            ),
            jobs_shed: registry.counter(
                "serve_jobs_shed_total",
                "Submissions refused by admission control (429)",
            ),
            request_timeouts: registry.counter(
                "serve_request_timeouts_total",
                "Requests dropped at a read deadline (408)",
            ),
            journal_rows: registry.counter(
                "serve_journal_rows_total",
                "Scenario rows sealed into job journals",
            ),
            result_cache_hits: registry.counter(
                "serve_result_cache_hits_total",
                "Result requests served from the cached report",
            ),
        }
    }

    /// Records one handled request: bumps the endpoint's counter and
    /// observes its latency.
    pub fn observe_request(&self, endpoint: &str, seconds: f64) {
        if let Some((_, counter, histogram)) =
            self.requests.iter().find(|(name, _, _)| *name == endpoint)
        {
            counter.inc();
            histogram.observe(seconds);
        }
    }
}

static METRICS: OnceLock<ServeMetrics> = OnceLock::new();

/// The service's metric handles, registered on first use.
pub fn metrics() -> &'static ServeMetrics {
    METRICS.get_or_init(ServeMetrics::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_classify() {
        assert_eq!(endpoint_of("GET", "/healthz"), "healthz");
        assert_eq!(endpoint_of("GET", "/metrics"), "metrics");
        assert_eq!(endpoint_of("POST", "/shutdown"), "shutdown");
        assert_eq!(endpoint_of("POST", "/campaigns"), "submit");
        assert_eq!(endpoint_of("GET", "/campaigns/0123456789abcdef"), "status");
        assert_eq!(
            endpoint_of("GET", "/campaigns/0123456789abcdef?wait_ms=400"),
            "status"
        );
        assert_eq!(
            endpoint_of("GET", "/campaigns/0123456789abcdef/journal"),
            "journal"
        );
        assert_eq!(
            endpoint_of("GET", "/campaigns/0123456789abcdef/result"),
            "result"
        );
        assert_eq!(
            endpoint_of("DELETE", "/campaigns/0123456789abcdef"),
            "delete"
        );
        assert_eq!(endpoint_of("PUT", "/campaigns"), "other");
        assert_eq!(endpoint_of("GET", "/nope"), "other");
    }

    #[test]
    fn every_endpoint_label_is_pre_registered() {
        for endpoint in ENDPOINTS {
            metrics().observe_request(endpoint, 0.001);
        }
        let text = chunkpoint_telemetry::render_text(global());
        for endpoint in ENDPOINTS {
            assert!(
                text.contains(&format!("serve_requests_total{{endpoint=\"{endpoint}\"}}")),
                "missing endpoint {endpoint} in scrape"
            );
        }
    }
}
