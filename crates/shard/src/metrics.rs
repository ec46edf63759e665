//! Coordinator-side telemetry handles: per-backend dispatch and
//! breaker counters plus the poll-sweep counter, registered against
//! the process-wide [`chunkpoint_telemetry::global`] registry.
//!
//! All of it is strictly out of band — the counters observe the
//! dispatch loop, they never steer it, so a sharded run's merged
//! report stays byte-identical with telemetry scraped or ignored.

use std::sync::Arc;

use chunkpoint_telemetry::Counter;

/// The per-backend counter family of one sharded run. The registry
/// dedupes by `(name, labels)`, so successive runs against the same
/// backend accumulate into the same series — scrape deltas, not
/// absolutes, across runs.
pub(crate) struct BackendTelemetry {
    /// Sub-spec submissions sent to this backend (re-dispatches
    /// included).
    pub dispatches: Arc<Counter>,
    /// Shards moved *to* this backend after a failure elsewhere (or a
    /// breaker opening here sent them away and a probe brought one
    /// back).
    pub redispatches: Arc<Counter>,
    /// Failed exchanges charged against this backend's breaker.
    pub strikes: Arc<Counter>,
    /// Times this backend's circuit breaker opened (first open and
    /// every re-open after a failed half-open probe).
    pub breaker_opens: Arc<Counter>,
}

/// Registers (or re-resolves) the counter family for one backend
/// address.
pub(crate) fn backend_telemetry(addr: &str) -> BackendTelemetry {
    let registry = chunkpoint_telemetry::global();
    let labels = &[("backend", addr)];
    BackendTelemetry {
        dispatches: registry.counter_with(
            "shard_dispatches_total",
            labels,
            "Sub-spec submissions per backend, re-dispatches included",
        ),
        redispatches: registry.counter_with(
            "shard_redispatches_total",
            labels,
            "Shards re-dispatched to this backend after a failure",
        ),
        strikes: registry.counter_with(
            "shard_backend_strikes_total",
            labels,
            "Failed exchanges charged against this backend's circuit breaker",
        ),
        breaker_opens: registry.counter_with(
            "shard_breaker_opens_total",
            labels,
            "Circuit-breaker open transitions per backend",
        ),
    }
}

/// The coordinator's poll-sweep counter — one increment per pass over
/// the outstanding shards; a job that outlasts the wait bound costs one
/// sweep per bound.
pub(crate) fn poll_sweeps() -> Arc<Counter> {
    chunkpoint_telemetry::global().counter(
        "shard_poll_sweeps_total",
        "Coordinator poll sweeps over the outstanding shards",
    )
}

/// The result-cache counter family of a cache-configured run: one hit
/// per range spliced from disk, one miss per shard that had to be
/// dispatched, and the row count the splices saved from re-execution.
pub(crate) struct CacheTelemetry {
    /// Shard ranges served whole from the result cache.
    pub hits: Arc<Counter>,
    /// Shards dispatched because the cache had no sealed range for
    /// them (only counted when a cache is configured).
    pub misses: Arc<Counter>,
    /// Journal rows spliced into merges from the cache.
    pub rows_spliced: Arc<Counter>,
}

/// Registers (or re-resolves) the cache-eviction counter: range files
/// removed by [`RangeCache::gc`](crate::RangeCache::gc) budget sweeps
/// (the `--cache-max-bytes` path).
#[must_use]
pub fn cache_evictions() -> Arc<Counter> {
    chunkpoint_telemetry::global().counter(
        "shard_cache_evictions_total",
        "Result-cache range files evicted by gc budget sweeps",
    )
}

/// Registers (or re-resolves) the result-cache counters.
pub(crate) fn cache_telemetry() -> CacheTelemetry {
    let registry = chunkpoint_telemetry::global();
    CacheTelemetry {
        hits: registry.counter(
            "shard_cache_hits_total",
            "Shard ranges spliced whole from the coordinator result cache",
        ),
        misses: registry.counter(
            "shard_cache_misses_total",
            "Shards dispatched for lack of a sealed cache range",
        ),
        rows_spliced: registry.counter(
            "shard_cache_rows_spliced_total",
            "Journal rows served from the coordinator result cache",
        ),
    }
}
