//! The shard coordinator: split one campaign across several `serve`
//! backends, survive backend failures, and merge the journals back into
//! the canonical single-machine report.
//!
//! The dispatch loop is deliberately simple because determinism does all
//! the heavy lifting: a shard is a [`CampaignSpec`] with a
//! `scenario_range` restriction, every scenario's seed derives from
//! `(campaign_seed, global_index)`, so *where* and *how many times* a
//! range runs cannot change a single byte of its rows. Re-dispatching a
//! failed shard to any other backend — or the same one — is therefore
//! always safe, and the merged report is byte-identical to an unsharded
//! run no matter which backends did the work or in what order they
//! finished.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use chunkpoint_campaign::rows::{exact_cover, RangeRows};
use chunkpoint_campaign::{
    canonical_report_json, CampaignEvent, CampaignSpec, CancelToken, JsonValue, Scenario,
    ScenarioResult,
};
use chunkpoint_serve::REPORT_AXES;
use chunkpoint_telemetry::{Span, Tracer};

use crate::breaker::{Backoff, CircuitBreaker};
use crate::cache::RangeCache;
use crate::client::exchange;
use crate::metrics::{backend_telemetry, cache_telemetry, poll_sweeps, BackendTelemetry};
use crate::partition::{partition, partition_weighted};

/// Coordinator knobs. The defaults suit a LAN of `serve` instances.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Base pause between poll sweeps over the outstanding shards. The
    /// actual sleep follows the deterministic [`Backoff`] schedule:
    /// `poll_interval` while the run makes progress, doubling (with
    /// seeded jitter) toward [`ShardConfig::poll_max`] across idle
    /// sweeps.
    pub poll_interval: Duration,
    /// Connect/read/write timeout of every HTTP exchange.
    pub request_timeout: Duration,
    /// Consecutive failed exchanges that open a backend's circuit
    /// breaker (its shards re-dispatch to ready backends; the breaker
    /// half-open-probes it on the cooldown schedule).
    pub backend_strikes: u32,
    /// Submission attempts one shard may burn (first dispatch included)
    /// before the run gives up — the terminator for a range that fails
    /// *deterministically* on every backend (a scenario that panics, a
    /// full disk everywhere), which transport strikes alone would
    /// ping-pong forever.
    pub shard_attempts: u32,
    /// Cap of the idle-sweep poll backoff.
    pub poll_max: Duration,
    /// Base cooldown of a backend's circuit breaker when it opens; each
    /// consecutive re-open doubles it (with seeded jitter).
    pub breaker_cooldown: Duration,
    /// Cap of the breaker cooldown ladder.
    pub breaker_max: Duration,
    /// Seed of the deterministic backoff jitter schedules — same seed,
    /// same poll cadence and same cooldowns, every run.
    pub backoff_seed: u64,
    /// Trace sink of the run's dispatch decisions. The default —
    /// [`Tracer::disabled`] — costs nothing; a live tracer turns every
    /// dispatch, re-dispatch, failure, breaker transition, and
    /// completed shard into a structured span event. Strictly out of
    /// band: the report bytes cannot change with tracing on or off.
    pub tracer: Tracer,
    /// Root of the coordinator's range-granular result cache
    /// ([`RangeCache`]). When set, the planner consults the cache
    /// before dispatching: ranges whose sealed rows are already on disk
    /// are spliced into the merge ([`CampaignEvent::CacheHit`]) instead of
    /// re-executed, and every shard that *does* seal writes its rows
    /// back. `None` (the default) disables caching entirely. Cached
    /// rows are validated against the spec's own grid (index + derived
    /// seed) before splicing, so the report bytes are identical with the
    /// cache cold, warm, or structurally damaged; a row's measurements
    /// are not checked (see [`RangeCache`]).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            poll_interval: Duration::from_millis(25),
            request_timeout: Duration::from_secs(10),
            backend_strikes: 3,
            shard_attempts: 5,
            poll_max: Duration::from_millis(400),
            breaker_cooldown: Duration::from_millis(100),
            breaker_max: Duration::from_secs(2),
            backoff_seed: 0,
            tracer: Tracer::disabled(),
            cache_dir: None,
        }
    }
}

/// What a sharded run salvaged before giving up: the graceful-degradation
/// payload of [`ExecError::Exhausted`]. Ranges that completed (fetched
/// and row-validated) are reported with their rows and a canonical
/// report over just those rows — so an operator keeps the finished
/// slices of an overnight campaign instead of an opaque error, and a
/// re-run against healthy backends is instant for them (result cache).
#[derive(Debug, Clone)]
pub struct PartialCampaign {
    /// Scenario ranges `[start, end)` whose journals were fetched and
    /// validated, in range order.
    pub completed_ranges: Vec<(usize, usize)>,
    /// The validated rows of those ranges, in global scenario-index
    /// order.
    pub results: Vec<ScenarioResult>,
    /// [`canonical_report_json`] rendered over the salvaged rows only —
    /// byte-deterministic for a given set of completed ranges, but
    /// **not** the full campaign's report.
    pub report_so_far: String,
}

impl PartialCampaign {
    /// Scenarios salvaged.
    #[must_use]
    pub fn scenarios(&self) -> usize {
        self.results.len()
    }
}

/// Why a campaign did not produce its report — the one error enum of
/// the shard coordinator and of every `chunkpoint_exec` executor, which
/// re-exports it.
#[derive(Debug)]
pub enum ExecError {
    /// The executor has no backends to run on.
    NoBackends,
    /// The spec itself was refused — an unenumerable grid, invalid
    /// weights, or a backend 4xx. Retrying cannot help; every backend
    /// would say the same.
    Rejected {
        /// The refusing backend, if one was involved.
        backend: Option<String>,
        /// The HTTP status, if the refusal came over the wire.
        status: Option<u16>,
        /// What was wrong.
        detail: String,
    },
    /// Every backend or dispatch attempt was exhausted with work still
    /// outstanding. The work that *did* finish is not thrown away:
    /// `partial` carries the completed ranges, their validated rows,
    /// and a canonical report over them (empty when nothing completed).
    Exhausted {
        /// What the executor saw last.
        detail: String,
        /// Completed ranges, validated rows, and the report over them.
        partial: Box<PartialCampaign>,
    },
    /// The campaign's worker panicked.
    JobFailed {
        /// The panic message.
        detail: String,
    },
    /// The collected rows do not cover the scenarios this run was to
    /// execute exactly once each.
    BadMerge {
        /// What did not line up.
        detail: String,
    },
    /// The run was cancelled through its [`CancelToken`]. Outstanding
    /// shard jobs received a best-effort `DELETE` so their backends
    /// stop working; already-completed shards stay cached on theirs.
    Cancelled,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::NoBackends => write!(f, "no backends to execute on"),
            ExecError::Rejected {
                backend,
                status,
                detail,
            } => {
                write!(f, "spec rejected")?;
                if let Some(backend) = backend {
                    write!(f, " by {backend}")?;
                }
                if let Some(status) = status {
                    write!(f, " ({status})")?;
                }
                write!(f, ": {detail}")
            }
            ExecError::Exhausted { detail, partial } => write!(
                f,
                "backends exhausted: {detail} ({} scenarios salvaged across {} completed ranges)",
                partial.scenarios(),
                partial.completed_ranges.len()
            ),
            ExecError::JobFailed { detail } => write!(f, "campaign failed: {detail}"),
            ExecError::BadMerge { detail } => write!(f, "result merge failed: {detail}"),
            ExecError::Cancelled => write!(f, "campaign cancelled"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Fetches `GET /campaigns/:id/journal` from `addr` and admits its
/// rows for the half-open scenario `range` of `grid` under the
/// [`chunkpoint_campaign::rows`] rules: every row must carry this
/// campaign's `(index, derived seed)` inside the range, the first copy
/// of a repeated index wins (journals are completion-ordered and may
/// repeat an index across a resume), and the range must be covered
/// exactly. Returns the rows in scenario-index order.
///
/// This is the trust boundary every remote run goes through: a
/// backend's journal is never merged without checking out row by row.
///
/// # Errors
///
/// A rendered description of the transport failure, non-200 answer, or
/// validation failure — the caller decides whether that means a strike,
/// a re-dispatch, or a typed error.
pub fn fetch_journal_rows(
    addr: &str,
    id: &str,
    grid: &[Scenario],
    range: (usize, usize),
    timeout: Duration,
) -> Result<Vec<ScenarioResult>, String> {
    let (status, body) = exchange(
        addr,
        "GET",
        &format!("/campaigns/{id}/journal"),
        None,
        timeout,
    )
    .map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("journal fetch answered {status}: {body}"));
    }
    let doc = JsonValue::parse(&body).map_err(|e| format!("journal is not JSON: {e}"))?;
    let rows = doc
        .get("rows")
        .and_then(JsonValue::as_array)
        .ok_or("journal document has no \"rows\" array")?;
    let mut admitted = RangeRows::new(grid, range.0..range.1);
    for row in rows {
        admitted.admit(row)?;
    }
    admitted.into_exact()
}

/// A completed sharded campaign.
#[derive(Debug)]
pub struct ShardRun {
    /// The canonical timing-free report — byte-identical to
    /// `canonical_report_json` of an unsharded single-threaded run.
    pub report: String,
    /// Merged per-scenario rows in global scenario-index order.
    pub results: Vec<ScenarioResult>,
    /// Ranges the grid was split into.
    pub shards: usize,
    /// Sub-spec submissions, including re-dispatches (`> shards` means
    /// at least one shard moved).
    pub dispatches: usize,
    /// Failed exchanges and failed jobs observed along the way.
    pub failures: usize,
    /// Rows served from the result cache instead of being executed
    /// (`0` without a [`ShardConfig::cache_dir`] or on a cold cache).
    pub spliced: usize,
}

/// Merges per-shard journal rows into the canonical campaign report.
///
/// The merge — not shard arrival order — defines the report's ordering:
/// rows sort by **global scenario index**, so any assignment of ranges
/// to backends, any completion order, and any interleaving of journal
/// fetches produce the same bytes. `grid_len` is the full campaign's
/// scenario count; the merged rows must cover `0..grid_len` exactly
/// once each.
///
/// # Errors
///
/// [`ExecError::BadMerge`] on duplicate, missing, or out-of-grid rows.
pub fn merged_report(
    campaign_seed: u64,
    grid_len: usize,
    rows: Vec<ScenarioResult>,
) -> Result<(String, Vec<ScenarioResult>), ExecError> {
    merged_report_over(campaign_seed, 0..grid_len, rows)
}

/// [`merged_report`] generalized to a ranged campaign: the merged rows
/// must cover exactly the half-open `active` scenario range — the
/// execution slice of a spec with a `scenario_range` restriction (the
/// whole grid for an unranged spec). Every execution path checks and
/// renders its rows here.
///
/// # Errors
///
/// [`ExecError::BadMerge`] on duplicate, missing, or out-of-range rows.
pub fn merged_report_over(
    campaign_seed: u64,
    active: Range<usize>,
    rows: Vec<ScenarioResult>,
) -> Result<(String, Vec<ScenarioResult>), ExecError> {
    let rows = exact_cover(active, rows).map_err(|detail| ExecError::BadMerge { detail })?;
    let report = canonical_report_json(campaign_seed, &rows, &REPORT_AXES).render();
    Ok((report, rows))
}

/// One backend and its circuit breaker.
struct Backend {
    addr: String,
    breaker: CircuitBreaker,
}

/// One contiguous slice of the grid and where it currently lives.
struct Shard {
    range: (usize, usize),
    backend: usize,
    job_id: Option<String>,
    rows: Option<Vec<ScenarioResult>>,
    /// Submissions burned so far (bounded by `shard_attempts`).
    attempts: u32,
    /// Highest `completed` count a status poll reported for the range —
    /// the shard's share of live progress until it seals.
    progress: usize,
    /// Failed exchanges charged to this shard (bounded by the failure
    /// budget) — the terminator for a fleet whose breakers keep
    /// half-open-probing dead backends forever.
    failures: u32,
}

/// The coordinator state machine driving [`run_sharded_ctl`].
struct Dispatcher<'a> {
    spec: &'a CampaignSpec,
    /// The full grid, enumerated once — journal validation needs every
    /// row's expected scenario (index + derived seed).
    grid: &'a [Scenario],
    config: &'a ShardConfig,
    /// Epoch of the breaker clock: every breaker transition is stamped
    /// with `epoch.elapsed()`.
    epoch: Instant,
    backends: Vec<Backend>,
    shards: Vec<Shard>,
    /// Scenarios this run executes — the `total` of every `Progress`.
    total: usize,
    dispatches: usize,
    failures: usize,
    /// Live event sink.
    sink: &'a mut dyn FnMut(&CampaignEvent),
    /// Per-backend counters, index-aligned with `backends`.
    telemetry: Vec<BackendTelemetry>,
    /// The run's trace span; every dispatch decision doubles as a
    /// structured span event (no-op under a disabled tracer).
    span: Span,
    /// The result cache, when [`ShardConfig::cache_dir`] is set. Read
    /// during planning; written from [`Dispatcher::seal`] on every
    /// sealed shard — the one place every completion passes through.
    cache: Option<RangeCache>,
}

impl Dispatcher<'_> {
    /// The breaker clock.
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Failed exchanges one shard may absorb before the run gives up.
    /// Derived rather than a knob: enough for every backend to strike
    /// out once per dispatch attempt.
    fn failure_budget(&self) -> u32 {
        self.config.shard_attempts.max(1) * self.config.backend_strikes.max(1)
    }

    /// Records a dispatch decision: mirrors it onto the trace span and
    /// hands it to the live sink.
    fn emit(&mut self, event: &CampaignEvent) {
        self.trace(event);
        (self.sink)(event);
    }

    /// The trace-span mirror of one dispatch decision. Field values are
    /// the event's own data — no timing — so the record *structure* is
    /// deterministic for a deterministic dispatch history.
    fn trace(&self, event: &CampaignEvent) {
        if !self.span.is_traced() {
            return;
        }
        let placed = |shard: usize, (start, end): (usize, usize)| {
            JsonValue::object()
                .field("shard", shard)
                .field("start", start)
                .field("end", end)
        };
        let (name, fields) = match event {
            CampaignEvent::ShardDispatched {
                shard,
                range,
                backend,
            } => (
                "dispatched",
                placed(*shard, *range).field("backend", backend.as_str()),
            ),
            CampaignEvent::ShardRedispatched {
                shard,
                range,
                backend,
            } => (
                "redispatched",
                placed(*shard, *range).field("backend", backend.as_str()),
            ),
            CampaignEvent::ShardFailed {
                shard: None,
                backend,
                why,
            } => (
                "backend_dead",
                JsonValue::object()
                    .field("backend", backend.as_str())
                    .field("why", why.as_str()),
            ),
            CampaignEvent::ShardFailed {
                shard: Some(shard),
                backend,
                why,
            } => (
                "shard_failed",
                JsonValue::object()
                    .field("shard", *shard)
                    .field("backend", backend.as_str())
                    .field("why", why.as_str()),
            ),
            CampaignEvent::CacheHit { shard, range, rows } => {
                ("cache_hit", placed(*shard, *range).field("rows", *rows))
            }
            _ => return,
        };
        self.span.event(name, fields);
    }

    /// Seals a shard with its fetched, validated rows: writes them back
    /// to the result cache and delivers them — the one place every
    /// executed shard's completion passes through.
    fn seal(&mut self, shard: usize, backend: &str, rows: Vec<ScenarioResult>) {
        let (start, end) = self.shards[shard].range;
        // Strictly best effort: a full disk degrades the next run to a
        // miss, it never fails this one.
        if let Some(cache) = &self.cache {
            if let Err(why) = cache.store(self.spec, (start, end), &rows) {
                if self.span.is_traced() {
                    self.span.event(
                        "cache_write_failed",
                        JsonValue::object()
                            .field("start", start)
                            .field("end", end)
                            .field("why", why.to_string().as_str()),
                    );
                }
            }
        }
        if self.span.is_traced() {
            self.span.event(
                "shard_done",
                JsonValue::object()
                    .field("shard", shard)
                    .field("start", start)
                    .field("end", end)
                    .field("backend", backend)
                    .field("rows", rows.len()),
            );
        }
        self.deliver(shard, rows);
    }

    /// Streams a sealed shard's rows to the sink, one `ScenarioDone`
    /// each and then a `Progress`, and keeps them for the merge.
    fn deliver(&mut self, shard: usize, rows: Vec<ScenarioResult>) {
        for row in &rows {
            (self.sink)(&CampaignEvent::ScenarioDone(row.clone()));
        }
        self.shards[shard].rows = Some(rows);
        self.progress();
    }

    /// Raises a running shard's progress to its job's reported
    /// `completed` count, emitting `Progress` when it rose. A high-water
    /// mark: a re-dispatched job counting again from zero never makes
    /// `done` go backwards.
    fn advance(&mut self, shard: usize, completed: usize) {
        let (start, end) = self.shards[shard].range;
        if completed > self.shards[shard].progress && completed <= end - start {
            self.shards[shard].progress = completed;
            self.progress();
        }
    }

    /// Emits the run's `Progress`: sealed shards count whole, running
    /// ones by their high-water mark.
    fn progress(&mut self) {
        let done = self
            .shards
            .iter()
            .map(|shard| shard.rows.as_ref().map_or(shard.progress, Vec::len))
            .sum();
        let total = self.total;
        (self.sink)(&CampaignEvent::Progress { done, total });
    }

    /// Builds the typed give-up error: what completed so far rides
    /// along as a [`PartialCampaign`] instead of being thrown away.
    fn exhausted(&self, detail: String) -> ExecError {
        let mut completed_ranges: Vec<(usize, usize)> = Vec::new();
        let mut results: Vec<ScenarioResult> = Vec::new();
        for shard in &self.shards {
            if let Some(rows) = &shard.rows {
                completed_ranges.push(shard.range);
                results.extend(rows.iter().cloned());
            }
        }
        completed_ranges.sort_unstable();
        results.sort_by_key(|r| r.scenario.index);
        let report_so_far =
            canonical_report_json(self.spec.campaign_seed, &results, &REPORT_AXES).render();
        ExecError::Exhausted {
            detail,
            partial: Box::new(PartialCampaign {
                completed_ranges,
                results,
                report_so_far,
            }),
        }
    }

    /// Records a failed exchange against a backend on behalf of a
    /// shard: feeds the backend's breaker (emitting `ShardFailed {
    /// shard: None, .. }` the first time it opens) and charges the
    /// shard's failure budget, turning budget exhaustion into the typed
    /// [`ExecError::Exhausted`].
    fn fail(&mut self, shard: usize, backend: usize, why: &str) -> Result<(), ExecError> {
        self.failures += 1;
        self.telemetry[backend].strikes.inc();
        let now = self.now();
        let opened = self.backends[backend].breaker.record_failure(now);
        if opened {
            self.telemetry[backend].breaker_opens.inc();
            if self.span.is_traced() {
                self.span.event(
                    "breaker_open",
                    JsonValue::object()
                        .field("backend", self.backends[backend].addr.as_str())
                        .field("opens", u64::from(self.backends[backend].breaker.opens()))
                        .field("why", why),
                );
            }
        }
        if opened && self.backends[backend].breaker.opens() == 1 {
            let addr = self.backends[backend].addr.clone();
            self.emit(&CampaignEvent::ShardFailed {
                shard: None,
                backend: addr,
                why: why.to_owned(),
            });
        }
        self.shards[shard].failures += 1;
        if self.shards[shard].failures >= self.failure_budget() {
            let (start, end) = self.shards[shard].range;
            return Err(self.exhausted(format!(
                "shard {shard} [{start}, {end}) burned its budget of {} failed exchanges \
                 (last: {why})",
                self.failure_budget()
            )));
        }
        Ok(())
    }

    /// Whether `backend` may be sent a request right now (breaker
    /// closed, or half-open for a probe).
    fn ready(&self, backend: usize) -> bool {
        self.backends[backend].breaker.ready(self.now())
    }

    /// Picks the next ready backend for a shard, preferring anyone
    /// other than `avoid`; falls back to `avoid` itself if it is the
    /// only one ready (a failed *job* on a live backend resumes from
    /// its own journal there). With every breaker open the shard simply
    /// waits — the next half-open probe re-dispatches it, and the
    /// failure budget bounds how long the waiting can go on.
    fn reassign(&mut self, shard: usize, avoid: usize) -> Result<(), ExecError> {
        let k = self.backends.len();
        let target = (1..k)
            .map(|offset| (avoid + offset) % k)
            .find(|&candidate| self.ready(candidate))
            .or_else(|| self.ready(avoid).then_some(avoid));
        let Some(target) = target else {
            return Ok(()); // everyone cooling down; wait for a probe window
        };
        if target == avoid && self.shards[shard].job_id.is_some() {
            // Nowhere better to go and the job is still live there:
            // keep polling it rather than re-submitting in place.
            return Ok(());
        }
        self.telemetry[target].redispatches.inc();
        self.emit(&CampaignEvent::ShardRedispatched {
            shard,
            range: self.shards[shard].range,
            backend: self.backends[target].addr.clone(),
        });
        self.shards[shard].backend = target;
        self.shards[shard].job_id = None;
        Ok(())
    }

    /// Submits a shard's sub-spec to its assigned backend. An accepted
    /// job records its id; a 4xx refusal is fatal; every other answer
    /// is charged to the backend and moves the shard.
    fn submit(&mut self, shard: usize) -> Result<(), ExecError> {
        let (start, end) = self.shards[shard].range;
        if self.shards[shard].attempts >= self.config.shard_attempts {
            return Err(self.exhausted(format!(
                "shard {shard} [{start}, {end}) burned all {} dispatch attempts",
                self.config.shard_attempts
            )));
        }
        self.shards[shard].attempts += 1;
        let backend = self.shards[shard].backend;
        let body = self
            .spec
            .clone()
            .scenario_range(start, end)
            .to_json()
            .render();
        let addr = self.backends[backend].addr.clone();
        self.dispatches += 1;
        self.telemetry[backend].dispatches.inc();
        let why = match exchange(
            &addr,
            "POST",
            "/campaigns",
            Some(&body),
            self.config.request_timeout,
        ) {
            Ok((status @ (200 | 202), response)) => match JsonValue::parse(&response)
                .ok()
                .as_ref()
                .and_then(|doc| doc.get("id"))
                .and_then(JsonValue::as_str)
            {
                Some(id) => {
                    self.backends[backend].breaker.record_success();
                    self.shards[shard].job_id = Some(id.to_owned());
                    return Ok(());
                }
                None => format!("submit answered {status} with no id"),
            },
            // 429 (admission control shed the submit) and 408 (the
            // backend timed the request out) are about the backend's
            // load, not the spec: retrying — elsewhere, or here after
            // the breaker's cooldown — is exactly right.
            Ok((status @ (408 | 429), response)) => format!("submit answered {status}: {response}"),
            // Any other 4xx is about the sub-spec itself; every backend
            // would say the same, so fail loudly now.
            Ok((status @ 400..=499, body)) => {
                return Err(ExecError::Rejected {
                    backend: Some(addr),
                    status: Some(status),
                    detail: body,
                })
            }
            // Everything else (503 draining, 500 store trouble) is this
            // backend's problem, not the spec's.
            Ok((status, response)) => format!("submit answered {status}: {response}"),
            Err(e) => e.to_string(),
        };
        self.fail(shard, backend, &why)?;
        self.reassign(shard, backend)
    }

    /// Best-effort cancellation of every outstanding shard: `DELETE`
    /// each submitted, unfinished job on its current backend so the
    /// backends stop burning cycles on a campaign nobody is waiting
    /// for. Errors are ignored — an unreachable backend cannot be
    /// asked to stop, and the coordinator is abandoning the run either
    /// way.
    fn cancel_outstanding(&self) {
        for shard in &self.shards {
            if shard.rows.is_some() {
                continue;
            }
            let Some(id) = &shard.job_id else {
                continue;
            };
            let _ = exchange(
                &self.backends[shard.backend].addr,
                "DELETE",
                &format!("/campaigns/{id}"),
                None,
                self.config.request_timeout,
            );
        }
    }

    /// Fetches and validates a finished shard's journal rows.
    fn fetch_rows(&self, shard: usize) -> Result<Vec<ScenarioResult>, String> {
        let addr = &self.backends[self.shards[shard].backend].addr;
        let id = self.shards[shard].job_id.as_deref().expect("polled a job");
        fetch_journal_rows(
            addr,
            id,
            self.grid,
            self.shards[shard].range,
            self.config.request_timeout,
        )
    }

    /// One poll of one outstanding shard. `Ok(())` means "keep going";
    /// shard completion is recorded in place.
    fn poll(&mut self, shard: usize) -> Result<(), ExecError> {
        let backend = self.shards[shard].backend;
        let addr = self.backends[backend].addr.clone();
        let id = self.shards[shard]
            .job_id
            .clone()
            .expect("poll of an unsubmitted shard");
        match exchange(
            &addr,
            "GET",
            &format!("/campaigns/{id}"),
            None,
            self.config.request_timeout,
        ) {
            Ok((200, body)) => {
                self.backends[backend].breaker.record_success();
                let doc = JsonValue::parse(&body).ok();
                let field = |key: &str| doc.as_ref().and_then(|doc| doc.get(key));
                match field("status").and_then(JsonValue::as_str) {
                    Some("done") => match self.fetch_rows(shard) {
                        Ok(rows) => {
                            self.seal(shard, &addr, rows);
                            Ok(())
                        }
                        Err(why) => {
                            // A "done" job whose journal does not check
                            // out is a misbehaving backend: strike it and
                            // run the range somewhere trustworthy.
                            self.fail(shard, backend, &why)?;
                            self.reassign(shard, backend)
                        }
                    },
                    Some("failed") => {
                        self.failures += 1;
                        self.emit(&CampaignEvent::ShardFailed {
                            shard: Some(shard),
                            backend: addr,
                            why: body,
                        });
                        // A failed job never un-fails: drop its id so the
                        // next sweep *resubmits* (elsewhere fresh; on the
                        // same sole surviving backend it re-enqueues and
                        // resumes from the journal) instead of re-polling
                        // the same terminal status forever. Resubmission
                        // is bounded by `shard_attempts`, which is what
                        // terminates a deterministically failing range.
                        self.shards[shard].job_id = None;
                        self.reassign(shard, backend)
                    }
                    // Someone cancelled the shard's job out from under
                    // us (operator DELETE, backend shutdown): clear the
                    // job id so the next sweep resubmits — which
                    // re-enqueues and resumes on the backend, and is
                    // bounded by `shard_attempts` like any dispatch.
                    Some("cancelled") => {
                        self.shards[shard].job_id = None;
                        Ok(())
                    }
                    // Queued / running. A rising `completed` count is live
                    // progress; it does not reset the sweep backoff.
                    Some(_) => {
                        if let Some(completed) = field("completed").and_then(JsonValue::as_u64) {
                            self.advance(shard, completed as usize);
                        }
                        Ok(())
                    }
                    None => {
                        self.fail(shard, backend, "status document has no status")?;
                        self.reassign(shard, backend)
                    }
                }
            }
            // The backend no longer knows the job (restarted over a
            // fresh data dir): submit it again wherever it lives now.
            Ok((404, _)) => {
                self.backends[backend].breaker.record_success();
                self.shards[shard].job_id = None;
                Ok(())
            }
            Ok((status, body)) => {
                self.fail(
                    shard,
                    backend,
                    &format!("status poll answered {status}: {body}"),
                )?;
                self.reassign(shard, backend)
            }
            Err(e) => {
                self.fail(shard, backend, &e.to_string())?;
                // A transient blip on a still-closed breaker keeps the
                // job in place (the next sweep re-polls); an opened
                // breaker moves the shard to whoever is ready.
                if self.ready(backend) {
                    Ok(())
                } else {
                    self.reassign(shard, backend)
                }
            }
        }
    }

    /// One step of one outstanding shard: gate on the backend's
    /// breaker, then submit if needed and poll. A shard on a
    /// cooling-down backend moves to a ready one if there is one, else
    /// waits for the breaker's next probe window.
    fn step(&mut self, shard: usize) -> Result<(), ExecError> {
        let backend = self.shards[shard].backend;
        if !self.ready(backend) {
            self.reassign(shard, backend)?;
            if !self.ready(self.shards[shard].backend) {
                return Ok(()); // still gated: everyone is cooling down
            }
        }
        if self.shards[shard].job_id.is_none() {
            self.submit(shard)?;
            // An accepted job is polled at once, not after a sweep's
            // sleep: a backend that already holds the result seals it
            // straight away.
            if self.shards[shard].job_id.is_none() {
                return Ok(());
            }
        }
        self.poll(shard)
    }
}

/// One planned shard: its backend, its global scenario range, and —
/// for a range served from the result cache — its pre-sealed rows.
type PlannedShard = (usize, (usize, usize), Option<Vec<ScenarioResult>>);

/// The dispatch plan of a run: splits the `active` range at
/// cache-coverage boundaries. Each maximal run of `cached` rows becomes
/// one pre-sealed shard, and each gap partitions across the `backends`
/// on its own — evenly, or by `weights` with empty ranges skipped so
/// range `k` of a gap stays on backend `k` — so scattered coverage (an
/// incremental campaign's translated rows) narrows execution to exactly
/// the uncovered cells. With nothing cached the plan is the classic
/// partition of the whole active range.
fn plan_shards(
    active: Range<usize>,
    mut cached: BTreeMap<usize, ScenarioResult>,
    backends: usize,
    weights: Option<&[f64]>,
) -> Vec<PlannedShard> {
    let mut plan = Vec::new();
    let mut pos = active.start;
    while pos < active.end {
        let covered = cached.contains_key(&pos);
        let mut end = pos + 1;
        while end < active.end && cached.contains_key(&end) == covered {
            end += 1;
        }
        if covered {
            let rows = (pos..end)
                .map(|index| cached.remove(&index).expect("segment is covered"))
                .collect();
            plan.push((0, (pos, end), Some(rows)));
        } else {
            let ranges = match weights {
                Some(weights) => partition_weighted(end - pos, weights),
                None => partition(end - pos, backends),
            };
            for (k, (a, b)) in ranges.into_iter().enumerate() {
                if a < b {
                    plan.push((k, (pos + a, pos + b), None));
                }
            }
        }
        pos = end;
    }
    plan
}

/// Runs `spec` sharded across `backends` (each a `HOST:PORT` of a
/// running `serve` instance): partition the grid into contiguous
/// scenario ranges, submit one ranged sub-spec per backend, poll to
/// completion re-dispatching failed or unreachable shards to the
/// survivors, and merge the journals into the canonical report.
///
/// The returned report is **byte-identical** to
/// [`canonical_report_json`] of an unsharded single-threaded run of
/// `spec` — the invariant `crates/shard/tests/cross_shard.rs` enforces
/// against real killed processes.
///
/// This is the convenience form of [`run_sharded_ctl`]: uniform
/// partitioning, no cancellation, no live event sink.
///
/// # Errors
///
/// See [`ExecError`]. Backend failures are survived as long as one
/// backend lives; spec rejections and exhausted backends are fatal.
pub fn run_sharded(
    spec: &CampaignSpec,
    backends: &[String],
    config: &ShardConfig,
) -> Result<ShardRun, ExecError> {
    run_sharded_ctl(spec, backends, None, config, &CancelToken::new(), |_| {})
}

/// The controllable core of [`run_sharded`]: the same dispatch loop
/// with three extra seams the unified executor API drives — with one
/// backend it is the remote path, with several the sharded one.
///
/// * `weights` — optional per-backend capacity weights (one per
///   backend); the grid partitions proportionally via
///   [`partition_weighted`] instead of evenly. Backends whose share
///   rounds to zero scenarios simply receive no initial shard.
/// * `cancel` — checked between poll sweeps; on cancellation every
///   outstanding shard's job receives a best-effort `DELETE` (so its
///   backend stops working) and the run returns
///   [`ExecError::Cancelled`].
/// * `on_event` — called with every [`CampaignEvent`] the moment it
///   happens: `Progress { done: 0, .. }` first; then dispatches,
///   re-dispatches, backend deaths (`ShardFailed { shard: None, .. }`)
///   and shard failures; each cache splice or sealed shard
///   as its `ScenarioDone` rows followed by `Progress`; and a
///   `Progress` whenever a running job's `completed` count rises.
///
/// With [`ShardConfig::cache_dir`] set, planning consults the
/// range-granular result cache first: sealed ranges on disk become
/// pre-sealed shards ([`CampaignEvent::CacheHit`]) and only the uncovered
/// gaps partition across the backends; every shard that seals writes
/// its rows back. The report bytes are identical either way.
///
/// A parent spec carrying its own `scenario_range` shards only that
/// slice (the scenarios the local and remote execution paths would
/// run), and the merged report covers exactly the slice.
///
/// # Errors
///
/// See [`ExecError`]. Invalid weights and a spec that enumerates no
/// feasible grid are [`ExecError::Rejected`] (no backend, no status),
/// before any backend is contacted.
pub fn run_sharded_ctl(
    spec: &CampaignSpec,
    backends: &[String],
    weights: Option<&[f64]>,
    config: &ShardConfig,
    cancel: &CancelToken,
    mut on_event: impl FnMut(&CampaignEvent),
) -> Result<ShardRun, ExecError> {
    if backends.is_empty() {
        return Err(ExecError::NoBackends);
    }
    let refused = |detail| ExecError::Rejected {
        backend: None,
        status: None,
        detail,
    };
    if let Some(weights) = weights {
        // Value validation here, typed — so a caller's bad weights
        // surface as Rejected, not as partition_weighted's panic.
        let valid = if weights.len() == backends.len() {
            crate::partition::validate_weights(weights)
        } else {
            Err(format!(
                "{} weights for {} backends",
                weights.len(),
                backends.len()
            ))
        };
        valid.map_err(|why| refused(format!("bad backend weights: {why}")))?;
    }
    let grid = spec.try_scenarios().map_err(refused)?;
    // A ranged parent spec shards only its own execution slice — the
    // indices the local and remote paths would run — so the merged
    // report stays byte-identical across executors for ranged specs
    // too. (Unranged specs: the whole grid, as before.)
    let active = spec.active_range(grid.len());
    on_event(&CampaignEvent::Progress {
        done: 0,
        total: active.len(),
    });
    // The result cache, when configured: every sealed range already on
    // disk (validated row by row against this spec's grid) is spliced
    // instead of dispatched.
    let cache = config.cache_dir.as_ref().map(RangeCache::new);
    let cache_stats = cache.as_ref().map(|_| cache_telemetry());
    let cached_rows = cache
        .as_ref()
        .map(|cache| cache.load(spec, &grid))
        .unwrap_or_default();
    let plan = plan_shards(active.clone(), cached_rows, backends.len(), weights);
    let shard_count = plan.len();
    let spliced: usize = plan
        .iter()
        .map(|(_, _, sealed)| sealed.as_ref().map_or(0, Vec::len))
        .sum();
    let breaker_backoff = |index: u64| {
        Backoff::new(
            config.breaker_cooldown,
            config.breaker_max,
            // Per-backend jitter lane: breakers with the same run seed
            // still de-synchronize their probes against each other.
            config.backoff_seed ^ index.wrapping_mul(chunkpoint_campaign::seed::GOLDEN_GAMMA),
        )
    };
    let mut dispatcher = Dispatcher {
        spec,
        grid: &grid,
        config,
        epoch: Instant::now(),
        backends: backends
            .iter()
            .enumerate()
            .map(|(index, addr)| Backend {
                addr: addr.clone(),
                breaker: CircuitBreaker::new(
                    config.backend_strikes,
                    breaker_backoff(index as u64 + 1),
                ),
            })
            .collect(),
        shards: plan
            .iter()
            .map(|&(backend, range, _)| Shard {
                range,
                backend,
                job_id: None,
                rows: None,
                attempts: 0,
                progress: 0,
                failures: 0,
            })
            .collect(),
        total: active.len(),
        dispatches: 0,
        failures: 0,
        sink: &mut on_event,
        telemetry: backends
            .iter()
            .map(|addr| backend_telemetry(addr))
            .collect(),
        span: config.tracer.root("shard_run"),
        cache,
    };
    for (shard, (backend, range, sealed)) in plan.into_iter().enumerate() {
        match sealed {
            Some(rows) => {
                if let Some(stats) = &cache_stats {
                    stats.hits.inc();
                    stats.rows_spliced.add(rows.len() as u64);
                }
                dispatcher.emit(&CampaignEvent::CacheHit {
                    shard,
                    range,
                    rows: rows.len(),
                });
                dispatcher.deliver(shard, rows);
            }
            None => {
                if let Some(stats) = &cache_stats {
                    stats.misses.inc();
                }
                dispatcher.emit(&CampaignEvent::ShardDispatched {
                    shard,
                    range,
                    backend: backends[backend].clone(),
                });
            }
        }
    }
    // Sweep pacing: `poll_interval` while the run makes progress,
    // backing off deterministically toward `poll_max` across idle
    // sweeps — a long-running shard is not hammered at submit cadence.
    let poll_backoff = Backoff::new(config.poll_interval, config.poll_max, config.backoff_seed);
    let sweeps = poll_sweeps();
    let mut idle_sweeps = 0u32;
    loop {
        if cancel.is_cancelled() {
            dispatcher.cancel_outstanding();
            return Err(ExecError::Cancelled);
        }
        let mut outstanding = false;
        let before = (
            dispatcher.dispatches,
            dispatcher.failures,
            dispatcher
                .shards
                .iter()
                .filter(|s| s.rows.is_some())
                .count(),
        );
        for shard in 0..dispatcher.shards.len() {
            if dispatcher.shards[shard].rows.is_some() {
                continue;
            }
            outstanding = true;
            dispatcher.step(shard)?;
        }
        if !outstanding {
            break;
        }
        let after = (
            dispatcher.dispatches,
            dispatcher.failures,
            dispatcher
                .shards
                .iter()
                .filter(|s| s.rows.is_some())
                .count(),
        );
        // Anything observable — a dispatch, a failure, a finished shard
        // — resets the backoff; only truly idle sweeps stretch it.
        if after == before {
            idle_sweeps = idle_sweeps.saturating_add(1);
        } else {
            idle_sweeps = 0;
        }
        sweeps.inc();
        std::thread::sleep(poll_backoff.delay(idle_sweeps));
    }
    let rows: Vec<ScenarioResult> = dispatcher
        .shards
        .into_iter()
        .flat_map(|shard| {
            shard
                .rows
                .expect("loop exits only when every shard has rows")
        })
        .collect();
    let (report, results) = merged_report_over(spec.campaign_seed, active, rows)?;
    Ok(ShardRun {
        report,
        results,
        shards: shard_count,
        dispatches: dispatcher.dispatches,
        failures: dispatcher.failures,
        spliced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chunkpoint_campaign::{run_campaign, SchemeSpec};
    use chunkpoint_core::{MitigationScheme, SystemConfig};
    use chunkpoint_workloads::Benchmark;

    fn small_spec() -> CampaignSpec {
        let mut config = SystemConfig::paper(0);
        config.scale = 0.25;
        CampaignSpec::new(config, 0x5A4D)
            .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
            .replicates(3)
    }

    /// Satellite: the merge sorts by global scenario index, so shard
    /// arrival order — whichever backend finishes first — cannot change
    /// the report bytes.
    #[test]
    fn merge_is_deterministic_regardless_of_arrival_order() {
        let spec = small_spec();
        let full = run_campaign(&spec, 1);
        let n = full.results.len();
        let expected =
            canonical_report_json(spec.campaign_seed, &full.results, &REPORT_AXES).render();
        // Three shards arriving in every permutation, each shard's rows
        // additionally reversed (journals are completion-ordered, not
        // index-ordered).
        let ranges = partition(n, 3);
        let shards: Vec<Vec<ScenarioResult>> = ranges
            .iter()
            .map(|&(start, end)| {
                let mut rows = full.results[start..end].to_vec();
                rows.reverse();
                rows
            })
            .collect();
        for order in [
            [0usize, 1, 2],
            [2, 1, 0],
            [1, 2, 0],
            [0, 2, 1],
            [2, 0, 1],
            [1, 0, 2],
        ] {
            let arrival: Vec<ScenarioResult> =
                order.iter().flat_map(|&k| shards[k].clone()).collect();
            let (report, merged) = merged_report(spec.campaign_seed, n, arrival).expect("merge");
            assert_eq!(
                report, expected,
                "arrival order {order:?} changed the bytes"
            );
            assert!(merged
                .windows(2)
                .all(|w| w[0].scenario.index < w[1].scenario.index));
        }
    }

    #[test]
    fn merge_rejects_gaps_and_duplicates() {
        let spec = small_spec();
        let full = run_campaign(&spec, 1);
        let n = full.results.len();
        // Gap: drop one row.
        let mut gapped = full.results.clone();
        gapped.remove(2);
        let err = merged_report(spec.campaign_seed, n, gapped).expect_err("gap");
        assert!(matches!(err, ExecError::BadMerge { .. }), "{err}");
        // Duplicate: repeat one row (length back to n).
        let mut duplicated = full.results.clone();
        duplicated.remove(2);
        duplicated.push(full.results[5].clone());
        let err = merged_report(spec.campaign_seed, n, duplicated).expect_err("duplicate");
        let message = err.to_string();
        assert!(
            message.contains("duplicated") || message.contains("missing"),
            "{message}"
        );
    }

    /// Strips a plan down to `(backend, range, sealed row count)`.
    fn shape(plan: &[PlannedShard]) -> Vec<(usize, (usize, usize), Option<usize>)> {
        plan.iter()
            .map(|(backend, range, sealed)| (*backend, *range, sealed.as_ref().map(Vec::len)))
            .collect()
    }

    #[test]
    fn cold_plan_is_the_offset_partition() {
        for (active, k) in [(0..12, 2), (3..20, 3), (5..7, 4), (4..4, 2)] {
            let expected: Vec<_> = partition(active.len(), k)
                .into_iter()
                .enumerate()
                .map(|(i, (a, b))| (i % k, (active.start + a, active.start + b), None))
                .collect();
            let plan = plan_shards(active.clone(), BTreeMap::new(), k, None);
            assert_eq!(shape(&plan), expected, "{active:?} over {k} backends");
        }
    }

    #[test]
    fn weighted_plan_skips_empty_ranges_and_keeps_backend_alignment() {
        let plan = plan_shards(2..11, BTreeMap::new(), 3, Some(&[1.0, 0.0, 2.0]));
        assert_eq!(shape(&plan), vec![(0, (2, 5), None), (2, (5, 11), None)]);
    }

    #[test]
    fn cached_rows_split_the_plan_at_coverage_boundaries() {
        let cached: BTreeMap<usize, ScenarioResult> = run_campaign(&small_spec(), 1)
            .results
            .into_iter()
            .filter(|row| [0, 1, 4, 5].contains(&row.scenario.index))
            .map(|row| (row.scenario.index, row))
            .collect();
        let plan = plan_shards(0..8, cached, 2, None);
        assert_eq!(
            shape(&plan),
            vec![
                (0, (0, 2), Some(2)),
                (0, (2, 3), None),
                (1, (3, 4), None),
                (0, (4, 6), Some(2)),
                (0, (6, 7), None),
                (1, (7, 8), None),
            ]
        );
        for (_, (start, end), sealed) in &plan {
            if let Some(rows) = sealed {
                let indices: Vec<usize> = rows.iter().map(|row| row.scenario.index).collect();
                assert_eq!(indices, (*start..*end).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn no_backends_is_a_typed_error() {
        let err = run_sharded(&small_spec(), &[], &ShardConfig::default()).expect_err("empty");
        assert!(matches!(err, ExecError::NoBackends));
    }
}
