//! The job manager: a bounded pool of campaign-runner threads over the
//! checkpoint store.
//!
//! Submissions enqueue job ids; `max_jobs` runner threads pull from the
//! queue and drive [`run_grid_streaming`] with three hooks wired in:
//! the job's [`CancelToken`] (DELETE and shutdown stop a grid between
//! scenarios), the journal's skip set (restarted services resume instead
//! of recomputing), and an `on_result` sink that appends every completed
//! scenario to the journal before anything else sees it.
//!
//! Each campaign itself runs on the engine's work-stealing pool with
//! `campaign_threads` workers, so total simulation parallelism is
//! bounded by `max_jobs × campaign_threads`.
//!
//! The in-memory registry holds only jobs that are queued, running,
//! failed or cancelled. A job that finishes leaves it: its store
//! directory (a present `result.json`) answers for it from then on, so
//! the registry does not grow with every campaign the service has run.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chunkpoint_campaign::rows::canonical_report;
use chunkpoint_campaign::{run_grid_streaming, CampaignSpec, CancelToken, JsonValue};

use crate::metrics::metrics;
use crate::store::JobStore;

/// Longest a status request may wait for its job to leave queued or
/// running ([`JobManager::wait_status`]): well under a client's request
/// timeout, so a waiting request is never mistaken for a dead backend.
pub const MAX_STATUS_WAIT: Duration = Duration::from_secs(5);

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a runner thread.
    Queued,
    /// A runner is executing (or resuming) the campaign.
    Running,
    /// Finished; `result.json` is present and cached.
    Done,
    /// Cancelled by DELETE or service shutdown; the journal survives
    /// unless the job was deleted.
    Cancelled,
    /// The runner hit an error; the message explains it.
    Failed(String),
}

impl JobState {
    /// Wire name of the state.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed(_) => "failed",
        }
    }
}

/// One tracked job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Content-hash id.
    pub id: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Scenarios this job executes: its `scenario_range` slice for a
    /// ranged sub-spec, the whole grid otherwise.
    pub scenarios: usize,
    /// Scenarios journaled so far (monotonic across restarts).
    pub completed: usize,
}

impl JobStatus {
    /// The status document served by `GET /campaigns/:id`.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let mut doc = JsonValue::object()
            .field("id", self.id.as_str())
            .field("status", self.state.name())
            .field("scenarios", self.scenarios)
            .field("completed", self.completed);
        if let JobState::Failed(message) = &self.state {
            doc = doc.field("error", message.as_str());
        }
        doc
    }
}

/// Jobs known to the manager, counted by lifecycle state — the payload
/// of `GET /healthz`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobCounts {
    /// Waiting for a runner thread.
    pub queued: usize,
    /// Currently executing on a runner.
    pub running: usize,
    /// Finished with a cached result: counted, not held in memory.
    pub done: usize,
    /// Cancelled (journal kept unless deleted).
    pub cancelled: usize,
    /// Failed with an error message.
    pub failed: usize,
    /// Submits refused by admission control since startup: a cumulative
    /// counter, not a lifecycle state (shed submissions never became
    /// jobs).
    pub shed: usize,
}

impl JobCounts {
    /// Total jobs known to the manager. Shed submissions are not jobs
    /// and do not count.
    #[must_use]
    pub fn total(&self) -> usize {
        self.queued + self.running + self.done + self.cancelled + self.failed
    }

    /// The per-state fields of the `/healthz` document.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("queued", self.queued)
            .field("running", self.running)
            .field("done", self.done)
            .field("cancelled", self.cancelled)
            .field("failed", self.failed)
            .field("shed", self.shed)
    }
}

/// Why a submission was refused, typed by the HTTP answer it deserves —
/// the seam that lets admission control shed load as `429 +
/// Retry-After` (retryable elsewhere or later) without being mistaken
/// for "the spec is bad" (fatal everywhere).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control: the submit queue is full. Answered `429` with
    /// a `Retry-After` hint; a shard coordinator treats it as a strike
    /// against this backend's breaker, not as a spec rejection.
    Shed {
        /// Jobs waiting when the submit was refused.
        queued: usize,
        /// The queue bound that refused it.
        limit: usize,
    },
    /// The service is draining; answered `503`.
    ShuttingDown,
    /// The spec itself is bad (unenumerable grid, range past the grid,
    /// hash collision); answered `400` — every replica would refuse it.
    Invalid(String),
    /// This backend's store failed; answered `500` so coordinators
    /// re-dispatch instead of aborting the campaign.
    Store(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Shed { queued, limit } => write!(
                f,
                "submit queue is full ({queued} queued, limit {limit}): shedding load"
            ),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::Invalid(why) => write!(f, "{why}"),
            SubmitError::Store(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[derive(Debug)]
struct JobEntry {
    state: JobState,
    scenarios: usize,
    completed: usize,
    cancel: CancelToken,
    /// DELETE on a running job: cancel now, remove the directory when
    /// the runner lets go of it.
    delete_after_cancel: bool,
    /// Canonical spec rendering, cached so the collision check on
    /// duplicate submissions is a lock-held string compare instead of
    /// disk I/O under the manager mutex.
    canonical: String,
}

#[derive(Debug, Default)]
struct ManagerState {
    /// Queued, running, failed and cancelled jobs. A finished job lives
    /// in its store directory only.
    jobs: HashMap<String, JobEntry>,
    queue: VecDeque<String>,
    shutdown: bool,
    /// Cumulative count of submits refused by admission control.
    shed: usize,
    /// Finished jobs in the store.
    done: usize,
}

/// The bounded job manager. All HTTP handlers and runner threads share
/// one instance behind an [`Arc`].
#[derive(Debug)]
pub struct JobManager {
    store: JobStore,
    state: Mutex<ManagerState>,
    /// Wakes runners when a job is enqueued, and on shutdown.
    wake: Condvar,
    /// Wakes waiting status requests: notified whenever a job leaves
    /// queued/running, is deleted, or the service shuts down.
    settled: Condvar,
    campaign_threads: usize,
    /// Admission bound: new jobs are refused (shed) while this many are
    /// already queued. Joins onto known jobs and cache hits are exempt —
    /// they add no work.
    max_queued: usize,
}

/// The outcome of a submission, for the POST handler.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Status snapshot after the submit.
    pub status: JobStatus,
    /// Whether the result cache answered (job already `Done`).
    pub cached: bool,
    /// Whether this submit created the job (false: already known).
    pub created: bool,
}

impl JobManager {
    /// Locks the manager state, tolerating a poisoned mutex. Runner
    /// panics are caught and turned into [`JobState::Failed`] inside
    /// `run_one`, but a panic on any other path (an allocator abort
    /// short of aborting, a bug in a handler) would poison this lock —
    /// and every HTTP handler locks it, so honoring the poison would
    /// turn one wounded request into a permanently dead service. The
    /// guarded state is updated with single-field writes (no
    /// multi-step invariant is ever left half-applied across a
    /// panic), so the data is safe to keep serving.
    fn locked(&self) -> std::sync::MutexGuard<'_, ManagerState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Builds a manager over `store`, **recovering** persisted jobs:
    /// directories with a `result.json` are counted as done and stay on
    /// disk (cache hits), everything else re-enqueues and resumes from
    /// its journal.
    ///
    /// `max_queued` is the admission bound for *new* jobs (`0` means
    /// unbounded); recovered jobs re-enqueue regardless — they were
    /// admitted before the restart and their journals are real work
    /// already done.
    #[must_use]
    pub fn recover(store: JobStore, campaign_threads: usize, max_queued: usize) -> Arc<Self> {
        let manager = Arc::new(Self {
            store,
            state: Mutex::new(ManagerState::default()),
            wake: Condvar::new(),
            settled: Condvar::new(),
            campaign_threads,
            max_queued: if max_queued == 0 {
                usize::MAX
            } else {
                max_queued
            },
        });
        let ids = manager.store.list_jobs();
        {
            let mut state = manager.locked();
            for id in ids {
                if manager.store.is_finished(&id) {
                    state.done += 1;
                    continue;
                }
                // The stored spec is the collision-check reference; a job
                // whose spec no longer parses is skipped (a runner would
                // only mark it Failed anyway).
                let Ok(canonical) = manager
                    .store
                    .load_spec(&id)
                    .map(|spec| spec.to_json().render())
                else {
                    continue;
                };
                // Journaled progress survives the restart: report the
                // sealed row count (unvalidated until a runner loads the
                // journal) so `completed` stays monotonic while the job
                // waits for a runner.
                state.jobs.insert(
                    id.clone(),
                    JobEntry {
                        state: JobState::Queued,
                        scenarios: manager.store.load_scenario_count(&id).unwrap_or(0),
                        completed: manager.store.read_journal_rows(&id).len(),
                        cancel: CancelToken::new(),
                        delete_after_cancel: false,
                        canonical,
                    },
                );
                state.queue.push_back(id);
                metrics().jobs_recovered.inc();
            }
        }
        manager
    }

    /// Spawns `max_jobs` runner threads draining the queue. The handles
    /// are joined by [`JobManager::shutdown`].
    #[must_use]
    pub fn spawn_runners(self: &Arc<Self>, max_jobs: usize) -> Vec<JoinHandle<()>> {
        (0..max_jobs.max(1))
            .map(|_| {
                let manager = Arc::clone(self);
                std::thread::spawn(move || manager.runner_loop())
            })
            .collect()
    }

    /// Submits a spec: instant cache hit if this content hash already
    /// finished, join onto the live job if it is queued/running,
    /// re-enqueue (resuming from the journal) if a previous attempt
    /// failed or was cancelled, otherwise persist and enqueue.
    ///
    /// # Errors
    ///
    /// Typed [`SubmitError`]: `Invalid` for unenumerable grids
    /// (infeasible optimizer points surface here, at submit time),
    /// ranges past the grid, and — because the id is a 64-bit content
    /// hash — a submitted spec whose canonical bytes differ from the
    /// stored spec under the same id (hash collision: refused rather
    /// than serving the wrong report); `Shed` when admission control
    /// refuses a *new* job over a full queue; `ShuttingDown` while
    /// draining; `Store` for this backend's own I/O trouble.
    pub fn submit(&self, spec: &CampaignSpec) -> Result<Submission, SubmitError> {
        let id = JobStore::job_id(spec);
        // Enumerate outside the lock: optimizer-backed scheme axes do
        // real work, and an infeasible point is a client error.
        let grid = spec.try_scenarios().map_err(SubmitError::Invalid)?.len();
        // A ranged sub-spec must fit the grid it claims to slice: a
        // range past the end means the submitter partitioned a different
        // campaign.
        if let Some((start, end)) = spec.range() {
            if end > grid {
                return Err(SubmitError::Invalid(format!(
                    "scenario_range [{start}, {end}) exceeds the {grid}-scenario grid"
                )));
            }
        }
        // A job's size is what it will actually execute (its range for
        // sub-specs), not the whole grid — `completed` counts toward it.
        let scenarios = spec.active_range(grid).len();
        let canonical = spec.to_json().render();
        let mut state = self.locked();
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let collision = || {
            SubmitError::Invalid(format!(
                "spec hash collision: {id} already names a different campaign"
            ))
        };
        if state.jobs.contains_key(&id) {
            // The id is a 64-bit hash: before treating this as the same
            // campaign, make sure the known spec really is this spec
            // (string compare against the cached canonical rendering —
            // no disk I/O under the lock).
            if state.jobs[&id].canonical != canonical {
                return Err(collision());
            }
            // Failed/cancelled attempts re-enqueue and resume from their
            // journal; queued/running jobs are simply reported.
            let entry = state.jobs.get_mut(&id).expect("checked above");
            // Resubmission revokes any pending DELETE: the spec is
            // wanted again, so a racing delete must not remove the job
            // (a deletion-pending Running job still ends Cancelled —
            // its token already fired — but keeps its journal, and the
            // next submit resumes it).
            entry.delete_after_cancel = false;
            if matches!(entry.state, JobState::Failed(_) | JobState::Cancelled) {
                entry.state = JobState::Queued;
                entry.cancel = CancelToken::new();
                state.queue.push_back(id.clone());
                self.wake.notify_one();
            }
            let status = snapshot(&id, &state.jobs[&id]);
            return Ok(Submission {
                cached: false,
                created: false,
                status,
            });
        }
        // A finished job answers from its directory, after the same
        // check against its stored spec bytes.
        if let Some(stored) = self.store.finished_spec(&id) {
            if stored.strip_suffix('\n') != Some(canonical.as_str()) {
                return Err(collision());
            }
            metrics().jobs_cached.inc();
            return Ok(Submission {
                cached: true,
                created: false,
                status: JobStatus {
                    id,
                    state: JobState::Done,
                    scenarios,
                    completed: scenarios,
                },
            });
        }
        // Admission control: only *new* jobs are bounded. Joins and
        // cache hits above cost nothing to serve; shedding them would
        // refuse work the service already did.
        if state.queue.len() >= self.max_queued {
            state.shed += 1;
            metrics().jobs_shed.inc();
            return Err(SubmitError::Shed {
                queued: state.queue.len(),
                limit: self.max_queued,
            });
        }
        self.store
            .create_job(&id, spec, scenarios)
            .map_err(|e| SubmitError::Store(format!("persisting job: {e}")))?;
        state.jobs.insert(
            id.clone(),
            JobEntry {
                state: JobState::Queued,
                scenarios,
                completed: 0,
                cancel: CancelToken::new(),
                delete_after_cancel: false,
                canonical,
            },
        );
        state.queue.push_back(id.clone());
        self.wake.notify_one();
        metrics().jobs_submitted.inc();
        Ok(Submission {
            cached: false,
            created: true,
            status: JobStatus {
                id,
                state: JobState::Queued,
                scenarios,
                completed: 0,
            },
        })
    }

    /// Status of one job.
    #[must_use]
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        self.wait_status(id, Duration::ZERO)
    }

    /// Status of one job, answered as soon as the job is neither queued
    /// nor running — or once `wait` (capped at [`MAX_STATUS_WAIT`]) has
    /// passed, with the job's status at that moment. A done or unknown
    /// job answers at once, as does every job once the service is
    /// shutting down. The waiting thread holds no lock: it sleeps on a
    /// condition variable that every transition out of queued/running,
    /// every delete and shutdown notify.
    #[must_use]
    pub fn wait_status(&self, id: &str, wait: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + wait.min(MAX_STATUS_WAIT);
        let mut state = self.locked();
        while let Some(entry) = state.jobs.get(id) {
            let left = deadline.saturating_duration_since(Instant::now());
            let settled = !matches!(entry.state, JobState::Queued | JobState::Running);
            if settled || state.shutdown || left.is_zero() {
                return Some(snapshot(id, entry));
            }
            state = self
                .settled
                .wait_timeout(state, left)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
        drop(state);
        // Not in memory: finished (its directory answers) or unknown.
        self.store.is_finished(id).then(|| {
            let scenarios = self.store.load_scenario_count(id).unwrap_or(0);
            JobStatus {
                id: id.to_owned(),
                state: JobState::Done,
                scenarios,
                completed: scenarios,
            }
        })
    }

    /// Counts of known jobs per lifecycle state.
    #[must_use]
    pub fn counts(&self) -> JobCounts {
        let state = self.locked();
        let mut counts = JobCounts {
            done: state.done,
            shed: state.shed,
            ..JobCounts::default()
        };
        for entry in state.jobs.values() {
            match entry.state {
                JobState::Queued => counts.queued += 1,
                JobState::Running => counts.running += 1,
                JobState::Done => counts.done += 1,
                JobState::Cancelled => counts.cancelled += 1,
                JobState::Failed(_) => counts.failed += 1,
            }
        }
        counts
    }

    /// The cached final report, if the job is done.
    #[must_use]
    pub fn result(&self, id: &str) -> Option<String> {
        // Serve only completed jobs: a half-written journal is not a
        // result, and write_result is atomic, so presence ⇒ complete.
        // A job still in memory has not finished.
        if self.locked().jobs.contains_key(id) {
            return None;
        }
        let report = self.store.read_result(id);
        if report.is_some() {
            metrics().result_cache_hits.inc();
        }
        report
    }

    /// The job's sealed journal rows, rendered as one JSON document:
    /// `{"id": ..., "status": ..., "rows": [<ScenarioResult>, ...]}` —
    /// the payload of `GET /campaigns/:id/journal`, which a shard
    /// coordinator fetches to merge this job's slice of a campaign with
    /// its sibling shards. Rows are in journal (completion) order; the
    /// merge defines the canonical ordering, not the shard.
    ///
    /// The rows are raw sealed journal lines (each one a JSON object the
    /// service itself rendered), spliced in verbatim rather than
    /// re-parsed — serving a journal never costs a parse of every row.
    #[must_use]
    pub fn journal(&self, id: &str) -> Option<String> {
        let status = self.status(id)?;
        let rows = self.store.read_journal_rows(id);
        let mut doc = String::with_capacity(64 + rows.iter().map(|r| r.len() + 1).sum::<usize>());
        doc.push_str("{\"id\":\"");
        doc.push_str(id); // ids are 16 hex digits — nothing to escape
        doc.push_str("\",\"status\":\"");
        doc.push_str(status.state.name());
        doc.push_str("\",\"rows\":[");
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(row);
        }
        doc.push_str("]}");
        Some(doc)
    }

    /// Cancels and deletes a job. Queued/finished jobs are removed
    /// immediately; a running job is cancelled and its runner removes
    /// the directory once the campaign lets go. Returns the state the
    /// job was in, or `None` if unknown.
    #[must_use]
    pub fn delete(&self, id: &str) -> Option<JobState> {
        let mut state = self.locked();
        let Some(entry) = state.jobs.get_mut(id) else {
            // Deleted under the lock, like every removal below: a
            // concurrent resubmit must not re-create the directory
            // between the check and the removal.
            if !self.store.is_finished(id) {
                return None;
            }
            let _ = self.store.delete_job(id);
            state.done = state.done.saturating_sub(1);
            return Some(JobState::Done);
        };
        let was = entry.state.clone();
        match was {
            JobState::Running => {
                entry.delete_after_cancel = true;
                entry.cancel.cancel();
            }
            _ => {
                state.queue.retain(|queued| queued != id);
                state.jobs.remove(id);
                // Deleted while still holding the lock: a concurrent
                // resubmit must not re-create the job directory between
                // the map removal and the filesystem removal.
                let _ = self.store.delete_job(id);
                self.settled.notify_all();
            }
        }
        Some(was)
    }

    /// Graceful shutdown: stop accepting, cancel running campaigns (their
    /// journals make the work resumable), wake and join every runner.
    pub fn shutdown(&self, runners: Vec<JoinHandle<()>>) {
        {
            let mut state = self.locked();
            state.shutdown = true;
            for entry in state.jobs.values() {
                entry.cancel.cancel();
            }
        }
        self.wake.notify_all();
        self.settled.notify_all();
        for runner in runners {
            let _ = runner.join();
        }
    }

    fn runner_loop(&self) {
        loop {
            let id = {
                let mut state = self.locked();
                loop {
                    if state.shutdown {
                        return;
                    }
                    if let Some(id) = state.queue.pop_front() {
                        break id;
                    }
                    state = self
                        .wake
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            self.run_one(&id);
        }
    }

    /// Runs (or resumes) one job to completion, cancellation, or failure.
    fn run_one(&self, id: &str) {
        let outcome = catch_unwind(AssertUnwindSafe(|| self.drive(id)));
        let verdict = match outcome {
            Ok(verdict) => verdict,
            Err(panic) => {
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "campaign panicked".to_owned());
                Err(format!("campaign panicked: {message}"))
            }
        };
        let mut state = self.locked();
        let Some(entry) = state.jobs.get_mut(id) else {
            return;
        };
        // A DELETE can race any campaign ending (completion, the cancel
        // itself, or a failure): the client was told "deleted", so the
        // job goes regardless of which verdict won the race. The
        // directory is removed under the lock so a concurrent resubmit
        // cannot slip a fresh job dir in between.
        if entry.delete_after_cancel {
            state.jobs.remove(id);
            let _ = self.store.delete_job(id);
        } else {
            match verdict {
                // Finished: the directory answers for it from now on.
                Ok(true) => {
                    state.jobs.remove(id);
                    state.done += 1;
                }
                Ok(false) => entry.state = JobState::Cancelled,
                Err(message) => entry.state = JobState::Failed(message),
            }
        }
        self.settled.notify_all();
    }

    /// The actual campaign drive. `Ok(true)` = finished, `Ok(false)` =
    /// cancelled.
    fn drive(&self, id: &str) -> Result<bool, String> {
        let spec = self.store.load_spec(id)?;
        let scenarios = spec.scenarios();
        let active = spec.active_range(scenarios.len());
        let journal = self.store.load_journal(id, &scenarios, &active)?;
        let cancel = {
            let mut state = self.locked();
            let entry = state
                .jobs
                .get_mut(id)
                .ok_or_else(|| format!("job {id} vanished from the registry"))?;
            entry.state = JobState::Running;
            entry.scenarios = active.len();
            entry.completed = journal.done.len();
            entry.cancel.clone()
        };
        let mut writer = self
            .store
            .open_journal(id)
            .map_err(|e| format!("job {id}: opening journal: {e}"))?;
        let mut io_error: Option<String> = None;
        let fresh = run_grid_streaming(
            &spec,
            &scenarios,
            self.campaign_threads,
            &cancel,
            &journal.done,
            |result| {
                // Once an append has failed the file may end in partial
                // bytes; further appends would corrupt the line after
                // the tear. Drop everything until the cancel drains.
                if io_error.is_some() {
                    return;
                }
                // Journal first: a result the journal has not sealed does
                // not exist as far as crash recovery is concerned.
                if let Err(e) = writer.append(result) {
                    io_error.get_or_insert_with(|| format!("journal append: {e}"));
                    cancel.cancel();
                    return;
                }
                metrics().journal_rows.inc();
                let mut state = self.locked();
                if let Some(entry) = state.jobs.get_mut(id) {
                    entry.completed += 1;
                }
            },
        );
        if let Some(error) = io_error {
            return Err(error);
        }
        if cancel.is_cancelled() {
            return Ok(false);
        }
        // Merge journaled + fresh in scenario order; both sides carry
        // bit-identical numbers to an uninterrupted run by seed
        // construction, so the canonical report is too.
        let mut merged = journal.results;
        merged.extend(fresh);
        let (report, _) = canonical_report(spec.campaign_seed, active, merged)
            .map_err(|why| format!("job {id}: journal inconsistent: {why}"))?;
        self.store
            .write_result(id, &report)
            .map_err(|e| format!("job {id}: writing result: {e}"))?;
        Ok(true)
    }
}

/// The status document fields of an in-memory job.
fn snapshot(id: &str, entry: &JobEntry) -> JobStatus {
    JobStatus {
        id: id.to_owned(),
        state: entry.state.clone(),
        scenarios: entry.scenarios,
        completed: entry.completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chunkpoint_campaign::SchemeSpec;
    use chunkpoint_core::SystemConfig;
    use chunkpoint_workloads::Benchmark;

    #[test]
    fn infeasible_spec_is_an_invalid_submission() {
        let root =
            std::env::temp_dir().join(format!("chunkpoint_jobs_infeasible_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let manager = JobManager::recover(JobStore::open(&root).expect("open store"), 1, 0);
        let mut config = SystemConfig::paper(0);
        config.constraints.area_overhead = 0.0;
        let spec = CampaignSpec::new(config, 1)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("Optimal", SchemeSpec::Optimal);
        match manager.submit(&spec) {
            Err(SubmitError::Invalid(detail)) => assert!(detail.contains("feasible"), "{detail}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    fn tiny_spec(seed: u64) -> CampaignSpec {
        let mut config = SystemConfig::paper(0);
        config.scale = 0.25;
        CampaignSpec::new(config, seed)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme(
                "Default",
                SchemeSpec::Fixed(chunkpoint_core::MitigationScheme::Default),
            )
            .replicates(2)
            .normalize(false)
            .golden_check(false)
    }

    /// Everything a client can ask of a finished job, answered from its
    /// directory alone.
    fn assert_served_from_disk(manager: &JobManager, spec: &CampaignSpec) {
        let id = JobStore::job_id(spec);
        let status = manager.status(&id).expect("finished job is known");
        assert_eq!(status.state, JobState::Done);
        assert_eq!((status.scenarios, status.completed), (2, 2));
        let waited = manager
            .wait_status(&id, MAX_STATUS_WAIT)
            .expect("a waiting status of a finished job");
        assert_eq!(waited.state, JobState::Done);
        assert!(manager
            .result(&id)
            .expect("result")
            .contains("campaign_seed"));
        let journal = manager.journal(&id).expect("journal");
        assert!(journal.contains("\"status\":\"done\""), "{journal}");
        assert_eq!(journal.matches("\"index\":").count(), 2, "{journal}");
        let again = manager.submit(spec).expect("cached resubmit");
        assert!(again.cached && !again.created);
        assert_eq!(again.status.state, JobState::Done);
        assert!(
            manager.locked().jobs.is_empty(),
            "no finished job may be held in memory"
        );
    }

    #[test]
    fn finished_jobs_live_on_disk_only() {
        let root =
            std::env::temp_dir().join(format!("chunkpoint_jobs_on_disk_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let manager = JobManager::recover(JobStore::open(&root).expect("open store"), 1, 0);
        let runners = manager.spawn_runners(1);
        let specs: Vec<CampaignSpec> = (0..4).map(|seed| tiny_spec(0xD15C + seed)).collect();
        for spec in &specs {
            let id = manager.submit(spec).expect("submit").status.id;
            while manager
                .wait_status(&id, MAX_STATUS_WAIT)
                .expect("known")
                .state
                != JobState::Done
            {}
        }
        assert_eq!(manager.counts().done, specs.len());
        for spec in &specs {
            assert_served_from_disk(&manager, spec);
        }
        manager.shutdown(runners);

        // A restart over the same data dir counts the finished jobs
        // without loading them.
        let manager = JobManager::recover(JobStore::open(&root).expect("reopen"), 1, 0);
        assert!(manager.locked().jobs.is_empty());
        assert_eq!(manager.counts().done, specs.len());
        for spec in &specs {
            assert_served_from_disk(&manager, spec);
        }

        // The collision check compares the stored spec bytes: a finished
        // job whose spec.json names another campaign refuses the submit.
        let victim = JobStore::job_id(&specs[0]);
        let other = specs[1].to_json().render() + "\n";
        std::fs::write(root.join("jobs").join(&victim).join("spec.json"), other)
            .expect("overwrite spec");
        match manager.submit(&specs[0]) {
            Err(SubmitError::Invalid(detail)) => assert!(detail.contains("collision"), "{detail}"),
            other => panic!("expected a collision refusal, got {other:?}"),
        }

        // Delete of a finished job removes it from disk and the count.
        let gone = JobStore::job_id(&specs[3]);
        assert_eq!(manager.delete(&gone), Some(JobState::Done));
        assert!(manager.status(&gone).is_none());
        assert!(manager.result(&gone).is_none());
        assert!(manager.journal(&gone).is_none());
        assert!(manager.delete(&gone).is_none());
        assert_eq!(manager.counts().done, specs.len() - 1);
        let _ = std::fs::remove_dir_all(&root);
    }
}
