//! The handle a submission returns: observe, cancel, wait.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use chunkpoint_campaign::{CampaignEvent, CancelToken};
use chunkpoint_telemetry::Counter;

use crate::outcome::{CampaignRun, ExecError};

/// A submitted campaign in flight.
///
/// The handle is the *only* connection to the run: events stream out of
/// [`CampaignHandle::events`], [`CampaignHandle::cancel`] requests a
/// cooperative stop, and [`CampaignHandle::wait`] joins the execution
/// and returns the [`CampaignRun`] (or the typed [`ExecError`]).
///
/// Dropping the handle without waiting detaches the run — it keeps
/// executing to completion in the background (events go nowhere); it
/// does **not** cancel. Cancel explicitly if the work should stop.
#[derive(Debug)]
pub struct CampaignHandle {
    receiver: Receiver<CampaignEvent>,
    cancel: CancelToken,
    worker: JoinHandle<Result<CampaignRun, ExecError>>,
}

impl CampaignHandle {
    /// The campaign's event stream, in emission order.
    ///
    /// The iterator **blocks** on the next event and ends when the run
    /// finishes (successfully or not) — on success the final event is
    /// [`CampaignEvent::Complete`]. Events buffer unboundedly, so a
    /// caller that never drains them loses nothing but memory, and a
    /// caller that only calls [`CampaignHandle::wait`] never deadlocks.
    pub fn events(&self) -> impl Iterator<Item = CampaignEvent> + '_ {
        self.receiver.iter()
    }

    /// Requests cooperative cancellation: the run stops at its next
    /// check point (between scenarios locally, between dispatch sweeps
    /// remotely — where outstanding backend jobs also receive a
    /// best-effort `DELETE`), and [`CampaignHandle::wait`] returns
    /// [`ExecError::Cancelled`]. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks until the campaign finishes and returns its run report.
    ///
    /// # Errors
    ///
    /// The typed [`ExecError`] the execution path failed with —
    /// including [`ExecError::Cancelled`] after a
    /// [`CampaignHandle::cancel`].
    pub fn wait(self) -> Result<CampaignRun, ExecError> {
        self.worker.join().map_err(|_| ExecError::JobFailed {
            detail: "executor worker panicked".to_owned(),
        })?
    }
}

/// The executor side of a handle's event channel. Send failures are
/// ignored by design: a dropped handle detaches the run, it does not
/// poison it.
pub(crate) struct EventSink {
    sender: Sender<CampaignEvent>,
    /// `exec_events_total{executor=...}` — every event emitted through
    /// this sink, counted whether or not the handle still listens.
    events: Arc<Counter>,
}

impl EventSink {
    /// Emits one event to the handle (no-op once the handle is gone).
    pub(crate) fn emit(&self, event: CampaignEvent) {
        self.events.inc();
        let _ = self.sender.send(event);
    }
}

/// Spawns the worker thread every executor runs its campaign on and
/// wires up the handle: event channel, shared cancel token, and the
/// join handle `wait` consumes. On success the sink emits the final
/// [`CampaignEvent::Complete`] itself, so no executor can forget it;
/// panics inside `run` are caught and surface as
/// [`ExecError::JobFailed`] rather than poisoning `wait`.
///
/// `executor` labels the sink's `exec_events_total` series — the
/// execution path's name (`local` / `sharded`), so one
/// scrape shows which paths a process exercised.
pub(crate) fn spawn_worker<F>(executor: &'static str, run: F) -> CampaignHandle
where
    F: FnOnce(&EventSink, &CancelToken) -> Result<CampaignRun, ExecError> + Send + 'static,
{
    let (sender, receiver) = channel();
    let cancel = CancelToken::new();
    let worker_cancel = cancel.clone();
    let events = chunkpoint_telemetry::global().counter_with(
        "exec_events_total",
        &[("executor", executor)],
        "Campaign events emitted per executor path",
    );
    let worker = std::thread::spawn(move || {
        let sink = EventSink { sender, events };
        let outcome = match catch_unwind(AssertUnwindSafe(|| run(&sink, &worker_cancel))) {
            Ok(outcome) => outcome,
            Err(panic) => {
                let detail = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "campaign panicked".to_owned());
                Err(ExecError::JobFailed {
                    detail: format!("campaign panicked: {detail}"),
                })
            }
        };
        if outcome.is_ok() {
            sink.emit(CampaignEvent::Complete);
        }
        // The sink (and with it the channel sender) drops here, which
        // is what ends the handle's event iterator.
        outcome
    });
    CampaignHandle {
        receiver,
        cancel,
        worker,
    }
}
