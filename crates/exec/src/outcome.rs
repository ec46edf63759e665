//! What a submitted campaign ends with: its [`CampaignRun`], or the one
//! error enum every executor fails with — [`ExecError`], defined next to
//! the shard coordinator that the remote path runs, and re-exported
//! here.

use std::time::Duration;

use chunkpoint_campaign::ScenarioResult;
pub use chunkpoint_shard::ExecError;

/// A completed campaign, identical in content across every execution
/// path: the acceptance invariant is that the same spec yields
/// **byte-identical** `report` strings through the local executor and
/// the remote one over any number of backends.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The canonical timing-free report
    /// ([`chunkpoint_campaign::rows::canonical_report`]) — a
    /// pure function of the spec, so identical across executors,
    /// thread counts, backend failures, and resumes.
    pub report: String,
    /// Per-scenario rows in scenario-index order.
    pub results: Vec<ScenarioResult>,
    /// Scenarios this run executed.
    pub scenarios: usize,
    /// Wall-clock time from submit to completion.
    pub elapsed: Duration,
    /// Job submissions performed (0 for local; `> shards` on the
    /// sharded path means at least one shard was re-dispatched).
    pub dispatches: usize,
    /// Failed exchanges and failed jobs observed along the way.
    pub failures: usize,
}
