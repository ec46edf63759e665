//! # chunkpoint-exec
//!
//! **One campaign executor API** over every way this workspace can run
//! an evaluation grid: typed submit / observe / cancel, with three
//! interchangeable backends proven byte-identical on the same spec.
//!
//! * [`LocalExecutor`] — in-process on the engine's work-stealing pool
//!   ([`chunkpoint_campaign::run_campaign_streaming`]);
//! * [`RemoteExecutor`] — one remote `serve` instance: a one-backend
//!   run of the shard coordinator (content-addressed result cache
//!   included);
//! * [`ShardedExecutor`] — many `serve` backends via the same
//!   coordinator, with failure re-dispatch and optional per-backend
//!   capacity weights.
//!
//! Submitting a [`CampaignSpec`] answers a [`CampaignHandle`]: a blocking iterator of typed
//! [`CampaignEvent`]s ([`CampaignHandle::events`]), cooperative
//! [`CampaignHandle::cancel`], and [`CampaignHandle::wait`] returning
//! a [`CampaignRun`] or the one [`ExecError`] enum — no stringly
//! errors, no per-path calling conventions. `ExecError` is defined in
//! `chunkpoint_shard`, whose coordinator returns it, and re-exported
//! here: the local path and the coordinator fail with the same type.
//!
//! ## Why the three paths agree byte for byte
//!
//! Every scenario's fault seed derives from `(campaign_seed,
//! scenario_index)`, and every path renders the same timing-free
//! [`chunkpoint_campaign::canonical_report_json`] over the same
//! index-ordered rows. Where a campaign runs — one thread, one server,
//! a crashing fleet — is therefore invisible in
//! [`CampaignRun::report`], which `crates/exec/tests/parity.rs`
//! proves against real `serve` processes.
//!
//! ## Event model
//!
//! Executors differ in *when* events arrive, never in what a
//! successful stream contains: every path emits
//! [`CampaignEvent::ScenarioDone`] for each scenario (live locally,
//! per sealed shard on the remote paths), monotone
//! [`CampaignEvent::Progress`] ending at `done == total`, and one final
//! [`CampaignEvent::Complete`]. Both remote paths run the shard
//! coordinator, so they stream live `Progress` from the backends' job
//! status and narrate dispatch decisions
//! ([`CampaignEvent::ShardDispatched`] /
//! [`CampaignEvent::ShardFailed`] /
//! [`CampaignEvent::ShardRedispatched`]) — a single-backend run too.
//! [`LiveAggregates`] folds any of these streams into live Welford
//! mean ± CI95 partial aggregates.
//!
//! ## Example
//!
//! ```
//! use chunkpoint_campaign::{CampaignSpec, SchemeSpec};
//! use chunkpoint_core::{MitigationScheme, SystemConfig};
//! use chunkpoint_exec::{CampaignEvent, CampaignExecutor, LocalExecutor};
//! use chunkpoint_workloads::Benchmark;
//!
//! let mut config = SystemConfig::paper(0);
//! config.scale = 0.25; // short run for the doctest
//! let spec = CampaignSpec::new(config, 0xE4EC)
//!     .benchmarks(&[Benchmark::AdpcmEncode])
//!     .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
//!     .replicates(2);
//!
//! let handle = LocalExecutor::new(2).submit(&spec);
//! let events: Vec<CampaignEvent> = handle.events().collect();
//! let run = handle.wait().expect("campaign");
//! assert!(matches!(events.last(), Some(CampaignEvent::Complete)));
//! assert_eq!(run.results.len(), run.scenarios);
//! // Swapping in RemoteExecutor::new("10.0.0.7:8077") or
//! // ShardedExecutor::new(backends) changes nothing below the submit.
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod handle;
mod live;
mod local;
mod outcome;
mod remote;
mod sharded;

pub use chunkpoint_campaign::CampaignEvent;
pub use handle::CampaignHandle;
pub use live::LiveAggregates;
pub use local::LocalExecutor;
pub use outcome::{CampaignRun, ExecError};
pub use remote::RemoteExecutor;
pub use sharded::ShardedExecutor;

// The remote paths' knobs are part of this crate's API surface.
pub use chunkpoint_shard::ShardConfig;

use chunkpoint_campaign::CampaignSpec;

/// The one way to run a campaign, wherever it executes.
///
/// `submit` never blocks on the campaign: it validates lazily and runs
/// on a background worker, so a bad spec or unreachable backend
/// surfaces as a typed [`ExecError`] from [`CampaignHandle::wait`],
/// identically on every path. Executors are `Send + Sync` values;
/// submitting the same spec twice is always safe (the remote paths
/// answer the second run from the backend's content-addressed cache).
pub trait CampaignExecutor {
    /// Starts `spec` executing and hands back its observation handle.
    fn submit(&self, spec: &CampaignSpec) -> CampaignHandle;
}
