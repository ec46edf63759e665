//! # chunkpoint-exec
//!
//! **One campaign executor API** over every way this workspace can run
//! an evaluation grid: typed submit / observe / cancel, with two
//! interchangeable executors proven byte-identical on the same spec.
//!
//! * [`LocalExecutor`] — in-process on the engine's work-stealing pool
//!   ([`chunkpoint_campaign::run_campaign_streaming`]);
//! * [`ShardedExecutor`] — one or more remote `serve` backends through
//!   the shard coordinator: an even split of the grid, failure
//!   re-dispatch, and each backend's content-addressed result cache.
//!   One backend is `ShardedExecutor::new(vec![addr])`.
//!
//! Submitting a [`CampaignSpec`] answers a [`CampaignHandle`]: a blocking iterator of typed
//! [`CampaignEvent`]s ([`CampaignHandle::events`]), cooperative
//! [`CampaignHandle::cancel`], and [`CampaignHandle::wait`] returning
//! a [`CampaignRun`] or the one [`ExecError`] enum — no stringly
//! errors, no per-path calling conventions. `ExecError` is defined in
//! `chunkpoint_shard`, whose coordinator returns it, and re-exported
//! here: the local path and the coordinator fail with the same type.
//!
//! ## Why every path agrees byte for byte
//!
//! Every scenario's fault seed derives from `(campaign_seed,
//! scenario_index)`, and every path renders its rows through the one
//! [`chunkpoint_campaign::rows::canonical_report`]. Where a campaign
//! runs — one thread, one server, a crashing fleet — is therefore
//! invisible in
//! [`CampaignRun::report`], which `crates/exec/tests/parity.rs`
//! proves against real `serve` processes.
//!
//! ## Event model
//!
//! Executors differ in *when* events arrive, never in what a
//! successful stream contains: every path emits
//! [`CampaignEvent::ScenarioDone`] for each scenario (live locally,
//! per sealed shard on the remote path), monotone
//! [`CampaignEvent::Progress`] ending at `done == total`, and one final
//! [`CampaignEvent::Complete`]. The remote path runs the shard
//! coordinator, so it streams live `Progress` from the backends' job
//! status and narrates dispatch decisions
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
//! // Swapping in ShardedExecutor::new(vec!["10.0.0.7:8077".to_owned()])
//! // or ShardedExecutor::new(backends) changes nothing below the submit.
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod handle;
mod live;
mod local;
mod outcome;
mod sharded;

pub use chunkpoint_campaign::CampaignEvent;
pub use handle::CampaignHandle;
pub use live::LiveAggregates;
pub use local::LocalExecutor;
pub use outcome::{CampaignRun, ExecError};
pub use sharded::ShardedExecutor;

// The remote path's knobs are part of this crate's API surface.
pub use chunkpoint_shard::ShardConfig;

use chunkpoint_campaign::CampaignSpec;

/// The one way to run a campaign, wherever it executes.
///
/// `submit` never blocks on the campaign: it validates lazily and runs
/// on a background worker, so a bad spec or unreachable backend
/// surfaces as a typed [`ExecError`] from [`CampaignHandle::wait`],
/// identically on every path. Executors are `Send + Sync` values;
/// submitting the same spec twice is always safe (the remote path
/// answers the second run from the backends' content-addressed cache).
pub trait CampaignExecutor {
    /// Starts `spec` executing and hands back its observation handle.
    fn submit(&self, spec: &CampaignSpec) -> CampaignHandle;
}
