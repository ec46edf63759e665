//! # chunkpoint-serve
//!
//! A dependency-free (std-only) HTTP/1.1 **campaign service** over the
//! [`chunkpoint_campaign`] engine: submit a Monte Carlo campaign spec
//! over the wire, run it on a bounded pool with cooperative
//! cancellation, journal every completed scenario to disk, resume
//! interrupted campaigns bit-identically after a crash or restart, and
//! answer repeated submissions of the same spec from a content-addressed
//! result cache.
//!
//! The four layers:
//!
//! * [`http`] — a minimal HTTP/1.1 server: request parsing under hard
//!   size limits, JSON responses, one request per connection.
//! * [`jobs`] — the job manager: `max_jobs` runner threads drain a
//!   queue, each driving [`chunkpoint_campaign::run_campaign_streaming`]
//!   with a [`chunkpoint_campaign::CancelToken`], a journal-derived skip
//!   set, and a journal-first result sink.
//! * [`store`] — the checkpoint store: per-job directories keyed by the
//!   spec's content hash, holding the canonical spec, an append-only
//!   `journal.jsonl` of [`chunkpoint_campaign::ScenarioResult`] rows,
//!   and the final `result.json`.
//! * [`server`] — the router and accept loop with graceful shutdown.
//!
//! ## Why resume is bit-identical
//!
//! Every scenario's fault seed derives from `(campaign_seed,
//! scenario_index)` (SplitMix64), never from time, thread, or process.
//! A restarted service re-enumerates the grid from the persisted spec,
//! skips the journaled indices, and computes exactly the numbers the
//! crashed process would have. The final report is the timing-free
//! [`chunkpoint_campaign::canonical_report_json`], so an interrupted-
//! then-resumed campaign renders **byte-identical** report JSON to an
//! uninterrupted run — which the integration tests assert by `SIGKILL`ing
//! a live service mid-campaign.
//!
//! ## Example
//!
//! ```
//! use chunkpoint_campaign::{CampaignSpec, SchemeSpec};
//! use chunkpoint_core::{MitigationScheme, SystemConfig};
//! use chunkpoint_serve::server::{ServeConfig, Server};
//! use chunkpoint_shard::exchange;
//! use chunkpoint_workloads::Benchmark;
//!
//! let dir = std::env::temp_dir().join(format!("chunkpoint-doc-{}", std::process::id()));
//! let config = ServeConfig {
//!     addr: "127.0.0.1:0".to_owned(),
//!     data_dir: dir.clone(),
//!     max_jobs: 1,
//!     campaign_threads: 1,
//!     max_queued: 0, // unbounded
//!     trace_out: None,
//! };
//! let server = Server::bind(&config).expect("bind");
//! let addr = server.local_addr().expect("addr").to_string();
//! std::thread::spawn(move || server.run());
//!
//! let mut base = SystemConfig::paper(0);
//! base.scale = 0.25;
//! let spec = CampaignSpec::new(base, 1)
//!     .benchmarks(&[Benchmark::AdpcmEncode])
//!     .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
//!     .normalize(false)
//!     .golden_check(false);
//! // Any HTTP/1.1 client will do; the workspace's own is the shard
//! // coordinator's.
//! let timeout = std::time::Duration::from_secs(10);
//! let body = spec.to_json().render();
//! let (status, body) =
//!     exchange(&addr, "POST", "/campaigns", Some(&body), timeout).expect("submit");
//! assert_eq!(status, 202, "{body}");
//! exchange(&addr, "POST", "/shutdown", None, timeout).expect("stop");
//! let _ = std::fs::remove_dir_all(dir);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod http;
pub mod jobs;
pub mod metrics;
pub mod server;
pub mod store;

/// Axes of the canonical report's aggregate section, defined with the
/// report itself in [`chunkpoint_campaign::rows`].
pub use chunkpoint_campaign::rows::REPORT_AXES;
pub use jobs::{JobCounts, JobManager, JobState, JobStatus};
pub use server::{ServeConfig, Server};
pub use store::{JobStore, JournalWriter, LoadedJournal};
