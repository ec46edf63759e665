//! # chunkpoint-shard
//!
//! A **scenario-range shard coordinator** over one or more `serve`
//! campaign services: take one
//! [`CampaignSpec`](chunkpoint_campaign::CampaignSpec), split its
//! scenario index space into contiguous ranges (the spec wire format's
//! optional `scenario_range` field), submit one ranged sub-spec per
//! backend, wait on each to completion — re-dispatching a failed or
//! unreachable shard to a surviving backend — and merge the per-shard
//! journals into one canonical report.
//!
//! The three layers:
//!
//! * [`partition`](mod@partition) — splits `0..n` into at most `k`
//!   contiguous, non-empty, disjoint ranges covering the grid exactly,
//!   their sizes differing by at most one;
//! * [`client`] — the coordinator's std-only HTTP client with **typed**
//!   errors (connect vs. mid-exchange I/O vs. torn response vs.
//!   oversized body), bounded in time and memory against misbehaving
//!   peers;
//! * [`coordinator`] — the dispatch loop and the journal merge.
//!
//! ## Why the merged report is byte-identical to a single machine
//!
//! Every scenario's fault seed derives from `(campaign_seed,
//! global_index)` and a ranged sub-spec still enumerates the *whole*
//! grid (the range only restricts execution), so a shard computes
//! exactly the rows the unsharded campaign would — on any backend, any
//! number of times. The merge sorts rows by global scenario index, and
//! the report is [`chunkpoint_campaign::rows::canonical_report`], the
//! one report every execution path renders. The result: sharding,
//! backend failures, and re-dispatches are all invisible in the output,
//! which `crates/shard/tests/cross_shard.rs` proves by `SIGKILL`ing a
//! real backend mid-campaign and comparing bytes.
//!
//! ## Example
//!
//! ```no_run
//! use chunkpoint_campaign::{CampaignSpec, SchemeSpec};
//! use chunkpoint_core::{MitigationScheme, SystemConfig};
//! use chunkpoint_shard::{run_sharded, ShardConfig};
//! use chunkpoint_workloads::Benchmark;
//!
//! let spec = CampaignSpec::new(SystemConfig::paper(0), 7)
//!     .benchmarks(&[Benchmark::AdpcmEncode])
//!     .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
//!     .replicates(8);
//! let backends = vec!["127.0.0.1:8077".to_owned(), "127.0.0.1:8078".to_owned()];
//! let run = run_sharded(&spec, &backends, &ShardConfig::default()).expect("sharded campaign");
//! println!("{} scenarios over {} shards", run.results.len(), run.shards);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod breaker;
pub mod cache;
pub mod client;
pub mod coordinator;
mod metrics;
pub mod partition;

pub use breaker::{Backoff, BreakerState, CircuitBreaker};
pub use cache::RangeCache;
pub use client::{exchange, ClientError, MAX_RESPONSE_BYTES};
pub use metrics::cache_evictions;

pub use coordinator::{
    fetch_journal_rows, merged_report, run_sharded, run_sharded_ctl, ExecError, PartialCampaign,
    ShardConfig, ShardRun,
};
pub use partition::partition;
