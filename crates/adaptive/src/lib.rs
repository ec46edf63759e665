//! # chunkpoint-adaptive
//!
//! **Sequential-sampling campaign control** on the executor event
//! plane: an [`AdaptiveController`] wraps any
//! [`CampaignExecutor`] and drives a campaign as deterministic control
//! rounds instead of one fixed grid —
//!
//! * cells whose live CI95 half-width (per-cell Welford over the
//!   watched metric) falls below the [`AdaptivePolicy`] threshold stop
//!   early, never below the replicate floor;
//! * the freed replicate budget flows to the highest-variance open
//!   cells as ranged follow-up sub-specs through
//!   [`chunkpoint_campaign::CampaignSpec::scenario_range`], on
//!   whichever executor the controller wraps (in-process, one `serve`,
//!   or [`chunkpoint_exec::ShardedExecutor`] across several).
//!
//! ## Determinism contract
//!
//! Stop and reallocation decisions are pure functions of `(spec,
//! policy, sealed scenario results at a round boundary)` — rows are
//! sorted into global scenario-index order before any statistic sees
//! them ([`plan_round`] is the pure planner, property-tested in
//! `tests/stopping_prop.rs`). The final [`AdaptiveRun::report`] is the
//! existing canonical report over exactly the executed scenarios plus a
//! canonical `adaptive` section, so the same `(spec, policy)` replays
//! byte-identically at any thread count, over any executor, and under
//! chaos faults (`tests/adaptive_parity.rs`).
//!
//! ## Example
//!
//! ```
//! use chunkpoint_adaptive::{AdaptiveController, AdaptivePolicy};
//! use chunkpoint_campaign::{CampaignSpec, SchemeSpec};
//! use chunkpoint_core::{MitigationScheme, SystemConfig};
//! use chunkpoint_exec::LocalExecutor;
//! use chunkpoint_workloads::Benchmark;
//!
//! let mut config = SystemConfig::paper(0);
//! config.scale = 0.25; // short run for the doctest
//! let spec = CampaignSpec::new(config, 0xADA9)
//!     .benchmarks(&[Benchmark::AdpcmEncode])
//!     .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
//!     .replicates(6);
//!
//! // Stop each cell once its CI95 half-width is within 40% of its
//! // mean (but never below 2 replicates).
//! let policy = AdaptivePolicy::new().min_replicates(2).rel_ci(0.4);
//! let run = AdaptiveController::new(LocalExecutor::new(2), policy)
//!     .run(&spec)
//!     .expect("adaptive campaign");
//! assert!(run.executed <= run.budget);
//! assert!(run.report.contains("\"adaptive\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod controller;
mod metrics;
mod policy;

pub use controller::{AdaptiveController, AdaptiveRun, CellOutcome};
pub use policy::{
    plan_round, AdaptivePolicy, CellAllocation, CellProgress, CellStop, RoundPlan, StopMetric,
};

// The wrapped executor API is part of this crate's surface.
pub use chunkpoint_exec::CampaignExecutor;
