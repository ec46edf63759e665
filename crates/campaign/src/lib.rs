//! # chunkpoint-campaign
//!
//! A deterministic, parallel Monte Carlo **campaign engine** for the
//! chunkpoint evaluation grid. The paper's results are a cross product of
//! independent simulations — benchmark × mitigation scheme × strike rate
//! λ × chunk size × fault seed — and this crate turns that sweep into a
//! first-class workload:
//!
//! * **Declarative grids** — [`CampaignSpec`] builds the scenario cross
//!   product axis by axis ([`CampaignSpec::benchmarks`],
//!   [`CampaignSpec::scheme`], [`CampaignSpec::error_rates`],
//!   [`CampaignSpec::chunk_words`], [`CampaignSpec::replicates`]), with
//!   scheme entries that resolve per benchmark through the optimizer
//!   ([`SchemeSpec::Optimal`] / [`SchemeSpec::Suboptimal`]).
//! * **Deterministic parallelism** — scenarios execute on a
//!   work-stealing pool of `std::thread` workers ([`pool`]), but every
//!   scenario's fault seed is derived up front from
//!   `(campaign_seed, scenario_index)` via SplitMix64 ([`seed`]), so the
//!   per-scenario results are **bit-identical at any thread count**.
//! * **Streaming statistics** — per-scenario results aggregate into
//!   mean / stddev / 95 % CI summaries for energy, cycles, rollbacks and
//!   restarts, grouped by any subset of grid axes ([`stats`]).
//! * **Machine-readable reports** — [`CampaignResult::to_json`] emits the
//!   full campaign (metadata, per-scenario rows, aggregates) as JSON with
//!   no external dependencies ([`json`]); [`cli`] gives every experiment
//!   binary the same `--threads/--seeds/--seed/--json` surface.
//! * **Sealed rows** — [`rows`] is the one codec for stored and fetched
//!   [`ScenarioResult`] rows: the torn-tail rule, per-row admission
//!   against a grid range, and the exact-coverage check.
//!
//! ## Example
//!
//! ```
//! use chunkpoint_campaign::{run_campaign, Axis, CampaignSpec, SchemeSpec};
//! use chunkpoint_core::{MitigationScheme, SystemConfig};
//! use chunkpoint_workloads::Benchmark;
//!
//! let mut config = SystemConfig::paper(0);
//! config.scale = 0.25; // short run for the doctest
//! let spec = CampaignSpec::new(config, 0xCA4A)
//!     .benchmarks(&[Benchmark::AdpcmEncode])
//!     .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
//!     .scheme(
//!         "Proposed",
//!         SchemeSpec::Fixed(MitigationScheme::Hybrid { chunk_words: 16, l1_prime_t: 8 }),
//!     )
//!     .replicates(2);
//!
//! // Thread count changes wall-clock time, never results:
//! let parallel = run_campaign(&spec, 4);
//! let serial = run_campaign(&spec, 1);
//! assert_eq!(parallel.results, serial.results);
//!
//! // Aggregate by scheme: every replicate completed and was correct.
//! for (_key, stats) in parallel.aggregate(&[Axis::Scheme]).groups() {
//!     assert_eq!(stats.correct, 2);
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod diff;
pub mod engine;
pub mod event;
/// The workspace JSON layer at its historical path — the types now live
/// in [`chunkpoint_scenario::json`] so the scenario DSL sits below the
/// campaign engine in the dependency graph.
pub mod json {
    pub use chunkpoint_scenario::json::*;
}
pub mod pool;
pub mod rows;
pub mod seed;
pub mod spec;
pub mod stats;
pub mod telemetry;

pub use cli::{write_json_report, CampaignArgs};
pub use diff::{contexts_match, diff_specs, translate_rows, SpecDiff};
pub use engine::{
    canonical_report_json, run_campaign, run_campaign_streaming, run_grid_streaming,
    CampaignResult, ScenarioResult,
};
pub use event::CampaignEvent;
pub use json::{JsonParseError, JsonValue};
pub use pool::CancelToken;
pub use seed::scenario_seed;
pub use spec::{CampaignSpec, Scenario, SchemeSpec, MAX_GRID_SCENARIOS, SPEC_VERSION};
pub use stats::{Aggregator, Axis, GroupStats, Summary};
pub use telemetry::TelemetrySink;
