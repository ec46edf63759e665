//! The typed observation surface of a running campaign: the one event
//! stream every execution path emits.

use crate::engine::ScenarioResult;

/// One observable step of a running campaign, in the order it happened:
/// the one event type of the shard coordinator, the executor handles
/// and the adaptive controller.
///
/// Every execution path emits [`CampaignEvent::ScenarioDone`] for each
/// scenario, monotone [`CampaignEvent::Progress`] updates ending at
/// `done == total`, and exactly one final [`CampaignEvent::Complete`]
/// on success (never on error or cancellation). The `Shard*` and
/// `CacheHit` events narrate the shard coordinator's decisions, so
/// they occur only on the remote paths; *when*
/// `ScenarioDone` events arrive differs by path (live in process, per
/// sealed shard remotely) — their contents do not.
#[derive(Debug, Clone)]
pub enum CampaignEvent {
    /// One scenario finished; the result is exactly the row the
    /// canonical report will carry.
    ScenarioDone(ScenarioResult),
    /// Scenario completion progress. `done` never decreases and ends at
    /// `total` on every successful run.
    Progress {
        /// Scenarios completed so far.
        done: usize,
        /// Scenarios this run executes.
        total: usize,
    },
    /// A shard was assigned to a backend (first dispatch).
    ShardDispatched {
        /// Shard index.
        shard: usize,
        /// The shard's scenario range `[start, end)`.
        range: (usize, usize),
        /// Backend address.
        backend: String,
    },
    /// A shard's job failed on a backend, or — with `shard: None` — the
    /// backend itself struck out (its circuit breaker opened for the
    /// first time).
    ShardFailed {
        /// The failed shard, or `None` when the whole backend died.
        shard: Option<usize>,
        /// Backend address.
        backend: String,
        /// What the coordinator observed.
        why: String,
    },
    /// A shard moved to a surviving backend after a failure (or, with
    /// one backend, is resubmitted to it).
    ShardRedispatched {
        /// Shard index.
        shard: usize,
        /// The shard's scenario range `[start, end)`.
        range: (usize, usize),
        /// Backend address the shard now lives on.
        backend: String,
    },
    /// A shard's range was served whole from the coordinator's result
    /// cache instead of being dispatched (a cache configured). The spliced rows still arrive as
    /// [`CampaignEvent::ScenarioDone`] events right after this one, so
    /// downstream consumers cannot tell cached rows from executed ones
    /// — by design, since the bytes are identical.
    CacheHit {
        /// Shard index.
        shard: usize,
        /// The shard's scenario range `[start, end)`.
        range: (usize, usize),
        /// How many sealed rows the splice supplied.
        rows: usize,
    },
    /// The adaptive controller stopped a grid cell: no further
    /// replicates will be scheduled for it (adaptive path only).
    CellStopped {
        /// Dense cell index in grid-enumeration order.
        cell: usize,
        /// Control round the decision was taken at (1-based).
        round: u32,
        /// Replicates the cell had executed when it stopped.
        replicates: u64,
        /// The cell's CI95 half-width at the stop decision.
        ci95: f64,
        /// `true` when the CI threshold was met; `false` when the cell
        /// simply exhausted its budget or the round limit.
        converged: bool,
    },
    /// The adaptive controller granted freed replicate budget to a
    /// high-variance open cell (adaptive path only).
    Reallocated {
        /// Dense cell index in grid-enumeration order.
        cell: usize,
        /// Control round the grant was made in (1-based).
        round: u32,
        /// Extra replicates granted beyond the cell's base allocation.
        extra: u64,
    },
    /// The campaign finished and its run will be returned. Always the
    /// final event of a successful run.
    Complete,
}

impl std::fmt::Display for CampaignEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignEvent::ScenarioDone(result) => {
                write!(
                    f,
                    "scenario {} done ({} · {} · λ={:e})",
                    result.scenario.index,
                    result.scenario.benchmark.name(),
                    result.scenario.scheme_label,
                    result.scenario.error_rate
                )
            }
            CampaignEvent::Progress { done, total } => write!(f, "{done}/{total} scenarios"),
            CampaignEvent::ShardDispatched {
                shard,
                range: (start, end),
                backend,
            } => write!(f, "shard {shard} [{start}, {end}) → {backend}"),
            CampaignEvent::ShardFailed {
                shard: Some(shard),
                backend,
                why,
            } => write!(f, "shard {shard} failed on {backend}: {why}"),
            CampaignEvent::ShardFailed {
                shard: None,
                backend,
                why,
            } => write!(f, "backend {backend} struck out: {why}"),
            CampaignEvent::ShardRedispatched {
                shard,
                range: (start, end),
                backend,
            } => write!(
                f,
                "shard {shard} [{start}, {end}) re-dispatched → {backend}"
            ),
            CampaignEvent::CacheHit {
                shard,
                range: (start, end),
                rows,
            } => write!(
                f,
                "shard {shard} [{start}, {end}) spliced {rows} rows from cache"
            ),
            CampaignEvent::CellStopped {
                cell,
                round,
                replicates,
                ci95,
                converged,
            } => write!(
                f,
                "cell {cell} {} at round {round} ({replicates} replicates, ci95 {ci95:.3e})",
                if *converged {
                    "converged"
                } else {
                    "stopped unconverged"
                }
            ),
            CampaignEvent::Reallocated { cell, round, extra } => {
                write!(
                    f,
                    "cell {cell} granted {extra} extra replicates (round {round})"
                )
            }
            CampaignEvent::Complete => write!(f, "complete"),
        }
    }
}
