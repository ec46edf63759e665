//! The adaptive controller: deterministic sequential-sampling control
//! rounds driven over any [`CampaignExecutor`].

use std::fmt;
use std::time::{Duration, Instant};

use chunkpoint_campaign::rows::{exact_cover, REPORT_AXES};
use chunkpoint_campaign::{
    canonical_report_json, CampaignSpec, CancelToken, JsonValue, ScenarioResult,
};
use chunkpoint_exec::{CampaignEvent, CampaignExecutor, ExecError};

use crate::metrics::ControllerTelemetry;
use crate::policy::{plan_round, AdaptivePolicy, CellProgress, CellStop};

/// One grid cell's final outcome under the controller.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Dense cell index in grid-enumeration order.
    pub cell: usize,
    /// Human-readable cell key (`benchmark · scheme · error_rate ·
    /// chunk`), from
    /// [`Scenario::cell_key`](chunkpoint_campaign::Scenario::cell_key).
    pub key: String,
    /// The stop decision: round, replicates spent, CI at stop.
    pub stop: CellStop,
}

/// A finished adaptive campaign.
#[derive(Debug, Clone)]
pub struct AdaptiveRun {
    /// The canonical report over exactly the executed scenarios, with
    /// the canonical `adaptive` section appended — the byte-identity
    /// surface: same `(spec, policy)`, same bytes, any executor.
    pub report: String,
    /// Executed rows in global scenario-index order (per-cell prefixes
    /// of the full grid).
    pub results: Vec<ScenarioResult>,
    /// Per-cell stop records, in cell-index order.
    pub cells: Vec<CellOutcome>,
    /// Control rounds planned (the final, allocation-free round
    /// included).
    pub rounds: u32,
    /// Scenario budget of the fixed grid (`cells × replicates`).
    pub budget: usize,
    /// Scenarios actually executed; `budget - executed` is what the
    /// stopping rule saved.
    pub executed: usize,
    /// Wall-clock time of the whole campaign.
    pub elapsed: Duration,
    /// Backend job submissions summed over every sub-campaign (0 under
    /// the local executor).
    pub dispatches: usize,
}

/// Drives a campaign as deterministic control rounds over any
/// [`CampaignExecutor`]: per round it stops every cell whose live CI95
/// half-width meets the policy's threshold (never below the replicate
/// floor), reallocates the freed budget to the highest-variance open
/// cells, and executes the planned replicate blocks as ranged follow-up
/// sub-specs through [`CampaignSpec::scenario_range`].
///
/// Determinism contract: every stop and reallocation decision is a pure
/// function of `(spec, policy, sealed scenario results at the round
/// boundary)` — rows are sealed in global scenario-index order before
/// any statistic sees them, so arrival order, thread count, executor
/// choice, and backend faults all cancel out. Same `(spec, policy)` ⇒
/// byte-identical
/// [`AdaptiveRun::report`].
pub struct AdaptiveController<E: CampaignExecutor> {
    executor: E,
    policy: AdaptivePolicy,
}

impl<E: CampaignExecutor> fmt::Debug for AdaptiveController<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdaptiveController")
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl<E: CampaignExecutor> AdaptiveController<E> {
    /// A controller driving `executor` under `policy`.
    #[must_use]
    pub fn new(executor: E, policy: AdaptivePolicy) -> Self {
        Self { executor, policy }
    }

    /// Runs the adaptive campaign to completion, discarding events.
    ///
    /// # Errors
    ///
    /// See [`AdaptiveController::run_ctl`].
    pub fn run(&self, spec: &CampaignSpec) -> Result<AdaptiveRun, ExecError> {
        self.run_ctl(spec, &CancelToken::new(), |_| {})
    }

    /// Runs the adaptive campaign with cooperative cancellation and an
    /// event observer.
    ///
    /// `on_event` sees the controller's own decisions
    /// ([`CampaignEvent::CellStopped`], [`CampaignEvent::Reallocated`])
    /// interleaved with the forwarded execution plane
    /// ([`CampaignEvent::ScenarioDone`] and the `Shard*` family), one
    /// [`CampaignEvent::Progress`] per round, and a final
    /// [`CampaignEvent::Complete`]. Progress `done` need not reach
    /// `total` — stopping short of the fixed grid is the point.
    ///
    /// # Errors
    ///
    /// [`ExecError::Rejected`] for a spec that already carries a
    /// `scenario_range` (the controller owns range construction) or
    /// enumerates no feasible grid; [`ExecError::Cancelled`] once
    /// `cancel` trips (outstanding sub-campaigns are cancelled);
    /// otherwise whatever typed error the wrapped executor failed a
    /// sub-campaign with.
    pub fn run_ctl(
        &self,
        spec: &CampaignSpec,
        cancel: &CancelToken,
        mut on_event: impl FnMut(&CampaignEvent),
    ) -> Result<AdaptiveRun, ExecError> {
        if spec.range().is_some() {
            return Err(ExecError::Rejected {
                backend: None,
                status: None,
                detail: "adaptive controller drives the whole grid; \
                         spec already carries a scenario_range"
                    .to_owned(),
            });
        }
        let started = Instant::now();
        let grid = spec.try_scenarios().map_err(|detail| ExecError::Rejected {
            backend: None,
            status: None,
            detail,
        })?;
        let replicates = spec.replicate_count();
        let stride = replicates as usize;
        let budget = grid.len();
        let cell_count = budget / stride;
        let telemetry = ControllerTelemetry::resolve();

        let mut cells: Vec<CellProgress> = vec![CellProgress::default(); cell_count];
        let mut results: Vec<ScenarioResult> = Vec::new();
        let mut pool = 0u64;
        let mut dispatches = 0usize;
        let mut round: u32 = 0;
        loop {
            round += 1;
            let plan = plan_round(&self.policy, replicates, round, &cells, pool);
            for (cell, stop) in &plan.stops {
                cells[*cell].stopped = Some(stop.clone());
                if stop.converged && stop.replicates < replicates {
                    telemetry.cells_stopped_early.inc();
                }
                on_event(&CampaignEvent::CellStopped {
                    cell: *cell,
                    round: stop.round,
                    replicates: stop.replicates,
                    ci95: stop.ci95,
                    converged: stop.converged,
                });
            }
            let open = cells.iter().filter(|cell| cell.stopped.is_none()).count();
            telemetry.open_cells.set(open as i64);
            for (cell, extra) in &plan.grants {
                telemetry.replicates_reallocated.add(*extra);
                on_event(&CampaignEvent::Reallocated {
                    cell: *cell,
                    round,
                    extra: *extra,
                });
            }
            if plan.allocations.is_empty() {
                break;
            }

            // Dispatch every planned block up front — ranged sub-specs
            // execute concurrently on the wrapped executor's own
            // workers — then seal them in cell-index order.
            let handles: Vec<_> = plan
                .allocations
                .iter()
                .map(|alloc| {
                    let start = alloc.cell * stride + alloc.from as usize;
                    let end = alloc.cell * stride + alloc.to as usize;
                    self.executor
                        .submit(&spec.clone().scenario_range(start, end))
                })
                .collect();
            let mut round_rows: Vec<ScenarioResult> = Vec::new();
            let mut failed: Option<ExecError> = None;
            for handle in handles {
                if failed.is_some() || cancel.is_cancelled() {
                    handle.cancel();
                    let _ = handle.wait();
                    continue;
                }
                for event in handle.events() {
                    match &event {
                        CampaignEvent::ScenarioDone(_)
                        | CampaignEvent::ShardDispatched { .. }
                        | CampaignEvent::ShardRedispatched { .. }
                        | CampaignEvent::ShardFailed { .. } => on_event(&event),
                        // Per-sub-campaign progress and completion are
                        // meaningless at the campaign scale; the
                        // controller emits its own.
                        _ => {}
                    }
                }
                match handle.wait() {
                    Ok(run) => {
                        dispatches += run.dispatches;
                        round_rows.extend(run.results);
                    }
                    Err(err) => failed = Some(err),
                }
            }
            if let Some(err) = failed {
                return Err(err);
            }
            if cancel.is_cancelled() {
                return Err(ExecError::Cancelled);
            }

            // Seal the round: rows enter the per-cell statistics in
            // global scenario-index order, never arrival order — this
            // sort is what makes every downstream decision a pure
            // function of the sealed set.
            round_rows.sort_by_key(|row| row.scenario.index);
            for row in &round_rows {
                let cell = row.scenario.index / stride;
                if cell >= cell_count {
                    return Err(ExecError::BadMerge {
                        detail: format!(
                            "scenario {} outside the {cell_count}-cell grid",
                            row.scenario.index
                        ),
                    });
                }
                cells[cell].summary.push(self.policy.metric.of(row));
                cells[cell].spent += 1;
            }
            results.extend(round_rows);
            on_event(&CampaignEvent::Progress {
                done: results.len(),
                total: budget,
            });
            pool = plan.pool;
        }

        // Coverage: the executed set must be exactly the per-cell
        // prefixes the plans scheduled, each scenario once. Every row's
        // cell was bounds-checked when its round was sealed.
        let mut by_cell: Vec<Vec<ScenarioResult>> = vec![Vec::new(); cell_count];
        for row in results {
            by_cell[row.scenario.index / stride].push(row);
        }
        let mut results = Vec::new();
        for (cell, rows) in by_cell.into_iter().enumerate() {
            let prefix = cell * stride..cell * stride + cells[cell].spent as usize;
            results.extend(
                exact_cover(prefix, rows).map_err(|detail| ExecError::BadMerge { detail })?,
            );
        }

        let mut outcomes = Vec::with_capacity(cell_count);
        let mut cell_rows = Vec::with_capacity(cell_count);
        for (cell, progress) in cells.iter().enumerate() {
            let stop = progress
                .stopped
                .clone()
                .ok_or_else(|| ExecError::BadMerge {
                    detail: format!("cell {cell} never reached a stop decision"),
                })?;
            let key = grid[cell * stride].cell_key();
            cell_rows.push(
                JsonValue::object()
                    .field("cell", cell)
                    .field("key", key.as_str())
                    .field("replicates", stop.replicates)
                    .field("stop_round", u64::from(stop.round))
                    .field("converged", stop.converged)
                    .field("mean", stop.mean)
                    .field("ci95", stop.ci95),
            );
            outcomes.push(CellOutcome { cell, key, stop });
        }
        let executed = results.len();
        let section = JsonValue::object()
            .field("policy", self.policy.to_json())
            .field("rounds", u64::from(round))
            .field("budget", budget)
            .field("executed", executed)
            .field("saved", budget - executed)
            .field("cells", cell_rows);
        let report = canonical_report_json(spec.campaign_seed, &results, &REPORT_AXES)
            .field("adaptive", section)
            .render();
        on_event(&CampaignEvent::Complete);
        Ok(AdaptiveRun {
            report,
            results,
            cells: outcomes,
            rounds: round,
            budget,
            executed,
            elapsed: started.elapsed(),
            dispatches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chunkpoint_campaign::SchemeSpec;
    use chunkpoint_core::{MitigationScheme, SystemConfig};
    use chunkpoint_exec::LocalExecutor;
    use chunkpoint_workloads::Benchmark;

    fn small_spec() -> CampaignSpec {
        let mut config = SystemConfig::paper(0);
        config.scale = 0.25;
        CampaignSpec::new(config, 7)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .error_rates(&[1e-6, 1e-3])
            .replicates(4)
    }

    #[test]
    fn ranged_specs_are_rejected() {
        let controller = AdaptiveController::new(LocalExecutor::new(1), AdaptivePolicy::new());
        let mut config = SystemConfig::paper(0);
        config.scale = 0.25;
        config.constraints.area_overhead = 0.0;
        let infeasible = CampaignSpec::new(config, 1)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("Optimal", SchemeSpec::Optimal);
        // An optimizer axis with no feasible design point is refused the
        // same way, before any sub-campaign runs.
        for (spec, why) in [
            (small_spec().scenario_range(0, 2), "scenario_range"),
            (infeasible, "feasible"),
        ] {
            match controller.run(&spec) {
                Err(ExecError::Rejected { detail, .. }) => {
                    assert!(detail.contains(why), "{detail}");
                }
                other => panic!("expected Rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn no_thresholds_executes_the_full_grid() {
        let controller = AdaptiveController::new(LocalExecutor::new(2), AdaptivePolicy::new());
        let run = controller.run(&small_spec()).expect("run");
        assert_eq!(run.budget, 8);
        assert_eq!(run.executed, 8, "no CI rule: fixed-grid behavior");
        assert_eq!(run.results.len(), 8);
        assert!(run.cells.iter().all(|cell| !cell.stop.converged));
        assert!(run.report.contains("\"adaptive\""));
    }

    #[test]
    fn loose_threshold_stops_early_and_replays_identically() {
        let policy = AdaptivePolicy::new().rel_ci(0.5);
        let controller = AdaptiveController::new(LocalExecutor::new(2), policy.clone());
        let first = controller.run(&small_spec()).expect("first run");
        assert!(
            first.executed < first.budget,
            "a 50% relative CI must stop 4-replicate cells early \
             (executed {} of {})",
            first.executed,
            first.budget
        );
        // Same (spec, policy), different thread count: same bytes.
        let again = AdaptiveController::new(LocalExecutor::new(1), policy)
            .run(&small_spec())
            .expect("replay");
        assert_eq!(first.report, again.report);
    }
}
