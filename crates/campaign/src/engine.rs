//! Campaign execution: scenario grid → work-stealing pool → ordered
//! results → aggregates → JSON.
//!
//! Every scenario job is a pure function of its [`Scenario`] (the fault
//! seed is pre-derived from the campaign seed and the scenario index), so
//! the engine produces bit-identical per-scenario results at any thread
//! count — the pool only changes how long the campaign takes.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use chunkpoint_core::{golden, run, MitigationScheme, RunReport, SystemConfig};
use chunkpoint_scenario::{RunStats, ScenarioDef, TimelineEvent};
use chunkpoint_sim::{Burst, FaultTimeline};
use chunkpoint_workloads::Benchmark;

use crate::json::JsonValue;
use crate::pool::{run_jobs_ctl, CancelToken};
use crate::spec::{CampaignSpec, Scenario};
use crate::stats::{Aggregator, Axis, GroupStats, Summary};

/// The measured outcome of one scenario — a [`RunReport`] distilled to
/// its campaign-relevant numbers (output words and the event trace are
/// dropped; a grid of thousands of scenarios cannot keep every frame).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The scenario that produced this result.
    pub scenario: Scenario,
    /// Total energy, pJ.
    pub energy_pj: f64,
    /// Execution cycles.
    pub cycles: u64,
    /// Detected-uncorrectable reads.
    pub errors_detected: u64,
    /// Checkpoint rollbacks (hybrid only).
    pub rollbacks: u64,
    /// Whole-task restarts.
    pub restarts: u64,
    /// Checkpoints committed (hybrid only).
    pub checkpoints: u64,
    /// Whether the run completed within its recovery budgets.
    pub completed: bool,
    /// Energy normalized to the same-seed *Default* run (normalized
    /// campaigns only).
    pub energy_ratio: Option<f64>,
    /// Cycles normalized to the same-seed *Default* run.
    pub cycle_ratio: Option<f64>,
    /// Whether the output matched the fault-free golden reference.
    pub correct: Option<bool>,
    /// Verdict of the timeline scenario's `expect` block (`None` when the
    /// cell has no timeline scenario or the scenario declares no
    /// expectations).
    pub expect_passed: Option<bool>,
    /// Human-readable description of each failed expectation (empty when
    /// the block passed or was absent).
    pub expect_failures: Vec<String>,
}

impl ScenarioResult {
    /// Serializes the result as one self-describing JSON object — the
    /// per-scenario row of campaign reports and the line format of the
    /// service's append-only journal.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let s = &self.scenario;
        let mut doc = JsonValue::object()
            .field("index", s.index)
            .field("benchmark", s.benchmark.name())
            .field("scheme", s.scheme_label.as_str())
            .field("scheme_detail", s.scheme.label())
            .field("error_rate", s.error_rate)
            .field("chunk_words", s.chunk_words().map(u64::from))
            .field("replicate", s.replicate)
            .field("seed", s.seed)
            .field("energy_pj", self.energy_pj)
            .field("cycles", self.cycles)
            .field("errors_detected", self.errors_detected)
            .field("rollbacks", self.rollbacks)
            .field("restarts", self.restarts)
            .field("checkpoints", self.checkpoints)
            .field("completed", self.completed)
            .field("energy_ratio", self.energy_ratio)
            .field("cycle_ratio", self.cycle_ratio)
            .field("correct", self.correct);
        // Appended only on scenario-axis cells: pre-existing campaigns
        // keep their journal and report bytes unchanged.
        if let Some(name) = &s.scenario {
            doc = doc.field("scenario", name.as_str());
        }
        if let Some(passed) = self.expect_passed {
            let failures: Vec<JsonValue> = self
                .expect_failures
                .iter()
                .map(|f| JsonValue::from(f.as_str()))
                .collect();
            doc = doc
                .field("expect_passed", passed)
                .field("expect_failures", JsonValue::Array(failures));
        }
        doc
    }

    /// Reconstructs a result from its [`ScenarioResult::to_json`] form
    /// plus the scenario it claims to belong to (re-enumerated from the
    /// spec — the journal stores measurements, the spec stays the single
    /// source of truth for the grid).
    ///
    /// # Errors
    ///
    /// Rejects rows whose `index` or `seed` disagree with `scenario`
    /// (a journal from a different spec or campaign seed) and rows with
    /// missing or mistyped measurement fields.
    pub fn from_json(value: &JsonValue, scenario: Scenario) -> Result<Self, String> {
        let get_u64 = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("journal row: missing or non-integer {key:?}"))
        };
        let get_f64 = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("journal row: missing or non-numeric {key:?}"))
        };
        let opt_f64 = |key: &str| match value.get(key) {
            None => Ok(None),
            Some(v) if v.is_null() => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| format!("journal row: non-numeric {key:?}")),
        };
        let index = get_u64("index")? as usize;
        if index != scenario.index {
            return Err(format!(
                "journal row: index {index} does not match scenario {}",
                scenario.index
            ));
        }
        let seed = get_u64("seed")?;
        if seed != scenario.seed {
            return Err(format!(
                "journal row: seed {seed:#x} disagrees with the spec's derived seed \
                 {:#x} for scenario {index} — journal belongs to a different campaign",
                scenario.seed
            ));
        }
        let correct = match value.get("correct") {
            None => None,
            Some(v) if v.is_null() => None,
            Some(v) => Some(v.as_bool().ok_or("journal row: non-boolean \"correct\"")?),
        };
        let expect_passed = match value.get("expect_passed") {
            None => None,
            Some(v) if v.is_null() => None,
            Some(v) => Some(
                v.as_bool()
                    .ok_or("journal row: non-boolean \"expect_passed\"")?,
            ),
        };
        let expect_failures = match value.get("expect_failures") {
            None => Vec::new(),
            Some(v) if v.is_null() => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or("journal row: \"expect_failures\" must be an array")?
                .iter()
                .map(|f| {
                    f.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| "journal row: non-string expect failure".to_owned())
                })
                .collect::<Result<_, _>>()?,
        };
        Ok(Self {
            scenario,
            energy_pj: get_f64("energy_pj")?,
            cycles: get_u64("cycles")?,
            errors_detected: get_u64("errors_detected")?,
            rollbacks: get_u64("rollbacks")?,
            restarts: get_u64("restarts")?,
            checkpoints: get_u64("checkpoints")?,
            completed: value
                .get("completed")
                .and_then(JsonValue::as_bool)
                .ok_or("journal row: missing or non-boolean \"completed\"")?,
            energy_ratio: opt_f64("energy_ratio")?,
            cycle_ratio: opt_f64("cycle_ratio")?,
            correct,
            expect_passed,
            expect_failures,
        })
    }

    fn from_report(scenario: Scenario, report: &RunReport) -> Self {
        Self {
            scenario,
            energy_pj: report.energy_pj(),
            cycles: report.cycles(),
            errors_detected: report.errors_detected,
            rollbacks: report.rollbacks,
            restarts: report.restarts,
            checkpoints: report.checkpoints,
            completed: report.completed,
            energy_ratio: None,
            cycle_ratio: None,
            correct: None,
            expect_passed: None,
            expect_failures: Vec::new(),
        }
    }
}

/// A completed campaign: per-scenario results in grid order plus timing.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Results, ordered by scenario index (grid order, not completion
    /// order).
    pub results: Vec<ScenarioResult>,
    /// Worker count the campaign ran with.
    pub threads: usize,
    /// Wall-clock execution time of the grid (excludes golden pre-runs).
    pub elapsed: Duration,
    /// Campaign seed the scenario seeds were derived from.
    pub campaign_seed: u64,
}

impl CampaignResult {
    /// Scenario throughput, scenarios per wall-clock second.
    #[must_use]
    pub fn scenarios_per_sec(&self) -> f64 {
        self.results.len() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Aggregates the results grouped by `axes`, pushing in scenario
    /// order so the accumulation is itself reproducible.
    #[must_use]
    pub fn aggregate(&self, axes: &[Axis]) -> Aggregator {
        let mut aggregator = Aggregator::new(axes);
        for result in &self.results {
            aggregator.push(result);
        }
        aggregator
    }

    /// The machine-readable campaign report: metadata, per-scenario rows
    /// and aggregates grouped by `axes`.
    #[must_use]
    pub fn to_json(&self, axes: &[Axis]) -> JsonValue {
        let scenarios: Vec<JsonValue> = self.results.iter().map(ScenarioResult::to_json).collect();
        let aggregator = self.aggregate(axes);
        let axis_names: Vec<JsonValue> = axes
            .iter()
            .map(|a| JsonValue::from(format!("{a:?}")))
            .collect();
        let groups: Vec<JsonValue> = aggregator
            .groups()
            .map(|(key, stats)| {
                let key: Vec<JsonValue> = key
                    .iter()
                    .map(|part| JsonValue::from(part.as_str()))
                    .collect();
                group_json(&key, stats)
            })
            .collect();
        JsonValue::object()
            .field("campaign_seed", self.campaign_seed)
            .field("threads", self.threads)
            .field("scenarios", self.results.len())
            .field("elapsed_secs", self.elapsed.as_secs_f64())
            .field("scenarios_per_sec", self.scenarios_per_sec())
            .field("group_by", JsonValue::Array(axis_names))
            .field("aggregates", JsonValue::Array(groups))
            .field("results", JsonValue::Array(scenarios))
    }
}

fn summary_json(summary: &Summary) -> JsonValue {
    JsonValue::object()
        .field("mean", summary.mean())
        .field("stddev", summary.stddev())
        .field("ci95", summary.ci95_half_width())
}

fn group_json(key: &[JsonValue], stats: &GroupStats) -> JsonValue {
    JsonValue::object()
        .field("key", JsonValue::Array(key.to_vec()))
        .field("n", stats.n)
        .field("energy_pj", summary_json(&stats.energy_pj))
        .field("cycles", summary_json(&stats.cycles))
        .field("rollbacks", summary_json(&stats.rollbacks))
        .field("restarts", summary_json(&stats.restarts))
        .field("energy_ratio", summary_json(&stats.energy_ratio))
        .field("cycle_ratio", summary_json(&stats.cycle_ratio))
        .field("correct", stats.correct)
        .field("completed", stats.completed)
}

/// The timing-free campaign report: metadata, aggregates grouped by
/// `axes`, and per-scenario rows, from results alone.
///
/// Unlike [`CampaignResult::to_json`] this carries no wall-clock fields
/// (`elapsed_secs`, `scenarios_per_sec`, `threads`), so its rendering is
/// a pure function of the spec and seed: an interrupted campaign that
/// resumes from a journal produces **bit-identical** report bytes to an
/// uninterrupted run — the invariant the campaign service's checkpoint
/// store is built on. `results` must be in scenario-index order (the
/// aggregation streams in push order).
#[must_use]
pub fn canonical_report_json(
    campaign_seed: u64,
    results: &[ScenarioResult],
    axes: &[Axis],
) -> JsonValue {
    let mut aggregator = Aggregator::new(axes);
    for result in results {
        aggregator.push(result);
    }
    let axis_names: Vec<JsonValue> = axes
        .iter()
        .map(|a| JsonValue::from(format!("{a:?}")))
        .collect();
    let groups: Vec<JsonValue> = aggregator
        .groups()
        .map(|(key, stats)| {
            let key: Vec<JsonValue> = key
                .iter()
                .map(|part| JsonValue::from(part.as_str()))
                .collect();
            group_json(&key, stats)
        })
        .collect();
    let rows: Vec<JsonValue> = results.iter().map(ScenarioResult::to_json).collect();
    JsonValue::object()
        .field("campaign_seed", campaign_seed)
        .field("scenarios", results.len())
        .field("group_by", JsonValue::Array(axis_names))
        .field("aggregates", JsonValue::Array(groups))
        .field("results", JsonValue::Array(rows))
}

/// Lowers a scenario definition's timeline to the simulator's
/// [`FaultTimeline`]. `task_switch` events are resolved separately (they
/// change the benchmark, not the fault process); a later `scrub` wins.
fn timeline_from_def(def: &ScenarioDef) -> FaultTimeline {
    let mut timeline = FaultTimeline::default();
    for event in &def.timeline {
        match event {
            TimelineEvent::ErrorRateShift { cycle, rate } => {
                timeline.shifts.push((*cycle, *rate));
            }
            TimelineEvent::FaultBurst { cycle, words, rate } => timeline.bursts.push(Burst {
                cycle: *cycle,
                words: *words,
                rate: *rate,
            }),
            TimelineEvent::Scrub { period } => timeline.scrub_period = Some(*period),
            TimelineEvent::TaskSwitch { .. } => {}
        }
    }
    timeline
}

/// The benchmark a scenario actually executes: the grid benchmark unless
/// its timeline scenario carries a `task_switch` override. Targets are
/// validated when the axis is built, so an unresolvable name (impossible
/// through the public API) degrades to the grid benchmark instead of
/// panicking mid-campaign.
fn effective_benchmark(spec: &CampaignSpec, scenario: &Scenario) -> Benchmark {
    scenario
        .scenario
        .as_deref()
        .and_then(|name| spec.scenario_def(name))
        .and_then(ScenarioDef::task_override)
        .and_then(|task| crate::spec::benchmark_from_name(task).ok())
        .unwrap_or(scenario.benchmark)
}

/// Runs one scenario: derive the config (applying any timeline-scenario
/// fault environment and task override), execute the scheme, and — for
/// normalized campaigns — the same-seed Default denominator plus the
/// golden comparison; finally evaluate the scenario's `expect` block.
fn run_scenario(
    spec: &CampaignSpec,
    scenario: &Scenario,
    golden_output: Option<&[u32]>,
) -> ScenarioResult {
    let mut config = spec.base.with_seed(scenario.seed);
    config.faults.error_rate = scenario.error_rate;
    let def = scenario
        .scenario
        .as_deref()
        .and_then(|name| spec.scenario_def(name));
    if let Some(def) = def {
        let timeline = timeline_from_def(def);
        if !timeline.is_empty() {
            config.timeline = Some(timeline);
        }
    }
    let benchmark = effective_benchmark(spec, scenario);
    let report = run(benchmark, scenario.scheme, &config);
    let mut result = ScenarioResult::from_report(scenario.clone(), &report);
    if spec.is_normalized() {
        let denominator = if scenario.scheme == MitigationScheme::Default {
            // The denominator *is* this run; skip the duplicate work.
            None
        } else {
            Some(run(benchmark, MitigationScheme::Default, &config))
        };
        let denominator = denominator.as_ref().unwrap_or(&report);
        result.energy_ratio = Some(report.energy_ratio(denominator));
        result.cycle_ratio = Some(report.cycle_ratio(denominator));
    }
    if let Some(golden_output) = golden_output {
        result.correct = Some(report.output == golden_output);
    }
    if let Some(def) = def {
        if !def.expect.is_empty() {
            let stats = RunStats {
                completed: result.completed,
                correct: result.correct.unwrap_or(true),
                detected_errors: result.errors_detected,
                rollbacks: result.rollbacks,
                restarts: result.restarts,
                checkpoints: result.checkpoints,
                energy_pj: result.energy_pj,
                cycles: result.cycles,
            };
            let verdict = def.evaluate(&stats);
            result.expect_passed = Some(verdict.passed);
            result.expect_failures = verdict.failures;
            crate::telemetry::expect_evaluated(verdict.passed);
        }
    }
    result
}

/// Executes the part of a campaign not in `skip`, streaming every result
/// to `on_result` as it completes and honouring cooperative cancellation
/// — the engine seam the campaign service's checkpoint/resume machinery
/// drives.
///
/// * A spec with a [`CampaignSpec::scenario_range`] restriction runs only
///   the scenarios inside its half-open range — the shard execution path.
///   Indices and seeds are global (enumeration always covers the whole
///   grid), so the rows a ranged run produces are exactly the rows the
///   full campaign would produce for those indices.
/// * `skip` holds scenario indices that are already journaled: they are
///   neither re-run nor re-delivered. Because every scenario's seed is
///   derived from `(campaign_seed, index)`, the scenarios that *do* run
///   produce exactly the bytes they would have produced in the skipped
///   run — resume is bit-identical by construction.
/// * `cancel` stops the grid between scenarios ([`CancelToken`]); the
///   results computed before the stop have already reached `on_result`.
/// * `on_result` runs on the calling thread in **completion order**
///   (suitable for append-only journaling); the returned vector is
///   re-sorted into scenario-index order.
///
/// # Panics
///
/// Panics if the spec enumerates an empty or unresolvable grid (see
/// [`CampaignSpec::scenarios`]) or if a scenario's simulation panics.
pub fn run_campaign_streaming(
    spec: &CampaignSpec,
    threads: usize,
    cancel: &CancelToken,
    skip: &HashSet<usize>,
    on_result: impl FnMut(&ScenarioResult),
) -> Vec<ScenarioResult> {
    run_grid_streaming(spec, &spec.scenarios(), threads, cancel, skip, on_result)
}

/// [`run_campaign_streaming`] over a grid the caller has already
/// enumerated, for callers that need the grid themselves (a progress
/// total, a journal check) and should not pay for a second enumeration
/// (on an optimizer-backed scheme axis, one optimizer search per
/// benchmark).
///
/// `scenarios` must be `spec.scenarios()`: the full grid, whatever the
/// spec's range restriction.
///
/// # Panics
///
/// Panics if a scenario's simulation panics.
pub fn run_grid_streaming(
    spec: &CampaignSpec,
    scenarios: &[Scenario],
    threads: usize,
    cancel: &CancelToken,
    skip: &HashSet<usize>,
    mut on_result: impl FnMut(&ScenarioResult),
) -> Vec<ScenarioResult> {
    let pending: Vec<usize> = spec
        .active_range(scenarios.len())
        .filter(|index| !skip.contains(index))
        .collect();
    // Golden references are fault-free and seed-independent: one per
    // *effective* benchmark that still has work pending (a resumed
    // campaign whose journal already covers a benchmark skips its golden
    // run too, and a task_switch scenario gets the golden of the
    // benchmark it actually runs), computed up front so workers only
    // compare outputs. First-seen dedup keeps the set a pure function of
    // the spec, independent of thread count.
    let goldens: Vec<(Benchmark, RunReport)> = if spec.checks_golden() {
        let mut needed: Vec<Benchmark> = Vec::new();
        for &index in &pending {
            let benchmark = effective_benchmark(spec, &scenarios[index]);
            if !needed.contains(&benchmark) {
                needed.push(benchmark);
            }
        }
        needed
            .into_iter()
            .map(|benchmark| (benchmark, golden(benchmark, &spec.base)))
            .collect()
    } else {
        Vec::new()
    };
    let golden_for = |benchmark: Benchmark| -> Option<&[u32]> {
        goldens
            .iter()
            .find(|(b, _)| *b == benchmark)
            .map(|(_, report)| report.output.as_slice())
    };
    let mut results: Vec<ScenarioResult> = Vec::with_capacity(pending.len());
    run_jobs_ctl(
        &pending,
        threads,
        cancel,
        |index| {
            let scenario = &scenarios[index];
            let started = Instant::now();
            let result = run_scenario(
                spec,
                scenario,
                golden_for(effective_benchmark(spec, scenario)),
            );
            // Out-of-band: the sink observes wall time, it never feeds
            // back into the result.
            crate::telemetry::scenario_completed(started.elapsed().as_secs_f64());
            result
        },
        |_, result| {
            on_result(&result);
            results.push(result);
        },
    );
    results.sort_by_key(|r| r.scenario.index);
    results
}

/// Executes the campaign on `threads` workers (`0` = all available
/// cores). Per-scenario results are bit-identical at any thread count.
///
/// # Panics
///
/// Panics if the spec enumerates an empty or unresolvable grid (see
/// [`CampaignSpec::scenarios`]).
#[must_use]
pub fn run_campaign(spec: &CampaignSpec, threads: usize) -> CampaignResult {
    let start = Instant::now();
    let results =
        run_campaign_streaming(spec, threads, &CancelToken::new(), &HashSet::new(), |_| {});
    // The worker count the pool actually used: never more workers than
    // jobs, so small grids at tall ladder points report honestly. (With
    // nothing skipped, the result count is the grid size — computing it
    // here avoids enumerating the grid twice.)
    let workers = if threads == 0 {
        crate::pool::default_threads()
    } else {
        threads
    }
    .min(results.len().max(1));
    CampaignResult {
        results,
        threads: workers,
        elapsed: start.elapsed(),
        campaign_seed: spec.campaign_seed,
    }
}

/// Convenience wrapper: the campaign-engine equivalent of the old serial
/// "run this scheme over N seeds" loop. Returns the per-scenario results
/// for one `(benchmark, scheme)` cell.
#[must_use]
pub fn run_cell(
    benchmark: Benchmark,
    scheme: MitigationScheme,
    config: &SystemConfig,
    seeds: u64,
    threads: usize,
) -> CampaignResult {
    let spec = CampaignSpec::new(config.clone(), config.faults.seed)
        .benchmarks(&[benchmark])
        .scheme(&scheme.label(), crate::spec::SchemeSpec::Fixed(scheme))
        .replicates(seeds);
    run_campaign(&spec, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SchemeSpec;

    fn fast_config() -> SystemConfig {
        let mut config = SystemConfig::paper(0);
        config.scale = 0.25;
        config
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn campaign_types_are_send_sync() {
        // The pool moves these across threads; lock it in at compile time.
        assert_send_sync::<SystemConfig>();
        assert_send_sync::<MitigationScheme>();
        assert_send_sync::<Benchmark>();
        assert_send_sync::<RunReport>();
        assert_send_sync::<Scenario>();
        assert_send_sync::<ScenarioResult>();
        assert_send_sync::<CampaignSpec>();
    }

    #[test]
    fn default_scenarios_normalize_to_unity() {
        let spec = CampaignSpec::new(fast_config(), 3)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .replicates(2);
        let result = run_campaign(&spec, 2);
        assert_eq!(result.results.len(), 2);
        for r in &result.results {
            assert!((r.energy_ratio.unwrap() - 1.0).abs() < 1e-12);
            assert!((r.cycle_ratio.unwrap() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn unnormalized_campaigns_skip_ratios() {
        let spec = CampaignSpec::new(fast_config(), 3)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
            .normalize(false)
            .golden_check(false);
        let result = run_campaign(&spec, 1);
        assert_eq!(result.results.len(), 1);
        let r = &result.results[0];
        assert!(r.energy_ratio.is_none() && r.correct.is_none());
        assert!(r.energy_pj > 0.0);
    }

    #[test]
    fn streaming_skip_set_resumes_bit_identically() {
        let spec = CampaignSpec::new(fast_config(), 21)
            .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
            .replicates(3);
        let full = run_campaign(&spec, 1);
        // "Crash" after an arbitrary prefix: pretend scenarios {0,3,7} are
        // journaled and re-run only the rest.
        let skip: HashSet<usize> = [0usize, 3, 7].into_iter().collect();
        let rest = run_campaign_streaming(&spec, 2, &CancelToken::new(), &skip, |_| {});
        assert_eq!(rest.len(), full.results.len() - skip.len());
        // Merge journaled + fresh, sort, compare to the uninterrupted run
        // at the canonical-report byte level.
        let mut merged: Vec<ScenarioResult> = full
            .results
            .iter()
            .filter(|r| skip.contains(&r.scenario.index))
            .cloned()
            .chain(rest)
            .collect();
        merged.sort_by_key(|r| r.scenario.index);
        let axes = [Axis::Benchmark, Axis::Scheme, Axis::ErrorRate];
        assert_eq!(
            canonical_report_json(spec.campaign_seed, &merged, &axes).render(),
            canonical_report_json(spec.campaign_seed, &full.results, &axes).render(),
        );
    }

    #[test]
    fn ranged_specs_run_exactly_their_slice() {
        let spec = CampaignSpec::new(fast_config(), 31)
            .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
            .replicates(2);
        let full = run_campaign(&spec, 1);
        let n = full.results.len();
        // Shard the grid in two; each half computes precisely the full
        // run's rows for its indices, bit for bit.
        let lo = spec.clone().scenario_range(0, n / 2);
        let hi = spec.clone().scenario_range(n / 2, n);
        let lo_rows = run_campaign_streaming(&lo, 2, &CancelToken::new(), &HashSet::new(), |_| {});
        let hi_rows = run_campaign_streaming(&hi, 1, &CancelToken::new(), &HashSet::new(), |_| {});
        assert_eq!(lo_rows.len() + hi_rows.len(), n);
        let merged: Vec<ScenarioResult> = lo_rows.into_iter().chain(hi_rows).collect();
        for (merged_row, full_row) in merged.iter().zip(&full.results) {
            assert_eq!(merged_row, full_row);
        }
        // A skip set composes with the range: already-journaled rows in
        // the slice are not recomputed.
        let skip: HashSet<usize> = [n / 2, n / 2 + 1].into_iter().collect();
        let resumed = run_campaign_streaming(&hi, 1, &CancelToken::new(), &skip, |_| {});
        assert_eq!(resumed.len(), n - n / 2 - 2);
        assert!(resumed.iter().all(|r| !skip.contains(&r.scenario.index)));
    }

    #[test]
    fn streaming_cancel_stops_between_scenarios() {
        let spec = CampaignSpec::new(fast_config(), 5)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .replicates(12);
        let cancel = CancelToken::new();
        let mut delivered = 0;
        let results = run_campaign_streaming(&spec, 1, &cancel, &HashSet::new(), |_| {
            delivered += 1;
            if delivered == 3 {
                cancel.cancel();
            }
        });
        assert!(cancel.is_cancelled());
        assert_eq!(results.len(), delivered);
        // Cancellation is cooperative and the worker races the sink, so
        // anywhere from 3 to all 12 results may land — but never fewer
        // than the delivery that triggered the cancel.
        assert!(results.len() >= 3, "lost deliveries: {}", results.len());
        // The partial results are the full run's prefix values, bit for bit.
        let full = run_campaign(&spec, 1);
        for r in &results {
            assert_eq!(r, &full.results[r.scenario.index]);
        }
    }

    #[test]
    fn scenario_results_round_trip_through_json() {
        let spec = CampaignSpec::new(fast_config(), 9)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
            .replicates(2);
        let scenarios = spec.scenarios();
        for result in run_campaign(&spec, 1).results {
            let line = result.to_json().render();
            let parsed = JsonValue::parse(&line).expect("journal line parses");
            let back = ScenarioResult::from_json(&parsed, scenarios[result.scenario.index].clone())
                .expect("journal line loads");
            assert_eq!(back, result);
            // A row from a different campaign seed is rejected loudly.
            let mut forged = scenarios[result.scenario.index].clone();
            forged.seed ^= 1;
            let err = ScenarioResult::from_json(&parsed, forged).unwrap_err();
            assert!(err.contains("different campaign"), "{err}");
        }
    }

    #[test]
    fn timeline_scenarios_change_results_deterministically() {
        let mut quiet = ScenarioDef::named("quiet");
        quiet.timeline = vec![TimelineEvent::ErrorRateShift {
            cycle: 0,
            rate: 0.0,
        }];
        let mut storm = ScenarioDef::named("storm");
        // Strikes materialise lazily at read time, so the burst must fall
        // inside some word's write→read window. Cycle 2000 sits between
        // the first block's output writes and the end-of-frame drain.
        storm.timeline = vec![TimelineEvent::FaultBurst {
            cycle: 2_000,
            words: 64,
            rate: 1.0,
        }];
        let mut config = fast_config();
        config.faults.error_rate = 1e-6;
        let spec = CampaignSpec::new(config, 13)
            .benchmarks(&[Benchmark::AdpcmDecode])
            .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
            .timeline_scenarios(&[quiet, storm]);
        let first = run_campaign(&spec, 2);
        assert_eq!(first.results.len(), 2);
        let quiet_row = &first.results[0];
        let storm_row = &first.results[1];
        assert_eq!(quiet_row.scenario.scenario.as_deref(), Some("quiet"));
        assert_eq!(storm_row.scenario.scenario.as_deref(), Some("storm"));
        // A saturating burst must be visible in the outcome the way a
        // zeroed rate cannot be.
        assert_eq!(quiet_row.restarts, 0, "rate shifted to zero");
        assert_eq!(quiet_row.errors_detected, 0, "rate shifted to zero");
        assert!(
            storm_row.restarts > 0
                || storm_row.errors_detected > 0
                || storm_row.correct == Some(false),
            "burst went unnoticed: {storm_row:?}"
        );
        // No expect block → no verdict.
        assert!(quiet_row.expect_passed.is_none());
        // Same spec, different thread count: bit-identical rows.
        let again = run_campaign(&spec, 1);
        assert_eq!(again.results, first.results);
    }

    #[test]
    fn expect_blocks_become_typed_outcomes_not_panics() {
        use chunkpoint_scenario::{ExpectField, ExpectOp, ExpectValue, Expectation};
        let mut demanding = ScenarioDef::named("demanding");
        demanding.expect = vec![
            Expectation {
                field: ExpectField::Completed,
                op: ExpectOp::Eq,
                value: ExpectValue::Bool(true),
            },
            // Impossible: cycles are always positive.
            Expectation {
                field: ExpectField::Cycles,
                op: ExpectOp::Le,
                value: ExpectValue::Uint(0),
            },
        ];
        let mut satisfied = ScenarioDef::named("satisfied");
        satisfied.expect = vec![Expectation {
            field: ExpectField::Cycles,
            op: ExpectOp::Ge,
            value: ExpectValue::Uint(1),
        }];
        let spec = CampaignSpec::new(fast_config(), 17)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .timeline_scenarios(&[demanding, satisfied]);
        let results = run_campaign(&spec, 1).results;
        assert_eq!(results[0].expect_passed, Some(false));
        assert_eq!(results[0].expect_failures.len(), 1);
        assert!(results[0].expect_failures[0].contains("cycles"));
        assert_eq!(results[1].expect_passed, Some(true));
        assert!(results[1].expect_failures.is_empty());
        // The verdict rides the journal row round trip.
        let scenarios = spec.scenarios();
        for result in &results {
            let parsed = JsonValue::parse(&result.to_json().render()).unwrap();
            let back = ScenarioResult::from_json(&parsed, scenarios[result.scenario.index].clone())
                .expect("scenario journal row loads");
            assert_eq!(&back, result);
        }
    }

    #[test]
    fn task_switch_scenarios_run_the_override_benchmark() {
        let mut switched = ScenarioDef::named("g722-instead");
        switched.timeline = vec![TimelineEvent::TaskSwitch {
            cycle: 0,
            task: "G722 encode".to_owned(),
        }];
        let spec = CampaignSpec::new(fast_config(), 19)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .timeline_scenarios(std::slice::from_ref(&switched));
        let with_override = run_campaign(&spec, 1).results;
        assert_eq!(with_override.len(), 1);
        // The override must actually change the run: compare against the
        // same grid executed on G.722 directly — identical physics.
        let direct = CampaignSpec::new(fast_config(), 19)
            .benchmarks(&[Benchmark::G722Encode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .timeline_scenarios(std::slice::from_ref(&switched));
        let direct_rows = run_campaign(&direct, 1).results;
        assert_eq!(with_override[0].cycles, direct_rows[0].cycles);
        assert_eq!(with_override[0].energy_pj, direct_rows[0].energy_pj);
        // And the golden check must have compared against the *override*
        // benchmark's golden output, not ADPCM's.
        assert_eq!(with_override[0].correct, Some(true));
    }

    #[test]
    fn aggregates_group_and_count() {
        let spec = CampaignSpec::new(fast_config(), 11)
            .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
            .replicates(2);
        let result = run_campaign(&spec, 0);
        let by_scheme = result.aggregate(&[Axis::Scheme]);
        assert_eq!(by_scheme.len(), 2);
        for (_, stats) in by_scheme.groups() {
            assert_eq!(stats.n, 4); // 2 benchmarks x 2 replicates
            assert_eq!(stats.completed, 4);
        }
        let json = result.to_json(&[Axis::Scheme]).render();
        assert!(json.contains("\"aggregates\""));
        assert!(json.contains("\"scenarios_per_sec\""));
    }
}
