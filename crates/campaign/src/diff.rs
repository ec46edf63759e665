//! Spec-diffing for **incremental campaigns**.
//!
//! Editing one axis value of a completed campaign re-derives the whole
//! grid: later scenario indices shift, and with them their SplitMix64
//! seeds. But most cells of the edited grid are *measurement-identical*
//! to a cell of the old grid — same benchmark, scheme, strike rate,
//! replicate **and** fault seed — so their sealed journal rows can be
//! carried over verbatim instead of re-simulated. This module computes
//! that mapping:
//!
//! * [`diff_specs`] pairs up old and new scenario indices whose
//!   `(seed, parameters)` are unchanged, refusing to pair anything when
//!   the non-axis context (base [`SystemConfig`] knobs, normalization,
//!   golden checking) differs — those affect measurements without
//!   appearing in a [`Scenario`].
//! * [`translate_rows`] rewrites old journal rows onto their new global
//!   indices, producing rows byte-identical to what a clean run of the
//!   new spec would seal for those cells.
//!
//! The coordinator's range-granular result cache
//! (`chunkpoint_shard::cache`) consumes the translated rows: seeding
//! them under the new spec's key means a subsequent sharded run
//! dispatches only the changed cells, with report bytes identical to a
//! full clean run.
//!
//! [`SystemConfig`]: chunkpoint_core::SystemConfig

use std::collections::HashMap;

use chunkpoint_core::MitigationScheme;

use crate::engine::ScenarioResult;
use crate::spec::{CampaignSpec, Scenario};

/// Everything that distinguishes one scenario's measurements from
/// another's, assuming an equal non-axis context. The derived fault
/// seed is part of the key, so campaigns with different `campaign_seed`
/// (or shifted enumeration orders) simply pair nothing rather than
/// pairing wrongly.
#[derive(PartialEq, Eq, Hash)]
struct ScenarioKey {
    benchmark: &'static str,
    scheme_label: String,
    scheme: MitigationScheme,
    rate_bits: u64,
    /// The timeline scenario's canonical wire rendering — its *content*,
    /// not just its name. Two campaigns whose axes share a scenario name
    /// but disagree on its timeline or expect block measure different
    /// things; keying on the rendering makes those cells changed cells.
    scenario: Option<String>,
    replicate: u64,
    seed: u64,
}

impl ScenarioKey {
    fn of(scenario: &Scenario, spec: &CampaignSpec) -> Self {
        ScenarioKey {
            benchmark: scenario.benchmark.name(),
            scheme_label: scenario.scheme_label.clone(),
            scheme: scenario.scheme,
            rate_bits: scenario.error_rate.to_bits(),
            scenario: scenario
                .scenario
                .as_deref()
                .and_then(|name| spec.scenario_def(name))
                .map(|def| def.to_json().render()),
            replicate: scenario.replicate,
            seed: scenario.seed,
        }
    }
}

/// The scenario-index mapping between an old and a new campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecDiff {
    /// `(old_index, new_index)` pairs whose measurements are identical,
    /// sorted by new index.
    pub pairs: Vec<(usize, usize)>,
    /// Scenarios of the new grid with no old counterpart — the cells an
    /// incremental run must actually execute.
    pub changed: usize,
    /// Scenarios of the old grid that no longer exist in the new one.
    pub dropped: usize,
    /// Total size of the new grid (`pairs.len() + changed`).
    pub new_total: usize,
}

impl SpecDiff {
    /// Number of new-grid scenarios whose old rows can be reused.
    #[must_use]
    pub fn reused(&self) -> usize {
        self.pairs.len()
    }
}

/// Returns `true` when two specs agree on everything that shapes a
/// measurement but is not part of a [`Scenario`]: the base
/// [`SystemConfig`](chunkpoint_core::SystemConfig) knobs (compared via
/// their canonical wire rendering) and the `normalize` / `golden_check`
/// flags. When this is `false`, no row of one campaign is valid in the
/// other, whatever the axes say.
#[must_use]
pub fn contexts_match(old: &CampaignSpec, new: &CampaignSpec) -> bool {
    let base = |spec: &CampaignSpec| spec.to_json().get("base").map(super::JsonValue::render);
    base(old) == base(new)
        && old.is_normalized() == new.is_normalized()
        && old.checks_golden() == new.checks_golden()
}

/// Maps the scenario indices of `old` onto those of `new` wherever the
/// `(seed, parameters)` pair — and therefore the sealed measurements —
/// are unchanged. Range restrictions on either spec are ignored: the
/// diff is between the full grids.
///
/// # Panics
///
/// Panics if either spec enumerates an infeasible grid (empty scheme
/// axis, or an optimizer entry with no feasible design point) — the
/// same contract as [`CampaignSpec::scenarios`].
#[must_use]
pub fn diff_specs(old: &CampaignSpec, new: &CampaignSpec) -> SpecDiff {
    let new_grid = new.clone().without_range().scenarios();
    let old_grid = old.clone().without_range().scenarios();
    diff_grids(old, &old_grid, new, &new_grid)
}

/// [`diff_specs`] over the full grids of `old` and `new`, already
/// enumerated.
fn diff_grids(
    old: &CampaignSpec,
    old_grid: &[Scenario],
    new: &CampaignSpec,
    new_grid: &[Scenario],
) -> SpecDiff {
    if !contexts_match(old, new) {
        return SpecDiff {
            pairs: Vec::new(),
            changed: new_grid.len(),
            dropped: old_grid.len(),
            new_total: new_grid.len(),
        };
    }
    // Keys are unique per grid: two scenarios agreeing on every
    // parameter and replicate sit at different indices, hence carry
    // different SplitMix64 seeds.
    let by_key: HashMap<ScenarioKey, usize> = old_grid
        .iter()
        .map(|scenario| (ScenarioKey::of(scenario, old), scenario.index))
        .collect();
    let pairs: Vec<(usize, usize)> = new_grid
        .iter()
        .filter_map(|scenario| {
            by_key
                .get(&ScenarioKey::of(scenario, new))
                .map(|&old_index| (old_index, scenario.index))
        })
        .collect();
    SpecDiff {
        changed: new_grid.len() - pairs.len(),
        dropped: old_grid.len() - pairs.len(),
        new_total: new_grid.len(),
        pairs,
    }
}

/// Rewrites old journal rows onto the new campaign's global indices,
/// keeping only rows whose scenario survives the diff unchanged. Rows
/// whose `(index, seed)` does not match the old grid (foreign or stale
/// journals) are skipped, never translated wrongly. The result is
/// sorted by new index and carries the *new* grid's scenarios, so each
/// row is byte-identical to what a clean run of `new` would seal.
///
/// # Panics
///
/// Panics if either spec enumerates an infeasible grid — the same
/// contract as [`CampaignSpec::scenarios`].
#[must_use]
pub fn translate_rows(
    old: &CampaignSpec,
    new: &CampaignSpec,
    old_rows: &[ScenarioResult],
) -> Vec<ScenarioResult> {
    let new_grid = new.clone().without_range().scenarios();
    let old_grid = old.clone().without_range().scenarios();
    let diff = diff_grids(old, &old_grid, new, &new_grid);
    let by_old_index: HashMap<usize, &ScenarioResult> = old_rows
        .iter()
        .filter(|row| {
            old_grid
                .get(row.scenario.index)
                .is_some_and(|expected| expected.seed == row.scenario.seed)
        })
        .map(|row| (row.scenario.index, row))
        .collect();
    diff.pairs
        .iter()
        .filter_map(|&(old_index, new_index)| {
            by_old_index.get(&old_index).map(|row| ScenarioResult {
                scenario: new_grid[new_index].clone(),
                ..(*row).clone()
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_campaign;
    use crate::spec::SchemeSpec;
    use chunkpoint_core::SystemConfig;
    use chunkpoint_workloads::Benchmark;

    fn small_config() -> SystemConfig {
        let mut config = SystemConfig::paper(0);
        config.scale = 0.25;
        config
    }

    fn base_spec() -> CampaignSpec {
        CampaignSpec::new(small_config(), 0x1D1F)
            .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
            .error_rates(&[1e-7, 1e-6])
            .replicates(2)
    }

    #[test]
    fn identical_specs_pair_everything() {
        let spec = base_spec();
        let diff = diff_specs(&spec, &spec);
        assert_eq!(diff.changed, 0);
        assert_eq!(diff.dropped, 0);
        assert_eq!(diff.reused(), diff.new_total);
        // The mapping is the identity.
        assert!(diff.pairs.iter().all(|&(old, new)| old == new));
    }

    #[test]
    fn one_axis_edit_reuses_unchanged_cells() {
        // One rate swapped: the 1e-7 cells (half the grid) survive at
        // their original indices; the edited rate's cells are all new.
        let old = base_spec();
        let new = base_spec().error_rates(&[1e-7, 2e-6]);
        let diff = diff_specs(&old, &new);
        let total = new.scenarios().len();
        assert_eq!(diff.new_total, total);
        assert_eq!(diff.reused(), total / 2);
        assert_eq!(diff.changed, total / 2);
        assert_eq!(diff.dropped, total / 2);
        // Because the rate axis is inner to benchmark × scheme and the
        // edit keeps axis lengths equal, unchanged cells keep their
        // indices exactly.
        assert!(diff.pairs.iter().all(|&(old, new)| old == new));
    }

    #[test]
    fn campaign_seed_change_pairs_nothing() {
        let old = base_spec();
        let new = CampaignSpec::new(small_config(), 0x2E2E)
            .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
            .error_rates(&[1e-7, 1e-6])
            .replicates(2);
        let diff = diff_specs(&old, &new);
        assert_eq!(diff.reused(), 0);
        assert_eq!(diff.changed, diff.new_total);
    }

    #[test]
    fn context_mismatch_pairs_nothing() {
        let old = base_spec();
        let normalized_off = base_spec().normalize(false);
        assert!(!contexts_match(&old, &normalized_off));
        assert_eq!(diff_specs(&old, &normalized_off).reused(), 0);

        let mut other_base = small_config();
        other_base.scale = 0.5;
        let rescaled = CampaignSpec::new(other_base, 0x1D1F)
            .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
            .error_rates(&[1e-7, 1e-6])
            .replicates(2);
        assert!(!contexts_match(&old, &rescaled));
        assert_eq!(diff_specs(&old, &rescaled).reused(), 0);
    }

    #[test]
    fn range_restrictions_are_ignored() {
        let spec = base_spec();
        let ranged = base_spec().scenario_range(0, 3);
        let diff = diff_specs(&ranged, &spec);
        assert_eq!(diff.reused(), diff.new_total);
    }

    #[test]
    fn translated_rows_match_a_clean_run() {
        let old = base_spec();
        let new = base_spec().error_rates(&[1e-7, 2e-6]);
        let old_run = run_campaign(&old, 1);
        let clean = run_campaign(&new, 1);
        let translated = translate_rows(&old, &new, &old_run.results);
        assert_eq!(translated.len(), diff_specs(&old, &new).reused());
        for row in &translated {
            assert_eq!(row, &clean.results[row.scenario.index]);
        }
    }

    #[test]
    fn scenario_content_edits_are_changed_cells() {
        use chunkpoint_scenario::{ScenarioDef, TimelineEvent};
        let mut storm = ScenarioDef::named("storm");
        storm.timeline = vec![TimelineEvent::FaultBurst {
            cycle: 1_000,
            words: 8,
            rate: 0.5,
        }];
        let calm = ScenarioDef::named("calm");
        let with_axis = |defs: &[ScenarioDef]| base_spec().timeline_scenarios(defs).replicates(2);

        // Identical scenario axes pair everything.
        let old = with_axis(&[storm.clone(), calm.clone()]);
        let same = with_axis(&[storm.clone(), calm.clone()]);
        let diff = diff_specs(&old, &same);
        assert_eq!(diff.reused(), diff.new_total);

        // Same name, different timeline: every "storm" cell is a changed
        // cell — indices and seeds are unchanged, but the measurements
        // are not. The untouched "calm" cells still pair.
        let mut harder_storm = storm.clone();
        harder_storm.timeline = vec![TimelineEvent::FaultBurst {
            cycle: 1_000,
            words: 64,
            rate: 1.0,
        }];
        let edited = with_axis(&[harder_storm, calm.clone()]);
        let diff = diff_specs(&old, &edited);
        assert_eq!(diff.reused(), diff.new_total / 2);
        assert_eq!(diff.changed, diff.new_total / 2);
        let new_grid = edited.scenarios();
        for &(_, new_index) in &diff.pairs {
            assert_eq!(
                new_grid[new_index].scenario.as_deref(),
                Some("calm"),
                "an edited-scenario cell was wrongly reused"
            );
        }

        // An expect-block edit is also a content edit: re-running it is
        // the only way to refresh the verdict journal rows carry.
        let mut demanding_calm = calm.clone();
        demanding_calm.expect = vec![chunkpoint_scenario::Expectation {
            field: chunkpoint_scenario::ExpectField::Completed,
            op: chunkpoint_scenario::ExpectOp::Eq,
            value: chunkpoint_scenario::ExpectValue::Bool(true),
        }];
        let diff = diff_specs(&old, &with_axis(&[storm, demanding_calm]));
        assert_eq!(diff.reused(), diff.new_total / 2);

        // And a scenario-axis spec never pairs with a scenario-less one.
        let diff = diff_specs(&old, &base_spec());
        assert_eq!(diff.reused(), 0);
    }

    #[test]
    fn foreign_rows_are_dropped_not_translated() {
        let old = base_spec();
        let new = base_spec();
        let mut rows = run_campaign(&old, 1).results;
        // Corrupt one row's seed: it must be skipped, not carried over.
        rows[0].scenario.seed ^= 1;
        let translated = translate_rows(&old, &new, &rows);
        assert_eq!(translated.len(), rows.len() - 1);
        assert!(translated.iter().all(|row| row.scenario.index != 0));
    }
}
