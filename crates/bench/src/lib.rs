//! # chunkpoint-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation, plus the per-layer throughput benches:
//!
//! | Binary | Regenerates |
//! |--------|-------------|
//! | `fig4_feasible_region`  | Fig. 4 — feasible (chunk size, correctable bits) under the 5 % area budget |
//! | `table1_optimal_chunks` | Table I — optimum protected-buffer size per benchmark |
//! | `fig5_energy`           | Fig. 5 — normalized energy per scheme per benchmark |
//! | `time_overhead`         | §III-B — execution-time overhead per scheme |
//! | `ablation_error_rate`   | λ sweep (1e-8 … 1e-5) |
//! | `ablation_area_budget`  | OV1 sweep (1 … 10 %) |
//! | `ablation_chunk_sweep`  | energy vs chunk size (the optimum's interior shape) |
//! | `ablation_ecc_designs`, `ablation_detector`, `ablation_scrubbing`, `deadline_qos` | design-space ablations |
//! | `render_figures`        | Fig. 4, Fig. 5, §III-B and a Fig. 1-style timeline as SVG |
//! | `bench_ecc`             | ECC and SRAM words/second (`BENCH_ecc.json`) |
//! | `bench_campaign`        | campaign-engine scenarios/second per thread count (`BENCH_campaign.json`) |
//! | `bench_scenario`        | timeline-scenario axis vs a plain grid (`BENCH_scenario.json`) |
//! | `bench_serve`           | `serve` requests/second (`BENCH_serve.json`) |
//! | `bench_chaos`           | submissions/second through the chaos proxy (`BENCH_chaos.json`) |
//! | `bench_cache`           | range cache: cold, warm splice, full and incremental re-runs (`BENCH_cache.json`) |
//! | `bench_adaptive`        | adaptive controller vs the fixed grid (`BENCH_adaptive.json`) |
//!
//! The Monte Carlo bins all run on the `chunkpoint_campaign` engine and
//! share its `--threads/--seeds/--seed/--json` flags; per-scenario
//! results are bit-identical at any thread count. `fig5_energy`,
//! `time_overhead` and `render_figures` run one [`fig5_spec`] campaign
//! each and read it through [`fig5_series`], so the figures draw the
//! numbers the tables print. The `bench_*` bins time through one
//! [`harness`], which adds `--smoke`; its [`harness::Backends`] also
//! hosts the examples' in-process `serve` instances.

use chunkpoint_campaign::{Axis, CampaignResult, CampaignSpec, GroupStats, SchemeSpec};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_workloads::Benchmark;

pub mod harness;
pub mod plot;
pub mod report;

/// Number of fault-process seeds averaged per reported data point.
pub const DEFAULT_SEEDS: u64 = 8;

/// The scheme axis of Fig. 5 in paper order, as campaign scheme specs:
/// Default, SW-based, HW-based, Proposed (optimal), Proposed
/// (sub-optimal). The optimal/sub-optimal entries resolve per benchmark
/// through the optimizer when the campaign grid is enumerated.
#[must_use]
pub fn fig5_scheme_axis() -> Vec<(&'static str, SchemeSpec)> {
    vec![
        ("Default", SchemeSpec::Fixed(MitigationScheme::Default)),
        ("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart)),
        (
            "HW-based",
            SchemeSpec::Fixed(MitigationScheme::hw_baseline()),
        ),
        ("Proposed (optimal)", SchemeSpec::Optimal),
        ("Proposed (sub-optimal)", SchemeSpec::Suboptimal),
    ]
}

/// The Fig. 5 campaign: every benchmark under the [`fig5_scheme_axis`]
/// columns, `replicates` fault seeds per cell.
#[must_use]
pub fn fig5_spec(config: SystemConfig, seed: u64, replicates: u64) -> CampaignSpec {
    fig5_scheme_axis().into_iter().fold(
        CampaignSpec::new(config, seed).replicates(replicates),
        |spec, (label, scheme)| spec.scheme(label, scheme),
    )
}

/// One series per [`fig5_scheme_axis`] column of a [`fig5_spec`] result:
/// the `metric` of each benchmark's cell in [`Benchmark::ALL`] order,
/// then their average. The tables print these values and the figures
/// draw them.
///
/// # Panics
///
/// Panics if `result` lacks a (benchmark, column) cell.
#[must_use]
pub fn fig5_series(
    result: &CampaignResult,
    metric: impl Fn(&GroupStats) -> f64,
) -> Vec<(String, Vec<f64>)> {
    let cells = result.aggregate(&[Axis::Benchmark, Axis::Scheme]);
    fig5_scheme_axis()
        .into_iter()
        .map(|(label, _)| {
            let mut values: Vec<f64> = Benchmark::ALL
                .iter()
                .map(|b| metric(cells.get(&[b.name(), label]).expect("a Fig. 5 cell")))
                .collect();
            values.push(values.iter().sum::<f64>() / values.len() as f64);
            (label.to_owned(), values)
        })
        .collect()
}

/// Prints [`fig5_series`] as the paper's table: one row per benchmark,
/// a rule, and the average row.
pub fn print_fig5_table(series: &[(String, Vec<f64>)]) {
    let labels: Vec<String> = series.iter().map(|(label, _)| label.clone()).collect();
    report::PAPER.header("benchmark", &labels);
    let row = |label: &str, i: usize| {
        let cells: Vec<String> = series.iter().map(|(_, v)| report::cell(v[i])).collect();
        report::PAPER.row(label, &cells);
    };
    for (i, benchmark) in Benchmark::ALL.iter().enumerate() {
        row(benchmark.name(), i);
    }
    report::PAPER.rule(labels.len());
    row("Average", Benchmark::ALL.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use chunkpoint_campaign::run_campaign;

    #[test]
    fn fig5_series_reads_the_grid_in_paper_order() {
        let mut config = SystemConfig::paper(0);
        config.scale = 0.1;
        let result = run_campaign(&fig5_spec(config, 0xF165, 1), 0);
        let cells = result.aggregate(&[Axis::Benchmark, Axis::Scheme]);
        let series = fig5_series(&result, |s| s.energy_ratio.mean());
        assert_eq!(series.len(), fig5_scheme_axis().len());
        for ((label, values), (column, _)) in series.iter().zip(fig5_scheme_axis()) {
            assert_eq!(label, column);
            let (means, average) = values.split_at(Benchmark::ALL.len());
            for (b, value) in Benchmark::ALL.iter().zip(means) {
                let stats = cells.get(&[b.name(), label]).unwrap();
                let mean = stats.energy_ratio.mean();
                assert_eq!(value.to_bits(), mean.to_bits(), "{label} {}", b.name());
            }
            assert_eq!(average, [means.iter().sum::<f64>() / means.len() as f64]);
            assert!(label != "Default" || values.iter().all(|&v| v == 1.0));
        }
    }
}
