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
//! | `render_figures`        | the figures as text plots, with a Fig. 1-style timeline |
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
//! results are bit-identical at any thread count. The `bench_*` bins
//! time through one [`harness`], which adds `--smoke`.

use chunkpoint_campaign::{run_cell, SchemeSpec};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_workloads::Benchmark;

pub mod harness;
pub mod plot;
pub mod report;

pub use report::print_row;

/// Number of fault-process seeds averaged per reported data point.
pub const DEFAULT_SEEDS: u64 = 8;

/// Energy and timing of one (benchmark, scheme) cell, averaged over
/// seeds and normalised to the same-seed *Default* run.
#[derive(Debug, Clone, Copy)]
pub struct SchemeCell {
    /// Mean normalized energy (Default = 1.0).
    pub energy_ratio: f64,
    /// Mean normalized execution time (Default = 1.0).
    pub cycle_ratio: f64,
    /// Fraction of seeds whose output matched the fault-free reference.
    pub correct_fraction: f64,
    /// Fraction of seeds that ran to completion.
    pub completed_fraction: f64,
}

/// Runs one scheme over `seeds` seed replicates on the campaign engine
/// (all cores; results are thread-count-independent) and aggregates
/// against the Default denominator (the paper normalises Fig. 5 to the
/// default case).
pub fn measure(
    benchmark: Benchmark,
    scheme: MitigationScheme,
    base_config: &SystemConfig,
    seeds: u64,
) -> SchemeCell {
    measure_threaded(benchmark, scheme, base_config, seeds, 0)
}

/// [`measure`] with an explicit worker count (`0` = all cores).
pub fn measure_threaded(
    benchmark: Benchmark,
    scheme: MitigationScheme,
    base_config: &SystemConfig,
    seeds: u64,
    threads: usize,
) -> SchemeCell {
    assert!(seeds > 0, "need at least one seed");
    let result = run_cell(benchmark, scheme, base_config, seeds, threads);
    let n = result.results.len() as f64;
    let mut cell = SchemeCell {
        energy_ratio: 0.0,
        cycle_ratio: 0.0,
        correct_fraction: 0.0,
        completed_fraction: 0.0,
    };
    for r in &result.results {
        cell.energy_ratio += r.energy_ratio.expect("run_cell normalizes") / n;
        cell.cycle_ratio += r.cycle_ratio.expect("run_cell normalizes") / n;
        if r.correct == Some(true) {
            cell.correct_fraction += 1.0 / n;
        }
        if r.completed {
            cell.completed_fraction += 1.0 / n;
        }
    }
    cell
}

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

/// The five scheme columns of Fig. 5 for one benchmark, in paper order,
/// resolved to concrete schemes (the legacy per-benchmark form; new code
/// should put [`fig5_scheme_axis`] on a campaign grid instead).
pub fn fig5_schemes(
    benchmark: Benchmark,
    config: &SystemConfig,
) -> Vec<(String, MitigationScheme)> {
    fig5_scheme_axis()
        .into_iter()
        .map(|(label, spec)| (label.to_owned(), spec.resolve(benchmark, config)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_scheme_list_has_paper_columns() {
        let config = SystemConfig::paper(0);
        let schemes = fig5_schemes(Benchmark::AdpcmEncode, &config);
        assert_eq!(schemes.len(), 5);
        assert_eq!(schemes[0].0, "Default");
        assert!(matches!(schemes[3].1, MitigationScheme::Hybrid { .. }));
    }

    #[test]
    fn measure_default_is_unity() {
        let mut config = SystemConfig::paper(3);
        config.scale = 0.25;
        let cell = measure(
            Benchmark::AdpcmEncode,
            MitigationScheme::Default,
            &config,
            2,
        );
        assert!((cell.energy_ratio - 1.0).abs() < 1e-9);
        assert!((cell.cycle_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn measure_is_thread_count_independent() {
        let mut config = SystemConfig::paper(5);
        config.scale = 0.25;
        config.faults.error_rate = 1e-5;
        let serial = measure_threaded(
            Benchmark::AdpcmEncode,
            MitigationScheme::SwRestart,
            &config,
            3,
            1,
        );
        let parallel = measure_threaded(
            Benchmark::AdpcmEncode,
            MitigationScheme::SwRestart,
            &config,
            3,
            4,
        );
        assert_eq!(
            serial.energy_ratio.to_bits(),
            parallel.energy_ratio.to_bits()
        );
        assert_eq!(serial.cycle_ratio.to_bits(), parallel.cycle_ratio.to_bits());
    }
}
