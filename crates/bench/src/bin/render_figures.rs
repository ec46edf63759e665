//! Renders the paper's figures as SVG files under `figures/`:
//!
//! * `fig4_feasible_region.svg` — the area-feasibility staircase;
//! * `fig5_energy.svg` — normalized energy, grouped bars per benchmark;
//! * `time_overhead.svg` — normalized execution time; both draw one
//!   campaign, the one `fig5_energy` prints at its default flags (and
//!   `time_overhead --seed 61797`);
//! * `fig1_timeline.svg` — a real execution timeline with an injected
//!   error and its demand-driven rollback.

use chunkpoint_bench::plot::{grouped_bar_chart, step_plot, timeline_svg};
use chunkpoint_bench::{fig5_series, fig5_spec, DEFAULT_SEEDS};
use chunkpoint_campaign::run_campaign;
use chunkpoint_core::{feasible_region, run, MitigationScheme, SystemConfig};
use chunkpoint_workloads::Benchmark;

fn main() -> std::io::Result<()> {
    let config = SystemConfig::paper(0xF165);
    std::fs::create_dir_all("figures")?;

    // Fig. 4.
    let region = feasible_region(&config);
    let points: Vec<(f64, f64)> = region
        .iter()
        .map(|&(w, t)| (f64::from(w), f64::from(t)))
        .collect();
    let svg = step_plot(
        "Fig. 4 - Feasible chunk areas vs correctable bits (5% area budget)",
        "chunk size (number of words)",
        "correctable bits (per word)",
        &points,
        true,
    );
    std::fs::write("figures/fig4_feasible_region.svg", svg)?;
    println!("wrote figures/fig4_feasible_region.svg");

    // Fig. 5 and the time overhead.
    let result = run_campaign(&fig5_spec(config, 0xF165, DEFAULT_SEEDS), 0);
    let energy_series = fig5_series(&result, |cell| cell.energy_ratio.mean());
    let time_series = fig5_series(&result, |cell| cell.cycle_ratio.mean());
    let categories: Vec<String> = Benchmark::ALL
        .iter()
        .map(|b| b.name().to_owned())
        .chain(std::iter::once("Average".to_owned()))
        .collect();
    std::fs::write(
        "figures/fig5_energy.svg",
        grouped_bar_chart(
            "Fig. 5 - Normalized energy consumption (Default = 1.0)",
            "normalized energy",
            &categories,
            &energy_series,
        ),
    )?;
    println!("wrote figures/fig5_energy.svg");
    std::fs::write(
        "figures/time_overhead.svg",
        grouped_bar_chart(
            "SIII-B - Normalized execution time (Default = 1.0)",
            "normalized execution time",
            &categories,
            &time_series,
        ),
    )?;
    println!("wrote figures/time_overhead.svg");

    // Fig. 1: find a frame with at least one rollback and render it.
    let scheme = MitigationScheme::Hybrid {
        chunk_words: 8,
        l1_prime_t: 8,
    };
    let report = (0..500u64)
        .map(|s| {
            let mut c = SystemConfig::paper(2012 + s);
            c.faults.error_rate = 5e-5;
            run(Benchmark::AdpcmDecode, scheme, &c)
        })
        .find(|r| r.rollbacks > 0 && r.completed)
        .expect("a rollback within 500 frames at 5e-5");
    std::fs::write(
        "figures/fig1_timeline.svg",
        timeline_svg(
            "Fig. 1 - Chunked execution with an intermittent error and rollback (ADPCM decode)",
            report.trace.events(),
        ),
    )?;
    println!("wrote figures/fig1_timeline.svg");
    Ok(())
}
