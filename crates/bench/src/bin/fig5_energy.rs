//! Regenerates **Fig. 5**: normalized energy consumption of Default,
//! SW-based, HW-based, Proposed (optimal) and Proposed (sub-optimal)
//! mitigation for each benchmark, plus the cross-benchmark average.
//!
//! Expected shape (paper): proposed-optimal ≈ 1.05–1.22 (10.1 % average
//! overhead, 22 % max); SW and HW ≥ 1.7 on average with maxima > 2.
//!
//! Runs on the campaign engine: `--threads/--seeds/--seed/--json`.

use chunkpoint_bench::{fig5_series, fig5_spec, print_fig5_table, DEFAULT_SEEDS};
use chunkpoint_campaign::{run_campaign, write_json_report, Axis, CampaignArgs};
use chunkpoint_core::SystemConfig;

fn main() {
    let args = CampaignArgs::parse_or_exit(DEFAULT_SEEDS, 0xF165);
    let config = SystemConfig::paper(args.seed);
    println!("Fig. 5 — Normalized energy consumption (Default = 1.0)");
    println!(
        "platform: ARM9 @ 200 MHz, 64 KB L1, lambda = {:.0e} word/cycle, {}",
        config.faults.error_rate,
        args.describe()
    );
    println!();

    let result = run_campaign(&fig5_spec(config, args.seed, args.seeds), args.threads);
    let series = fig5_series(&result, |cell| cell.energy_ratio.mean());
    print_fig5_table(&series);

    let avg_opt = series[3].1.last().expect("an average");
    println!();
    println!(
        "proposed (optimal) average energy overhead: {:.1}% (paper: 10.1%)",
        100.0 * (avg_opt - 1.0)
    );
    println!(
        "campaign: {} scenarios in {:.2}s ({:.2} scenarios/s)",
        result.results.len(),
        result.elapsed.as_secs_f64(),
        result.scenarios_per_sec()
    );
    write_json_report(&args, &result.to_json(&[Axis::Benchmark, Axis::Scheme]));
}
