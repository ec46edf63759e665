//! Regenerates the **§III-B execution-time observation**: the proposed
//! scheme stays within the 10 % cycle-overhead constraint while the HW and
//! SW baselines exceed it, by up to 100 %.
//!
//! Runs on the campaign engine: `--threads/--seeds/--seed/--json`.

use chunkpoint_bench::{fig5_series, fig5_spec, print_fig5_table, DEFAULT_SEEDS};
use chunkpoint_campaign::{run_campaign, write_json_report, Axis, CampaignArgs};
use chunkpoint_core::SystemConfig;
use chunkpoint_workloads::Benchmark;

fn main() {
    let args = CampaignArgs::parse_or_exit(DEFAULT_SEEDS, 0x71ED);
    let config = SystemConfig::paper(args.seed);
    println!("SIII-B — Normalized execution time (Default = 1.0)");
    println!(
        "cycle-overhead constraint OV2 = {:.0}%, {}",
        100.0 * config.constraints.cycle_overhead,
        args.describe()
    );
    println!();

    let constraints = config.constraints;
    let result = run_campaign(&fig5_spec(config, args.seed, args.seeds), args.threads);
    let series = fig5_series(&result, |cell| cell.cycle_ratio.mean());
    print_fig5_table(&series);

    let max_proposed = series[3].1[..Benchmark::ALL.len()]
        .iter()
        .fold(0.0f64, |max, &x| max.max(x));
    println!();
    println!(
        "proposed (optimal) worst-case time overhead: {:.1}% (constraint: {:.0}%)",
        100.0 * (max_proposed - 1.0),
        100.0 * constraints.cycle_overhead
    );
    write_json_report(&args, &result.to_json(&[Axis::Benchmark, Axis::Scheme]));
}
