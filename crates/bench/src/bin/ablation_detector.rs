//! **Ablation D — detector soundness.** The paper's Fig. 2a literally says
//! "check parity bit", but single even parity cannot detect even-width
//! SMU bursts (~35 % of strikes in the 65 nm model). This experiment runs
//! the *same* hybrid protocol with both detectors and measures how often
//! each configuration silently hands over corrupted output — the
//! executable justification for this reproduction's interleaved-parity
//! substitution (`chunkpoint_core::DETECTOR_WAYS`).
//!
//! Runs on the campaign engine: `--threads/--seeds/--seed/--json`.

use chunkpoint_bench::report;
use chunkpoint_campaign::{
    run_campaign, write_json_report, Axis, CampaignArgs, CampaignSpec, SchemeSpec,
};
use chunkpoint_core::{SystemConfig, DETECTOR_WAYS};
use chunkpoint_workloads::Benchmark;

const BENCHMARKS: [Benchmark; 3] = [
    Benchmark::AdpcmDecode,
    Benchmark::G721Encode,
    Benchmark::JpegDecode,
];

fn main() {
    let args = CampaignArgs::parse_or_exit(400, 0xD7EC);
    println!("Ablation D — hybrid detector soundness under SMU bursts");
    println!(
        "(lambda = 3e-5 to get ~1 strike/frame on the live set; {})",
        args.describe()
    );
    println!();

    let spec = CampaignSpec::new(SystemConfig::paper(args.seed), args.seed)
        .benchmarks(&BENCHMARKS)
        .scheme("single parity", SchemeSpec::OptimalSingleParity)
        .scheme("interleaved", SchemeSpec::Optimal)
        .error_rates(&[3e-5])
        .replicates(args.seeds)
        .normalize(false); // absolute corruption counts; no denominators
    let result = run_campaign(&spec, args.threads);

    let table = report::Table::new(14, 24);
    table.row(
        "benchmark",
        &[
            "single parity (paper lit.)".to_owned(),
            format!("interleaved x{DETECTOR_WAYS} (ours)"),
        ],
    );
    table.row(
        "",
        &[
            "silent corruptions".to_owned(),
            "silent corruptions".to_owned(),
        ],
    );
    table.rule(2);
    for benchmark in BENCHMARKS {
        // corrupt: completed but wrong output (the detector missed a
        // strike); struck: any scenario that saw a detected error or a
        // wrong output — the denominator "frames with an event".
        let mut corrupt = [0u64; 2];
        let mut struck = [0u64; 2];
        for r in result
            .results
            .iter()
            .filter(|r| r.scenario.benchmark == benchmark)
        {
            let i = usize::from(r.scenario.scheme_label != "single parity");
            let wrong = r.correct == Some(false);
            if r.completed && wrong {
                corrupt[i] += 1;
            }
            if r.errors_detected > 0 || wrong {
                struck[i] += 1;
            }
        }
        table.row(
            benchmark.name(),
            &[
                format!("{:>10} of {:>3}", corrupt[0], struck[0]),
                format!("{:>10} of {:>3}", corrupt[1], struck[1]),
            ],
        );
    }
    println!();
    println!("single parity lets even-width bursts through (silent corruption);");
    println!("the interleaved detector catches every burst the SMU model can produce.");
    write_json_report(&args, &result.to_json(&[Axis::Benchmark, Axis::Scheme]));
}
