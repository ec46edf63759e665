//! Timeline-scenario cost, written to `BENCH_scenario.json`: what the
//! scenario axis adds on top of a plain static grid of the same size.
//! Each round runs two in-process campaigns over the same benchmarks,
//! schemes, and seeds:
//!
//! * `plain` — the static cross-product, replicates scaled up so both
//!   grids hold the same number of scenario rows;
//! * `timeline` — the same cell count spread across three named
//!   scenarios (a saturating burst, a quiet shift-to-zero with an
//!   expect block, and a scrub schedule), so every row pays timeline
//!   bookkeeping and a third of them pay expect evaluation.
//!
//! Run with `cargo run --release -p chunkpoint_bench --bin
//! bench_scenario` (`--smoke` for CI).

use chunkpoint_bench::harness::Bench;
use chunkpoint_campaign::{run_campaign, CampaignSpec, JsonValue, SchemeSpec};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_scenario::{
    ExpectField, ExpectOp, ExpectValue, Expectation, ScenarioDef, TimelineEvent,
};
use chunkpoint_workloads::Benchmark;

/// The bench's scenario axis: one burst regime, one quiet regime with
/// an expect block, one scrub schedule.
fn scenario_axis() -> Vec<ScenarioDef> {
    let mut storm = ScenarioDef::named("storm");
    storm.tags = vec!["burst".to_owned()];
    // Strikes materialise lazily at read time; cycle 2000 falls in the
    // quarter-scale decode task's output-drain exposure window.
    storm.timeline = vec![TimelineEvent::FaultBurst {
        cycle: 2_000,
        words: 64,
        rate: 1.0,
    }];
    let mut calm = ScenarioDef::named("calm");
    calm.timeline = vec![TimelineEvent::ErrorRateShift {
        cycle: 0,
        rate: 0.0,
    }];
    calm.expect = vec![
        Expectation {
            field: ExpectField::Completed,
            op: ExpectOp::Eq,
            value: ExpectValue::Bool(true),
        },
        Expectation {
            field: ExpectField::DetectedErrors,
            op: ExpectOp::Eq,
            value: ExpectValue::Uint(0),
        },
    ];
    let mut scrubbed = ScenarioDef::named("scrubbed");
    scrubbed.timeline = vec![TimelineEvent::Scrub { period: 4_096 }];
    vec![storm, calm, scrubbed]
}

fn base_spec(seed: u64, scale: f64, replicates: u64) -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = scale;
    CampaignSpec::new(config, seed)
        .benchmarks(&[Benchmark::AdpcmDecode, Benchmark::G722Decode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
        .error_rates(&[1e-6])
        .replicates(replicates)
}

fn main() {
    let bench = Bench::new("scenario", 1, 0x5CE7);
    let args = &bench.args;
    let (scale, replicates) = if args.smoke { (0.25, 3) } else { (1.0, 30) };
    let threads = bench.threads();

    // Same row count on both sides: the timeline grid multiplies cells
    // by its three scenarios, so the plain grid gets 3x the replicates.
    let plain_spec = base_spec(args.seed, scale, replicates * 3);
    let timeline_spec =
        base_spec(args.seed, scale, replicates).timeline_scenarios(&scenario_axis());
    let rows = plain_spec.scenarios().len();
    assert_eq!(
        rows,
        timeline_spec.scenarios().len(),
        "grids must hold the same row count"
    );
    println!("bench_scenario: {rows} rows per grid, {threads} threads");

    let mut expects_passed = 0usize;
    let mut figures = bench.run(|round| {
        let plain = round.rate("plain_rows_per_sec", rows as f64, || {
            run_campaign(&plain_spec, threads)
        });
        let timeline = round.rate("timeline_rows_per_sec", rows as f64, || {
            run_campaign(&timeline_spec, threads)
        });
        assert_eq!(plain.results.len(), rows);
        assert_eq!(timeline.results.len(), rows);
        // The verdicts the bench grid guarantees: every calm row passes
        // its expect block, storm and scrubbed rows carry none.
        expects_passed = 0;
        for row in &timeline.results {
            match row.scenario.scenario.as_deref() {
                Some("calm") => {
                    assert_eq!(row.expect_passed, Some(true), "calm row failed its expect");
                    expects_passed += 1;
                }
                _ => assert_eq!(row.expect_passed, None),
            }
        }
    });
    // Above 1: the timeline axis costs that much more wall time per row.
    figures.ratio(
        "timeline_cost_vs_plain",
        "plain_rows_per_sec",
        "timeline_rows_per_sec",
    );

    let fields = JsonValue::object()
        .field("threads", threads)
        .field("rows_per_grid", rows)
        .field("scenario_axis", scenario_axis().len())
        .field("expect_verdicts", expects_passed)
        .field(
            "note",
            "same row count on both sides (plain grid gets 3x replicates in place of the \
             3-scenario timeline axis); timeline rows pay burst/shift/scrub bookkeeping in \
             the fault process plus expect evaluation on the calm third",
        );
    bench.write(fields, &figures);
}
