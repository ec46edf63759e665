//! Adaptive-controller cost, written to `BENCH_adaptive.json`. Each
//! round times three figures:
//!
//! * `fixed` — the full grid through `LocalExecutor::submit`, every
//!   cell running all of its replicates (the budget);
//! * `adaptive` — the same `(spec, target CI)` through
//!   [`AdaptiveController`], cells stopping at the first round boundary
//!   where their live CI95 half-width is inside the relative target.
//!   The bin asserts that fewer scenarios than the budget ran;
//! * `plan_round` — nanoseconds per call of the pure planner over a
//!   synthetic 256-cell progress table: the controller's per-round
//!   decision overhead.
//!
//! Run with `cargo run --release -p chunkpoint_bench --bin
//! bench_adaptive` (`--smoke` for CI).

use chunkpoint_adaptive::{plan_round, AdaptiveController, AdaptivePolicy, CellProgress};
use chunkpoint_bench::harness::Bench;
use chunkpoint_campaign::{CampaignSpec, JsonValue, SchemeSpec};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_exec::{CampaignExecutor, LocalExecutor};
use chunkpoint_workloads::Benchmark;

/// A grid with deliberate variance skew: the 1e-4 error-rate cells see
/// real fault/rollback noise while the 1e-6 cells are near-quiet, so a
/// CI-targeted controller has something to reallocate toward.
fn grid_spec(seed: u64, replicates: u64) -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    CampaignSpec::new(config, seed)
        .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .error_rates(&[1e-6, 1e-4])
        .replicates(replicates)
}

fn main() {
    let bench = Bench::new("adaptive", 1, 0xADA_BE7C);
    let args = &bench.args;
    let replicates = if args.smoke { 6 } else { 24 };
    let threads = bench.threads();
    let spec = grid_spec(args.seed, replicates);
    let budget = spec.scenarios().len();
    // The CI target both sides are held to: half-width within 40% of
    // the cell mean (floor 3 replicates, granted 3 per round).
    let policy = AdaptivePolicy::new()
        .min_replicates(3)
        .round_replicates(3)
        .rel_ci(0.4);
    println!("bench_adaptive: {budget}-scenario grid, {threads} thread(s), rel CI target 0.4");

    // Decision overhead: the pure planner over a synthetic 256-cell
    // progress table (16 replicates of LCG noise each) — the entire
    // per-round control cost beyond the scenarios themselves.
    let mut cells = vec![CellProgress::default(); 256];
    let mut lcg = 0x9E37_79B9_7F4A_7C15u64;
    for cell in &mut cells {
        for _ in 0..16 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            cell.summary.push(1e6 + (lcg >> 40) as f64);
            cell.spent += 1;
        }
    }
    let plan_calls: u32 = if args.smoke { 2_000 } else { 50_000 };

    let mut adaptive = None;
    let figures = bench.run(|round| {
        let fixed = round.secs("fixed_secs", || {
            LocalExecutor::new(threads).submit(&spec).wait()
        });
        assert_eq!(fixed.expect("fixed-grid run").scenarios, budget);
        // The same spec and target, cells stopping at round boundaries
        // once their live CI95 is inside the target.
        let run = round.secs("adaptive_secs", || {
            AdaptiveController::new(LocalExecutor::new(threads), policy.clone()).run(&spec)
        });
        let run = run.expect("adaptive run");
        assert!(
            run.executed < budget,
            "adaptive executed the whole grid: {} of {budget}",
            run.executed
        );
        adaptive = Some(run);
        let per_call = |secs: f64| secs * 1e9 / plan_calls as f64;
        let stops = round.time("plan_round_ns", per_call, || {
            let plan = |r: u32| plan_round(&policy, 32, r % 8 + 1, &cells, 0).stops.len();
            (0..plan_calls).map(plan).sum::<usize>()
        });
        assert!(stops > 0, "synthetic table never converged");
    });
    let adaptive = adaptive.expect("at least one round");
    let converged = adaptive.cells.iter().filter(|c| c.stop.converged).count();
    let saved = budget - adaptive.executed;
    println!(
        "adaptive: {} of {budget} scenarios ({saved} saved), {converged}/{} cells converged, \
         {} rounds",
        adaptive.executed,
        adaptive.cells.len(),
        adaptive.rounds
    );

    let fields = JsonValue::object()
        .field("threads", threads)
        .field("rel_ci_target", 0.4)
        .field("grid_scenarios", budget)
        .field("adaptive_scenarios", adaptive.executed)
        .field("scenarios_saved", saved)
        .field("scenarios_saved_pct", 100.0 * saved as f64 / budget as f64)
        .field("cells", adaptive.cells.len())
        .field("cells_converged", converged)
        .field("control_rounds", adaptive.rounds as u64)
        .field(
            "note",
            "fixed = full grid through LocalExecutor; adaptive = the same (spec, rel CI \
             target 0.4) through AdaptiveController, cells stopping at round boundaries \
             once their live CI95 half-width is inside the target (floor 3 replicates); \
             plan_round = the pure per-round planner over a synthetic 256-cell table. \
             Acceptance: adaptive_scenarios < grid_scenarios with converged cells",
        );
    bench.write(fields, &figures);
}
