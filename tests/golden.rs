//! Golden reproduction fixtures: fixed slices of the paper's experiments,
//! byte-compared against the files committed in `tests/golden/`.
//!
//! The parity suites compare execution paths with each other inside one
//! build, so a change that moves every path the same way passes them all.
//! These fixtures pin the numbers themselves: Table I's optimizer points,
//! the optimizer's answers across area, cycle, λ and scale budgets,
//! a Fig. 5 grid's canonical report, every task under every scheme, JPEG's
//! ratios against its same-seed Default denominator, and one
//! timeline-scenario campaign.
//! An intended change to results shows up as a reviewed diff of these
//! files. Regenerate them with
//!
//! ```text
//! CHUNKPOINT_BLESS_GOLDEN=1 cargo test --test golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use chunkpoint::campaign::{canonical_report_json, run_campaign, CampaignSpec, SchemeSpec};
use chunkpoint::core::{
    optimize, suboptimal, DesignPoint, MitigationScheme, SystemConfig, SystemConstraints,
};
use chunkpoint::scenario::{ScenarioDef, TimelineEvent};
use chunkpoint::serve::REPORT_AXES;
use chunkpoint::workloads::Benchmark;
use chunkpoint_bench::fig5_spec;

/// Set to rewrite the fixtures from this build instead of checking them.
const BLESS: &str = "CHUNKPOINT_BLESS_GOLDEN";

/// Compares `actual` with the fixture `name`, or rewrites the fixture
/// when [`BLESS`] is set.
fn check(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os(BLESS).is_some() {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with {BLESS}=1)", path.display()));
    if expected != actual {
        let at = expected
            .bytes()
            .zip(actual.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(expected.len().min(actual.len()));
        let context = |s: &str| {
            s.get(at.saturating_sub(40)..(at + 40).min(s.len()))
                .map(str::to_owned)
        };
        panic!(
            "{name}: differs from the committed fixture at byte {at} \
             (committed {} bytes, now {} bytes)\n committed: {:?}\n       now: {:?}\n\
             If the change is intended, bless with {BLESS}=1 and review the diff.",
            expected.len(),
            actual.len(),
            context(&expected),
            context(actual),
        );
    }
}

fn design_line(out: &mut String, kind: &str, point: &DesignPoint) {
    let objective = point.cost.objective_pj();
    writeln!(
        out,
        "  {kind:<10} chunk_words {:>3}  t {:>2}  objective_pj {objective:?} ({:#018x})  \
         area_fraction {:?} ({:#018x})",
        point.chunk_words,
        point.l1_prime_t,
        objective.to_bits(),
        point.area_fraction,
        point.area_fraction.to_bits(),
    )
    .expect("writing to a String");
}

#[test]
fn table1_optimizer_points() {
    let config = SystemConfig::paper(0);
    let mut out = String::new();
    for benchmark in Benchmark::ALL {
        let best = optimize(benchmark, &config).expect("Table I point is feasible");
        let sub = suboptimal(benchmark, &config).expect("Table I point is feasible");
        writeln!(out, "{}", benchmark.name()).expect("writing to a String");
        design_line(&mut out, "optimal", &best);
        design_line(&mut out, "suboptimal", &sub);
    }
    check("table1.txt", &out);
}

/// The optimum and its sub-optimal point over 945 budgets: every
/// benchmark × area limit × cycle limit × λ × input scale. No benchmark
/// fits a 1 % area limit, so those cases pin the infeasible answer.
#[test]
fn optimizer_points() {
    let mut out = String::new();
    for benchmark in Benchmark::ALL {
        for area in [0.01, 0.02, 0.05, 0.10, 0.90] {
            for cycle in [0.02, 0.10, 0.50] {
                for lambda in [0.0, 1e-6, 1e-4] {
                    for scale in [0.25, 1.0, 4.0] {
                        let mut config = SystemConfig::paper(0);
                        config.constraints = SystemConstraints::new(area, cycle);
                        config.faults.error_rate = lambda;
                        config.scale = scale;
                        writeln!(
                            out,
                            "{}  area {area:?}  cycle {cycle:?}  lambda {lambda:?}  scale {scale:?}",
                            benchmark.name()
                        )
                        .expect("writing to a String");
                        let Some(best) = optimize(benchmark, &config) else {
                            writeln!(out, "  infeasible").expect("writing to a String");
                            continue;
                        };
                        let sub = best
                            .suboptimal(&config)
                            .expect("the optimum itself is feasible");
                        design_line(&mut out, "optimal", &best);
                        design_line(&mut out, "suboptimal", &sub);
                    }
                }
            }
        }
    }
    check("optimizer_points.txt", &out);
}

#[test]
fn fig5_grid_report() {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    let spec =
        fig5_spec(config, 0xF165, 2).benchmarks(&[Benchmark::AdpcmEncode, Benchmark::G721Decode]);
    let rows = run_campaign(&spec, 2).results;
    check(
        "fig5_grid.json",
        &canonical_report_json(spec.campaign_seed, &rows, &REPORT_AXES).render(),
    );
}

/// Every task under every scheme at two rates, so that a change to one
/// task or one executor shows up here even where the Fig. 5 grid does not
/// run it. At scale 0.3 the three encoders see odd sample counts, which
/// pins the odd-tail coding rule too.
#[test]
fn every_task_under_every_scheme() {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.3;
    let mut spec = CampaignSpec::new(config, 0xA11)
        .benchmarks(&Benchmark::ALL)
        .error_rates(&[1e-5, 1e-4]);
    for scheme in [
        MitigationScheme::Default,
        MitigationScheme::SwRestart,
        MitigationScheme::hw_baseline(),
        MitigationScheme::Hybrid {
            chunk_words: 16,
            l1_prime_t: 8,
        },
        MitigationScheme::HybridSingleParity {
            chunk_words: 16,
            l1_prime_t: 8,
        },
        MitigationScheme::ScrubbedSecded {
            interval_cycles: 5_000,
        },
    ] {
        spec = spec.scheme(&scheme.label(), SchemeSpec::Fixed(scheme));
    }
    let rows = run_campaign(&spec, 2).results;
    check(
        "all_tasks.json",
        &canonical_report_json(spec.campaign_seed, &rows, &REPORT_AXES).render(),
    );
}

/// JPEG's ratios at a rate where a faulty Default run's ledger differs
/// from the fault-free golden's (a corrupted stream ends blocks early),
/// so a denominator that skipped JPEG's same-seed Default re-run moves
/// these bytes.
#[test]
fn jpeg_denominator_report() {
    let mut config = SystemConfig::paper(0);
    config.scale = 2.0;
    let spec = CampaignSpec::new(config, 0x19)
        .benchmarks(&[Benchmark::JpegDecode])
        .scheme(
            "HW-based",
            SchemeSpec::Fixed(MitigationScheme::hw_baseline()),
        )
        .scheme(
            "Proposed",
            SchemeSpec::Fixed(MitigationScheme::Hybrid {
                chunk_words: 16,
                l1_prime_t: 8,
            }),
        )
        .error_rates(&[1e-3])
        .replicates(2);
    let rows = run_campaign(&spec, 2).results;
    check(
        "jpeg_denominator.json",
        &canonical_report_json(spec.campaign_seed, &rows, &REPORT_AXES).render(),
    );
}

#[test]
fn burst_and_scrub_campaign_report() {
    let mut burst = ScenarioDef::named("burst");
    burst.timeline = vec![TimelineEvent::FaultBurst {
        cycle: 2_000,
        words: 32,
        rate: 0.5,
    }];
    let mut scrub = ScenarioDef::named("scrub");
    scrub.timeline = vec![TimelineEvent::Scrub { period: 20_000 }];
    // Paper scale: at a quarter, runs end before many strikes land.
    let mut config = SystemConfig::paper(0);
    config.faults.error_rate = 1e-4;
    let spec = CampaignSpec::new(config, 0x5C2B)
        .benchmarks(&[Benchmark::AdpcmDecode])
        .scheme(
            "HW-based",
            SchemeSpec::Fixed(MitigationScheme::HwEcc { t: 8 }),
        )
        .scheme(
            "Proposed",
            SchemeSpec::Fixed(MitigationScheme::Hybrid {
                chunk_words: 16,
                l1_prime_t: 8,
            }),
        )
        .timeline_scenarios(&[burst, scrub])
        .replicates(2);
    let rows = run_campaign(&spec, 2).results;
    check(
        "burst_scrub.json",
        &canonical_report_json(spec.campaign_seed, &rows, &REPORT_AXES).render(),
    );
}
