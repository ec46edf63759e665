//! Golden reproduction fixtures: fixed slices of the paper's experiments,
//! byte-compared against the files committed in `tests/golden/`.
//!
//! The parity suites compare execution paths with each other inside one
//! build, so a change that moves every path the same way passes them all.
//! These fixtures pin the numbers themselves: Table I's optimizer points,
//! a Fig. 5 grid's canonical report, and one timeline-scenario campaign.
//! An intended change to results shows up as a reviewed diff of these
//! files. Regenerate them with
//!
//! ```text
//! CHUNKPOINT_BLESS_GOLDEN=1 cargo test --test golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use chunkpoint::campaign::{canonical_report_json, run_campaign, CampaignSpec, SchemeSpec};
use chunkpoint::core::{optimize, suboptimal, DesignPoint, MitigationScheme, SystemConfig};
use chunkpoint::scenario::{ScenarioDef, TimelineEvent};
use chunkpoint::serve::REPORT_AXES;
use chunkpoint::workloads::Benchmark;
use chunkpoint_bench::fig5_scheme_axis;

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

#[test]
fn fig5_grid_report() {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    let mut spec = CampaignSpec::new(config, 0xF165)
        .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::G721Decode])
        .replicates(2);
    for (label, scheme) in fig5_scheme_axis() {
        spec = spec.scheme(label, scheme);
    }
    let rows = run_campaign(&spec, 2).results;
    check(
        "fig5_grid.json",
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
