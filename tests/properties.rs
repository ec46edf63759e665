//! Property-based tests (proptest) on the system's core invariants:
//!
//! * **Full mitigation**: for any fault seed, rate (up to 100x the
//!   paper's), and feasible chunk size, the hybrid executor's output is
//!   bit-identical to the fault-free reference.
//! * **Optimizer soundness**: every design point the optimizer returns
//!   satisfies the constraints it was given.
//! * **Exact pruned search**: the pruned optimizer returns an exhaustive
//!   oracle's point, bit for bit, and the monotonicity its pruning rests
//!   on holds.
//! * **Exact Fig. 5 denominators**: wherever
//!   `Benchmark::ledger_is_data_independent` holds, a faulty Default run
//!   charges exactly the golden run's cycles and energy; JPEG, where it
//!   does not hold, has a seed where they differ.
//! * **Codec roundtrips** under arbitrary inputs.

use proptest::prelude::*;

use chunkpoint::core::{
    buffer_area_um2, evaluate, golden, optimize, run, sweep, DesignPoint, MitigationScheme,
    SystemConfig, SystemConstraints, MAX_CHUNK_WORDS, MAX_L1_PRIME_T, MIN_L1_PRIME_T,
};
use chunkpoint::sim::{Burst, FaultTimeline};
use chunkpoint::workloads::Benchmark;

/// The timeline cases of the denominator property: none, a burst, a ×10
/// rate shift, or a scrub period.
fn timeline_case(case: usize, rate: f64) -> Option<FaultTimeline> {
    let mut timeline = FaultTimeline::default();
    match case {
        0 => return None,
        1 => timeline.bursts.push(Burst {
            cycle: 2_000,
            words: 32,
            rate: 0.5,
        }),
        2 => timeline.shifts.push((5_000, rate * 10.0)),
        _ => timeline.scrub_period = Some(20_000),
    }
    Some(timeline)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn hybrid_output_always_matches_golden(
        seed in 0u64..1_000_000,
        rate_exp in 0u32..3, // 1e-6, 1e-5, 1e-4
        chunk_words in 1u32..48,
        bench_idx in 0usize..5,
    ) {
        let benchmark = Benchmark::ALL[bench_idx];
        let mut config = SystemConfig::paper(seed);
        config.scale = 0.5;
        config.faults.error_rate = 1e-6 * 10f64.powi(rate_exp as i32);
        let reference = golden(benchmark, &config);
        let report = run(
            benchmark,
            MitigationScheme::Hybrid { chunk_words, l1_prime_t: 8 },
            &config,
        );
        // The run may exhaust its retry budget at extreme rates (loud
        // failure) but must never complete with wrong output.
        if report.completed {
            prop_assert!(
                report.output_matches(&reference),
                "{benchmark}: diverged with {} errors / {} rollbacks at rate {:e}",
                report.errors_detected,
                report.rollbacks,
                config.faults.error_rate,
            );
        }
    }

    #[test]
    fn hw_ecc_output_always_matches_golden(
        seed in 0u64..1_000_000,
        bench_idx in 0usize..5,
    ) {
        let benchmark = Benchmark::ALL[bench_idx];
        let mut config = SystemConfig::paper(seed);
        config.scale = 0.5;
        config.faults.error_rate = 1e-5;
        let reference = golden(benchmark, &config);
        let report = run(benchmark, MitigationScheme::hw_baseline(), &config);
        if report.completed {
            prop_assert!(report.output_matches(&reference), "{benchmark}");
        }
    }

    #[test]
    fn optimizer_points_satisfy_their_constraints(
        area_pct in 2u32..12,
        cycle_pct in 5u32..20,
        bench_idx in 0usize..5,
    ) {
        let benchmark = Benchmark::ALL[bench_idx];
        let mut config = SystemConfig::paper(0);
        config.constraints = SystemConstraints::new(
            f64::from(area_pct) / 100.0,
            f64::from(cycle_pct) / 100.0,
        );
        if let Some(best) = optimize(benchmark, &config) {
            prop_assert!(best.area_fraction <= config.constraints.area_overhead + 1e-12);
            prop_assert!(
                best.cost.cycle_fraction() <= config.constraints.cycle_overhead + 1e-12
            );
            // And it is a true optimum among a sample of feasible rivals.
            for k in [1u32, 4, 16, 64, 256] {
                let rival = evaluate(benchmark, k, best.l1_prime_t, &config);
                if rival.is_feasible(&config) {
                    prop_assert!(
                        best.cost.objective_pj() <= rival.cost.objective_pj() + 1e-6,
                        "K={k} beats the 'optimum'"
                    );
                }
            }
        }
    }

    #[test]
    fn golden_is_seed_independent(
        seed_a in 0u64..100_000,
        seed_b in 0u64..100_000,
        bench_idx in 0usize..5,
    ) {
        let benchmark = Benchmark::ALL[bench_idx];
        let mut ca = SystemConfig::paper(seed_a);
        ca.scale = 0.25;
        let mut cb = SystemConfig::paper(seed_b);
        cb.scale = 0.25;
        let a = golden(benchmark, &ca);
        let b = golden(benchmark, &cb);
        prop_assert_eq!(a.cycles(), b.cycles());
        prop_assert_eq!(a.output, b.output);
    }

    #[test]
    fn data_independent_default_ledgers_equal_the_golden(
        seed: u64,
        rate in 0.0f64..1e-3,
        full_scale: bool,
        timeline in 0usize..4,
        pick in 0usize..6,
    ) {
        let independent: Vec<Benchmark> = Benchmark::ALL
            .into_iter()
            .filter(|b| b.ledger_is_data_independent())
            .collect();
        let benchmark = independent[pick % independent.len()];
        let mut config = SystemConfig::paper(seed);
        config.scale = if full_scale { 1.0 } else { 0.25 };
        config.faults.error_rate = rate;
        config.timeline = timeline_case(timeline, rate);
        let reference = golden(benchmark, &config);
        let default = run(benchmark, MitigationScheme::Default, &config);
        prop_assert_eq!(default.cycles(), reference.cycles(), "{}", benchmark);
        prop_assert_eq!(
            default.energy_pj().to_bits(),
            reference.energy_pj().to_bits(),
            "{}",
            benchmark
        );
    }
}

/// Why JPEG keeps its same-seed Default re-run: at this point a corrupted
/// stream ends blocks early, so the faulty run charges fewer cycles than
/// the golden run.
#[test]
fn jpeg_default_ledger_can_differ_from_the_golden() {
    assert!(!Benchmark::JpegDecode.ledger_is_data_independent());
    let mut config = SystemConfig::paper(15_839);
    config.scale = 2.0;
    config.faults.error_rate = 1e-3;
    let reference = golden(Benchmark::JpegDecode, &config);
    let default = run(Benchmark::JpegDecode, MitigationScheme::Default, &config);
    assert_ne!(default.cycles(), reference.cycles());
    assert_ne!(
        default.energy_pj().to_bits(),
        reference.energy_pj().to_bits()
    );
}

/// The (scale, λ, area limit, cycle limit) budgets the pruned search is
/// checked over, for every benchmark.
const SCALES: [f64; 5] = [0.05, 0.25, 1.0, 2.0, 4.0];
const RATES: [f64; 6] = [0.0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3];
const AREA_LIMITS: [f64; 5] = [0.005, 0.02, 0.05, 0.20, 0.90];
const CYCLE_LIMITS: [f64; 3] = [0.02, 0.10, 0.50];

/// Every field of a design point, floats as bits.
fn point_bits(point: &DesignPoint) -> (Benchmark, u32, u8, usize, u32, [u64; 7]) {
    let cost = &point.cost;
    (
        point.benchmark,
        point.chunk_words,
        point.l1_prime_t,
        cost.n_checkpoints,
        cost.buffer_words,
        [
            cost.store_pj,
            cost.comp_pj,
            cost.expected_errors,
            cost.overhead_cycles,
            cost.base_cycles,
            point.area_um2,
            point.area_fraction,
        ]
        .map(f64::to_bits),
    )
}

/// The exhaustive search: every (t, K) in order, the first strict
/// minimum among feasible points, and the smallest feasible K at its t.
fn exhaustive_optimum(
    benchmark: Benchmark,
    config: &SystemConfig,
) -> Option<(DesignPoint, DesignPoint)> {
    let mut best: Option<(DesignPoint, DesignPoint)> = None;
    for t in MIN_L1_PRIME_T..=MAX_L1_PRIME_T {
        let feasible: Vec<DesignPoint> = sweep(benchmark, t, config)
            .into_iter()
            .filter(|p| p.is_feasible(config))
            .collect();
        for &point in &feasible {
            let better = best
                .as_ref()
                .is_none_or(|(b, _)| point.cost.objective_pj() < b.cost.objective_pj());
            if better {
                best = Some((point, feasible[0]));
            }
        }
    }
    best
}

/// The pruned `optimize`, and the sub-optimal point of its answer, equal
/// the exhaustive oracle's bit for bit on 3,150 budgets (a fixed stride
/// of them in debug builds), `None` wherever nothing is feasible.
#[test]
fn pruned_optimizer_matches_the_exhaustive_search() {
    let stride = if cfg!(debug_assertions) { 7 } else { 1 };
    let mut cases = Vec::new();
    for benchmark in Benchmark::ALL {
        for scale in SCALES {
            for rate in RATES {
                for area in AREA_LIMITS {
                    for cycle in CYCLE_LIMITS {
                        cases.push((benchmark, scale, rate, area, cycle));
                    }
                }
            }
        }
    }
    assert_eq!(cases.len(), 3_150);
    let (mut feasible, mut infeasible) = (0, 0);
    for &(benchmark, scale, rate, area, cycle) in cases.iter().step_by(stride) {
        let mut config = SystemConfig::paper(0);
        config.scale = scale;
        config.faults.error_rate = rate;
        config.constraints = SystemConstraints::new(area, cycle);
        let case = format!("{benchmark} scale {scale} λ {rate:e} area {area} cycle {cycle}");
        let pruned = optimize(benchmark, &config).map(|best| {
            let sub = best.suboptimal(&config).expect("the optimum is feasible");
            (point_bits(&best), point_bits(&sub))
        });
        let oracle = exhaustive_optimum(benchmark, &config)
            .map(|(best, sub)| (point_bits(&best), point_bits(&sub)));
        assert_eq!(pruned, oracle, "{case}");
        if oracle.is_some() {
            feasible += 1;
        } else {
            infeasible += 1;
        }
    }
    assert!(feasible > 0 && infeasible > 0, "{feasible} / {infeasible}");
}

/// The premise of the pruning: the protected buffer never shrinks as K
/// grows, and L1′ area rises strictly with buffer words at every t.
#[test]
fn buffer_words_and_l1_prime_area_never_fall_with_the_chunk() {
    let platform = SystemConfig::paper(0).platform;
    let mut largest = 0;
    for benchmark in Benchmark::ALL {
        for scale in SCALES {
            let words: Vec<u32> = (1..=MAX_CHUNK_WORDS)
                .map(|k| benchmark.profile_for_chunk(k, scale).protected_words())
                .collect();
            for (k, pair) in (1..).zip(words.windows(2)) {
                assert!(
                    pair[1] >= pair[0],
                    "{benchmark} scale {scale}: K={k} protects {} words, K={} {}",
                    pair[0],
                    k + 1,
                    pair[1]
                );
            }
            largest = largest.max(words[words.len() - 1]);
        }
    }
    for t in MIN_L1_PRIME_T..=MAX_L1_PRIME_T {
        for words in 1..largest {
            let (small, large) = (
                buffer_area_um2(&platform, words, t),
                buffer_area_um2(&platform, words + 1, t),
            );
            assert!(
                large > small,
                "t={t}: {words} words {small} µm², one more {large} µm²"
            );
        }
    }
}
