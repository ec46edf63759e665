//! The chunk-size / checkpoint-count optimization of Eqs. (3)–(7).
//!
//! The paper solves the problem with the MATLAB optimization toolbox; the
//! decision space here is small and integral (S_CH = K·W_size with K a
//! few hundred at most, Eq. 6–7), so this module finds the *exact* integer
//! optimum by a pruned search over (K, t) and also exposes the
//! area-feasibility region of Fig. 4.
//!
//! The pruning rests on Fig. 4's monotonicity. At a fixed t, L1′ area
//! rises with the protected buffer, and the buffer never shrinks as K
//! grows, so the first K over the area limit (Eq. 4) ends that t's K
//! loop: no larger K fits either.

use chunkpoint_ecc::{CodeOverhead, EccKind};
use chunkpoint_sim::Platform;
use chunkpoint_workloads::Benchmark;

use crate::config::SystemConfig;
use crate::cost::{CostBreakdown, CostModel};

/// Largest chunk size explored (words), matching Fig. 4's x-axis.
pub const MAX_CHUNK_WORDS: u32 = 512;

/// Smallest L1′ BCH strength that corrects every burst our SMU model can
/// produce (widths up to 6 bits) in a single strike.
pub const MIN_L1_PRIME_T: u8 = 6;

/// Largest L1′ BCH strength explored, matching Fig. 4's y-axis.
pub const MAX_L1_PRIME_T: u8 = 18;

/// One evaluated design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Benchmark the point was evaluated for.
    pub benchmark: Benchmark,
    /// Chunk size in words (K of Eq. 6, with W_size = 4 bytes).
    pub chunk_words: u32,
    /// L1′ BCH strength.
    pub l1_prime_t: u8,
    /// Cost-model output.
    pub cost: CostBreakdown,
    /// L1′ area (array + codec), µm².
    pub area_um2: f64,
    /// Area as a fraction of the L1 macro (constraint 4 compares this to
    /// OV1).
    pub area_fraction: f64,
}

impl DesignPoint {
    /// Whether the point satisfies both hard constraints.
    #[must_use]
    pub fn is_feasible(&self, config: &SystemConfig) -> bool {
        self.area_fraction <= config.constraints.area_overhead
            && self.cost.cycle_fraction() <= config.constraints.cycle_overhead
    }
}

fn evaluate_with_model(
    model: &CostModel,
    benchmark: Benchmark,
    chunk_words: u32,
    l1_prime_t: u8,
    config: &SystemConfig,
) -> DesignPoint {
    let cost = model.evaluate(chunk_words);
    let area_um2 = model.l1_prime_area_um2(cost.buffer_words);
    let l1_area = config.platform.l1_model().area_um2();
    DesignPoint {
        benchmark,
        chunk_words,
        l1_prime_t,
        cost,
        area_um2,
        area_fraction: area_um2 / l1_area,
    }
}

fn model_for(benchmark: Benchmark, l1_prime_t: u8, config: &SystemConfig) -> CostModel {
    CostModel::new(
        benchmark,
        &config.platform,
        config.faults.error_rate,
        config.scale,
        l1_prime_t,
    )
}

/// Evaluates one (benchmark, K, t) candidate.
///
/// # Panics
///
/// Panics if `chunk_words == 0` or `t` is not a valid BCH strength.
#[must_use]
pub fn evaluate(
    benchmark: Benchmark,
    chunk_words: u32,
    l1_prime_t: u8,
    config: &SystemConfig,
) -> DesignPoint {
    let model = model_for(benchmark, l1_prime_t, config);
    evaluate_with_model(&model, benchmark, chunk_words, l1_prime_t, config)
}

/// Finds the energy-optimal feasible design point for a benchmark (exact
/// integer optimum of Eq. 3).
///
/// The search skips only points it knows to be infeasible. A speech task
/// protects K + state words and JPEG 16·max(⌊K/16⌋, 1) + 4, neither of
/// which falls as K grows, and L1′ area rises strictly with stored bits.
/// So each t's K loop stops at the first K over the area limit. The rest
/// are visited in (t, K) order under a strict `<`, so the answer, ties
/// included, is the exhaustive search's.
///
/// Returns `None` when no (K, t) candidate satisfies the constraints.
#[must_use]
pub fn optimize(benchmark: Benchmark, config: &SystemConfig) -> Option<DesignPoint> {
    let mut best: Option<DesignPoint> = None;
    for t in MIN_L1_PRIME_T..=MAX_L1_PRIME_T {
        let model = model_for(benchmark, t, config);
        for k in 1..=MAX_CHUNK_WORDS {
            let point = evaluate_with_model(&model, benchmark, k, t, config);
            // `>`, not `!(<=)`: a NaN limit never breaks, and never fits.
            if point.area_fraction > config.constraints.area_overhead {
                break;
            }
            if !point.is_feasible(config) {
                continue;
            }
            let better = best
                .as_ref()
                .is_none_or(|b| point.cost.objective_pj() < b.cost.objective_pj());
            if better {
                best = Some(point);
            }
        }
    }
    best
}

/// A deliberately sub-optimal but feasible point for the "proposed
/// (sub-optimal)" bars of Fig. 5: the *smallest* feasible chunk at the
/// optimum's code strength — more checkpoints, more per-checkpoint
/// trigger and buffering overhead.
#[must_use]
pub fn suboptimal(benchmark: Benchmark, config: &SystemConfig) -> Option<DesignPoint> {
    optimize(benchmark, config)?.suboptimal(config)
}

impl DesignPoint {
    /// The [`suboptimal`] point of this optimum: the smallest feasible
    /// chunk at its code strength, without searching the optimum again.
    #[must_use]
    pub fn suboptimal(&self, config: &SystemConfig) -> Option<DesignPoint> {
        let model = model_for(self.benchmark, self.l1_prime_t, config);
        (1..=self.chunk_words)
            .map(|k| evaluate_with_model(&model, self.benchmark, k, self.l1_prime_t, config))
            .find(|p| p.is_feasible(config))
    }
}

/// Sweeps the objective over every chunk size at a fixed code strength
/// (the data behind the chunk-size-sensitivity ablation).
#[must_use]
pub fn sweep(benchmark: Benchmark, l1_prime_t: u8, config: &SystemConfig) -> Vec<DesignPoint> {
    let model = model_for(benchmark, l1_prime_t, config);
    (1..=MAX_CHUNK_WORDS)
        .map(|k| evaluate_with_model(&model, benchmark, k, l1_prime_t, config))
        .collect()
}

/// The Fig. 4 feasibility region: for each buffer size (words), the
/// maximum number of correctable bits per word whose L1′ implementation
/// still fits the area budget (benchmark-independent — pure area).
///
/// Returns `(buffer_words, max_feasible_t)` pairs; `max_feasible_t == 0`
/// means even t = 1 does not fit.
#[must_use]
pub fn feasible_region(config: &SystemConfig) -> Vec<(u32, u8)> {
    let budget = config.constraints.area_overhead * config.platform.l1_model().area_um2();
    (1..=MAX_CHUNK_WORDS)
        .map(|words| {
            let max_t = (1..=MAX_L1_PRIME_T)
                .rev()
                .find(|&t| buffer_area_um2(&config.platform, words, t) <= budget)
                .unwrap_or(0);
            (words, max_t)
        })
        .collect()
}

/// Area of an L1′ of `words` words with strength-`t` BCH (array + codec).
#[must_use]
pub fn buffer_area_um2(platform: &Platform, words: u32, t: u8) -> f64 {
    let (check_bits, gates) = CodeOverhead::for_kind(EccKind::Bch { t })
        .map_or((0, 0), |overhead| {
            (overhead.check_bits, overhead.logic_gates())
        });
    platform
        .l1_prime_model(words as usize, check_bits)
        .area_um2()
        + chunkpoint_sim::logic_area_um2(gates)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SystemConfig {
        SystemConfig::paper(0)
    }

    #[test]
    fn every_benchmark_has_a_feasible_optimum() {
        for benchmark in Benchmark::ALL {
            let best = optimize(benchmark, &config())
                .unwrap_or_else(|| panic!("{benchmark}: no feasible point"));
            assert!(best.is_feasible(&config()), "{benchmark}");
            assert!(best.chunk_words >= 1, "{benchmark}");
            println!(
                "{benchmark}: K={} t={} buffer={}w J={:.0}pJ area={:.2}% cycles={:.2}%",
                best.chunk_words,
                best.l1_prime_t,
                best.cost.buffer_words,
                best.cost.objective_pj(),
                100.0 * best.area_fraction,
                100.0 * best.cost.cycle_fraction(),
            );
        }
    }

    #[test]
    fn optimum_beats_neighbours() {
        let cfg = config();
        for benchmark in [Benchmark::AdpcmEncode, Benchmark::JpegDecode] {
            let best = optimize(benchmark, &cfg).unwrap();
            for delta in [-2i64, -1, 1, 2, 8] {
                let k = best.chunk_words as i64 + delta;
                if k < 1 || k > i64::from(MAX_CHUNK_WORDS) {
                    continue;
                }
                let other = evaluate(benchmark, k as u32, best.l1_prime_t, &cfg);
                if other.is_feasible(&cfg) {
                    assert!(
                        best.cost.objective_pj() <= other.cost.objective_pj(),
                        "{benchmark}: K={} beaten by K={k}",
                        best.chunk_words
                    );
                }
            }
        }
    }

    #[test]
    fn suboptimal_is_feasible_but_worse() {
        let cfg = config();
        let benchmark = Benchmark::AdpcmDecode;
        let best = optimize(benchmark, &cfg).unwrap();
        let sub = suboptimal(benchmark, &cfg).unwrap();
        assert!(sub.is_feasible(&cfg));
        assert!(sub.cost.objective_pj() >= best.cost.objective_pj());
    }

    #[test]
    fn feasible_region_shrinks_with_strength() {
        let region = feasible_region(&config());
        assert_eq!(region.len(), MAX_CHUNK_WORDS as usize);
        // Monotone: max feasible t never increases with buffer size.
        for window in region.windows(2) {
            assert!(window[1].1 <= window[0].1, "{window:?}");
        }
        // Small buffers accept strong codes, huge ones only weak.
        let (_, t_small) = region[7]; // 8 words
        let (_, t_large) = region[MAX_CHUNK_WORDS as usize - 1];
        assert!(t_small > t_large, "small={t_small} large={t_large}");
        assert!(t_small >= 8, "8-word buffer should allow strong codes");
    }

    #[test]
    fn tighter_budget_shrinks_region() {
        let mut tight = config();
        tight.constraints = crate::config::SystemConstraints::new(0.01, 0.10);
        let loose_region = feasible_region(&config());
        let tight_region = feasible_region(&tight);
        for (l, t) in loose_region.iter().zip(tight_region.iter()) {
            assert!(t.1 <= l.1);
        }
    }

    #[test]
    fn buffer_area_monotone() {
        let p = Platform::lh7a400();
        assert!(buffer_area_um2(&p, 64, 8) > buffer_area_um2(&p, 32, 8));
        assert!(buffer_area_um2(&p, 32, 12) > buffer_area_um2(&p, 32, 6));
    }

    #[test]
    fn sweep_covers_range_and_contains_optimum() {
        let cfg = config();
        let best = optimize(Benchmark::AdpcmEncode, &cfg).unwrap();
        let points = sweep(Benchmark::AdpcmEncode, best.l1_prime_t, &cfg);
        assert_eq!(points.len(), MAX_CHUNK_WORDS as usize);
        let min = points
            .iter()
            .filter(|p| p.is_feasible(&cfg))
            .min_by(|a, b| {
                a.cost
                    .objective_pj()
                    .partial_cmp(&b.cost.objective_pj())
                    .unwrap()
            })
            .unwrap();
        assert_eq!(min.chunk_words, best.chunk_words);
    }
}
