//! Intermittent-fault injection.
//!
//! The paper's fault model: single-event upsets strike SRAM words at a rate
//! of λ words/cycle (the evaluation uses λ = 10⁻⁶ word⁻¹·cycle⁻¹, an upper
//! bound taken from ERSA, the paper.s ref. 14); with technology scaling a growing fraction
//! of strikes are *multi-bit* upsets (SMUs) flipping several physically
//! adjacent bits [5]. Faults persist in the array until the word is
//! rewritten — they are intermittent from the program's point of view
//! because they appear between a write and a later read.
//!
//! [`FaultProcess`] samples strike counts from the exact Poisson law of the
//! per-cycle Bernoulli process and applies adjacent-bit bursts with a
//! configurable width distribution.

use chunkpoint_ecc::BitBuf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distribution of the burst width of a single strike.
#[derive(Debug, Clone, PartialEq)]
pub enum UpsetModel {
    /// Classic single-bit upsets only.
    SingleBit,
    /// Multi-bit upsets: width w is drawn from the given probability table.
    MultiBit {
        /// `weights[i]` = relative probability of a burst of width `i + 1`.
        weights: Vec<f64>,
    },
}

impl UpsetModel {
    /// The SMU width distribution used throughout the paper's evaluation:
    /// scaled-technology measurements (ref. 5 of the paper, 65 nm and below) where ~55 % of
    /// events upset more than one bit.
    #[must_use]
    pub fn smu_65nm() -> Self {
        UpsetModel::MultiBit {
            weights: vec![0.45, 0.25, 0.15, 0.08, 0.05, 0.02],
        }
    }

    fn sample_width(&self, rng: &mut StdRng) -> usize {
        match self {
            UpsetModel::SingleBit => 1,
            UpsetModel::MultiBit { weights } => {
                let total: f64 = weights.iter().sum();
                let mut x = rng.gen::<f64>() * total;
                for (i, w) in weights.iter().enumerate() {
                    if x < *w {
                        return i + 1;
                    }
                    x -= w;
                }
                weights.len()
            }
        }
    }
}

/// A single injected strike, for tracing and post-mortem analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at which the strike was materialised (lazily, at read time).
    pub cycle: u64,
    /// First flipped stored-bit index within the word.
    pub first_bit: usize,
    /// Number of adjacent bits flipped.
    pub width: usize,
}

/// A strike cluster at one instant: every word whose exposure window
/// crosses `cycle` is struck with probability `rate`, at most `words`
/// strikes in total across the array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Burst instant in cycles.
    pub cycle: u64,
    /// Cap on struck words across the whole array.
    pub words: u32,
    /// Per-word strike probability in `(0, 1]`.
    pub rate: f64,
}

/// A deterministic dynamic fault regime layered on a [`FaultProcess`]:
/// piecewise-constant rate shifts, strike bursts at instants, and an
/// idealized background scrub.
///
/// Everything stays a pure function of `(seed, access sequence)`: the
/// rate λ(t) is integrated exactly over each word's exposure window, a
/// burst consumes one uniform draw per crossing word, and scrubbing only
/// clamps exposure windows — so a timeline run is byte-identical across
/// machines and thread counts, like every other simulation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultTimeline {
    /// `(cycle, λ)` pairs, non-decreasing in cycle: from each instant on,
    /// the Poisson rate becomes the paired value (the base rate applies
    /// before the first shift).
    pub shifts: Vec<(u64, f64)>,
    /// Strike clusters, non-decreasing in cycle.
    pub bursts: Vec<Burst>,
    /// Background scrub period: accumulated-fault exposure windows are
    /// clamped to the most recent period boundary, modelling an idealized
    /// scrubber that rewrites every word each period at zero cost.
    pub scrub_period: Option<u64>,
}

impl FaultTimeline {
    /// Whether the timeline changes anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shifts.is_empty() && self.bursts.is_empty() && self.scrub_period.is_none()
    }

    /// ∫λ(t)dt over the half-open window `[start, end)` with base rate
    /// `base` before the first shift.
    fn integrate(&self, base: f64, start: u64, end: u64) -> f64 {
        if start >= end {
            return 0.0;
        }
        let mut rate = base;
        for &(cycle, shifted) in &self.shifts {
            if cycle <= start {
                rate = shifted;
            } else {
                break;
            }
        }
        let mut total = 0.0;
        let mut t = start;
        for &(cycle, shifted) in &self.shifts {
            if cycle <= start {
                continue;
            }
            if cycle >= end {
                break;
            }
            total += rate * (cycle - t) as f64;
            t = cycle;
            rate = shifted;
        }
        total + rate * (end - t) as f64
    }
}

/// Poisson process injecting bit-flip bursts into stored words.
///
/// # Examples
///
/// ```
/// use chunkpoint_sim::{FaultProcess, UpsetModel};
/// use chunkpoint_ecc::BitBuf;
///
/// // An aggressive rate so the example actually strikes.
/// let mut faults = FaultProcess::new(1e-2, UpsetModel::smu_65nm(), 42);
/// let mut word = BitBuf::new(39);
/// let events = faults.expose(&mut word, 10_000, 0);
/// assert!(!events.is_empty());
/// assert_eq!(word.count_ones() > 0, true);
/// ```
#[derive(Debug, Clone)]
pub struct FaultProcess {
    rate_per_word_cycle: f64,
    model: UpsetModel,
    rng: StdRng,
    strikes: u64,
    bits_flipped: u64,
    timeline: Option<FaultTimeline>,
    /// Remaining word budget per timeline burst, parallel to
    /// `timeline.bursts`.
    burst_remaining: Vec<u32>,
}

impl FaultProcess {
    /// Creates a process with strike rate λ (strikes per word per cycle).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative, NaN, or ≥ 1.
    #[must_use]
    pub fn new(rate: f64, model: UpsetModel, seed: u64) -> Self {
        assert!(
            rate.is_finite() && (0.0..1.0).contains(&rate),
            "fault rate must be in [0, 1), got {rate}"
        );
        Self {
            rate_per_word_cycle: rate,
            model,
            rng: StdRng::seed_from_u64(seed),
            strikes: 0,
            bits_flipped: 0,
            timeline: None,
            burst_remaining: Vec::new(),
        }
    }

    /// Attaches a [`FaultTimeline`]: rate shifts, bursts, and scrubbing
    /// become part of this process's exposure law.
    ///
    /// # Panics
    ///
    /// Panics if a shift rate is outside `[0, 1)`, a burst rate outside
    /// `(0, 1]`, shift or burst instants decrease, or a scrub period is 0.
    #[must_use]
    pub fn with_timeline(mut self, timeline: FaultTimeline) -> Self {
        for window in timeline.shifts.windows(2) {
            assert!(
                window[0].0 <= window[1].0,
                "shift instants must be non-decreasing"
            );
        }
        for &(_, rate) in &timeline.shifts {
            assert!(
                rate.is_finite() && (0.0..1.0).contains(&rate),
                "shift rate must be in [0, 1), got {rate}"
            );
        }
        for window in timeline.bursts.windows(2) {
            assert!(
                window[0].cycle <= window[1].cycle,
                "burst instants must be non-decreasing"
            );
        }
        for burst in &timeline.bursts {
            assert!(
                burst.rate.is_finite() && burst.rate > 0.0 && burst.rate <= 1.0,
                "burst rate must be in (0, 1], got {}",
                burst.rate
            );
        }
        assert!(
            timeline.scrub_period != Some(0),
            "scrub period must be at least 1 cycle"
        );
        self.burst_remaining = timeline.bursts.iter().map(|b| b.words).collect();
        self.timeline = Some(timeline);
        self
    }

    /// The attached timeline, if any.
    #[must_use]
    pub fn timeline(&self) -> Option<&FaultTimeline> {
        self.timeline.as_ref()
    }

    /// A disabled process (λ = 0) for fault-free golden runs.
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(0.0, UpsetModel::SingleBit, 0)
    }

    /// Restarts the strike stream from `seed`, keeping the rate and the
    /// upset model. Statistics counters are reset: after a reseed the
    /// process is indistinguishable from a freshly built one.
    ///
    /// This is the knob for long-lived harnesses that re-roll the fault
    /// stream of an existing array between episodes. Note the campaign
    /// engine does *not* use it — campaigns reseed at the configuration
    /// level (`SystemConfig::with_seed`) so each scenario builds its
    /// processes from the derived `(campaign_seed, index)` seed; mixing
    /// `reseed` into a campaign scenario would step outside that
    /// reproducibility contract.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
        self.strikes = 0;
        self.bits_flipped = 0;
        if let Some(timeline) = &self.timeline {
            self.burst_remaining = timeline.bursts.iter().map(|b| b.words).collect();
        }
    }

    /// Strike rate λ.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate_per_word_cycle
    }

    /// Total strikes injected so far.
    #[must_use]
    pub fn strikes(&self) -> u64 {
        self.strikes
    }

    /// Total bits flipped so far.
    #[must_use]
    pub fn bits_flipped(&self) -> u64 {
        self.bits_flipped
    }

    /// Samples the number of strikes over an exposure window of `cycles`
    /// ending at `now`, honoring the attached timeline if any.
    fn sample_strike_count(&mut self, cycles: u64, now: u64) -> u64 {
        if self.timeline.is_none() {
            return self.sample_poisson(self.rate_per_word_cycle * cycles as f64);
        }
        let end = now;
        let mut start = end.saturating_sub(cycles);
        let timeline = self.timeline.as_ref().expect("checked above");
        if let Some(period) = timeline.scrub_period {
            // The scrubber rewrote every word at the last period boundary,
            // so accumulated exposure before it is gone.
            start = start.max((end / period) * period);
        }
        let lambda = timeline.integrate(self.rate_per_word_cycle, start, end);
        let mut count = self.sample_poisson(lambda);
        // Bursts: one Bernoulli draw per crossing burst with budget left.
        // `Burst` is `Copy`, so indexing sidesteps the rng borrow.
        for i in 0..self.burst_remaining.len() {
            let burst = self.timeline.as_ref().expect("checked above").bursts[i];
            if self.burst_remaining[i] > 0 && burst.cycle > start && burst.cycle <= end {
                let u: f64 = self.rng.gen();
                if u < burst.rate {
                    self.burst_remaining[i] -= 1;
                    count += 1;
                }
            }
        }
        count
    }

    /// Exact Poisson(λ) by inversion; λ is tiny in all realistic
    /// configurations so this loop terminates immediately.
    fn sample_poisson(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        let u: f64 = self.rng.gen();
        let mut cumulative = (-lambda).exp();
        let mut probability = cumulative;
        let mut k = 0u64;
        while u > cumulative && k < 64 {
            k += 1;
            probability *= lambda / k as f64;
            cumulative += probability;
        }
        k
    }

    /// Exposes one stored word for `cycles` cycles, flipping bits in place.
    ///
    /// Returns the strike events applied (empty when the word survived).
    /// Allocates only when a strike actually lands; hot paths that expose
    /// per access use [`FaultProcess::expose_into`] to stay allocation-free
    /// even then.
    pub fn expose(&mut self, word: &mut BitBuf, cycles: u64, now: u64) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        self.expose_into(word, cycles, now, &mut events);
        events
    }

    /// Allocation-free exposure: strike events are appended to the
    /// caller-provided `events` buffer (typically the owning array's
    /// long-lived fault log). Returns the number of strikes applied.
    ///
    /// The common no-strike path performs no allocation and no buffer
    /// traffic at all — it samples one Poisson variate and returns.
    pub fn expose_into(
        &mut self,
        word: &mut BitBuf,
        cycles: u64,
        now: u64,
        events: &mut Vec<FaultEvent>,
    ) -> usize {
        let count = self.sample_strike_count(cycles, now);
        for _ in 0..count {
            let width = self.model.sample_width(&mut self.rng).min(word.len());
            let first_bit = self.rng.gen_range(0..=word.len() - width);
            for bit in first_bit..first_bit + width {
                word.flip(bit);
            }
            self.strikes += 1;
            self.bits_flipped += width as u64;
            events.push(FaultEvent {
                cycle: now,
                first_bit,
                width,
            });
        }
        count as usize
    }

    /// Expected number of faulty words among `words` words exposed for
    /// `cycles` cycles — the `err` term of the paper's Eq. (1)–(2).
    /// Uses the base rate; timeline shifts are a runtime property, not
    /// part of the optimizer's closed-form model.
    #[must_use]
    pub fn expected_strikes(&self, words: usize, cycles: u64) -> f64 {
        self.rate_per_word_cycle * words as f64 * cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_strikes() {
        let mut faults = FaultProcess::disabled();
        let mut word = BitBuf::new(39);
        for _ in 0..100 {
            assert!(faults.expose(&mut word, 1_000_000, 0).is_empty());
        }
        assert_eq!(word.count_ones(), 0);
        assert_eq!(faults.strikes(), 0);
    }

    #[test]
    fn strike_rate_matches_poisson_mean() {
        let rate = 1e-4;
        let mut faults = FaultProcess::new(rate, UpsetModel::SingleBit, 7);
        let exposures = 20_000u64;
        let cycles = 100u64;
        let mut total = 0u64;
        for _ in 0..exposures {
            let mut word = BitBuf::new(39);
            total += faults.expose(&mut word, cycles, 0).len() as u64;
        }
        let expected = rate * cycles as f64 * exposures as f64; // = 200
        let observed = total as f64;
        assert!(
            (observed - expected).abs() < 0.25 * expected,
            "observed {observed}, expected {expected}"
        );
    }

    #[test]
    fn smu_model_produces_multi_bit_bursts() {
        let mut faults = FaultProcess::new(0.5, UpsetModel::smu_65nm(), 3);
        let mut widths = Vec::new();
        for _ in 0..500 {
            let mut word = BitBuf::new(64);
            for ev in faults.expose(&mut word, 1, 0) {
                widths.push(ev.width);
            }
        }
        assert!(widths.iter().any(|&w| w >= 2), "no multi-bit bursts seen");
        assert!(widths.iter().all(|&w| w <= 6));
        // Roughly 55% of strikes should be multi-bit.
        let multi = widths.iter().filter(|&&w| w >= 2).count() as f64;
        let frac = multi / widths.len() as f64;
        assert!((0.35..0.75).contains(&frac), "multi-bit fraction {frac}");
    }

    #[test]
    fn bursts_are_adjacent_and_in_range() {
        let mut faults = FaultProcess::new(0.9, UpsetModel::smu_65nm(), 11);
        for _ in 0..200 {
            let mut word = BitBuf::new(39);
            let before = word;
            let events = faults.expose(&mut word, 1, 5);
            for ev in &events {
                assert!(ev.first_bit + ev.width <= 39);
                assert_eq!(ev.cycle, 5);
            }
            if events.len() == 1 {
                // A single burst flips exactly `width` adjacent bits.
                assert_eq!(word.hamming_distance(&before) as usize, events[0].width);
            }
        }
    }

    #[test]
    fn expose_into_matches_expose_and_appends() {
        let mut a = FaultProcess::new(1e-2, UpsetModel::smu_65nm(), 21);
        let mut b = a.clone();
        let mut word_a = BitBuf::new(39);
        let mut word_b = BitBuf::new(39);
        let mut log = vec![FaultEvent {
            cycle: 0,
            first_bit: 0,
            width: 1,
        }];
        let mut total = 0usize;
        for round in 0..50u64 {
            let events = a.expose(&mut word_a, 1000, round);
            total += b.expose_into(&mut word_b, 1000, round, &mut log);
            assert_eq!(
                &log[log.len() - events.len()..],
                &events[..],
                "round {round}"
            );
        }
        assert_eq!(word_a, word_b);
        assert_eq!(log.len(), total + 1, "pre-existing entries must survive");
        assert!(total > 0, "aggressive rate produced no strikes");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed| {
            let mut faults = FaultProcess::new(1e-3, UpsetModel::smu_65nm(), seed);
            let mut word = BitBuf::new(39);
            for _ in 0..50 {
                faults.expose(&mut word, 1000, 0);
            }
            (*word.as_words(), faults.strikes())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).0, run(10).0);
    }

    #[test]
    fn reseed_restarts_the_stream() {
        let mut reseeded = FaultProcess::new(1e-2, UpsetModel::smu_65nm(), 1);
        let mut fresh = FaultProcess::new(1e-2, UpsetModel::smu_65nm(), 99);
        let mut scratch = BitBuf::new(39);
        reseeded.expose(&mut scratch, 100_000, 0);
        assert!(reseeded.strikes() > 0, "warm-up produced no strikes");
        reseeded.reseed(99);
        assert_eq!(reseeded.strikes(), 0, "reseed must reset statistics");
        let mut word_a = BitBuf::new(39);
        let mut word_b = BitBuf::new(39);
        for round in 0..50 {
            let a = reseeded.expose(&mut word_a, 1000, round);
            let b = fresh.expose(&mut word_b, 1000, round);
            assert_eq!(a, b, "round {round}");
        }
        assert_eq!(word_a, word_b);
    }

    #[test]
    fn expected_strikes_linear() {
        let faults = FaultProcess::new(1e-6, UpsetModel::SingleBit, 0);
        assert!((faults.expected_strikes(1000, 1000) - 1.0).abs() < 1e-9);
        assert!((faults.expected_strikes(0, 1000)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "fault rate")]
    fn rejects_invalid_rate() {
        let _ = FaultProcess::new(1.5, UpsetModel::SingleBit, 0);
    }

    #[test]
    fn timeline_integrates_piecewise_rates() {
        let timeline = FaultTimeline {
            shifts: vec![(100, 0.5), (200, 0.0)],
            ..FaultTimeline::default()
        };
        // Base rate 0.1 until cycle 100, then 0.5, then 0 from 200 on.
        assert!((timeline.integrate(0.1, 0, 100) - 10.0).abs() < 1e-9);
        assert!((timeline.integrate(0.1, 0, 200) - 60.0).abs() < 1e-9);
        assert!((timeline.integrate(0.1, 150, 1000) - 25.0).abs() < 1e-9);
        assert!((timeline.integrate(0.1, 300, 400)).abs() < 1e-12);
        assert!((timeline.integrate(0.1, 50, 50)).abs() < 1e-12);
    }

    #[test]
    fn rate_shift_turns_the_process_on_and_off() {
        let timeline = FaultTimeline {
            shifts: vec![(1_000, 0.2), (2_000, 0.0)],
            ..FaultTimeline::default()
        };
        let mut faults = FaultProcess::new(0.0, UpsetModel::SingleBit, 5).with_timeline(timeline);
        let mut word = BitBuf::new(39);
        // Window entirely before the shift: base rate 0, never strikes.
        for now in (100..=900).step_by(100) {
            assert!(faults.expose(&mut word, 100, now).is_empty(), "now={now}");
        }
        // Windows inside the hot region must strike often.
        let mut hot = 0;
        for now in ((1_100)..=(2_000)).step_by(100) {
            let mut w = BitBuf::new(39);
            hot += faults.expose(&mut w, 100, now).len();
        }
        assert!(hot > 0, "shifted-up rate produced no strikes");
        // After the shift back down the process is quiet again.
        for now in (2_100..=3_000).step_by(100) {
            let mut w = BitBuf::new(39);
            assert!(faults.expose(&mut w, 100, now).is_empty(), "now={now}");
        }
    }

    #[test]
    fn burst_strikes_are_capped_at_word_budget() {
        let timeline = FaultTimeline {
            bursts: vec![Burst {
                cycle: 500,
                words: 3,
                rate: 1.0,
            }],
            ..FaultTimeline::default()
        };
        let mut faults = FaultProcess::new(0.0, UpsetModel::SingleBit, 9).with_timeline(timeline);
        // 10 words all expose windows crossing cycle 500 — only 3 strike.
        let mut struck = 0;
        for _ in 0..10 {
            let mut word = BitBuf::new(39);
            struck += faults.expose(&mut word, 400, 600).len();
        }
        assert_eq!(struck, 3);
        // Words whose window misses the instant are untouched.
        let mut word = BitBuf::new(39);
        assert!(faults.expose(&mut word, 50, 400).is_empty());
    }

    #[test]
    fn scrub_clamps_accumulated_exposure() {
        let run = |scrub: Option<u64>| {
            let timeline = FaultTimeline {
                scrub_period: scrub,
                ..FaultTimeline::default()
            };
            let mut faults =
                FaultProcess::new(1e-3, UpsetModel::SingleBit, 77).with_timeline(timeline);
            let mut total = 0usize;
            for i in 0..200u64 {
                let mut word = BitBuf::new(39);
                // Each word sat untouched for 10_000 cycles.
                total += faults.expose(&mut word, 10_000, 10_000 + i).len();
            }
            total
        };
        let unscrubbed = run(None);
        // A 100-cycle scrub leaves at most ~100 cycles of exposure.
        let scrubbed = run(Some(100));
        assert!(
            scrubbed * 10 < unscrubbed,
            "scrub did not reduce exposure: {scrubbed} vs {unscrubbed}"
        );
    }

    #[test]
    fn timeline_runs_are_deterministic_and_reseedable() {
        let timeline = FaultTimeline {
            shifts: vec![(1_000, 1e-2)],
            bursts: vec![Burst {
                cycle: 2_000,
                words: 2,
                rate: 0.8,
            }],
            scrub_period: Some(50_000),
        };
        let run = |seed| {
            let mut faults = FaultProcess::new(1e-4, UpsetModel::smu_65nm(), seed)
                .with_timeline(timeline.clone());
            let mut word = BitBuf::new(39);
            for now in (500..50_000).step_by(500) {
                faults.expose(&mut word, 500, now);
            }
            (*word.as_words(), faults.strikes())
        };
        assert_eq!(run(4), run(4));
        // Reseed restores the burst budget along with the stream.
        let mut faults =
            FaultProcess::new(1e-4, UpsetModel::smu_65nm(), 4).with_timeline(timeline.clone());
        let mut word = BitBuf::new(39);
        for now in (500..50_000).step_by(500) {
            faults.expose(&mut word, 500, now);
        }
        faults.reseed(4);
        let mut word2 = BitBuf::new(39);
        for now in (500..50_000).step_by(500) {
            faults.expose(&mut word2, 500, now);
        }
        assert_eq!(word, word2);
    }

    #[test]
    #[should_panic(expected = "burst rate")]
    fn rejects_invalid_burst_rate() {
        let timeline = FaultTimeline {
            bursts: vec![Burst {
                cycle: 0,
                words: 1,
                rate: 1.5,
            }],
            ..FaultTimeline::default()
        };
        let _ = FaultProcess::disabled().with_timeline(timeline);
    }
}
