//! Summary statistics and result bookkeeping shared by every workload:
//! medians, tail percentiles under the ten-samples-beyond rule, failure
//! counting, and the naming rules the result line must follow.

/// Median of `values` (mean of the middle pair for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of `values`; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples a percentile needs strictly beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The nearest-rank `q`-th percentile (`0 < q < 100`, in percent) of
/// `values`, provided at least [`TAIL_SAMPLES`] samples lie beyond it.
///
/// With `n` samples the nearest rank is `ceil(q · n / 100)`, leaving
/// `n - rank` samples above it; a p90 therefore needs 100 samples.
///
/// # Errors
///
/// Names the sample count the percentile would need when `values` is
/// too short.
pub fn tail_percentile(values: &[f64], q: usize) -> Result<f64, String> {
    assert!(q > 0 && q < 100, "percentile {q} outside (0, 100)");
    let rank = |n: usize| (q * n).div_ceil(100);
    let n = values.len();
    if n - rank(n) < TAIL_SAMPLES {
        let needed = (1..)
            .find(|&m| m - rank(m) >= TAIL_SAMPLES)
            .expect("some count leaves enough samples");
        return Err(format!(
            "p{q} needs at least {needed} samples ({TAIL_SAMPLES} beyond it), have {n}"
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank(n).max(1) - 1])
}

/// Campaign outcomes of one run: every campaign attempted counts, and a
/// campaign that errored or whose report bytes differ from the oracle
/// counts as failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FailCount {
    /// Campaigns attempted.
    pub attempted: u64,
    /// Campaigns that errored or disagreed with the oracle.
    pub failed: u64,
}

impl FailCount {
    /// Records one campaign outcome.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Share of attempted campaigns that succeeded (`1.0` when none were
    /// attempted, so the ratio is never undefined).
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// Whether `name` is a legal metric or workload name: it starts with a
/// letter or digit and holds at most 64 letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        let err = tail_percentile(&short, 90).unwrap_err();
        assert!(err.contains("100 samples"), "{err}");
        let enough: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        // Rank ceil(0.9 * 100) = 90 leaves exactly ten samples above it.
        assert_eq!(tail_percentile(&enough, 90), Ok(90.0));
        let more: Vec<f64> = (1..=250).map(f64::from).collect();
        assert_eq!(tail_percentile(&more, 90), Ok(225.0));
    }

    #[test]
    fn p50_is_available_from_twenty_samples() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&values, 50), Ok(10.0));
        assert!(tail_percentile(&values[..19], 50).is_err());
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut count = FailCount::default();
        assert_eq!(count.ok_ratio(), 1.0);
        for ok in [true, true, false, true] {
            count.record(ok);
        }
        assert_eq!(
            count,
            FailCount {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(count.ok_ratio(), 0.75);
    }

    #[test]
    fn metric_names_follow_the_result_format() {
        for good in ["latency_ms", "core.run_us.hw", "setup_s", "9lives", "a-b"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for good in ["ms", "1/s", "count", "%", "ratio"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "m s", "megabytes_per_sec"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }
}
