//! Contiguous partitioning of the scenario index space.
//!
//! A campaign grid of `n` scenarios splits across `k` backends as at
//! most `k` contiguous, non-empty, disjoint half-open ranges covering
//! `0..n` exactly. Sizes differ by at most one (the first `n mod k`
//! ranges take the extra scenario), so load is as even as contiguity
//! allows — and contiguity is what keeps every shard's sub-spec a
//! one-field edit of the parent spec.

/// Splits `0..n` into at most `shards` contiguous, non-empty, disjoint
/// ranges that cover `0..n` exactly, in ascending order. Fewer than
/// `shards` ranges come back when `n < shards` (empty ranges are never
/// emitted); an empty grid partitions into no ranges.
///
/// # Panics
///
/// Panics if `shards` is zero.
#[must_use]
pub fn partition(n: usize, shards: usize) -> Vec<(usize, usize)> {
    assert!(shards > 0, "cannot partition across zero shards");
    if n == 0 {
        return Vec::new();
    }
    let shards = shards.min(n);
    let base = n / shards;
    let extra = n % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for k in 0..shards {
        let len = base + usize::from(k < extra);
        ranges.push((start, start + len));
        start += len;
    }
    debug_assert_eq!(start, n);
    ranges
}

/// Checks a weight vector for [`partition_weighted`]: non-empty, every
/// weight finite and non-negative, and a positive, finite sum.
///
/// The one definition of "valid weights" — [`partition_weighted`]
/// panics with the returned message, while the shard coordinator maps
/// it to a typed `Invalid` error before ever reaching the panic.
///
/// # Errors
///
/// A human-readable description of the first violated condition.
pub fn validate_weights(weights: &[f64]) -> Result<(), String> {
    if weights.is_empty() {
        return Err("cannot partition across zero shards".to_owned());
    }
    if !weights.iter().all(|w| w.is_finite() && *w >= 0.0) {
        return Err(format!(
            "weights must be finite and non-negative: {weights:?}"
        ));
    }
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return Err("weights must not all be zero".to_owned());
    }
    if !total.is_finite() {
        return Err(format!("weights sum overflows: {weights:?}"));
    }
    Ok(())
}

/// Splits `0..n` into exactly `weights.len()` contiguous, disjoint
/// half-open ranges covering `0..n`, sized proportionally to the
/// weights by largest-remainder apportionment (ties go to the lower
/// index). Range `k` is sized for backend `k`, so — unlike
/// [`partition`] — **empty ranges are kept in place** to preserve the
/// range↔backend alignment; callers skip them at dispatch time.
///
/// Uniform weights reproduce [`partition`] exactly: for `n >=
/// weights.len()` the outputs are equal element for element, and for
/// smaller grids dropping the empty ranges yields `partition(n, k)`
/// (the property `tests/partition_prop.rs` pins down). Weighting is
/// monotone: a strictly larger weight never receives a smaller range.
///
/// # Panics
///
/// Panics if [`validate_weights`] refuses the weights (empty, a
/// negative or non-finite weight, or a non-positive or overflowing
/// sum).
#[must_use]
pub fn partition_weighted(n: usize, weights: &[f64]) -> Vec<(usize, usize)> {
    if let Err(why) = validate_weights(weights) {
        panic!("{why}");
    }
    let total: f64 = weights.iter().sum();
    // Largest remainder: every range gets the floor of its proportional
    // quota, then the `n - sum(floors)` leftover scenarios go to the
    // largest fractional remainders, lowest index first on ties — which
    // is exactly how `partition` front-loads its `n mod k` extras, so
    // uniform weights degenerate to it. Dividing before multiplying
    // keeps the share in [0, 1], so even `f64::MAX` weights cannot
    // overflow a quota.
    let quotas: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut sizes: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let assigned: usize = sizes.iter().sum();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let frac = |k: usize| quotas[k] - quotas[k].floor();
        frac(b)
            .partial_cmp(&frac(a))
            .expect("finite quotas")
            .then(a.cmp(&b))
    });
    for &k in order.iter().take(n.saturating_sub(assigned)) {
        sizes[k] += 1;
    }
    let mut ranges = Vec::with_capacity(weights.len());
    let mut start = 0;
    for len in sizes {
        ranges.push((start, start + len));
        start += len;
    }
    debug_assert_eq!(start, n);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_and_uneven_splits() {
        assert_eq!(partition(6, 3), vec![(0, 2), (2, 4), (4, 6)]);
        assert_eq!(partition(7, 3), vec![(0, 3), (3, 5), (5, 7)]);
        assert_eq!(partition(8, 3), vec![(0, 3), (3, 6), (6, 8)]);
    }

    #[test]
    fn more_shards_than_scenarios_drops_empties() {
        assert_eq!(partition(2, 5), vec![(0, 1), (1, 2)]);
        assert_eq!(partition(1, 3), vec![(0, 1)]);
    }

    #[test]
    fn degenerate_grids() {
        assert!(partition(0, 4).is_empty());
        assert_eq!(partition(5, 1), vec![(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "zero shards")]
    fn zero_shards_panics() {
        let _ = partition(3, 0);
    }

    #[test]
    fn uniform_weights_reproduce_partition() {
        for n in [0usize, 1, 2, 5, 7, 8, 100] {
            for k in [1usize, 2, 3, 5] {
                if n >= k {
                    assert_eq!(
                        partition_weighted(n, &vec![1.0; k]),
                        partition(n, k),
                        "n={n} k={k}"
                    );
                } else {
                    let nonempty: Vec<(usize, usize)> = partition_weighted(n, &vec![1.0; k])
                        .into_iter()
                        .filter(|&(s, e)| s < e)
                        .collect();
                    assert_eq!(nonempty, partition(n, k), "n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn weighted_splits_are_proportional() {
        // A 3:1 split of 8 scenarios: 6 and 2.
        assert_eq!(partition_weighted(8, &[3.0, 1.0]), vec![(0, 6), (6, 8)]);
        // Scale invariance: only ratios matter.
        assert_eq!(
            partition_weighted(8, &[0.75, 0.25]),
            partition_weighted(8, &[3.0, 1.0])
        );
        // A zero-weight backend gets an empty range, kept in place.
        assert_eq!(
            partition_weighted(4, &[1.0, 0.0, 1.0]),
            vec![(0, 2), (2, 2), (2, 4)]
        );
    }

    #[test]
    fn weighted_ranges_stay_aligned_with_backends() {
        // Extreme skew: the tiny-weight backend keeps its slot even when
        // its range is empty.
        let ranges = partition_weighted(3, &[1000.0, 0.001, 1000.0]);
        assert_eq!(ranges.len(), 3);
        assert_eq!(ranges[1].0, ranges[1].1, "tiny weight rounds to empty");
        assert_eq!(ranges[0].1 - ranges[0].0 + (ranges[2].1 - ranges[2].0), 3);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn all_zero_weights_panic() {
        let _ = partition_weighted(3, &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weights_panic() {
        let _ = partition_weighted(3, &[1.0, -1.0]);
    }
}
