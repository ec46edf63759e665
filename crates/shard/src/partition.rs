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
}
