//! Property coverage for spec-range partitioning: for arbitrary grid
//! sizes and backend counts, the ranges must be disjoint, contiguous,
//! non-empty, and cover `0..n` exactly — and every ranged sub-spec must
//! hash differently from its siblings and from the parent spec (the
//! content-addressed job store must never conflate a shard with the
//! whole campaign or with another shard).

use std::collections::HashSet;

use chunkpoint_campaign::{CampaignSpec, SchemeSpec};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_shard::partition;
use chunkpoint_workloads::Benchmark;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Disjoint + contiguous + covering: walking the ranges in order
    /// must consume 0..n with no gap, overlap, or empty range.
    #[test]
    fn ranges_tile_the_grid_exactly(n in 0usize..500, shards in 1usize..16) {
        let ranges = partition(n, shards);
        prop_assert!(ranges.len() <= shards);
        prop_assert_eq!(ranges.len(), shards.min(n));
        let mut cursor = 0usize;
        for &(start, end) in &ranges {
            prop_assert_eq!(start, cursor, "gap or overlap at {}", start);
            prop_assert!(start < end, "empty range [{}, {})", start, end);
            cursor = end;
        }
        prop_assert_eq!(cursor, n, "ranges do not cover the grid");
        // Balance: sizes differ by at most one.
        if let (Some(max), Some(min)) = (
            ranges.iter().map(|&(s, e)| e - s).max(),
            ranges.iter().map(|&(s, e)| e - s).min(),
        ) {
            prop_assert!(max - min <= 1, "unbalanced split: {} vs {}", max, min);
        }
    }

    /// Ranged sub-spec hashes are pairwise distinct and distinct from
    /// the parent's — for any partitioning.
    #[test]
    fn ranged_spec_hashes_are_distinct(n in 1usize..200, shards in 1usize..12) {
        let mut config = SystemConfig::paper(0);
        config.scale = 0.25;
        let parent = CampaignSpec::new(config, n as u64)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default));
        let mut hashes = HashSet::new();
        hashes.insert(parent.spec_hash());
        for &(start, end) in &partition(n, shards) {
            let sub = parent.clone().scenario_range(start, end);
            prop_assert!(
                hashes.insert(sub.spec_hash()),
                "hash collision for range [{}, {})", start, end
            );
        }
    }
}
