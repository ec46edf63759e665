//! Incremental-campaign walkthrough: run a λ-sweep grid once with the
//! coordinator's **range-granular result cache** enabled, edit one
//! axis value, and re-run — the spec diff maps every unchanged
//! `(seed, parameters)` cell onto the new grid, their sealed journal
//! rows are spliced from disk, and only the changed cells execute.
//! The final report is byte-identical to a clean full run of the
//! edited spec.
//!
//! ```text
//! cargo run --release --example incremental_campaign
//! ```
//!
//! Two campaign services start in-process on ephemeral ports; the
//! cache lives in their temp directory, printed at startup (the same
//! layout `shard --cache-dir` uses).

use chunkpoint::campaign::{
    canonical_report_json, diff_specs, run_campaign, translate_rows, CampaignSpec, SchemeSpec,
};
use chunkpoint::core::{MitigationScheme, SystemConfig};
use chunkpoint::shard::{run_sharded, RangeCache, ShardConfig};
use chunkpoint::workloads::Benchmark;
use chunkpoint_bench::harness::Backends;
use chunkpoint_serve::REPORT_AXES;

fn sweep_spec(rates: &[f64]) -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25; // short frames keep the example snappy
    CampaignSpec::new(config, 0x17C4)
        .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
        .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
        .scheme(
            "Proposed",
            SchemeSpec::Fixed(MitigationScheme::Hybrid {
                chunk_words: 16,
                l1_prime_t: 8,
            }),
        )
        .error_rates(rates)
        .replicates(4)
}

fn main() {
    // Two in-process services, exactly like the shard_campaign example;
    // dropping them also removes the cache.
    let local = Backends::start(2, 1, 1);
    let backends = &local.addrs;
    for addr in backends {
        println!("started in-process service on {addr}");
    }
    let cache_root = local.scratch("cache");
    println!("result cache at {}", cache_root.display());
    let config = ShardConfig {
        cache_dir: Some(cache_root.clone()),
        ..ShardConfig::default()
    };

    // Pass 1: the original sweep. Every shard that completes seals its
    // rows into the cache under the campaign's content hash.
    let old_spec = sweep_spec(&[1e-7, 1e-6, 1e-5]);
    println!(
        "\npass 1: {} scenarios, cold cache…",
        old_spec.scenarios().len()
    );
    let first = run_sharded(&old_spec, backends, &config).expect("first run");
    println!(
        "  {} dispatches, {} rows spliced (cold)",
        first.dispatches, first.spliced
    );

    // The edit: one sweep point moves (1e-5 → 2e-5). Two thirds of the
    // grid — every cell whose (seed, parameters) survived — is
    // unchanged.
    let new_spec = sweep_spec(&[1e-7, 1e-6, 2e-5]);
    let diff = diff_specs(&old_spec, &new_spec);
    println!(
        "\nedit: 1e-5 → 2e-5; spec diff: {} of {} cells reusable, {} changed",
        diff.reused(),
        diff.new_total,
        diff.changed
    );

    // Seed the edited campaign's cache from the old one — exactly what
    // `shard --baseline old_spec.json --cache-dir …` does.
    let cache = RangeCache::new(&cache_root);
    let old_rows: Vec<_> = cache
        .load(&old_spec, &old_spec.scenarios())
        .into_values()
        .collect();
    let translated = translate_rows(&old_spec, &new_spec, &old_rows);
    cache
        .store_scattered(&new_spec, &translated)
        .expect("seed the edited campaign's cache");

    // Pass 2: only the changed cells execute; the rest splice.
    println!("\npass 2: incremental re-run…");
    let second = run_sharded(&new_spec, backends, &config).expect("incremental run");
    println!(
        "  {} dispatches, {} rows spliced from cache",
        second.dispatches, second.spliced
    );

    // Byte identity against a clean in-process run of the edited spec.
    let reference = run_campaign(&new_spec, 1);
    let expected =
        canonical_report_json(new_spec.campaign_seed, &reference.results, &REPORT_AXES).render();
    assert_eq!(second.report, expected, "incremental bytes diverged");
    println!("\nincremental report is byte-identical to a clean full run ✓");
}
