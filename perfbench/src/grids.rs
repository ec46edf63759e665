//! The three workloads: the campaign specs each one submits, generated
//! from the workload seed alone, and the digest of simulated statistics
//! that pins their results.

use chunkpoint_bench::fig5_scheme_axis;
use chunkpoint_campaign::seed::mix64;
use chunkpoint_campaign::{CampaignSpec, ScenarioResult, SchemeSpec};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_scenario::{ScenarioDef, TimelineEvent};
use chunkpoint_workloads::Benchmark;

/// A named, fixed workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 5's grid through `LocalExecutor`: optimizer resolution, the
    /// golden prefix and clean-path simulation.
    PaperGrid,
    /// Fixed schemes at high strike rates plus a timeline axis through
    /// `LocalExecutor`: faulty decodes, rollbacks and restarts.
    FaultStorm,
    /// Small campaigns through `ShardedExecutor` over two `serve`
    /// backends, every other one an incremental edit: HTTP, poll wait,
    /// journal and result cache.
    ShardedStream,
}

/// The `fault_storm` and `sharded_stream` Proposed scheme.
pub const PROPOSED: MitigationScheme = MitigationScheme::Hybrid {
    chunk_words: 16,
    l1_prime_t: 8,
};

/// Seed of the reference campaign every set-up runs and the committed
/// digest pins.
pub const DEFAULT_SEED: u64 = 1;

/// Campaign number of the reference campaign: far beyond any campaign a
/// timed loop reaches, so a loop never resubmits it to a warm cache.
pub const REFERENCE_CAMPAIGN: u64 = 1 << 40;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::FaultStorm,
        Workload::ShardedStream,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::FaultStorm => "fault_storm",
            Workload::ShardedStream => "sharded_stream",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether campaigns run through the sharded executor.
    pub fn sharded(self) -> bool {
        self == Workload::ShardedStream
    }

    /// Whether the scheme axis resolves through the optimizer.
    pub fn uses_optimizer(self) -> bool {
        self == Workload::PaperGrid
    }

    /// The benchmark axis.
    pub fn benchmarks(self, smoke: bool) -> Vec<Benchmark> {
        match (self, smoke) {
            (Workload::PaperGrid, false) => Benchmark::ALL.to_vec(),
            (Workload::PaperGrid, true) => vec![Benchmark::AdpcmEncode, Benchmark::G721Decode],
            // No G.721 at high strike rates: a silently corrupted G.726
            // predictor word panics the codec's update step (its clamp
            // bounds cross), which would fail the campaign.
            (Workload::FaultStorm, false) => vec![
                Benchmark::AdpcmEncode,
                Benchmark::AdpcmDecode,
                Benchmark::G722Encode,
                Benchmark::G722Decode,
            ],
            (Workload::FaultStorm, true) => vec![Benchmark::AdpcmDecode],
            (Workload::ShardedStream, _) => vec![Benchmark::AdpcmEncode, Benchmark::AdpcmDecode],
        }
    }

    /// Campaign `k` of the closed loop seeded with `seed`.
    ///
    /// `sharded_stream` pairs its campaigns: an even `k` is a fresh
    /// campaign, and `k + 1` edits one error-rate value of it (see
    /// [`Workload::baseline`]).
    pub fn spec(self, seed: u64, k: u64, smoke: bool) -> CampaignSpec {
        let salt = match self {
            Workload::PaperGrid => 0x5041_5045,
            Workload::FaultStorm => 0x5354_4F52,
            Workload::ShardedStream => 0x5348_4152,
        };
        let pair = if self.sharded() { k & !1 } else { k };
        let campaign_seed = mix64(seed ^ salt ^ mix64(pair.wrapping_add(1)));
        self.spec_for(campaign_seed, self.sharded() && k % 2 == 1, smoke)
    }

    /// The spec of campaign `k` that campaign `k` is an edit of, if any.
    pub fn baseline(self, seed: u64, k: u64, smoke: bool) -> Option<CampaignSpec> {
        (self.sharded() && k % 2 == 1).then(|| self.spec(seed, k - 1, smoke))
    }

    /// The workload's grid under `campaign_seed`; `edited` selects the
    /// edited rate axis of `sharded_stream`.
    pub fn spec_for(self, campaign_seed: u64, edited: bool, smoke: bool) -> CampaignSpec {
        let benchmarks = self.benchmarks(smoke);
        match self {
            Workload::PaperGrid => {
                let mut config = SystemConfig::paper(0);
                if smoke {
                    config.scale = 0.25;
                }
                let mut spec = CampaignSpec::new(config, campaign_seed)
                    .benchmarks(&benchmarks)
                    .replicates(if smoke { 1 } else { 2 });
                for (label, scheme) in fig5_scheme_axis() {
                    spec = spec.scheme(label, scheme);
                }
                spec
            }
            Workload::FaultStorm => {
                let mut config = SystemConfig::paper(0);
                if smoke {
                    config.scale = 0.25;
                }
                let mut burst = ScenarioDef::named("burst");
                burst.timeline = vec![TimelineEvent::FaultBurst {
                    cycle: 2_000,
                    words: 32,
                    rate: 0.5,
                }];
                let mut scrub = ScenarioDef::named("scrub");
                scrub.timeline = vec![TimelineEvent::Scrub { period: 20_000 }];
                fixed_schemes(
                    CampaignSpec::new(config, campaign_seed),
                    &[
                        ("Default", MitigationScheme::Default),
                        ("SW-based", MitigationScheme::SwRestart),
                        ("HW-based", MitigationScheme::hw_baseline()),
                        ("Proposed", PROPOSED),
                    ],
                )
                .benchmarks(&benchmarks)
                .error_rates(&[1e-5, 1e-4])
                .timeline_scenarios(&[burst, scrub])
            }
            Workload::ShardedStream => {
                let mut config = SystemConfig::paper(0);
                config.scale = 0.25;
                let rates = if edited { [1e-6, 2e-5] } else { [1e-6, 1e-5] };
                fixed_schemes(
                    CampaignSpec::new(config, campaign_seed),
                    &[
                        ("SW-based", MitigationScheme::SwRestart),
                        ("Proposed", PROPOSED),
                    ],
                )
                .benchmarks(&benchmarks)
                .error_rates(&rates)
                .replicates(if smoke { 2 } else { 4 })
            }
        }
    }
}

fn fixed_schemes(mut spec: CampaignSpec, schemes: &[(&str, MitigationScheme)]) -> CampaignSpec {
    for &(label, scheme) in schemes {
        spec = spec.scheme(label, SchemeSpec::Fixed(scheme));
    }
    spec
}

/// FNV-1a digest of the simulated statistics of `rows`: index, cycles,
/// energy bits, errors detected, rollbacks, restarts, checkpoints,
/// completion and the golden verdict. Host speed cannot move it; a
/// change to simulated results always does.
pub fn stats_digest(rows: &[ScenarioResult]) -> u64 {
    let mut bytes = Vec::with_capacity(rows.len() * 72);
    for row in rows {
        for value in [
            row.scenario.index as u64,
            row.cycles,
            row.energy_pj.to_bits(),
            row.errors_detected,
            row.rollbacks,
            row.restarts,
            row.checkpoints,
            u64::from(row.completed),
            row.correct.map_or(2, u64::from),
        ] {
            bytes.extend_from_slice(&value.to_le_bytes());
        }
    }
    fnv64(&bytes)
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The committed digest of `workload`'s reference campaign, read from
/// the `digests` file (`<workload> <16 hex digits>` per line).
pub fn committed_digest(digests: &str, workload: Workload) -> Option<u64> {
    digests.lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == workload.name())
            .then(|| u64::from_str_radix(hex.trim(), 16).ok())
            .flatten()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_a_function_of_the_seed() {
        for workload in Workload::ALL {
            let a = workload.spec(7, 3, false);
            let b = workload.spec(7, 3, false);
            assert_eq!(a.spec_hash(), b.spec_hash(), "{}", workload.name());
            assert_ne!(
                a.spec_hash(),
                workload.spec(8, 3, false).spec_hash(),
                "{}",
                workload.name()
            );
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
    }

    #[test]
    fn sharded_edits_share_the_baseline_seed_and_shape() {
        let w = Workload::ShardedStream;
        assert!(w.baseline(5, 0, false).is_none());
        let base = w.baseline(5, 1, false).expect("odd campaigns edit");
        let edit = w.spec(5, 1, false);
        assert_eq!(base.spec_hash(), w.spec(5, 0, false).spec_hash());
        assert_eq!(base.campaign_seed, edit.campaign_seed);
        assert_eq!(base.scenarios().len(), 32);
        let diff = chunkpoint_campaign::diff_specs(&base, &edit);
        assert_eq!(diff.reused(), 16);
        assert_eq!(diff.changed, 16);
    }

    #[test]
    fn grid_sizes_match_the_workload_definitions() {
        let fixed = |w: Workload| w.spec(1, 0, false).scenarios().len();
        assert_eq!(fixed(Workload::FaultStorm), 4 * 4 * 2 * 2);
        assert_eq!(fixed(Workload::ShardedStream), 2 * 2 * 2 * 4);
        // The optimizer-backed paper grid: 7 benchmarks x 5 schemes x 2.
        assert_eq!(fixed(Workload::PaperGrid), 7 * 5 * 2);
    }

    #[test]
    fn digests_parse_per_workload() {
        let text = "paper_grid 00000000000000ff\nfault_storm 0123456789abcdef\n";
        assert_eq!(committed_digest(text, Workload::PaperGrid), Some(0xff));
        assert_eq!(
            committed_digest(text, Workload::FaultStorm),
            Some(0x0123_4567_89ab_cdef)
        );
        assert_eq!(committed_digest(text, Workload::ShardedStream), None);
    }
}
