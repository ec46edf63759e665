//! Integration tests for the extension schemes beyond the paper's four
//! configurations: the literal single-parity hybrid (a counter-example),
//! and SECDED + scrubbing (the obsolete SSU-era defence).

use chunkpoint::core::{
    golden, golden_task, run, run_task, MitigationScheme, SystemConfig, TaskSource,
};
use chunkpoint::sim::{MemoryBus, Region, TraceEvent};
use chunkpoint::workloads::{Benchmark, StreamingTask, TaskError, TaskProfile};

#[test]
fn single_parity_hybrid_eventually_corrupts_silently() {
    // The paper-literal detector misses even-width bursts: across a seed
    // sweep at an elevated rate, at least one completed frame must differ
    // from the reference — while the sound detector never does.
    let benchmark = Benchmark::AdpcmDecode;
    let mut literal_corrupted = false;
    for seed in 0..300u64 {
        let mut config = SystemConfig::paper(seed * 2654435761 + 1);
        config.faults.error_rate = 3e-5;
        let reference = golden(benchmark, &config);
        let literal = run(
            benchmark,
            MitigationScheme::HybridSingleParity {
                chunk_words: 8,
                l1_prime_t: 8,
            },
            &config,
        );
        if literal.completed && !literal.output_matches(&reference) {
            literal_corrupted = true;
        }
        let sound = run(
            benchmark,
            MitigationScheme::Hybrid {
                chunk_words: 8,
                l1_prime_t: 8,
            },
            &config,
        );
        if sound.completed {
            assert!(
                sound.output_matches(&reference),
                "seed {seed}: the interleaved detector must never corrupt"
            );
        }
    }
    assert!(
        literal_corrupted,
        "single parity never corrupted in 300 frames — burst model broken?"
    );
}

#[test]
fn scrubbing_completes_and_heals_at_nominal_rate() {
    let benchmark = Benchmark::G721Decode;
    let mut total_restarts = 0;
    let mut silent_mismatches = 0u32;
    for seed in 0..20u64 {
        let config = SystemConfig::paper(seed * 48271 + 5);
        let reference = golden(benchmark, &config);
        let report = run(
            benchmark,
            MitigationScheme::ScrubbedSecded {
                interval_cycles: 5_000,
            },
            &config,
        );
        assert!(report.completed, "seed {seed}: scrub run must finish");
        total_restarts += report.restarts;
        // May rarely be silently corrupted even with nothing *detected*:
        // SECDED miscorrects some ≥3-bit bursts to a wrong codeword
        // without raising any error. That is the scheme's documented
        // weakness; it must stay rare at the nominal rate.
        if report.errors_detected == 0 && !report.output_matches(&reference) {
            silent_mismatches += 1;
        }
    }
    assert!(
        silent_mismatches <= 2,
        "{silent_mismatches}/20 scrubbed runs silently corrupted — \
         far above the expected miscorrection rate"
    );
    // The sweep itself should be exercised (restarts over the sweep are
    // plausible but not guaranteed at 1e-6; just ensure no livelock).
    assert!(total_restarts < 20 * 50, "scrubbing livelocked");
}

#[test]
fn scrubbing_is_costlier_than_hybrid() {
    let benchmark = Benchmark::AdpcmDecode;
    let mut scrub_energy = 0.0;
    let mut hybrid_energy = 0.0;
    let seeds = 6u64;
    for seed in 0..seeds {
        let config = SystemConfig::paper(seed * 31 + 2);
        let denominator = run(benchmark, MitigationScheme::Default, &config);
        let scrub = run(
            benchmark,
            MitigationScheme::ScrubbedSecded {
                interval_cycles: 5_000,
            },
            &config,
        );
        let hybrid = run(
            benchmark,
            MitigationScheme::Hybrid {
                chunk_words: 8,
                l1_prime_t: 8,
            },
            &config,
        );
        scrub_energy += scrub.energy_ratio(&denominator) / seeds as f64;
        hybrid_energy += hybrid.energy_ratio(&denominator) / seeds as f64;
    }
    assert!(
        scrub_energy > hybrid_energy,
        "scrub {scrub_energy} should exceed hybrid {hybrid_energy}"
    );
}

#[test]
fn run_task_is_equivalent_to_run_for_builtins() {
    // `run()` is a thin wrapper over the `run_task` extension point; a
    // hand-built TaskSource over the same benchmark must reproduce it
    // exactly (same seeds, same executor paths).
    let mut config = SystemConfig::paper(0x7A5C);
    config.faults.error_rate = 1e-5;
    let scale = config.scale;
    let build = move |chunk: u32| -> Box<dyn StreamingTask> {
        Benchmark::AdpcmDecode.build_task_scaled(chunk, scale)
    };
    let source = TaskSource {
        name: Benchmark::AdpcmDecode.name().to_owned(),
        build: &build,
        default_chunk_words: 16,
    };
    for scheme in [
        MitigationScheme::Default,
        MitigationScheme::SwRestart,
        MitigationScheme::Hybrid {
            chunk_words: 8,
            l1_prime_t: 8,
        },
    ] {
        let via_enum = run(Benchmark::AdpcmDecode, scheme, &config);
        let via_source = run_task(&source, scheme, &config);
        assert_eq!(via_enum.output, via_source.output, "{scheme}");
        assert_eq!(via_enum.cycles(), via_source.cycles(), "{scheme}");
        assert_eq!(via_enum.task, via_source.task, "{scheme}");
    }
    let g1 = golden(Benchmark::AdpcmDecode, &config);
    let g2 = golden_task(&source, &config);
    assert_eq!(g1.output, g2.output);
}

/// A built-in task whose first `init` fails.
struct FailsFirstInit {
    inner: Box<dyn StreamingTask>,
    failed: bool,
}

impl StreamingTask for FailsFirstInit {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn total_blocks(&self) -> usize {
        self.inner.total_blocks()
    }

    fn profile(&self) -> TaskProfile {
        self.inner.profile()
    }

    fn state_region(&self) -> Region {
        self.inner.state_region()
    }

    fn output_region(&self) -> Region {
        self.inner.output_region()
    }

    fn init(&mut self, bus: &mut dyn MemoryBus) -> Result<(), TaskError> {
        if !self.failed {
            self.failed = true;
            return Err(TaskError::Config("first init fails".to_owned()));
        }
        self.inner.init(bus)
    }

    fn run_block(&mut self, block: usize, bus: &mut dyn MemoryBus) -> Result<u32, TaskError> {
        self.inner.run_block(block, bus)
    }
}

#[test]
fn a_failed_init_is_one_traced_restart_under_sw_and_scrubbing() {
    // The SW baseline and scrubbing share one restart rule: a failed
    // `init` counts a restart and records it in the trace.
    let mut config = SystemConfig::paper(0x1417);
    config.faults.error_rate = 0.0;
    let scale = config.scale;
    let build = move |chunk: u32| -> Box<dyn StreamingTask> {
        Box::new(FailsFirstInit {
            inner: Benchmark::AdpcmEncode.build_task_scaled(chunk, scale),
            failed: false,
        })
    };
    let source = TaskSource {
        name: "fails-first-init".to_owned(),
        build: &build,
        default_chunk_words: 16,
    };
    for scheme in [
        MitigationScheme::SwRestart,
        MitigationScheme::ScrubbedSecded {
            interval_cycles: 5_000,
        },
    ] {
        let report = run_task(&source, scheme, &config);
        assert!(report.completed, "{scheme}");
        assert_eq!(report.restarts, 1, "{scheme}");
        let traced = report
            .trace
            .events()
            .iter()
            .filter(|event| matches!(event, TraceEvent::TaskRestart { .. }))
            .count();
        assert_eq!(traced, 1, "{scheme}");
    }
}

#[test]
fn scheme_labels_cover_all_variants() {
    let schemes = [
        MitigationScheme::Default,
        MitigationScheme::hw_baseline(),
        MitigationScheme::SwRestart,
        MitigationScheme::Hybrid {
            chunk_words: 8,
            l1_prime_t: 8,
        },
        MitigationScheme::HybridSingleParity {
            chunk_words: 8,
            l1_prime_t: 8,
        },
        MitigationScheme::ScrubbedSecded {
            interval_cycles: 5_000,
        },
    ];
    let labels: Vec<String> = schemes.iter().map(MitigationScheme::label).collect();
    for (i, a) in labels.iter().enumerate() {
        for b in labels.iter().skip(i + 1) {
            assert_ne!(a, b);
        }
    }
}
