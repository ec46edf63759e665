//! Executes a benchmark under a mitigation scheme and reports energy,
//! timing and correctness — the reproduction's equivalent of one MPARM
//! simulation run.
//!
//! The hybrid executor implements the paper's full protocol:
//!
//! * after every computation phase the produced chunk and serialized state
//!   are read back through the parity-checked bus (the "L cycles" check of
//!   Fig. 1) and, if clean, committed to the BCH-protected L1′;
//! * any detected-uncorrectable read — during execution or during the
//!   commit read-back — raises the Read Error Interrupt (Fig. 2a), whose
//!   service routine restores the status registers/state from L1′
//!   (Fig. 2b) and re-executes only the faulty phase;
//! * an uncorrectable strike *inside* L1′ (astronomically unlikely at
//!   t ≥ 6) falls back to a whole-task restart, counted separately.

use chunkpoint_sim::{
    Component, EnergyLedger, FaultProcess, MemoryBus, PlainBus, Sram, Trace, TraceEvent, UpsetModel,
};
use chunkpoint_workloads::{Benchmark, StreamingTask, TaskError};

use crate::config::SystemConfig;
use crate::l1prime::ProtectedBuffer;
use crate::mitigation::MitigationScheme;

/// Retry budget per phase before the run is declared unrecoverable.
const MAX_ATTEMPTS_PER_BLOCK: u32 = 64;
/// Whole-task restart budget (SW baseline and hybrid fallback).
const MAX_RESTARTS: u32 = 256;

/// A factory handing the runner fresh task instances.
///
/// The runner may build the task several times (the SW baseline restarts
/// from scratch; the hybrid builds one task per chunk configuration), so
/// it needs a *source* rather than a task. [`run`] wraps the built-in
/// [`Benchmark`]s; [`run_task`] accepts any user-defined
/// [`StreamingTask`] implementation — the extension point a downstream
/// system would use for its own kernels (see `examples/custom_task.rs`).
pub struct TaskSource<'a> {
    /// Display name for reports.
    pub name: String,
    /// Builds a fresh task processing `chunk_words`-word chunks per phase.
    pub build: &'a dyn Fn(u32) -> Box<dyn StreamingTask>,
    /// Chunk granularity used by executors that do not checkpoint
    /// (Default / HW / SW / scrubbing).
    pub default_chunk_words: u32,
}

impl std::fmt::Debug for TaskSource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskSource")
            .field("name", &self.name)
            .field("default_chunk_words", &self.default_chunk_words)
            .finish_non_exhaustive()
    }
}

/// Outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Name of the task that was executed.
    pub task: String,
    /// Scheme in force.
    pub scheme: MitigationScheme,
    /// Energy and cycle ledger (leakage included).
    pub ledger: EnergyLedger,
    /// Drained output words, in production order.
    pub output: Vec<u32>,
    /// Detected-uncorrectable reads observed.
    pub errors_detected: u64,
    /// Checkpoint rollbacks performed (hybrid only).
    pub rollbacks: u64,
    /// Whole-task restarts performed (SW baseline / hybrid fallback).
    pub restarts: u64,
    /// Checkpoints committed (hybrid only).
    pub checkpoints: u64,
    /// Whether the task ran to completion (recovery budgets not exhausted).
    pub completed: bool,
    /// Execution event trace (Fig. 1-style timeline).
    pub trace: Trace,
}

impl RunReport {
    /// Total energy, pJ.
    #[must_use]
    pub fn energy_pj(&self) -> f64 {
        self.ledger.total_pj()
    }

    /// Total execution cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.ledger.cycles()
    }

    /// Whether this run's output is bit-identical to a reference run's.
    #[must_use]
    pub fn output_matches(&self, golden: &RunReport) -> bool {
        self.output == golden.output
    }

    /// Energy normalised to a reference run (the y-axis of Fig. 5).
    #[must_use]
    pub fn energy_ratio(&self, reference: &RunReport) -> f64 {
        self.energy_pj() / reference.energy_pj()
    }

    /// Cycle count normalised to a reference run.
    #[must_use]
    pub fn cycle_ratio(&self, reference: &RunReport) -> f64 {
        self.cycles() as f64 / reference.cycles() as f64
    }
}

fn build_l1_bus(scheme: MitigationScheme, config: &SystemConfig, seed_salt: u64) -> PlainBus {
    // A timeline keeps the process live even at base rate 0 (a burst or
    // a rate shift can still strike). The L1′ protected buffer keeps its
    // plain static process: the paper's scenarios stress the main array.
    let has_timeline = config.timeline.as_ref().is_some_and(|t| !t.is_empty());
    let mut faults = if config.faults.error_rate > 0.0 || has_timeline {
        FaultProcess::new(
            config.faults.error_rate,
            UpsetModel::smu_65nm(),
            config.faults.seed ^ seed_salt,
        )
    } else {
        FaultProcess::disabled()
    };
    if has_timeline {
        faults = faults.with_timeline(config.timeline.clone().expect("checked above"));
    }
    let sram = Sram::new("l1", config.platform.l1_words, scheme.l1_kind(), faults)
        .expect("all scheme kinds are buildable");
    PlainBus::new(sram, config.platform.clone(), Component::L1)
}

fn charge_leakage(bus: &mut PlainBus, extra_leakage_uw: f64) {
    let cycles = bus.now();
    let leak = bus.sram().model().leakage_uw() + extra_leakage_uw;
    let clock = bus.platform().clock_hz;
    bus.ledger_mut().add_leakage(leak, cycles, clock);
}

/// Drains the accumulated frame output (the end-of-task DMA-out of the
/// Default/SW/HW systems) through checked loads.
fn drain_frame(
    task: &dyn StreamingTask,
    bus: &mut PlainBus,
    produced_per_block: &[u32],
    sink: &mut Vec<u32>,
) -> Result<(), chunkpoint_sim::ReadFault> {
    let region = task.output_region();
    for (block, &produced) in produced_per_block.iter().enumerate() {
        if produced == 0 {
            continue;
        }
        let offset = task.output_offset(block);
        assert!(
            offset + produced <= region.words,
            "block {block} output [{offset}, {}) exceeds region of {} words",
            offset + produced,
            region.words
        );
        bus.load_block(region.word(offset), produced, sink)?;
    }
    Ok(())
}

/// Runs `benchmark` under `scheme` in the given configuration.
///
/// # Panics
///
/// Panics only on internal invariant violations (mis-built schemes).
#[must_use]
pub fn run(benchmark: Benchmark, scheme: MitigationScheme, config: &SystemConfig) -> RunReport {
    let scale = config.scale;
    let build = move |chunk_words: u32| benchmark.build_task_scaled(chunk_words, scale);
    let source = TaskSource {
        name: benchmark.name().to_owned(),
        build: &build,
        default_chunk_words: 16,
    };
    run_task(&source, scheme, config)
}

/// Runs an arbitrary user-defined task under `scheme` — the library's
/// extension point for kernels beyond the paper's benchmark set.
#[must_use]
pub fn run_task(
    source: &TaskSource<'_>,
    scheme: MitigationScheme,
    config: &SystemConfig,
) -> RunReport {
    let mut report = match scheme {
        MitigationScheme::Default | MitigationScheme::HwEcc { .. } => {
            run_straight(source, scheme, config)
        }
        MitigationScheme::SwRestart | MitigationScheme::ScrubbedSecded { .. } => {
            run_restarting(source, scheme, config)
        }
        MitigationScheme::Hybrid {
            chunk_words,
            l1_prime_t,
        }
        | MitigationScheme::HybridSingleParity {
            chunk_words,
            l1_prime_t,
        } => run_hybrid(source, scheme, chunk_words, l1_prime_t, config),
    };
    // Single per-run clone; the executors themselves never touch the name.
    report.task = source.name.clone();
    report
}

/// The fault-free *Default* reference run (denominator of Fig. 5 and the
/// correctness oracle for "full error mitigation"), computed afresh on
/// every call. The campaign engine keeps one per (benchmark, base config)
/// per process.
#[must_use]
pub fn golden(benchmark: Benchmark, config: &SystemConfig) -> RunReport {
    run(benchmark, MitigationScheme::Default, &config.fault_free())
}

/// Fault-free reference for a user-defined task.
#[must_use]
pub fn golden_task(source: &TaskSource<'_>, config: &SystemConfig) -> RunReport {
    run_task(source, MitigationScheme::Default, &config.fault_free())
}

/// Default / HW executors: run every phase once; HW corrects inline, the
/// Default case silently corrupts.
fn run_straight(
    source: &TaskSource<'_>,
    scheme: MitigationScheme,
    config: &SystemConfig,
) -> RunReport {
    let mut task = (source.build)(source.default_chunk_words);
    let mut bus = build_l1_bus(scheme, config, 0x5157_0001);
    let mut trace = Trace::new(4096);
    let mut output = Vec::new();
    let mut errors = 0u64;
    let mut completed = true;
    let mut produced_per_block = vec![0u32; task.total_blocks()];
    if task.init(&mut bus).is_err() {
        completed = false;
    } else {
        #[allow(clippy::needless_range_loop)] // index is also the phase id
        for block in 0..task.total_blocks() {
            trace.push(TraceEvent::PhaseStart {
                phase: block,
                cycle: bus.now(),
            });
            match task.run_block(block, &mut bus) {
                Ok(produced) => {
                    produced_per_block[block] = produced;
                    trace.push(TraceEvent::PhaseEnd {
                        phase: block,
                        cycle: bus.now(),
                    });
                }
                Err(TaskError::Read(fault)) => {
                    trace.push(TraceEvent::ReadError {
                        addr: fault.addr,
                        cycle: fault.cycle,
                    });
                    errors += 1;
                    completed = false;
                    break;
                }
                Err(TaskError::Malformed(_)) => {
                    // Silent corruption broke the stream structure (JPEG in
                    // the Default case). The real decoder would emit
                    // garbage; we keep charging the remaining phases.
                    continue;
                }
                Err(TaskError::Config(_)) => {
                    completed = false;
                    break;
                }
            }
        }
        // Frame complete: DMA the accumulated output out of L1.
        if completed
            && drain_frame(task.as_ref(), &mut bus, &produced_per_block, &mut output).is_err()
        {
            // HW baseline: beyond-t strike even the full-array ECC cannot
            // fix (never observed at realistic rates).
            errors += 1;
            completed = false;
        }
    }
    charge_leakage(&mut bus, 0.0);
    let (ledger, _) = bus.into_parts();
    RunReport {
        task: String::new(), // filled in once by run_task
        scheme,
        ledger,
        output,
        errors_detected: errors,
        rollbacks: 0,
        restarts: 0,
        checkpoints: 0,
        completed,
        trace,
    }
}

/// SW baseline and SECDED + scrubbing: run every phase, and restart the
/// whole task on any detected error. Under scrubbing, every
/// `interval_cycles` a sweep between blocks corrects the task's live
/// regions; a multi-bit strike it meets restarts the task too.
fn run_restarting(
    source: &TaskSource<'_>,
    scheme: MitigationScheme,
    config: &SystemConfig,
) -> RunReport {
    let (seed_salt, scrub_interval) = match scheme {
        MitigationScheme::ScrubbedSecded { interval_cycles } => {
            (0x5157_0005, Some(u64::from(interval_cycles)))
        }
        _ => (0x5157_0002, None),
    };
    let mut task = (source.build)(source.default_chunk_words);
    let mut bus = build_l1_bus(scheme, config, seed_salt);
    let mut trace = Trace::new(4096);
    let mut output = Vec::new();
    let mut errors = 0u64;
    let mut restarts = 0u64;
    let mut completed = false;
    while restarts <= u64::from(MAX_RESTARTS) {
        match run_attempt(task.as_mut(), &mut bus, scrub_interval, &mut output) {
            Ok(()) => {
                completed = true;
                break;
            }
            Err(Stop::Restart) => {
                errors += 1;
                restarts += 1;
                trace.push(TraceEvent::TaskRestart { cycle: bus.now() });
            }
            Err(Stop::Abort) => break,
        }
    }
    charge_leakage(&mut bus, 0.0);
    let (ledger, _) = bus.into_parts();
    RunReport {
        task: String::new(), // filled in once by run_task
        scheme,
        ledger,
        output,
        errors_detected: errors,
        rollbacks: 0,
        restarts,
        checkpoints: 0,
        completed,
        trace,
    }
}

/// Why an attempt of a restarting run ended before its frame drained.
enum Stop {
    /// A detected error: restart the task from scratch.
    Restart,
    /// The task is misconfigured: give up.
    Abort,
}

/// One attempt of a restarting run: init, every phase (each followed by
/// a scrub sweep once `scrub_interval` cycles have passed, if set), then
/// the end-of-frame DMA-out into `output`.
fn run_attempt(
    task: &mut dyn StreamingTask,
    bus: &mut PlainBus,
    scrub_interval: Option<u64>,
    output: &mut Vec<u32>,
) -> Result<(), Stop> {
    output.clear();
    let mut next_scrub = bus.now() + scrub_interval.unwrap_or(0);
    task.init(bus).map_err(|_| Stop::Restart)?;
    let mut produced_per_block = vec![0u32; task.total_blocks()];
    for (block, produced) in produced_per_block.iter_mut().enumerate() {
        *produced = task.run_block(block, bus).map_err(|e| match e {
            TaskError::Read(_) | TaskError::Malformed(_) => Stop::Restart,
            TaskError::Config(_) => Stop::Abort,
        })?;
        if let Some(interval) = scrub_interval {
            if bus.now() >= next_scrub {
                next_scrub = bus.now() + interval;
                scrub(task, bus).map_err(|_| Stop::Restart)?;
            }
        }
    }
    drain_frame(task, bus, &produced_per_block, output).map_err(|_| Stop::Restart)
}

/// A scrub sweep: reads and rewrites the task's live regions (correcting
/// accumulated single-bit upsets), and charges the energy of sweeping the
/// whole array. A detected-uncorrectable word — a multi-bit strike,
/// beyond SECDED — is invalidated (a real system would mark/refill it) so
/// the restart does not re-trip on it before the task rewrites it.
fn scrub(task: &dyn StreamingTask, bus: &mut PlainBus) -> Result<(), chunkpoint_sim::ReadFault> {
    let regions = [task.state_region(), task.output_region()];
    for region in regions {
        for addr in region.iter() {
            match bus.load(addr) {
                Ok(value) => bus.store(addr, value),
                Err(fault) => {
                    bus.store(addr, 0);
                    return Err(fault);
                }
            }
        }
    }
    // Charge the sweep of the rest of the array (the scrubber does not
    // know the live set); time overlaps execution via cycle stealing,
    // energy does not.
    let swept: u64 = regions.iter().map(|r| u64::from(r.words)).sum();
    let rest = (bus.sram().len() as u64).saturating_sub(swept) as f64;
    let model = bus.sram().model();
    let pj = rest * (model.read_energy_pj() + model.write_energy_pj());
    bus.ledger_mut().add(Component::L1, pj);
    Ok(())
}

/// The proposed hybrid executor (shared by the sound interleaved-parity
/// configuration and the literal single-parity counter-example).
fn run_hybrid(
    source: &TaskSource<'_>,
    scheme: MitigationScheme,
    chunk_words: u32,
    l1_prime_t: u8,
    config: &SystemConfig,
) -> RunReport {
    let mut task = (source.build)(chunk_words);
    let mut bus = build_l1_bus(scheme, config, 0x5157_0003);
    let state_words = task.state_region().words;
    let buffer_words = state_words + task.profile().block_words;
    let mut l1_prime = ProtectedBuffer::new(
        buffer_words,
        l1_prime_t,
        config.faults.error_rate,
        config.faults.seed ^ 0x5157_0004,
    );
    let mut trace = Trace::new(8192);
    let mut output = Vec::new();
    let mut errors = 0u64;
    let mut rollbacks = 0u64;
    let mut restarts = 0u64;
    let mut checkpoints = 0u64;
    let mut completed = false;

    'restart: while restarts <= u64::from(MAX_RESTARTS) {
        output.clear();
        if task.init(&mut bus).is_err() {
            restarts += 1;
            continue;
        }
        // CH(0): commit the initial state so phase 0 is recoverable.
        if commit_checkpoint(task.as_mut(), &mut bus, &mut l1_prime, 0, None, &mut trace).is_err() {
            restarts += 1;
            continue;
        }
        checkpoints += 1;

        let total = task.total_blocks();
        let mut block = 0usize;
        while block < total {
            let mut attempts = 0u32;
            loop {
                if attempts >= MAX_ATTEMPTS_PER_BLOCK {
                    break 'restart; // unrecoverable: retry budget exhausted
                }
                attempts += 1;
                trace.push(TraceEvent::PhaseStart {
                    phase: block,
                    cycle: bus.now(),
                });
                let fault = match task.run_block(block, &mut bus) {
                    // Commit CH(block+1): verify chunk + state through the
                    // parity-checked bus, then buffer into L1′.
                    Ok(produced) => match commit_checkpoint(
                        task.as_mut(),
                        &mut bus,
                        &mut l1_prime,
                        block + 1,
                        Some((block, produced)),
                        &mut trace,
                    ) {
                        Ok(chunk) => {
                            checkpoints += 1;
                            output.extend_from_slice(&chunk[state_words as usize..]);
                            trace.push(TraceEvent::PhaseEnd {
                                phase: block,
                                cycle: bus.now(),
                            });
                            break;
                        }
                        Err(fault) => Some(fault),
                    },
                    Err(TaskError::Read(fault)) => Some(fault),
                    // Parity missed a corruption (even-weight flip) and the
                    // stream structure broke: roll back and re-execute; the
                    // input window is re-DMAed clean.
                    Err(TaskError::Malformed(_)) => None,
                    Err(TaskError::Config(_)) => break 'restart,
                };
                if let Some(fault) = fault {
                    trace.push(TraceEvent::ReadError {
                        addr: fault.addr,
                        cycle: fault.cycle,
                    });
                }
                errors += 1;
                if service_read_error(
                    task.as_mut(),
                    &mut bus,
                    &mut l1_prime,
                    state_words,
                    &mut trace,
                    block,
                )
                .is_err()
                {
                    restarts += 1;
                    continue 'restart;
                }
                rollbacks += 1;
            }
            block += 1;
        }
        completed = true;
        break;
    }

    charge_leakage(&mut bus, l1_prime.model().leakage_uw());
    let (ledger, _) = bus.into_parts();
    RunReport {
        task: String::new(), // filled in once by run_task
        scheme,
        ledger,
        output,
        errors_detected: errors,
        rollbacks,
        restarts,
        checkpoints,
        completed,
        trace,
    }
}

/// Reads state (+ block `b`'s `produced` output words when `Some((b, produced))`)
/// through the checked bus and stores them into L1′. Returns the committed
/// words `[state..., chunk...]`.
fn commit_checkpoint(
    task: &mut dyn StreamingTask,
    bus: &mut PlainBus,
    l1_prime: &mut ProtectedBuffer,
    index: usize,
    produced: Option<(usize, u32)>,
    trace: &mut Trace,
) -> Result<Vec<u32>, chunkpoint_sim::ReadFault> {
    // Software checkpoint trigger cost.
    bus.tick(bus.platform().checkpoint_trigger_cycles);
    let state_region = task.state_region();
    let capacity = state_region.words + produced.map_or(0, |(_, n)| n);
    let mut words = Vec::with_capacity(capacity as usize);
    // Commit read-back as burst transfers through the batch entry point.
    bus.load_block(state_region.base, state_region.words, &mut words)?;
    if let Some((block, produced)) = produced {
        if produced > 0 {
            let out_region = task.output_region();
            let offset = task.output_offset(block);
            assert!(
                offset + produced <= out_region.words,
                "block {block} chunk [{offset}, {}) exceeds region of {} words",
                offset + produced,
                out_region.words
            );
            bus.load_block(out_region.word(offset), produced, &mut words)?;
        }
    }
    let now = bus.now();
    l1_prime.store_checkpoint(&words, now, bus.ledger_mut());
    trace.push(TraceEvent::Checkpoint {
        index,
        cycle: now,
        chunk_words: words.len() as u32,
    });
    Ok(words)
}

/// The Read Error Interrupt service routine (Fig. 2b): restore the status
/// registers / state region from L1′ and point execution back at the last
/// committed checkpoint. Returns `Err` only when L1′ itself is
/// uncorrectable (fall back to task restart).
fn service_read_error(
    task: &mut dyn StreamingTask,
    bus: &mut PlainBus,
    l1_prime: &mut ProtectedBuffer,
    state_words: u32,
    trace: &mut Trace,
    block: usize,
) -> Result<(), crate::l1prime::RestoreError> {
    // Pipeline flush + vectoring + register restore cost.
    bus.tick(bus.platform().isr_cycles);
    let now = bus.now();
    let restored = l1_prime.load_checkpoint(state_words, now, bus.ledger_mut())?;
    let state_region = task.state_region();
    for (i, &w) in restored.iter().enumerate() {
        bus.store(state_region.word(i as u32), w);
    }
    trace.push(TraceEvent::Rollback {
        to_checkpoint: block,
        cycle: bus.now(),
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config(seed: u64) -> SystemConfig {
        let mut config = SystemConfig::paper(seed);
        config.scale = 0.25;
        config
    }

    #[test]
    fn golden_runs_complete_everywhere() {
        for benchmark in Benchmark::ALL {
            let report = golden(benchmark, &fast_config(1));
            assert!(report.completed, "{benchmark}");
            assert!(!report.output.is_empty(), "{benchmark}");
            assert!(report.energy_pj() > 0.0, "{benchmark}");
            assert_eq!(report.errors_detected, 0, "{benchmark}");
        }
    }

    #[test]
    fn golden_is_deterministic() {
        let a = golden(Benchmark::AdpcmEncode, &fast_config(1));
        let b = golden(Benchmark::AdpcmEncode, &fast_config(2));
        assert!(a.output_matches(&b)); // fault-free: seed must not matter
        assert_eq!(a.cycles(), b.cycles());
    }

    #[test]
    fn hybrid_matches_golden_under_faults() {
        let config = fast_config(42);
        for benchmark in [Benchmark::AdpcmEncode, Benchmark::G721Decode] {
            let reference = golden(benchmark, &config);
            let report = run(
                benchmark,
                MitigationScheme::Hybrid {
                    chunk_words: 16,
                    l1_prime_t: 8,
                },
                &config,
            );
            assert!(report.completed, "{benchmark}");
            assert!(
                report.output_matches(&reference),
                "{benchmark}: hybrid output diverged"
            );
        }
    }

    #[test]
    fn hybrid_commits_checkpoints() {
        let config = fast_config(7);
        let report = run(
            Benchmark::AdpcmDecode,
            MitigationScheme::Hybrid {
                chunk_words: 16,
                l1_prime_t: 8,
            },
            &config,
        );
        assert!(report.checkpoints as usize >= report.output.len() / 16);
        assert!(report.trace.checkpoints() > 0);
    }

    #[test]
    fn default_under_heavy_faults_corrupts_silently() {
        // Full-scale frame (multiple blocks) so the accumulated output
        // buffer has real exposure before the end-of-frame drain.
        let mut config = SystemConfig::paper(3);
        config.faults.error_rate = 1e-4; // aggressive
        let reference = golden(Benchmark::AdpcmEncode, &config);
        let report = run(Benchmark::AdpcmEncode, MitigationScheme::Default, &config);
        // No detection machinery: zero detected errors...
        assert_eq!(report.errors_detected, 0);
        // ...but the output is wrong.
        assert!(!report.output_matches(&reference));
    }

    #[test]
    fn hw_ecc_corrects_and_matches() {
        let mut config = fast_config(4);
        config.faults.error_rate = 1e-5;
        let reference = golden(Benchmark::AdpcmEncode, &config);
        let report = run(
            Benchmark::AdpcmEncode,
            MitigationScheme::hw_baseline(),
            &config,
        );
        assert!(report.completed);
        assert!(report.output_matches(&reference));
    }

    #[test]
    fn sw_restart_recovers() {
        let mut config = fast_config(5);
        config.faults.error_rate = 2e-6;
        let reference = golden(Benchmark::AdpcmEncode, &config);
        let report = run(Benchmark::AdpcmEncode, MitigationScheme::SwRestart, &config);
        assert!(report.completed);
        assert!(report.output_matches(&reference));
    }

    #[test]
    fn energy_ratios_are_sane() {
        let config = fast_config(6);
        let benchmark = Benchmark::AdpcmDecode;
        let reference = golden(benchmark, &config);
        let hybrid = run(
            benchmark,
            MitigationScheme::Hybrid {
                chunk_words: 16,
                l1_prime_t: 8,
            },
            &config,
        );
        let hw = run(benchmark, MitigationScheme::hw_baseline(), &config);
        let ratio_hybrid = hybrid.energy_ratio(&reference);
        let ratio_hw = hw.energy_ratio(&reference);
        assert!(ratio_hybrid > 1.0, "hybrid {ratio_hybrid}");
        assert!(
            ratio_hw > ratio_hybrid,
            "hw {ratio_hw} vs hybrid {ratio_hybrid}"
        );
    }
}
