//! # chunkpoint
//!
//! A from-scratch reproduction of **"A Hybrid HW-SW Approach for
//! Intermittent Error Mitigation in Streaming-Based Embedded Systems"**
//! (Sabry, Atienza, Catthoor — DATE 2012), as a production-quality Rust
//! workspace.
//!
//! This facade crate re-exports the library layers:
//!
//! * [`ecc`] — error-correcting codes and hardware-overhead models
//!   (parity, interleaved parity, SECDED, interleaved SECDED, binary BCH
//!   over GF(2^m));
//! * [`sim`] — the SoC simulator standing in for MPARM + CACTI:
//!   bit-accurate fault-prone SRAM, Poisson SMU injection, 65 nm
//!   area/energy/timing models, cycle/energy ledger;
//! * [`workloads`] — MediaBench-equivalent streaming kernels (IMA ADPCM,
//!   G.722, G.726/G.721, baseline JPEG) instrumented to run their live
//!   data through the simulated memory;
//! * [`core`] — the paper's contribution: data chunks, checkpoints, the
//!   BCH-protected L1′ buffer, the Read-Error-Interrupt rollback protocol,
//!   the chunk-size optimizer (Eqs. 1–7), and the Default / HW / SW
//!   baseline executors;
//! * [`campaign`] — the deterministic parallel Monte Carlo campaign
//!   engine: declarative scenario grids, SplitMix64 per-scenario seed
//!   derivation, a work-stealing thread pool, streaming statistics
//!   (mean / stddev / 95 % CI) and machine-readable JSON reports, with
//!   per-scenario results bit-identical at any thread count;
//! * [`telemetry`] — the observability layer: a process-wide registry
//!   of lock-free counters/gauges/histograms with Prometheus-style
//!   text exposition, and structured trace spans with deterministic
//!   ids — strictly out-of-band, never feeding back into results;
//! * [`serve`] — the std-only HTTP campaign service over the engine:
//!   a checkpointable job store (append-only scenario journals),
//!   crash/restart resume that is bit-identical to an uninterrupted
//!   run, and a content-addressed result cache keyed by the canonical
//!   spec hash;
//! * [`shard`] — the scenario-range shard coordinator over multiple
//!   `serve` instances: contiguous grid partitioning, typed-error HTTP
//!   dispatch with re-dispatch of failed or unreachable shards, and a
//!   journal merge whose report is byte-identical to a single-machine
//!   run;
//! * [`exec`] — the one campaign executor API over all of the above:
//!   typed submit / observe / cancel with a shared `CampaignEvent`
//!   stream and one `ExecError` enum, implemented by local, remote,
//!   and sharded executors proven byte-identical on the same spec;
//! * [`adaptive`] — the sequential-sampling campaign controller on the
//!   executor event plane: per-cell CI95 early stopping and
//!   variance-driven replicate reallocation through ranged sub-specs,
//!   over any executor — with stop/reallocate decisions that replay
//!   byte-identically.
//!
//! ## Quickstart
//!
//! ```
//! use chunkpoint::core::{golden, optimize, run, MitigationScheme, SystemConfig};
//! use chunkpoint::workloads::Benchmark;
//!
//! let mut config = SystemConfig::paper(7);
//! config.scale = 0.25; // short run for the doctest
//! let best = optimize(Benchmark::AdpcmEncode, &config).expect("feasible");
//! let report = run(
//!     Benchmark::AdpcmEncode,
//!     MitigationScheme::Hybrid { chunk_words: best.chunk_words, l1_prime_t: best.l1_prime_t },
//!     &config,
//! );
//! assert!(report.output_matches(&golden(Benchmark::AdpcmEncode, &config)));
//! ```
//!
//! See `README.md` for the architecture overview. The binaries in
//! `chunkpoint-bench` regenerate every table and figure of the paper's
//! evaluation.

#![warn(missing_docs)]

/// Error-correcting codes and hardware-overhead models.
pub use chunkpoint_ecc as ecc;

/// SoC simulator: SRAM, faults, energy/area/timing models.
pub use chunkpoint_sim as sim;

/// Streaming media workloads (MediaBench equivalents).
pub use chunkpoint_workloads as workloads;

/// The hybrid mitigation scheme, optimizer, and baseline executors.
pub use chunkpoint_core as core;

/// Declarative timeline-scenario DSL: named scenarios, fault-timeline
/// events, and `expect` blocks over final run statistics.
pub use chunkpoint_scenario as scenario;

/// Deterministic parallel Monte Carlo campaign engine.
pub use chunkpoint_campaign as campaign;

/// Observability layer: process-wide metrics registry, Prometheus-style
/// text exposition, deterministic trace spans.
pub use chunkpoint_telemetry as telemetry;

/// Std-only HTTP campaign service: checkpointable job store, resumable
/// runs, content-addressed result cache.
pub use chunkpoint_serve as serve;

/// Scenario-range shard coordinator over multiple `serve` instances.
pub use chunkpoint_shard as shard;

/// One campaign executor API: typed submit/observe/cancel over local,
/// remote, and sharded execution, byte-identical across all three.
pub use chunkpoint_exec as exec;

/// Sequential-sampling adaptive campaign controller: CI95 early
/// stopping and replicate reallocation over any executor.
pub use chunkpoint_adaptive as adaptive;

/// Deterministic fault-injecting TCP proxy for chaos-testing the
/// service stack: seeded, replayable per-connection fault plans.
pub use chunkpoint_chaos as chaos;
