//! The traced run's per-layer measurements.
//!
//! Layers are measured from outside: after each traced campaign the
//! benchmark times its own calls into each crate's public functions on
//! that campaign's spec (spans under a `probes` root), reads the
//! executor's timestamped events and the backends' `GET /metrics`
//! deltas, and folds the result rows into exact simulated counts.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use chunkpoint_campaign::seed::{mix64, GOLDEN_GAMMA};
use chunkpoint_campaign::telemetry::{install_sink, TelemetrySink};
use chunkpoint_campaign::{
    canonical_report_json, run_campaign_streaming, CampaignSpec, CancelToken, Scenario,
};
use chunkpoint_core::{golden, optimize, run, suboptimal, MitigationScheme, SystemConfig};
use chunkpoint_ecc::{build_scheme, BitBuf, Decoded, EccKind};
use chunkpoint_exec::CampaignEvent;
use chunkpoint_scenario::TimelineEvent;
use chunkpoint_serve::{JobStore, REPORT_AXES};
use chunkpoint_shard::{exchange, fetch_journal_rows, merged_report, run_sharded, ShardConfig};
use chunkpoint_sim::{
    Burst, Component, FaultProcess, FaultTimeline, MemoryBus, PlainBus, ReadFault, Sram,
    UpsetModel, WordAddr,
};
use chunkpoint_telemetry::Scrape;
use chunkpoint_workloads::Benchmark;

use crate::grids::Workload;
use crate::run::{Done, Stage, HTTP_TIMEOUT};
use crate::spans::{Span, Tracer};
use crate::stats::{mean, median};

/// Traced campaigns whose rows and counters feed the exact counts: a
/// fixed set, so the counts repeat exactly at a given seed.
pub const COUNTED_CAMPAIGNS: usize = 10;

/// Words per decode probe.
const DECODE_WORDS: usize = 256;
/// Passes over the words per decode probe.
const DECODE_REPS: usize = 8;

/// Campaign-seed salt of the twin spec the sharded direct run uses.
const TWIN_SALT: u64 = 0x7717_0000_0000_0001;

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("ecc.build_us", "us"),
    ("ecc.decode_clean_ns", "ns"),
    ("ecc.decode_faulty_ns", "ns"),
    ("sim.sram_init_us", "us"),
    ("sim.bus_ops", "count"),
    ("sim.ns_per_bus_op", "ns"),
    ("workloads.replay_us", "us"),
    ("core.optimize_ms", "ms"),
    ("core.golden_us", "us"),
    ("core.run_us.default", "us"),
    ("core.run_us.sw", "us"),
    ("core.run_us.hw", "us"),
    ("core.run_us.hybrid", "us"),
    ("core.denominator_us", "us"),
    ("core.rollbacks", "count"),
    ("core.restarts", "count"),
    ("core.checkpoints", "count"),
    ("core.errors_detected", "count"),
    ("core.completed_ratio", "ratio"),
    ("core.useful_cycle_ratio", "ratio"),
    ("campaign.enumerate_ms", "ms"),
    ("campaign.first_result_ms", "ms"),
    ("campaign.worker_busy_ratio", "ratio"),
    ("campaign.render_us", "us"),
    ("campaign.diff_us", "us"),
    ("serve.status_polls", "count"),
    ("serve.request_ms.submit", "ms"),
    ("serve.request_ms.status", "ms"),
    ("serve.request_ms.journal", "ms"),
    ("serve.scenario_busy_ms", "ms"),
    ("serve.journal_rows", "count"),
    ("serve.healthz_rtt_us", "us"),
    ("shard.dispatches", "count"),
    ("shard.spliced_rows", "count"),
    ("shard.cache_hit_ratio", "ratio"),
    ("shard.dispatch_to_rows_ms", "ms"),
    ("shard.poll_wait_ms", "ms"),
    ("shard.fetch_merge_us", "us"),
    ("shard.cache_load_us", "us"),
    ("shard.cache_store_us", "us"),
    ("exec.overhead_ms", "ms"),
    ("trace.sps_ratio", "ratio"),
    ("trace.layer_share", "ratio"),
];

/// Scenario wall time summed by the benchmark's own engine sink.
static BUSY_NS: AtomicU64 = AtomicU64::new(0);

/// The benchmark-owned [`TelemetrySink`]: sums per-scenario wall time.
struct BusySink;

impl TelemetrySink for BusySink {
    fn scenario_completed(&self, wall_seconds: f64) {
        BUSY_NS.fetch_add((wall_seconds * 1e9) as u64, Ordering::Relaxed);
    }

    fn queue_depth(&self, _depth: i64) {}
}

/// A [`MemoryBus`] around [`PlainBus`] that counts loads, stores and
/// block loads.
struct CountingBus {
    inner: PlainBus,
    ops: u64,
}

impl MemoryBus for CountingBus {
    fn load(&mut self, addr: WordAddr) -> Result<u32, ReadFault> {
        self.ops += 1;
        self.inner.load(addr)
    }

    fn load_block(
        &mut self,
        start: WordAddr,
        count: u32,
        sink: &mut Vec<u32>,
    ) -> Result<(), ReadFault> {
        self.ops += 1;
        self.inner.load_block(start, count, sink)
    }

    fn store(&mut self, addr: WordAddr, value: u32) {
        self.ops += 1;
        self.inner.store(addr, value);
    }

    fn tick(&mut self, cycles: u64) {
        self.inner.tick(cycles);
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }
}

/// A fault-free, no-ECC bus at the platform's L1 size.
fn plain_bus(config: &SystemConfig) -> PlainBus {
    let sram = Sram::new(
        "l1",
        config.platform.l1_words,
        EccKind::None,
        FaultProcess::disabled(),
    )
    .expect("the no-ECC array always builds");
    PlainBus::new(sram, config.platform.clone(), Component::L1)
}

/// Builds, initialises and runs every block of `benchmark` on `bus`.
fn replay(benchmark: Benchmark, scale: f64, bus: &mut dyn MemoryBus) {
    let mut task = benchmark.build_task_scaled(16, scale);
    task.init(bus).expect("fault-free init");
    for block in 0..task.total_blocks() {
        black_box(task.run_block(block, bus).expect("fault-free block"));
    }
}

/// The configuration the engine runs `scenario` under.
fn scenario_config(spec: &CampaignSpec, scenario: &Scenario) -> SystemConfig {
    let mut config = spec.base.with_seed(scenario.seed);
    config.faults.error_rate = scenario.error_rate;
    if let Some(def) = scenario
        .scenario
        .as_deref()
        .and_then(|name| spec.scenario_def(name))
    {
        let mut timeline = FaultTimeline::default();
        for event in &def.timeline {
            match *event {
                TimelineEvent::FaultBurst { cycle, words, rate } => {
                    timeline.bursts.push(Burst { cycle, words, rate });
                }
                TimelineEvent::ErrorRateShift { cycle, rate } => {
                    timeline.shifts.push((cycle, rate))
                }
                TimelineEvent::Scrub { period } => timeline.scrub_period = Some(period),
                TimelineEvent::TaskSwitch { .. } => {}
            }
        }
        if !timeline.is_empty() {
            config.timeline = Some(timeline);
        }
    }
    config
}

/// The `core.run_us.*` family of a scheme.
fn family(scheme: MitigationScheme) -> &'static str {
    match scheme {
        MitigationScheme::Default => "core.run_us.default",
        MitigationScheme::HwEcc { .. } => "core.run_us.hw",
        MitigationScheme::Hybrid { .. } | MitigationScheme::HybridSingleParity { .. } => {
            "core.run_us.hybrid"
        }
        MitigationScheme::SwRestart | MitigationScheme::ScrubbedSecded { .. } => "core.run_us.sw",
    }
}

/// The ECC kinds one scenario builds: its L1 kind plus the L1′ code.
fn built_kinds(scheme: MitigationScheme) -> Vec<EccKind> {
    let mut kinds = vec![scheme.l1_kind()];
    if let MitigationScheme::Hybrid { l1_prime_t, .. }
    | MitigationScheme::HybridSingleParity { l1_prime_t, .. } = scheme
    {
        kinds.push(EccKind::Bch { t: l1_prime_t });
    }
    kinds
}

/// The distinct items of `items` with how often each occurs, in order of
/// first occurrence.
fn mix<T: PartialEq>(items: impl Iterator<Item = T>) -> Vec<(T, usize)> {
    let mut counts: Vec<(T, usize)> = Vec::new();
    for item in items {
        match counts.iter_mut().find(|(seen, _)| *seen == item) {
            Some((_, n)) => *n += 1,
            None => counts.push((item, 1)),
        }
    }
    counts
}

/// Mean of `cost(item)` over a [`mix`], weighted by each item's count.
fn weighted<T>(mix: &[(T, usize)], mut cost: impl FnMut(&T) -> f64) -> f64 {
    let total: usize = mix.iter().map(|(_, n)| n).sum();
    mix.iter()
        .map(|(item, n)| cost(item) * *n as f64)
        .sum::<f64>()
        / total.max(1) as f64
}

/// Per-layer measurement state of one traced run.
#[derive(Debug)]
pub struct Layers {
    workload: Workload,
    smoke: bool,
    threads: usize,
    /// Spans of every traced campaign and its probes.
    pub tracer: Tracer,
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
    slices: BTreeMap<&'static str, Vec<f64>>,
    walls_ms: Vec<f64>,
    counted: usize,
    golden_cycles: BTreeMap<&'static str, u64>,
    bus_ops: BTreeMap<&'static str, u64>,
    busy_sink: bool,
    rng: u64,
    traced_sps: (f64, f64),
    untraced_sps: (f64, f64),
}

/// The backends' metrics around one campaign.
#[derive(Debug)]
pub struct Scrapes {
    /// Before submit.
    pub before: Scrape,
    /// After the report.
    pub after: Scrape,
}

impl Scrapes {
    fn delta(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        let read = |s: &Scrape| s.value(name, labels).unwrap_or(0.0);
        read(&self.after) - read(&self.before)
    }
}

/// Scrapes `GET /metrics` of the first backend. The registry is
/// process-wide, so one scrape covers both in-process backends.
pub fn scrape(stage: &Stage) -> Option<Scrape> {
    let addr = stage.backends.as_ref()?.addrs.first()?;
    let (status, body) = exchange(addr, "GET", "/metrics", None, HTTP_TIMEOUT).ok()?;
    (status == 200).then(|| Scrape::parse(&body).ok()).flatten()
}

impl Layers {
    /// Fresh state. Local workloads install the benchmark's engine sink
    /// (the first installation in a process wins; `serve` installs its
    /// own when a backend binds).
    pub fn new(workload: Workload, smoke: bool, threads: usize) -> Self {
        let busy_sink = !workload.sharded() && install_sink(Box::new(BusySink));
        Self {
            workload,
            smoke,
            threads,
            tracer: Tracer::new(),
            samples: BTreeMap::new(),
            counts: BTreeMap::new(),
            slices: BTreeMap::new(),
            walls_ms: Vec::new(),
            counted: 0,
            golden_cycles: BTreeMap::new(),
            bus_ops: BTreeMap::new(),
            busy_sink,
            rng: 0x5EED,
            traced_sps: (0.0, 0.0),
            untraced_sps: (0.0, 0.0),
        }
    }

    /// Scenario wall time the benchmark's sink has seen, in seconds.
    pub fn busy_seconds() -> f64 {
        BUSY_NS.load(Ordering::Relaxed) as f64 / 1e9
    }

    fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn slice(&mut self, name: &'static str, ms: f64) {
        self.slices.entry(name).or_default().push(ms);
    }

    fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
    }

    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(GOLDEN_GAMMA);
        mix64(self.rng)
    }

    /// Records an untraced campaign of the same invocation, for the
    /// tracing-overhead ratio.
    pub fn untraced(&mut self, done: &Done) {
        self.untraced_sps.0 += done.rows as f64;
        self.untraced_sps.1 += done.latency_s();
    }

    /// Measures every layer around one traced campaign. `busy_before`
    /// is [`Layers::busy_seconds`] at submit; `scrapes` the backends'
    /// metrics around the campaign.
    pub fn traced(
        &mut self,
        stage: &Stage,
        done: &Done,
        busy_before: f64,
        scrapes: Option<&Scrapes>,
    ) {
        let Ok(run) = &done.run else {
            return;
        };
        let k = done.k;
        let spec = &done.spec;
        self.traced_sps.0 += done.rows as f64;
        self.traced_sps.1 += done.latency_s();
        let wall_ms = done.latency_s() * 1e3;
        let exec_ms = (done.finished - done.submitted).as_secs_f64() * 1e3;
        self.walls_ms.push(wall_ms);

        // The campaign as the executor ran it.
        let root = self.tracer.push(Span {
            name: "campaign",
            start_ns: self.tracer.at_ns(done.started),
            end_ns: self.tracer.at_ns(done.finished),
            parent: None,
            campaign: k,
        });
        // Seeding runs back to back before the submit; fresh campaigns
        // contribute zero to the slices, edits their measured times.
        if self.workload.sharded() {
            let seeding = done.seeding.unwrap_or_default();
            let mut at = self.tracer.at_ns(done.started);
            for (span, metric, took) in [
                ("shard.cache_load", "shard.cache_load_us", seeding.load),
                ("campaign.diff", "campaign.diff_us", seeding.diff),
                ("shard.cache_store", "shard.cache_store_us", seeding.store),
            ] {
                self.slice(span, took.as_secs_f64() * 1e3);
                if done.seeding.is_some() {
                    let ns = took.as_nanos() as u64;
                    self.tracer.push(Span {
                        name: span,
                        start_ns: at,
                        end_ns: at + ns,
                        parent: Some(root),
                        campaign: k,
                    });
                    at += ns;
                    self.sample(metric, took.as_secs_f64() * 1e6);
                }
            }
        }
        self.tracer.push(Span {
            name: "exec.submit_wait",
            start_ns: self.tracer.at_ns(done.submitted),
            end_ns: self.tracer.at_ns(done.finished),
            parent: Some(root),
            campaign: k,
        });
        let first_row = done
            .events
            .iter()
            .find(|(_, e)| matches!(e, CampaignEvent::ScenarioDone(_)))
            .map(|(at, _)| *at);
        if let Some(at) = first_row {
            self.sample(
                "campaign.first_result_ms",
                (at - done.submitted).as_secs_f64() * 1e3,
            );
        }

        // Simulation busy time during the campaign.
        let (busy_ms, workers) = match scrapes {
            Some(s) => (
                s.delta("campaign_scenario_wall_seconds_sum", &[]) * 1e3,
                stage.backends.as_ref().map_or(1, |b| b.addrs.len()),
            ),
            None if self.busy_sink => ((Self::busy_seconds() - busy_before) * 1e3, self.threads),
            None => (0.0, self.threads),
        };
        self.sample(
            "campaign.worker_busy_ratio",
            busy_ms / (workers as f64 * exec_ms),
        );
        self.slice(
            if self.workload.sharded() {
                "serve.simulate"
            } else {
                "core.simulate"
            },
            busy_ms / workers as f64,
        );

        let counted = self.counted < COUNTED_CAMPAIGNS;
        if counted {
            self.counted += 1;
        }
        // Probes: the benchmark's own calls into each layer.
        let probes = self.tracer.begin("probes", None, k);
        if let Some(s) = scrapes {
            self.serve_and_shard(stage, done, s, busy_ms, counted, probes);
        }
        let (grid, ns) = self
            .tracer
            .time("campaign.enumerate", Some(probes), k, || spec.scenarios());
        let enumerate_ms = ns as f64 / 1e6;
        self.sample("campaign.enumerate_ms", enumerate_ms);

        let benchmarks = spec.benchmark_axis().to_vec();
        let mut optimize_ms = 0.0;
        if self.workload.uses_optimizer() {
            let (_, ns) = self.tracer.time("core.optimize", Some(probes), k, || {
                for &b in &benchmarks {
                    black_box(optimize(b, &spec.base));
                    black_box(suboptimal(b, &spec.base));
                }
            });
            optimize_ms = ns as f64 / 1e6;
        }
        self.sample("core.optimize_ms", optimize_ms);
        self.slice("core.optimize", optimize_ms);
        self.slice("campaign.enumerate", (enumerate_ms - optimize_ms).max(0.0));

        let mut golden_ms = 0.0;
        for &b in &benchmarks {
            let (report, ns) = self
                .tracer
                .time("core.golden", Some(probes), k, || golden(b, &spec.base));
            self.golden_cycles.insert(b.name(), report.cycles());
            self.sample("core.golden_us", ns as f64 / 1e3);
            golden_ms += ns as f64 / 1e6;
        }
        if !self.workload.sharded() {
            self.slice("core.golden", golden_ms);
        }

        self.sampled_runs(spec, &grid, probes);
        self.ecc_and_sram(spec, &grid, probes);
        self.replays(spec, &benchmarks, probes);

        let (_, ns) = self.tracer.time("campaign.render", Some(probes), k, || {
            canonical_report_json(spec.campaign_seed, &run.results, &REPORT_AXES).render()
        });
        self.sample("campaign.render_us", ns as f64 / 1e3);
        self.slice("campaign.render", ns as f64 / 1e6);

        self.exec_overhead(stage, done, exec_ms, probes);

        if counted {
            let rows = &run.results;
            for (name, value) in [
                (
                    "core.rollbacks",
                    rows.iter().map(|r| r.rollbacks).sum::<u64>(),
                ),
                ("core.restarts", rows.iter().map(|r| r.restarts).sum()),
                ("core.checkpoints", rows.iter().map(|r| r.checkpoints).sum()),
                (
                    "core.errors_detected",
                    rows.iter().map(|r| r.errors_detected).sum(),
                ),
                (
                    "completed_rows",
                    rows.iter().filter(|r| r.completed).count() as u64,
                ),
                ("rows", rows.len() as u64),
                ("simulated_cycles", rows.iter().map(|r| r.cycles).sum()),
                (
                    "golden_cycles",
                    rows.iter()
                        .map(|r| self.golden_cycles[r.scenario.benchmark.name()])
                        .sum(),
                ),
            ] {
                self.count(name, value as f64);
            }
        }
        self.tracer.end(probes);
    }

    /// `serve.*` and `shard.*` from the metrics deltas, the events and
    /// re-timed journal fetches.
    fn serve_and_shard(
        &mut self,
        stage: &Stage,
        done: &Done,
        s: &Scrapes,
        busy_ms: f64,
        counted: bool,
        probes: usize,
    ) {
        let run = done.run.as_ref().expect("checked by the caller");
        let dispatches = run.dispatches as f64;
        self.sample(
            "serve.status_polls",
            s.delta("serve_requests_total", &[("endpoint", "status")]) / dispatches.max(1.0),
        );
        for (endpoint, name) in [
            ("submit", "serve.request_ms.submit"),
            ("status", "serve.request_ms.status"),
            ("journal", "serve.request_ms.journal"),
        ] {
            let label = [("endpoint", endpoint)];
            let n = s.delta("serve_request_seconds_count", &label);
            if n > 0.0 {
                self.sample(name, s.delta("serve_request_seconds_sum", &label) / n * 1e3);
            }
        }
        self.sample("serve.scenario_busy_ms", busy_ms);

        // Dispatch → rows, per shard, from the events' arrival times.
        let mut dispatched: BTreeMap<usize, (Instant, (usize, usize), String)> = BTreeMap::new();
        let mut first_rows: BTreeMap<usize, Instant> = BTreeMap::new();
        let mut spliced = 0usize;
        for (at, event) in &done.events {
            match event {
                CampaignEvent::ShardDispatched {
                    shard,
                    range,
                    backend,
                }
                | CampaignEvent::ShardRedispatched {
                    shard,
                    range,
                    backend,
                } => {
                    dispatched.insert(*shard, (*at, *range, backend.clone()));
                }
                CampaignEvent::CacheHit { rows, .. } => spliced += rows,
                CampaignEvent::ScenarioDone(row) => {
                    let index = row.scenario.index;
                    if let Some((&shard, _)) = dispatched
                        .iter()
                        .find(|(_, (_, (a, b), _))| (*a..*b).contains(&index))
                    {
                        first_rows.entry(shard).or_insert(*at);
                    }
                }
                _ => {}
            }
        }
        let to_rows: Vec<f64> = dispatched
            .iter()
            .filter_map(|(shard, (at, _, _))| {
                first_rows
                    .get(shard)
                    .map(|rows_at| (*rows_at - *at).as_secs_f64() * 1e3)
            })
            .collect();
        if !to_rows.is_empty() {
            // Shards run side by side: the slowest one is the campaign's
            // critical path, the mean is the per-shard figure.
            let busy_per_shard = busy_ms / dispatched.len() as f64;
            let slowest = to_rows.iter().copied().fold(0.0, f64::max);
            let to_rows = mean(&to_rows);
            self.sample("shard.dispatch_to_rows_ms", to_rows);
            self.sample("shard.poll_wait_ms", to_rows - busy_per_shard);
            self.slice("shard.poll_wait", (slowest - busy_per_shard).max(0.0));
        }
        if done.seeding.is_some() {
            self.sample(
                "shard.cache_hit_ratio",
                spliced as f64 / run.results.len().max(1) as f64,
            );
        }
        if counted {
            self.count("shard.dispatches", dispatches);
            self.count("shard.spliced_rows", spliced as f64);
            self.count(
                "serve.journal_rows",
                s.delta("serve_journal_rows_total", &[]),
            );
        }

        // Journal fetch + merge, re-timed over the shards just run.
        // Spliced rows come from the run; the dispatched ones are fetched
        // again from the backends' journals.
        let k = done.k;
        let spec = &done.spec;
        let grid = spec.scenarios();
        let in_shard = |index: usize| {
            dispatched
                .values()
                .any(|(_, (a, b), _)| (*a..*b).contains(&index))
        };
        let spliced_rows: Vec<_> = run
            .results
            .iter()
            .filter(|r| !in_shard(r.scenario.index))
            .cloned()
            .collect();
        let (merged, ns) = self.tracer.time("shard.fetch_merge", Some(probes), k, || {
            let mut rows = spliced_rows;
            for (_, range, backend) in dispatched.values() {
                let id = JobStore::job_id(&spec.clone().scenario_range(range.0, range.1));
                rows.extend(fetch_journal_rows(
                    backend,
                    &id,
                    &grid,
                    *range,
                    HTTP_TIMEOUT,
                )?);
            }
            merged_report(spec.campaign_seed, grid.len(), rows).map_err(|e| e.to_string())
        });
        if merged.is_ok_and(|(report, _)| report == run.report) {
            self.sample("shard.fetch_merge_us", ns as f64 / 1e3);
            self.slice("shard.fetch_merge", ns as f64 / 1e6);
        }

        if let Some(backends) = &stage.backends {
            for addr in &backends.addrs {
                let (answer, ns) = self.tracer.time("serve.healthz", Some(probes), k, || {
                    exchange(addr, "GET", "/healthz", None, HTTP_TIMEOUT)
                });
                if answer.is_ok() {
                    self.sample("serve.healthz_rtt_us", ns as f64 / 1e3);
                }
            }
        }
    }

    /// `core.run_us.*` and `core.denominator_us` on a fixed sample: one
    /// scenario per scheme family, chosen by the campaign seed.
    fn sampled_runs(&mut self, spec: &CampaignSpec, grid: &[Scenario], probes: usize) {
        let k = self.tracer.spans()[probes].campaign;
        let mut families: BTreeMap<&'static str, Vec<&Scenario>> = BTreeMap::new();
        for scenario in grid {
            families
                .entry(family(scenario.scheme))
                .or_default()
                .push(scenario);
        }
        for (salt, (name, members)) in (1u64..).zip(families) {
            let pick = mix64(spec.campaign_seed ^ salt) as usize % members.len();
            let scenario = members[pick];
            let config = scenario_config(spec, scenario);
            let (_, ns) = self.tracer.time("core.run", Some(probes), k, || {
                black_box(run(scenario.benchmark, scenario.scheme, &config))
            });
            self.sample(name, ns as f64 / 1e3);
            if scenario.scheme != MitigationScheme::Default && spec.is_normalized() {
                let (_, ns) = self.tracer.time("core.denominator", Some(probes), k, || {
                    black_box(run(scenario.benchmark, MitigationScheme::Default, &config))
                });
                self.sample("core.denominator_us", ns as f64 / 1e3);
            }
        }
    }

    /// `ecc.*` and `sim.sram_init_us`, weighted by the campaign's scheme
    /// mix.
    fn ecc_and_sram(&mut self, spec: &CampaignSpec, grid: &[Scenario], probes: usize) {
        let k = self.tracer.spans()[probes].campaign;
        let build_sets = mix(grid.iter().map(|s| built_kinds(s.scheme)));
        let build_us = weighted(&build_sets, |kinds| {
            let (_, ns) = self.tracer.time("ecc.build", Some(probes), k, || {
                for &kind in kinds {
                    black_box(build_scheme(kind).expect("builds"));
                }
            });
            ns as f64 / 1e3
        });
        self.sample("ecc.build_us", build_us);

        let l1_kinds = mix(grid.iter().map(|s| s.scheme.l1_kind()));
        let words = spec.base.platform.l1_words;
        let sram_us = weighted(&l1_kinds, |&kind| {
            let (_, ns) = self.tracer.time("sim.sram_init", Some(probes), k, || {
                black_box(Sram::new("l1", words, kind, FaultProcess::disabled()).expect("builds"))
            });
            ns as f64 / 1e3
        });
        self.sample("sim.sram_init_us", sram_us);

        let UpsetModel::MultiBit { weights } = UpsetModel::smu_65nm() else {
            unreachable!("the 65 nm model is multi-bit");
        };
        let mut decode_costs: Vec<((f64, f64), usize)> = Vec::new();
        for &(kind, count) in &l1_kinds {
            let scheme = build_scheme(kind).expect("builds");
            let data: Vec<u32> = (0..DECODE_WORDS).map(|_| self.next_u64() as u32).collect();
            let mut clean = vec![BitBuf::new(scheme.total_bits()); DECODE_WORDS];
            scheme.encode_block(&data, &mut clean);
            let mut faulty = clean.clone();
            for word in &mut faulty {
                let total: f64 = weights.iter().sum();
                let mut x = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
                let mut width = weights.len();
                for (i, w) in weights.iter().enumerate() {
                    if x < *w {
                        width = i + 1;
                        break;
                    }
                    x -= w;
                }
                let width = width.min(word.len());
                let start = self.next_u64() as usize % (word.len() - width + 1);
                for bit in start..start + width {
                    word.flip(bit);
                }
            }
            let mut out = vec![Decoded::DetectedUncorrectable; DECODE_WORDS];
            let mut per_word = |name: &'static str, words: &[BitBuf], tracer: &mut Tracer| {
                let (_, ns) = tracer.time(name, Some(probes), k, || {
                    for _ in 0..DECODE_REPS {
                        scheme.decode_block(black_box(words), &mut out);
                        black_box(&out);
                    }
                });
                ns as f64 / (DECODE_WORDS * DECODE_REPS) as f64
            };
            let clean_ns = per_word("ecc.decode_clean", &clean, &mut self.tracer);
            let faulty_ns = per_word("ecc.decode_faulty", &faulty, &mut self.tracer);
            decode_costs.push(((clean_ns, faulty_ns), count));
        }
        self.sample(
            "ecc.decode_clean_ns",
            weighted(&decode_costs, |(clean, _)| *clean),
        );
        self.sample(
            "ecc.decode_faulty_ns",
            weighted(&decode_costs, |(_, faulty)| *faulty),
        );
    }

    /// `workloads.replay_us`, `sim.bus_ops` and `sim.ns_per_bus_op`.
    fn replays(&mut self, spec: &CampaignSpec, benchmarks: &[Benchmark], probes: usize) {
        let k = self.tracer.spans()[probes].campaign;
        for &b in benchmarks {
            let ops = *self.bus_ops.entry(b.name()).or_insert_with(|| {
                let mut bus = CountingBus {
                    inner: plain_bus(&spec.base),
                    ops: 0,
                };
                replay(b, spec.base.scale, &mut bus);
                bus.ops
            });
            let mut bus = plain_bus(&spec.base);
            let (_, ns) = self.tracer.time("workloads.replay", Some(probes), k, || {
                replay(b, spec.base.scale, &mut bus);
            });
            self.sample("workloads.replay_us", ns as f64 / 1e3);
            self.sample("sim.ns_per_bus_op", ns as f64 / ops.max(1) as f64);
        }
    }

    /// `exec.overhead_ms`: executor time minus a direct engine or
    /// coordinator run of the same grid.
    fn exec_overhead(&mut self, stage: &Stage, done: &Done, exec_ms: f64, probes: usize) {
        let k = done.k;
        let direct_ms = match (&stage.backends, &stage.cache_dir) {
            (Some(backends), Some(cache)) => {
                // Edits splice from the cache; only fresh campaigns have
                // a like-for-like direct run (a cold twin grid).
                if done.seeding.is_some() {
                    return;
                }
                let twin =
                    self.workload
                        .spec_for(done.spec.campaign_seed ^ TWIN_SALT, false, self.smoke);
                let config = ShardConfig {
                    cache_dir: Some(cache.clone()),
                    ..ShardConfig::default()
                };
                let (result, ns) = self.tracer.time("exec.direct", Some(probes), k, || {
                    run_sharded(&twin, &backends.addrs, &config)
                });
                if result.is_err() {
                    return;
                }
                ns as f64 / 1e6
            }
            _ => {
                let threads = self.threads;
                let (_, ns) = self.tracer.time("exec.direct", Some(probes), k, || {
                    let rows = run_campaign_streaming(
                        &done.spec,
                        threads,
                        &CancelToken::new(),
                        &HashSet::new(),
                        |_| {},
                    );
                    canonical_report_json(done.spec.campaign_seed, &rows, &REPORT_AXES).render()
                });
                ns as f64 / 1e6
            }
        };
        self.sample("exec.overhead_ms", exec_ms - direct_ms);
        self.slice("exec.overhead", (exec_ms - direct_ms).max(0.0));
    }

    /// Every per-layer metric (medians of the samples; exact counts over
    /// the counted campaigns), after printing the self-time and slice
    /// tables to stderr.
    pub fn finish(&mut self) -> BTreeMap<&'static str, f64> {
        let mut metrics: BTreeMap<&'static str, f64> =
            PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect();
        for (name, values) in &self.samples {
            if let Some(slot) = metrics.get_mut(name) {
                *slot = median(values);
            }
        }
        let count = |name: &str| self.counts.get(name).copied().unwrap_or(0.0);
        for name in [
            "core.rollbacks",
            "core.restarts",
            "core.checkpoints",
            "core.errors_detected",
            "shard.dispatches",
            "shard.spliced_rows",
            "serve.journal_rows",
        ] {
            metrics.insert(name, count(name));
        }
        metrics.insert(
            "core.completed_ratio",
            count("completed_rows") / count("rows").max(1.0),
        );
        metrics.insert(
            "core.useful_cycle_ratio",
            count("golden_cycles") / count("simulated_cycles").max(1.0),
        );
        metrics.insert("sim.bus_ops", self.bus_ops.values().sum::<u64>() as f64);

        let wall_ms = median(&self.walls_ms);
        let mut slices: Vec<(&'static str, f64)> = self
            .slices
            .iter()
            .map(|(name, values)| (*name, mean(values)))
            .collect();
        slices.sort_by(|a, b| b.1.total_cmp(&a.1));
        let explained: f64 = slices.iter().map(|(_, ms)| ms).sum();
        metrics.insert("trace.layer_share", explained / wall_ms.max(1e-9));
        let sps = |(rows, secs): (f64, f64)| if secs > 0.0 { rows / secs } else { 0.0 };
        let untraced = sps(self.untraced_sps);
        metrics.insert(
            "trace.sps_ratio",
            if untraced > 0.0 {
                sps(self.traced_sps) / untraced
            } else {
                0.0
            },
        );

        let campaigns = self.walls_ms.len().max(1) as f64;
        let name = self.workload.name();
        eprintln!(
            "{name}: self time per traced campaign ({} campaigns)",
            self.walls_ms.len()
        );
        for (span, ns) in self.tracer.self_times() {
            eprintln!("  {span:<22} {:>10.3} ms", ns as f64 / 1e6 / campaigns);
        }
        eprintln!(
            "{name}: slices of the {wall_ms:.2} ms median campaign (layers explain {:.0}%)",
            explained / wall_ms.max(1e-9) * 100.0
        );
        for (slice, ms) in &slices {
            eprintln!(
                "  {slice:<22} {ms:>10.3} ms {:>6.1}%",
                ms / wall_ms.max(1e-9) * 100.0
            );
        }
        let top: Vec<&str> = slices.iter().take(3).map(|(n, _)| *n).collect();
        eprintln!("{name}: top slices: {}", top.join(", "));
        let slice_ms = |name: &str| {
            slices
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, ms)| *ms)
        };
        // `LocalExecutor` enumerates the grid up front and the engine
        // enumerates it again, so on an optimizer-backed grid the
        // executor's overhead is a second optimizer pass.
        let enumeration_ms = slice_ms("core.optimize") + slice_ms("campaign.enumerate");
        let overhead_is_enumeration =
            (slice_ms("exec.overhead") - enumeration_ms).abs() < 0.25 * enumeration_ms.max(1e-9);
        if overhead_is_enumeration {
            eprintln!(
                "{name}: exec.overhead ({:.2} ms) matches one grid enumeration ({enumeration_ms:.2} ms)",
                slice_ms("exec.overhead")
            );
        }
        let enumeration = |n: &&str| matches!(*n, "core.optimize" | "campaign.enumerate");
        let verdict = match self.workload {
            Workload::PaperGrid => Some((
                top.first().is_some_and(enumeration)
                    || (top.first() == Some(&"exec.overhead")
                        && overhead_is_enumeration
                        && top.get(1).is_some_and(enumeration)),
                "core.optimize / campaign.enumerate lead",
            )),
            Workload::ShardedStream => Some((
                top.first() == Some(&"shard.poll_wait"),
                "shard.poll_wait leads",
            )),
            Workload::FaultStorm => None,
        };
        if let Some((confirmed, claim)) = verdict {
            eprintln!(
                "{name}: probe claim \"{claim}\": {}",
                if confirmed {
                    "confirmed"
                } else {
                    "NOT confirmed"
                }
            );
        }
        metrics
    }
}
