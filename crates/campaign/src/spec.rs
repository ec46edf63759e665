//! Declarative scenario grids.
//!
//! A [`CampaignSpec`] describes a Monte Carlo evaluation campaign as a
//! cross product of axes — benchmarks × schemes × error rates × chunk
//! sizes × timeline scenarios × seed replicates — plus a base
//! [`SystemConfig`] and a campaign seed. [`CampaignSpec::scenarios`] enumerates the grid in a fixed,
//! documented order and assigns every scenario a dense index; the
//! scenario's fault seed is derived from `(campaign_seed, index)` by
//! [`crate::seed::scenario_seed`], so the spec alone fully determines
//! every random stream in the campaign.

use chunkpoint_core::{
    optimize, DesignPoint, MitigationScheme, SystemConfig, MAX_CHUNK_WORDS, MAX_L1_PRIME_T,
};
use chunkpoint_scenario::{parse_scenarios, ScenarioDef, TimelineEvent};
use chunkpoint_workloads::Benchmark;

use crate::json::JsonValue;
use crate::seed::scenario_seed;

/// Most scenarios one campaign grid may enumerate. A spec off the wire
/// sizes its grid with a few integers (`"replicates"` alone can be
/// 2⁶⁴ − 1), so [`CampaignSpec::try_scenarios`] refuses a grid past
/// this bound before allocating it: 2²⁰ scenarios are about 0.1 GB of
/// grid, far beyond any campaign this workspace runs.
pub const MAX_GRID_SCENARIOS: usize = 1 << 20;

/// How the scheme axis resolves to a concrete [`MitigationScheme`] for a
/// given benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeSpec {
    /// A fixed scheme, identical for every benchmark.
    Fixed(MitigationScheme),
    /// The hybrid scheme at the benchmark's optimizer point (Table I).
    Optimal,
    /// The hybrid scheme at the benchmark's smallest feasible chunk — the
    /// paper's "Proposed (sub-optimal)" column.
    Suboptimal,
    /// The optimizer point executed with the unsound single-parity
    /// detector (the Fig. 2a literal reading) — the detector-soundness
    /// counter-example.
    OptimalSingleParity,
}

impl SchemeSpec {
    /// Resolves to a concrete scheme for `benchmark` under `config`,
    /// sharing one optimizer search across a benchmark's scheme axis:
    /// the first entry that needs the optimum stores it in `optimum`,
    /// and later entries derive from it. An infeasible optimizer point
    /// is an `Err`, not a panic.
    fn resolve_with(
        &self,
        optimum: &mut Option<DesignPoint>,
        benchmark: Benchmark,
        config: &SystemConfig,
    ) -> Result<MitigationScheme, String> {
        let infeasible = || {
            format!(
                "campaign scheme axis: no feasible design point for {}",
                benchmark.name()
            )
        };
        if let SchemeSpec::Fixed(scheme) = *self {
            return Ok(scheme);
        }
        let best = match *optimum {
            Some(best) => best,
            None => *optimum.insert(optimize(benchmark, config).ok_or_else(infeasible)?),
        };
        Ok(match *self {
            SchemeSpec::Fixed(scheme) => scheme,
            SchemeSpec::Optimal => MitigationScheme::Hybrid {
                chunk_words: best.chunk_words,
                l1_prime_t: best.l1_prime_t,
            },
            SchemeSpec::Suboptimal => {
                let sub = best.suboptimal(config).ok_or_else(infeasible)?;
                MitigationScheme::Hybrid {
                    chunk_words: sub.chunk_words,
                    l1_prime_t: sub.l1_prime_t,
                }
            }
            SchemeSpec::OptimalSingleParity => MitigationScheme::HybridSingleParity {
                chunk_words: best.chunk_words,
                l1_prime_t: best.l1_prime_t,
            },
        })
    }
}

/// One point of the campaign grid, fully resolved and seeded.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Dense position in the enumeration order (the seed-derivation key).
    pub index: usize,
    /// Benchmark under test.
    pub benchmark: Benchmark,
    /// Scheme-axis label (stable across benchmarks; used for grouping).
    pub scheme_label: String,
    /// Concrete scheme, with any chunk-axis override already applied.
    pub scheme: MitigationScheme,
    /// Strike rate λ for this scenario.
    pub error_rate: f64,
    /// Name of the timeline scenario applied to this cell, when the spec
    /// has a scenario axis (`None` on the implicit static-environment
    /// axis entry).
    pub scenario: Option<String>,
    /// Replicate number within the cell (0-based).
    pub replicate: u64,
    /// Derived fault-process seed.
    pub seed: u64,
}

impl Scenario {
    /// Chunk size of the scenario's hybrid scheme, if it has one.
    #[must_use]
    pub fn chunk_words(&self) -> Option<u32> {
        match self.scheme {
            MitigationScheme::Hybrid { chunk_words, .. }
            | MitigationScheme::HybridSingleParity { chunk_words, .. } => Some(chunk_words),
            _ => None,
        }
    }

    /// Canonical grid-cell key: every axis except the replicate,
    /// rendered with the report's own formatting discipline (`{:e}`
    /// rates, `-` for chunkless schemes). Replicates of one cell share
    /// the key; scenarios of different cells never do — the keying the
    /// adaptive controller aggregates per-cell statistics under.
    #[must_use]
    pub fn cell_key(&self) -> String {
        let chunk = match self.chunk_words() {
            Some(k) => k.to_string(),
            None => "-".to_owned(),
        };
        let mut key = format!(
            "{} · {} · {:e} · {}",
            self.benchmark.name(),
            self.scheme_label,
            self.error_rate,
            chunk
        );
        // Scenario-less grids keep their historical keys byte-for-byte.
        if let Some(name) = &self.scenario {
            key.push_str(" · ");
            key.push_str(name);
        }
        key
    }
}

/// A declarative campaign: axes, base configuration, campaign seed.
///
/// # Examples
///
/// ```
/// use chunkpoint_campaign::{CampaignSpec, SchemeSpec};
/// use chunkpoint_core::{MitigationScheme, SystemConfig};
/// use chunkpoint_workloads::Benchmark;
///
/// let mut config = SystemConfig::paper(0);
/// config.scale = 0.25;
/// let spec = CampaignSpec::new(config, 0xC0FFEE)
///     .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
///     .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
///     .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
///     .error_rates(&[1e-7, 1e-6])
///     .replicates(3);
/// // 2 benchmarks x 2 schemes x 2 rates x 3 replicates:
/// assert_eq!(spec.scenarios().len(), 24);
/// ```
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Base configuration; per-scenario overrides touch only the fault
    /// environment (rate + seed).
    pub base: SystemConfig,
    /// Root seed of the campaign's seed-derivation tree.
    pub campaign_seed: u64,
    benchmarks: Vec<Benchmark>,
    schemes: Vec<(String, SchemeSpec)>,
    error_rates: Vec<f64>,
    chunk_words: Vec<u32>,
    timeline_scenarios: Vec<ScenarioDef>,
    replicates: u64,
    normalize: bool,
    golden_check: bool,
    scenario_range: Option<(usize, usize)>,
}

/// Validates a prospective timeline-scenario axis: names must be unique
/// and every `task_switch` target must be a known benchmark (so the
/// engine never discovers an unresolvable override mid-campaign).
fn validate_scenario_axis(defs: &[ScenarioDef]) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for def in defs {
        if !seen.insert(def.name.as_str()) {
            return Err(format!("scenarios: duplicate scenario name {:?}", def.name));
        }
        for event in &def.timeline {
            if let TimelineEvent::TaskSwitch { task, .. } = event {
                benchmark_from_name(task)
                    .map_err(|e| format!("scenario {:?}: task_switch: {e}", def.name))?;
            }
        }
    }
    Ok(())
}

impl CampaignSpec {
    /// Starts a spec over `base` with the given campaign seed. Defaults:
    /// all benchmarks, no schemes (add at least one), the base config's
    /// error rate, no chunk override, one replicate, normalization on.
    #[must_use]
    pub fn new(base: SystemConfig, campaign_seed: u64) -> Self {
        let error_rates = vec![base.faults.error_rate];
        Self {
            base,
            campaign_seed,
            benchmarks: Benchmark::ALL.to_vec(),
            schemes: Vec::new(),
            error_rates,
            chunk_words: Vec::new(),
            timeline_scenarios: Vec::new(),
            replicates: 1,
            normalize: true,
            golden_check: true,
            scenario_range: None,
        }
    }

    /// Sets the benchmark axis.
    #[must_use]
    pub fn benchmarks(mut self, benchmarks: &[Benchmark]) -> Self {
        self.benchmarks = benchmarks.to_vec();
        self
    }

    /// Appends one labelled entry to the scheme axis.
    #[must_use]
    pub fn scheme(mut self, label: &str, spec: SchemeSpec) -> Self {
        self.schemes.push((label.to_owned(), spec));
        self
    }

    /// Sets the error-rate (λ) axis.
    #[must_use]
    pub fn error_rates(mut self, rates: &[f64]) -> Self {
        assert!(!rates.is_empty(), "error-rate axis cannot be empty");
        self.error_rates = rates.to_vec();
        self
    }

    /// Sets the chunk-size axis. Hybrid schemes cross with every entry
    /// (their `chunk_words` is overridden); schemes without a chunk are
    /// unaffected and contribute one scenario per cell as usual.
    #[must_use]
    pub fn chunk_words(mut self, chunks: &[u32]) -> Self {
        self.chunk_words = chunks.to_vec();
        self
    }

    /// Sets the timeline-scenario axis. Every grid cell crosses with
    /// every named scenario: the cell's fault process follows the
    /// scenario's timeline and its result carries the scenario's
    /// `expect`-block verdict. An empty axis (the default) keeps the
    /// implicit static environment — one scenario-less entry per cell,
    /// with the pre-scenario wire rendering byte for byte.
    ///
    /// # Panics
    ///
    /// Panics on duplicate scenario names or a `task_switch` event naming
    /// an unknown benchmark — the same checks [`CampaignSpec::from_json`]
    /// reports as errors.
    #[must_use]
    pub fn timeline_scenarios(mut self, defs: &[ScenarioDef]) -> Self {
        if let Err(e) = validate_scenario_axis(defs) {
            panic!("{e}");
        }
        self.timeline_scenarios = defs.to_vec();
        self
    }

    /// Sets the number of seed replicates per grid cell.
    #[must_use]
    pub fn replicates(mut self, replicates: u64) -> Self {
        assert!(replicates > 0, "need at least one replicate");
        self.replicates = replicates;
        self
    }

    /// Enables/disables normalization: when on, every scenario reports
    /// energy/cycle ratios against its same-seed *Default* run. For the
    /// speech tasks that run's ledger is the golden run's by construction
    /// (see [`Benchmark::ledger_is_data_independent`]), so the engine
    /// divides by the golden ledger; only JPEG re-runs Default per
    /// scenario, and off roughly halves JPEG's work when only absolute
    /// numbers are needed.
    #[must_use]
    pub fn normalize(mut self, normalize: bool) -> Self {
        self.normalize = normalize;
        self
    }

    /// Enables/disables the golden-output comparison: when on, every
    /// scenario's output is checked against the benchmark's fault-free
    /// reference (one golden run per benchmark and base config per
    /// process, shared by all workers and campaigns).
    #[must_use]
    pub fn golden_check(mut self, golden_check: bool) -> Self {
        self.golden_check = golden_check;
        self
    }

    /// Restricts execution to the half-open slice `start..end` of the
    /// global scenario index space — the shard wire format. Enumeration
    /// ([`CampaignSpec::scenarios`]) still covers the whole grid with
    /// unchanged indices and seeds, so a ranged sub-spec computes exactly
    /// the rows the full campaign would, and per-shard journals merge
    /// back into the unsharded report byte for byte.
    ///
    /// # Panics
    ///
    /// Panics on an empty range (`start >= end`).
    #[must_use]
    pub fn scenario_range(mut self, start: usize, end: usize) -> Self {
        assert!(start < end, "scenario range must be non-empty");
        self.scenario_range = Some((start, end));
        self
    }

    /// The raw range restriction, if any (half-open, unclamped).
    #[must_use]
    pub fn range(&self) -> Option<(usize, usize)> {
        self.scenario_range
    }

    /// Drops any `scenario_range` restriction, recovering the parent
    /// campaign a ranged sub-spec was cut from. Every ranged sub-spec of
    /// one campaign shares the same `without_range` rendering (and
    /// therefore the same [`CampaignSpec::spec_hash`]) — the keying the
    /// coordinator's range-granular result cache groups sealed rows
    /// under, so rows sealed by one partitioning are findable by any
    /// other partitioning of the same campaign.
    #[must_use]
    pub fn without_range(mut self) -> Self {
        self.scenario_range = None;
        self
    }

    /// The half-open index range this spec actually executes, clamped to
    /// a grid of `grid` scenarios. An unranged spec runs everything.
    #[must_use]
    pub fn active_range(&self, grid: usize) -> std::ops::Range<usize> {
        match self.scenario_range {
            None => 0..grid,
            Some((start, end)) => start.min(grid)..end.min(grid),
        }
    }

    /// Whether scenarios carry normalized ratios.
    #[must_use]
    pub fn is_normalized(&self) -> bool {
        self.normalize
    }

    /// Whether scenarios carry the golden correctness verdict.
    #[must_use]
    pub fn checks_golden(&self) -> bool {
        self.golden_check
    }

    /// The benchmark axis (the engine pre-computes one golden per entry).
    #[must_use]
    pub fn benchmark_axis(&self) -> &[Benchmark] {
        &self.benchmarks
    }

    /// The timeline-scenario axis (empty on a static-environment spec).
    #[must_use]
    pub fn timeline_scenario_axis(&self) -> &[ScenarioDef] {
        &self.timeline_scenarios
    }

    /// Looks up a timeline scenario of the axis by name.
    #[must_use]
    pub fn scenario_def(&self, name: &str) -> Option<&ScenarioDef> {
        self.timeline_scenarios.iter().find(|d| d.name == name)
    }

    /// The number of seed replicates per grid cell. Because the
    /// enumeration order of [`CampaignSpec::scenarios`] keeps the
    /// replicate axis innermost, cell `c` occupies exactly the
    /// contiguous global index block `[c·R, (c+1)·R)` for
    /// `R = replicate_count()` — the geometry the adaptive controller's
    /// ranged sub-specs rely on.
    #[must_use]
    pub fn replicate_count(&self) -> u64 {
        self.replicates
    }

    /// Enumerates the full grid in the canonical order
    /// `benchmark → scheme → error rate → chunk → scenario → replicate`,
    /// assigning dense indices and derived seeds. A spec without a
    /// timeline-scenario axis contributes one implicit scenario-less
    /// entry per cell, preserving the pre-scenario enumeration exactly.
    ///
    /// The order — and therefore every derived seed — depends only on the
    /// spec, never on thread count or timing. Note the flip side: editing
    /// an axis shifts the indices (and seeds) of every later scenario,
    /// deliberately — a campaign is reproducible as a whole, not
    /// patchable cell by cell.
    ///
    /// # Panics
    ///
    /// Panics if the scheme axis is empty or a scheme spec fails to
    /// resolve (infeasible optimizer point) — the cases
    /// [`CampaignSpec::try_scenarios`] answers with an `Err`.
    #[must_use]
    pub fn scenarios(&self) -> Vec<Scenario> {
        self.try_scenarios().expect("campaign grid")
    }

    /// [`CampaignSpec::scenarios`] for input that may not enumerate: a
    /// spec off the wire or from a user.
    ///
    /// # Errors
    ///
    /// An empty scheme axis, a scheme spec whose optimizer search finds
    /// no feasible design point, or a grid of more than
    /// [`MAX_GRID_SCENARIOS`] scenarios.
    pub fn try_scenarios(&self) -> Result<Vec<Scenario>, String> {
        if self.schemes.is_empty() {
            return Err("campaign needs at least one scheme".to_owned());
        }
        let timeline_names: Vec<Option<String>> = if self.timeline_scenarios.is_empty() {
            vec![None]
        } else {
            self.timeline_scenarios
                .iter()
                .map(|d| Some(d.name.clone()))
                .collect()
        };
        // Scenarios per (error rate, scheme variant) block; checked
        // before each block is pushed, so an oversized grid is refused
        // without being allocated.
        let block = usize::try_from(self.replicates)
            .ok()
            .and_then(|replicates| replicates.checked_mul(timeline_names.len()));
        let mut scenarios = Vec::new();
        for &benchmark in &self.benchmarks {
            let mut optimum = None;
            for (label, spec) in &self.schemes {
                let resolved = spec.resolve_with(&mut optimum, benchmark, &self.base)?;
                let variants: Vec<MitigationScheme> = match (resolved, self.chunk_words.as_slice())
                {
                    (MitigationScheme::Hybrid { l1_prime_t, .. }, chunks) if !chunks.is_empty() => {
                        chunks
                            .iter()
                            .map(|&chunk_words| MitigationScheme::Hybrid {
                                chunk_words,
                                l1_prime_t,
                            })
                            .collect()
                    }
                    (MitigationScheme::HybridSingleParity { l1_prime_t, .. }, chunks)
                        if !chunks.is_empty() =>
                    {
                        chunks
                            .iter()
                            .map(|&chunk_words| MitigationScheme::HybridSingleParity {
                                chunk_words,
                                l1_prime_t,
                            })
                            .collect()
                    }
                    _ => vec![resolved],
                };
                for &error_rate in &self.error_rates {
                    for &scheme in &variants {
                        if block.is_none_or(|block| block > MAX_GRID_SCENARIOS - scenarios.len()) {
                            return Err(format!(
                                "campaign grid exceeds the limit of {MAX_GRID_SCENARIOS} scenarios"
                            ));
                        }
                        for scenario_name in &timeline_names {
                            for replicate in 0..self.replicates {
                                let index = scenarios.len();
                                scenarios.push(Scenario {
                                    index,
                                    benchmark,
                                    scheme_label: label.clone(),
                                    scheme,
                                    error_rate,
                                    scenario: scenario_name.clone(),
                                    replicate,
                                    seed: scenario_seed(self.campaign_seed, index as u64),
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(scenarios)
    }
}

// ---------------------------------------------------------------------------
// Spec serde: the wire format of a campaign
// ---------------------------------------------------------------------------

/// Current wire-format version of [`CampaignSpec::to_json`].
pub const SPEC_VERSION: u64 = 1;

pub(crate) fn benchmark_from_name(name: &str) -> Result<Benchmark, String> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| {
            let known: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
            format!("unknown benchmark {name:?} (known: {})", known.join(", "))
        })
}

fn scheme_to_json(scheme: &MitigationScheme) -> JsonValue {
    match *scheme {
        MitigationScheme::Default => JsonValue::object().field("kind", "default"),
        MitigationScheme::HwEcc { t } => JsonValue::object()
            .field("kind", "hw-ecc")
            .field("t", u64::from(t)),
        MitigationScheme::SwRestart => JsonValue::object().field("kind", "sw-restart"),
        MitigationScheme::Hybrid {
            chunk_words,
            l1_prime_t,
        } => JsonValue::object()
            .field("kind", "hybrid")
            .field("chunk_words", u64::from(chunk_words))
            .field("l1_prime_t", u64::from(l1_prime_t)),
        MitigationScheme::HybridSingleParity {
            chunk_words,
            l1_prime_t,
        } => JsonValue::object()
            .field("kind", "hybrid-single-parity")
            .field("chunk_words", u64::from(chunk_words))
            .field("l1_prime_t", u64::from(l1_prime_t)),
        MitigationScheme::ScrubbedSecded { interval_cycles } => JsonValue::object()
            .field("kind", "scrubbed-secded")
            .field("interval_cycles", u64::from(interval_cycles)),
    }
}

fn field_u64(value: &JsonValue, key: &str, context: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("{context}: missing or non-integer {key:?}"))
}

fn field_f64(value: &JsonValue, key: &str, context: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{context}: missing or non-numeric {key:?}"))
}

/// The value ranges the simulator asserts, checked in one place so a
/// spec off the wire that would trip one is refused before it runs:
/// every strike rate in `[0, 1)` (`FaultProcess::new`), the input scale
/// in `(0, 4]` (`Benchmark::build_task_scaled`), every fixed scheme's BCH
/// strength in `1..=MAX_L1_PRIME_T`, the word-level BCH range
/// (`BchCode::for_word`), and every chunk size, a fixed scheme's and the
/// chunk axis's, in `1..=MAX_CHUNK_WORDS`, the optimizer's range (a
/// larger chunk's frame overruns L1).
fn check_simulator_ranges(spec: &CampaignSpec) -> Result<(), String> {
    let scale = spec.base.scale;
    if !(scale > 0.0 && scale <= 4.0) {
        return Err(format!("base: scale must be in (0, 4], got {scale}"));
    }
    let rate_ok = |rate: f64| (0.0..1.0).contains(&rate);
    let base_rate = spec.base.faults.error_rate;
    if !rate_ok(base_rate) {
        return Err(format!(
            "base: error_rate must be in [0, 1), got {base_rate}"
        ));
    }
    if let Some(&rate) = spec.error_rates.iter().find(|&&rate| !rate_ok(rate)) {
        return Err(format!(
            "error_rates: entries must be in [0, 1), got {rate}"
        ));
    }
    let chunk_ok = |chunk: u32| (1..=MAX_CHUNK_WORDS).contains(&chunk);
    for (label, scheme) in &spec.schemes {
        let ((field, t), chunk) = match *scheme {
            SchemeSpec::Fixed(MitigationScheme::HwEcc { t }) => (("hw-ecc t", t), None),
            SchemeSpec::Fixed(
                MitigationScheme::Hybrid {
                    chunk_words,
                    l1_prime_t,
                }
                | MitigationScheme::HybridSingleParity {
                    chunk_words,
                    l1_prime_t,
                },
            ) => (("l1_prime_t", l1_prime_t), Some(chunk_words)),
            _ => continue,
        };
        if !(1..=MAX_L1_PRIME_T).contains(&t) {
            return Err(format!(
                "schemes: {label:?}: {field} must be in 1..={MAX_L1_PRIME_T}, got {t}"
            ));
        }
        if let Some(chunk) = chunk.filter(|&chunk| !chunk_ok(chunk)) {
            return Err(format!(
                "schemes: {label:?}: chunk_words must be in 1..={MAX_CHUNK_WORDS}, got {chunk}"
            ));
        }
    }
    if let Some(&chunk) = spec.chunk_words.iter().find(|&&chunk| !chunk_ok(chunk)) {
        return Err(format!(
            "chunk_words: entries must be in 1..={MAX_CHUNK_WORDS}, got {chunk}"
        ));
    }
    Ok(())
}

fn narrow<T: TryFrom<u64>>(raw: u64, what: &str) -> Result<T, String> {
    T::try_from(raw).map_err(|_| format!("{what} out of range: {raw}"))
}

fn scheme_from_json(value: &JsonValue) -> Result<MitigationScheme, String> {
    let kind = value
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or("scheme: missing \"kind\"")?;
    match kind {
        "default" => Ok(MitigationScheme::Default),
        "sw-restart" => Ok(MitigationScheme::SwRestart),
        "hw-ecc" => Ok(MitigationScheme::HwEcc {
            t: narrow(field_u64(value, "t", "hw-ecc")?, "hw-ecc t")?,
        }),
        "hybrid" => Ok(MitigationScheme::Hybrid {
            chunk_words: narrow(field_u64(value, "chunk_words", "hybrid")?, "chunk_words")?,
            l1_prime_t: narrow(field_u64(value, "l1_prime_t", "hybrid")?, "l1_prime_t")?,
        }),
        "hybrid-single-parity" => Ok(MitigationScheme::HybridSingleParity {
            chunk_words: narrow(
                field_u64(value, "chunk_words", "hybrid-single-parity")?,
                "chunk_words",
            )?,
            l1_prime_t: narrow(
                field_u64(value, "l1_prime_t", "hybrid-single-parity")?,
                "l1_prime_t",
            )?,
        }),
        "scrubbed-secded" => Ok(MitigationScheme::ScrubbedSecded {
            interval_cycles: narrow(
                field_u64(value, "interval_cycles", "scrubbed-secded")?,
                "interval_cycles",
            )?,
        }),
        other => Err(format!("scheme: unknown kind {other:?}")),
    }
}

fn scheme_spec_to_json(spec: &SchemeSpec) -> JsonValue {
    match spec {
        SchemeSpec::Fixed(scheme) => JsonValue::object()
            .field("kind", "fixed")
            .field("scheme", scheme_to_json(scheme)),
        SchemeSpec::Optimal => JsonValue::object().field("kind", "optimal"),
        SchemeSpec::Suboptimal => JsonValue::object().field("kind", "suboptimal"),
        SchemeSpec::OptimalSingleParity => {
            JsonValue::object().field("kind", "optimal-single-parity")
        }
    }
}

fn scheme_spec_from_json(value: &JsonValue) -> Result<SchemeSpec, String> {
    let kind = value
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or("scheme spec: missing \"kind\"")?;
    match kind {
        "fixed" => Ok(SchemeSpec::Fixed(scheme_from_json(
            value
                .get("scheme")
                .ok_or("fixed scheme spec: missing \"scheme\"")?,
        )?)),
        "optimal" => Ok(SchemeSpec::Optimal),
        "suboptimal" => Ok(SchemeSpec::Suboptimal),
        "optimal-single-parity" => Ok(SchemeSpec::OptimalSingleParity),
        other => Err(format!("scheme spec: unknown kind {other:?}")),
    }
}

impl CampaignSpec {
    /// Serializes the spec to its canonical JSON wire form — the format
    /// [`CampaignSpec::from_json`] accepts and the campaign service hashes
    /// for its content-addressed result cache.
    ///
    /// The rendering is deterministic (insertion-ordered keys,
    /// shortest-roundtrip floats), so equal specs always render to equal
    /// bytes and [`CampaignSpec::spec_hash`] is stable across processes
    /// and platforms.
    ///
    /// The base [`SystemConfig`] serializes as its campaign-relevant
    /// knobs (scale, fault environment, constraint overheads); the
    /// platform is pinned to the paper's LH7A400 — a spec cannot carry a
    /// custom platform over the wire.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let benchmarks: Vec<JsonValue> = self
            .benchmarks
            .iter()
            .map(|b| JsonValue::from(b.name()))
            .collect();
        let schemes: Vec<JsonValue> = self
            .schemes
            .iter()
            .map(|(label, spec)| {
                JsonValue::object()
                    .field("label", label.as_str())
                    .field("spec", scheme_spec_to_json(spec))
            })
            .collect();
        let error_rates: Vec<JsonValue> = self
            .error_rates
            .iter()
            .map(|&r| JsonValue::Float(r))
            .collect();
        let chunk_words: Vec<JsonValue> = self
            .chunk_words
            .iter()
            .map(|&k| JsonValue::from(u64::from(k)))
            .collect();
        let mut doc = JsonValue::object()
            .field("version", SPEC_VERSION)
            .field("campaign_seed", self.campaign_seed)
            .field(
                "base",
                JsonValue::object()
                    .field("scale", self.base.scale)
                    .field("error_rate", self.base.faults.error_rate)
                    .field("seed", self.base.faults.seed)
                    .field("area_overhead", self.base.constraints.area_overhead)
                    .field("cycle_overhead", self.base.constraints.cycle_overhead),
            )
            .field("benchmarks", JsonValue::Array(benchmarks))
            .field("schemes", JsonValue::Array(schemes))
            .field("error_rates", JsonValue::Array(error_rates))
            .field("chunk_words", JsonValue::Array(chunk_words))
            .field("replicates", self.replicates)
            .field("normalize", self.normalize)
            .field("golden_check", self.golden_check);
        // Like scenario_range below, the timeline-scenario axis is only
        // emitted when present, so scenario-less specs render (and hash)
        // exactly as they did before the axis existed.
        if !self.timeline_scenarios.is_empty() {
            let defs: Vec<JsonValue> = self
                .timeline_scenarios
                .iter()
                .map(ScenarioDef::to_json)
                .collect();
            doc = doc.field("scenarios", JsonValue::Array(defs));
        }
        // Emitted only when set: unranged specs keep their pre-shard
        // rendering, so every existing spec hash is stable — and every
        // ranged sub-spec hashes differently from its parent and from
        // every sibling range.
        if let Some((start, end)) = self.scenario_range {
            doc = doc.field(
                "scenario_range",
                JsonValue::Array(vec![
                    JsonValue::from(start as u64),
                    JsonValue::from(end as u64),
                ]),
            );
        }
        doc
    }

    /// Deserializes a spec from the wire form produced by
    /// [`CampaignSpec::to_json`]. The `base` object and both boolean
    /// flags are optional (defaulting to the paper configuration,
    /// normalization and golden checks on) so hand-written specs can stay
    /// minimal.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field on any structural,
    /// type, or domain violation (unknown benchmark or scheme kind, zero
    /// replicates, empty axes, a rate outside [0, 1), a scale outside (0, 4],
    /// a BCH strength outside 1..=18 or a chunk outside 1..=512…).
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let version = field_u64(value, "version", "spec")?;
        if version != SPEC_VERSION {
            return Err(format!(
                "spec: unsupported version {version} (this build speaks {SPEC_VERSION})"
            ));
        }
        let campaign_seed = field_u64(value, "campaign_seed", "spec")?;
        let mut base = SystemConfig::paper(0);
        if let Some(base_json) = value.get("base") {
            base.faults.seed = field_u64(base_json, "seed", "base")?;
            base.scale = field_f64(base_json, "scale", "base")?;
            base.faults.error_rate = field_f64(base_json, "error_rate", "base")?;
            let area = field_f64(base_json, "area_overhead", "base")?;
            let cycle = field_f64(base_json, "cycle_overhead", "base")?;
            if !(area > 0.0 && area < 1.0 && cycle > 0.0 && cycle < 1.0) {
                return Err("base: overheads must be in (0, 1)".to_owned());
            }
            base.constraints.area_overhead = area;
            base.constraints.cycle_overhead = cycle;
        }
        let mut spec = CampaignSpec::new(base, campaign_seed);
        let benchmarks = value
            .get("benchmarks")
            .and_then(JsonValue::as_array)
            .ok_or("spec: missing \"benchmarks\" array")?;
        if benchmarks.is_empty() {
            return Err("spec: benchmark axis cannot be empty".to_owned());
        }
        spec.benchmarks = benchmarks
            .iter()
            .map(|b| {
                b.as_str()
                    .ok_or_else(|| "benchmarks: entries must be strings".to_owned())
                    .and_then(benchmark_from_name)
            })
            .collect::<Result<_, _>>()?;
        let schemes = value
            .get("schemes")
            .and_then(JsonValue::as_array)
            .ok_or("spec: missing \"schemes\" array")?;
        if schemes.is_empty() {
            return Err("spec: scheme axis cannot be empty".to_owned());
        }
        spec.schemes = schemes
            .iter()
            .map(|entry| {
                let label = entry
                    .get("label")
                    .and_then(JsonValue::as_str)
                    .ok_or("schemes: entry missing \"label\"")?;
                let scheme_spec = scheme_spec_from_json(
                    entry.get("spec").ok_or("schemes: entry missing \"spec\"")?,
                )?;
                Ok((label.to_owned(), scheme_spec))
            })
            .collect::<Result<_, String>>()?;
        let error_rates = value
            .get("error_rates")
            .and_then(JsonValue::as_array)
            .ok_or("spec: missing \"error_rates\" array")?;
        if error_rates.is_empty() {
            return Err("spec: error-rate axis cannot be empty".to_owned());
        }
        spec.error_rates = error_rates
            .iter()
            .map(|r| {
                r.as_f64()
                    .ok_or_else(|| "error_rates: entries must be numbers".to_owned())
            })
            .collect::<Result<_, _>>()?;
        spec.chunk_words = value
            .get("chunk_words")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|k| {
                let raw = k.as_u64().ok_or_else(|| {
                    "chunk_words: entries must be non-negative integers".to_owned()
                })?;
                narrow(raw, "chunk_words entry")
            })
            .collect::<Result<_, _>>()?;
        spec.replicates = field_u64(value, "replicates", "spec")?;
        if spec.replicates == 0 {
            return Err("spec: replicates must be at least 1".to_owned());
        }
        if let Some(flag) = value.get("normalize") {
            spec.normalize = flag
                .as_bool()
                .ok_or("spec: \"normalize\" must be a boolean")?;
        }
        if let Some(flag) = value.get("golden_check") {
            spec.golden_check = flag
                .as_bool()
                .ok_or("spec: \"golden_check\" must be a boolean")?;
        }
        if let Some(defs) = value.get("scenarios") {
            spec.timeline_scenarios =
                parse_scenarios(defs).map_err(|e| format!("scenarios: {e}"))?;
            validate_scenario_axis(&spec.timeline_scenarios)?;
        }
        if let Some(range) = value.get("scenario_range") {
            let parts = range
                .as_array()
                .ok_or("spec: \"scenario_range\" must be a [start, end) pair")?;
            if parts.len() != 2 {
                return Err(format!(
                    "spec: scenario_range needs exactly [start, end), got {} entries",
                    parts.len()
                ));
            }
            let bound = |part: &JsonValue, name: &str| {
                part.as_u64()
                    .ok_or_else(|| format!("scenario_range: {name} must be a non-negative integer"))
                    .and_then(|raw| narrow::<usize>(raw, "scenario_range bound"))
            };
            let start = bound(&parts[0], "start")?;
            let end = bound(&parts[1], "end")?;
            if start >= end {
                return Err(format!(
                    "spec: scenario_range [{start}, {end}) is empty — start must be < end"
                ));
            }
            spec.scenario_range = Some((start, end));
        }
        check_simulator_ranges(&spec)?;
        Ok(spec)
    }

    /// A stable 64-bit content hash of the spec: FNV-1a over the
    /// canonical [`CampaignSpec::to_json`] rendering. Equal specs hash
    /// equal on every platform; the campaign service uses this as the
    /// job/result-cache key, printed as 16 lowercase hex digits.
    #[must_use]
    pub fn spec_hash(&self) -> u64 {
        let rendered = self.to_json().render();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in rendered.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CampaignSpec {
        let mut config = SystemConfig::paper(0);
        config.scale = 0.25;
        CampaignSpec::new(config, 7)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .scheme(
                "Proposed",
                SchemeSpec::Fixed(MitigationScheme::Hybrid {
                    chunk_words: 16,
                    l1_prime_t: 8,
                }),
            )
            .replicates(2)
    }

    #[test]
    fn grid_past_the_limit_is_refused() {
        let spec = small_spec().replicates(MAX_GRID_SCENARIOS as u64 + 1);
        let err = spec
            .try_scenarios()
            .expect_err("one scenario over the limit");
        assert!(err.contains(&MAX_GRID_SCENARIOS.to_string()), "{err}");
        let err = small_spec()
            .replicates(u64::MAX)
            .try_scenarios()
            .expect_err("u64::MAX");
        assert!(err.contains("limit"), "{err}");
    }

    #[test]
    fn enumeration_is_dense_and_seeded() {
        let scenarios = small_spec().scenarios();
        assert_eq!(scenarios.len(), 4);
        for (i, s) in scenarios.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.seed, scenario_seed(7, i as u64));
        }
        // Same spec, same grid — byte for byte.
        assert_eq!(scenarios, small_spec().scenarios());
    }

    #[test]
    fn chunk_axis_crosses_hybrids_only() {
        let spec = small_spec().chunk_words(&[8, 16, 32]);
        let scenarios = spec.scenarios();
        // Default contributes 2 (replicates), hybrid 3 chunks x 2 replicates.
        assert_eq!(scenarios.len(), 2 + 6);
        let chunks: Vec<Option<u32>> = scenarios.iter().map(Scenario::chunk_words).collect();
        assert_eq!(chunks.iter().filter(|c| c.is_none()).count(), 2);
        for &k in &[8u32, 16, 32] {
            assert_eq!(
                chunks.iter().filter(|c| **c == Some(k)).count(),
                2,
                "chunk {k}"
            );
        }
    }

    #[test]
    fn cells_are_contiguous_replicate_blocks() {
        let spec = small_spec().chunk_words(&[8, 16]);
        let r = spec.replicate_count() as usize;
        let grid = spec.scenarios();
        assert_eq!(grid.len() % r, 0);
        for (cell, block) in grid.chunks(r).enumerate() {
            let key = block[0].cell_key();
            for (offset, s) in block.iter().enumerate() {
                assert_eq!(s.cell_key(), key, "cell {cell} is not one key");
                assert_eq!(s.replicate, offset as u64);
            }
        }
        // Distinct cells carry distinct keys.
        let keys: std::collections::BTreeSet<String> =
            grid.iter().map(Scenario::cell_key).collect();
        assert_eq!(keys.len(), grid.len() / r);
    }

    #[test]
    fn optimal_scheme_resolves_to_feasible_hybrid() {
        let grid = CampaignSpec::new(SystemConfig::paper(0), 0)
            .benchmarks(&[Benchmark::AdpcmDecode])
            .scheme("optimal", SchemeSpec::Optimal)
            .scheme("single", SchemeSpec::OptimalSingleParity)
            .try_scenarios()
            .expect("the paper's constraints admit a design point");
        let (optimal, single) = (grid[0].scheme, grid[1].scheme);
        assert!(matches!(optimal, MitigationScheme::Hybrid { chunk_words, .. } if chunk_words > 0));
        assert!(matches!(
            single,
            MitigationScheme::HybridSingleParity { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "at least one scheme")]
    fn empty_scheme_axis_is_rejected() {
        let _ = CampaignSpec::new(SystemConfig::paper(0), 0).scenarios();
    }

    fn full_spec() -> CampaignSpec {
        let mut config = SystemConfig::paper(3);
        config.scale = 0.5;
        config.faults.error_rate = 2e-6;
        CampaignSpec::new(config, 0xFEED)
            .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::JpegDecode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .scheme("HW", SchemeSpec::Fixed(MitigationScheme::HwEcc { t: 8 }))
            .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
            .scheme(
                "Proposed",
                SchemeSpec::Fixed(MitigationScheme::Hybrid {
                    chunk_words: 16,
                    l1_prime_t: 8,
                }),
            )
            .scheme("Optimal", SchemeSpec::Optimal)
            .scheme("Suboptimal", SchemeSpec::Suboptimal)
            .scheme("1-parity", SchemeSpec::OptimalSingleParity)
            .scheme(
                "Scrub",
                SchemeSpec::Fixed(MitigationScheme::ScrubbedSecded {
                    interval_cycles: 4096,
                }),
            )
            .error_rates(&[1e-7, 1e-6])
            .chunk_words(&[8, 32])
            .replicates(3)
            .normalize(false)
            .golden_check(false)
    }

    #[test]
    fn spec_serde_round_trips_every_axis() {
        let spec = full_spec();
        let json = spec.to_json();
        let back = CampaignSpec::from_json(&json).expect("round trip");
        assert_eq!(back.to_json().render(), json.render());
        assert_eq!(back.campaign_seed, spec.campaign_seed);
        assert_eq!(back.benchmarks, spec.benchmarks);
        assert_eq!(back.schemes, spec.schemes);
        assert_eq!(back.error_rates, spec.error_rates);
        assert_eq!(back.chunk_words, spec.chunk_words);
        assert_eq!(back.replicates, spec.replicates);
        assert_eq!(back.normalize, spec.normalize);
        assert_eq!(back.golden_check, spec.golden_check);
        assert_eq!(back.base, spec.base);
        // Byte-level round trip through the parser too.
        let reparsed = JsonValue::parse(&json.render()).expect("valid JSON");
        let again = CampaignSpec::from_json(&reparsed).expect("parse round trip");
        assert_eq!(again.spec_hash(), spec.spec_hash());
        // And the grid a wire-form spec enumerates is identical (checked
        // on the fixed-scheme spec: full_spec's optimizer entries are
        // deliberately infeasible at its scaled-down config).
        let fixed = small_spec();
        let fixed_back = CampaignSpec::from_json(&fixed.to_json()).expect("fixed round trip");
        assert_eq!(fixed_back.scenarios(), fixed.scenarios());
    }

    #[test]
    fn spec_hash_is_stable_and_content_sensitive() {
        let spec = full_spec();
        assert_eq!(spec.spec_hash(), full_spec().spec_hash());
        let reseeded = CampaignSpec {
            campaign_seed: spec.campaign_seed + 1,
            ..full_spec()
        };
        assert_ne!(spec.spec_hash(), reseeded.spec_hash());
        assert_ne!(spec.spec_hash(), full_spec().replicates(4).spec_hash());
    }

    #[test]
    fn spec_from_json_rejects_bad_documents() {
        let good = full_spec().to_json().render();
        for (mutation, expect) in [
            (good.replace("\"version\":1", "\"version\":99"), "version"),
            (good.replace("ADPCM encode", "ADPCM encoed"), "benchmark"),
            (
                good.replace("\"replicates\":3", "\"replicates\":0"),
                "replicates",
            ),
            (good.replace("sw-restart", "sw-restrat"), "kind"),
            (
                good.replace("\"error_rates\":[0.0000001,0.000001]", "\"error_rates\":[]"),
                "error-rate",
            ),
            (good.replace("\"schemes\":[", "\"schemas\":["), "schemes"),
        ] {
            assert_ne!(mutation, good, "mutation {expect:?} did not apply");
            let value = JsonValue::parse(&mutation).expect("still valid JSON");
            let err = CampaignSpec::from_json(&value).expect_err(expect);
            assert!(
                err.contains(expect),
                "error {err:?} should mention {expect:?}"
            );
        }
    }

    /// Values the simulator asserts on are refused at parse time, so a
    /// spec off the wire never reaches a worker that would panic on it.
    #[test]
    fn spec_from_json_refuses_values_the_simulator_asserts_on() {
        let good = full_spec().to_json().render();
        for (mutation, expect) in [
            (
                good.replace("\"error_rates\":[", "\"error_rates\":[2.0,"),
                "error_rates: entries must be in [0, 1), got 2",
            ),
            (
                good.replace("\"error_rates\":[", "\"error_rates\":[1,"),
                "error_rates: entries must be in [0, 1), got 1",
            ),
            (
                good.replace("\"error_rates\":[", "\"error_rates\":[-0.5,"),
                "error_rates: entries must be in [0, 1)",
            ),
            (
                good.replace("\"error_rate\":0.000002", "\"error_rate\":1.5"),
                "base: error_rate must be in [0, 1), got 1.5",
            ),
            (
                good.replace("\"scale\":0.5", "\"scale\":5.0"),
                "base: scale must be in (0, 4], got 5",
            ),
            (
                good.replace("\"scale\":0.5", "\"scale\":0"),
                "base: scale must be in (0, 4], got 0",
            ),
        ] {
            assert_ne!(mutation, good, "mutation {expect:?} did not apply");
            let value = JsonValue::parse(&mutation).expect("still valid JSON");
            let err = CampaignSpec::from_json(&value).expect_err(expect);
            assert!(err.contains(expect), "error {err:?} should say {expect:?}");
        }
        // The edges of both ranges are accepted.
        let edges = good
            .replace("\"scale\":0.5", "\"scale\":4")
            .replace("\"error_rates\":[", "\"error_rates\":[0,0.999,");
        let spec = CampaignSpec::from_json(&JsonValue::parse(&edges).expect("JSON"))
            .expect("scale 4 and rates 0 and 0.999 are in range");
        assert!((spec.base.scale - 4.0).abs() < f64::EPSILON);
    }

    #[test]
    fn scenario_range_round_trips_and_rehashes() {
        let parent = small_spec();
        let ranged = small_spec().scenario_range(1, 3);
        assert_eq!(ranged.range(), Some((1, 3)));
        // Enumeration is untouched: same grid, same indices, same seeds.
        assert_eq!(ranged.scenarios(), parent.scenarios());
        // But the wire form (and therefore the content hash) differs —
        // from the parent and from any other range.
        assert_ne!(ranged.spec_hash(), parent.spec_hash());
        assert_ne!(
            ranged.spec_hash(),
            small_spec().scenario_range(0, 1).spec_hash()
        );
        let back = CampaignSpec::from_json(&ranged.to_json()).expect("ranged round trip");
        assert_eq!(back.range(), Some((1, 3)));
        assert_eq!(back.to_json().render(), ranged.to_json().render());
        // An unranged spec renders without the field at all (pre-shard
        // hashes stay stable).
        assert!(!parent.to_json().render().contains("scenario_range"));
    }

    #[test]
    fn active_range_clamps_to_grid() {
        let spec = small_spec();
        assert_eq!(spec.active_range(4), 0..4);
        assert_eq!(small_spec().scenario_range(1, 3).active_range(4), 1..3);
        // Ranges beyond the grid clamp rather than index out of bounds.
        assert_eq!(small_spec().scenario_range(2, 99).active_range(4), 2..4);
        assert!(small_spec().scenario_range(7, 9).active_range(4).is_empty());
    }

    #[test]
    fn bad_scenario_ranges_are_rejected() {
        let good = small_spec().scenario_range(1, 3).to_json().render();
        for (mutation, expect) in [
            (
                good.replace("\"scenario_range\":[1,3]", "\"scenario_range\":[3,1]"),
                "start must be < end",
            ),
            (
                good.replace("\"scenario_range\":[1,3]", "\"scenario_range\":[1]"),
                "exactly",
            ),
            (
                good.replace("\"scenario_range\":[1,3]", "\"scenario_range\":true"),
                "pair",
            ),
            (
                good.replace("\"scenario_range\":[1,3]", "\"scenario_range\":[-1,3]"),
                "non-negative",
            ),
        ] {
            assert_ne!(mutation, good, "mutation {expect:?} did not apply");
            let value = JsonValue::parse(&mutation).expect("still valid JSON");
            let err = CampaignSpec::from_json(&value).expect_err(expect);
            assert!(
                err.contains(expect),
                "error {err:?} should mention {expect:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_scenario_range_builder_panics() {
        let _ = small_spec().scenario_range(2, 2);
    }

    fn two_scenarios() -> Vec<ScenarioDef> {
        let mut burst = ScenarioDef::named("burst");
        burst.timeline = vec![TimelineEvent::FaultBurst {
            cycle: 1_000,
            words: 4,
            rate: 0.5,
        }];
        let mut calm = ScenarioDef::named("calm");
        calm.timeline = vec![TimelineEvent::Scrub { period: 4_096 }];
        vec![burst, calm]
    }

    #[test]
    fn scenario_axis_crosses_every_cell() {
        let plain = small_spec().scenarios();
        let grid = small_spec()
            .timeline_scenarios(&two_scenarios())
            .scenarios();
        // Every plain cell crosses with both named scenarios.
        assert_eq!(grid.len(), plain.len() * 2);
        for (i, s) in grid.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.seed, scenario_seed(7, i as u64));
            let name = s.scenario.as_deref().expect("axis entry has a name");
            // The scenario axis sits between chunk and replicate:
            // replicates stay innermost, scenarios alternate per block.
            assert_eq!(name, if (i / 2) % 2 == 0 { "burst" } else { "calm" });
            assert!(s.cell_key().ends_with(&format!(" · {name}")));
        }
        // Scenario-less grids keep scenario-less keys.
        assert!(plain.iter().all(|s| s.scenario.is_none()));
    }

    #[test]
    fn scenario_axis_round_trips_and_rehashes() {
        let plain = small_spec();
        let spec = small_spec().timeline_scenarios(&two_scenarios());
        assert_eq!(spec.timeline_scenario_axis().len(), 2);
        assert!(spec.scenario_def("burst").is_some());
        assert!(spec.scenario_def("missing").is_none());
        let back = CampaignSpec::from_json(&spec.to_json()).expect("scenario round trip");
        assert_eq!(back.to_json().render(), spec.to_json().render());
        assert_eq!(back.scenarios(), spec.scenarios());
        // The axis is part of the content hash…
        assert_ne!(spec.spec_hash(), plain.spec_hash());
        // …down to the timeline payload, not just the names.
        let mut edited = two_scenarios();
        edited[0].timeline = vec![TimelineEvent::FaultBurst {
            cycle: 2_000,
            words: 4,
            rate: 0.5,
        }];
        assert_ne!(
            spec.spec_hash(),
            small_spec().timeline_scenarios(&edited).spec_hash()
        );
        // A scenario-less spec renders without the field at all.
        assert!(!plain.to_json().render().contains("\"scenarios\""));
    }

    #[test]
    fn scenario_axis_rejects_bad_definitions() {
        let mut switcher = ScenarioDef::named("switch");
        switcher.timeline = vec![TimelineEvent::TaskSwitch {
            cycle: 0,
            task: "No such codec".to_owned(),
        }];
        // Inject past the builder's validation to exercise the parser's.
        let mut doctored = small_spec();
        doctored.timeline_scenarios = vec![switcher];
        let rendered = doctored.to_json();
        let err = CampaignSpec::from_json(&rendered).expect_err("unknown task_switch target");
        assert!(err.contains("unknown benchmark"), "got {err:?}");
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn scenario_builder_panics_on_unknown_task_switch_target() {
        let mut switcher = ScenarioDef::named("switch");
        switcher.timeline = vec![TimelineEvent::TaskSwitch {
            cycle: 0,
            task: "No such codec".to_owned(),
        }];
        let _ = small_spec().timeline_scenarios(&[switcher]);
    }

    #[test]
    #[should_panic(expected = "duplicate scenario name")]
    fn scenario_builder_panics_on_duplicate_names() {
        let twice = vec![ScenarioDef::named("dup"), ScenarioDef::named("dup")];
        let _ = small_spec().timeline_scenarios(&twice);
    }

    #[test]
    fn minimal_spec_defaults_match_builder() {
        let value = JsonValue::parse(
            r#"{"version":1,"campaign_seed":5,
                "benchmarks":["ADPCM encode"],
                "schemes":[{"label":"Default","spec":{"kind":"fixed","scheme":{"kind":"default"}}}],
                "error_rates":[0.000001],"replicates":1}"#,
        )
        .unwrap();
        let spec = CampaignSpec::from_json(&value).expect("minimal spec");
        assert!(spec.is_normalized() && spec.checks_golden());
        assert_eq!(spec.base, SystemConfig::paper(0));
        assert_eq!(spec.scenarios().len(), 1);
    }
}
