//! The `shard` binary: run one campaign spec across several running
//! `serve` instances and write the merged canonical report.
//!
//! ```text
//! shard --backends HOST:PORT[,HOST:PORT...] --spec PATH [--json PATH]
//!       [--poll-ms N] [--timeout-secs N]
//!       [--strikes N] [--attempts N] [--cache-dir PATH]
//!       [--cache-max-bytes N] [--baseline PATH] [--metrics-out PATH]
//!       [--quiet]
//! ```
//!
//! The report written by `--json` (stdout without it) is byte-identical
//! to what a single `serve` instance — or an in-process single-threaded
//! run — would produce for the same spec. The grid splits evenly across
//! the backends. Dispatch decisions stream to stderr as structured JSON
//! trace events (`--quiet` silences them; errors always reach stderr).
//!
//! `--cache-dir` enables the coordinator's range-granular result cache:
//! sealed sub-ranges on disk are spliced into the merge instead of
//! re-executed, and every completed shard writes its rows back.
//! `--cache-max-bytes` bounds that cache's footprint: after the run's
//! write-back, range files are evicted oldest-modification-time first
//! until the cache fits the budget (evictions land on the
//! `shard_cache_evictions_total` counter).
//! `--baseline OLD_SPEC` additionally runs the spec diff against a
//! previously cached campaign and seeds the current spec's cache with
//! every translated row whose `(seed, parameters)` survived the edit —
//! the incremental-campaign path, where only changed cells execute. A
//! spec whose grid does not enumerate (an infeasible optimizer entry, a
//! grid past the scenario limit) exits 1 naming its file, with or
//! without a baseline.

use std::time::{Duration, Instant};

use chunkpoint_campaign::{diff_specs, translate_rows, CampaignSpec, JsonValue, Scenario};
use chunkpoint_shard::{run_sharded, RangeCache, ShardConfig};
use chunkpoint_telemetry::Tracer;

const USAGE: &str = "chunkpoint shard coordinator:
  --backends LIST    comma-separated serve addresses (HOST:PORT), required
  --spec PATH        campaign spec JSON (canonical wire form), required
  --json PATH        write the merged canonical report here (default: stdout)
  --poll-ms N        wait bound of one sweep in milliseconds (default 400): the
                     longest a status request waits at a backend for its job
  --timeout-secs N   per-request timeout in seconds (default 10)
  --strikes N        consecutive failures opening a backend's breaker (default 3)
  --attempts N       dispatch attempts per shard before giving up (default 5)
  --cache-dir PATH   range-granular result cache root: sealed sub-ranges are
                     spliced instead of re-executed, completed shards write back
  --cache-max-bytes N after the run, evict cached range files oldest-mtime
                     first until the cache root fits N bytes
                     (requires --cache-dir)
  --baseline PATH    old spec JSON of a cached campaign: spec-diff it against
                     --spec and seed the cache with unchanged cells' rows
                     (requires --cache-dir)
  --metrics-out PATH write the process's Prometheus text exposition here at exit
                     (shard_cache_hits_total and friends)
  --quiet            suppress the stderr trace-event stream (errors still print)
  --help             this text";

struct Args {
    backends: Vec<String>,
    spec_path: String,
    json: Option<String>,
    cache_dir: Option<String>,
    cache_max_bytes: Option<u64>,
    baseline: Option<String>,
    metrics_out: Option<String>,
    quiet: bool,
    config: ShardConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut backends = Vec::new();
    let mut spec_path = None;
    let mut json = None;
    let mut cache_dir = None;
    let mut cache_max_bytes = None;
    let mut baseline = None;
    let mut metrics_out = None;
    let mut quiet = false;
    let mut config = ShardConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value_of = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value\n\n{USAGE}"))
        };
        match flag.as_str() {
            "--backends" => {
                backends = value_of("--backends")?
                    .split(',')
                    .map(str::trim)
                    .filter(|part| !part.is_empty())
                    .map(str::to_owned)
                    .collect();
            }
            "--spec" => spec_path = Some(value_of("--spec")?),
            "--json" => json = Some(value_of("--json")?),
            "--cache-dir" => cache_dir = Some(value_of("--cache-dir")?),
            "--cache-max-bytes" => {
                cache_max_bytes = Some(
                    value_of("--cache-max-bytes")?
                        .parse::<u64>()
                        .map_err(|e| format!("--cache-max-bytes: {e}\n\n{USAGE}"))?,
                );
            }
            "--baseline" => baseline = Some(value_of("--baseline")?),
            "--metrics-out" => metrics_out = Some(value_of("--metrics-out")?),
            "--poll-ms" => {
                let ms: u64 = value_of("--poll-ms")?
                    .parse()
                    .map_err(|e| format!("--poll-ms: {e}\n\n{USAGE}"))?;
                config.poll_interval = Duration::from_millis(ms);
            }
            "--timeout-secs" => {
                let secs: u64 = value_of("--timeout-secs")?
                    .parse()
                    .map_err(|e| format!("--timeout-secs: {e}\n\n{USAGE}"))?;
                if secs == 0 {
                    return Err(format!("--timeout-secs must be at least 1\n\n{USAGE}"));
                }
                config.request_timeout = Duration::from_secs(secs);
            }
            "--strikes" => {
                config.backend_strikes = value_of("--strikes")?
                    .parse()
                    .map_err(|e| format!("--strikes: {e}\n\n{USAGE}"))?;
                if config.backend_strikes == 0 {
                    return Err(format!("--strikes must be at least 1\n\n{USAGE}"));
                }
            }
            "--attempts" => {
                config.shard_attempts = value_of("--attempts")?
                    .parse()
                    .map_err(|e| format!("--attempts: {e}\n\n{USAGE}"))?;
                if config.shard_attempts == 0 {
                    return Err(format!("--attempts must be at least 1\n\n{USAGE}"));
                }
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    if backends.is_empty() {
        return Err(format!("--backends is required\n\n{USAGE}"));
    }
    let spec_path = spec_path.ok_or_else(|| format!("--spec is required\n\n{USAGE}"))?;
    if baseline.is_some() && cache_dir.is_none() {
        return Err(format!("--baseline requires --cache-dir\n\n{USAGE}"));
    }
    if cache_max_bytes.is_some() && cache_dir.is_none() {
        return Err(format!("--cache-max-bytes requires --cache-dir\n\n{USAGE}"));
    }
    config.cache_dir = cache_dir.clone().map(std::path::PathBuf::from);
    Ok(Args {
        backends,
        spec_path,
        json,
        cache_dir,
        cache_max_bytes,
        baseline,
        metrics_out,
        quiet,
        config,
    })
}

/// Reads, parses and enumerates the spec at `path`. A grid that does
/// not enumerate is refused here, naming the file: the spec diff of
/// `--baseline` would panic on it.
fn load_spec(path: &str) -> Result<(CampaignSpec, Vec<Scenario>), String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let spec = JsonValue::parse(&raw)
        .map_err(|e| e.to_string())
        .and_then(|value| CampaignSpec::from_json(&value))
        .map_err(|e| format!("{path}: {e}"))?;
    let grid = spec
        .try_scenarios()
        .map_err(|e| format!("{path}: spec rejected: {e}"))?;
    Ok((spec, grid))
}

fn main() {
    let mut args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(if message == USAGE { 0 } else { 2 });
        }
    };
    let spec = match load_spec(&args.spec_path) {
        Ok((spec, _)) => spec,
        Err(e) => {
            eprintln!("shard: {e}");
            std::process::exit(1);
        }
    };
    // Progress narration: structured JSON trace events on stderr — the
    // coordinator traces every dispatch decision through the tracer in
    // its config, and the binary frames the run with its own span.
    // `--quiet` silences all of it in one place; errors still print.
    // The merged report alone goes to stdout/--json.
    let tracer = if args.quiet {
        Tracer::disabled()
    } else {
        Tracer::to_stderr()
    };
    args.config.tracer = tracer.clone();
    let span = tracer.root("shard_bin");
    // Incremental campaigns: diff the baseline spec against the new
    // one and seed the new campaign's cache with every translated row
    // — the subsequent run then dispatches only the changed cells.
    if let (Some(baseline_path), Some(cache_dir)) = (&args.baseline, &args.cache_dir) {
        let (old_spec, old_grid) = match load_spec(baseline_path) {
            Ok(loaded) => loaded,
            Err(e) => {
                eprintln!("shard: --baseline {e}");
                std::process::exit(1);
            }
        };
        let cache = RangeCache::new(cache_dir);
        let old_rows: Vec<_> = cache.load(&old_spec, &old_grid).into_values().collect();
        let translated = translate_rows(&old_spec, &spec, &old_rows);
        if let Err(e) = cache.store_scattered(&spec, &translated) {
            eprintln!("shard: seeding cache from baseline: {e}");
            std::process::exit(1);
        }
        let diff = diff_specs(&old_spec, &spec);
        span.event(
            "baseline",
            JsonValue::object()
                .field("cached_rows", old_rows.len())
                .field("translated", translated.len())
                .field("reusable", diff.reused())
                .field("changed", diff.changed),
        );
    }
    span.event(
        "dispatching",
        JsonValue::object()
            .field("backends", args.backends.len())
            .field("addrs", args.backends.join(",")),
    );
    let start = Instant::now();
    let run = match run_sharded(&spec, &args.backends, &args.config) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("shard: {e}");
            std::process::exit(1);
        }
    };
    span.event(
        "summary",
        JsonValue::object()
            .field("scenarios", run.results.len())
            .field("shards", run.shards)
            .field("dispatches", run.dispatches)
            .field("failures", run.failures)
            .field("spliced", run.spliced)
            .field("secs", start.elapsed().as_secs_f64()),
    );
    // Budget sweep after write-back, before the metrics snapshot, so
    // this run's evictions are visible in --metrics-out.
    if let (Some(max_bytes), Some(cache_dir)) = (args.cache_max_bytes, &args.cache_dir) {
        let evicted = RangeCache::new(cache_dir).gc(max_bytes);
        chunkpoint_shard::cache_evictions().add(evicted as u64);
        span.event(
            "cache_gc",
            JsonValue::object()
                .field("max_bytes", max_bytes)
                .field("evicted", evicted),
        );
    }
    if let Some(path) = &args.metrics_out {
        let text = chunkpoint_telemetry::render_text(chunkpoint_telemetry::global());
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("shard: writing {path}: {e}");
            std::process::exit(1);
        }
    }
    let mut report = run.report;
    match &args.json {
        Some(path) => {
            report.push('\n');
            if let Err(e) = std::fs::write(path, &report) {
                eprintln!("shard: writing {path}: {e}");
                std::process::exit(1);
            }
            span.event("wrote", JsonValue::object().field("path", path.as_str()));
        }
        None => println!("{report}"),
    }
}
