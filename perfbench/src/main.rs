//! The workspace benchmark: one workload per invocation, run as a closed
//! loop of campaigns by one client with one campaign outstanding.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_grid --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics
//! of `BENCHMARK.json`, measured with tracing off; with `--trace 1` it
//! carries the per-layer metrics of a separate traced run, which also
//! prints self-time and slice tables to stderr and writes its spans to
//! `.perfbench_run/trace-<workload>.jsonl`. Run from the repository
//! root.

mod grids;
mod layers;
mod run;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use chunkpoint_campaign::JsonValue;

use grids::Workload;
use layers::{scrape, Layers, Scrapes, PER_LAYER};
use run::{check_against_oracle, cpu_seconds, digest_problem, peak_rss_mb, run_one, set_up, Done};
use stats::{median, tail_percentile, valid_name, valid_unit, FailCount};

/// Campaigns a timed loop needs for ten to lie beyond its p90.
const MIN_CAMPAIGNS: usize = 100;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Length of a throughput block.
const BLOCK: Duration = Duration::from_secs(1);
/// The loop never runs past this, whatever `MIN_CAMPAIGNS` asks, so a
/// run with its oracle check stays within three minutes.
const LOOP_CAP: Duration = Duration::from_secs(90);
/// Per-run scratch space, inside the checkout.
const RUN_DIR: &str = ".perfbench_run";
/// The committed reference digests.
const DIGESTS: &str = "perfbench/digests.txt";

/// Per-block throughput and CPU cost of the timed loop.
#[derive(Debug, Default)]
struct Blocks {
    rate: Vec<f64>,
    cpu_ms: Vec<f64>,
}

/// Every end-to-end metric with its unit.
const END_TO_END: [(&str, &str); 7] = [
    ("scenarios_per_s", "1/s"),
    ("campaign_ms_p50", "ms"),
    ("campaign_ms_p90", "ms"),
    ("cpu_ms_per_scenario", "ms"),
    ("peak_rss_mb", "MB"),
    ("campaign_ok_ratio", "ratio"),
    ("setup_s", "s"),
];

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Shrinks every grid and relaxes the run-length rules; only the
    /// self-tests set it.
    smoke: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke: false,
    })
}

/// The metric names and units `BENCHMARK.json` declares for this mode,
/// checked against the naming rules.
fn declared_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let list = doc
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))?;
    let mut out = Vec::new();
    for entry in list {
        let field = |f: &str| entry.get(f).and_then(JsonValue::as_str).map(str::to_owned);
        let (Some(name), Some(unit)) = (field("name"), field("unit")) else {
            return Err(format!("BENCHMARK.json: {key} entry without name or unit"));
        };
        if !valid_name(&name) || !valid_unit(&unit) {
            return Err(format!(
                "BENCHMARK.json: bad metric {name:?} / unit {unit:?}"
            ));
        }
        out.push((name, unit));
    }
    Ok(out)
}

/// Renders the result line, checking that it carries exactly the
/// declared metrics with the declared units.
fn result_line(
    declared: &[(String, String)],
    metrics: &BTreeMap<&'static str, (f64, &'static str)>,
    correct: bool,
    fails: FailCount,
) -> Result<String, String> {
    let mut out = JsonValue::object();
    for (name, unit) in declared {
        let (value, measured_unit) = metrics
            .get(name.as_str())
            .ok_or_else(|| format!("declared metric {name} is not measured"))?;
        if measured_unit != unit {
            return Err(format!(
                "{name}: measured in {measured_unit}, declared {unit}"
            ));
        }
        if !value.is_finite() {
            return Err(format!("{name}: non-finite value {value}"));
        }
        out = out.field(
            name,
            JsonValue::object()
                .field("value", *value)
                .field("unit", unit.as_str()),
        );
    }
    if let Some(extra) = metrics
        .keys()
        .find(|name| !declared.iter().any(|(d, _)| d == *name))
    {
        return Err(format!("measured metric {extra} is not declared"));
    }
    Ok(JsonValue::object()
        .field("correct", correct)
        .field("attempted", fails.attempted)
        .field("failed", fails.failed)
        .field("metrics", out)
        .render())
}

/// What a run reports.
struct Outcome {
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    fails: FailCount,
    problems: Vec<String>,
}

fn run_workload(args: &Args, threads: usize, dir: &Path) -> Result<Outcome, String> {
    let digests = std::fs::read_to_string(DIGESTS).unwrap_or_default();
    let mut problems = Vec::new();
    let mut setup_secs = Vec::new();
    let mut stage = None;
    for k in 0..SETUPS {
        let (next, setup) = set_up(
            args.workload,
            args.smoke,
            threads,
            &dir.join(format!("setup{k}")),
        )
        .map_err(|e| format!("set-up: {e}"))?;
        eprintln!(
            "{}: set-up {k}: {:.3} s, reference digest {:016x}",
            args.workload.name(),
            setup.seconds,
            setup.digest
        );
        setup_secs.push(setup.seconds);
        if !setup.oracle_ok {
            problems.push(format!(
                "set-up {k}: reference campaign differs from its oracle"
            ));
        }
        if !args.smoke {
            problems.extend(
                digest_problem(&digests, args.workload, setup.digest)
                    .map(|p| format!("set-up {k}: {p}")),
            );
        }
        if let Some(old) = stage.replace(next) {
            old.stop();
        }
    }
    let stage = stage.expect("at least one set-up");
    let executor = stage.executor();
    let mut layers = args
        .trace
        .then(|| Layers::new(args.workload, args.smoke, threads));
    let min_campaigns = if args.smoke { 4 } else { MIN_CAMPAIGNS };

    let mut done: Vec<Done> = Vec::new();
    // Throughput and CPU per scenario are medians over blocks of about
    // a second, so a burst of host noise moves one block, not the run.
    let mut blocks = Blocks::default();
    let start = Instant::now();
    let mut block = (start, cpu_seconds(), 0usize);
    while (start.elapsed().as_secs_f64() < args.seconds || done.len() < min_campaigns)
        && start.elapsed() < LOOP_CAP
    {
        let k = done.len() as u64;
        let spec = args.workload.spec(args.seed, k, args.smoke);
        let baseline = args.workload.baseline(args.seed, k, args.smoke);
        // Traced runs trace campaigns in pairs (a fresh campaign and its
        // edit) and leave the next pair untraced, for the overhead ratio.
        let traced = layers.is_some() && (k / 2).is_multiple_of(2);
        let before = traced.then(|| scrape(&stage)).flatten();
        let busy_before = Layers::busy_seconds();
        let mut d = run_one(
            &stage,
            executor.as_ref(),
            k,
            spec,
            baseline.as_ref(),
            traced,
        );
        if let Some(layers) = layers.as_mut() {
            if traced {
                let after = scrape(&stage);
                let scrapes = before
                    .zip(after)
                    .map(|(before, after)| Scrapes { before, after });
                layers.traced(&stage, &d, busy_before, scrapes.as_ref());
            } else {
                layers.untraced(&d);
            }
        }
        block.2 += d.rows;
        d.compact();
        done.push(d);
        if block.0.elapsed() >= BLOCK {
            let cpu = cpu_seconds();
            let scenarios = block.2.max(1) as f64;
            blocks
                .rate
                .push(scenarios / block.0.elapsed().as_secs_f64());
            blocks.cpu_ms.push((cpu - block.1) * 1e3 / scenarios);
            block = (Instant::now(), cpu, 0);
        }
    }
    if blocks.rate.is_empty() {
        // A loop shorter than one block (smoke runs) is its own block.
        let scenarios = block.2.max(1) as f64;
        blocks
            .rate
            .push(scenarios / block.0.elapsed().as_secs_f64());
        blocks
            .cpu_ms
            .push((cpu_seconds() - block.1) * 1e3 / scenarios);
    }
    let rss = peak_rss_mb();
    stage.stop();

    let verdicts = check_against_oracle(&done, threads);
    let mut fails = FailCount::default();
    for (d, ok) in done.iter().zip(&verdicts) {
        fails.record(*ok);
        if let (false, Err(e)) = (ok, &d.run) {
            problems.push(format!("campaign {}: {e}", d.k));
        } else if !ok {
            problems.push(format!("campaign {}: report differs from the oracle", d.k));
        }
    }

    let mut metrics = BTreeMap::new();
    if let Some(layers) = layers.as_mut() {
        for (name, value) in layers.finish() {
            let unit = PER_LAYER
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("?", |(_, u)| *u);
            metrics.insert(name, (value, unit));
        }
        let path = Path::new(RUN_DIR).join(format!("trace-{}.jsonl", args.workload.name()));
        std::fs::create_dir_all(RUN_DIR)
            .and_then(|()| layers.tracer.write_jsonl(&path))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    } else {
        let latencies: Vec<f64> = done.iter().map(|d| d.latency_s() * 1e3).collect();
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q) as usize];
        eprintln!(
            "{}: {} campaigns, ms min {:.1} p25 {:.1} p50 {:.1} p75 {:.1} p90 {:.1} max {:.1}",
            args.workload.name(),
            sorted.len(),
            at(0.0),
            at(0.25),
            at(0.5),
            at(0.75),
            at(0.9),
            at(1.0)
        );
        // Smoke runs are too short for the tail rule; they report the max.
        let p90 = match tail_percentile(&latencies, 90) {
            Ok(p90) => p90,
            Err(_) if args.smoke => at(1.0),
            Err(e) => {
                problems.push(e);
                f64::NAN
            }
        };
        for (name, value) in [
            ("scenarios_per_s", median(&blocks.rate)),
            ("campaign_ms_p50", median(&latencies)),
            ("campaign_ms_p90", p90),
            ("cpu_ms_per_scenario", median(&blocks.cpu_ms)),
            ("peak_rss_mb", rss),
            ("campaign_ok_ratio", fails.ok_ratio()),
            ("setup_s", median(&setup_secs)),
        ] {
            let unit = END_TO_END
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("?", |(_, u)| *u);
            metrics.insert(name, (value, unit));
        }
    }
    Ok(Outcome {
        metrics,
        fails,
        problems,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper_grid|fault_storm|sharded_stream> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let declared = match declared_metrics(args.trace) {
        Ok(declared) => declared,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let dir = PathBuf::from(RUN_DIR).join(format!(
        "{}-{}-{stamp}",
        args.workload.name(),
        std::process::id()
    ));
    // Backend stores and caches are per run and are left in place:
    // deleting a sharded run's stores (~2 MB of small files per second
    // of run) raised the system time of the runs after it, doubling
    // `sharded_stream`'s CPU per scenario over five back-to-back runs
    // on an ext4 disk. Remove `.perfbench_run` by hand.
    let outcome = run_workload(&args, threads, &dir);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: FAIL {problem}");
    }
    println!(
        "{}",
        JsonValue::object()
            .field("workload", args.workload.name())
            .field("seed", args.seed)
            .field("cpus_available", threads)
            .field("threads", threads)
            .field("loop", "closed, 1 client, 1 campaign outstanding")
            .render()
    );
    match result_line(
        &declared,
        &outcome.metrics,
        outcome.problems.is_empty(),
        outcome.fails,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn arguments_are_checked() {
        let ok = args(&[
            "--workload",
            "fault_storm",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(ok.workload, Workload::FaultStorm);
        assert!(ok.trace && !ok.smoke);
        let smoke = args(&["--smoke", "--workload", "paper_grid", "--seed", "1"]);
        assert!(
            smoke.is_err(),
            "the smoke size is not a command-line option"
        );
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "paper_grid",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "paper_grid", "--seed", "1", "--trace", "0"]).is_err());
    }

    #[test]
    fn result_lines_carry_exactly_the_declared_metrics() {
        let declared = vec![("a_ms".to_owned(), "ms".to_owned())];
        let mut metrics = BTreeMap::new();
        metrics.insert("a_ms", (1.5, "ms"));
        let fails = FailCount {
            attempted: 3,
            failed: 1,
        };
        let line = result_line(&declared, &metrics, false, fails).unwrap();
        assert_eq!(
            line,
            "{\"correct\":false,\"attempted\":3,\"failed\":1,\
             \"metrics\":{\"a_ms\":{\"value\":1.5,\"unit\":\"ms\"}}}"
        );
        metrics.insert("b_ms", (2.0, "ms"));
        assert!(result_line(&declared, &metrics, true, fails).is_err());
        metrics.remove("b_ms");
        metrics.insert("a_ms", (1.0, "s"));
        assert!(result_line(&declared, &metrics, true, fails).is_err());
    }

    #[test]
    fn every_workload_runs_a_smoke_size_traced_and_untraced() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload,
                    seed: 5,
                    seconds: 0.2,
                    trace,
                    smoke: true,
                };
                let dir = PathBuf::from(RUN_DIR).join(format!("smoke-{}-{trace}", workload.name()));
                let outcome = run_workload(&args, 2, &dir).expect("smoke run");
                let _ = std::fs::remove_dir_all(&dir);
                let name = workload.name();
                assert!(
                    outcome.problems.is_empty(),
                    "{name}: {:?}",
                    outcome.problems
                );
                assert!(outcome.fails.attempted >= 4, "{name}");
                assert_eq!(outcome.fails.failed, 0, "{name}");
                let measured: Vec<&str> = outcome.metrics.keys().copied().collect();
                let mut expected: Vec<&str> = if trace {
                    PER_LAYER.iter().map(|(n, _)| *n).collect()
                } else {
                    END_TO_END.iter().map(|(n, _)| *n).collect()
                };
                expected.sort_unstable();
                assert_eq!(measured, expected, "{name} trace={trace}");
                assert!(
                    outcome.metrics.values().all(|(v, _)| v.is_finite()),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn declared_metrics_match_the_measured_sets() {
        // Run from the package directory; BENCHMARK.json is one level up.
        let text = std::fs::read_to_string("../BENCHMARK.json").unwrap();
        let doc = JsonValue::parse(&text).unwrap();
        for (key, measured) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: Vec<(String, String)> = doc
                .get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|e| {
                    let f = |k: &str| e.get(k).and_then(JsonValue::as_str).unwrap().to_owned();
                    (f("name"), f("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = measured
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(names, expected, "{key}");
            assert!(names.iter().all(|(n, u)| valid_name(n) && valid_unit(u)));
        }
    }
}
