//! The closed loop: backends, set-up, one campaign at a time through the
//! executor, and the single-thread oracle every report is checked
//! against.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chunkpoint_campaign::{
    canonical_report_json, diff_specs, run_campaign, translate_rows, CampaignSpec,
};
use chunkpoint_exec::{
    CampaignEvent, CampaignExecutor, CampaignRun, LocalExecutor, ShardedExecutor,
};
use chunkpoint_serve::{ServeConfig, Server, REPORT_AXES};
use chunkpoint_shard::{exchange, RangeCache};

use crate::grids::{
    committed_digest, fnv64, stats_digest, Workload, DEFAULT_SEED, REFERENCE_CAMPAIGN,
};

/// Timeout of the benchmark's own HTTP exchanges.
pub const HTTP_TIMEOUT: Duration = Duration::from_secs(10);

/// In-process `serve` backends, each with 1 job and 1 worker.
#[derive(Debug)]
pub struct Backends {
    /// `HOST:PORT` of each backend.
    pub addrs: Vec<String>,
    threads: Vec<JoinHandle<()>>,
}

impl Backends {
    /// Binds `count` backends with their stores under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates bind and store errors.
    pub fn start(dir: &Path, count: usize) -> std::io::Result<Self> {
        let mut addrs = Vec::new();
        let mut threads = Vec::new();
        for k in 0..count {
            let server = Server::bind(&ServeConfig {
                addr: "127.0.0.1:0".to_owned(),
                data_dir: dir.join(format!("backend{k}")),
                max_jobs: 1,
                campaign_threads: 1,
                max_queued: 0,
                trace_out: None,
            })?;
            addrs.push(server.local_addr()?.to_string());
            threads.push(std::thread::spawn(move || server.run()));
        }
        Ok(Self { addrs, threads })
    }

    /// Shuts every backend down and waits for its thread to end.
    pub fn stop(self) {
        for addr in &self.addrs {
            let _ = exchange(addr, "POST", "/shutdown", None, HTTP_TIMEOUT);
        }
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Where one set-up's campaigns run.
#[derive(Debug)]
pub struct Stage {
    /// Worker threads of the local executor.
    pub threads: usize,
    /// Backends of the sharded executor.
    pub backends: Option<Backends>,
    /// The sharded executor's range cache.
    pub cache_dir: Option<PathBuf>,
}

impl Stage {
    /// The workload's executor.
    pub fn executor(&self) -> Box<dyn CampaignExecutor> {
        match (&self.backends, &self.cache_dir) {
            (Some(backends), Some(cache)) => {
                Box::new(ShardedExecutor::new(backends.addrs.clone()).with_cache_dir(cache.clone()))
            }
            _ => Box::new(LocalExecutor::new(self.threads)),
        }
    }

    /// Stops the backends, if any.
    pub fn stop(self) {
        if let Some(backends) = self.backends {
            backends.stop();
        }
    }
}

/// Timings of the incremental seeding step of an edited campaign.
#[derive(Debug, Clone, Copy, Default)]
pub struct Seeding {
    /// `RangeCache::load` of the baseline's rows.
    pub load: Duration,
    /// `diff_specs` + `translate_rows`.
    pub diff: Duration,
    /// `store_scattered` of the translated rows.
    pub store: Duration,
    /// Rows the baseline supplied.
    pub rows: usize,
}

/// One finished campaign of the loop.
#[derive(Debug)]
pub struct Done {
    /// Campaign number.
    pub k: u64,
    /// The spec submitted.
    pub spec: CampaignSpec,
    /// The executor's answer.
    pub run: Result<CampaignRun, String>,
    /// Start of the campaign (seeding included).
    pub started: Instant,
    /// Submit to executor return.
    pub submitted: Instant,
    /// Executor return, the report in hand.
    pub finished: Instant,
    /// Events with their arrival times (kept only when asked).
    pub events: Vec<(Instant, CampaignEvent)>,
    /// Seeding timings of an edited campaign.
    pub seeding: Option<Seeding>,
    /// Rows in the report (spliced rows included).
    pub rows: usize,
    /// Digest of the report bytes, checked against the oracle's.
    pub report_digest: u64,
}

impl Done {
    /// Start to report, in seconds.
    pub fn latency_s(&self) -> f64 {
        (self.finished - self.started).as_secs_f64()
    }

    /// Drops the rows, report and events once they have been used, so
    /// the loop's own bookkeeping does not grow the peak RSS it reports.
    pub fn compact(&mut self) {
        if let Ok(run) = &mut self.run {
            run.results = Vec::new();
            run.report = String::new();
        }
        self.events = Vec::new();
    }
}

/// Runs one campaign: seeds the cache from `baseline` when given, then
/// submits and waits. `keep_events` timestamps every event.
pub fn run_one(
    stage: &Stage,
    executor: &dyn CampaignExecutor,
    k: u64,
    spec: CampaignSpec,
    baseline: Option<&CampaignSpec>,
    keep_events: bool,
) -> Done {
    let started = Instant::now();
    let seeding = match (baseline, &stage.cache_dir) {
        (Some(old), Some(dir)) => Some(seed_cache(&RangeCache::new(dir), old, &spec)),
        _ => None,
    };
    let seeded = seeding.is_none() || seeding.as_ref().is_some_and(|s| s.rows > 0);
    let submitted = Instant::now();
    let handle = executor.submit(&spec);
    let mut events = Vec::new();
    if keep_events {
        for event in handle.events() {
            events.push((Instant::now(), event));
        }
    }
    let run = handle.wait().map_err(|e| e.to_string());
    let finished = Instant::now();
    let run = match run {
        Ok(_) if !seeded => Err("incremental seeding found no baseline rows".to_owned()),
        other => other,
    };
    let (rows, report_digest) = run.as_ref().map_or((0, 0), |run| {
        (run.results.len(), fnv64(run.report.as_bytes()))
    });
    Done {
        k,
        spec,
        run,
        started,
        submitted,
        finished,
        events,
        seeding,
        rows,
        report_digest,
    }
}

/// Seeds `new`'s cache entries from `old`'s sealed rows, the way
/// `shard --baseline` does.
fn seed_cache(cache: &RangeCache, old: &CampaignSpec, new: &CampaignSpec) -> Seeding {
    let grid = old.scenarios();
    let t = Instant::now();
    let old_rows: Vec<_> = cache.load(old, &grid).into_values().collect();
    let load = t.elapsed();
    let t = Instant::now();
    let translated = translate_rows(old, new, &old_rows);
    let _ = diff_specs(old, new);
    let diff = t.elapsed();
    let t = Instant::now();
    // A failed store only costs splices; the report stays exact.
    let _ = cache.store_scattered(new, &translated);
    let store = t.elapsed();
    Seeding {
        load,
        diff,
        store,
        rows: old_rows.len(),
    }
}

/// The oracle's report: a single-thread in-process run of `spec`.
pub fn oracle_report(spec: &CampaignSpec) -> String {
    let result = run_campaign(spec, 1);
    canonical_report_json(spec.campaign_seed, &result.results, &REPORT_AXES).render()
}

/// Whether each campaign's report matches the oracle's bytes, checked
/// on `threads` workers with one single-thread oracle each.
pub fn check_against_oracle(done: &[Done], threads: usize) -> Vec<bool> {
    let mut verdicts = vec![false; done.len()];
    let chunk = done.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        for (campaigns, out) in done.chunks(chunk).zip(verdicts.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (d, ok) in campaigns.iter().zip(out.iter_mut()) {
                    *ok = d.run.is_ok()
                        && d.report_digest == fnv64(oracle_report(&d.spec).as_bytes());
                }
            });
        }
    });
    verdicts
}

/// What one set-up measured.
#[derive(Debug)]
pub struct SetupOutcome {
    /// Wall time of the set-up.
    pub seconds: f64,
    /// Digest of the reference campaign's simulated statistics.
    pub digest: u64,
    /// Whether the reference campaign matched its oracle.
    pub oracle_ok: bool,
}

/// One set-up: spec generation with optimizer resolution, backend bind,
/// the reference campaign's oracle, and the reference campaign itself
/// as warm-up.
///
/// # Errors
///
/// Propagates backend bind errors.
pub fn set_up(
    workload: Workload,
    smoke: bool,
    threads: usize,
    dir: &Path,
) -> std::io::Result<(Stage, SetupOutcome)> {
    let t = Instant::now();
    let spec = workload.spec(DEFAULT_SEED, REFERENCE_CAMPAIGN, smoke);
    let _ = spec.scenarios();
    let (backends, cache_dir) = if workload.sharded() {
        let _ = std::fs::remove_dir_all(dir);
        (Some(Backends::start(dir, 2)?), Some(dir.join("cache")))
    } else {
        (None, None)
    };
    let stage = Stage {
        threads,
        backends,
        cache_dir,
    };
    let expected = oracle_report(&spec);
    let executor = stage.executor();
    let done = run_one(
        &stage,
        executor.as_ref(),
        REFERENCE_CAMPAIGN,
        spec,
        None,
        false,
    );
    let seconds = t.elapsed().as_secs_f64();
    let (oracle_ok, digest) = match &done.run {
        Ok(run) => (run.report == expected, stats_digest(&run.results)),
        Err(_) => (false, 0),
    };
    Ok((
        stage,
        SetupOutcome {
            seconds,
            digest,
            oracle_ok,
        },
    ))
}

/// Checks a set-up's digest against the committed one; `None` when it
/// matches, else why not.
pub fn digest_problem(digests: &str, workload: Workload, digest: u64) -> Option<String> {
    match committed_digest(digests, workload) {
        Some(expected) if expected == digest => None,
        Some(expected) => Some(format!(
            "{}: reference digest {digest:016x} differs from the committed {expected:016x}",
            workload.name()
        )),
        None => Some(format!(
            "{}: no committed digest (measured {digest:016x})",
            workload.name()
        )),
    }
}

/// CPU time (user + system) of this process so far, in seconds, from
/// `/proc/self/stat` at the kernel's 100 Hz tick.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some((_, tail)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = tail.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
