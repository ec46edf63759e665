//! The one timing harness of the `bench_*` bins.
//!
//! A bin parses the shared [`CampaignArgs`] flags into a [`Bench`] and
//! hands [`Bench::run`] a closure that times each of its figures once
//! through a [`Round`]. The harness runs that closure once to warm up,
//! then [`SAMPLES`] times (once under `--smoke`). One round times every
//! figure in the same fixed order, so machine noise hits paired figures
//! alike, and [`Figures::ratio`] pairs them round by round.
//!
//! [`Bench::write`] prints every figure and writes one JSON document:
//! `bench`, `cpus_available` and `samples`, the bin's own context
//! fields, and `figures`, each timed figure as `{"median", "min",
//! "max"}`. A full run writes `BENCH_<name>.json`, or the `--json` path;
//! `--smoke` writes a file only when `--json` is given.
//!
//! [`Backends`] starts in-process `serve` instances for the bins that
//! time the service stack and for the examples, and cleans them up on
//! drop.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chunkpoint_campaign::{
    pool::default_threads, CampaignArgs, CampaignSpec, JsonValue, SchemeSpec,
};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_serve::server::{ServeConfig, Server};
use chunkpoint_shard::exchange;
use chunkpoint_workloads::Benchmark;

/// Timed rounds of a full run, after one warm-up round.
pub const SAMPLES: usize = 7;

/// Deadline of every HTTP exchange the harness makes.
const TIMEOUT: Duration = Duration::from_secs(30);

/// The median, min and max of one figure's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Stats {
    /// The middle sample; the mean of the two middle ones for an even
    /// count.
    median: f64,
    min: f64,
    max: f64,
}

impl Stats {
    /// The stats of `samples`; panics on an empty slice.
    fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a figure needs at least one sample");
        let mut xs = samples.to_vec();
        xs.sort_by(f64::total_cmp);
        let mid = xs.len() / 2;
        let median = if xs.len().is_multiple_of(2) {
            (xs[mid - 1] + xs[mid]) / 2.0
        } else {
            xs[mid]
        };
        Self {
            median,
            min: xs[0],
            max: xs[xs.len() - 1],
        }
    }
}

/// Each figure's samples, in the order the first round recorded them.
#[derive(Debug, Default)]
pub struct Figures(Vec<(String, Vec<f64>)>);

impl Figures {
    fn samples(&self, name: &str) -> &[f64] {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, samples)| samples.as_slice())
            .unwrap_or_else(|| panic!("no figure named {name}"))
    }

    /// Adds figure `name`: `numerator / denominator`, round by round.
    pub fn ratio(&mut self, name: &str, numerator: &str, denominator: &str) {
        let ratios = self
            .samples(numerator)
            .iter()
            .zip(self.samples(denominator))
            .map(|(n, d)| n / d)
            .collect();
        self.0.push((name.to_owned(), ratios));
    }
}

/// One sample round: each call times one figure once.
#[derive(Debug)]
pub struct Round<'a> {
    index: usize,
    figures: &'a mut Figures,
}

impl Round<'_> {
    /// `0` for the warm-up round, then `1..=samples`. A figure whose
    /// repeat would hit a cache the previous round warmed derives a
    /// fresh campaign seed from it.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Runs `work` once and records `value(seconds)` as figure `name`.
    pub fn time<R>(
        &mut self,
        name: &str,
        value: impl FnOnce(f64) -> f64,
        work: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = work();
        let sample = value(start.elapsed().as_secs_f64().max(1e-9));
        match self.figures.0.iter_mut().find(|(n, _)| n == name) {
            Some((_, samples)) => samples.push(sample),
            None => self.figures.0.push((name.to_owned(), vec![sample])),
        }
        out
    }

    /// Records `units` per second of `work` as figure `name`.
    pub fn rate<R>(&mut self, name: &str, units: f64, work: impl FnOnce() -> R) -> R {
        self.time(name, |secs| units / secs, work)
    }

    /// Records the wall seconds of `work` as figure `name`.
    pub fn secs<R>(&mut self, name: &str, work: impl FnOnce() -> R) -> R {
        self.time(name, |secs| secs, work)
    }
}

/// One bench bin: its file name and its parsed flags.
#[derive(Debug)]
pub struct Bench {
    /// The `<name>` of `BENCH_<name>.json`, also written as `bench`.
    pub name: &'static str,
    /// The bin's flags.
    pub args: CampaignArgs,
}

impl Bench {
    /// The bin `name`, with flags parsed from the command line.
    #[must_use]
    pub fn new(name: &'static str, default_seeds: u64, default_seed: u64) -> Self {
        Self {
            name,
            args: CampaignArgs::parse_or_exit(default_seeds, default_seed),
        }
    }

    /// Timed rounds: [`SAMPLES`], or one under `--smoke`.
    #[must_use]
    pub fn samples(&self) -> usize {
        if self.args.smoke {
            1
        } else {
            SAMPLES
        }
    }

    /// Worker threads: `--threads`, or every core for `0`.
    #[must_use]
    pub fn threads(&self) -> usize {
        match self.args.threads {
            0 => default_threads(),
            n => n,
        }
    }

    /// Runs `round` once to warm up, then [`Bench::samples`] times, and
    /// returns what the timed rounds recorded.
    pub fn run(&self, mut round: impl FnMut(&mut Round<'_>)) -> Figures {
        round(&mut Round {
            index: 0,
            figures: &mut Figures::default(),
        });
        let mut figures = Figures::default();
        for index in 1..=self.samples() {
            round(&mut Round {
                index,
                figures: &mut figures,
            });
        }
        figures
    }

    /// Prints every figure, then writes the document: the header,
    /// `fields` (an object of the bin's context), and `figures`. Returns
    /// the path written, if any; panics if the write fails.
    pub fn write(&self, fields: JsonValue, figures: &Figures) -> Option<String> {
        let mut stats = JsonValue::object();
        for (name, samples) in &figures.0 {
            let s = Stats::of(samples);
            let (median, min, max) = (sig(s.median), sig(s.min), sig(s.max));
            println!("{name:<40} {median:>14}  [{min} – {max}]");
            stats = stats.field(
                name,
                JsonValue::object()
                    .field("median", s.median)
                    .field("min", s.min)
                    .field("max", s.max),
            );
        }
        let path = match (&self.args.json, self.args.smoke) {
            (Some(path), _) => path.clone(),
            (None, false) => format!("BENCH_{}.json", self.name),
            (None, true) => return None,
        };
        let JsonValue::Object(context) = fields else {
            panic!("bench fields must be a JSON object");
        };
        let mut doc = JsonValue::object()
            .field("bench", self.name)
            .field("cpus_available", default_threads())
            .field("samples", self.samples());
        for (key, value) in context {
            doc = doc.field(&key, value);
        }
        let doc = doc.field("figures", stats);
        std::fs::write(&path, doc.render() + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
        Some(path)
    }
}

/// A one-scenario spec, unique per `campaign_seed` (a distinct content
/// hash), cheap enough that a backend drains submissions fast.
#[must_use]
pub fn tiny_spec(campaign_seed: u64) -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    CampaignSpec::new(config, campaign_seed)
        .benchmarks(&[Benchmark::AdpcmEncode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .normalize(false)
        .golden_check(false)
}

/// `x` to four significant digits.
fn sig(x: f64) -> String {
    let decimals = (3 - x.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{x:.decimals$}")
}

/// In-process `serve` instances on ephemeral ports, each with a data dir
/// under one temp root. Dropping them, also while a panic unwinds, shuts
/// every instance down and removes the root.
#[derive(Debug)]
pub struct Backends {
    /// `HOST:PORT` of each instance.
    pub addrs: Vec<String>,
    root: PathBuf,
    threads: Vec<JoinHandle<()>>,
}

impl Backends {
    /// Starts `count` instances, each with `max_jobs` runners of
    /// `campaign_threads` workers (`0` = all cores); panics if one
    /// cannot bind or open its store.
    #[must_use]
    pub fn start(count: usize, max_jobs: usize, campaign_threads: usize) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::temp_dir().join(format!(
            "chunkpoint_bench_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);
        let mut backends = Self {
            addrs: Vec::new(),
            root,
            threads: Vec::new(),
        };
        for k in 0..count {
            let server = Server::bind(&ServeConfig {
                addr: "127.0.0.1:0".to_owned(),
                data_dir: backends.root.join(format!("serve{k}")),
                max_jobs,
                campaign_threads,
                max_queued: 0,
                trace_out: None,
            })
            .expect("bind serve");
            let addr = server.local_addr().expect("bound address");
            backends.addrs.push(addr.to_string());
            backends
                .threads
                .push(std::thread::spawn(move || server.run()));
        }
        backends
    }

    /// A path under the temp root, removed with it.
    #[must_use]
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Waits until no instance has a queued or running job, so the next
    /// round starts on idle backends (for at most two minutes).
    pub fn wait_idle(&self) {
        let deadline = Instant::now() + Duration::from_secs(120);
        for addr in &self.addrs {
            loop {
                let (_, body) = exchange(addr, "GET", "/healthz", None, TIMEOUT).expect("healthz");
                let counts = JsonValue::parse(&body).expect("healthz json");
                let idle = ["queued", "running"]
                    .iter()
                    .all(|state| counts.get(state).and_then(JsonValue::as_u64) == Some(0));
                if idle {
                    break;
                }
                assert!(Instant::now() < deadline, "{addr} never went idle: {body}");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

impl Drop for Backends {
    fn drop(&mut self) {
        for addr in &self.addrs {
            let _ = exchange(addr, "POST", "/shutdown", None, TIMEOUT);
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_odd_even_and_single_sample_counts() {
        let odd = Stats::of(&[5.0, 1.0, 3.0]);
        assert_eq!((odd.median, odd.min, odd.max), (3.0, 1.0, 5.0));
        let even = Stats::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((even.median, even.min, even.max), (2.5, 1.0, 4.0));
        let single = Stats::of(&[7.0]);
        assert_eq!((single.median, single.min, single.max), (7.0, 7.0, 7.0));
        for s in [odd, even, single] {
            assert!(s.min <= s.median && s.median <= s.max, "{s:?}");
        }
    }

    #[test]
    fn a_full_run_discards_the_warm_up_and_pairs_rounds() {
        let bench = Bench {
            name: "harness_full",
            args: CampaignArgs::defaults(1, 0),
        };
        let mut seen = Vec::new();
        let mut figures = bench.run(|round| {
            seen.push(round.index());
            let base = round.index() as f64;
            round.time("a", |_| 2.0 * base, || ());
            round.time("b", |_| base, || ());
        });
        assert_eq!(seen, (0..=SAMPLES).collect::<Vec<_>>());
        assert_eq!(figures.samples("a").len(), SAMPLES);
        assert_eq!(Stats::of(figures.samples("b")).min, 1.0, "warm-up recorded");
        figures.ratio("a_over_b", "a", "b");
        assert_eq!(figures.samples("a_over_b"), &[2.0; SAMPLES]);
    }

    #[test]
    fn smoke_writes_a_file_only_with_json() {
        let mut bench = Bench {
            name: "harness_smoke",
            args: CampaignArgs {
                smoke: true,
                ..CampaignArgs::defaults(1, 0)
            },
        };
        assert_eq!(bench.samples(), 1);
        let figures = bench.run(|round| round.rate("ops_per_sec", 10.0, || ()));
        assert_eq!(bench.write(JsonValue::object(), &figures), None);
        assert!(!std::path::Path::new("BENCH_harness_smoke.json").exists());

        let path = std::env::temp_dir().join(format!("harness_smoke_{}.json", std::process::id()));
        let path = path.to_string_lossy().into_owned();
        bench.args.json = Some(path.clone());
        let fields = JsonValue::object().field("grid_scenarios", 3u64);
        assert_eq!(bench.write(fields, &figures), Some(path.clone()));
        let doc = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let uint = |key| doc.get(key).and_then(JsonValue::as_u64);
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("harness_smoke"));
        assert!(uint("cpus_available") >= Some(1));
        assert_eq!(
            (uint("samples"), uint("grid_scenarios")),
            (Some(1), Some(3))
        );
        let ops = doc.get("figures").unwrap().get("ops_per_sec").unwrap();
        for key in ["median", "min", "max"] {
            assert!(ops.get(key).and_then(JsonValue::as_f64).is_some(), "{key}");
        }
    }

    #[test]
    fn dropping_backends_shuts_down_and_cleans_up_even_on_panic() {
        for panics in [false, true] {
            let mut started = None;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let backends = Backends::start(2, 1, 1);
                for addr in &backends.addrs {
                    let (status, _) = exchange(addr, "GET", "/healthz", None, TIMEOUT).unwrap();
                    assert_eq!(status, 200);
                }
                assert!(backends.root.is_dir());
                started = Some((backends.addrs.clone(), backends.root.clone()));
                assert!(!panics, "a bench assertion fails mid-run");
            }));
            assert_eq!(outcome.is_err(), panics);
            let (addrs, root) = started.expect("backends started");
            assert!(!root.exists(), "{} left behind", root.display());
            for addr in addrs {
                assert!(
                    std::net::TcpStream::connect(&addr).is_err(),
                    "{addr} still serving"
                );
            }
        }
    }
}
