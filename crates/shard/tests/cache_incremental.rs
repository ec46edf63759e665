//! Cross-process acceptance tests for the coordinator's range-granular
//! result cache and spec-diffed incremental campaigns.
//!
//! Real `serve` processes on ephemeral ports, real coordinator runs
//! against them — the `cross_shard.rs` harness — plus a disk cache in
//! the middle. The invariants: a warm cache re-splices across
//! coordinator restarts and re-partitioned backend sets without a
//! single dispatch; a corrupted cache file degrades to a partial miss,
//! never wrong bytes; and editing one axis value re-executes only the
//! changed cells while producing report bytes identical to a clean
//! full run.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use chunkpoint_campaign::{
    canonical_report_json, diff_specs, run_campaign, translate_rows, CampaignEvent, CampaignSpec,
    CancelToken, SchemeSpec,
};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_serve::REPORT_AXES;
use chunkpoint_shard::{run_sharded_ctl, RangeCache, ShardConfig};
use chunkpoint_workloads::Benchmark;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chunkpoint_cache_it_{}_{tag}", std::process::id()))
}

/// See `cross_shard.rs`: the `serve` binary sits next to this test
/// binary's parent directory and a workspace build always compiles it.
fn serve_bin() -> PathBuf {
    let mut path = std::env::current_exe().expect("test binary path");
    path.pop(); // <profile>/deps/
    if path.ends_with("deps") {
        path.pop(); // <profile>/
    }
    let bin = path.join(format!("serve{}", std::env::consts::EXE_SUFFIX));
    assert!(
        bin.is_file(),
        "serve binary not found at {} — build the workspace first (`cargo build`)",
        bin.display()
    );
    bin
}

struct ServeProcess {
    child: Child,
    addr: String,
}

impl ServeProcess {
    /// Starts a real `serve` on an ephemeral port and waits until it
    /// answers `/healthz`.
    fn start(data_dir: &PathBuf, port_file: &PathBuf) -> Self {
        let _ = std::fs::remove_file(port_file);
        let child = Command::new(serve_bin())
            .args([
                "--addr",
                "127.0.0.1:0",
                "--data-dir",
                data_dir.to_str().expect("utf8 dir"),
                "--port-file",
                port_file.to_str().expect("utf8 path"),
                "--jobs",
                "1",
                "--threads",
                "1",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn serve");
        let deadline = Instant::now() + Duration::from_secs(60);
        let port: u16 = loop {
            if let Ok(raw) = std::fs::read_to_string(port_file) {
                if let Ok(port) = raw.trim().parse() {
                    break port;
                }
            }
            assert!(Instant::now() < deadline, "serve never wrote its port");
            std::thread::sleep(Duration::from_millis(10));
        };
        let addr = format!("127.0.0.1:{port}");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok((200, _)) =
                chunkpoint_shard::exchange(&addr, "GET", "/healthz", None, Duration::from_secs(5))
            {
                break;
            }
            assert!(Instant::now() < deadline, "serve never became healthy");
            std::thread::sleep(Duration::from_millis(10));
        }
        Self { child, addr }
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn shutdown(serve: &ServeProcess) {
    let _ = chunkpoint_shard::exchange(
        &serve.addr,
        "POST",
        "/shutdown",
        None,
        Duration::from_secs(5),
    );
}

fn spec_with_rates(rates: &[f64]) -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    CampaignSpec::new(config, 0xCAC4E)
        .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
        .error_rates(rates)
        .replicates(3)
}

fn cached_config(cache_dir: &PathBuf) -> ShardConfig {
    ShardConfig {
        cache_dir: Some(cache_dir.clone()),
        ..ShardConfig::default()
    }
}

/// Warm-cache behavior across coordinator restarts: a second run — a
/// brand-new coordinator invocation, also against a *different* backend
/// count — splices everything from disk and dispatches nothing, with
/// byte-identical reports throughout; a corrupted cache file degrades
/// that to a partial re-execution, still byte-identical.
#[test]
fn warm_cache_splices_across_restart_and_repartition() {
    let spec = spec_with_rates(&[1e-6, 1e-5]);
    let total = spec.scenarios().len();
    let expected = {
        let reference = run_campaign(&spec, 1);
        canonical_report_json(spec.campaign_seed, &reference.results, &REPORT_AXES).render()
    };
    let cache_dir = temp_dir("warm_cache");
    let _ = std::fs::remove_dir_all(&cache_dir);

    let dirs: Vec<(PathBuf, PathBuf)> = (0..2)
        .map(|k| {
            (
                temp_dir(&format!("warm{k}")),
                temp_dir(&format!("warm{k}_port")),
            )
        })
        .collect();
    for (data, _) in &dirs {
        let _ = std::fs::remove_dir_all(data);
    }
    let serves: Vec<ServeProcess> = dirs
        .iter()
        .map(|(data, port)| ServeProcess::start(data, port))
        .collect();
    let backends: Vec<String> = serves.iter().map(|s| s.addr.clone()).collect();
    let config = cached_config(&cache_dir);

    // Cold cache: a normal two-shard run that seals its rows to disk.
    let cold =
        run_sharded_ctl(&spec, &backends, &config, &CancelToken::new(), |_| {}).expect("cold run");
    assert_eq!(cold.report, expected);
    assert_eq!(cold.dispatches, 2);
    assert_eq!(cold.spliced, 0, "a cold cache cannot splice");

    // "Coordinator restart": a fresh run over the same cache dir must
    // splice the whole grid without touching a backend.
    let warm =
        run_sharded_ctl(&spec, &backends, &config, &CancelToken::new(), |_| {}).expect("warm run");
    assert_eq!(warm.report, expected, "spliced bytes diverged");
    assert_eq!(warm.dispatches, 0, "warm cache still dispatched");
    assert_eq!(warm.spliced, total);

    // Re-partitioned: one backend instead of two. The cache is keyed
    // by range under the campaign, not by the old partitioning, so the
    // splice still covers everything.
    let repartitioned =
        run_sharded_ctl(&spec, &backends[..1], &config, &CancelToken::new(), |_| {})
            .expect("repartitioned run");
    assert_eq!(repartitioned.report, expected);
    assert_eq!(repartitioned.dispatches, 0);
    assert_eq!(repartitioned.spliced, total);

    // Corrupt one cache file (torn tail): its range degrades to a
    // miss and re-executes; the other range still splices; the bytes
    // are still identical.
    let campaign_dir = RangeCache::new(&cache_dir).campaign_dir(&spec);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&campaign_dir)
        .expect("campaign dir")
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|e| e == "jsonl"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 2, "one sealed file per cold-run shard");
    let victim = &files[0];
    let text = std::fs::read_to_string(victim).expect("victim file");
    std::fs::write(victim, &text[..text.len() / 2]).expect("tear victim");
    let after_corruption = run_sharded_ctl(&spec, &backends, &config, &CancelToken::new(), |_| {})
        .expect("run over torn cache");
    assert_eq!(
        after_corruption.report, expected,
        "corruption leaked into the bytes"
    );
    assert!(
        after_corruption.dispatches >= 1,
        "the torn range was not re-executed"
    );
    assert!(
        after_corruption.spliced > 0 && after_corruption.spliced < total,
        "expected a partial splice, got {} of {total}",
        after_corruption.spliced
    );

    // A different campaign (new seed) shares nothing: its ranged spec
    // hashes differ, so the warm cache is invisible to it.
    let other = {
        let mut config = SystemConfig::paper(0);
        config.scale = 0.25;
        CampaignSpec::new(config, 0xD1FF)
            .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
            .error_rates(&[1e-6, 1e-5])
            .replicates(3)
    };
    assert!(
        RangeCache::new(&cache_dir)
            .load(&other, &other.scenarios())
            .is_empty(),
        "a different campaign loaded stale rows"
    );

    for serve in &serves {
        shutdown(serve);
    }
    for (data, port) in &dirs {
        let _ = std::fs::remove_dir_all(data);
        let _ = std::fs::remove_file(port);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// The headline acceptance test: complete a campaign, edit one axis
/// value, seed the new spec's cache from the spec diff, and re-run —
/// only the changed cells dispatch, and the report bytes are identical
/// to a clean full run of the edited spec.
#[test]
fn one_axis_edit_executes_only_changed_cells_with_identical_bytes() {
    let old_spec = spec_with_rates(&[1e-6, 1e-5]);
    let new_spec = spec_with_rates(&[1e-6, 2e-5]);
    let cache_dir = temp_dir("incremental_cache");
    let _ = std::fs::remove_dir_all(&cache_dir);

    let dirs: Vec<(PathBuf, PathBuf)> = (0..2)
        .map(|k| {
            (
                temp_dir(&format!("inc{k}")),
                temp_dir(&format!("inc{k}_port")),
            )
        })
        .collect();
    for (data, _) in &dirs {
        let _ = std::fs::remove_dir_all(data);
    }
    let serves: Vec<ServeProcess> = dirs
        .iter()
        .map(|(data, port)| ServeProcess::start(data, port))
        .collect();
    let backends: Vec<String> = serves.iter().map(|s| s.addr.clone()).collect();
    let config = cached_config(&cache_dir);

    // Complete the original campaign with the cache on.
    let baseline = run_sharded_ctl(&old_spec, &backends, &config, &CancelToken::new(), |_| {})
        .expect("baseline run");
    assert_eq!(baseline.spliced, 0);

    // The edited spec hashes to its own campaign directory: before
    // seeding, the warm cache is invisible to it (stale rejection).
    let cache = RangeCache::new(&cache_dir);
    let new_grid = new_spec.scenarios();
    assert!(
        cache.load(&new_spec, &new_grid).is_empty(),
        "the edited spec must not see the old campaign's files"
    );

    // Seed: diff the specs, translate the reusable rows, seal them
    // under the edited spec's key — exactly what `shard --baseline`
    // does.
    let old_rows: Vec<_> = cache
        .load(&old_spec, &old_spec.scenarios())
        .into_values()
        .collect();
    assert_eq!(old_rows.len(), old_spec.scenarios().len());
    let translated = translate_rows(&old_spec, &new_spec, &old_rows);
    let diff = diff_specs(&old_spec, &new_spec);
    assert_eq!(
        diff.reused(),
        new_grid.len() / 2,
        "half the grid survives the edit"
    );
    assert_eq!(translated.len(), diff.reused());
    cache
        .store_scattered(&new_spec, &translated)
        .expect("seed the edited spec's cache");

    // Incremental run: collect every dispatched range to prove only
    // the changed cells executed.
    let mut dispatched: Vec<(usize, usize)> = Vec::new();
    let incremental = run_sharded_ctl(
        &new_spec,
        &backends,
        &config,
        &CancelToken::new(),
        |event| {
            if let CampaignEvent::ShardDispatched { range, .. } = event {
                dispatched.push(*range);
            }
        },
    )
    .expect("incremental run");

    let reference = run_campaign(&new_spec, 1);
    let expected =
        canonical_report_json(new_spec.campaign_seed, &reference.results, &REPORT_AXES).render();
    assert_eq!(
        incremental.report, expected,
        "incremental bytes diverged from the clean run"
    );
    assert_eq!(incremental.spliced, diff.reused());

    let executed: BTreeSet<usize> = dispatched
        .iter()
        .flat_map(|&(start, end)| start..end)
        .collect();
    let reused: BTreeSet<usize> = diff.pairs.iter().map(|&(_, new)| new).collect();
    let changed: BTreeSet<usize> = (0..new_grid.len())
        .filter(|i| !reused.contains(i))
        .collect();
    assert_eq!(
        executed, changed,
        "dispatched ranges must cover exactly the changed cells"
    );

    // The incremental run sealed what it executed: one more pass over
    // the cache completes without any dispatch at all.
    let rerun = run_sharded_ctl(&new_spec, &backends, &config, &CancelToken::new(), |_| {})
        .expect("fully cached rerun");
    assert_eq!(rerun.report, expected);
    assert_eq!(rerun.dispatches, 0);
    assert_eq!(rerun.spliced, new_grid.len());

    for serve in &serves {
        shutdown(serve);
    }
    for (data, port) in &dirs {
        let _ = std::fs::remove_dir_all(data);
        let _ = std::fs::remove_file(port);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}
