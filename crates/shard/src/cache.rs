//! Coordinator-side, content-addressed, **range-granular result
//! cache**.
//!
//! The serve tier already memoizes whole campaigns by `spec_hash`; this
//! module lifts the same content-addressing idiom to the coordinator so
//! *sub-ranges* survive re-partitioning. Sealed journal rows are stored
//! on disk keyed by the ranged spec hash of the exact sub-range they
//! cover, and [`run_sharded_ctl`](crate::run_sharded_ctl) consults the
//! store before every dispatch: ranges already on disk are spliced into
//! the merge instead of re-executed.
//!
//! # Disk layout
//!
//! ```text
//! <cache root>/
//!   <base hash, 16 hex>/            one directory per campaign
//!     <ranged hash, 16 hex>.jsonl   one sealed range per file
//! ```
//!
//! The *base hash* is `spec.without_range().spec_hash()` — every ranged
//! sub-spec of one campaign shares it, so rows sealed under one
//! partitioning are findable by any other partitioning (or backend
//! count) of the same campaign. The *ranged hash* is the hash of the
//! base spec restricted to the file's exact `[start, end)` range — the
//! wire-format keying introduced for sharded dispatch, reused verbatim.
//!
//! Each file is a row log of [`chunkpoint_campaign::rows`] — the format
//! of a serve journal — written in index order, with no header:
//!
//! ```text
//! {"index":s, …}                    one ScenarioResult JSON row per line,
//! {"index":s+1, …}                  e - s rows, ascending, dense
//! …
//! ```
//!
//! # Integrity
//!
//! Writes are atomic (tmp + `sync_all` + rename, the `JobStore` idiom),
//! so a crash never leaves a half-visible file under the final name.
//! On load, a file's range is read off its rows — the first row's index
//! and the number of sealed rows — and must hash to the file's name.
//! The name binds everything else: the campaign directory is the base
//! hash, and each row's derived seed ties it to the campaign. Every row
//! is then admitted against the spec's grid and the range must be
//! covered exactly. A file failing any check — torn tail, a cut at a
//! line boundary, a gap, a repeated index, a wrong name, a foreign
//! campaign's rows — is skipped *whole*, degrading to a cache miss,
//! never a panic.
//!
//! What is **not** checked is a row's measurements: a digit flipped in
//! a sealed row's `energy_pj` leaves its index, seed and file name
//! intact, so the row loads with the wrong value. Range files carry no
//! content checksum (neither do serve journals or `result.json`).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use chunkpoint_campaign::rows::{exact_cover, sealed_line, sealed_lines, RangeRows};
use chunkpoint_campaign::{CampaignSpec, JsonValue, Scenario, ScenarioResult};

/// A disk-backed store of sealed journal rows, keyed by ranged
/// `spec_hash`. Cheap to construct — directories are created lazily on
/// first store, and loading from a root that does not exist is simply a
/// miss.
#[derive(Debug, Clone)]
pub struct RangeCache {
    root: PathBuf,
}

/// `spec` with any range restriction stripped, hashed: the campaign
/// directory key.
fn base_hash(spec: &CampaignSpec) -> u64 {
    spec.clone().without_range().spec_hash()
}

/// The hash of `spec` restricted to exactly `[start, end)`: the range
/// file key.
fn ranged_hash(spec: &CampaignSpec, (start, end): (usize, usize)) -> u64 {
    spec.clone()
        .without_range()
        .scenario_range(start, end)
        .spec_hash()
}

impl RangeCache {
    /// Opens (without touching the filesystem) a cache rooted at `root`.
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        RangeCache { root: root.into() }
    }

    /// The cache's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory holding `spec`'s sealed ranges.
    #[must_use]
    pub fn campaign_dir(&self, spec: &CampaignSpec) -> PathBuf {
        self.root.join(format!("{:016x}", base_hash(spec)))
    }

    /// Seals `rows` — which must cover exactly the global range
    /// `[start, end)` — under `spec`'s key, as a row log in index
    /// order. Returns the path of the written range file.
    ///
    /// The write is atomic: concurrent writers of the same range race
    /// benignly (identical content, last rename wins).
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] if `rows` does not cover
    /// the range exactly, and propagates any filesystem error.
    pub fn store(
        &self,
        spec: &CampaignSpec,
        range: (usize, usize),
        rows: &[ScenarioResult],
    ) -> io::Result<PathBuf> {
        let (start, end) = range;
        let invalid = |why: String| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("cache: cannot seal [{start}, {end}): {why}"),
            )
        };
        if start >= end {
            return Err(invalid("empty range".to_owned()));
        }
        let rows = exact_cover(start..end, rows.to_vec()).map_err(invalid)?;
        let body: String = rows.iter().map(sealed_line).collect();
        let dir = self.campaign_dir(spec);
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{:016x}.jsonl", ranged_hash(spec, range)));
        let tmp = dir.join(format!("{:016x}.tmp", ranged_hash(spec, range)));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(body.as_bytes())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Seals a scattered row set (sorted or not) as its maximal
    /// contiguous runs, one range file each — the seeding path for
    /// spec-diffed incremental campaigns, whose reusable rows are
    /// rarely one contiguous block. Duplicate indices keep the first
    /// occurrence. Returns the number of range files written.
    ///
    /// # Errors
    ///
    /// Propagates any filesystem error from [`RangeCache::store`].
    pub fn store_scattered(
        &self,
        spec: &CampaignSpec,
        rows: &[ScenarioResult],
    ) -> io::Result<usize> {
        let mut rows = rows.to_vec();
        // A stable sort keeps repeats in input order, so the dedup keeps
        // the first occurrence.
        rows.sort_by_key(|row| row.scenario.index);
        rows.dedup_by_key(|row| row.scenario.index);
        let runs: Vec<&[ScenarioResult]> = rows
            .chunk_by(|a, b| b.scenario.index == a.scenario.index + 1)
            .collect();
        for run in &runs {
            let start = run[0].scenario.index;
            self.store(spec, (start, start + run.len()), run)?;
        }
        Ok(runs.len())
    }

    /// Bounds the cache's on-disk footprint: while the total size of
    /// all sealed range files exceeds `max_bytes`, evicts whole files
    /// least recently used first — by modification time, which
    /// [`RangeCache::store`] sets and every [`RangeCache::load`] that
    /// admits the file refreshes (ties break on path, so the sweep
    /// order is deterministic). Campaign directories left empty are
    /// removed. Returns the number of files evicted.
    ///
    /// Best-effort by design, like [`RangeCache::load`]: an entry whose
    /// metadata cannot be read is left alone, a file that vanishes
    /// mid-sweep is simply someone else's eviction, and nothing here
    /// errors or panics — the worst outcome is a cache temporarily
    /// over budget.
    pub fn gc(&self, max_bytes: u64) -> usize {
        let Ok(campaigns) = std::fs::read_dir(&self.root) else {
            return 0;
        };
        let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
        for campaign in campaigns.filter_map(|entry| entry.ok()) {
            let Ok(ranges) = std::fs::read_dir(campaign.path()) else {
                continue;
            };
            for entry in ranges.filter_map(|entry| entry.ok()) {
                let path = entry.path();
                if path.extension().is_none_or(|ext| ext != "jsonl") {
                    continue;
                }
                let Ok(meta) = entry.metadata() else {
                    continue;
                };
                let Ok(mtime) = meta.modified() else {
                    continue;
                };
                files.push((mtime, path, meta.len()));
            }
        }
        let mut total: u64 = files.iter().map(|(_, _, len)| len).sum();
        if total <= max_bytes {
            return 0;
        }
        files.sort();
        let mut evicted = 0;
        for (_, path, len) in &files {
            if total <= max_bytes {
                break;
            }
            if std::fs::remove_file(path).is_ok() {
                evicted += 1;
            }
            // A failed removal still counts against the footprint we
            // can free; not retrying keeps the sweep one pass.
            total = total.saturating_sub(*len);
            if let Some(dir) = path.parent() {
                let _ = std::fs::remove_dir(dir); // only succeeds when empty
            }
        }
        evicted
    }

    /// Loads every validated cached row for `spec`, keyed by global
    /// scenario index. `grid` must be the spec's full enumeration —
    /// each row is checked against its expected scenario (index and
    /// derived seed) before admission, and any file failing *any* check
    /// is skipped whole. Files are visited in name order, first
    /// occurrence of an index wins, so the result is deterministic.
    /// Every admitted file's modification time is refreshed (best
    /// effort), which makes [`RangeCache::gc`] least-recently-used.
    /// Never panics and never errors: everything unreadable is a miss.
    #[must_use]
    pub fn load(&self, spec: &CampaignSpec, grid: &[Scenario]) -> BTreeMap<usize, ScenarioResult> {
        let dir = self.campaign_dir(spec);
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return BTreeMap::new();
        };
        let mut names: Vec<String> = entries
            .filter_map(|entry| entry.ok())
            .filter_map(|entry| entry.file_name().into_string().ok())
            .filter(|name| name.ends_with(".jsonl"))
            .collect();
        names.sort();
        let mut rows = BTreeMap::new();
        for name in names {
            let path = dir.join(&name);
            if let Some(file_rows) = read_range_file(&path, &name, spec, grid) {
                if let Ok(file) = std::fs::File::options().write(true).open(&path) {
                    let _ = file.set_modified(std::time::SystemTime::now());
                }
                for row in file_rows {
                    rows.entry(row.scenario.index).or_insert(row);
                }
            }
        }
        rows
    }
}

/// Reads one range file: its rows in index order if the file is
/// exactly the sealed range its name promises, `None` on *any*
/// irregularity (the whole-file-skip miss semantics).
fn read_range_file(
    path: &Path,
    name: &str,
    spec: &CampaignSpec,
    grid: &[Scenario],
) -> Option<Vec<ScenarioResult>> {
    let text = std::fs::read_to_string(path).ok()?;
    let lines: Vec<JsonValue> = sealed_lines(&text)
        .map(JsonValue::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // The range is read off the rows; a torn, cut, padded or misnamed
    // file reads as a range whose hash is not its name.
    let start = usize::try_from(lines.first()?.get("index")?.as_u64()?).ok()?;
    let end = start.checked_add(lines.len())?;
    if name != format!("{:016x}.jsonl", ranged_hash(spec, (start, end))) {
        return None;
    }
    let mut admitted = RangeRows::new(grid, start..end);
    for line in &lines {
        admitted.admit(line).ok()?;
    }
    admitted.into_exact().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chunkpoint_campaign::{run_campaign, SchemeSpec};
    use chunkpoint_core::{MitigationScheme, SystemConfig};
    use chunkpoint_workloads::Benchmark;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("chunkpoint_cache_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_spec(seed: u64) -> CampaignSpec {
        let mut config = SystemConfig::paper(0);
        config.scale = 0.25;
        CampaignSpec::new(config, seed)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
            .replicates(3)
    }

    #[test]
    fn round_trips_a_sealed_range() {
        let cache = RangeCache::new(temp_root("round_trip"));
        let spec = small_spec(0x5A4D);
        let grid = spec.scenarios();
        let rows = run_campaign(&spec, 1).results;
        cache.store(&spec, (0, rows.len()), &rows).expect("store");
        let loaded = cache.load(&spec, &grid);
        assert_eq!(loaded.len(), rows.len());
        for row in &rows {
            assert_eq!(loaded[&row.scenario.index], *row);
        }
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn ranged_sub_specs_share_the_campaign_directory() {
        let cache = RangeCache::new(temp_root("shared_dir"));
        let spec = small_spec(0x5A4D);
        let grid = spec.scenarios();
        let rows = run_campaign(&spec, 1).results;
        // Seal under a ranged sub-spec, load under the parent (and a
        // differently-ranged sibling): all the same campaign.
        let sub = spec.clone().scenario_range(0, 3);
        cache.store(&sub, (0, 3), &rows[..3]).expect("store");
        assert_eq!(cache.load(&spec, &grid).len(), 3);
        let sibling = spec.clone().scenario_range(3, grid.len());
        assert_eq!(cache.load(&sibling, &grid).len(), 3);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn scattered_rows_seal_as_contiguous_runs() {
        let cache = RangeCache::new(temp_root("scattered"));
        let spec = small_spec(0x5A4D);
        let grid = spec.scenarios();
        let rows = run_campaign(&spec, 1).results;
        assert!(grid.len() >= 6, "grid too small for the gap layout");
        let picked: Vec<ScenarioResult> = rows
            .iter()
            .filter(|r| [0, 1, 4, 5].contains(&r.scenario.index))
            .cloned()
            .collect();
        let written = cache.store_scattered(&spec, &picked).expect("store");
        assert_eq!(written, 2, "two gaps, two range files");
        let loaded = cache.load(&spec, &grid);
        assert_eq!(loaded.keys().copied().collect::<Vec<_>>(), vec![0, 1, 4, 5]);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn store_rejects_rows_that_do_not_cover_the_range() {
        let cache = RangeCache::new(temp_root("bad_store"));
        let spec = small_spec(0x5A4D);
        let rows = run_campaign(&spec, 1).results;
        // Wrong count.
        assert!(cache.store(&spec, (0, 3), &rows[..2]).is_err());
        // Right count, wrong indices.
        assert!(cache.store(&spec, (1, 3), &rows[..2]).is_err());
        // Empty range.
        assert!(cache.store(&spec, (2, 2), &[]).is_err());
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn foreign_campaign_rows_never_load() {
        let cache = RangeCache::new(temp_root("foreign"));
        let spec = small_spec(0x5A4D);
        let other = small_spec(0x1111);
        let rows = run_campaign(&spec, 1).results;
        cache.store(&spec, (0, rows.len()), &rows).expect("store");
        // The other campaign hashes to a different directory entirely.
        assert!(cache.load(&other, &other.scenarios()).is_empty());
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn torn_or_corrupt_files_degrade_to_a_miss() {
        let cache = RangeCache::new(temp_root("torn"));
        let spec = small_spec(0x5A4D);
        let grid = spec.scenarios();
        let rows = run_campaign(&spec, 1).results;
        let half = rows.len() / 2;
        let torn = cache.store(&spec, (0, half), &rows[..half]).expect("store");
        cache
            .store(&spec, (half, rows.len()), &rows[half..])
            .expect("store");

        // Tear the first file mid-row: its rows vanish, the intact
        // file's rows survive, nothing panics.
        let text = std::fs::read_to_string(&torn).expect("read back");
        std::fs::write(&torn, &text[..text.len() - 20]).expect("tear");
        let loaded = cache.load(&spec, &grid);
        assert_eq!(
            loaded.keys().copied().collect::<Vec<_>>(),
            (half..rows.len()).collect::<Vec<_>>()
        );

        // Outright garbage under a plausible name is skipped too.
        std::fs::write(&torn, "not json at all\n").expect("garbage");
        assert_eq!(cache.load(&spec, &grid).len(), rows.len() - half);

        // A header whose declared range disagrees with its file name
        // (a stale ranged hash) is rejected whole.
        let dir = cache.campaign_dir(&spec);
        let intact = dir.join(format!(
            "{:016x}.jsonl",
            ranged_hash(&spec, (half, rows.len()))
        ));
        let misnamed = dir.join("0123456789abcdef.jsonl");
        std::fs::copy(&intact, &misnamed).expect("copy");
        let loaded = cache.load(&spec, &grid);
        assert_eq!(loaded.len(), rows.len() - half);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn gc_evicts_oldest_files_first_until_under_budget() {
        let cache = RangeCache::new(temp_root("gc"));
        let spec = small_spec(0x5A4D);
        let grid = spec.scenarios();
        let rows = run_campaign(&spec, 1).results;
        assert!(rows.len() >= 6, "grid too small for three ranges");
        let old = cache.store(&spec, (0, 2), &rows[..2]).expect("store");
        let mid = cache.store(&spec, (2, 4), &rows[2..4]).expect("store");
        let new = cache.store(&spec, (4, 6), &rows[4..6]).expect("store");
        // Stamp distinct, strictly ordered mtimes: filesystem clocks
        // are too coarse to rely on write order.
        let epoch = std::time::SystemTime::now() - std::time::Duration::from_secs(600);
        for (age, path) in [(0u64, &old), (60, &mid), (120, &new)] {
            std::fs::File::options()
                .write(true)
                .open(path)
                .expect("open")
                .set_modified(epoch + std::time::Duration::from_secs(age))
                .expect("set mtime");
        }
        let keep_two: u64 = [&mid, &new]
            .iter()
            .map(|p| std::fs::metadata(p).expect("meta").len())
            .sum();

        // Under budget: a no-op.
        assert_eq!(cache.gc(u64::MAX), 0);
        assert!(old.exists());

        // Over budget by one file: exactly the oldest goes.
        assert_eq!(cache.gc(keep_two), 1);
        assert!(!old.exists());
        assert!(mid.exists() && new.exists());
        let loaded = cache.load(&spec, &grid);
        assert_eq!(loaded.keys().copied().collect::<Vec<_>>(), vec![2, 3, 4, 5]);

        // Budget zero: everything goes, and the emptied campaign
        // directory goes with it.
        assert_eq!(cache.gc(0), 2);
        assert!(!cache.campaign_dir(&spec).exists());
        assert!(cache.load(&spec, &grid).is_empty());
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn gc_keeps_a_range_that_was_loaded_since_it_was_stored() {
        let cache = RangeCache::new(temp_root("gc_lru"));
        let x = small_spec(0x5A4D);
        let y = small_spec(0x1111);
        let stored: Vec<PathBuf> = [&x, &y]
            .into_iter()
            .map(|spec| {
                let rows = run_campaign(spec, 1).results;
                cache.store(spec, (0, rows.len()), &rows).expect("store")
            })
            .collect();
        // X is stored first (older), Y second (newer).
        let epoch = std::time::SystemTime::now() - std::time::Duration::from_secs(600);
        for (age, path) in [(0u64, &stored[0]), (60, &stored[1])] {
            std::fs::File::options()
                .write(true)
                .open(path)
                .expect("open")
                .set_modified(epoch + std::time::Duration::from_secs(age))
                .expect("set mtime");
        }
        let one_campaign = stored
            .iter()
            .map(|p| std::fs::metadata(p).expect("meta").len())
            .max()
            .expect("two files");

        // Using X makes it the most recently used: Y is evicted.
        assert_eq!(cache.load(&x, &x.scenarios()).len(), 6);
        assert_eq!(cache.gc(one_campaign), 1);
        assert!(stored[0].exists(), "the loaded range was evicted");
        assert!(!stored[1].exists(), "the unused range survived");
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn missing_root_is_an_empty_load() {
        let cache = RangeCache::new(temp_root("missing"));
        let spec = small_spec(0x5A4D);
        assert!(cache.load(&spec, &spec.scenarios()).is_empty());
    }
}
