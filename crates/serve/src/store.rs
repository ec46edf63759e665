//! The checkpointable job store: one directory per job holding the spec,
//! an append-only scenario journal, and (once finished) the cached
//! result.
//!
//! Layout under the store root:
//!
//! ```text
//! jobs/<id>/spec.json       canonical CampaignSpec wire form
//! jobs/<id>/meta.json       {"scenarios": N} — grid size, for status
//! jobs/<id>/journal.jsonl   one ScenarioResult JSON object per line
//! jobs/<id>/result.json     canonical timing-free campaign report
//! ```
//!
//! `<id>` is the 16-hex-digit content hash of the canonical spec
//! ([`CampaignSpec::spec_hash`]), which makes the store a
//! **content-addressed result cache**: resubmitting a byte-identical
//! spec lands on the same directory, and a present `result.json` answers
//! it without running anything.
//!
//! The journal is the crash-safety mechanism. Every completed scenario
//! appends one line and flushes; a process killed mid-campaign leaves a
//! journal whose newline-sealed lines are read back and an interrupted
//! final line that is dropped. On resume the grid is re-enumerated from
//! the spec and the journaled indices are skipped — per-scenario seeds
//! depend only on `(campaign_seed, index)`, so the merged result is
//! bit-identical to an uninterrupted run.
//!
//! The journal is a row log of [`chunkpoint_campaign::rows`], the same
//! format as a coordinator range file, and is read back under that
//! module's rules: each row must carry an index inside the job's range
//! and that scenario's derived seed. A row's measurements are not
//! checked — no journal row and no `result.json` carries a content
//! checksum, so a digit flipped on disk is served as written.

use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use chunkpoint_campaign::rows::{self, RangeRows};
use chunkpoint_campaign::{CampaignSpec, JsonValue, Scenario, ScenarioResult};

/// A handle on the store root. Cheap to clone; all state lives on disk.
#[derive(Debug, Clone)]
pub struct JobStore {
    root: PathBuf,
}

/// A journal loaded from disk: the trusted rows plus their index set.
#[derive(Debug, Default)]
pub struct LoadedJournal {
    /// Journaled results, in journal (completion) order.
    pub results: Vec<ScenarioResult>,
    /// Scenario indices present — the resume skip set.
    pub done: HashSet<usize>,
}

impl JobStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the directory tree.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(root.join("jobs"))?;
        Ok(Self { root })
    }

    /// The store root.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Formats a spec hash as the job id: 16 lowercase hex digits.
    #[must_use]
    pub fn job_id(spec: &CampaignSpec) -> String {
        format!("{:016x}", spec.spec_hash())
    }

    /// Whether `id` has the shape of a job id. Guards every path that
    /// joins an id onto the filesystem — nothing traversal-shaped gets
    /// near [`Path::join`].
    #[must_use]
    pub fn valid_id(id: &str) -> bool {
        id.len() == 16
            && id
                .bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
    }

    fn job_dir(&self, id: &str) -> PathBuf {
        debug_assert!(Self::valid_id(id), "unvalidated job id {id:?}");
        self.root.join("jobs").join(id)
    }

    fn spec_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("spec.json")
    }

    fn meta_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("meta.json")
    }

    fn journal_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("journal.jsonl")
    }

    fn result_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("result.json")
    }

    /// Creates the job directory and persists the canonical spec and its
    /// grid size. Idempotent for the same spec (same content hash ⇒ same
    /// bytes).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create_job(
        &self,
        id: &str,
        spec: &CampaignSpec,
        scenarios: usize,
    ) -> std::io::Result<()> {
        fs::create_dir_all(self.job_dir(id))?;
        fs::write(self.spec_path(id), spec.to_json().render() + "\n")?;
        fs::write(
            self.meta_path(id),
            JsonValue::object().field("scenarios", scenarios).render() + "\n",
        )?;
        Ok(())
    }

    /// Whether a job directory exists for `id`.
    #[must_use]
    pub fn job_exists(&self, id: &str) -> bool {
        self.spec_path(id).is_file()
    }

    /// Every job id present in the store, sorted (deterministic recovery
    /// order).
    #[must_use]
    pub fn list_jobs(&self) -> Vec<String> {
        let mut ids: Vec<String> = fs::read_dir(self.root.join("jobs"))
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter_map(|e| e.file_name().into_string().ok())
                    .filter(|id| Self::valid_id(id))
                    .collect()
            })
            .unwrap_or_default();
        ids.sort();
        ids
    }

    /// Loads and re-validates a job's spec.
    ///
    /// # Errors
    ///
    /// Reports unreadable files, unparseable JSON, and — because the id
    /// is the content hash — a spec whose bytes no longer hash to `id`
    /// (on-disk tampering or corruption).
    pub fn load_spec(&self, id: &str) -> Result<CampaignSpec, String> {
        let raw = fs::read_to_string(self.spec_path(id))
            .map_err(|e| format!("job {id}: reading spec: {e}"))?;
        let value =
            JsonValue::parse(&raw).map_err(|e| format!("job {id}: spec is not JSON: {e}"))?;
        let spec = CampaignSpec::from_json(&value).map_err(|e| format!("job {id}: {e}"))?;
        let expected = Self::job_id(&spec);
        if expected != id {
            return Err(format!(
                "job {id}: stored spec hashes to {expected} — store corrupted"
            ));
        }
        Ok(spec)
    }

    /// Loads a job's grid size from `meta.json`.
    ///
    /// # Errors
    ///
    /// Reports missing/corrupt metadata.
    pub fn load_scenario_count(&self, id: &str) -> Result<usize, String> {
        let raw = fs::read_to_string(self.meta_path(id))
            .map_err(|e| format!("job {id}: reading meta: {e}"))?;
        JsonValue::parse(&raw)
            .ok()
            .as_ref()
            .and_then(|v| v.get("scenarios"))
            .and_then(JsonValue::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| format!("job {id}: corrupt meta.json"))
    }

    /// Loads the journal against the spec's re-enumerated grid. `active`
    /// is the job's executable index range ([`CampaignSpec::active_range`]
    /// — the whole grid for unranged specs): a row outside it belongs to
    /// a different slice of the campaign and is rejected.
    ///
    /// Rows are read and admitted by [`chunkpoint_campaign::rows`]: a
    /// torn final line (what a `SIGKILL` mid-append leaves) is dropped,
    /// the first copy of a repeated index wins, and every other
    /// irregularity fails loudly — a parseable row with a wrong seed or
    /// index means the journal belongs to a different campaign, and
    /// resuming from it would silently corrupt results.
    ///
    /// # Errors
    ///
    /// Reports unreadable files and rows inconsistent with `scenarios`
    /// or `active`.
    pub fn load_journal(
        &self,
        id: &str,
        scenarios: &[Scenario],
        active: &std::ops::Range<usize>,
    ) -> Result<LoadedJournal, String> {
        let path = self.journal_path(id);
        if !path.is_file() {
            return Ok(LoadedJournal::default());
        }
        let raw = fs::read_to_string(&path).map_err(|e| format!("job {id}: journal: {e}"))?;
        let mut admitted = RangeRows::new(scenarios, active.clone());
        for (row, line) in rows::sealed_lines(&raw).enumerate() {
            JsonValue::parse(line)
                .map_err(|e| e.to_string())
                .and_then(|value| admitted.admit(&value))
                .map_err(|e| format!("job {id}: journal row {}: {e}", row + 1))?;
        }
        let (results, done) = admitted.into_parts();
        Ok(LoadedJournal { results, done })
    }

    /// The sealed journal rows as raw JSON lines, in journal
    /// (completion) order — the payload of
    /// `GET /campaigns/:id/journal`, which a shard coordinator merges
    /// with its sibling shards' rows. A torn final line is dropped, same
    /// as [`JobStore::load_journal`]; a missing journal is simply empty.
    #[must_use]
    pub fn read_journal_rows(&self, id: &str) -> Vec<String> {
        let Ok(raw) = fs::read_to_string(self.journal_path(id)) else {
            return Vec::new();
        };
        rows::sealed_lines(&raw).map(str::to_owned).collect()
    }

    /// Opens the journal for appending, creating it if absent.
    ///
    /// A crash mid-append can leave a torn, newline-less tail;
    /// `load_journal` ignores it, but appending after it would weld the
    /// next row onto the torn bytes and corrupt that row too. So the
    /// tail is truncated away here, before the first fresh append —
    /// resume always writes from a sealed line boundary.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open_journal(&self, id: &str) -> std::io::Result<JournalWriter> {
        let path = self.journal_path(id);
        if let Ok(raw) = fs::read(&path) {
            let sealed = rows::sealed_len(&raw);
            if sealed != raw.len() {
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(sealed as u64)?;
                file.sync_all()?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JournalWriter { file })
    }

    /// Persists the final report atomically (temp file + rename): a
    /// crash during the write can never leave a half-result that a later
    /// cache hit would serve.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_result(&self, id: &str, report: &str) -> std::io::Result<()> {
        let tmp = self.job_dir(id).join("result.json.tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(report.as_bytes())?;
            file.write_all(b"\n")?;
            file.sync_all()?;
        }
        fs::rename(&tmp, self.result_path(id))
    }

    /// The cached final report, if the job has one — the cache-hit path.
    #[must_use]
    pub fn read_result(&self, id: &str) -> Option<String> {
        fs::read_to_string(self.result_path(id)).ok()
    }

    /// Removes a job and everything it journaled.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (absent directories are fine).
    pub fn delete_job(&self, id: &str) -> std::io::Result<()> {
        match fs::remove_dir_all(self.job_dir(id)) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }
}

/// An open append handle on a job's journal. One [`ScenarioResult`] per
/// line; every line is flushed to the OS before the write returns, so a
/// killed process loses at most the line being written (which the loader
/// detects and drops).
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Appends one result and flushes the line to the OS.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(&mut self, result: &ScenarioResult) -> std::io::Result<()> {
        self.file.write_all(rows::sealed_line(result).as_bytes())?;
        self.file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chunkpoint_campaign::{run_campaign, SchemeSpec};
    use chunkpoint_core::{MitigationScheme, SystemConfig};
    use chunkpoint_workloads::Benchmark;

    fn test_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("chunkpoint_store_{}_{tag}", std::process::id()))
    }

    fn tiny_spec() -> CampaignSpec {
        let mut config = SystemConfig::paper(0);
        config.scale = 0.25;
        CampaignSpec::new(config, 77)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .replicates(3)
    }

    #[test]
    fn ids_are_validated_and_content_addressed() {
        let spec = tiny_spec();
        let id = JobStore::job_id(&spec);
        assert!(JobStore::valid_id(&id), "{id}");
        assert_eq!(id, JobStore::job_id(&tiny_spec()));
        for bad in ["", "..", "../../etc", "0123456789abcdeF", "0123456789abcde"] {
            assert!(!JobStore::valid_id(bad), "{bad:?}");
        }
    }

    #[test]
    fn journal_round_trips_and_drops_torn_tail() {
        let root = test_root("journal");
        let _ = fs::remove_dir_all(&root);
        let store = JobStore::open(&root).expect("open");
        let spec = tiny_spec();
        let id = JobStore::job_id(&spec);
        let scenarios = spec.scenarios();
        store
            .create_job(&id, &spec, scenarios.len())
            .expect("create");
        assert_eq!(store.load_scenario_count(&id).expect("meta"), 3);
        assert_eq!(
            store.load_spec(&id).expect("spec").to_json().render(),
            spec.to_json().render()
        );

        let campaign = run_campaign(&spec, 1);
        {
            let mut journal = store.open_journal(&id).expect("journal");
            for result in &campaign.results[..2] {
                journal.append(result).expect("append");
            }
        }
        // Simulate a SIGKILL mid-append: a torn, newline-less final line.
        let mut raw = fs::read_to_string(root.join("jobs").join(&id).join("journal.jsonl"))
            .expect("read journal");
        raw.push_str("{\"index\":2,\"seed\":12345,\"energy_pj\":1.0");
        fs::write(root.join("jobs").join(&id).join("journal.jsonl"), &raw).expect("tear");

        let loaded = store
            .load_journal(&id, &scenarios, &(0..scenarios.len()))
            .expect("load");
        assert_eq!(loaded.done, [0usize, 1].into_iter().collect());
        assert_eq!(loaded.results, campaign.results[..2].to_vec());

        // Re-opening for append seals the torn tail first, so the next
        // row lands on a fresh line instead of welding onto the tear.
        {
            let mut journal = store.open_journal(&id).expect("reopen");
            journal
                .append(&campaign.results[2])
                .expect("append after tear");
        }
        let healed = store
            .load_journal(&id, &scenarios, &(0..scenarios.len()))
            .expect("load healed");
        assert_eq!(healed.done, [0usize, 1, 2].into_iter().collect());
        assert_eq!(healed.results, campaign.results.to_vec());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn journal_from_another_campaign_is_rejected() {
        let root = test_root("foreign");
        let _ = fs::remove_dir_all(&root);
        let store = JobStore::open(&root).expect("open");
        let spec = tiny_spec();
        let id = JobStore::job_id(&spec);
        let scenarios = spec.scenarios();
        store
            .create_job(&id, &spec, scenarios.len())
            .expect("create");
        // Journal written under a different campaign seed: seeds differ.
        let mut config = SystemConfig::paper(0);
        config.scale = 0.25;
        let foreign = CampaignSpec::new(config, 78)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .replicates(3);
        let foreign_run = run_campaign(&foreign, 1);
        let mut journal = store.open_journal(&id).expect("journal");
        journal.append(&foreign_run.results[0]).expect("append");
        let err = store
            .load_journal(&id, &scenarios, &(0..scenarios.len()))
            .expect_err("foreign journal");
        assert!(err.contains("different campaign"), "{err}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn results_cache_and_delete() {
        let root = test_root("cache");
        let _ = fs::remove_dir_all(&root);
        let store = JobStore::open(&root).expect("open");
        let spec = tiny_spec();
        let id = JobStore::job_id(&spec);
        store.create_job(&id, &spec, 3).expect("create");
        assert!(store.read_result(&id).is_none());
        store.write_result(&id, "{\"ok\":true}").expect("write");
        assert_eq!(store.read_result(&id).expect("hit"), "{\"ok\":true}\n");
        assert_eq!(store.list_jobs(), vec![id.clone()]);
        store.delete_job(&id).expect("delete");
        assert!(store.read_result(&id).is_none());
        assert!(store.list_jobs().is_empty());
        store.delete_job(&id).expect("idempotent delete");
        let _ = fs::remove_dir_all(&root);
    }
}
