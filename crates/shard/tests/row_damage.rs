//! Structural damage to a sealed row log on disk. A range file holds
//! the bytes a serve journal of the same rows holds, so each damaged
//! file is fed to both readers: `RangeCache::load` must return exactly
//! the range's oracle rows or none of them, and `JobStore::load_journal`
//! rows that each equal their oracle row, or an error — never a panic.
//! (A digit flipped inside a row's measurements is not structural
//! damage, and neither reader detects it.)

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

use chunkpoint_campaign::{run_campaign, CampaignSpec, Scenario, ScenarioResult, SchemeSpec};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_serve::JobStore;
use chunkpoint_shard::RangeCache;
use chunkpoint_workloads::Benchmark;
use proptest::prelude::*;

/// The sealed range: rows 1..4 of a 6-scenario grid, so a row exists on
/// each side of it.
const RANGE: std::ops::Range<usize> = 1..4;

fn spec(seed: u64) -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    CampaignSpec::new(config, seed)
        .benchmarks(&[Benchmark::AdpcmEncode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
        .replicates(3)
}

/// The oracle rows of `spec(0xDA4A)` and row 0 of another campaign,
/// simulated once per test binary.
fn rows() -> &'static (Vec<ScenarioResult>, ScenarioResult) {
    static ROWS: OnceLock<(Vec<ScenarioResult>, ScenarioResult)> = OnceLock::new();
    ROWS.get_or_init(|| {
        let foreign = run_campaign(&spec(0x0BAD), 1).results.swap_remove(0);
        (run_campaign(&spec(0xDA4A), 1).results, foreign)
    })
}

/// A sealed range file and a job journal, both rewritten by `check`.
struct Fixture {
    root: PathBuf,
    spec: CampaignSpec,
    grid: Vec<Scenario>,
    cache: RangeCache,
    range_file: PathBuf,
    store: JobStore,
    id: String,
    journal: PathBuf,
    /// The sealed file's lines, each with its newline.
    lines: Vec<String>,
}

impl Fixture {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!(
            "chunkpoint_row_damage_{}_{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let spec = spec(0xDA4A);
        let cache = RangeCache::new(root.join("cache"));
        let range_file = cache
            .store(&spec, (RANGE.start, RANGE.end), &rows().0[RANGE])
            .expect("seal");
        let sealed = std::fs::read_to_string(&range_file).expect("sealed file");
        let store = JobStore::open(root.join("store")).expect("store");
        let job = spec.clone().scenario_range(RANGE.start, RANGE.end);
        let id = JobStore::job_id(&job);
        store.create_job(&id, &job, RANGE.len()).expect("job");
        Self {
            journal: root.join("store/jobs").join(&id).join("journal.jsonl"),
            root,
            grid: spec.scenarios(),
            spec,
            cache,
            range_file,
            store,
            id,
            lines: sealed.split_inclusive('\n').map(str::to_owned).collect(),
        }
    }

    /// Writes `bytes` as the range file and as the journal, checks both
    /// readers' contracts, and returns what the cache loaded and
    /// whether the journal loaded.
    fn check(&self, bytes: &[u8], what: &str) -> (BTreeMap<usize, ScenarioResult>, bool) {
        let oracle = &rows().0;
        std::fs::write(&self.range_file, bytes).expect("write range file");
        let loaded = self.cache.load(&self.spec, &self.grid);
        assert!(
            loaded.is_empty()
                || (loaded.keys().copied().eq(RANGE) && loaded.values().eq(&oracle[RANGE])),
            "{what}: the cache loaded {:?}, neither all of {RANGE:?} nor nothing",
            loaded.keys().collect::<Vec<_>>()
        );
        std::fs::write(&self.journal, bytes).expect("write journal");
        let journal = self.store.load_journal(&self.id, &self.grid, &RANGE);
        for row in journal.iter().flat_map(|journal| &journal.results) {
            assert_eq!(row, &oracle[row.scenario.index], "{what}");
        }
        (loaded, journal.is_ok())
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn every_cut_of_a_range_file_is_a_whole_file_miss() {
    let fixture = Fixture::new("cut");
    let sealed = fixture.lines.concat();
    let (intact, _) = fixture.check(sealed.as_bytes(), "intact");
    assert_eq!(intact.len(), RANGE.len(), "the intact file must load");
    for cut in 0..sealed.len() {
        let (loaded, journal_ok) = fixture.check(&sealed.as_bytes()[..cut], &format!("cut {cut}"));
        assert!(loaded.is_empty(), "cut at byte {cut} still loaded");
        assert!(journal_ok, "a cut journal is a crash, not corruption");
    }
}

#[test]
fn dropped_repeated_swapped_and_appended_lines() {
    let fixture = Fixture::new("lines");
    let edited = |edit: &dyn Fn(&mut Vec<String>)| {
        let mut lines = fixture.lines.clone();
        edit(&mut lines);
        lines.concat()
    };
    for k in 0..fixture.lines.len() {
        let (loaded, journal_ok) = fixture.check(
            edited(&|lines| drop(lines.remove(k))).as_bytes(),
            &format!("drop {k}"),
        );
        assert!(loaded.is_empty() && journal_ok, "drop line {k}");
        let (loaded, journal_ok) = fixture.check(
            edited(&|lines| lines.insert(k, lines[k].clone())).as_bytes(),
            &format!("repeat {k}"),
        );
        assert!(loaded.is_empty() && journal_ok, "repeat line {k}");
        if k > 0 {
            let swapped = edited(&|lines| lines.swap(k - 1, k));
            let (_, journal_ok) = fixture.check(swapped.as_bytes(), &format!("swap {k}"));
            assert!(journal_ok, "swap lines {} and {k}", k - 1);
        }
    }
    let (oracle, foreign) = rows();
    for (what, extra) in [("foreign row", foreign), ("next row", &oracle[RANGE.end])] {
        let appended = edited(&|lines| lines.push(extra.to_json().render() + "\n"));
        let (loaded, journal_ok) = fixture.check(appended.as_bytes(), what);
        assert!(loaded.is_empty() && !journal_ok, "{what} appended");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn random_bytes_never_load(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let fixture = Fixture::new("random");
        let (loaded, _) = fixture.check(&bytes, "random bytes");
        prop_assert!(loaded.is_empty());
    }
}
