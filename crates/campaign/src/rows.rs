//! Sealed scenario rows: the one codec for the [`ScenarioResult`] rows a
//! campaign stores or fetches, and the rules that decide which it trusts.
//!
//! A *row log* holds one [`ScenarioResult::to_json`] object per line
//! ([`sealed_line`]); the serve journal and the coordinator's range
//! files are row logs. Every reader applies three rules, kept here once:
//!
//! * **torn tail** — only newline-sealed lines count ([`sealed_lines`]);
//! * **admission** — a row counts for a range of a grid only if its index
//!   lies in the range and [`ScenarioResult::from_json`] accepts it for
//!   that grid scenario (index and derived seed); the first copy of an
//!   index wins ([`RangeRows::admit`]);
//! * **exact coverage** — a finished range holds each of its indices
//!   exactly once ([`exact_cover`]).
//!
//! These rules bind a row to its campaign and its place in the grid, not
//! its measurements: a digit flipped in a sealed row's `energy_pj` is
//! admitted as written. No row log carries a content checksum.

use std::collections::HashSet;
use std::ops::Range;

use crate::engine::ScenarioResult;
use crate::json::JsonValue;
use crate::spec::Scenario;

/// `row` as one sealed row-log line: its JSON object and a newline.
#[must_use]
pub fn sealed_line(row: &ScenarioResult) -> String {
    let mut line = row.to_json().render();
    line.push('\n');
    line
}

/// Length of the sealed prefix of a row log: everything up to and
/// including its last newline. Bytes past it are a torn tail.
#[must_use]
pub fn sealed_len(raw: &[u8]) -> usize {
    raw.iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |last| last + 1)
}

/// The sealed, non-blank lines of a row log, in log order.
pub fn sealed_lines(raw: &str) -> impl Iterator<Item = &str> {
    raw[..sealed_len(raw.as_bytes())]
        .lines()
        .filter(|line| !line.trim().is_empty())
}

/// The rows admitted for one index range of a grid.
#[derive(Debug)]
pub struct RangeRows<'g> {
    grid: &'g [Scenario],
    range: Range<usize>,
    /// The first copy of each admitted index, in admission order.
    rows: Vec<ScenarioResult>,
    /// The indices of `rows`.
    done: HashSet<usize>,
}

impl<'g> RangeRows<'g> {
    /// Nothing admitted yet for `range` of `grid`, the spec's full
    /// enumeration.
    #[must_use]
    pub fn new(grid: &'g [Scenario], range: Range<usize>) -> Self {
        Self {
            grid,
            range,
            rows: Vec::new(),
            done: HashSet::new(),
        }
    }

    /// Admits one JSON row. A repeat of an admitted index is checked
    /// like any row, then dropped: the first copy wins.
    ///
    /// # Errors
    ///
    /// A row with no index, an index outside the range or the grid, or
    /// a row [`ScenarioResult::from_json`] refuses for its scenario (a
    /// wrong seed means the row belongs to a different campaign).
    pub fn admit(&mut self, row: &JsonValue) -> Result<(), String> {
        let index = row
            .get("index")
            .and_then(JsonValue::as_u64)
            .and_then(|index| usize::try_from(index).ok())
            .ok_or("row has no index")?;
        let scenario = self
            .grid
            .get(index)
            .filter(|_| self.range.contains(&index))
            .ok_or_else(|| {
                format!(
                    "row indexes scenario {index} outside the scenario range [{}, {}) \
                     of a {}-scenario grid",
                    self.range.start,
                    self.range.end,
                    self.grid.len()
                )
            })?;
        let result = ScenarioResult::from_json(row, scenario.clone())?;
        if self.done.insert(index) {
            self.rows.push(result);
        }
        Ok(())
    }

    /// The admitted rows in admission order, and their indices.
    #[must_use]
    pub fn into_parts(self) -> (Vec<ScenarioResult>, HashSet<usize>) {
        (self.rows, self.done)
    }

    /// The admitted rows in index order, if they cover the range
    /// exactly.
    ///
    /// # Errors
    ///
    /// Names the first index missing from the range ([`exact_cover`]).
    pub fn into_exact(self) -> Result<Vec<ScenarioResult>, String> {
        exact_cover(self.range, self.rows)
    }
}

/// Sorts `rows` by scenario index and checks that they cover `range`
/// exactly once each.
///
/// # Errors
///
/// Names the first index of `range` that is missing or duplicated, or
/// the first row outside it.
pub fn exact_cover(
    range: Range<usize>,
    mut rows: Vec<ScenarioResult>,
) -> Result<Vec<ScenarioResult>, String> {
    rows.sort_by_key(|row| row.scenario.index);
    let mut next = range.start;
    for row in &rows {
        let found = row.scenario.index;
        let (index, what) = if found == next && range.contains(&found) {
            next += 1;
            continue;
        } else if found < next && found >= range.start {
            (found, "duplicated in")
        } else if found > next && next < range.end {
            (next, "missing from")
        } else {
            (found, "outside")
        };
        return Err(format!(
            "scenario {index} is {what} [{}, {})",
            range.start, range.end
        ));
    }
    if next < range.end {
        return Err(format!(
            "scenario {next} is missing from [{}, {})",
            range.start, range.end
        ));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_campaign, CampaignSpec, SchemeSpec};
    use chunkpoint_core::{MitigationScheme, SystemConfig};
    use chunkpoint_workloads::Benchmark;

    #[test]
    fn exact_cover_names_the_first_gap_repeat_or_stranger() {
        let mut config = SystemConfig::paper(0);
        config.scale = 0.25;
        let spec = CampaignSpec::new(config, 0x5EA1)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .replicates(4);
        let results = run_campaign(&spec, 1).results;
        let cover = |range: Range<usize>, picks: &[usize]| {
            exact_cover(range, picks.iter().map(|&i| results[i].clone()).collect())
        };
        assert_eq!(cover(0..4, &[3, 1, 0, 2]).expect("exact"), results);
        for (range, picks, want) in [
            (0..4, &[0, 1, 3][..], "scenario 2 is missing from [0, 4)"),
            (0..4, &[0, 1, 2], "scenario 3 is missing from [0, 4)"),
            (0..3, &[0, 1, 1, 2], "scenario 1 is duplicated in [0, 3)"),
            (1..3, &[0, 1, 2], "scenario 0 is outside [1, 3)"),
            (0..2, &[0, 1, 3], "scenario 3 is outside [0, 2)"),
        ] {
            assert_eq!(cover(range, picks).expect_err(want), want);
        }
    }
}
