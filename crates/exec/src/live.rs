//! Streaming partial aggregates: a thin consumer of the campaign event
//! stream that keeps Welford summaries live while scenarios arrive —
//! watch a campaign's mean ± 95 % CI tighten instead of waiting for
//! the final report.

use chunkpoint_campaign::{Aggregator, Axis, CampaignEvent, Summary};

/// Live partial aggregates over a campaign's event stream.
///
/// Feed every event from
/// [`CampaignHandle::events`](crate::CampaignHandle::events) to
/// [`LiveAggregates::observe`]; it folds each
/// [`CampaignEvent::ScenarioDone`] into an overall Welford summary
/// (energy, and energy ratio when the campaign normalizes) plus a
/// grouped [`Aggregator`], and answers with a printable progress line
/// whenever the numbers moved. Because every executor's `ScenarioDone`
/// rows are the canonical report's rows, the final aggregates equal
/// the report's — partial results simply become exact.
///
/// ```no_run
/// use chunkpoint_campaign::Axis;
/// use chunkpoint_exec::{CampaignExecutor, LiveAggregates, LocalExecutor};
/// # let spec: chunkpoint_campaign::CampaignSpec = unimplemented!();
/// let handle = LocalExecutor::new(0).submit(&spec);
/// let mut live = LiveAggregates::new(&[Axis::Scheme]);
/// for event in handle.events() {
///     if let Some(line) = live.observe(&event) {
///         println!("{line}");
///     }
/// }
/// let run = handle.wait().expect("campaign");
/// ```
#[derive(Debug)]
pub struct LiveAggregates {
    aggregator: Aggregator,
    energy_pj: Summary,
    energy_ratio: Summary,
    /// `ScenarioDone` events folded in.
    seen: usize,
    /// Latest `Progress.done` — on the remote path progress runs ahead
    /// of the row burst, so completion is the max of the two.
    progress: usize,
    total: usize,
}

impl LiveAggregates {
    /// A fresh consumer grouping scenario results by `axes`.
    #[must_use]
    pub fn new(axes: &[Axis]) -> Self {
        Self {
            aggregator: Aggregator::new(axes),
            energy_pj: Summary::new(),
            energy_ratio: Summary::new(),
            seen: 0,
            progress: 0,
            total: 0,
        }
    }

    /// Folds one event in; answers a printable line when it changed the
    /// live numbers (scenario completions and shard dispatch decisions
    /// — plain progress ticks return `None`).
    pub fn observe(&mut self, event: &CampaignEvent) -> Option<String> {
        match event {
            CampaignEvent::ScenarioDone(result) => {
                self.aggregator.push(result);
                self.energy_pj.push(result.energy_pj);
                if let Some(ratio) = result.energy_ratio {
                    self.energy_ratio.push(ratio);
                }
                self.seen += 1;
                Some(self.line())
            }
            CampaignEvent::Progress { done, total } => {
                self.total = *total;
                self.progress = (*done).max(self.progress);
                None
            }
            CampaignEvent::Complete => Some(format!("complete · {}", self.line())),
            shard_event => Some(shard_event.to_string()),
        }
    }

    /// The current partial-aggregate line: progress plus live
    /// mean ± CI95.
    #[must_use]
    pub fn line(&self) -> String {
        let done = self.done();
        let mut line = format!(
            "{}/{} scenarios · energy {:.1} ± {:.1} pJ",
            done,
            self.total.max(done),
            self.energy_pj.mean(),
            self.energy_pj.ci95_half_width()
        );
        if self.energy_ratio.count() > 0 {
            line.push_str(&format!(
                " · energy ratio {:.3} ± {:.3}",
                self.energy_ratio.mean(),
                self.energy_ratio.ci95_half_width()
            ));
        }
        line
    }

    /// The grouped aggregates accumulated so far (the final report's
    /// groups once the run completes).
    #[must_use]
    pub fn groups(&self) -> &Aggregator {
        &self.aggregator
    }

    /// Scenarios known complete so far (the max of rows folded in and
    /// reported progress).
    #[must_use]
    pub fn done(&self) -> usize {
        self.seen.max(self.progress)
    }

    /// The run's scenario total (0 until the first progress event).
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }
}
