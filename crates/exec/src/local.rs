//! In-process execution: the engine's streaming seam behind the
//! executor API.

use std::collections::HashSet;
use std::time::Instant;

use chunkpoint_campaign::{run_grid_streaming, CampaignEvent, CampaignSpec, CancelToken};
use chunkpoint_shard::merged_report_over;

use crate::handle::{spawn_worker, CampaignHandle, EventSink};
use crate::outcome::{CampaignRun, ExecError};
use crate::CampaignExecutor;

/// Runs campaigns in-process on the engine's work-stealing pool
/// (wrapping [`run_grid_streaming`] with the handle's [`CancelToken`]).
///
/// Events are fully live: every scenario emits
/// [`CampaignEvent::ScenarioDone`] and a [`CampaignEvent::Progress`]
/// the moment it completes. The report is byte-identical to the remote
/// and sharded paths at **any** thread count — per-scenario seeds are
/// pre-derived, so threads change wall-clock time only.
#[derive(Debug, Clone)]
pub struct LocalExecutor {
    threads: usize,
}

impl LocalExecutor {
    /// An executor running campaigns on `threads` workers (`0` = all
    /// available cores).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self { threads }
    }
}

impl CampaignExecutor for LocalExecutor {
    fn submit(&self, spec: &CampaignSpec) -> CampaignHandle {
        let spec = spec.clone();
        let threads = self.threads;
        spawn_worker("local", move |sink, cancel| {
            run_local(&spec, threads, sink, cancel)
        })
    }
}

/// The local executor's worker body: enumerate once (the typed
/// infeasible-spec rejection and the progress total), run that grid,
/// then check and render the rows through the coordinator's merge.
fn run_local(
    spec: &CampaignSpec,
    threads: usize,
    sink: &EventSink,
    cancel: &CancelToken,
) -> Result<CampaignRun, ExecError> {
    let started = Instant::now();
    let grid = spec.try_scenarios().map_err(|detail| ExecError::Rejected {
        backend: None,
        status: None,
        detail,
    })?;
    let active = spec.active_range(grid.len());
    let total = active.len();
    sink.emit(CampaignEvent::Progress { done: 0, total });
    let mut done = 0usize;
    let results = run_grid_streaming(spec, &grid, threads, cancel, &HashSet::new(), |result| {
        done += 1;
        sink.emit(CampaignEvent::ScenarioDone(result.clone()));
        sink.emit(CampaignEvent::Progress { done, total });
    });
    if cancel.is_cancelled() {
        return Err(ExecError::Cancelled);
    }
    let (report, results) = merged_report_over(spec.campaign_seed, active, results)?;
    Ok(CampaignRun {
        report,
        results,
        scenarios: total,
        elapsed: started.elapsed(),
        dispatches: 0,
        failures: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RemoteExecutor, ShardedExecutor};
    use chunkpoint_campaign::{canonical_report_json, run_campaign, SchemeSpec};
    use chunkpoint_core::{MitigationScheme, SystemConfig};
    use chunkpoint_serve::REPORT_AXES;
    use chunkpoint_workloads::Benchmark;

    fn small_spec(replicates: u64) -> CampaignSpec {
        let mut config = SystemConfig::paper(0);
        config.scale = 0.25;
        CampaignSpec::new(config, 0xE4EC)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
            .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
            .replicates(replicates)
    }

    #[test]
    fn local_run_matches_direct_engine_bytes_at_any_thread_count() {
        let spec = small_spec(2);
        let direct = run_campaign(&spec, 1);
        let expected =
            canonical_report_json(spec.campaign_seed, &direct.results, &REPORT_AXES).render();
        for threads in [1, 2] {
            let handle = LocalExecutor::new(threads).submit(&spec);
            let events: Vec<CampaignEvent> = handle.events().collect();
            let run = handle.wait().expect("local run");
            assert_eq!(run.report, expected, "threads {threads}");
            assert_eq!(run.scenarios, direct.results.len());
            assert!(matches!(events.last(), Some(CampaignEvent::Complete)));
            let scenario_events = events
                .iter()
                .filter(|e| matches!(e, CampaignEvent::ScenarioDone(_)))
                .count();
            assert_eq!(scenario_events, run.scenarios);
            assert!(events
                .iter()
                .any(|e| matches!(e, CampaignEvent::Progress { done, total } if done == total)));
        }
    }

    #[test]
    fn cancel_surfaces_as_the_typed_error() {
        // The worker waits at a gate until the cancel has landed, so the
        // run cannot finish first however fast its scenarios are.
        let spec = small_spec(24);
        let (open, gate) = std::sync::mpsc::channel::<()>();
        let handle = spawn_worker("local", move |sink, cancel| {
            gate.recv().expect("the test opens the gate");
            run_local(&spec, 1, sink, cancel)
        });
        handle.cancel();
        open.send(()).expect("the worker waits at the gate");
        let finished = handle
            .events()
            .filter(|e| matches!(e, CampaignEvent::ScenarioDone(_)))
            .count();
        assert_eq!(finished, 0, "a cancelled run starts no scenario");
        match handle.wait() {
            Err(ExecError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_specs_are_rejected_not_panicked() {
        // An optimizer-backed scheme over an impossible area budget
        // enumerates no grid; every executor must type it — the remote
        // ones before contacting their (unreachable) backend, or the
        // refusal would come back as Exhausted.
        let mut config = SystemConfig::paper(0);
        config.scale = 0.25;
        config.constraints.area_overhead = 0.0;
        let spec = CampaignSpec::new(config, 1)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("Optimal", SchemeSpec::Optimal);
        let unreachable = "127.0.0.1:1".to_owned();
        let executors: [(&str, Box<dyn CampaignExecutor>); 3] = [
            ("local", Box::new(LocalExecutor::new(1))),
            ("remote", Box::new(RemoteExecutor::new(unreachable.clone()))),
            ("sharded", Box::new(ShardedExecutor::new(vec![unreachable]))),
        ];
        for (path, executor) in executors {
            match executor.submit(&spec).wait() {
                Err(ExecError::Rejected { detail, .. }) => {
                    assert!(detail.contains("feasible"), "{path}: {detail}");
                }
                other => panic!("{path}: expected Rejected, got {other:?}"),
            }
        }
    }
}
