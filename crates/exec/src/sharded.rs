//! Remote execution: the shard coordinator's dispatch loop over one
//! `serve` backend or several, surfaced through the one executor API.

use std::time::Instant;

use chunkpoint_campaign::{CampaignSpec, CancelToken};
use chunkpoint_shard::{run_sharded_ctl, ShardConfig};

use crate::handle::{spawn_worker, CampaignHandle, EventSink};
use crate::outcome::{CampaignRun, ExecError};
use crate::CampaignExecutor;

/// Runs campaigns on remote `serve` backends through
/// [`run_sharded_ctl`]: an even contiguous split of the grid,
/// re-dispatch of failed or unreachable shards to survivors, and a
/// journal merge byte-identical to a single-machine run. One backend
/// (`ShardedExecutor::new(vec![addr])`) runs the whole grid there under
/// the same breaker, backoff and resubmit rules; a spec the backend has
/// cached answers from its content-addressed result store without
/// re-simulating.
///
/// Every coordinator event streams straight to the handle as a
/// [`CampaignEvent`](crate::CampaignEvent): dispatch decisions
/// (`ShardDispatched` / `ShardFailed` / `ShardRedispatched`), each
/// completed shard's validated rows as a burst of `ScenarioDone`
/// followed by `Progress`, and live `Progress` from running jobs in
/// between. Cancellation `DELETE`s every outstanding shard job (best
/// effort) and surfaces [`ExecError::Cancelled`].
#[derive(Debug, Clone)]
pub struct ShardedExecutor {
    backends: Vec<String>,
    config: ShardConfig,
}

impl ShardedExecutor {
    /// An executor across `backends` (each a `HOST:PORT` of a running
    /// `serve` instance), with default [`ShardConfig`].
    #[must_use]
    pub fn new(backends: Vec<String>) -> Self {
        Self {
            backends,
            config: ShardConfig::default(),
        }
    }

    /// Overrides the coordinator's wait/timeout/strike knobs.
    #[must_use]
    pub fn with_config(mut self, config: ShardConfig) -> Self {
        self.config = config;
        self
    }

    /// Points the coordinator at a range-granular result cache
    /// ([`chunkpoint_shard::RangeCache`]): sealed ranges on disk are
    /// spliced instead of dispatched
    /// ([`CampaignEvent::CacheHit`](crate::CampaignEvent::CacheHit)), and
    /// every completed shard writes its rows back. Shorthand for
    /// setting [`ShardConfig::cache_dir`] through
    /// [`ShardedExecutor::with_config`].
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.config.cache_dir = Some(dir.into());
        self
    }
}

impl CampaignExecutor for ShardedExecutor {
    fn submit(&self, spec: &CampaignSpec) -> CampaignHandle {
        let spec = spec.clone();
        let backends = self.backends.clone();
        let config = self.config.clone();
        spawn_worker("sharded", move |sink, cancel| {
            run_coordinated(&spec, &backends, &config, sink, cancel)
        })
    }
}

/// The executor's worker body: one coordinator run with every event
/// streamed to the handle.
fn run_coordinated(
    spec: &CampaignSpec,
    backends: &[String],
    config: &ShardConfig,
    sink: &EventSink,
    cancel: &CancelToken,
) -> Result<CampaignRun, ExecError> {
    let started = Instant::now();
    let run = run_sharded_ctl(spec, backends, config, cancel, |event| {
        sink.emit(event.clone());
    })?;
    Ok(CampaignRun {
        report: run.report,
        scenarios: run.results.len(),
        results: run.results,
        elapsed: started.elapsed(),
        dispatches: run.dispatches,
        failures: run.failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chunkpoint_campaign::SchemeSpec;
    use chunkpoint_core::{MitigationScheme, SystemConfig};
    use chunkpoint_workloads::Benchmark;

    #[test]
    fn no_backends_is_the_typed_error() {
        let mut config = SystemConfig::paper(0);
        config.scale = 0.25;
        let spec = CampaignSpec::new(config, 3)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default));
        let handle = ShardedExecutor::new(Vec::new()).submit(&spec);
        match handle.wait() {
            Err(ExecError::NoBackends) => {}
            other => panic!("expected NoBackends, got {other:?}"),
        }
    }
}
