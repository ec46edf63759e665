//! Multi-backend execution: the shard coordinator's dispatch loop
//! surfaced through the one executor API.

use std::time::Instant;

use chunkpoint_campaign::{CampaignSpec, CancelToken};
use chunkpoint_shard::{run_sharded_ctl, ShardConfig};

use crate::handle::{spawn_worker, CampaignHandle, EventSink};
use crate::outcome::{CampaignRun, ExecError};
use crate::CampaignExecutor;

/// Runs campaigns sharded across several `serve` backends through
/// [`run_sharded_ctl`]: contiguous (optionally weighted) grid
/// partitioning, re-dispatch of failed or unreachable shards to
/// survivors, and a journal merge byte-identical to a single-machine
/// run.
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
    weights: Option<Vec<f64>>,
    config: ShardConfig,
}

impl ShardedExecutor {
    /// An executor across `backends` (each a `HOST:PORT` of a running
    /// `serve` instance), evenly partitioned, with default
    /// [`ShardConfig`].
    #[must_use]
    pub fn new(backends: Vec<String>) -> Self {
        Self {
            backends,
            weights: None,
            config: ShardConfig::default(),
        }
    }

    /// Partitions the grid proportionally to per-backend capacity
    /// weights (one per backend) instead of evenly — see
    /// [`chunkpoint_shard::partition_weighted`]. Invalid weights
    /// surface as [`ExecError::Rejected`] at wait time.
    #[must_use]
    pub fn with_weights(mut self, weights: Vec<f64>) -> Self {
        self.weights = Some(weights);
        self
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
        let weights = self.weights.clone();
        let config = self.config.clone();
        spawn_worker("sharded", move |sink, cancel| {
            run_coordinated(&spec, &backends, weights.as_deref(), &config, sink, cancel)
        })
    }
}

/// The worker body of both remote executors: one coordinator run with
/// every event streamed to the handle.
pub(crate) fn run_coordinated(
    spec: &CampaignSpec,
    backends: &[String],
    weights: Option<&[f64]>,
    config: &ShardConfig,
    sink: &EventSink,
    cancel: &CancelToken,
) -> Result<CampaignRun, ExecError> {
    let started = Instant::now();
    let run = run_sharded_ctl(spec, backends, weights, config, cancel, |event| {
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

    #[test]
    fn invalid_weight_values_are_rejected_not_panicked() {
        let mut config = SystemConfig::paper(0);
        config.scale = 0.25;
        let spec = CampaignSpec::new(config, 3)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default));
        for bad in [vec![0.0, 0.0], vec![1.0, -1.0], vec![f64::NAN, 1.0]] {
            let handle = ShardedExecutor::new(vec!["127.0.0.1:1".to_owned(), "x:2".to_owned()])
                .with_weights(bad.clone())
                .submit(&spec);
            match handle.wait() {
                Err(ExecError::Rejected { detail, .. }) => {
                    assert!(detail.contains("weights"), "{bad:?}: {detail}");
                }
                other => panic!("{bad:?}: expected Rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn mismatched_weights_are_rejected() {
        let mut config = SystemConfig::paper(0);
        config.scale = 0.25;
        let spec = CampaignSpec::new(config, 3)
            .benchmarks(&[Benchmark::AdpcmEncode])
            .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default));
        let handle = ShardedExecutor::new(vec!["127.0.0.1:1".to_owned()])
            .with_weights(vec![1.0, 2.0])
            .submit(&spec);
        match handle.wait() {
            Err(ExecError::Rejected { detail, .. }) => {
                assert!(detail.contains("weights"), "{detail}");
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }
}
