//! Single-backend remote execution: the shard coordinator's run over
//! one `serve` instance.

use chunkpoint_campaign::CampaignSpec;
use chunkpoint_shard::ShardConfig;

use crate::handle::{spawn_worker, CampaignHandle};
use crate::sharded::run_coordinated;
use crate::CampaignExecutor;

/// Runs campaigns on one remote `serve` backend: a one-backend
/// [`chunkpoint_shard::run_sharded_ctl`] run that submits the spec,
/// waits on the job, fetches and row-validates the journal, and renders
/// the canonical report locally — under the same breaker, backoff and
/// resubmit rules as [`ShardedExecutor`](crate::ShardedExecutor).
///
/// [`CampaignEvent::Progress`](crate::CampaignEvent::Progress) streams
/// live as the backend's `completed` count advances;
/// [`CampaignEvent::ScenarioDone`](crate::CampaignEvent::ScenarioDone)
/// events arrive in one index-ordered burst after the journal fetch
/// (the service journals rows, it does not push them). Submitting a
/// spec the backend has cached answers from the content-addressed
/// result store without re-simulating — the same `CampaignRun` comes
/// back, just faster.
///
/// Cancellation `DELETE`s the job on the backend (stopping its
/// campaign between scenarios) and surfaces
/// [`ExecError::Cancelled`](crate::ExecError::Cancelled).
#[derive(Debug, Clone)]
pub struct RemoteExecutor {
    addr: String,
    config: ShardConfig,
}

impl RemoteExecutor {
    /// An executor against the `serve` instance at `addr`
    /// (`HOST:PORT`), with default [`ShardConfig`].
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            config: ShardConfig::default(),
        }
    }

    /// Overrides the coordinator's wait/timeout/strike knobs.
    #[must_use]
    pub fn with_config(mut self, config: ShardConfig) -> Self {
        self.config = config;
        self
    }
}

impl CampaignExecutor for RemoteExecutor {
    fn submit(&self, spec: &CampaignSpec) -> CampaignHandle {
        let spec = spec.clone();
        let backends = vec![self.addr.clone()];
        let config = self.config.clone();
        spawn_worker("remote", move |sink, cancel| {
            run_coordinated(&spec, &backends, None, &config, sink, cancel)
        })
    }
}
