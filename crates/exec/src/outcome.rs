//! What a submitted campaign ends with: its [`CampaignRun`], or the one
//! error enum every executor fails with.

use std::time::Duration;

use chunkpoint_campaign::ScenarioResult;
use chunkpoint_shard::{PartialCampaign, ShardError};

/// Why a submitted campaign did not produce a [`CampaignRun`] — one
/// enum over every execution path, subsuming the shard coordinator's
/// [`ShardError`].
#[derive(Debug)]
pub enum ExecError {
    /// The executor has no backends to run on.
    NoBackends,
    /// The spec itself was refused — an unenumerable grid, invalid
    /// weights, or a backend 4xx. Retrying cannot help; every backend
    /// would say the same.
    Rejected {
        /// The refusing backend, if one was involved.
        backend: Option<String>,
        /// The HTTP status, if the refusal came over the wire.
        status: Option<u16>,
        /// What was wrong.
        detail: String,
    },
    /// Every backend or dispatch attempt was exhausted with work still
    /// outstanding. The completed shards ride along as a
    /// [`PartialCampaign`] — graceful degradation instead of an opaque
    /// error (empty when nothing completed).
    Exhausted {
        /// What the executor saw last.
        detail: String,
        /// Completed ranges, validated rows, and a canonical report
        /// over them.
        partial: Box<PartialCampaign>,
    },
    /// The campaign's worker panicked.
    JobFailed {
        /// The panic message.
        detail: String,
    },
    /// The collected rows do not cover the scenarios this run was to
    /// execute exactly once each.
    BadMerge {
        /// What did not line up.
        detail: String,
    },
    /// The run was cancelled through
    /// [`CampaignHandle::cancel`](crate::CampaignHandle::cancel).
    Cancelled,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::NoBackends => write!(f, "no backends to execute on"),
            ExecError::Rejected {
                backend,
                status,
                detail,
            } => {
                write!(f, "spec rejected")?;
                if let Some(backend) = backend {
                    write!(f, " by {backend}")?;
                }
                if let Some(status) = status {
                    write!(f, " ({status})")?;
                }
                write!(f, ": {detail}")
            }
            ExecError::Exhausted { detail, partial } => write!(
                f,
                "backends exhausted: {detail} ({} scenarios salvaged across {} completed ranges)",
                partial.scenarios(),
                partial.completed_ranges.len()
            ),
            ExecError::JobFailed { detail } => write!(f, "campaign failed: {detail}"),
            ExecError::BadMerge { detail } => write!(f, "result merge failed: {detail}"),
            ExecError::Cancelled => write!(f, "campaign cancelled"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ShardError> for ExecError {
    fn from(error: ShardError) -> Self {
        match error {
            ShardError::NoBackends => ExecError::NoBackends,
            ShardError::Invalid(detail) => ExecError::Rejected {
                backend: None,
                status: None,
                detail,
            },
            ShardError::Rejected {
                backend,
                status,
                body,
            } => ExecError::Rejected {
                backend: Some(backend),
                status: Some(status),
                detail: body,
            },
            ShardError::Exhausted { detail, partial } => ExecError::Exhausted { detail, partial },
            ShardError::BadMerge(detail) => ExecError::BadMerge { detail },
            ShardError::Cancelled => ExecError::Cancelled,
        }
    }
}

/// A completed campaign, identical in content across every execution
/// path: the acceptance invariant is that the same spec yields
/// **byte-identical** `report` strings through the local, remote, and
/// sharded executors.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The canonical timing-free report
    /// ([`chunkpoint_campaign::canonical_report_json`] rendered) — a
    /// pure function of the spec, so identical across executors,
    /// thread counts, backend failures, and resumes.
    pub report: String,
    /// Per-scenario rows in scenario-index order.
    pub results: Vec<ScenarioResult>,
    /// Scenarios this run executed.
    pub scenarios: usize,
    /// Wall-clock time from submit to completion.
    pub elapsed: Duration,
    /// Job submissions performed (0 for local; `> shards` on the
    /// sharded path means at least one shard was re-dispatched).
    pub dispatches: usize,
    /// Failed exchanges and failed jobs observed along the way.
    pub failures: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_errors_map_to_typed_exec_errors() {
        assert!(matches!(
            ExecError::from(ShardError::NoBackends),
            ExecError::NoBackends
        ));
        assert!(matches!(
            ExecError::from(ShardError::Cancelled),
            ExecError::Cancelled
        ));
        let rejected = ExecError::from(ShardError::Rejected {
            backend: "127.0.0.1:1".to_owned(),
            status: 400,
            body: "bad spec".to_owned(),
        });
        match rejected {
            ExecError::Rejected {
                backend: Some(backend),
                status: Some(400),
                detail,
            } => {
                assert_eq!(backend, "127.0.0.1:1");
                assert_eq!(detail, "bad spec");
            }
            other => panic!("wrong mapping: {other:?}"),
        }
        let exhausted = ExecError::from(ShardError::Exhausted {
            detail: "all dead".to_owned(),
            partial: Box::new(PartialCampaign {
                completed_ranges: vec![(0, 3)],
                results: Vec::new(),
                report_so_far: String::new(),
            }),
        });
        assert!(exhausted.to_string().contains("all dead"));
        match exhausted {
            ExecError::Exhausted { partial, .. } => {
                assert_eq!(partial.completed_ranges, vec![(0, 3)])
            }
            other => panic!("partial payload lost: {other:?}"),
        }
    }
}
