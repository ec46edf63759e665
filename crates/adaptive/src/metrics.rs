//! The controller's metric handles on the process-global registry.

use std::sync::Arc;

use chunkpoint_telemetry::{Counter, Gauge};

/// Handles to every adaptive-controller series, resolved once per run.
pub(crate) struct ControllerTelemetry {
    /// `adaptive_cells_stopped_early_total` — cells whose CI rule fired
    /// before their replicate budget was spent.
    pub cells_stopped_early: Arc<Counter>,
    /// `adaptive_replicates_reallocated_total` — replicates granted
    /// from freed budget beyond the base per-round allocation.
    pub replicates_reallocated: Arc<Counter>,
    /// `adaptive_open_cells` — cells still sampling as of the last
    /// control round.
    pub open_cells: Arc<Gauge>,
}

impl ControllerTelemetry {
    pub(crate) fn resolve() -> Self {
        let registry = chunkpoint_telemetry::global();
        Self {
            cells_stopped_early: registry.counter(
                "adaptive_cells_stopped_early_total",
                "Grid cells stopped by the CI rule before exhausting their replicate budget",
            ),
            replicates_reallocated: registry.counter(
                "adaptive_replicates_reallocated_total",
                "Replicates granted to open cells out of freed budget",
            ),
            open_cells: registry.gauge(
                "adaptive_open_cells",
                "Grid cells still sampling as of the last control round",
            ),
        }
    }
}
