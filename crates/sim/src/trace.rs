//! Lightweight execution tracing for debugging and for reconstructing the
//! paper's Fig. 1 timeline (phases, checkpoints, errors, rollbacks).

use crate::bus::WordAddr;

/// One traced event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A computation phase began.
    PhaseStart {
        /// Phase index.
        phase: usize,
        /// Cycle at which it began.
        cycle: u64,
    },
    /// A computation phase finished cleanly.
    PhaseEnd {
        /// Phase index.
        phase: usize,
        /// Cycle at which it ended.
        cycle: u64,
    },
    /// A checkpoint was committed and its chunk buffered to L1′.
    Checkpoint {
        /// Checkpoint index CH(i).
        index: usize,
        /// Commit cycle.
        cycle: u64,
        /// Words buffered into L1′ (state + chunk).
        chunk_words: u32,
    },
    /// A read-error interrupt fired.
    ReadError {
        /// Faulting word address.
        addr: WordAddr,
        /// Cycle of the faulty read.
        cycle: u64,
    },
    /// The system rolled back to a checkpoint.
    Rollback {
        /// Target checkpoint index.
        to_checkpoint: usize,
        /// Cycle at which the rollback completed.
        cycle: u64,
    },
    /// A whole-task restart (the SW-baseline response to an error).
    TaskRestart {
        /// Restart cycle.
        cycle: u64,
    },
}

impl TraceEvent {
    /// Cycle at which the event occurred.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::PhaseStart { cycle, .. }
            | TraceEvent::PhaseEnd { cycle, .. }
            | TraceEvent::Checkpoint { cycle, .. }
            | TraceEvent::ReadError { cycle, .. }
            | TraceEvent::Rollback { cycle, .. }
            | TraceEvent::TaskRestart { cycle } => cycle,
        }
    }
}

/// Bounded in-order event log.
///
/// # Examples
///
/// ```
/// use chunkpoint_sim::{Trace, TraceEvent};
///
/// let mut trace = Trace::new(16);
/// trace.push(TraceEvent::PhaseStart { phase: 0, cycle: 0 });
/// trace.push(TraceEvent::PhaseEnd { phase: 0, cycle: 900 });
/// assert_eq!(trace.events().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// Creates a trace that keeps at most `capacity` events (0 disables
    /// recording entirely).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Records an event, dropping it if the trace is full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// Recorded events in order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events dropped because the trace was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of rollbacks recorded.
    #[must_use]
    pub fn rollbacks(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Rollback { .. }))
            .count()
    }

    /// Number of checkpoints recorded.
    #[must_use]
    pub fn checkpoints(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Checkpoint { .. }))
            .count()
    }

    /// Renders an ASCII timeline (one line per event) for examples/tests.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            let line = match event {
                TraceEvent::PhaseStart { phase, cycle } => {
                    format!("{cycle:>10} | P{phase} start")
                }
                TraceEvent::PhaseEnd { phase, cycle } => {
                    format!("{cycle:>10} | P{phase} end")
                }
                TraceEvent::Checkpoint {
                    index,
                    cycle,
                    chunk_words,
                } => {
                    format!("{cycle:>10} | CH({index}) commit, {chunk_words} words -> L1'")
                }
                TraceEvent::ReadError { addr, cycle } => {
                    format!("{cycle:>10} | READ ERROR @ {addr:#x}")
                }
                TraceEvent::Rollback {
                    to_checkpoint,
                    cycle,
                } => {
                    format!("{cycle:>10} | rollback -> CH({to_checkpoint})")
                }
                TraceEvent::TaskRestart { cycle } => {
                    format!("{cycle:>10} | task restart")
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut trace = Trace::new(10);
        trace.push(TraceEvent::PhaseStart { phase: 0, cycle: 0 });
        trace.push(TraceEvent::Checkpoint {
            index: 1,
            cycle: 50,
            chunk_words: 11,
        });
        trace.push(TraceEvent::Rollback {
            to_checkpoint: 1,
            cycle: 80,
        });
        assert_eq!(trace.events().len(), 3);
        assert_eq!(trace.checkpoints(), 1);
        assert_eq!(trace.rollbacks(), 1);
        assert_eq!(trace.events()[2].cycle(), 80);
    }

    #[test]
    fn drops_beyond_capacity() {
        let mut trace = Trace::new(1);
        trace.push(TraceEvent::TaskRestart { cycle: 1 });
        trace.push(TraceEvent::TaskRestart { cycle: 2 });
        assert_eq!(trace.events().len(), 1);
        assert_eq!(trace.dropped(), 1);
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut trace = Trace::new(0);
        trace.push(TraceEvent::TaskRestart { cycle: 1 });
        assert!(trace.events().is_empty());
        assert_eq!(trace.dropped(), 1);
    }

    #[test]
    fn render_mentions_key_events() {
        let mut trace = Trace::new(10);
        trace.push(TraceEvent::ReadError {
            addr: 0x40,
            cycle: 123,
        });
        trace.push(TraceEvent::Rollback {
            to_checkpoint: 2,
            cycle: 130,
        });
        let text = trace.render();
        assert!(text.contains("READ ERROR"));
        assert!(text.contains("rollback -> CH(2)"));
    }
}
