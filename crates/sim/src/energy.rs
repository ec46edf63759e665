//! Cycle and energy accounting.
//!
//! MPARM's role in the paper is to report per-module energy and timing for
//! each run; [`EnergyLedger`] is our equivalent: every simulated action
//! posts cycles and picojoules against a [`Component`], and reports can be
//! diffed between mitigation schemes.

/// Architectural components that consume energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// Processor core (active computation).
    Cpu,
    /// The vulnerable L1 scratchpad SRAM.
    L1,
    /// The protected checkpoint buffer L1′.
    L1Prime,
    /// ECC encode/decode logic attached to either memory.
    EccLogic,
    /// Checkpoint commit work (chunk copy control, status-register save).
    Checkpoint,
    /// Read-error-interrupt service routine.
    Isr,
    /// Leakage (integrated over elapsed time).
    Leakage,
}

impl Component {
    /// All components, in display order.
    pub const ALL: [Component; 7] = [
        Component::Cpu,
        Component::L1,
        Component::L1Prime,
        Component::EccLogic,
        Component::Checkpoint,
        Component::Isr,
        Component::Leakage,
    ];
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Component::Cpu => "cpu",
            Component::L1 => "l1",
            Component::L1Prime => "l1'",
            Component::EccLogic => "ecc",
            Component::Checkpoint => "checkpoint",
            Component::Isr => "isr",
            Component::Leakage => "leakage",
        };
        f.write_str(name)
    }
}

/// Accumulates energy (pJ) per component plus a global cycle counter.
///
/// # Examples
///
/// ```
/// use chunkpoint_sim::{Component, EnergyLedger};
///
/// let mut ledger = EnergyLedger::new();
/// ledger.add(Component::L1, 45.2);
/// ledger.add_cycles(3);
/// assert_eq!(ledger.cycles(), 3);
/// assert!((ledger.total_pj() - 45.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyLedger {
    /// Energy per component, indexed by `Component as usize`.
    energy_pj: [f64; Component::ALL.len()],
    /// Bit `c` is set once component `c` has been charged, even 0 pJ. The
    /// total sums only charged components: an empty ledger totals the
    /// empty float sum, −0.0, where summing seven zeros gives +0.0.
    charged: u8,
    cycles: u64,
}

impl EnergyLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Posts `pj` picojoules against `component`.
    ///
    /// # Panics
    ///
    /// Panics (debug) on negative or non-finite energy.
    pub fn add(&mut self, component: Component, pj: f64) {
        debug_assert!(pj.is_finite() && pj >= 0.0, "bad energy {pj}");
        self.energy_pj[component as usize] += pj;
        self.charged |= 1 << component as usize;
    }

    /// Advances the global cycle counter.
    pub fn add_cycles(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Elapsed cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Energy charged to one component, pJ.
    #[must_use]
    pub fn component_pj(&self, component: Component) -> f64 {
        self.energy_pj[component as usize]
    }

    /// Total energy across all components, pJ, summed in
    /// [`Component::ALL`] order.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.charged().map(|c| self.component_pj(c)).sum()
    }

    /// Folds another ledger into this one (cycles add up too).
    pub fn merge(&mut self, other: &EnergyLedger) {
        for component in other.charged() {
            self.add(component, other.component_pj(component));
        }
        self.cycles += other.cycles;
    }

    /// The components charged so far, in [`Component::ALL`] order.
    fn charged(&self) -> impl Iterator<Item = Component> + '_ {
        Component::ALL
            .into_iter()
            .filter(|&c| self.charged & (1 << c as usize) != 0)
    }

    /// Charges integrated leakage for `cycles` cycles of a block leaking
    /// `leakage_uw` µW at `clock_hz`.
    pub fn add_leakage(&mut self, leakage_uw: f64, cycles: u64, clock_hz: f64) {
        // µW · s → pJ : 1 µW·s = 1e6 pJ.
        let seconds = cycles as f64 / clock_hz;
        self.add(Component::Leakage, leakage_uw * seconds * 1.0e6);
    }

    /// Per-component breakdown, in display order, skipping zero entries.
    #[must_use]
    pub fn breakdown(&self) -> Vec<(Component, f64)> {
        Component::ALL
            .iter()
            .filter_map(|&c| {
                let pj = self.component_pj(c);
                (pj > 0.0).then_some((c, pj))
            })
            .collect()
    }
}

impl std::fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "cycles: {}", self.cycles)?;
        for (component, pj) in self.breakdown() {
            writeln!(f, "  {component:<10} {:12.1} pJ", pj)?;
        }
        write!(f, "  {:<10} {:12.1} pJ", "total", self.total_pj())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_index_the_ledger_in_display_order() {
        for (i, c) in Component::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{c}");
        }
    }

    #[test]
    fn empty_ledger_is_zero() {
        let ledger = EnergyLedger::new();
        assert_eq!(ledger.cycles(), 0);
        assert_eq!(ledger.total_pj(), 0.0);
        assert!(ledger.breakdown().is_empty());
    }

    #[test]
    fn accumulates_per_component() {
        let mut ledger = EnergyLedger::new();
        ledger.add(Component::L1, 10.0);
        ledger.add(Component::L1, 5.0);
        ledger.add(Component::Cpu, 1.0);
        assert!((ledger.component_pj(Component::L1) - 15.0).abs() < 1e-12);
        assert!((ledger.total_pj() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = EnergyLedger::new();
        a.add(Component::Cpu, 1.0);
        a.add_cycles(10);
        let mut b = EnergyLedger::new();
        b.add(Component::Cpu, 2.0);
        b.add(Component::Isr, 4.0);
        b.add_cycles(5);
        a.merge(&b);
        assert_eq!(a.cycles(), 15);
        assert!((a.component_pj(Component::Cpu) - 3.0).abs() < 1e-12);
        assert!((a.component_pj(Component::Isr) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn leakage_integration() {
        let mut ledger = EnergyLedger::new();
        // 1 µW for 200e6 cycles at 200 MHz = 1 µW·s = 1e6 pJ.
        ledger.add_leakage(1.0, 200_000_000, 200.0e6);
        assert!((ledger.component_pj(Component::Leakage) - 1.0e6).abs() < 1.0);
    }

    #[test]
    fn breakdown_is_ordered_and_sparse() {
        let mut ledger = EnergyLedger::new();
        ledger.add(Component::Isr, 1.0);
        ledger.add(Component::Cpu, 1.0);
        let components: Vec<Component> = ledger.breakdown().into_iter().map(|(c, _)| c).collect();
        assert_eq!(components, vec![Component::Cpu, Component::Isr]);
    }

    #[test]
    fn display_contains_total() {
        let mut ledger = EnergyLedger::new();
        ledger.add(Component::L1, 2.0);
        let text = ledger.to_string();
        assert!(text.contains("total"));
        assert!(text.contains("l1"));
    }
}
