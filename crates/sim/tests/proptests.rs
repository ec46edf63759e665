//! Property-based tests of the simulator substrate.

use std::collections::BTreeMap;

use proptest::prelude::*;

use chunkpoint_ecc::EccKind;
use chunkpoint_sim::{
    Component, EnergyLedger, FaultProcess, MemoryBus, PlainBus, Platform, Sram, SramModel,
    UpsetModel,
};

/// The ledger as a fold into a `BTreeMap`: the reference every figure of
/// the array ledger must match bit for bit.
#[derive(Default)]
struct MapLedger(BTreeMap<Component, f64>);

impl MapLedger {
    fn add(&mut self, component: Component, pj: f64) {
        *self.0.entry(component).or_insert(0.0) += pj;
    }

    fn component_pj(&self, component: Component) -> f64 {
        self.0.get(&component).copied().unwrap_or(0.0)
    }

    fn total_pj(&self) -> f64 {
        self.0.values().sum()
    }

    fn merge(&mut self, other: &MapLedger) {
        for (&component, &pj) in &other.0 {
            self.add(component, pj);
        }
    }

    fn breakdown(&self) -> Vec<(Component, f64)> {
        Component::ALL
            .iter()
            .filter_map(|&c| {
                let pj = self.component_pj(c);
                (pj > 0.0).then_some((c, pj))
            })
            .collect()
    }
}

/// A ledger's total, per-component figures and breakdown, as bits.
type LedgerBits = (u64, Vec<u64>, Vec<(Component, u64)>);

fn bits(
    total_pj: f64,
    component_pj: impl Fn(Component) -> f64,
    breakdown: Vec<(Component, f64)>,
) -> LedgerBits {
    (
        total_pj.to_bits(),
        Component::ALL
            .iter()
            .map(|&c| component_pj(c).to_bits())
            .collect(),
        breakdown
            .into_iter()
            .map(|(c, pj)| (c, pj.to_bits()))
            .collect(),
    )
}

fn ledger_bits(l: &EnergyLedger) -> LedgerBits {
    bits(l.total_pj(), |c| l.component_pj(c), l.breakdown())
}

fn map_bits(l: &MapLedger) -> LedgerBits {
    bits(l.total_pj(), |c| l.component_pj(c), l.breakdown())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Area, energy and leakage are monotone in both geometry axes.
    #[test]
    fn sram_model_monotonicity(
        words in 8usize..4096,
        bits in 32usize..128,
        d_words in 1usize..512,
        d_bits in 1usize..64,
    ) {
        let a = SramModel::new(words, bits);
        let b = SramModel::new(words + d_words, bits + d_bits);
        prop_assert!(b.area_um2() > a.area_um2());
        prop_assert!(b.read_energy_pj() > a.read_energy_pj());
        prop_assert!(b.leakage_uw() > a.leakage_uw());
        prop_assert!(b.access_time_ns() >= a.access_time_ns());
    }

    /// Writes always clear latent faults; a read immediately after a
    /// write returns the written value, under any protection scheme.
    #[test]
    fn write_then_read_is_clean(
        value: u32,
        addr in 0usize..64,
        kind_idx in 0usize..28,
        seed: u64,
    ) {
        let kinds = EccKind::catalog();
        let kind = kinds[kind_idx % kinds.len()];
        let faults = FaultProcess::new(1e-3, UpsetModel::smu_65nm(), seed);
        let mut mem = Sram::new("t", 64, kind, faults).unwrap();
        // Let faults accumulate somewhere first.
        let _ = mem.read(addr, 100_000);
        mem.write(addr, value, 200_000);
        // Same-cycle read: zero exposure, must be clean.
        prop_assert_eq!(
            mem.read(addr, 200_000),
            chunkpoint_ecc::Decoded::Clean { data: value }
        );
    }

    /// The ledger's total is always the sum of the component breakdown,
    /// and merging is additive.
    #[test]
    fn ledger_accounting_consistent(
        charges in proptest::collection::vec((0usize..7, 0.0f64..1e6), 1..40),
    ) {
        let components = Component::ALL;
        let mut a = EnergyLedger::new();
        let mut b = EnergyLedger::new();
        for (i, &(c, pj)) in charges.iter().enumerate() {
            if i % 2 == 0 {
                a.add(components[c], pj);
            } else {
                b.add(components[c], pj);
            }
        }
        let breakdown_sum: f64 = a.breakdown().iter().map(|&(_, pj)| pj).sum();
        prop_assert!((a.total_pj() - breakdown_sum).abs() < 1e-6);
        let total = a.total_pj() + b.total_pj();
        a.merge(&b);
        prop_assert!((a.total_pj() - total).abs() < 1e-6);
    }

    /// Bus time never goes backwards and energy never decreases.
    #[test]
    fn bus_time_and_energy_monotone(
        ops in proptest::collection::vec((0u8..3, any::<u32>(), 0u32..128), 1..60),
    ) {
        let sram = Sram::new("l1", 128, EccKind::Secded, FaultProcess::disabled()).unwrap();
        let mut bus = PlainBus::new(sram, Platform::lh7a400(), Component::L1);
        let mut last_now = 0;
        let mut last_energy = 0.0;
        for &(op, value, addr) in &ops {
            match op {
                0 => bus.store(addr, value),
                1 => { let _ = bus.load(addr); }
                _ => bus.tick(u64::from(value % 1000)),
            }
            prop_assert!(bus.now() >= last_now);
            prop_assert!(bus.ledger().total_pj() >= last_energy);
            last_now = bus.now();
            last_energy = bus.ledger().total_pj();
        }
    }

    /// Fault strikes scale linearly with exposure (statistically).
    #[test]
    fn exposure_scaling(seed in 0u64..10_000) {
        let mut faults = FaultProcess::new(1e-4, UpsetModel::SingleBit, seed);
        let mut short_strikes = 0u64;
        let mut long_strikes = 0u64;
        for _ in 0..200 {
            let mut w = chunkpoint_ecc::BitBuf::new(39);
            short_strikes += faults.expose(&mut w, 100, 0).len() as u64;
            let mut w = chunkpoint_ecc::BitBuf::new(39);
            long_strikes += faults.expose(&mut w, 1000, 0).len() as u64;
        }
        // 10x the exposure -> more strikes (statistically robust at these
        // counts: E[short] = 2, E[long] = 20).
        prop_assert!(long_strikes >= short_strikes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, .. ProptestConfig::default() })]

    /// The array ledger equals the map fold bit for bit: totals,
    /// components, breakdowns and merges, over charge sequences of any
    /// length (empty included) with exact zeros, tiny and huge charges.
    #[test]
    fn ledger_matches_the_map_fold_bit_for_bit(
        charges in proptest::collection::vec(
            (0usize..7, 0u8..4, 0.0f64..1e6, -30.0f64..30.0, any::<bool>()),
            0..40,
        ),
    ) {
        let (mut a, mut b) = (EnergyLedger::new(), EnergyLedger::new());
        let (mut map_a, mut map_b) = (MapLedger::default(), MapLedger::default());
        for &(c, shape, uniform, exponent, into_a) in &charges {
            let component = Component::ALL[c];
            let pj = match shape {
                0 => 0.0,
                1 => uniform,
                _ => 10f64.powf(exponent),
            };
            if into_a {
                a.add(component, pj);
                map_a.add(component, pj);
            } else {
                b.add(component, pj);
                map_b.add(component, pj);
            }
        }
        prop_assert_eq!(ledger_bits(&a), map_bits(&map_a));
        prop_assert_eq!(ledger_bits(&b), map_bits(&map_b));
        let mut into_empty = EnergyLedger::new();
        let mut map_into_empty = MapLedger::default();
        into_empty.merge(&b);
        map_into_empty.merge(&map_b);
        prop_assert_eq!(ledger_bits(&into_empty), map_bits(&map_into_empty));
        a.merge(&b);
        map_a.merge(&map_b);
        prop_assert_eq!(ledger_bits(&a), map_bits(&map_a));
        b.merge(&a);
        map_b.merge(&map_a);
        prop_assert_eq!(ledger_bits(&b), map_bits(&map_b));
    }
}
