//! # chunkpoint-sim
//!
//! A cycle-approximate simulator of the paper's target platform — the
//! substrate that replaces MPARM + CACTI in this reproduction.
//!
//! * [`Sram`] — bit-accurate SRAM arrays storing full ECC codewords, with
//!   lazy Poisson fault materialisation ([`FaultProcess`]).
//! * [`SramModel`] — CACTI-6.5-style analytic area / energy / timing
//!   curves at 65 nm.
//! * [`Platform`] — the NXP LH7A400-class SoC description (ARM9, 200 MHz,
//!   64 KB L1).
//! * [`MemoryBus`] / [`PlainBus`] — the CPU-side load/store interface all
//!   workloads run against, with cycle and energy accounting in
//!   [`EnergyLedger`].
//! * [`Trace`] — event log reconstructing Fig. 1-style timelines.
//!
//! ## Example: silent corruption vs. detection
//!
//! ```
//! use chunkpoint_sim::{Component, FaultProcess, MemoryBus, PlainBus, Platform, Sram};
//! use chunkpoint_ecc::EccKind;
//!
//! // A parity-protected scratchpad with no background faults.
//! let sram = Sram::new("l1", 128, EccKind::Parity, FaultProcess::disabled())?;
//! let mut bus = PlainBus::new(sram, Platform::lh7a400(), Component::L1);
//!
//! bus.store(0, 0xDEAD_BEEF);
//! assert_eq!(bus.load(0)?, 0xDEAD_BEEF);
//!
//! // Inject an upset: parity detects it and the load faults.
//! bus.sram_mut().inject(0, 9, 1);
//! assert!(bus.load(0).is_err());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bus;
mod cacti;
mod energy;
mod fault;
mod platform;
mod sram;
mod trace;

pub use bus::{AddressMap, AllocError, MemoryBus, PlainBus, ReadFault, Region, WordAddr};
pub use cacti::{logic_area_um2, SramModel, GATE_AREA_UM2};
pub use energy::{Component, EnergyLedger};
pub use fault::{Burst, FaultEvent, FaultProcess, FaultTimeline, UpsetModel};
pub use platform::{Platform, WORD_BYTES};
pub use sram::{Sram, SramStats};
pub use trace::{Trace, TraceEvent};
