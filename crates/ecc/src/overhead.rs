//! Hardware-cost estimates for each protection scheme.
//!
//! The paper's optimization problem constrains the *area* of the protected
//! buffer (Eq. 4) and the *cycle* overhead of mitigation (Eq. 5), so the
//! system model needs per-code estimates of storage overhead, codec logic
//! size, and codec latency. The gate counts below are engineering fits to
//! published 65 nm syntheses of parallel Hamming and BCH codecs (encoder
//! ≈ r·w/2 2-input XORs; BCH decoder dominated by the syndrome network and
//! Chien search, growing ≈ t·m²); they only need to be *monotone and
//! correctly shaped* for the feasibility region of Fig. 4 to reproduce.

use crate::bch::BchGeometry;
use crate::scheme::{build_scheme, BuildSchemeError, EccKind};

/// Static hardware cost of one protection scheme instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeOverhead {
    /// Redundant stored bits per 32-bit word.
    pub check_bits: usize,
    /// 2-input-gate-equivalent size of the encoder.
    pub encoder_gates: u64,
    /// 2-input-gate-equivalent size of the decoder/corrector.
    pub decoder_gates: u64,
    /// Extra pipeline cycles *every* read spends in the decoder before
    /// data is usable (zero for parity-class detectors and SECDED, which
    /// check combinationally; multi-cycle for wide BCH syndrome networks).
    pub read_latency_cycles: u32,
    /// Extra pipeline cycles a *corrected* read additionally spends in the
    /// corrector (Berlekamp–Massey + Chien for BCH).
    pub correction_latency_cycles: u32,
    /// Relative dynamic-energy multiplier for each access through the codec
    /// (1.0 = bare SRAM access).
    pub access_energy_factor: f64,
}

impl CodeOverhead {
    /// Estimates the overhead of `kind`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildSchemeError`] when `kind` itself is unbuildable.
    ///
    /// # Examples
    ///
    /// ```
    /// use chunkpoint_ecc::{CodeOverhead, EccKind};
    ///
    /// let secded = CodeOverhead::for_kind(EccKind::Secded)?;
    /// let bch8 = CodeOverhead::for_kind(EccKind::Bch { t: 8 })?;
    /// assert!(bch8.check_bits > secded.check_bits);
    /// assert!(bch8.decoder_gates > secded.decoder_gates);
    /// # Ok::<(), chunkpoint_ecc::BuildSchemeError>(())
    /// ```
    pub fn for_kind(kind: EccKind) -> Result<Self, BuildSchemeError> {
        let overhead = match kind {
            EccKind::None => Self {
                check_bits: 0,
                encoder_gates: 0,
                decoder_gates: 0,
                read_latency_cycles: 0,
                correction_latency_cycles: 0,
                access_energy_factor: 1.0,
            },
            EccKind::Parity => Self {
                check_bits: 1,
                encoder_gates: 31,
                decoder_gates: 32,
                read_latency_cycles: 0,
                correction_latency_cycles: 0,
                access_energy_factor: 1.03,
            },
            EccKind::InterleavedParity { ways } => Self {
                check_bits: usize::from(ways),
                encoder_gates: 32,
                decoder_gates: 40,
                read_latency_cycles: 0,
                correction_latency_cycles: 0,
                access_energy_factor: 1.04,
            },
            EccKind::Secded => Self {
                check_bits: 7,
                // 6 parity trees over ~18 inputs each + syndrome decode.
                encoder_gates: 140,
                decoder_gates: 260,
                read_latency_cycles: 0,
                correction_latency_cycles: 1,
                access_energy_factor: 1.18,
            },
            EccKind::TwoDimParity => Self {
                check_bits: 13,
                // 13 parity trees over 4-45 inputs + intersection decode.
                encoder_gates: 110,
                decoder_gates: 170,
                read_latency_cycles: 0,
                correction_latency_cycles: 1,
                access_energy_factor: 1.10,
            },
            EccKind::InterleavedSecded { ways } => {
                let ways = u64::from(ways);
                let scheme = build_scheme(kind)?;
                Self {
                    check_bits: scheme.check_bits(),
                    encoder_gates: 70 * ways,
                    decoder_gates: 130 * ways,
                    read_latency_cycles: 0,
                    correction_latency_cycles: 1,
                    access_energy_factor: 1.18 + 0.02 * ways as f64,
                }
            }
            EccKind::Bch { t } => {
                let geometry = BchGeometry::for_word(t as usize)?;
                let r = geometry.check_bits as u64;
                let m = u64::from(geometry.m);
                let t64 = u64::from(t);
                Self {
                    check_bits: geometry.check_bits,
                    // Parallel LFSR encoder: r parity trees over ~w/2 taps.
                    encoder_gates: r * 16,
                    // Syndrome network (2t GF multipliers over the stored
                    // word) + Berlekamp–Massey datapath + Chien search.
                    decoder_gates: 2 * t64 * m * m + 55 * t64 * m + 400,
                    // Even a clean read waits on the pipelined syndrome
                    // check of a wide code.
                    read_latency_cycles: 1 + t as u32 / 4,
                    correction_latency_cycles: 2 + t as u32,
                    access_energy_factor: 1.2 + 0.07 * t as f64,
                }
            }
        };
        Ok(overhead)
    }

    /// Total stored bits per word under this scheme.
    #[must_use]
    pub fn total_bits(&self) -> usize {
        32 + self.check_bits
    }

    /// Storage blow-up factor relative to an unprotected 32-bit word.
    #[must_use]
    pub fn storage_factor(&self) -> f64 {
        self.total_bits() as f64 / 32.0
    }

    /// Total codec logic in gate equivalents.
    #[must_use]
    pub fn logic_gates(&self) -> u64 {
        self.encoder_gates + self.decoder_gates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_free() {
        let oh = CodeOverhead::for_kind(EccKind::None).unwrap();
        assert_eq!(oh.check_bits, 0);
        assert_eq!(oh.logic_gates(), 0);
        assert!((oh.storage_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn check_bits_match_live_schemes() {
        for kind in EccKind::catalog() {
            let oh = CodeOverhead::for_kind(kind).unwrap();
            let scheme = build_scheme(kind).unwrap();
            assert_eq!(oh.check_bits, scheme.check_bits(), "{kind}");
        }
    }

    #[test]
    fn bch_costs_grow_monotonically_with_t() {
        let mut prev = CodeOverhead::for_kind(EccKind::Bch { t: 1 }).unwrap();
        for t in 2..=18u8 {
            let cur = CodeOverhead::for_kind(EccKind::Bch { t }).unwrap();
            assert!(cur.check_bits >= prev.check_bits, "t={t}");
            assert!(cur.decoder_gates > prev.decoder_gates, "t={t}");
            assert!(
                cur.access_energy_factor > prev.access_energy_factor,
                "t={t}"
            );
            assert!(
                cur.correction_latency_cycles > prev.correction_latency_cycles,
                "t={t}"
            );
            prev = cur;
        }
    }

    #[test]
    fn secded_is_cheaper_than_any_bch() {
        let secded = CodeOverhead::for_kind(EccKind::Secded).unwrap();
        let bch1 = CodeOverhead::for_kind(EccKind::Bch { t: 1 }).unwrap();
        assert!(secded.decoder_gates < bch1.decoder_gates);
    }

    #[test]
    fn storage_factor_examples() {
        let oh = CodeOverhead::for_kind(EccKind::Secded).unwrap();
        assert!((oh.storage_factor() - 39.0 / 32.0).abs() < 1e-12);
    }
}
