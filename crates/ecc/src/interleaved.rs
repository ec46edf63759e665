//! Bit-interleaved SECDED: a classic low-cost defence against *adjacent*
//! multi-bit upsets (the physical signature of an SMU strike).
//!
//! The 32-bit payload is striped across `ways` independent SECDED sub-codes
//! and the sub-codewords are physically interleaved bit-by-bit, so an
//! adjacent burst of up to `ways` bits lands in distinct sub-codes and every
//! sub-code sees at most one flip.

use crate::bitbuf::BitBuf;
use crate::scheme::{BuildSchemeError, Decoded, EccScheme};
use crate::secded::HammingSecded;

/// A `ways`-way interleaved SECDED code over a 32-bit payload.
///
/// # Examples
///
/// ```
/// use chunkpoint_ecc::{InterleavedSecded, EccScheme, Decoded};
///
/// let code = InterleavedSecded::new(4)?;
/// let mut stored = code.encode(0x0BAD_F00D);
/// // A 4-bit adjacent SMU burst:
/// for i in 10..14 {
///     stored.flip(i);
/// }
/// assert!(matches!(code.decode(&stored), Decoded::Corrected { data: 0x0BAD_F00D, .. }));
/// # Ok::<(), chunkpoint_ecc::BuildSchemeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct InterleavedSecded {
    ways: usize,
    sub: HammingSecded,
    /// Stored bits per sub-codeword.
    sub_len: usize,
    /// Cached display name, so `name()` never allocates.
    name: String,
}

impl InterleavedSecded {
    /// Builds a `ways`-way interleaved code; `ways` must be 2 or 4
    /// (divide 32 with a sub-payload of at least 4 bits).
    ///
    /// # Errors
    ///
    /// Returns [`BuildSchemeError`] for unsupported `ways`.
    pub fn new(ways: usize) -> Result<Self, BuildSchemeError> {
        if !matches!(ways, 2 | 4) {
            return Err(BuildSchemeError::new(format!(
                "interleaved secded supports 2 or 4 ways, got {ways}"
            )));
        }
        let sub = HammingSecded::new(32 / ways);
        let sub_len = sub.data_bits() + sub.check_bits();
        let name = format!("SECDEDx{ways}");
        Ok(Self {
            ways,
            sub,
            sub_len,
            name,
        })
    }

    /// Interleave factor (guaranteed adjacent-burst correction width).
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    fn split_payload(&self, data: u32) -> [u32; 4] {
        let mut parts = [0u32; 4];
        for i in 0..32 {
            if (data >> i) & 1 == 1 {
                parts[i % self.ways] |= 1 << (i / self.ways);
            }
        }
        parts
    }

    fn join_payload(&self, parts: &[u32]) -> u32 {
        let mut data = 0u32;
        for i in 0..32 {
            if (parts[i % self.ways] >> (i / self.ways)) & 1 == 1 {
                data |= 1 << i;
            }
        }
        data
    }
}

impl EccScheme for InterleavedSecded {
    fn name(&self) -> &str {
        &self.name
    }

    fn check_bits(&self) -> usize {
        self.ways * self.sub.check_bits()
    }

    fn correctable_bits(&self) -> usize {
        // Guaranteed for *random* (non-adjacent) errors: one.
        1
    }

    fn detectable_bits(&self) -> usize {
        2
    }

    fn encode(&self, data: u32) -> BitBuf {
        let parts = self.split_payload(data);
        let mut stored = BitBuf::new(self.ways * self.sub_len);
        for (w, &part) in parts[..self.ways].iter().enumerate() {
            let sub = self.sub.encode(part);
            let sub_word = sub.as_words()[0]; // sub_len <= 23 bits
            for i in 0..self.sub_len {
                if (sub_word >> i) & 1 == 1 {
                    stored.set(i * self.ways + w, true);
                }
            }
        }
        stored
    }

    fn decode(&self, stored: &BitBuf) -> Decoded {
        assert_eq!(
            stored.len(),
            self.ways * self.sub_len,
            "stored word length mismatch for {}",
            self.name()
        );
        let stored_words = *stored.as_words();
        let mut parts = [0u32; 4];
        let mut corrected = 0u32;
        for (w, part) in parts[..self.ways].iter_mut().enumerate() {
            let mut sub_word = 0u64;
            for i in 0..self.sub_len {
                let p = i * self.ways + w;
                sub_word |= ((stored_words[p / 64] >> (p % 64)) & 1) << i;
            }
            let sub = BitBuf::from_u64(sub_word, self.sub_len);
            match self.sub.decode(&sub) {
                Decoded::Clean { data } => *part = data,
                Decoded::Corrected {
                    data,
                    bits_corrected,
                } => {
                    corrected += bits_corrected;
                    *part = data;
                }
                Decoded::DetectedUncorrectable => return Decoded::DetectedUncorrectable,
            }
        }
        let data = self.join_payload(&parts[..self.ways]);
        if corrected == 0 {
            Decoded::Clean { data }
        } else {
            Decoded::Corrected {
                data,
                bits_corrected: corrected,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let x2 = InterleavedSecded::new(2).unwrap();
        // 16-bit sub-payload needs 5 Hamming + 1 parity = 6 check bits/way.
        assert_eq!(x2.check_bits(), 12);
        let x4 = InterleavedSecded::new(4).unwrap();
        // 8-bit sub-payload needs 4 + 1 = 5 check bits/way.
        assert_eq!(x4.check_bits(), 20);
    }

    #[test]
    fn rejects_bad_ways() {
        assert!(InterleavedSecded::new(0).is_err());
        assert!(InterleavedSecded::new(3).is_err());
        assert!(InterleavedSecded::new(8).is_err());
    }

    #[test]
    fn payload_split_join_roundtrip() {
        for ways in [2usize, 4] {
            let code = InterleavedSecded::new(ways).unwrap();
            for data in [0u32, u32::MAX, 0x1234_5678, 0x8000_0001] {
                assert_eq!(code.join_payload(&code.split_payload(data)), data);
            }
        }
    }

    #[test]
    fn corrects_full_width_adjacent_bursts_everywhere() {
        for ways in [2usize, 4] {
            let code = InterleavedSecded::new(ways).unwrap();
            let data = 0xC0DE_D00D;
            let clean = code.encode(data);
            for start in 0..=(clean.len() - ways) {
                let mut bad = clean;
                for i in start..start + ways {
                    bad.flip(i);
                }
                assert_eq!(
                    code.decode(&bad).data(),
                    Some(data),
                    "ways={ways} burst at {start}"
                );
            }
        }
    }

    #[test]
    fn detects_burst_wider_than_ways() {
        let code = InterleavedSecded::new(2).unwrap();
        let clean = code.encode(0x0F0F_F0F0);
        let mut bad = clean;
        // 4 adjacent flips put 2 errors in each of the 2 ways.
        for i in 8..12 {
            bad.flip(i);
        }
        assert_eq!(code.decode(&bad), Decoded::DetectedUncorrectable);
    }

    #[test]
    fn single_random_flip_corrected() {
        let code = InterleavedSecded::new(4).unwrap();
        let data = 0x7777_1111;
        let clean = code.encode(data);
        for i in (0..clean.len()).step_by(7) {
            let mut bad = clean;
            bad.flip(i);
            assert_eq!(code.decode(&bad).data(), Some(data), "flip {i}");
        }
    }
}
