//! Hamming single-error-correct / double-error-detect (SECDED) codes.
//!
//! [`HammingSecded`] is parameterised by payload width so the same machinery
//! serves the classic SECDED(39,32) word code and the narrower sub-codes of
//! the interleaved variant. The construction is the textbook one: check bits
//! sit at power-of-two Hamming positions, the syndrome of a single error
//! equals its position, and an overall parity bit disambiguates single from
//! double errors.
//!
//! The hot encode/decode paths are **table-driven and word-parallel**: each
//! check bit has a precomputed payload column mask, so computing the check
//! vector is `hamming_bits` AND+popcount steps over the whole word instead
//! of a loop over payload bit positions, and the stored word (at most 39
//! bits) lives in a single `u64`. The original bit-serial construction is
//! retained as [`HammingSecded::compute_checks_reference`] /
//! [`HammingSecded::encode_reference`] — it is the specification the fast
//! path is differentially tested against.

use crate::bitbuf::BitBuf;
use crate::scheme::{Decoded, EccScheme};

/// A SECDED Hamming code over `data_bits` payload bits.
///
/// Stored layout: `[0, data_bits)` payload, `[data_bits, data_bits + c)`
/// Hamming check bits, final bit = overall parity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HammingSecded {
    data_bits: usize,
    /// Number of Hamming check bits c (excluding the overall parity bit).
    hamming_bits: usize,
    /// Hamming position (1-based) of each payload bit.
    data_positions: Vec<usize>,
    /// `column_masks[c]` = payload bits whose Hamming position has bit `c`
    /// set; check bit `c` is the parity of `data & column_masks[c]`.
    column_masks: Vec<u32>,
    /// Maps a nonzero syndrome to the stored-bit index it implicates.
    syndrome_to_stored: Vec<Option<usize>>,
    /// Cached display name, so `name()` never allocates.
    name: String,
}

impl HammingSecded {
    /// Builds a SECDED code for `data_bits` payload bits (4..=32 supported).
    ///
    /// # Panics
    ///
    /// Panics if `data_bits` is outside `4..=32`.
    #[must_use]
    pub fn new(data_bits: usize) -> Self {
        assert!(
            (4..=32).contains(&data_bits),
            "HammingSecded supports 4..=32 data bits, got {data_bits}"
        );
        let mut hamming_bits = 0usize;
        while (1usize << hamming_bits) < data_bits + hamming_bits + 1 {
            hamming_bits += 1;
        }
        let total_positions = data_bits + hamming_bits;
        let mut data_positions = Vec::with_capacity(data_bits);
        for pos in 1..=total_positions {
            if !pos.is_power_of_two() {
                data_positions.push(pos);
            }
        }
        debug_assert_eq!(data_positions.len(), data_bits);
        // Column masks: the word-parallel transpose of the position list.
        let mut column_masks = vec![0u32; hamming_bits];
        for (i, &pos) in data_positions.iter().enumerate() {
            for (c, mask) in column_masks.iter_mut().enumerate() {
                if pos & (1 << c) != 0 {
                    *mask |= 1 << i;
                }
            }
        }
        // syndrome == Hamming position of the flipped bit.
        let mut syndrome_to_stored = vec![None; total_positions + 1];
        for (i, &pos) in data_positions.iter().enumerate() {
            syndrome_to_stored[pos] = Some(i);
        }
        for c in 0..hamming_bits {
            syndrome_to_stored[1 << c] = Some(data_bits + c);
        }
        let name = format!("SECDED({},{})", data_bits + hamming_bits + 1, data_bits);
        Self {
            data_bits,
            hamming_bits,
            data_positions,
            column_masks,
            syndrome_to_stored,
            name,
        }
    }

    /// Number of Hamming check bits (excluding overall parity).
    #[must_use]
    pub fn hamming_bits(&self) -> usize {
        self.hamming_bits
    }

    fn stored_len(&self) -> usize {
        self.data_bits + self.hamming_bits + 1
    }

    /// Table-driven check-bit computation: one AND + popcount per check
    /// bit over the whole payload word.
    #[inline]
    fn compute_checks(&self, data: u32) -> u32 {
        let mut checks = 0u32;
        for (c, &mask) in self.column_masks.iter().enumerate() {
            checks |= ((data & mask).count_ones() & 1) << c;
        }
        checks
    }

    /// Bit-serial reference for the mask-based `compute_checks` (the original
    /// per-payload-position loop), kept for differential testing and as
    /// the baseline `bench_ecc`'s SECDED encode speedup compares against.
    #[must_use]
    pub fn compute_checks_reference(&self, data: u32) -> u32 {
        let mut checks = 0u32;
        for (i, &pos) in self.data_positions.iter().enumerate() {
            if (data >> i) & 1 == 1 {
                checks ^= pos as u32;
            }
        }
        checks
    }

    /// Bit-serial reference encoder: sets every stored bit individually.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds the payload width.
    #[must_use]
    pub fn encode_reference(&self, data: u32) -> BitBuf {
        assert!(
            self.data_bits == 32 || data < (1u32 << self.data_bits),
            "payload {data:#x} exceeds {} data bits",
            self.data_bits
        );
        let mut stored = BitBuf::new(self.stored_len());
        for i in 0..self.data_bits {
            stored.set(i, (data >> i) & 1 == 1);
        }
        let checks = self.compute_checks_reference(data);
        for c in 0..self.hamming_bits {
            stored.set(self.data_bits + c, (checks >> c) & 1 == 1);
        }
        let parity = stored.count_ones() % 2 == 1;
        stored.set(self.stored_len() - 1, parity);
        stored
    }
}

impl EccScheme for HammingSecded {
    fn name(&self) -> &str {
        &self.name
    }

    fn data_bits(&self) -> usize {
        self.data_bits
    }

    fn check_bits(&self) -> usize {
        self.hamming_bits + 1
    }

    fn correctable_bits(&self) -> usize {
        1
    }

    fn detectable_bits(&self) -> usize {
        2
    }

    fn encode(&self, data: u32) -> BitBuf {
        assert!(
            self.data_bits == 32 || data < (1u32 << self.data_bits),
            "payload {data:#x} exceeds {} data bits",
            self.data_bits
        );
        // Whole codeword assembled in one u64 (stored_len <= 39).
        let mut w = u64::from(data);
        w |= u64::from(self.compute_checks(data)) << self.data_bits;
        let parity = w.count_ones() & 1;
        w |= u64::from(parity) << (self.stored_len() - 1);
        BitBuf::from_u64(w, self.stored_len())
    }

    fn decode(&self, stored: &BitBuf) -> Decoded {
        assert_eq!(
            stored.len(),
            self.stored_len(),
            "stored word length mismatch for {}",
            self.name
        );
        let w = stored.as_words()[0];
        let data = (w & ((1u64 << self.data_bits) - 1)) as u32;
        let stored_checks = ((w >> self.data_bits) & ((1u64 << self.hamming_bits) - 1)) as u32;
        let syndrome = self.compute_checks(data) ^ stored_checks;
        let parity_ok = w.count_ones() % 2 == 0;
        match (syndrome, parity_ok) {
            (0, true) => Decoded::Clean { data },
            (0, false) => {
                // Only the overall parity bit flipped; payload is intact.
                Decoded::Corrected {
                    data,
                    bits_corrected: 1,
                }
            }
            (s, false) => {
                // Single error at Hamming position s.
                match self.syndrome_to_stored.get(s as usize).copied().flatten() {
                    Some(idx) if idx < self.data_bits => Decoded::Corrected {
                        data: data ^ (1 << idx),
                        bits_corrected: 1,
                    },
                    Some(_) => Decoded::Corrected {
                        data,
                        bits_corrected: 1,
                    },
                    // Syndrome points outside the code: ≥2 errors.
                    None => Decoded::DetectedUncorrectable,
                }
            }
            (_, true) => Decoded::DetectedUncorrectable,
        }
    }
}

/// The standard SECDED(39,32) word code used for L1 caches (e.g. the 15 %
/// area-overhead configuration cited in the paper's related work).
///
/// # Examples
///
/// ```
/// use chunkpoint_ecc::{SecdedCode, EccScheme};
///
/// let code = SecdedCode::new();
/// assert_eq!(code.check_bits(), 7); // 6 Hamming + overall parity
/// assert_eq!(code.total_bits(), 39);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecdedCode {
    inner: HammingSecded,
}

impl SecdedCode {
    /// Creates the (39,32) SECDED code.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: HammingSecded::new(32),
        }
    }

    /// Bit-serial reference encoder (see
    /// [`HammingSecded::encode_reference`]).
    #[must_use]
    pub fn encode_reference(&self, data: u32) -> BitBuf {
        self.inner.encode_reference(data)
    }
}

impl Default for SecdedCode {
    fn default() -> Self {
        Self::new()
    }
}

impl EccScheme for SecdedCode {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn check_bits(&self) -> usize {
        self.inner.check_bits()
    }

    fn correctable_bits(&self) -> usize {
        1
    }

    fn detectable_bits(&self) -> usize {
        2
    }

    fn encode(&self, data: u32) -> BitBuf {
        self.inner.encode(data)
    }

    fn decode(&self, stored: &BitBuf) -> Decoded {
        self.inner.decode(stored)
    }

    fn encode_block(&self, data: &[u32], out: &mut [BitBuf]) {
        self.inner.encode_block(data, out);
    }

    fn decode_block(&self, stored: &[BitBuf], out: &mut [Decoded]) {
        self.inner.decode_block(stored, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secded_39_32_geometry() {
        let code = SecdedCode::new();
        assert_eq!(code.total_bits(), 39);
        assert_eq!(code.name(), "SECDED(39,32)");
    }

    #[test]
    fn corrects_every_single_bit_flip() {
        let code = SecdedCode::new();
        let data = 0x5A5A_A5A5;
        let clean = code.encode(data);
        for i in 0..clean.len() {
            let mut bad = clean;
            bad.flip(i);
            match code.decode(&bad) {
                Decoded::Corrected {
                    data: d,
                    bits_corrected: 1,
                } => {
                    assert_eq!(d, data, "flip at {i}")
                }
                other => panic!("flip at {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn detects_every_double_bit_flip() {
        let code = SecdedCode::new();
        let clean = code.encode(0xDEAD_BEEF);
        for i in 0..clean.len() {
            for j in (i + 1)..clean.len() {
                let mut bad = clean;
                bad.flip(i);
                bad.flip(j);
                assert_eq!(
                    code.decode(&bad),
                    Decoded::DetectedUncorrectable,
                    "flips at {i},{j}"
                );
            }
        }
    }

    #[test]
    fn narrow_payload_codes() {
        for width in [4usize, 8, 11, 16, 26] {
            let code = HammingSecded::new(width);
            let data = ((1u32 << width) - 1) & 0x5B5B_5B5B;
            let clean = code.encode(data);
            assert_eq!(code.decode(&clean), Decoded::Clean { data }, "w={width}");
            for i in 0..clean.len() {
                let mut bad = clean;
                bad.flip(i);
                assert_eq!(code.decode(&bad).data(), Some(data), "w={width} flip={i}");
            }
        }
    }

    #[test]
    fn table_checks_match_reference_everywhere() {
        for width in [4usize, 8, 11, 16, 26, 32] {
            let code = HammingSecded::new(width);
            let mask = if width == 32 {
                u32::MAX
            } else {
                (1 << width) - 1
            };
            for step in 0..1000u32 {
                let data = step.wrapping_mul(2_654_435_761) & mask;
                assert_eq!(
                    code.compute_checks(data),
                    code.compute_checks_reference(data),
                    "w={width} data={data:#x}"
                );
                assert_eq!(
                    code.encode(data),
                    code.encode_reference(data),
                    "w={width} data={data:#x}"
                );
            }
        }
    }

    #[test]
    fn check_bit_counts_match_theory() {
        // c Hamming bits must satisfy 2^c >= data + c + 1.
        assert_eq!(HammingSecded::new(32).hamming_bits(), 6);
        assert_eq!(HammingSecded::new(16).hamming_bits(), 5);
        assert_eq!(HammingSecded::new(8).hamming_bits(), 4);
        assert_eq!(HammingSecded::new(4).hamming_bits(), 3);
    }

    #[test]
    #[should_panic(expected = "supports 4..=32")]
    fn rejects_tiny_payload() {
        let _ = HammingSecded::new(2);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_oversized_payload_value() {
        let code = HammingSecded::new(8);
        let _ = code.encode(0x100);
    }
}
