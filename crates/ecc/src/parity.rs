//! Trivial protection levels: none, and single even-parity detection.

use crate::bitbuf::BitBuf;
use crate::scheme::{Decoded, EccScheme};

/// No protection at all: stored bits are returned verbatim, so faults become
/// silent data corruption. This models the paper's *Default* system.
///
/// # Examples
///
/// ```
/// use chunkpoint_ecc::{NoCode, EccScheme, Decoded};
///
/// let code = NoCode::new();
/// let mut stored = code.encode(1);
/// stored.flip(0); // fault flips the LSB ...
/// // ... and the read silently reports the wrong value as "clean".
/// assert_eq!(code.decode(&stored), Decoded::Clean { data: 0 });
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoCode;

impl NoCode {
    /// Creates the no-op code.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl EccScheme for NoCode {
    fn name(&self) -> &str {
        "none"
    }

    fn check_bits(&self) -> usize {
        0
    }

    fn correctable_bits(&self) -> usize {
        0
    }

    fn detectable_bits(&self) -> usize {
        0
    }

    fn encode(&self, data: u32) -> BitBuf {
        BitBuf::from_u32(data, 32)
    }

    fn decode(&self, stored: &BitBuf) -> Decoded {
        assert_eq!(stored.len(), 32, "stored word length mismatch for none");
        Decoded::Clean {
            data: stored.extract_u32(0),
        }
    }
}

/// One even-parity bit per word: detects any odd number of flipped bits,
/// corrects nothing. This is the cheap detector the hybrid scheme pairs with
/// its protected L1' buffer (Fig. 2a: "check parity bit").
///
/// # Examples
///
/// ```
/// use chunkpoint_ecc::{ParityCode, EccScheme, Decoded};
///
/// let code = ParityCode::new();
/// let mut stored = code.encode(42);
/// stored.flip(3);
/// assert_eq!(code.decode(&stored), Decoded::DetectedUncorrectable);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParityCode;

impl ParityCode {
    /// Creates the single-parity-bit code.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl EccScheme for ParityCode {
    fn name(&self) -> &str {
        "parity"
    }

    fn check_bits(&self) -> usize {
        1
    }

    fn correctable_bits(&self) -> usize {
        0
    }

    fn detectable_bits(&self) -> usize {
        1
    }

    fn encode(&self, data: u32) -> BitBuf {
        let mut stored = BitBuf::from_u32(data, 33);
        stored.set(32, data.count_ones() % 2 == 1);
        stored
    }

    fn decode(&self, stored: &BitBuf) -> Decoded {
        assert_eq!(stored.len(), 33, "stored word length mismatch for parity");
        if stored.count_ones().is_multiple_of(2) {
            Decoded::Clean {
                data: stored.extract_u32(0),
            }
        } else {
            Decoded::DetectedUncorrectable
        }
    }
}

/// `ways` interleaved even-parity bits: parity bit `j` covers data bits
/// `i ≡ j (mod ways)`. Detects **any** adjacent burst of up to `ways`
/// bits (each way sees at most one flip), corrects nothing.
///
/// This is the minimal detector that is *sound* against a multi-bit-upset
/// fault model: plain single parity (the paper's Fig. 2a wording) misses
/// every even-width burst, so "check parity bit" must be realised as an
/// interleaved-parity check for the scheme's full-mitigation claim to
/// hold. Costs `ways` check bits and a handful of XOR trees.
///
/// # Examples
///
/// ```
/// use chunkpoint_ecc::{InterleavedParity, EccScheme, Decoded};
///
/// let code = InterleavedParity::new(6)?;
/// let mut stored = code.encode(99);
/// // A 4-bit adjacent SMU burst — invisible to single parity:
/// for i in 8..12 {
///     stored.flip(i);
/// }
/// assert_eq!(code.decode(&stored), Decoded::DetectedUncorrectable);
/// # Ok::<(), chunkpoint_ecc::BuildSchemeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterleavedParity {
    ways: usize,
    /// `32 % ways`: check bit `i`, at stored position `32 + i`, belongs to
    /// way `(32 % ways + i) % ways`.
    check_rotation: usize,
}

/// Static names so `name()` never allocates (ways is 1..=8).
const INTERLEAVED_PARITY_NAMES: [&str; 8] = [
    "parity-x1",
    "parity-x2",
    "parity-x3",
    "parity-x4",
    "parity-x5",
    "parity-x6",
    "parity-x7",
    "parity-x8",
];

impl InterleavedParity {
    /// Creates a detector with `ways` interleaved parity bits (1..=8).
    ///
    /// # Errors
    ///
    /// Returns [`crate::BuildSchemeError`] when `ways` is outside `1..=8`.
    pub fn new(ways: usize) -> Result<Self, crate::scheme::BuildSchemeError> {
        if !(1..=8).contains(&ways) {
            return Err(crate::scheme::BuildSchemeError::new(format!(
                "interleaved parity supports 1..=8 ways, got {ways}"
            )));
        }
        Ok(Self {
            ways,
            check_rotation: 32 % ways,
        })
    }

    /// Number of interleaved ways (= guaranteed burst detection width).
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// XOR of the bits of `w` per way, where position `p` belongs to way
    /// `p % ways`: bit `j` of the result is way `j`'s parity. Folding `w`
    /// onto itself `ways`, `2·ways`, `4·ways`… bits down XORs every
    /// position of a way into its lowest one, with no popcount. Using the
    /// physical position for both data and parity bits guarantees that an
    /// adjacent burst of up to `ways` bits touches `ways` distinct ways
    /// exactly once each — even when the burst straddles the data/parity
    /// boundary.
    fn parities(&self, w: u64) -> u32 {
        let mut acc = w;
        let mut shift = self.ways;
        while shift < 64 {
            acc ^= acc >> shift;
            shift *= 2;
        }
        (acc & ((1 << self.ways) - 1)) as u32
    }
}

impl EccScheme for InterleavedParity {
    fn name(&self) -> &str {
        INTERLEAVED_PARITY_NAMES[self.ways - 1]
    }

    fn check_bits(&self) -> usize {
        self.ways
    }

    fn correctable_bits(&self) -> usize {
        0
    }

    fn detectable_bits(&self) -> usize {
        // Any single adjacent burst up to `ways` wide.
        self.ways
    }

    fn encode(&self, data: u32) -> BitBuf {
        // Check bit `i` evens out its way: it is way
        // `(check_rotation + i) % ways`'s data parity, so the check bits
        // are the data parities rotated right by `check_rotation`.
        let data_parity = self.parities(u64::from(data));
        let (ways, rotation) = (self.ways, self.check_rotation);
        let check =
            ((data_parity >> rotation) | (data_parity << (ways - rotation))) & ((1 << ways) - 1);
        let stored = BitBuf::from_u64(u64::from(data) | u64::from(check) << 32, 32 + ways);
        debug_assert_eq!(self.parities(stored.as_words()[0]), 0);
        stored
    }

    fn decode(&self, stored: &BitBuf) -> Decoded {
        assert_eq!(
            stored.len(),
            32 + self.ways,
            "stored word length mismatch for {}",
            self.name()
        );
        if self.parities(stored.as_words()[0]) == 0 {
            Decoded::Clean {
                data: stored.extract_u32(0),
            }
        } else {
            Decoded::DetectedUncorrectable
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Interleaved parity by one mask and popcount per way, the reference
    /// the fold must match: `(encode, parities)` over `ways` ways.
    fn masked_reference(ways: usize) -> (impl Fn(u32) -> u64, impl Fn(u64) -> u32) {
        let mut masks = [0u64; 8];
        for p in 0..(32 + ways) {
            masks[p % ways] |= 1u64 << p;
        }
        let encode = move |data: u32| {
            let mut w = u64::from(data);
            for j in 0..ways {
                let way = (32 + j) % ways;
                w |= u64::from((w & masks[way]).count_ones() & 1) << (32 + j);
            }
            w
        };
        let parities =
            move |w: u64| (0..ways).fold(0, |acc, j| acc | ((w & masks[j]).count_ones() & 1) << j);
        (encode, parities)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4096, .. ProptestConfig::default() })]

        /// The fold encodes every word as the per-way masks did, and
        /// decodes every corruption of it alike.
        #[test]
        fn interleaved_parity_fold_matches_the_masks(
            ways in 1usize..=8,
            data: u32,
            flips: u64,
        ) {
            let code = InterleavedParity::new(ways).unwrap();
            let (encode, parities) = masked_reference(ways);
            let stored = code.encode(data);
            prop_assert_eq!(stored.as_words()[0], encode(data), "ways {}", ways);
            prop_assert_eq!(stored.len(), 32 + ways);
            let corrupted = stored.as_words()[0] ^ (flips & ((1 << (32 + ways)) - 1));
            let expected = if parities(corrupted) == 0 {
                Decoded::Clean { data: corrupted as u32 }
            } else {
                Decoded::DetectedUncorrectable
            };
            prop_assert_eq!(code.decode(&BitBuf::from_u64(corrupted, 32 + ways)), expected);
        }
    }

    #[test]
    fn nocode_roundtrip_and_silent_corruption() {
        let code = NoCode::new();
        let stored = code.encode(0xFFFF_0000);
        assert_eq!(code.decode(&stored), Decoded::Clean { data: 0xFFFF_0000 });
        let mut corrupted = stored;
        corrupted.flip(31);
        // Corruption is invisible: decode still claims "clean".
        assert_eq!(
            code.decode(&corrupted),
            Decoded::Clean { data: 0x7FFF_0000 }
        );
    }

    #[test]
    fn parity_detects_odd_flips() {
        let code = ParityCode::new();
        for data in [0u32, 1, u32::MAX, 0xA0A0_0505] {
            let stored = code.encode(data);
            assert_eq!(code.decode(&stored), Decoded::Clean { data });
            for flips in [1usize, 3] {
                let mut bad = stored;
                for i in 0..flips {
                    bad.flip(i * 7 % 33);
                }
                assert!(
                    code.decode(&bad).is_failure(),
                    "data={data:#x} flips={flips}"
                );
            }
        }
    }

    #[test]
    fn parity_misses_even_flips() {
        // A double flip defeats single parity — that is the point of the
        // paper's SMU motivation.
        let code = ParityCode::new();
        let mut stored = code.encode(0);
        stored.flip(0);
        stored.flip(1);
        assert_eq!(code.decode(&stored), Decoded::Clean { data: 0b11 });
    }

    #[test]
    fn parity_bit_itself_can_be_hit() {
        let code = ParityCode::new();
        let mut stored = code.encode(123);
        stored.flip(32);
        assert!(code.decode(&stored).is_failure());
    }

    #[test]
    fn interleaved_parity_detects_every_burst_up_to_ways() {
        for ways in [2usize, 4, 6, 8] {
            let code = InterleavedParity::new(ways).unwrap();
            let clean = code.encode(0x9D2C_5680);
            assert_eq!(code.decode(&clean), Decoded::Clean { data: 0x9D2C_5680 });
            for width in 1..=ways {
                for start in 0..=(clean.len() - width) {
                    let mut bad = clean;
                    for i in start..start + width {
                        bad.flip(i);
                    }
                    assert!(
                        bad == clean || code.decode(&bad).is_failure(),
                        "ways={ways} width={width} start={start} undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn interleaved_parity_misses_some_wider_bursts() {
        // A burst of ways+ways bits flips every way twice: undetected —
        // the documented residual risk of any bounded detector.
        let code = InterleavedParity::new(2).unwrap();
        let clean = code.encode(0);
        let mut bad = clean;
        for i in 4..8 {
            bad.flip(i);
        }
        assert!(matches!(code.decode(&bad), Decoded::Clean { .. }));
    }

    #[test]
    fn interleaved_parity_rejects_bad_ways() {
        assert!(InterleavedParity::new(0).is_err());
        assert!(InterleavedParity::new(9).is_err());
    }
}
