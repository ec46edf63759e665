//! Bit-accurate SRAM array with lazy fault materialisation.
//!
//! Every word is stored as its full ECC codeword, so injected faults hit
//! real stored bits (data *or* check bits) and are only discovered — or
//! missed, for weak codes — when the word is next read, exactly like a
//! physical array. Fault exposure is materialised lazily at access time
//! from the elapsed cycles since the word was last written/read, which is
//! statistically identical to a per-cycle process but costs O(accesses).
//! Storage is lazy too: the array holds codewords only up to the highest
//! address touched, and every word above it is the blank codeword of 0.

use chunkpoint_ecc::{build_scheme, BitBuf, Decoded, EccKind, EccScheme};

use crate::cacti::SramModel;
use crate::fault::{FaultEvent, FaultProcess};

/// Access statistics for one array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SramStats {
    /// Number of word reads.
    pub reads: u64,
    /// Number of word writes.
    pub writes: u64,
    /// Reads that returned corrected data.
    pub corrected_reads: u64,
    /// Reads that flagged an uncorrectable error.
    pub failed_reads: u64,
    /// Total bits corrected by the array's ECC.
    pub bits_corrected: u64,
    /// Strikes materialised into stored bits.
    pub strikes: u64,
}

/// A word-addressable SRAM protected by a configurable ECC scheme.
///
/// # Examples
///
/// ```
/// use chunkpoint_sim::{Sram, FaultProcess};
/// use chunkpoint_ecc::{EccKind, Decoded};
///
/// let mut mem = Sram::new("l1", 1024, EccKind::Secded, FaultProcess::disabled())?;
/// mem.write(5, 0xFEED_BEEF, 0);
/// assert_eq!(mem.read(5, 10), Decoded::Clean { data: 0xFEED_BEEF });
/// # Ok::<(), chunkpoint_ecc::BuildSchemeError>(())
/// ```
#[derive(Debug)]
pub struct Sram {
    name: String,
    kind: EccKind,
    scheme: Box<dyn EccScheme>,
    /// Addressable words.
    len: usize,
    /// The codeword of 0 every word holds until first written.
    blank: BitBuf,
    /// Stored codewords up to the highest address touched so far; the
    /// words above it are still `blank`.
    words: Vec<BitBuf>,
    /// Cycle at which each word's stored bits were last materialised,
    /// over the same prefix as `words` (untouched words: cycle 0).
    last_touch: Vec<u64>,
    faults: FaultProcess,
    stats: SramStats,
    event_log: Vec<FaultEvent>,
    /// Reusable decode scratch for [`Sram::read_block`].
    decode_scratch: Vec<Decoded>,
}

impl Sram {
    /// Creates an array of `words` words protected by `kind`, subject to
    /// `faults`.
    ///
    /// # Errors
    ///
    /// Propagates scheme construction failures.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    pub fn new(
        name: impl Into<String>,
        words: usize,
        kind: EccKind,
        faults: FaultProcess,
    ) -> Result<Self, chunkpoint_ecc::BuildSchemeError> {
        assert!(words > 0, "SRAM needs at least one word");
        let scheme = build_scheme(kind)?;
        Ok(Self {
            name: name.into(),
            kind,
            len: words,
            blank: scheme.encode(0),
            words: Vec::new(),
            last_touch: Vec::new(),
            scheme,
            faults,
            stats: SramStats::default(),
            event_log: Vec::new(),
            decode_scratch: Vec::new(),
        })
    }

    /// Array name (for traces and reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Protection scheme in force.
    #[must_use]
    pub fn kind(&self) -> EccKind {
        self.kind
    }

    /// Number of addressable words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array has zero words (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Materialises the blank words below `end` (an address bound already
    /// checked against [`Sram::len`]).
    fn grow(&mut self, end: usize) {
        if end > self.words.len() {
            self.words.resize(end, self.blank);
            self.last_touch.resize(end, 0);
        }
    }

    /// Stored bits per word, check bits included.
    #[must_use]
    pub fn bits_per_word(&self) -> usize {
        self.scheme.total_bits()
    }

    /// Physical model of this array for area/energy/timing queries.
    #[must_use]
    pub fn model(&self) -> SramModel {
        SramModel::new(self.len(), self.bits_per_word())
    }

    /// Access statistics so far.
    #[must_use]
    pub fn stats(&self) -> SramStats {
        self.stats
    }

    /// Fault events materialised so far.
    #[must_use]
    pub fn fault_log(&self) -> &[FaultEvent] {
        &self.event_log
    }

    fn expose(&mut self, addr: usize, now: u64) {
        let elapsed = now.saturating_sub(self.last_touch[addr]);
        if elapsed > 0 {
            // Strikes are pushed straight into the array's long-lived log:
            // the overwhelmingly common no-strike exposure allocates and
            // copies nothing.
            let strikes =
                self.faults
                    .expose_into(&mut self.words[addr], elapsed, now, &mut self.event_log);
            self.stats.strikes += strikes as u64;
        }
        self.last_touch[addr] = now;
    }

    /// Reads the word at `addr` at time `now`, materialising any faults
    /// accumulated since the last access and running the ECC decoder.
    ///
    /// Corrected data is also scrubbed back into the array (read-repair),
    /// as the paper's Fig. 2(a) flow implies for correctable reads.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn read(&mut self, addr: usize, now: u64) -> Decoded {
        assert!(addr < self.len, "read past end of {}", self.name);
        self.grow(addr + 1);
        self.expose(addr, now);
        self.stats.reads += 1;
        let outcome = self.scheme.decode(&self.words[addr]);
        match outcome {
            Decoded::Corrected {
                data,
                bits_corrected,
            } => {
                self.stats.corrected_reads += 1;
                self.stats.bits_corrected += u64::from(bits_corrected);
                self.words[addr] = self.scheme.encode(data);
            }
            Decoded::DetectedUncorrectable => {
                self.stats.failed_reads += 1;
            }
            Decoded::Clean { .. } => {}
        }
        outcome
    }

    /// Writes `value` at `addr` at time `now`, re-encoding the word (which
    /// clears any latent faults in it).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn write(&mut self, addr: usize, value: u32, now: u64) {
        assert!(addr < self.len, "write past end of {}", self.name);
        self.grow(addr + 1);
        self.words[addr] = self.scheme.encode(value);
        self.last_touch[addr] = now;
        self.stats.writes += 1;
    }

    /// Writes a contiguous block of words starting at `addr` at time
    /// `now`, encoding the whole block through one
    /// [`EccScheme::encode_block`] dispatch.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the array.
    pub fn write_block(&mut self, addr: usize, values: &[u32], now: u64) {
        assert!(
            addr + values.len() <= self.len,
            "block write past end of {}",
            self.name
        );
        self.grow(addr + values.len());
        self.scheme
            .encode_block(values, &mut self.words[addr..addr + values.len()]);
        for touch in &mut self.last_touch[addr..addr + values.len()] {
            *touch = now;
        }
        self.stats.writes += values.len() as u64;
    }

    /// Reads `count` contiguous words starting at `addr` at time `now`:
    /// materialises accumulated faults, decodes the whole block through
    /// one [`EccScheme::decode_block`] dispatch, applies read-repair to
    /// corrected words, and appends the payloads to `sink`.
    ///
    /// The entire block is read (and charged to statistics) even when a
    /// word fails — the model is a burst transfer, not a word loop.
    /// Returns the offset of the first uncorrectable word, if any.
    ///
    /// # Errors
    ///
    /// Returns `Err(offset)` when word `addr + offset` was
    /// detected-uncorrectable; `sink` then contains the payloads of the
    /// words before it (failed or later words contribute nothing).
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the array.
    pub fn read_block(
        &mut self,
        addr: usize,
        count: usize,
        now: u64,
        sink: &mut Vec<u32>,
    ) -> Result<(), usize> {
        assert!(
            addr + count <= self.len,
            "block read past end of {}",
            self.name
        );
        self.grow(addr + count);
        for i in addr..addr + count {
            self.expose(i, now);
        }
        self.stats.reads += count as u64;
        let mut scratch = std::mem::take(&mut self.decode_scratch);
        scratch.clear();
        scratch.resize(count, Decoded::Clean { data: 0 });
        self.scheme
            .decode_block(&self.words[addr..addr + count], &mut scratch);
        let mut failed: Option<usize> = None;
        for (offset, outcome) in scratch.iter().enumerate() {
            match *outcome {
                Decoded::Clean { data } => {
                    if failed.is_none() {
                        sink.push(data);
                    }
                }
                Decoded::Corrected {
                    data,
                    bits_corrected,
                } => {
                    self.stats.corrected_reads += 1;
                    self.stats.bits_corrected += u64::from(bits_corrected);
                    self.words[addr + offset] = self.scheme.encode(data);
                    if failed.is_none() {
                        sink.push(data);
                    }
                }
                Decoded::DetectedUncorrectable => {
                    self.stats.failed_reads += 1;
                    failed.get_or_insert(offset);
                }
            }
        }
        self.decode_scratch = scratch;
        match failed {
            None => Ok(()),
            Some(offset) => Err(offset),
        }
    }

    /// Returns the decoded payload without materialising faults, running
    /// ECC, or touching statistics — a debugging/verification backdoor
    /// equivalent to a simulator's memory dump.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[must_use]
    pub fn peek(&self, addr: usize) -> u32 {
        assert!(addr < self.len, "peek past end of {}", self.name);
        let word = self.words.get(addr).unwrap_or(&self.blank);
        let r = self.scheme.check_bits();
        // Payload location depends on the scheme's layout; NoCode/Parity/
        // SECDED keep data in the low bits, BCH keeps it above the parity.
        match self.kind {
            EccKind::Bch { .. } => word.extract_u32(r),
            EccKind::InterleavedSecded { .. } => match self.scheme.decode(word) {
                Decoded::Clean { data } | Decoded::Corrected { data, .. } => data,
                Decoded::DetectedUncorrectable => 0,
            },
            _ => word.extract_u32(0),
        }
    }

    /// Forcibly flips `width` adjacent stored bits of `addr` starting at
    /// `first_bit` — deterministic fault injection for tests.
    ///
    /// # Panics
    ///
    /// Panics if the burst exceeds the stored word.
    pub fn inject(&mut self, addr: usize, first_bit: usize, width: usize) {
        assert!(addr < self.len, "inject past end of {}", self.name);
        self.grow(addr + 1);
        let word = &mut self.words[addr];
        assert!(first_bit + width <= word.len(), "burst exceeds stored word");
        for bit in first_bit..first_bit + width {
            word.flip(bit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::UpsetModel;

    fn quiet(words: usize, kind: EccKind) -> Sram {
        Sram::new("test", words, kind, FaultProcess::disabled()).unwrap()
    }

    #[test]
    fn write_read_roundtrip_all_kinds() {
        for kind in EccKind::catalog() {
            let mut mem = quiet(16, kind);
            mem.write(3, 0xABCD_0123, 0);
            assert_eq!(
                mem.read(3, 100),
                Decoded::Clean { data: 0xABCD_0123 },
                "{kind}"
            );
            assert_eq!(mem.peek(3), 0xABCD_0123, "{kind}");
        }
    }

    #[test]
    fn initial_contents_are_zero() {
        let mut mem = quiet(8, EccKind::Secded);
        assert_eq!(mem.read(0, 0), Decoded::Clean { data: 0 });
    }

    #[test]
    fn injected_single_bit_corrected_by_secded() {
        let mut mem = quiet(8, EccKind::Secded);
        mem.write(1, 0xFFFF_0000, 0);
        mem.inject(1, 5, 1);
        assert_eq!(
            mem.read(1, 1),
            Decoded::Corrected {
                data: 0xFFFF_0000,
                bits_corrected: 1
            }
        );
        // Read-repair scrubbed the word: next read is clean.
        assert_eq!(mem.read(1, 2), Decoded::Clean { data: 0xFFFF_0000 });
        assert_eq!(mem.stats().corrected_reads, 1);
    }

    #[test]
    fn injected_double_bit_detected_by_secded() {
        let mut mem = quiet(8, EccKind::Secded);
        mem.write(1, 0xFFFF_0000, 0);
        mem.inject(1, 5, 2);
        assert_eq!(mem.read(1, 1), Decoded::DetectedUncorrectable);
        assert_eq!(mem.stats().failed_reads, 1);
    }

    #[test]
    fn write_clears_latent_faults() {
        let mut mem = quiet(8, EccKind::Parity);
        mem.write(0, 7, 0);
        mem.inject(0, 2, 1);
        mem.write(0, 9, 1);
        assert_eq!(mem.read(0, 2), Decoded::Clean { data: 9 });
    }

    #[test]
    fn faults_materialise_with_exposure() {
        let faults = FaultProcess::new(1e-3, UpsetModel::smu_65nm(), 99);
        let mut mem = Sram::new("faulty", 4, EccKind::Bch { t: 6 }, faults).unwrap();
        mem.write(0, 0x1234_5678, 0);
        // 1e6 cycles at 1e-3/word/cycle ≈ 1000 strikes; BCH-6 will fail
        // eventually, but every decode outcome must be accounted.
        let mut seen_strike = false;
        for i in 1..=50u64 {
            let _ = mem.read(0, i * 20_000);
            if mem.stats().strikes > 0 {
                seen_strike = true;
                break;
            }
        }
        assert!(seen_strike, "no strike materialised in 1e6 cycles");
        assert!(!mem.fault_log().is_empty());
    }

    #[test]
    fn stats_count_reads_and_writes() {
        let mut mem = quiet(8, EccKind::None);
        mem.write(0, 1, 0);
        mem.write(1, 2, 0);
        let _ = mem.read(0, 1);
        let stats = mem.stats();
        assert_eq!(stats.writes, 2);
        assert_eq!(stats.reads, 1);
    }

    #[test]
    fn block_write_read_roundtrip_all_kinds() {
        for kind in EccKind::catalog() {
            let mut mem = quiet(32, kind);
            let values: Vec<u32> = (0..16u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            mem.write_block(4, &values, 0);
            let mut sink = Vec::new();
            mem.read_block(4, 16, 10, &mut sink).unwrap();
            assert_eq!(sink, values, "{kind}");
            assert_eq!(mem.stats().reads, 16, "{kind}");
            assert_eq!(mem.stats().writes, 16, "{kind}");
        }
    }

    #[test]
    fn block_read_repairs_and_reports_first_failure() {
        let mut mem = quiet(8, EccKind::Secded);
        mem.write_block(0, &[1, 2, 3, 4], 0);
        mem.inject(1, 3, 1); // correctable
        mem.inject(3, 5, 2); // uncorrectable
        let mut sink = Vec::new();
        assert_eq!(mem.read_block(0, 4, 1, &mut sink), Err(3));
        assert_eq!(sink, vec![1, 2, 3], "payloads before the failure");
        assert_eq!(mem.stats().corrected_reads, 1);
        assert_eq!(mem.stats().failed_reads, 1);
        // Read-repair scrubbed word 1: a fresh block read is clean.
        sink.clear();
        mem.write(3, 4, 2);
        mem.read_block(0, 4, 3, &mut sink).unwrap();
        assert_eq!(sink, vec![1, 2, 3, 4]);
        assert_eq!(mem.stats().corrected_reads, 1, "no second correction");
    }

    #[test]
    fn model_reflects_geometry() {
        let mem = quiet(256, EccKind::Secded);
        assert_eq!(mem.model().bits_per_word(), 39);
        assert_eq!(mem.model().words(), 256);
    }

    #[test]
    fn untouched_top_word_behaves_like_a_blank_word() {
        for kind in [EccKind::None, EccKind::Secded, EccKind::Bch { t: 8 }] {
            let mut mem = quiet(4096, kind);
            let top = mem.len() - 1;
            assert_eq!(mem.len(), 4096, "{kind}");
            assert_eq!(mem.model().words(), 4096, "{kind}");
            assert_eq!(mem.peek(top), 0, "{kind}");
            assert_eq!(mem.read(top, 5), Decoded::Clean { data: 0 }, "{kind}");
            mem.write(top - 1, 0x5EED, 6);
            let mut sink = Vec::new();
            mem.read_block(top - 1, 2, 7, &mut sink).unwrap();
            assert_eq!(sink, vec![0x5EED, 0], "{kind}");
            assert_eq!(mem.peek(top - 1), 0x5EED, "{kind}");
            // Touching the top word leaves the logical size unchanged.
            assert_eq!(mem.len(), 4096, "{kind}");
            assert_eq!(mem.model().words(), 4096, "{kind}");
        }
        // A flip injected into an untouched word is caught on its read.
        let mut mem = quiet(64, EccKind::Secded);
        mem.inject(63, 2, 1);
        assert_eq!(
            mem.read(63, 1),
            Decoded::Corrected {
                data: 0,
                bits_corrected: 1
            }
        );
        let mut mem = quiet(64, EccKind::Secded);
        mem.inject(63, 2, 2);
        let mut sink = Vec::new();
        assert_eq!(mem.read_block(60, 4, 1, &mut sink), Err(3));
        assert_eq!(sink, vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn out_of_range_read_panics() {
        let mut mem = quiet(4, EccKind::None);
        let _ = mem.read(4, 0);
    }
}
