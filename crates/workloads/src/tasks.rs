//! [`StreamingTask`] implementations for the five MediaBench-equivalent
//! benchmarks of the paper's Table I / Fig. 5, plus the wideband G.722
//! sub-band pair used by timeline scenarios.
//!
//! Each speech benchmark is one codec kernel (IMA ADPCM, G.726, G.722) on
//! two shared task templates, an encoder and a decoder; JPEG decode is a
//! task of its own. Every task follows the same restartable pattern (see
//! [`crate::stream`]): per block it DMAs its input window into L1, loads
//! state + input through checked bus reads, computes, and stores the
//! output chunk + new state. A task's profile and L1 layout come from its
//! family's profile formula, the same one [`Benchmark::profile_for_chunk`]
//! hands the chunk-size optimizer. ROM-resident constants (codec tables,
//! parsed JPEG headers) stay on the Rust side: instruction/constant memory
//! is not the vulnerable SRAM the paper protects.

use std::marker::PhantomData;
use std::sync::Arc;

use chunkpoint_sim::{MemoryBus, Region};

use crate::adpcm::{self, AdpcmState};
use crate::g722::{self, G722State};
use crate::g726::{self, G726State};
use crate::input::{speech_pcm, test_image};
use crate::jpeg::{self, EntropyState, JpegDecoder};
use crate::memo::Memo;
use crate::stream::{
    pack_bytes, pack_i16, read_region, unpack_bytes, unpack_i16, write_region, write_region_at,
    StreamingTask, TaskError, TaskProfile,
};

/// Per-8×8-block cycle estimate for JPEG decode (Huffman + IDCT).
const JPEG_CYCLES_PER_BLOCK: u64 = 2816;
/// Worst-case entropy bytes per 8×8 block used to size refill windows.
const JPEG_WINDOW_BYTES_PER_BLOCK: usize = 256;

/// A task's profile and its L1 regions.
#[derive(Debug, Clone, Copy)]
struct Shape {
    profile: TaskProfile,
    state: Region,
    input: Region,
    output: Region,
}

impl Shape {
    /// Lays out state, input window and frame output (one chunk per
    /// block) from word 0 up, and counts a block's L1 accesses: the input
    /// window is stored and loaded back, the chunk stored, and the state
    /// loaded and stored.
    fn new(
        total_blocks: usize,
        block_words: u32,
        state_words: u32,
        compute_cycles_per_block: u64,
        input_words: u32,
    ) -> Self {
        let state = Region {
            base: 0,
            words: state_words,
        };
        let input = Region {
            base: state.end(),
            words: input_words,
        };
        let output = Region {
            base: input.end(),
            words: block_words * total_blocks as u32,
        };
        let profile = TaskProfile {
            total_blocks,
            block_words,
            state_words,
            compute_cycles_per_block,
            accesses_per_block: 2 * u64::from(input_words)
                + u64::from(block_words)
                + 2 * u64::from(state_words),
        };
        Self {
            profile,
            state,
            input,
            output,
        }
    }
}

fn read_words(bus: &mut dyn MemoryBus, region: Region, n: usize) -> Result<Vec<u32>, TaskError> {
    debug_assert!(n <= region.words as usize);
    (0..n as u32)
        .map(|i| bus.load(region.word(i)).map_err(TaskError::from))
        .collect()
}

// ---------------------------------------------------------------------------
// Speech codecs: one kernel each, on an encoder and a decoder template
// ---------------------------------------------------------------------------

/// One speech codec kernel as the two task templates run it. The codec
/// state is what a task keeps in its L1 state region.
trait SpeechCodec: Default {
    /// Task names of the encoder and of the decoder.
    const NAMES: [&'static str; 2];
    /// Words the state occupies in the state region.
    const STATE_WORDS: u32;
    /// Per-sample cycle estimate.
    const CYCLES_PER_SAMPLE: u64;

    /// Stores the state into the state region.
    fn save(&self, bus: &mut dyn MemoryBus, region: Region);
    /// Rebuilds the state from the words loaded from the state region.
    fn load(words: &[u32]) -> Self;
    /// Codes one sample pair (one sample at an odd tail) into a byte.
    fn encode_pair(&mut self, pair: &[i16]) -> u8;
    /// Decodes one code byte into at most `wanted` (≥ 1) samples.
    fn decode_byte(&mut self, byte: u8, wanted: usize, out: &mut Vec<i16>);
}

/// ADPCM and G.726 pack two 4-bit codes per byte, low nibble first. A
/// missing odd-tail sample codes as 0 and never runs through the codec.
fn encode_nibbles(pair: &[i16], mut encode: impl FnMut(i16) -> u8) -> u8 {
    let lo = encode(pair[0]);
    let hi = pair.get(1).map_or(0, |&sample| encode(sample));
    lo | (hi << 4)
}

/// The inverse of `encode_nibbles`: a nibble past the sample count is not
/// decoded.
fn decode_nibbles(byte: u8, wanted: usize, out: &mut Vec<i16>, decode: impl FnMut(u8) -> i16) {
    out.extend(
        [byte & 0x0F, byte >> 4]
            .into_iter()
            .take(wanted)
            .map(decode),
    );
}

impl SpeechCodec for AdpcmState {
    const NAMES: [&'static str; 2] = ["adpcm-encode", "adpcm-decode"];
    const STATE_WORDS: u32 = 2;
    // Table lookups + few ALU ops.
    const CYCLES_PER_SAMPLE: u64 = 45;

    fn save(&self, bus: &mut dyn MemoryBus, region: Region) {
        write_region(bus, region, &self.to_words());
    }

    fn load(words: &[u32]) -> Self {
        Self::from_words(words.try_into().expect("state region holds the state"))
    }

    fn encode_pair(&mut self, pair: &[i16]) -> u8 {
        encode_nibbles(pair, |sample| adpcm::encode_sample(self, sample))
    }

    fn decode_byte(&mut self, byte: u8, wanted: usize, out: &mut Vec<i16>) {
        decode_nibbles(byte, wanted, out, |code| adpcm::decode_sample(self, code));
    }
}

impl SpeechCodec for G726State {
    const NAMES: [&'static str; 2] = ["g721-encode", "g721-decode"];
    const STATE_WORDS: u32 = Self::WORDS as u32;
    // Predictor + quantizer + update.
    const CYCLES_PER_SAMPLE: u64 = 180;

    fn save(&self, bus: &mut dyn MemoryBus, region: Region) {
        write_region(bus, region, &self.to_words());
    }

    fn load(words: &[u32]) -> Self {
        Self::from_words(words.try_into().expect("state region holds the state"))
    }

    fn encode_pair(&mut self, pair: &[i16]) -> u8 {
        encode_nibbles(pair, |sample| g726::encode_sample(self, sample))
    }

    fn decode_byte(&mut self, byte: u8, wanted: usize, out: &mut Vec<i16>) {
        decode_nibbles(byte, wanted, out, |code| g726::decode_sample(self, code));
    }
}

impl SpeechCodec for G722State {
    const NAMES: [&'static str; 2] = ["g722-encode", "g722-decode"];
    const STATE_WORDS: u32 = Self::WORDS as u32;
    // 12 QMF MACs + one band update.
    const CYCLES_PER_SAMPLE: u64 = 110;

    fn save(&self, bus: &mut dyn MemoryBus, region: Region) {
        write_region(bus, region, &self.to_words());
    }

    fn load(words: &[u32]) -> Self {
        Self::from_words(words.try_into().expect("state region holds the state"))
    }

    /// One byte per pair; an odd tail is paired with silence.
    fn encode_pair(&mut self, pair: &[i16]) -> u8 {
        g722::encode_pair(self, pair[0], pair.get(1).copied().unwrap_or(0))
    }

    fn decode_byte(&mut self, byte: u8, wanted: usize, out: &mut Vec<i16>) {
        let (x0, x1) = g722::decode_pair(self, byte);
        out.extend([x0, x1].into_iter().take(wanted));
    }
}

/// Which way a speech task codes.
#[derive(Clone, Copy)]
enum Direction {
    Encode,
    Decode,
}

impl Direction {
    /// Samples per output word and per input word: a word of codes holds
    /// 8 samples (4 code bytes of 2 samples each), a word of PCM 2.
    fn samples_per_word(self) -> (u32, u32) {
        match self {
            Direction::Encode => (8, 2),
            Direction::Decode => (2, 8),
        }
    }

    fn samples_per_block(self, chunk_words: u32) -> usize {
        (chunk_words * self.samples_per_word().0) as usize
    }
}

/// The speech formula: the shape of codec `C`'s task in `direction` over
/// `total_samples` samples, `chunk_words` output words per block.
fn speech_shape<C: SpeechCodec>(
    direction: Direction,
    chunk_words: u32,
    total_samples: usize,
) -> Shape {
    let (per_output_word, per_input_word) = direction.samples_per_word();
    let samples_per_block = chunk_words * per_output_word;
    Shape::new(
        total_samples.div_ceil(samples_per_block as usize),
        chunk_words,
        C::STATE_WORDS,
        C::CYCLES_PER_SAMPLE * u64::from(samples_per_block),
        samples_per_block.div_ceil(per_input_word),
    )
}

/// Runs one block of a speech task: DMA the packed input `window` into
/// L1, load the codec state and the window back through checked loads,
/// charge `samples` samples of compute, let `code` turn the loaded window
/// into output words, then store the chunk and the new state.
fn speech_block<C: SpeechCodec>(
    shape: &Shape,
    block: usize,
    bus: &mut dyn MemoryBus,
    window: &[u32],
    samples: usize,
    code: impl FnOnce(&mut C, &[u32]) -> Vec<u32>,
) -> Result<u32, TaskError> {
    write_region(bus, shape.input, window);
    let mut codec = C::load(&read_region(bus, shape.state)?);
    let raw = read_words(bus, shape.input, window.len())?;
    bus.tick(C::CYCLES_PER_SAMPLE * samples as u64);
    let out_words = code(&mut codec, &raw);
    let offset = block as u32 * shape.profile.block_words;
    write_region_at(bus, shape.output, offset, &out_words);
    codec.save(bus, shape.state);
    Ok(out_words.len() as u32)
}

/// The encoder template: codes PCM input with codec `C` (MediaBench
/// `rawcaudio` and `g721 encode`, and the G.722 encoder).
struct SpeechEncoder<C> {
    samples: Arc<[i16]>,
    shape: Shape,
    codec: PhantomData<C>,
}

impl<C: SpeechCodec> SpeechEncoder<C> {
    /// Creates the task over `samples`, producing `chunk_words` words of
    /// codes per block.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_words == 0` or `samples` is empty.
    fn new(samples: Arc<[i16]>, chunk_words: u32) -> Self {
        assert!(chunk_words > 0, "chunk must be at least one word");
        assert!(!samples.is_empty(), "empty input");
        let shape = speech_shape::<C>(Direction::Encode, chunk_words, samples.len());
        Self {
            samples,
            shape,
            codec: PhantomData,
        }
    }
}

impl<C: SpeechCodec> StreamingTask for SpeechEncoder<C> {
    fn name(&self) -> String {
        C::NAMES[0].to_owned()
    }

    fn total_blocks(&self) -> usize {
        self.shape.profile.total_blocks
    }

    fn profile(&self) -> TaskProfile {
        self.shape.profile
    }

    fn state_region(&self) -> Region {
        self.shape.state
    }

    fn output_region(&self) -> Region {
        self.shape.output
    }

    fn init(&mut self, bus: &mut dyn MemoryBus) -> Result<(), TaskError> {
        C::default().save(bus, self.shape.state);
        Ok(())
    }

    fn run_block(&mut self, block: usize, bus: &mut dyn MemoryBus) -> Result<u32, TaskError> {
        let spb = Direction::Encode.samples_per_block(self.shape.profile.block_words);
        let start = block * spb;
        if start >= self.samples.len() {
            return Err(TaskError::Config(format!("block {block} out of range")));
        }
        let slice = &self.samples[start..(start + spb).min(self.samples.len())];
        let window = pack_i16(slice);
        speech_block(
            &self.shape,
            block,
            bus,
            &window,
            slice.len(),
            |codec: &mut C, raw| {
                let samples = unpack_i16(raw, slice.len());
                let bytes: Vec<u8> = samples
                    .chunks(2)
                    .map(|pair| codec.encode_pair(pair))
                    .collect();
                pack_bytes(&bytes)
            },
        )
    }
}

/// The decoder template: decodes a code stream with codec `C` back to
/// PCM (MediaBench `rawdaudio` and `g721 decode`, and the G.722 decoder).
struct SpeechDecoder<C> {
    codes: Arc<[u8]>,
    total_samples: usize,
    shape: Shape,
    codec: PhantomData<C>,
}

impl<C: SpeechCodec> SpeechDecoder<C> {
    /// Creates the task over packed `codes` decoding `total_samples`
    /// samples, producing `chunk_words` words of PCM per block.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_words == 0` or the code stream is too short.
    fn new(codes: Arc<[u8]>, total_samples: usize, chunk_words: u32) -> Self {
        assert!(chunk_words > 0, "chunk must be at least one word");
        assert!(
            codes.len() * 2 >= total_samples,
            "code stream shorter than sample count"
        );
        let shape = speech_shape::<C>(Direction::Decode, chunk_words, total_samples);
        Self {
            codes,
            total_samples,
            shape,
            codec: PhantomData,
        }
    }
}

impl<C: SpeechCodec> StreamingTask for SpeechDecoder<C> {
    fn name(&self) -> String {
        C::NAMES[1].to_owned()
    }

    fn total_blocks(&self) -> usize {
        self.shape.profile.total_blocks
    }

    fn profile(&self) -> TaskProfile {
        self.shape.profile
    }

    fn state_region(&self) -> Region {
        self.shape.state
    }

    fn output_region(&self) -> Region {
        self.shape.output
    }

    fn init(&mut self, bus: &mut dyn MemoryBus) -> Result<(), TaskError> {
        C::default().save(bus, self.shape.state);
        Ok(())
    }

    fn run_block(&mut self, block: usize, bus: &mut dyn MemoryBus) -> Result<u32, TaskError> {
        let spb = Direction::Decode.samples_per_block(self.shape.profile.block_words);
        let start = block * spb;
        if start >= self.total_samples {
            return Err(TaskError::Config(format!("block {block} out of range")));
        }
        let n_samples = spb.min(self.total_samples - start);
        // Blocks start on even samples: each code byte holds two.
        let first = start / 2;
        let window = &self.codes[first..(first + n_samples.div_ceil(2)).min(self.codes.len())];
        let packed = pack_bytes(window);
        speech_block(
            &self.shape,
            block,
            bus,
            &packed,
            n_samples,
            |codec: &mut C, raw| {
                let mut samples = Vec::with_capacity(n_samples);
                for &byte in &unpack_bytes(raw, window.len()) {
                    codec.decode_byte(byte, n_samples - samples.len(), &mut samples);
                }
                pack_i16(&samples)
            },
        )
    }
}

// ---------------------------------------------------------------------------
// JPEG decode
// ---------------------------------------------------------------------------

/// The JPEG formula: the shape of the JPEG decoder over an image of
/// `image_blocks` 8×8 blocks. A chunk holds whole blocks of 16 output
/// words, at least one, so `chunk_words` rounds down to a multiple of 16.
fn jpeg_shape(chunk_words: u32, image_blocks: usize) -> Shape {
    let blocks_per_phase = (chunk_words / 16).max(1);
    let window_bytes = blocks_per_phase as usize * JPEG_WINDOW_BYTES_PER_BLOCK + 64;
    Shape::new(
        image_blocks.div_ceil(blocks_per_phase as usize),
        blocks_per_phase * 16,
        4,
        JPEG_CYCLES_PER_BLOCK * u64::from(blocks_per_phase),
        (window_bytes as u32).div_ceil(4),
    )
}

/// MediaBench `djpeg`: baseline JPEG decoder over a compressed stream.
///
/// The parsed header (quant + Huffman tables) lives on the host side,
/// modelling tables resident in ROM/flash; the entropy-coded data streams
/// through the vulnerable L1.
#[derive(Debug, Clone)]
pub struct JpegDecodeTask {
    bytes: Arc<[u8]>,
    decoder: Arc<JpegDecoder>,
    shape: Shape,
}

impl JpegDecodeTask {
    /// Creates the task over an encoded stream; `chunk_words` must hold at
    /// least one 8×8 block (16 words).
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::Malformed`] when the stream does not parse.
    pub fn new(bytes: Vec<u8>, chunk_words: u32) -> Result<Self, TaskError> {
        let decoder =
            JpegDecoder::parse(&bytes).map_err(|e| TaskError::Malformed(e.to_string()))?;
        Ok(Self::over(bytes.into(), Arc::new(decoder), chunk_words))
    }

    /// The task over a stream and its already parsed header.
    fn over(bytes: Arc<[u8]>, decoder: Arc<JpegDecoder>, chunk_words: u32) -> Self {
        let shape = jpeg_shape(chunk_words, decoder.total_blocks());
        Self {
            bytes,
            decoder,
            shape,
        }
    }

    fn blocks_per_phase(&self) -> usize {
        (self.shape.profile.block_words / 16) as usize
    }
}

impl StreamingTask for JpegDecodeTask {
    fn name(&self) -> String {
        "jpg-decode".to_owned()
    }

    fn total_blocks(&self) -> usize {
        self.shape.profile.total_blocks
    }

    fn profile(&self) -> TaskProfile {
        self.shape.profile
    }

    fn state_region(&self) -> Region {
        self.shape.state
    }

    fn output_region(&self) -> Region {
        self.shape.output
    }

    fn init(&mut self, bus: &mut dyn MemoryBus) -> Result<(), TaskError> {
        write_region(bus, self.shape.state, &EntropyState::default().to_words());
        Ok(())
    }

    fn run_block(&mut self, block: usize, bus: &mut dyn MemoryBus) -> Result<u32, TaskError> {
        if block >= self.total_blocks() {
            return Err(TaskError::Config(format!("block {block} out of range")));
        }
        let state_words = read_region(bus, self.shape.state)?;
        let mut array = [0u32; 4];
        array.copy_from_slice(&state_words);
        let abs_state = EntropyState::from_words(array);
        let done = abs_state.blocks_done as usize;
        let n = self
            .blocks_per_phase()
            .min(self.decoder.total_blocks().saturating_sub(done));
        if n == 0 {
            return Ok(0);
        }
        // DMA the entropy window for this run of blocks into L1.
        let entropy = &self.bytes[self.decoder.entropy_start()..];
        let window_start = abs_state.byte_pos as usize;
        if window_start > entropy.len() {
            // The stream position came from the (detector-checked) state
            // region, so landing outside the stream means a corruption
            // slipped past the detector: structure broke, like any other
            // malformed-stream condition.
            return Err(TaskError::Malformed(format!(
                "corrupt decoder state: byte position {window_start} beyond stream"
            )));
        }
        let window_len = (self.shape.input.words as usize * 4).min(entropy.len() - window_start);
        let window = &entropy[window_start..window_start + window_len];
        let in_words = pack_bytes(window);
        write_region(bus, self.shape.input, &in_words);
        let raw = read_words(bus, self.shape.input, in_words.len())?;
        let bytes = unpack_bytes(&raw, window.len());
        bus.tick(JPEG_CYCLES_PER_BLOCK * n as u64);
        // Decode relative to the window.
        let mut rel_state = abs_state;
        rel_state.byte_pos = 0;
        let mut pixels = Vec::with_capacity(n * 64);
        self.decoder
            .decode_blocks(&bytes, &mut rel_state, n, &mut pixels)
            .map_err(|e| TaskError::Malformed(e.to_string()))?;
        let mut new_state = rel_state;
        new_state.byte_pos += abs_state.byte_pos;
        let out_words = pack_bytes(&pixels);
        write_region_at(
            bus,
            self.shape.output,
            block as u32 * self.shape.profile.block_words,
            &out_words,
        );
        write_region(bus, self.shape.state, &new_state.to_words());
        Ok(out_words.len() as u32)
    }
}

// ---------------------------------------------------------------------------
// Benchmark registry
// ---------------------------------------------------------------------------

/// A benchmark's standard input: what its task streams through L1.
#[derive(Clone)]
enum Input {
    /// An encoder's PCM samples.
    Pcm(Arc<[i16]>),
    /// A decoder's code stream: the reference encoder's output.
    Codes(Arc<[u8]>),
    /// JPEG's stream and its parsed header.
    Jpeg(Arc<[u8]>, Arc<JpegDecoder>),
}

/// The inputs a process has synthesised, keyed by (benchmark, input
/// size): an input is a pure function of that pair.
static INPUTS: Memo<(Benchmark, usize), Input> = Memo::new();

/// The five benchmarks of the paper's evaluation, plus the wideband
/// G.722 pair added for timeline scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// IMA ADPCM encoder (`rawcaudio`).
    AdpcmEncode,
    /// IMA ADPCM decoder (`rawdaudio`).
    AdpcmDecode,
    /// G.721 encoder.
    G721Encode,
    /// G.721 decoder.
    G721Decode,
    /// Baseline JPEG decoder (`djpeg`).
    JpegDecode,
    /// G.722 sub-band encoder (wideband extension).
    G722Encode,
    /// G.722 sub-band decoder (wideband extension).
    G722Decode,
}

impl Benchmark {
    /// All benchmarks: the paper's Table I order, then the G.722 pair.
    pub const ALL: [Benchmark; 7] = [
        Benchmark::AdpcmEncode,
        Benchmark::AdpcmDecode,
        Benchmark::G721Encode,
        Benchmark::G721Decode,
        Benchmark::JpegDecode,
        Benchmark::G722Encode,
        Benchmark::G722Decode,
    ];

    /// Paper-style display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::AdpcmEncode => "ADPCM encode",
            Benchmark::AdpcmDecode => "ADPCM decode",
            Benchmark::G721Encode => "G721 encode",
            Benchmark::G721Decode => "G721 decode",
            Benchmark::JpegDecode => "JPG decode",
            Benchmark::G722Encode => "G722 encode",
            Benchmark::G722Decode => "G722 decode",
        }
    }

    /// Builds a fresh task instance with a `chunk_words`-word data chunk,
    /// over the benchmark's standard synthetic input, which is synthesised
    /// once per process and input size (see
    /// [`Benchmark::build_task_scaled`]).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_words == 0` (and, for JPEG, if the internally
    /// generated stream fails to parse — impossible by construction).
    #[must_use]
    pub fn build_task(self, chunk_words: u32) -> Box<dyn StreamingTask> {
        self.build_task_scaled(chunk_words, 1.0)
    }

    /// Number of PCM samples the benchmark's standard input has at `scale`.
    ///
    /// The paper's tasks are *periodic stream frames* with deadlines, not
    /// whole files: one IMA-ADPCM frame (~1024 samples, 128 ms at 8 kHz)
    /// and one G.726 RTP-style packet window (192 samples, 24 ms). Frame
    /// lengths are sized so one frame sees O(1) expected strikes at the
    /// paper's worst-case rate of 1e-6 word/cycle.
    fn audio_samples(self, scale: f64) -> usize {
        let base = match self {
            // Encoder frames are longer than decoder frames because the
            // decoder's 16-bit PCM output occupies 4x the L1 footprint of
            // the encoder's 4-bit codes: frames are sized so the live
            // frame buffer sees O(1) expected strikes at 1e-6 word/cycle.
            Benchmark::AdpcmEncode => 512.0,
            Benchmark::AdpcmDecode => 256.0,
            // G.726 costs ~4x more cycles/sample; one RTP packet window.
            Benchmark::G721Encode => 192.0,
            Benchmark::G721Decode => 96.0,
            // G.722 runs at 16 kHz, so a same-duration frame holds twice
            // the samples of its narrowband sibling — but the 16-word
            // state makes checkpoints dearer, so frames stay moderate.
            Benchmark::G722Encode => 384.0,
            Benchmark::G722Decode => 128.0,
            Benchmark::JpegDecode => 0.0, // unused
        };
        ((base * scale) as usize).max(48)
    }

    /// Whether a run on an unprotected L1 (the *Default* system, ECC kind
    /// `None`) charges the same cycles and energy whatever values its
    /// loads return, so a faulty Default run's ledger is exactly the
    /// fault-free golden run's: a function of (benchmark, platform,
    /// scale) alone.
    ///
    /// True for the six speech tasks. Their bus traffic is fixed by
    /// host-side sizes, sample counts and chunk words, so every load,
    /// store and tick comes in the same count and order whatever the
    /// loads return; the bus charges per operation, not per value; and an
    /// unprotected read never fails or corrects.
    ///
    /// False for JPEG. It reads its block count and stream position back
    /// from L1, and a corrupted stream ends a block early with
    /// [`TaskError::Malformed`], so its traffic depends on the data.
    #[must_use]
    pub fn ledger_is_data_independent(self) -> bool {
        self != Benchmark::JpegDecode
    }

    /// JPEG frame edge length at `scale` (one thumbnail/preview tile).
    fn jpeg_side(scale: f64) -> usize {
        if scale >= 2.0 {
            32
        } else {
            16
        }
    }

    /// What input synthesis reads of `scale`: the PCM sample count of a
    /// speech task, the image side of JPEG.
    fn input_size(self, scale: f64) -> usize {
        match self {
            Benchmark::JpegDecode => Self::jpeg_side(scale),
            _ => self.audio_samples(scale),
        }
    }

    /// Synthesises the benchmark's standard input of `size` (see
    /// `input_size`).
    fn synthesise(self, size: usize) -> Input {
        let pcm = |seed| speech_pcm(size, seed);
        match self {
            Benchmark::AdpcmEncode => Input::Pcm(pcm(0xA1).into()),
            Benchmark::AdpcmDecode => Input::Codes(adpcm::encode(&pcm(0xA2)).into()),
            Benchmark::G721Encode => Input::Pcm(pcm(0xB1).into()),
            Benchmark::G721Decode => Input::Codes(g726::encode(&pcm(0xB2)).into()),
            Benchmark::JpegDecode => {
                let bytes = jpeg::encode(&test_image(size, size, 0xC1), size, size, 80);
                let decoder =
                    JpegDecoder::parse(&bytes).expect("internally generated stream parses");
                Input::Jpeg(bytes.into(), Arc::new(decoder))
            }
            Benchmark::G722Encode => Input::Pcm(pcm(0xD1).into()),
            Benchmark::G722Decode => Input::Codes(g722::encode(&pcm(0xD2)).into()),
        }
    }

    /// The standard input at `scale` and its size, synthesised on the
    /// first call of the process for that size.
    fn input(self, scale: f64) -> (usize, Input) {
        let size = self.input_size(scale);
        let input = INPUTS.get_or_compute((self, size), |&(benchmark, size)| {
            benchmark.synthesise(size)
        });
        (size, input)
    }

    /// The benchmark's task over `input` of `size`.
    fn task_over(self, input: Input, size: usize, chunk_words: u32) -> Box<dyn StreamingTask> {
        match (self, input) {
            (Benchmark::AdpcmEncode, Input::Pcm(pcm)) => {
                Box::new(SpeechEncoder::<AdpcmState>::new(pcm, chunk_words))
            }
            (Benchmark::AdpcmDecode, Input::Codes(codes)) => {
                Box::new(SpeechDecoder::<AdpcmState>::new(codes, size, chunk_words))
            }
            (Benchmark::G721Encode, Input::Pcm(pcm)) => {
                Box::new(SpeechEncoder::<G726State>::new(pcm, chunk_words))
            }
            (Benchmark::G721Decode, Input::Codes(codes)) => {
                Box::new(SpeechDecoder::<G726State>::new(codes, size, chunk_words))
            }
            (Benchmark::JpegDecode, Input::Jpeg(bytes, decoder)) => {
                Box::new(JpegDecodeTask::over(bytes, decoder, chunk_words))
            }
            (Benchmark::G722Encode, Input::Pcm(pcm)) => {
                Box::new(SpeechEncoder::<G722State>::new(pcm, chunk_words))
            }
            (Benchmark::G722Decode, Input::Codes(codes)) => {
                Box::new(SpeechDecoder::<G722State>::new(codes, size, chunk_words))
            }
            _ => unreachable!("`synthesise` gives each benchmark its input kind"),
        }
    }

    /// Like [`Benchmark::build_task`] with an input-length scale factor
    /// (0.1 = ten times shorter runs, for fast tests).
    ///
    /// The input is a pure function of (benchmark, input size), where the
    /// size is what synthesis reads of `scale` (a sample count, or JPEG's
    /// image side), so a process synthesises it once per size and every
    /// later build shares it; the memo is bounded
    /// ([`crate::MEMO_CAPACITY`] entries).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_words == 0` or `scale` is not in `(0, 4]`.
    #[must_use]
    pub fn build_task_scaled(self, chunk_words: u32, scale: f64) -> Box<dyn StreamingTask> {
        assert!(scale > 0.0 && scale <= 4.0, "scale out of range");
        let (size, input) = self.input(scale);
        self.task_over(input, size, chunk_words)
    }

    /// Analytic [`TaskProfile`] for a given chunk size *without* building
    /// the task (no input synthesis) — what the chunk-size optimizer
    /// sweeps over hundreds of candidate sizes.
    ///
    /// Matches `self.build_task_scaled(chunk_words, scale).profile()`
    /// exactly: both come from the task family's one profile formula.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_words == 0` or `scale` is out of range.
    #[must_use]
    pub fn profile_for_chunk(self, chunk_words: u32, scale: f64) -> TaskProfile {
        assert!(chunk_words > 0, "chunk must be at least one word");
        assert!(scale > 0.0 && scale <= 4.0, "scale out of range");
        let n = self.audio_samples(scale);
        let direction = match self {
            Benchmark::AdpcmEncode | Benchmark::G721Encode | Benchmark::G722Encode => {
                Direction::Encode
            }
            _ => Direction::Decode,
        };
        let shape = match self {
            Benchmark::AdpcmEncode | Benchmark::AdpcmDecode => {
                speech_shape::<AdpcmState>(direction, chunk_words, n)
            }
            Benchmark::G721Encode | Benchmark::G721Decode => {
                speech_shape::<G726State>(direction, chunk_words, n)
            }
            Benchmark::G722Encode | Benchmark::G722Decode => {
                speech_shape::<G722State>(direction, chunk_words, n)
            }
            Benchmark::JpegDecode => {
                let side = Self::jpeg_side(scale).div_ceil(8);
                jpeg_shape(chunk_words, side * side)
            }
        };
        shape.profile
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chunkpoint_ecc::EccKind;
    use chunkpoint_sim::{Component, FaultProcess, PlainBus, Platform, Sram};

    fn quiet_bus() -> PlainBus {
        let sram = Sram::new("l1", 16 * 1024, EccKind::None, FaultProcess::disabled()).unwrap();
        PlainBus::new(sram, Platform::lh7a400(), Component::L1)
    }

    /// Runs a task straight through on a fault-free bus, draining the
    /// accumulated frame output at the end.
    fn run_to_completion(task: &mut dyn StreamingTask, bus: &mut PlainBus) -> Vec<u32> {
        task.init(bus).unwrap();
        let mut produced_per_block = Vec::new();
        for block in 0..task.total_blocks() {
            produced_per_block.push(task.run_block(block, bus).unwrap());
        }
        let mut drained = Vec::new();
        for (block, &produced) in produced_per_block.iter().enumerate() {
            let offset = task.output_offset(block);
            for i in 0..produced {
                drained.push(bus.load(task.output_region().word(offset + i)).unwrap());
            }
        }
        drained
    }

    /// Codec `C`'s encoder task over `counts` samples (an even and an odd
    /// count) against the pure encoder.
    fn encoder_matches<C: SpeechCodec>(
        counts: [usize; 2],
        seed: u64,
        chunk_words: u32,
        encode: fn(&[i16]) -> Vec<u8>,
    ) {
        for n in counts {
            let pcm = speech_pcm(n, seed);
            let mut task = SpeechEncoder::<C>::new(pcm.clone().into(), chunk_words);
            let drained = run_to_completion(&mut task, &mut quiet_bus());
            assert_eq!(drained, pack_bytes(&encode(&pcm)), "{n} samples");
        }
    }

    /// Codec `C`'s decoder task over `counts` samples (an even and an odd
    /// count) against the pure decoder.
    fn decoder_matches<C: SpeechCodec>(
        counts: [usize; 2],
        seed: u64,
        chunk_words: u32,
        encode: fn(&[i16]) -> Vec<u8>,
        decode: fn(&[u8], usize) -> Vec<i16>,
    ) {
        for n in counts {
            let codes = encode(&speech_pcm(n, seed));
            let mut task = SpeechDecoder::<C>::new(codes.clone().into(), n, chunk_words);
            let drained = run_to_completion(&mut task, &mut quiet_bus());
            assert_eq!(drained, pack_i16(&decode(&codes, n)), "{n} samples");
        }
    }

    #[test]
    fn adpcm_encode_task_matches_pure_codec() {
        encoder_matches::<AdpcmState>([2000, 1999], 0xA1, 8, adpcm::encode);
    }

    #[test]
    fn adpcm_decode_task_matches_pure_codec() {
        decoder_matches::<AdpcmState>([2000, 1999], 7, 8, adpcm::encode, adpcm::decode);
    }

    #[test]
    fn g721_encode_task_matches_pure_codec() {
        encoder_matches::<G726State>([1500, 1499], 0xB1, 4, g726::encode);
    }

    #[test]
    fn g721_decode_task_matches_pure_codec() {
        decoder_matches::<G726State>([1500, 1499], 0xB2, 4, g726::encode, g726::decode);
    }

    #[test]
    fn g722_encode_task_matches_pure_codec() {
        encoder_matches::<G722State>([1500, 1499], 0xD1, 4, g722::encode);
    }

    #[test]
    fn g722_decode_task_matches_pure_codec() {
        decoder_matches::<G722State>([1500, 1499], 0xD2, 4, g722::encode, g722::decode);
    }

    #[test]
    fn jpeg_decode_task_matches_pure_decoder() {
        let img = test_image(32, 32, 0xC1);
        let bytes = jpeg::encode(&img, 32, 32, 80);
        let mut task = JpegDecodeTask::new(bytes.clone(), 32).unwrap();
        let mut bus = quiet_bus();
        let drained = run_to_completion(&mut task, &mut bus);
        // Pure path: decode all blocks, compare pixel streams.
        let dec = JpegDecoder::parse(&bytes).unwrap();
        let mut state = EntropyState::default();
        let mut pixels = Vec::new();
        dec.decode_blocks(
            &bytes[dec.entropy_start()..],
            &mut state,
            dec.total_blocks(),
            &mut pixels,
        )
        .unwrap();
        assert_eq!(drained, pack_bytes(&pixels));
    }

    #[test]
    fn rerunning_a_block_is_idempotent() {
        // The restartability contract: run block 3, then run it again;
        // the second run must produce identical output and state.
        let pcm = speech_pcm(4000, 3);
        let mut task = SpeechEncoder::<G726State>::new(pcm.into(), 4);
        let mut bus = quiet_bus();
        task.init(&mut bus).unwrap();
        for b in 0..3 {
            task.run_block(b, &mut bus).unwrap();
        }
        // Snapshot state before block 3.
        let state_before = read_region(&mut bus, task.state_region()).unwrap();
        let n1 = task.run_block(3, &mut bus).unwrap();
        let out1 = read_region(&mut bus, task.output_region()).unwrap();
        // Restore state (what the ISR does from L1') and re-run.
        write_region(&mut bus, task.state_region(), &state_before);
        let n2 = task.run_block(3, &mut bus).unwrap();
        let out2 = read_region(&mut bus, task.output_region()).unwrap();
        assert_eq!(n1, n2);
        assert_eq!(out1, out2);
    }

    #[test]
    fn task_profiles_are_consistent() {
        for benchmark in Benchmark::ALL {
            let task = benchmark.build_task_scaled(16, 0.1);
            let profile = task.profile();
            assert_eq!(profile.total_blocks, task.total_blocks(), "{benchmark}");
            assert!(profile.block_words > 0, "{benchmark}");
            assert!(profile.compute_cycles_per_block > 0, "{benchmark}");
            assert_eq!(
                profile.block_words * profile.total_blocks as u32,
                task.output_region().words,
                "{benchmark}: frame output region holds one chunk per block"
            );
            assert_eq!(
                profile.state_words,
                task.state_region().words,
                "{benchmark}"
            );
        }
    }

    #[test]
    fn all_benchmarks_complete_on_clean_bus() {
        for benchmark in Benchmark::ALL {
            let mut task = benchmark.build_task_scaled(16, 0.1);
            let mut bus = quiet_bus();
            let drained = run_to_completion(task.as_mut(), &mut bus);
            assert!(!drained.is_empty(), "{benchmark}");
        }
    }

    #[test]
    fn out_of_range_block_is_config_error() {
        let mut task = Benchmark::AdpcmEncode.build_task_scaled(8, 0.1);
        let mut bus = quiet_bus();
        task.init(&mut bus).unwrap();
        let err = task.run_block(10_000, &mut bus).unwrap_err();
        assert!(matches!(err, TaskError::Config(_)));
    }

    #[test]
    fn jpeg_chunk_rounds_to_block_multiple() {
        let img = test_image(16, 16, 1);
        let bytes = jpeg::encode(&img, 16, 16, 70);
        let task = JpegDecodeTask::new(bytes, 20).unwrap();
        assert_eq!(task.profile().block_words, 16);
    }

    #[test]
    fn benchmark_display_names() {
        assert_eq!(Benchmark::JpegDecode.to_string(), "JPG decode");
        assert_eq!(Benchmark::G722Encode.to_string(), "G722 encode");
        assert_eq!(Benchmark::ALL.len(), 7);
    }

    #[test]
    fn jpeg_window_survives_worst_case_entropy() {
        // A noisy image at maximum quality produces the densest entropy
        // stream; the per-block refill window must still cover every run
        // of blocks or decoding would starve mid-phase.
        let mut noisy = test_image(32, 32, 0xBAD);
        for (i, px) in noisy.iter_mut().enumerate() {
            // Salt-and-pepper on top of texture: worst case for RLE.
            if i % 3 == 0 {
                *px = if i % 6 == 0 { 255 } else { 0 };
            }
        }
        let bytes = jpeg::encode(&noisy, 32, 32, 100);
        for chunk_words in [16u32, 48] {
            let mut task = JpegDecodeTask::new(bytes.clone(), chunk_words).unwrap();
            let mut bus = quiet_bus();
            task.init(&mut bus).unwrap();
            for block in 0..task.total_blocks() {
                task.run_block(block, &mut bus)
                    .unwrap_or_else(|e| panic!("chunk={chunk_words} block={block}: {e}"));
            }
        }
    }

    /// Input length: samples, code bytes or stream bytes.
    fn input_len(input: &Input) -> usize {
        match input {
            Input::Pcm(pcm) => pcm.len(),
            Input::Codes(codes) => codes.len(),
            Input::Jpeg(bytes, _) => bytes.len(),
        }
    }

    /// Whether two inputs are one memo entry, not just equal values.
    fn shared(a: &Input, b: &Input) -> bool {
        match (a, b) {
            (Input::Pcm(a), Input::Pcm(b)) => Arc::ptr_eq(a, b),
            (Input::Codes(a), Input::Codes(b)) => Arc::ptr_eq(a, b),
            (Input::Jpeg(a, x), Input::Jpeg(b, y)) => Arc::ptr_eq(a, b) && Arc::ptr_eq(x, y),
            _ => false,
        }
    }

    #[test]
    fn memoised_builds_equal_builds_over_fresh_input() {
        for benchmark in Benchmark::ALL {
            for scale in [0.05, 0.25, 0.3, 1.0, 2.0, 4.0] {
                let _ = benchmark.build_task_scaled(16, scale);
                let mut warm = benchmark.build_task_scaled(16, scale);
                let size = benchmark.input_size(scale);
                let mut fresh = benchmark.task_over(benchmark.synthesise(size), size, 16);
                let at = format!("{benchmark} scale={scale}");
                assert_eq!(warm.profile(), fresh.profile(), "{at}");
                assert_eq!(
                    run_to_completion(warm.as_mut(), &mut quiet_bus()),
                    run_to_completion(fresh.as_mut(), &mut quiet_bus()),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn scales_of_one_input_size_share_one_entry() {
        // This test binary builds fewer than `MEMO_CAPACITY` distinct
        // inputs, so nothing is evicted between two lookups.
        for (benchmark, scales) in [
            // Both round up to the 48-sample floor.
            (Benchmark::AdpcmEncode, [0.05, 0.09]),
            // Both below 2.0: one 16×16 tile.
            (Benchmark::JpegDecode, [0.25, 1.0]),
        ] {
            let (size_a, a) = benchmark.input(scales[0]);
            let (size_b, b) = benchmark.input(scales[1]);
            assert_eq!(size_a, size_b, "{benchmark}");
            assert!(shared(&a, &b), "{benchmark}");
        }
    }

    #[test]
    fn scales_a_quarter_and_two_get_distinct_inputs() {
        for benchmark in Benchmark::ALL {
            let (size_a, a) = benchmark.input(0.25);
            let (size_b, b) = benchmark.input(2.0);
            assert!(size_a < size_b, "{benchmark}");
            assert!(input_len(&a) < input_len(&b), "{benchmark}");
            if let (Input::Jpeg(_, a), Input::Jpeg(_, b)) = (&a, &b) {
                assert_eq!((a.width(), b.width()), (16, 32));
            }
        }
    }

    #[test]
    fn analytic_profile_matches_built_task() {
        for benchmark in Benchmark::ALL {
            for chunk_words in [1u32, 4, 11, 16, 32, 44, 64, 128] {
                for scale in [0.25, 1.0] {
                    let built = benchmark.build_task_scaled(chunk_words, scale).profile();
                    let analytic = benchmark.profile_for_chunk(chunk_words, scale);
                    assert_eq!(
                        built, analytic,
                        "{benchmark} chunk={chunk_words} scale={scale}"
                    );
                }
            }
        }
    }
}
