//! ITU-T G.726 ADPCM at 32 kbit/s — the G.721 codec of the MediaBench
//! `g721` benchmark.
//!
//! A faithful fixed-point implementation following the classic public-
//! domain g72x structure: an adaptive 4-bit quantizer driven by a
//! locked/unlocked scale factor, and a 2-pole/6-zero adaptive predictor
//! operating on a compact floating-point representation of past
//! difference/reconstructed signals. All state lives in [`G726State`]
//! (24 words once serialised), which is the "flow control registers +
//! intermediate data" the paper's protected chunk carries for this
//! benchmark.

/// Powers of two used by the log-domain conversions.
const POWER2: [i32; 15] = [
    1, 2, 4, 8, 0x10, 0x20, 0x40, 0x80, 0x100, 0x200, 0x400, 0x800, 0x1000, 0x2000, 0x4000,
];

/// G.721 quantizer decision levels (log domain).
const QTAB_721: [i32; 7] = [-124, 80, 178, 246, 300, 349, 400];

/// Log-domain reconstruction levels per 4-bit code.
const DQLNTAB: [i32; 16] = [
    -2048, 4, 135, 213, 273, 323, 373, 425, 425, 373, 323, 273, 213, 135, 4, -2048,
];

/// Scale-factor multipliers per code.
const WITAB: [i32; 16] = [
    -12, 18, 41, 64, 112, 198, 355, 1122, 1122, 355, 198, 112, 64, 41, 18, -12,
];

/// Adaptation-speed weights per code.
const FITAB: [i32; 16] = [
    0, 0, 0, 0x200, 0x200, 0x200, 0x600, 0xE00, 0xE00, 0x600, 0x200, 0x200, 0x200, 0, 0, 0,
];

/// Full codec state (identical for encoder and decoder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct G726State {
    /// Locked (slow) scale factor, Q? as in the reference (yl).
    pub yl: i32,
    /// Unlocked (fast) scale factor (yu).
    pub yu: i32,
    /// Short-term adaptation-speed average (dms).
    pub dms: i32,
    /// Long-term adaptation-speed average (dml).
    pub dml: i32,
    /// Speed-control parameter (ap).
    pub ap: i32,
    /// Pole predictor coefficients a1, a2.
    pub a: [i32; 2],
    /// Zero predictor coefficients b1..b6.
    pub b: [i32; 6],
    /// Signs of past dq + sez.
    pub pk: [i32; 2],
    /// Past quantized difference signals, float format.
    pub dq: [i32; 6],
    /// Past reconstructed signals, float format.
    pub sr: [i32; 2],
    /// Tone-detect flag.
    pub td: i32,
}

impl G726State {
    /// Reset state as specified by the standard.
    #[must_use]
    pub fn new() -> Self {
        Self {
            yl: 34816,
            yu: 544,
            dms: 0,
            dml: 0,
            ap: 0,
            a: [0; 2],
            b: [0; 6],
            pk: [0; 2],
            dq: [32; 6],
            sr: [32; 2],
            td: 0,
        }
    }

    /// Number of 32-bit words [`G726State::to_words`] produces.
    pub const WORDS: usize = 24;

    /// Serialises the state into memory words.
    #[must_use]
    pub fn to_words(&self) -> [u32; Self::WORDS] {
        let mut w = [0u32; Self::WORDS];
        w[0] = self.yl as u32;
        w[1] = self.yu as u32;
        w[2] = self.dms as u32;
        w[3] = self.dml as u32;
        w[4] = self.ap as u32;
        for i in 0..2 {
            w[5 + i] = self.a[i] as u32;
        }
        for i in 0..6 {
            w[7 + i] = self.b[i] as u32;
        }
        for i in 0..2 {
            w[13 + i] = self.pk[i] as u32;
        }
        for i in 0..6 {
            w[15 + i] = self.dq[i] as u32;
        }
        for i in 0..2 {
            w[21 + i] = self.sr[i] as u32;
        }
        w[23] = self.td as u32;
        w
    }

    /// Restores state from memory words, clamping every field into its
    /// legal range so corrupted state degrades the signal instead of
    /// breaking the arithmetic.
    #[must_use]
    pub fn from_words(w: &[u32; Self::WORDS]) -> Self {
        let clamp = |v: u32, lo: i32, hi: i32| (v as i32).clamp(lo, hi);
        let mut s = Self::new();
        s.yl = clamp(w[0], 0, 0x7FFFF);
        s.yu = clamp(w[1], 544, 5120);
        s.dms = clamp(w[2], 0, 0x7FFF);
        s.dml = clamp(w[3], 0, 0x7FFF);
        s.ap = clamp(w[4], 0, 1024);
        for i in 0..2 {
            s.a[i] = clamp(w[5 + i], -0x8000, 0x7FFF);
        }
        for i in 0..6 {
            s.b[i] = clamp(w[7 + i], -0x8000, 0x7FFF);
        }
        for i in 0..2 {
            s.pk[i] = clamp(w[13 + i], 0, 1);
        }
        for i in 0..6 {
            s.dq[i] = clamp(w[15 + i], -0x8000, 0x7FFF);
        }
        for i in 0..2 {
            s.sr[i] = clamp(w[21 + i], -0x8000, 0x7FFF);
        }
        s.td = clamp(w[23], 0, 1);
        s
    }
}

impl Default for G726State {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the first table entry greater than `val` (log₂ search helper).
fn quan(val: i32, table: &[i32]) -> i32 {
    for (i, &entry) in table.iter().enumerate() {
        if val < entry {
            return i as i32;
        }
    }
    table.len() as i32
}

/// Multiplies a predictor coefficient by a float-format signal value.
fn fmult(an: i32, srn: i32) -> i32 {
    let anmag = if an > 0 { an } else { (-an) & 0x1FFF };
    let anexp = quan(anmag, &POWER2) - 6;
    let anmant = if anmag == 0 {
        32
    } else if anexp >= 0 {
        anmag >> anexp
    } else {
        anmag << -anexp
    };
    let wanexp = anexp + ((srn >> 6) & 0xF) - 13;
    let wanmant = (anmant * (srn & 0x3F) + 0x30) >> 4;
    let retval = if wanexp >= 0 {
        (wanmant << wanexp.min(30)) & 0x7FFF
    } else {
        wanmant >> (-wanexp).min(30)
    };
    if (an ^ srn) < 0 {
        -retval
    } else {
        retval
    }
}

/// Zero-predictor partial estimate (sezi).
fn predictor_zero(state: &G726State) -> i32 {
    (0..6).map(|i| fmult(state.b[i] >> 2, state.dq[i])).sum()
}

/// Pole-predictor partial estimate.
fn predictor_pole(state: &G726State) -> i32 {
    fmult(state.a[1] >> 2, state.sr[1]) + fmult(state.a[0] >> 2, state.sr[0])
}

/// Current quantizer step size (y).
fn step_size(state: &G726State) -> i32 {
    if state.ap >= 256 {
        return state.yu;
    }
    let y = state.yl >> 6;
    let dif = state.yu - y;
    let al = state.ap >> 2;
    if dif > 0 {
        y + ((dif * al) >> 6)
    } else if dif < 0 {
        y + ((dif * al + 0x3F) >> 6)
    } else {
        y
    }
}

/// Quantizes the prediction difference `d` under scale `y` to a 4-bit code.
fn quantize(d: i32, y: i32) -> i32 {
    let dqm = d.abs();
    let exp = quan(dqm >> 1, &POWER2);
    let mant = ((dqm << 7) >> exp.min(30)) & 0x7F;
    let dl = (exp << 7) + mant;
    let dln = dl - (y >> 2);
    let i = quan(dln, &QTAB_721);
    // Codes 1..7 are positive magnitudes, 8..14 the mirrored negatives,
    // 15 the "zero / tiny" code (hence the symmetric DQLNTAB/WITAB).
    if d < 0 {
        15 - i
    } else if i == 0 {
        15
    } else {
        i
    }
}

/// Reconstructs the quantized difference signal from a code.
fn reconstruct(sign: bool, dqln: i32, y: i32) -> i32 {
    let dql = dqln + (y >> 2);
    if dql < 0 {
        return if sign { -0x8000 } else { 0 };
    }
    let dex = (dql >> 7) & 15;
    let dqt = 128 + (dql & 127);
    let dq = (dqt << 7) >> (14 - dex);
    if sign {
        dq - 0x8000
    } else {
        dq
    }
}

/// Converts a magnitude to the 11-bit float format used for dq/sr history.
fn to_float(value: i32, negative: bool) -> i32 {
    let mag = value & 0x7FFF;
    if mag == 0 {
        return if negative { 0x20 - 0x400 } else { 0x20 };
    }
    let exp = quan(mag, &POWER2);
    let f = (exp << 6) + ((mag << 6) >> exp.min(30));
    if negative {
        f - 0x400
    } else {
        f
    }
}

/// State update common to encoder and decoder (the big `update()` of the
/// reference, specialised to the 4-bit / 32 kbit/s rate).
#[allow(clippy::too_many_arguments)]
fn update(state: &mut G726State, y: i32, wi: i32, fi: i32, dq: i32, sr: i32, dqsez: i32) {
    let pk0 = i32::from(dqsez < 0);
    let mag = dq & 0x7FFF;

    // Tone / transition detection.
    let ylint = state.yl >> 15;
    let ylfrac = (state.yl >> 10) & 0x1F;
    let thr1 = (32 + ylfrac) << ylint.min(20);
    let thr2 = if ylint > 9 { 31 << 10 } else { thr1 };
    let tr = i32::from(state.td == 1 && mag > ((thr2 >> 1) + (thr2 >> 3)));

    // Scale-factor adaptation.
    state.yu = (y + ((wi - y) >> 5)).clamp(544, 5120);
    state.yl += state.yu + ((-state.yl) >> 6);

    if tr == 1 {
        state.a = [0; 2];
        state.b = [0; 6];
    } else {
        // Pole predictor adaptation.
        let pks1 = pk0 ^ state.pk[0];
        let mut a2p = state.a[1] - (state.a[1] >> 7);
        if dqsez != 0 {
            let fa1 = if pks1 != 0 { state.a[0] } else { -state.a[0] };
            if fa1 < -8191 {
                a2p -= 0x100;
            } else if fa1 > 8191 {
                a2p += 0xFF;
            } else {
                a2p += fa1 >> 5;
            }
            if (pk0 ^ state.pk[1]) != 0 {
                if a2p <= -12160 {
                    a2p = -12288;
                } else if a2p >= 12416 {
                    a2p = 12288;
                } else {
                    a2p -= 0x80;
                }
            } else if a2p <= -12416 {
                a2p = -12288;
            } else if a2p >= 12160 {
                a2p = 12288;
            } else {
                a2p += 0x80;
            }
        }
        state.a[1] = a2p;
        state.a[0] -= state.a[0] >> 8;
        if dqsez != 0 {
            if pks1 == 0 {
                state.a[0] += 192;
            } else {
                state.a[0] -= 192;
            }
        }
        // The reference's if-chain, not `clamp`: a corrupted a[1] can
        // push a2p above 15360, crossing the bounds, which the reference
        // tolerates and `clamp` panics on.
        let a1ul = 15360 - a2p;
        if state.a[0] < -a1ul {
            state.a[0] = -a1ul;
        } else if state.a[0] > a1ul {
            state.a[0] = a1ul;
        }

        // Zero predictor adaptation.
        for i in 0..6 {
            state.b[i] -= state.b[i] >> 8;
            if mag != 0 {
                if (dq ^ state.dq[i]) >= 0 {
                    state.b[i] += 128;
                } else {
                    state.b[i] -= 128;
                }
            }
        }
    }

    // Shift difference-signal history (float format).
    for i in (1..6).rev() {
        state.dq[i] = state.dq[i - 1];
    }
    state.dq[0] = to_float(mag, dq < 0);

    // Reconstructed-signal history (float format).
    state.sr[1] = state.sr[0];
    state.sr[0] = if sr == 0 {
        0x20
    } else if sr > 0 {
        to_float(sr, false)
    } else if sr > -32768 {
        to_float(-sr, true)
    } else {
        0x20 - 0x400
    };

    state.pk[1] = state.pk[0];
    state.pk[0] = pk0;

    state.td = if tr == 1 {
        0
    } else {
        i32::from(state.a[1] < -11776)
    };

    // Adaptation-speed control. The branches mirror the reference's
    // separate conditions even where the action coincides.
    state.dms += (fi - state.dms) >> 5;
    state.dml += ((fi << 2) - state.dml) >> 7;
    #[allow(clippy::if_same_then_else)]
    if tr == 1 {
        state.ap = 256;
    } else if y < 1536 || state.td == 1 {
        state.ap += (0x200 - state.ap) >> 4;
    } else if ((state.dms << 2) - state.dml).abs() >= (state.dml >> 3) {
        state.ap += (0x200 - state.ap) >> 4;
    } else {
        state.ap += (-state.ap) >> 4;
    }
}

/// Encodes one 16-bit linear PCM sample into a 4-bit G.721 code.
#[must_use]
pub fn encode_sample(state: &mut G726State, sample: i16) -> u8 {
    let sl = i32::from(sample) >> 2; // 14-bit dynamic range
    let sezi = predictor_zero(state);
    let sez = sezi >> 1;
    let se = (sezi + predictor_pole(state)) >> 1;
    let d = sl - se;
    let y = step_size(state);
    let code = quantize(d, y);
    let dq = reconstruct(code & 8 != 0, DQLNTAB[code as usize], y);
    let sr = if dq < 0 { se - (dq & 0x3FFF) } else { se + dq };
    let dqsez = sr + sez - se;
    update(
        state,
        y,
        WITAB[code as usize] << 5,
        FITAB[code as usize],
        dq,
        sr,
        dqsez,
    );
    code as u8
}

/// Decodes one 4-bit G.721 code into a 16-bit linear PCM sample.
#[must_use]
pub fn decode_sample(state: &mut G726State, code: u8) -> i16 {
    let code = i32::from(code & 0x0F);
    let sezi = predictor_zero(state);
    let sez = sezi >> 1;
    let se = (sezi + predictor_pole(state)) >> 1;
    let y = step_size(state);
    let dq = reconstruct(code & 8 != 0, DQLNTAB[code as usize], y);
    let sr = if dq < 0 { se - (dq & 0x3FFF) } else { se + dq };
    let dqsez = sr - se + sez;
    update(
        state,
        y,
        WITAB[code as usize] << 5,
        FITAB[code as usize],
        dq,
        sr,
        dqsez,
    );
    (sr << 2).clamp(-32768, 32767) as i16
}

/// Encodes a PCM buffer to packed codes (two 4-bit codes per byte, low
/// nibble first).
#[must_use]
pub fn encode(samples: &[i16]) -> Vec<u8> {
    let mut state = G726State::new();
    samples
        .chunks(2)
        .map(|pair| {
            let lo = encode_sample(&mut state, pair[0]);
            let hi = pair.get(1).map_or(0, |&s| encode_sample(&mut state, s));
            lo | (hi << 4)
        })
        .collect()
}

/// Decodes packed codes back to `count` PCM samples.
#[must_use]
pub fn decode(codes: &[u8], count: usize) -> Vec<i16> {
    let mut state = G726State::new();
    let mut out = Vec::with_capacity(count);
    'outer: for &byte in codes {
        for nibble in [byte & 0x0F, byte >> 4] {
            out.push(decode_sample(&mut state, nibble));
            if out.len() == count {
                break 'outer;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adpcm::snr_db;
    use crate::input::speech_pcm;

    #[test]
    fn silence_stays_quiet() {
        let decoded = decode(&encode(&vec![0i16; 256]), 256);
        assert!(decoded.iter().all(|&s| s.abs() < 64), "{decoded:?}");
    }

    #[test]
    fn speech_roundtrip_snr() {
        let samples = speech_pcm(8000, 21);
        let decoded = decode(&encode(&samples), samples.len());
        let snr = snr_db(&samples, &decoded);
        // G.726-32 achieves well above 15 dB SNR on speech material.
        assert!(snr > 12.0, "SNR only {snr:.1} dB");
    }

    #[test]
    fn sine_roundtrip_snr() {
        let samples: Vec<i16> = (0..4000)
            .map(|i| {
                (8000.0 * (2.0 * std::f64::consts::PI * 440.0 * i as f64 / 8000.0).sin()) as i16
            })
            .collect();
        let decoded = decode(&encode(&samples), samples.len());
        let snr = snr_db(&samples, &decoded);
        assert!(snr > 10.0, "SNR only {snr:.1} dB");
    }

    #[test]
    fn encoder_decoder_predictors_stay_in_lockstep() {
        // Feeding the encoder's codes to a fresh decoder must reproduce the
        // encoder's internal reconstruction (sr), i.e. end with identical
        // state — the defining property of backward-adaptive ADPCM.
        let samples = speech_pcm(2000, 33);
        let mut enc = G726State::new();
        let mut dec = G726State::new();
        for &s in &samples {
            let code = encode_sample(&mut enc, s);
            let _ = decode_sample(&mut dec, code);
        }
        assert_eq!(enc, dec);
    }

    #[test]
    fn state_word_roundtrip() {
        let mut state = G726State::new();
        for &s in &speech_pcm(100, 3) {
            let _ = encode_sample(&mut state, s);
        }
        let restored = G726State::from_words(&state.to_words());
        assert_eq!(restored, state);
    }

    #[test]
    fn corrupted_state_words_are_clamped_sane() {
        let garbage = [0xDEAD_BEEFu32; G726State::WORDS];
        let state = G726State::from_words(&garbage);
        assert!((544..=5120).contains(&state.yu));
        assert!((0..=1).contains(&state.td));
        assert!((0..=1).contains(&state.pk[0]));
        // And the codec keeps working on it.
        let mut s = state;
        for &x in &speech_pcm(200, 4) {
            let _ = encode_sample(&mut s, x);
        }
    }

    #[test]
    fn corrupted_pole_coefficient_does_not_cross_the_a1_bounds() {
        // a[1] = 0x7FFF gives a2p > 15360 on the silent (dqsez == 0) path,
        // so a[0]'s limit 15360 − a2p is negative.
        let mut words = G726State::new().to_words();
        words[6] = 0x7FFF;
        let mut state = G726State::from_words(&words);
        for _ in 0..64 {
            let _ = encode_sample(&mut state, 0);
        }
        let mut state = G726State::from_words(&words);
        for _ in 0..64 {
            let _ = decode_sample(&mut state, 0);
        }
    }

    #[test]
    fn extreme_inputs_do_not_panic() {
        let samples: Vec<i16> = (0..512)
            .map(|i| if i % 3 == 0 { i16::MAX } else { i16::MIN })
            .collect();
        let decoded = decode(&encode(&samples), samples.len());
        assert_eq!(decoded.len(), samples.len());
    }

    #[test]
    fn all_codes_decode_without_panic() {
        let mut state = G726State::new();
        for code in 0..=255u8 {
            let _ = decode_sample(&mut state, code); // masks to 4 bits
        }
    }

    #[test]
    fn decoder_recovers_after_desync() {
        // Start the decoder with wrong (default) state mid-stream: the
        // backward-adaptive predictor must converge again — the property
        // the paper's rollback scheme relies on for bounded error impact.
        let samples = speech_pcm(6000, 55);
        let codes = encode(&samples);
        let full = decode(&codes, samples.len());
        // Decode only the second half with fresh state.
        let mut late = G726State::new();
        let mut tail = Vec::new();
        for &byte in &codes[1500..] {
            tail.push(decode_sample(&mut late, byte & 0x0F));
            tail.push(decode_sample(&mut late, byte >> 4));
        }
        // Compare the last quarter where both should have converged.
        let n = 1000;
        let a = &full[samples.len() - n..];
        let b = &tail[tail.len() - n..];
        let err: f64 = a
            .iter()
            .zip(b.iter())
            .map(|(&x, &y)| (f64::from(x) - f64::from(y)).abs())
            .sum::<f64>()
            / n as f64;
        assert!(err < 2000.0, "decoder failed to reconverge: avg err {err}");
    }
}
