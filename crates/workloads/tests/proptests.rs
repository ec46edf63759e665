//! Property-based tests of the codec substrates under arbitrary inputs.

use proptest::prelude::*;

use chunkpoint_workloads::{adpcm, g726, jpeg, pack_bytes, pack_i16, unpack_bytes, unpack_i16};

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn i16_packing_roundtrip(samples in proptest::collection::vec(any::<i16>(), 0..200)) {
        let words = pack_i16(&samples);
        prop_assert_eq!(unpack_i16(&words, samples.len()), samples);
    }

    #[test]
    fn byte_packing_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let words = pack_bytes(&bytes);
        prop_assert_eq!(unpack_bytes(&words, bytes.len()), bytes);
    }

    /// ADPCM decode of encode never panics and yields the right length,
    /// for arbitrary (even adversarial) PCM.
    #[test]
    fn adpcm_total_on_arbitrary_input(
        samples in proptest::collection::vec(any::<i16>(), 1..600),
    ) {
        let codes = adpcm::encode(&samples);
        prop_assert_eq!(codes.len(), samples.len().div_ceil(2));
        let decoded = adpcm::decode(&codes, samples.len());
        prop_assert_eq!(decoded.len(), samples.len());
    }

    /// IMA ADPCM tracks smooth band-limited signals with bounded error.
    #[test]
    fn adpcm_tracks_smooth_signals(
        freq in 50.0f64..1500.0,
        amplitude in 1000.0f64..20000.0,
        phase in 0.0f64..6.2,
    ) {
        let samples: Vec<i16> = (0..2000)
            .map(|i| {
                (amplitude
                    * (2.0 * std::f64::consts::PI * freq * i as f64 / 8000.0 + phase)
                        .sin()) as i16
            })
            .collect();
        let decoded = adpcm::decode(&adpcm::encode(&samples), samples.len());
        let snr = adpcm::snr_db(&samples, &decoded);
        prop_assert!(snr > 8.0, "SNR {snr:.1} dB at {freq:.0} Hz");
    }

    /// G.726 decode of arbitrary code bytes never panics; encoder and
    /// decoder predictor state stays in lockstep for arbitrary input.
    #[test]
    fn g726_lockstep_on_arbitrary_input(
        samples in proptest::collection::vec(any::<i16>(), 1..400),
    ) {
        let mut enc = g726::G726State::new();
        let mut dec = g726::G726State::new();
        for &s in &samples {
            let code = g726::encode_sample(&mut enc, s);
            let _ = g726::decode_sample(&mut dec, code);
        }
        prop_assert_eq!(enc, dec);
    }

    /// G.726 state survives serialisation through memory words.
    #[test]
    fn g726_state_word_roundtrip(
        samples in proptest::collection::vec(any::<i16>(), 1..200),
    ) {
        let mut state = g726::G726State::new();
        for &s in &samples {
            let _ = g726::encode_sample(&mut state, s);
        }
        prop_assert_eq!(g726::G726State::from_words(&state.to_words()), state);
    }

    /// JPEG encode/decode round-trips arbitrary images with bounded loss
    /// at high quality.
    #[test]
    fn jpeg_roundtrip_quality(seed in any::<u64>(), quality in 70u8..=95) {
        let img = chunkpoint_workloads::test_image(24, 16, seed);
        let bytes = jpeg::encode(&img, 24, 16, quality);
        let decoded = jpeg::decode(&bytes).expect("own encoder output parses");
        prop_assert_eq!(decoded.width, 24);
        prop_assert_eq!(decoded.height, 16);
        let psnr = jpeg::psnr_db(&img, &decoded.pixels);
        prop_assert!(psnr > 24.0, "PSNR {psnr:.1} dB at q{quality}");
    }

    /// The JPEG decoder never panics on arbitrarily mutated streams — the
    /// robustness the Default-baseline simulation depends on.
    #[test]
    fn jpeg_decoder_is_total_under_mutation(
        seed in any::<u64>(),
        mutations in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..8),
    ) {
        let img = chunkpoint_workloads::test_image(16, 16, seed);
        let mut bytes = jpeg::encode(&img, 16, 16, 75);
        for &(pos, xor) in &mutations {
            let idx = pos as usize % bytes.len();
            bytes[idx] ^= xor;
        }
        let _ = jpeg::decode(&bytes); // Ok or Err; never panic.
    }
}
