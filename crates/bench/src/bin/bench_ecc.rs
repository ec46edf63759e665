//! ECC and SRAM throughput, written to `BENCH_ecc.json` so successive
//! PRs have a comparable trajectory: words/second of every catalog
//! code's encode, clean decode and faulty decode, of the retained
//! bit-serial references beside the table-driven paths that replaced
//! them (each speedup paired round by round), of SRAM block and word
//! transfers, and of single-word accesses through a [`PlainBus`], the
//! path every simulated load and store takes (energy ledger, strike
//! sampling, ECC), with the fault process off and at λ = 1e-6.
//!
//! Run with `cargo run --release -p chunkpoint_bench --bin bench_ecc`
//! (`--smoke` for CI).

use std::hint::black_box;

use chunkpoint_bench::harness::{Bench, Round};
use chunkpoint_campaign::JsonValue;
use chunkpoint_core::MitigationScheme;
use chunkpoint_ecc::{build_scheme, BchCode, BitBuf, Decoded, EccKind, EccScheme, SecdedCode};
use chunkpoint_sim::{
    Component, FaultProcess, MemoryBus, PlainBus, Platform, Sram, UpsetModel, WordAddr,
};

/// Operations per table-driven figure.
const FAST_ITERS: u64 = 100_000;
/// Operations per bit-serial reference figure (slow by design).
const REF_ITERS: u64 = 8_000;
/// Words per SRAM block transfer.
const SRAM_WORDS: usize = 1024;
/// Block transfers per SRAM figure.
const SRAM_ROUNDS: u64 = 100;
/// Accesses per bus figure, stores and loads alternating.
const BUS_ACCESSES: u64 = 100_000;
/// Words of the array behind each bus figure.
const BUS_WORDS: WordAddr = 1024;
/// A bus figure ticks once per this many accesses.
const TICK_EVERY: u64 = 16;
/// Strike rates of the bus figures: the fault process off, and on.
const BUS_RATES: [f64; 2] = [0.0, 1e-6];

const KINDS: [EccKind; 9] = [
    EccKind::Parity,
    EccKind::InterleavedParity { ways: 6 },
    EccKind::Secded,
    EccKind::TwoDimParity,
    EccKind::InterleavedSecded { ways: 4 },
    EccKind::Bch { t: 4 },
    EccKind::Bch { t: 8 },
    EccKind::Bch { t: 12 },
    EccKind::Bch { t: 16 },
];

/// The data word of operation `i`.
fn word(i: u64) -> u32 {
    black_box(0x9E37_79B9u32.wrapping_mul(i as u32))
}

/// Records `iters` calls of `op` as a words/second figure.
fn words(round: &mut Round<'_>, name: &str, iters: u64, mut op: impl FnMut(u64)) {
    round.rate(name, iters as f64, || (0..iters).for_each(&mut op));
}

/// A catalog code, its test codewords, and its bit-serial reference.
struct Code {
    kind: EccKind,
    scheme: Box<dyn EccScheme>,
    clean: BitBuf,
    faulty: BitBuf,
    bch: Option<BchCode>,
}

impl Code {
    fn new(kind: EccKind) -> Self {
        let scheme = build_scheme(kind).expect("catalog kind builds");
        // Correcting codes decode a full-strength error pattern;
        // detect-only codes (parity) time the detection path on one flip.
        let flips = scheme.correctable_bits().max(1);
        let mut faulty = scheme.encode(0x1234_5678);
        let len = faulty.len();
        for e in 0..flips {
            faulty.flip((e * len / flips + e) % len);
        }
        Self {
            kind,
            clean: scheme.encode(0x1234_5678),
            faulty,
            bch: match kind {
                EccKind::Bch { t } => Some(BchCode::for_word(t as usize).expect("valid strength")),
                _ => None,
            },
            scheme,
        }
    }

    /// The operations that have a reference figure beside them.
    fn referenced(&self) -> &'static [&'static str] {
        match self.kind {
            EccKind::Bch { .. } => &["encode", "decode_clean", "decode_faulty"],
            EccKind::Secded => &["encode"],
            _ => &[],
        }
    }

    /// One round: each operation, then its reference, if any.
    fn time(&self, round: &mut Round<'_>, secded: &SecdedCode) {
        let name = |figure: &str| format!("{}.{figure}", self.kind);
        let (scheme, clean, faulty) = (&self.scheme, &self.clean, &self.faulty);
        words(round, &name("encode_wps"), FAST_ITERS, |i| {
            black_box(scheme.encode(word(i)));
        });
        match &self.bch {
            Some(bch) => words(round, &name("encode_ref_wps"), REF_ITERS, |i| {
                black_box(bch.encode_reference(word(i)));
            }),
            None if self.kind == EccKind::Secded => {
                words(round, &name("encode_ref_wps"), REF_ITERS, |i| {
                    black_box(secded.encode_reference(word(i)));
                });
            }
            None => {}
        }
        words(round, &name("decode_clean_wps"), FAST_ITERS, |_| {
            black_box(scheme.decode(black_box(clean)));
        });
        if let Some(bch) = &self.bch {
            words(round, &name("decode_clean_ref_wps"), REF_ITERS, |_| {
                black_box(bch.decode_reference(black_box(clean)));
            });
        }
        words(round, &name("decode_faulty_wps"), FAST_ITERS / 10, |_| {
            black_box(scheme.decode(black_box(faulty)));
        });
        if let Some(bch) = &self.bch {
            words(round, &name("decode_faulty_ref_wps"), REF_ITERS / 5, |_| {
                black_box(bch.decode_reference(black_box(faulty)));
            });
        }
    }
}

/// One round of block writes, block reads and word reads on `mem`.
fn time_sram(round: &mut Round<'_>, mem: &mut Sram, values: &[u32]) {
    let kind = mem.kind();
    let units = (SRAM_ROUNDS * SRAM_WORDS as u64) as f64;
    let mut sink = Vec::with_capacity(SRAM_WORDS);
    round.rate(&format!("sram.{kind}.write_block_wps"), units, || {
        (0..SRAM_ROUNDS).for_each(|i| mem.write_block(0, values, i));
    });
    round.rate(&format!("sram.{kind}.read_block_wps"), units, || {
        for i in 0..SRAM_ROUNDS {
            sink.clear();
            mem.read_block(0, SRAM_WORDS, SRAM_ROUNDS + i, &mut sink)
                .expect("fault-free read");
        }
    });
    round.rate(&format!("sram.{kind}.read_word_wps"), units, || {
        for i in 0..SRAM_ROUNDS {
            sink.clear();
            for addr in 0..SRAM_WORDS {
                match mem.read(addr, 2 * SRAM_ROUNDS + i) {
                    Decoded::Clean { data } | Decoded::Corrected { data, .. } => sink.push(data),
                    Decoded::DetectedUncorrectable => unreachable!("fault-free read"),
                }
            }
        }
    });
}

/// A bus over a `BUS_WORDS`-word array of `kind` at strike rate `rate`,
/// and the name of its figure.
fn bus(kind: EccKind, rate: f64) -> (String, PlainBus) {
    let faults = FaultProcess::new(rate, UpsetModel::smu_65nm(), 7);
    let sram = Sram::new("bench", BUS_WORDS as usize, kind, faults).expect("catalog kind builds");
    let name = if rate > 0.0 {
        format!("bus.{kind}.access_at_{rate:e}_wps")
    } else {
        format!("bus.{kind}.access_wps")
    };
    (
        name,
        PlainBus::new(sram, Platform::lh7a400(), Component::L1),
    )
}

/// One round of `BUS_ACCESSES` accesses on `bus`, stores and loads
/// alternating, a 4-cycle `tick` after every `TICK_EVERY`: each load
/// reads the word stored half the array earlier, so a loaded word has
/// been exposed for about a thousand cycles.
fn time_bus(round: &mut Round<'_>, name: &str, bus: &mut PlainBus) {
    round.rate(name, BUS_ACCESSES as f64, || {
        for i in 0..BUS_ACCESSES {
            let addr = (i / 2) as WordAddr % BUS_WORDS;
            if i % 2 == 0 {
                bus.store(addr, word(i));
            } else {
                let _ = black_box(bus.load((addr + BUS_WORDS / 2) % BUS_WORDS));
            }
            if i % TICK_EVERY == TICK_EVERY - 1 {
                bus.tick(4);
            }
        }
    });
}

fn main() {
    let bench = Bench::new("ecc", 1, 0);
    let codes: Vec<Code> = KINDS.into_iter().map(Code::new).collect();
    let secded = SecdedCode::new();
    let values: Vec<u32> = (0..SRAM_WORDS as u32)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    let mut srams: Vec<Sram> = [EccKind::Secded, EccKind::Bch { t: 8 }]
        .into_iter()
        .map(|kind| {
            Sram::new("bench", SRAM_WORDS, kind, FaultProcess::disabled())
                .expect("catalog kind builds")
        })
        .collect();
    let mut buses: Vec<(String, PlainBus)> = [EccKind::None, MitigationScheme::SwRestart.l1_kind()]
        .into_iter()
        .flat_map(|kind| BUS_RATES.map(|rate| bus(kind, rate)))
        .collect();

    let mut figures = bench.run(|round| {
        for code in &codes {
            code.time(round, &secded);
        }
        for mem in &mut srams {
            time_sram(round, mem, &values);
        }
        for (name, bus) in &mut buses {
            time_bus(round, name, bus);
        }
    });
    for code in &codes {
        for op in code.referenced() {
            let name = |figure: &str| format!("{}.{op}{figure}", code.kind);
            figures.ratio(&name("_speedup"), &name("_wps"), &name("_ref_wps"));
        }
    }

    let fields = JsonValue::object()
        .field("fast_iters", FAST_ITERS)
        .field("ref_iters", REF_ITERS)
        .field("bus_accesses", BUS_ACCESSES)
        .field(
            "note",
            "words/second per figure; *_ref_wps time the bit-serial references, and \
             *_speedup pairs each table-driven figure with its reference round by round; \
             bus.* time alternating PlainBus stores and loads with a tick every 16 \
             accesses, at strike rate 0 or the rate in the name",
        );
    bench.write(fields, &figures);
}
