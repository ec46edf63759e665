//! Fuzz of the spec wire path. A campaign spec arrives as bytes; its
//! way in is `JsonValue::parse` → `CampaignSpec::from_json` →
//! `CampaignSpec::try_scenarios`, and each step must answer with a value
//! or a typed error, never a panic. A spec that gets through then runs
//! one scenario a replacement changed, so a value the spec checks let
//! through but the simulator asserts against fails here too. The inputs
//! are a valid spec with one or two numeric literals replaced by edge
//! values (every single replacement, then random pairs) and random bytes.

use std::collections::HashSet;
use std::sync::OnceLock;

use chunkpoint_campaign::{run_campaign, CampaignSpec, JsonValue, Scenario};
use proptest::prelude::*;

#[path = "../../scenario/tests/support/literals.rs"]
mod literals;
use literals::{mutated, numeric_literals};

/// A valid spec reaching every numeric field of the wire format: seven
/// schemes (both optimizer-resolved kinds among them), a rate and a chunk
/// axis, a burst and a scrub scenario with expect blocks, and a range.
const SPEC: &str = r#"{"version":1,"campaign_seed":7,
 "base":{"scale":0.05,"error_rate":0.000001,"seed":3,"area_overhead":0.05,"cycle_overhead":0.1},
 "benchmarks":["ADPCM encode","G722 decode"],
 "schemes":[
  {"label":"SW","spec":{"kind":"fixed","scheme":{"kind":"sw-restart"}}},
  {"label":"HW","spec":{"kind":"fixed","scheme":{"kind":"hw-ecc","t":8}}},
  {"label":"Hybrid","spec":{"kind":"fixed","scheme":{"kind":"hybrid","chunk_words":16,"l1_prime_t":8}}},
  {"label":"Single","spec":{"kind":"fixed","scheme":{"kind":"hybrid-single-parity","chunk_words":32,"l1_prime_t":4}}},
  {"label":"Scrubbed","spec":{"kind":"fixed","scheme":{"kind":"scrubbed-secded","interval_cycles":5000}}},
  {"label":"Optimal","spec":{"kind":"optimal"}},
  {"label":"Suboptimal","spec":{"kind":"suboptimal"}}],
 "error_rates":[0.000001,0.0001],"chunk_words":[8,64],"replicates":2,
 "normalize":true,"golden_check":true,
 "scenarios":[
  {"name":"burst","tags":["burst"],
   "timeline":[{"event":"fault_burst","cycle":2000,"words":32,"rate":0.5},
               {"event":"error_rate_shift","cycle":9000,"rate":0.00001}],
   "expect":[{"field":"restarts","op":"<=","value":40},
             {"field":"energy_pj","op":">=","value":1.5}]},
  {"name":"scrub","tags":[],"timeline":[{"event":"scrub","period":20000}],
   "expect":[{"field":"completed","op":"==","value":true}]}],
 "scenario_range":[3,90]}"#;

/// What a replaced literal becomes: zero and signs, the integer and
/// float extremes, values just past the simulator's bounds (scale 4,
/// BCH strength 18, 512-word chunks, and rate 1, which
/// 0.99999999999999999 rounds to) and non-integers where integers go.
const EDGES: [&str; 18] = [
    "0",
    "-1",
    "-0",
    "1",
    "2",
    "0.5",
    "19",
    "513",
    "4.0000001",
    "4294967296",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "1e300",
    "1e-300",
    "1e999",
    "-1e300",
    "0.99999999999999999",
];

/// How far `doc` got along the wire path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reached {
    Unparsed,
    Parsed,
    Spec,
    Grid,
}

/// The cells of `grid`: what a run of each scenario is built from, its
/// replicate and seed aside.
fn cells(spec: &CampaignSpec, grid: &[Scenario]) -> Vec<String> {
    let base = spec.to_json().get("base").map(JsonValue::render);
    grid.iter()
        .map(|s| {
            let def = s
                .scenario
                .as_deref()
                .and_then(|name| spec.scenario_def(name));
            let def = def.map(|def| def.to_json().render());
            format!(
                "{base:?} {} {:?} {:e} {def:?}",
                s.benchmark, s.scheme, s.error_rate
            )
        })
        .collect()
}

/// The cells of the unmutated spec's grid.
fn unmutated_cells() -> &'static HashSet<String> {
    static CELLS: OnceLock<HashSet<String>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let spec = CampaignSpec::from_json(&JsonValue::parse(SPEC).unwrap()).unwrap();
        cells(&spec, &spec.try_scenarios().unwrap())
            .into_iter()
            .collect()
    })
}

/// Runs `doc` along the wire path; a panic anywhere fails the test.
fn wire_path(doc: &str) -> Reached {
    let Ok(value) = JsonValue::parse(doc) else {
        return Reached::Unparsed;
    };
    let Ok(spec) = CampaignSpec::from_json(&value) else {
        return Reached::Parsed;
    };
    // A spec that parses renders to bytes that parse back to it.
    let rendered = spec.to_json().render();
    let again = CampaignSpec::from_json(&JsonValue::parse(&rendered).unwrap())
        .unwrap_or_else(|e| panic!("rendered spec refused: {e}: {doc}"));
    assert_eq!(again.to_json().render(), rendered, "{doc}");
    let Ok(grid) = spec.try_scenarios() else {
        return Reached::Spec;
    };
    // Run the first scenario of a cell the replacements made, or else
    // the first of the spec's range.
    let changed = cells(&spec, &grid)
        .iter()
        .position(|cell| !unmutated_cells().contains(cell));
    let first = changed.unwrap_or(spec.active_range(grid.len()).start);
    if first < grid.len() {
        let one = spec.scenario_range(first, first + 1);
        assert_eq!(run_campaign(&one, 1).results.len(), 1, "{doc}");
    }
    Reached::Grid
}

#[test]
fn the_unmutated_spec_reaches_its_grid() {
    assert_eq!(numeric_literals(SPEC).len(), 28);
    assert_eq!(wire_path(SPEC), Reached::Grid);
}

/// Every single-literal replacement: a value or a typed error at each
/// step, and some replacement stops at each step.
#[test]
fn every_single_edge_replacement_is_a_value_or_a_typed_error() {
    let mut reached = Vec::new();
    for index in 0..numeric_literals(SPEC).len() {
        for edge in EDGES {
            reached.push(wire_path(&mutated(SPEC, &[(index, edge)])));
        }
    }
    for stage in [
        Reached::Unparsed,
        Reached::Parsed,
        Reached::Spec,
        Reached::Grid,
    ] {
        assert!(
            reached.contains(&stage),
            "no replacement stopped at {stage:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Random pairs of replacements.
    #[test]
    fn edge_replacement_pairs_are_values_or_typed_errors(
        first in 0usize..numeric_literals(SPEC).len(),
        second in 0usize..numeric_literals(SPEC).len(),
        first_edge in 0usize..EDGES.len(),
        second_edge in 0usize..EDGES.len(),
    ) {
        wire_path(&mutated(SPEC, &[(first, EDGES[first_edge]), (second, EDGES[second_edge])]));
    }
}

/// Bytes JSON is made of, so random documents get past the first byte.
const JSON_BYTES: &[u8] = b"{}[]\":,.-+eE0123456789truefalsnl \\u\n";

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, .. ProptestConfig::default() })]

    /// Random bytes, raw and drawn from JSON's alphabet, parse to a value
    /// or a typed error.
    #[test]
    fn random_bytes_parse_to_a_value_or_a_typed_error(
        raw in proptest::collection::vec(any::<u8>(), 0..256),
        picks in proptest::collection::vec(0usize..JSON_BYTES.len(), 0..256),
    ) {
        let _ = JsonValue::parse(&String::from_utf8_lossy(&raw));
        let json_like: String = picks.iter().map(|&i| char::from(JSON_BYTES[i])).collect();
        wire_path(&json_like);
    }
}
