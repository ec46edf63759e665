//! Fuzz of the scenario wire path. A campaign's timeline scenarios
//! arrive as bytes; their way in is `JsonValue::parse` →
//! `parse_scenarios`, and each step must answer with a value or a typed
//! error, never a panic. A scenario set that gets through must render
//! and parse back to itself. The inputs are a valid scenario array with
//! one or two numeric literals replaced by edge values (every single
//! replacement, then random pairs) and random bytes.

use chunkpoint_scenario::{parse_scenarios, JsonValue, ScenarioDef};
use proptest::prelude::*;

#[path = "support/literals.rs"]
mod literals;
use literals::{mutated, numeric_literals};

/// A valid scenario array reaching every numeric field of the format:
/// a burst, a rate shift, a scrub and a task switch, and expect blocks
/// with a boolean, an unsigned and a float comparand.
const SCENARIOS: &str = r#"[
 {"name":"storm","tags":["burst"],
  "timeline":[{"event":"fault_burst","cycle":2000,"words":32,"rate":0.5},
              {"event":"error_rate_shift","cycle":9000,"rate":0.00001},
              {"event":"scrub","period":20000}],
  "expect":[{"field":"restarts","op":"<=","value":40},
            {"field":"energy_pj","op":">=","value":1.5},
            {"field":"completed","op":"==","value":true}]},
 {"name":"switch","tags":[],
  "timeline":[{"event":"task_switch","cycle":0,"task":"G722 encode"},
              {"event":"fault_burst","cycle":100,"words":4294967295,"rate":1}],
  "expect":[{"field":"cycles","op":"==","value":12345}]}]"#;

/// What a replaced literal becomes: zero and signs, the bounds of the
/// format's ranges (rates in (0, 1] and [0, 1), 32-bit word counts,
/// cycle 0 for a task switch), the integer and float extremes, and
/// non-integers where integers go.
const EDGES: [&str; 20] = [
    "0",
    "-1",
    "-0",
    "1",
    "2",
    "0.5",
    "1.0",
    "4294967295",
    "4294967296",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "1e300",
    "1e-300",
    "5e-324",
    "1e999",
    "-1e300",
    "0.99999999999999999",
    "1.0000000000000002",
    "-0.0",
];

/// How far `doc` got along the wire path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reached {
    Unparsed,
    Parsed,
    Accepted,
}

/// The canonical bytes of a scenario set.
fn render(defs: &[ScenarioDef]) -> String {
    JsonValue::Array(defs.iter().map(ScenarioDef::to_json).collect()).render()
}

/// Runs `doc` along the wire path; a panic anywhere fails the test.
fn wire_path(doc: &str) -> Reached {
    let Ok(value) = JsonValue::parse(doc) else {
        return Reached::Unparsed;
    };
    let Ok(defs) = parse_scenarios(&value) else {
        return Reached::Parsed;
    };
    // Accepted scenarios render to bytes that parse back to them, and
    // those bytes are a fixed point.
    let rendered = render(&defs);
    let value = JsonValue::parse(&rendered).unwrap_or_else(|e| panic!("{e}: {rendered}"));
    let again = parse_scenarios(&value)
        .unwrap_or_else(|e| panic!("rendered scenarios refused: {e}: {doc}"));
    assert_eq!(again, defs, "{doc}");
    assert_eq!(render(&again), rendered, "{doc}");
    Reached::Accepted
}

#[test]
fn the_unmutated_scenarios_are_accepted() {
    assert_eq!(numeric_literals(SCENARIOS).len(), 13);
    assert_eq!(wire_path(SCENARIOS), Reached::Accepted);
}

/// Every single-literal replacement: a value or a typed error, and some
/// replacement stops at each step.
#[test]
fn every_single_edge_replacement_is_a_value_or_a_typed_error() {
    let mut reached = Vec::new();
    for index in 0..numeric_literals(SCENARIOS).len() {
        for edge in EDGES {
            reached.push(wire_path(&mutated(SCENARIOS, &[(index, edge)])));
        }
    }
    for stage in [Reached::Unparsed, Reached::Parsed, Reached::Accepted] {
        assert!(
            reached.contains(&stage),
            "no replacement stopped at {stage:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    /// Random pairs of replacements.
    #[test]
    fn edge_replacement_pairs_are_values_or_typed_errors(
        first in 0usize..numeric_literals(SCENARIOS).len(),
        second in 0usize..numeric_literals(SCENARIOS).len(),
        first_edge in 0usize..EDGES.len(),
        second_edge in 0usize..EDGES.len(),
    ) {
        wire_path(&mutated(SCENARIOS, &[(first, EDGES[first_edge]), (second, EDGES[second_edge])]));
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
        wire_path(&String::from_utf8_lossy(&raw));
        let json_like: String = picks.iter().map(|&i| char::from(JSON_BYTES[i])).collect();
        wire_path(&json_like);
    }
}
