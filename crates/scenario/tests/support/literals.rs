//! Numeric-literal edits of a JSON document, for the wire-path fuzz
//! suites. Included by path (`#[path = …] mod literals;`) from each
//! suite; Cargo builds nothing under `tests/support/` as a test target
//! of its own.

use std::ops::Range;

/// Byte ranges of the numeric literals of `doc`, outside strings.
pub fn numeric_literals(doc: &str) -> Vec<Range<usize>> {
    let bytes = doc.as_bytes();
    let mut literals = Vec::new();
    let (mut i, mut in_string) = (0, false);
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            match b {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
            i += 1;
        } else if b == b'"' {
            in_string = true;
            i += 1;
        } else if b == b'-' || b.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && matches!(bytes[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                i += 1;
            }
            literals.push(start..i);
        } else {
            i += 1;
        }
    }
    literals
}

/// `doc` with each `(literal index, edge)` replacement applied.
pub fn mutated(doc: &str, replacements: &[(usize, &str)]) -> String {
    let literals = numeric_literals(doc);
    let mut ordered: Vec<(Range<usize>, &str)> = replacements
        .iter()
        .map(|&(index, edge)| (literals[index].clone(), edge))
        .collect();
    // Splice from the back so earlier ranges stay valid; a literal
    // chosen twice keeps its first replacement.
    ordered.sort_by_key(|(range, _)| std::cmp::Reverse(range.start));
    ordered.dedup_by_key(|(range, _)| range.start);
    let mut doc = doc.to_owned();
    for (range, edge) in ordered {
        doc.replace_range(range, edge);
    }
    doc
}
