//! Shared table rendering for the experiment binaries.
//!
//! A [`Table`] has a left-aligned label column and N right-aligned data
//! columns of uniform width, separated by `" | "`; the rule under the
//! header is derived from the same widths, so label, columns and rule
//! cannot drift apart.

/// A fixed-geometry console table.
#[derive(Debug, Clone, Copy)]
pub struct Table {
    label_width: usize,
    col_width: usize,
}

/// The geometry most paper tables use (24-char labels, 12-char cells).
pub const PAPER: Table = Table::new(24, 12);

impl Table {
    /// A table with `label_width` label chars and `col_width`-char cells.
    #[must_use]
    pub const fn new(label_width: usize, col_width: usize) -> Self {
        Self {
            label_width,
            col_width,
        }
    }

    /// Prints one row: left-aligned label, right-aligned cells.
    pub fn row(&self, label: &str, cells: &[String]) {
        print!("{label:<width$}", width = self.label_width);
        for cell in cells {
            print!(" | {cell:>width$}", width = self.col_width);
        }
        println!();
    }

    /// Prints a horizontal rule sized for `columns` data columns.
    pub fn rule(&self, columns: usize) {
        println!(
            "{}",
            "-".repeat(self.label_width + columns * (self.col_width + 3))
        );
    }

    /// Prints a header row followed by its rule.
    pub fn header(&self, label: &str, columns: &[String]) {
        self.row(label, columns);
        self.rule(columns.len());
    }
}

/// Formats a float cell with 3 decimals (the experiment tables' default).
#[must_use]
pub fn cell(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_width_matches_row_width() {
        // A row is label + per-cell " | " + cell; the rule must span it.
        let t = Table::new(10, 5);
        let row_len = 10 + 3 * (5 + 3);
        let rule_len = t.label_width + 3 * (t.col_width + 3);
        assert_eq!(row_len, rule_len);
    }

    #[test]
    fn cell_formats_three_decimals() {
        assert_eq!(cell(1.23456), "1.235");
        assert_eq!(cell(2.0), "2.000");
    }
}
