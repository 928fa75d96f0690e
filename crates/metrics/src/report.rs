//! Plain-text report tables for the experiment runners.
//!
//! The benchmark binaries print the same rows/series the paper reports
//! (throughput per configuration, DMR per configuration, paper-vs-measured
//! comparisons). [`Table`] renders aligned, pipe-separated tables that read
//! well both in a terminal and when pasted into `EXPERIMENTS.md`.

use std::fmt;

/// A simple aligned text table.
///
/// ```
/// use daris_metrics::report::Table;
/// let mut t = Table::new("Table I: batching performance");
/// t.set_headers(["DNN", "min JPS", "max JPS", "gain"]);
/// t.add_row(["ResNet18", "627", "1025", "1.63x"]);
/// let text = t.to_string();
/// assert!(text.contains("ResNet18"));
/// assert!(text.lines().count() >= 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title.
    pub fn new(title: impl Into<String>) -> Self {
        Table { title: title.into(), headers: Vec::new(), rows: Vec::new() }
    }

    /// Sets the header row.
    pub fn set_headers<I, S>(&mut self, headers: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.headers = headers.into_iter().map(Into::into).collect();
    }

    /// Appends a data row.
    pub fn add_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(row.into_iter().map(Into::into).collect());
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    fn column_widths(&self) -> Vec<usize> {
        let columns = self.headers.len().max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.column_widths();
        writeln!(f, "## {}", self.title)?;
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, width) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                write!(f, " {cell:width$} |", width = width)?;
            }
            writeln!(f)
        };
        if !self.headers.is_empty() {
            write_row(f, &self.headers)?;
            write!(f, "|")?;
            for width in &widths {
                write!(f, "{}|", "-".repeat(width + 2))?;
            }
            writeln!(f)?;
        }
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a number with a fixed number of decimals, trimming `-0.0`.
pub fn fmt_num(value: f64, decimals: usize) -> String {
    let v = if value == 0.0 { 0.0 } else { value };
    format!("{v:.decimals$}")
}

/// Formats a ratio as a percentage with one decimal, e.g. `0.025` → `"2.5%"`.
pub fn fmt_pct(ratio: f64) -> String {
    format!("{:.1}%", ratio * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("demo");
        t.set_headers(["config", "JPS", "DMR"]);
        t.add_row(["6x1 OS6", "1158", "2.0%"]);
        t.add_row(["1x2", "401", "0.0%"]);
        let text = t.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("## demo"));
        assert_eq!(lines[1].matches('|').count(), 4);
        // All table body lines have equal length (aligned).
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines[3].len(), lines[4].len());
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.title(), "demo");
    }

    #[test]
    fn rows_with_fewer_cells_are_padded() {
        let mut t = Table::new("pad");
        t.set_headers(["a", "b", "c"]);
        t.add_row(["only-one"]);
        let text = t.to_string();
        assert!(text.lines().last().unwrap().matches('|').count() == 4);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fmt_num(3.456, 2), "3.46");
        assert_eq!(fmt_num(-0.0, 1), "0.0");
        assert_eq!(fmt_pct(0.025), "2.5%");
        assert_eq!(fmt_pct(0.0), "0.0%");
    }

    #[test]
    fn table_without_headers_still_renders() {
        let mut t = Table::new("no headers");
        t.add_row(["x", "y"]);
        let text = t.to_string();
        assert!(text.contains("| x | y |"));
    }
}
