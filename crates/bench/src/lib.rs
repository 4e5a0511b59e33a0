//! # taureau-bench
//!
//! The benchmark harness for the *Le Taureau* reproduction. Two halves:
//!
//! - the **`experiments` binary** (`cargo run -p taureau-bench --release
//!   --bin experiments -- <id>|all`), which regenerates the per-claim
//!   tables E1–E12 catalogued in `DESIGN.md` §5 and recorded in
//!   `EXPERIMENTS.md`;
//! - the **Criterion benches** (`cargo bench -p taureau-bench`), which
//!   measure the real throughput/latency of the in-process systems
//!   (sketches, Jiffy, Pulsar, orchestration, the analytics kernels) and
//!   the two ablations E13 (ledger replication) and E14 (block size).
//!
//! This library holds the table-formatting helpers both halves share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A minimal fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:<w$} |"));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a `Duration` compactly for tables.
pub fn fmt_dur(d: std::time::Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// Format dollars compactly for tables.
pub fn fmt_usd(v: f64) -> String {
    if v >= 0.01 {
        format!("${v:.3}")
    } else {
        format!("${v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.row(["short", "1"]);
        t.row(["a-much-longer-name", "23456"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].contains("name"));
        assert!(lines[2].contains("short"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn duration_formatting() {
        use std::time::Duration;
        assert_eq!(fmt_dur(Duration::from_micros(500)), "500us");
        assert_eq!(fmt_dur(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_dur(Duration::from_secs(3)), "3.00s");
    }

    #[test]
    fn usd_formatting() {
        assert_eq!(fmt_usd(1.5), "$1.500");
        assert_eq!(fmt_usd(0.0000012), "$0.000001");
    }
}
