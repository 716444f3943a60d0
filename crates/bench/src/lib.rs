//! # gg-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§IV).
//! The `repro` binary prints paper-style rows:
//!
//! ```text
//! cargo run --release -p gg-bench --bin repro -- all
//! cargo run --release -p gg-bench --bin repro -- fig5 --scale 0.5
//! ```
//!
//! Performance is measured by the `benchmark/` package at the repository
//! root, which drives this crate's [`serve`] and [`datasets`] modules.
//!
//! Graph sizes default to laptop-scale synthetic stand-ins for the paper's
//! data sets ([`datasets`]); `--scale` multiplies them. Timings are wall-clock medians over `--reps` runs.
//! Figures 2 and 8 are simulated, not timed: [`locality`] replays the
//! traversals over a borrowed monolithic store into `gg-memsim`.

pub mod datasets;
pub mod locality;
pub mod replay;
pub mod runner;
pub mod serve;

use std::time::Instant;

/// Times `f` once, returning seconds.
pub fn time_once<F: FnOnce()>(f: F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Runs `f` `reps` times and returns the median duration in seconds.
/// (The paper reports averages over 20 executions; the median is more
/// robust at the small rep counts used here.)
pub fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    assert!(reps > 0);
    let mut samples: Vec<f64> = (0..reps).map(|_| time_once(&mut f)).collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// A minimal fixed-width table printer for paper-style output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats seconds with 4 significant digits.
pub fn fmt_secs(s: f64) -> String {
    format!("{s:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_reps() {
        let mut calls = 0;
        let t = time_median(3, || {
            calls += 1;
        });
        assert_eq!(calls, 3);
        assert!(t >= 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2.5".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
