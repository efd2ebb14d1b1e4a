//! The figure/table harnesses of the reproduction and their shared utilities.
//!
//! Every function in [`figures`] regenerates one figure or table of the
//! paper (`reproduce --only <name>` runs one, `reproduce` all) by building
//! the corresponding workloads from the `polybench` crate, scheduling them
//! with daisy and the baselines, and returning the same rows/series the
//! paper reports as [`Table`]s of typed [`Cell`]s; formatting happens only
//! when a table is displayed. Absolute numbers come from the analytical
//! machine model, so only the *shape* (ratios, ordering, crossovers) is
//! comparable with the paper.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;

use std::fmt;

use daisy::{DaisyConfig, DaisyScheduler};
use loop_ir::program::Program;
use machine::{CostModel, MachineConfig};
use polybench::{all_benchmarks, Dataset};

/// Number of threads used for the multi-threaded comparisons (the paper's
/// machine has 12 cores).
pub const THREADS: usize = 12;

/// Geometric mean of a sequence of positive values.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// One table cell: the value a figure computed, formatted only on display.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Text printed as is: a row label, or `-` for a value not measured.
    Text(String),
    /// An exact count.
    Count(u64),
    /// A quantity (seconds, milliseconds, GFLOP/s, Macc/s) printed with the
    /// given number of decimals.
    Fixed(f64, usize),
    /// A runtime relative to a baseline runtime, printed as
    /// `value / baseline` with two decimals; `X` marks a configuration that
    /// does not apply (no value) or a baseline that is not positive.
    Ratio(Option<f64>, f64),
    /// A percentage printed with the given number of decimals and a `%`.
    Percent(f64, usize),
}

impl Cell {
    /// The number this cell holds — for a ratio, its value before the
    /// division by the baseline; `None` for text and missing ratios.
    pub fn value(&self) -> Option<f64> {
        match *self {
            Cell::Text(_) => None,
            Cell::Count(n) => Some(n as f64),
            Cell::Fixed(v, _) | Cell::Percent(v, _) => Some(v),
            Cell::Ratio(v, _) => v,
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(text) => f.write_str(text),
            Cell::Count(n) => write!(f, "{n}"),
            Cell::Fixed(v, decimals) => write!(f, "{v:.decimals$}"),
            Cell::Ratio(Some(v), baseline) if *baseline > 0.0 => write!(f, "{:.2}", v / baseline),
            Cell::Ratio(..) => f.write_str("X"),
            Cell::Percent(v, decimals) => write!(f, "{v:.decimals$}%"),
        }
    }
}

/// One table of a figure: title, column headers, rows of [`Cell`]s (one per
/// header) and the note lines printed under it.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The title, printed as `=== title ===`.
    pub title: String,
    /// The column headers.
    pub headers: Vec<&'static str>,
    /// The rows, each with one cell per header.
    pub rows: Vec<Vec<Cell>>,
    /// Lines printed after the table, separated from it by a blank line.
    pub notes: Vec<String>,
}

impl Table {
    /// An empty table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&'static str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.to_vec(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// The cells of the column with the given header, top to bottom; panics
    /// when the table has no such column.
    pub fn column(&self, header: &str) -> impl Iterator<Item = &Cell> + '_ {
        let index = self
            .headers
            .iter()
            .position(|h| *h == header)
            .unwrap_or_else(|| panic!("table {:?} has no column {header:?}", self.title));
        self.rows.iter().map(move |row| &row[index])
    }

    /// The [`Cell::value`]s of a column; panics when the table has no such
    /// column or one of its cells holds no number.
    pub fn values(&self, header: &str) -> Vec<f64> {
        self.column(header)
            .map(|cell| cell.value().expect("a numeric cell"))
            .collect()
    }
}

/// A blank line, the `=== title ===` header, the header row and one line
/// per row — each cell right-aligned to its column's widest cell, cells
/// joined by two spaces — then, after another blank line, the notes.
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n=== {} ===", self.title)?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::to_string).collect())
            .collect();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            debug_assert_eq!(
                row.len(),
                widths.len(),
                "{}: one cell per header",
                self.title
            );
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let headers = self.headers.iter().map(|h| h.to_string()).collect();
        for row in std::iter::once(&headers).chain(&rows) {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(cell, width)| format!("{cell:>width$}"))
                .collect();
            writeln!(f, "{}", cells.join("  "))?;
        }
        if !self.notes.is_empty() {
            writeln!(f)?;
        }
        self.notes.iter().try_for_each(|note| writeln!(f, "{note}"))
    }
}

/// Builds a daisy scheduler whose database is seeded from the (normalized)
/// A variants of all 15 benchmarks, the setup of §4.1.
pub fn daisy_seeded_from_a_variants(dataset: Dataset, config: DaisyConfig) -> DaisyScheduler {
    let mut scheduler = DaisyScheduler::new(config);
    let a_variants: Vec<Program> = all_benchmarks().iter().map(|b| (b.a)(dataset)).collect();
    scheduler.seed_from_programs(&a_variants);
    scheduler
}

/// The multi-threaded cost model used by the figure harnesses.
pub fn paper_machine_model(threads: usize) -> CostModel {
    CostModel::new(MachineConfig::xeon_e5_2680v3(), threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(Cell::Ratio(Some(2.0), 1.0).to_string(), "2.00");
        assert_eq!(Cell::Ratio(None, 1.0).to_string(), "X");
        assert_eq!(Cell::Ratio(Some(1.0), 0.0).to_string(), "X");
        assert_eq!(Cell::Ratio(Some(3.0), 2.0).value(), Some(3.0));
    }

    #[test]
    fn seeded_scheduler_has_database_entries() {
        let scheduler = daisy_seeded_from_a_variants(Dataset::Mini, DaisyConfig::default());
        assert!(!scheduler.database().is_empty());
    }

    #[test]
    fn table_renderer_right_aligns_to_the_widest_cell() {
        let mut table = Table::new("test", &["a", "bb", "c"]);
        table.rows = vec![
            vec![Cell::Count(1), Cell::Fixed(2.0, 1), Cell::Text("x".into())],
            vec![
                Cell::Count(333),
                Cell::Percent(4.25, 2),
                Cell::Ratio(None, 1.0),
            ],
        ];
        table.notes = vec!["note".into()];
        let expected = concat!(
            "\n",
            "=== test ===\n",
            "  a     bb  c\n",
            "  1    2.0  x\n",
            "333  4.25%  X\n",
            "\n",
            "note\n",
        );
        assert_eq!(table.to_string(), expected);
        assert_eq!(table.values("a"), [1.0, 333.0]);
    }
}
