//! Table and file output.
//!
//! Each regenerator prints an aligned table (the "same rows/series the
//! paper reports") and, when an output directory is configured, writes a
//! CSV plus a JSON dump for EXPERIMENTS.md.

use serde::Serialize;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use vod_telemetry::Telemetry;

/// A simple aligned-column table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A titled table with the given column names.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders as CSV (header + rows).
    fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Where experiment artifacts land, and the run's telemetry handle.
#[derive(Debug, Clone)]
pub struct Reporter {
    out_dir: Option<PathBuf>,
    telemetry: Telemetry,
}

impl Reporter {
    /// Print-only reporter.
    pub fn stdout_only() -> Self {
        Reporter {
            out_dir: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Reporter that also writes `results/<name>.csv` / `.json`.
    pub fn with_dir(dir: impl AsRef<Path>) -> io::Result<Self> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(Reporter {
            out_dir: Some(dir.as_ref().to_path_buf()),
            telemetry: Telemetry::disabled(),
        })
    }

    /// Attaches a telemetry handle; experiments route their engine
    /// instruments (`sim.*`, `anneal.*`) through it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The attached telemetry handle (disabled unless
    /// [`Reporter::with_telemetry`] was used).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Prints the table and persists it as `<name>.csv`.
    pub fn emit_table(&self, name: &str, table: &Table) -> io::Result<()> {
        println!("{}", table.render());
        if let Some(dir) = &self.out_dir {
            fs::write(dir.join(format!("{name}.csv")), table.to_csv())?;
        }
        Ok(())
    }

    /// Persists a serializable payload as `<name>.json`.
    pub fn emit_json<T: Serialize>(&self, name: &str, payload: &T) -> io::Result<()> {
        if let Some(dir) = &self.out_dir {
            let json = serde_json::to_string_pretty(payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            fs::write(dir.join(format!("{name}.json")), json)?;
        }
        Ok(())
    }
}

/// Formats a fraction as `12.34%`.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats a float with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["lambda", "rejection"]);
        t.row(vec!["4".into(), "0.00%".into()]);
        t.row(vec!["40".into(), "12.34%".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("lambda"));
        assert!(s.lines().count() >= 5);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,2\n");
    }

    #[test]
    fn reporter_writes_files() {
        let dir = std::env::temp_dir().join(format!("vod-report-test-{}", std::process::id()));
        let r = Reporter::with_dir(&dir).unwrap();
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into()]);
        r.emit_table("t1", &t).unwrap();
        r.emit_json("t1", &vec![1, 2, 3]).unwrap();
        assert!(dir.join("t1.csv").exists());
        assert!(dir.join("t1.json").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.1234), "12.34%");
        assert_eq!(f3(1.23456), "1.235");
    }
}
