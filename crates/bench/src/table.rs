//! Result tables: aligned console printing + CSV output.

use std::path::Path;

/// A labelled table of experiment results.
#[derive(Debug, Clone)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn push_row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render as an aligned console table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// The CSV text: comma-separated, quoted only when needed, one line
    /// per row after the header.
    pub fn to_csv(&self) -> String {
        let quote = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        for line in std::iter::once(&self.headers).chain(&self.rows) {
            out.push_str(&line.iter().map(quote).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Write [`Table::to_csv`] to `path`, creating its directory.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

/// Format a virtual-nanosecond duration as seconds with 3 decimals.
pub fn vsecs(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e9)
}

/// Format a float with 4 decimals.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Format a float with 1 decimal (percentages).
pub fn pct(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["p", "time"]);
        t.push_row(vec!["8".into(), "1.5".into()]);
        t.push_row(vec!["128".into(), "0.25".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("  p"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn csv_quotes_only_when_needed() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["with,comma".into(), "say \"hi\"".into()]);
        t.push_row(vec!["plain".into(), "1.5".into()]);
        let csv = "a,b\n\"with,comma\",\"say \"\"hi\"\"\"\nplain,1.5\n";
        assert_eq!(t.to_csv(), csv);
    }

    #[test]
    fn formatters() {
        assert_eq!(vsecs(1_500_000_000), "1.500");
        assert_eq!(f4(0.123456), "0.1235");
        assert_eq!(pct(12.34), "12.3");
    }
}
