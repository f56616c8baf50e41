//! Result tables: markdown rendering and CSV export.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// One experiment output table, mirroring a table or figure of the paper.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Which exhibit of the paper this regenerates (e.g. "Table 3").
    pub paper_ref: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (each row must match `headers.len()`).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table (paper values, caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, paper_ref: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            paper_ref: paper_ref.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub(crate) fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width mismatch in '{}'",
            self.title
        );
        self.rows.push(row);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as aligned GitHub-flavored markdown.
    pub fn render_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "### {} ({})", self.title, self.paper_ref);
        let fmt_row = |cells: &[String]| {
            let mut line = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(line, " {:<width$} |", c, width = widths[i]);
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        for n in &self.notes {
            let _ = writeln!(out, "> {n}");
        }
        out
    }

    /// Write as CSV (headers first; cells quoted when needed).
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut body = String::new();
        let esc = |cell: &str| {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let line = |cells: &[String]| cells.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",");
        body.push_str(&line(&self.headers));
        body.push('\n');
        for row in &self.rows {
            body.push_str(&line(row));
            body.push('\n');
        }
        fs::write(path, body)
    }

    /// File-system friendly name derived from the paper reference.
    pub fn slug(&self) -> String {
        self.paper_ref
            .to_ascii_lowercase()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect()
    }
}

/// Format a float with sensible precision for tables.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Format seconds (scientific for very small values).
pub(crate) fn fmt_secs(s: f64) -> String {
    if s == 0.0 {
        "0".into()
    } else if s < 0.0001 {
        format!("{:.1}us", s * 1e6)
    } else if s < 0.1 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{s:.4}s")
    }
}

/// Format a byte count.
pub(crate) fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 30 {
        format!("{:.2}G", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1}M", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}K", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Effect of k", "Figure 6", &["k", "time"]);
        t.push_row(vec!["5".into(), "0.1".into()]);
        t.push_row(vec!["10".into(), "0.25".into()]);
        t.note("paper: static slowest");
        t
    }

    #[test]
    fn markdown_contains_all_cells() {
        let md = sample().render_markdown();
        assert!(md.contains("### Effect of k (Figure 6)"));
        assert!(md.contains("| k "));
        assert!(md.contains("0.25"));
        assert!(md.contains("> paper: static slowest"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_enforced() {
        let mut t = Table::new("t", "x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn csv_round_trip_quoting() {
        let dir = std::env::temp_dir().join("rkranks-eval-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut t = Table::new("t", "Table 9", &["a", "b"]);
        t.push_row(vec!["x,y".into(), "he said \"hi\"".into()]);
        let p = dir.join("t.csv");
        t.write_csv(&p).unwrap();
        let body = std::fs::read_to_string(&p).unwrap();
        assert!(body.contains("\"x,y\""));
        assert!(body.contains("\"he said \"\"hi\"\"\""));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn slug_is_safe() {
        assert_eq!(sample().slug(), "figure_6");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1234.5), "1234"); // round-half-to-even
        assert_eq!(fmt_f64(12.34), "12.3");
        assert_eq!(fmt_f64(1.2345), "1.234");
        assert_eq!(fmt_secs(0.5), "0.5000s");
        assert!(fmt_secs(0.00005).ends_with("us"));
        assert!(fmt_secs(0.005).ends_with("ms"));
        assert_eq!(fmt_bytes(512), "512B");
        assert!(fmt_bytes(2048).ends_with('K'));
        assert!(fmt_bytes(3 << 20).ends_with('M'));
    }
}
