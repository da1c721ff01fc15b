//! Plain-text experiment reports.
//!
//! Query outcomes print their per-operator tables through this module so
//! every report has the same, easily diffable layout: a title, a header row
//! and aligned data rows.

use std::fmt::Write as _;
use vmq_query::StageMetrics;

/// A simple text report: a titled table with aligned columns.
#[derive(Debug, Clone)]
pub struct Report {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: &str) -> Self {
        Report { title: title.to_string(), header: Vec::new(), rows: Vec::new() }
    }

    /// Sets the column headers.
    pub fn header(mut self, columns: &[&str]) -> Self {
        self.header = columns.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Adds a data row.
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the report has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Builds a per-operator table from the execution pipeline's unified
    /// [`StageMetrics`]: one row per operator with frames in/out, pass rate
    /// and virtual / wall-clock time. This is the single reporting path for
    /// all execution modes.
    pub fn from_stage_metrics(title: &str, metrics: &[StageMetrics]) -> Report {
        let mut report = Report::new(title).header(&[
            "operator",
            "stage",
            "frames in",
            "frames out",
            "pass rate",
            "virtual ms",
            "wall ms",
            "workers",
        ]);
        for m in metrics {
            report.row(&[
                m.operator.clone(),
                m.stage.map_or_else(|| "-".to_string(), |s| s.name().to_string()),
                m.frames_in.to_string(),
                m.frames_out.to_string(),
                format!("{:.1}%", m.pass_rate() * 100.0),
                format!("{:.2}", m.virtual_ms),
                format!("{:.3}", m.wall_ms),
                m.workers.to_string(),
            ]);
        }
        report
    }

    /// Renders the report as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "=== {} ===", self.title);
        if !self.header.is_empty() {
            let line: Vec<String> = self
                .header
                .iter()
                .enumerate()
                .map(|(i, h)| format!("{:<width$}", h, width = widths.get(i).copied().unwrap_or(h.len())))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
            let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
        }
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(c.len())))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut r = Report::new("Demo").header(&["name", "value"]);
        r.row(&["alpha".to_string(), "1".to_string()]);
        r.row(&["b".to_string(), "22222".to_string()]);
        let text = r.render();
        assert!(text.contains("=== Demo ==="));
        assert!(text.contains("name"));
        assert!(text.contains("alpha"));
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn empty_report_renders_title_only() {
        let r = Report::new("Empty");
        assert!(r.is_empty());
        assert!(r.render().starts_with("=== Empty ==="));
    }

    #[test]
    fn rows_wider_than_header_are_handled() {
        let mut r = Report::new("W").header(&["a"]);
        r.row(&["x".to_string(), "extra".to_string()]);
        let text = r.render();
        assert!(text.contains("extra"));
    }
}
