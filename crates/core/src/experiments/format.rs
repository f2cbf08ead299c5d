//! Machine-readable renderings of a [`Report`].
//!
//! JSON is one object per report, fields in a fixed order, written with
//! the workspace's JSON writers ([`cnt_obs::json`]): numbers in Rust's
//! shortest round-trip `Display` form (so re-encoding a decoded report is
//! byte-identical), non-finite values as `null`. Every document carries
//! `"schema": 1` — bump [`REPORT_SCHEMA_VERSION`] on any shape change so
//! downstream consumers can detect it.
//!
//! CSV is the data table only (header row plus data rows, RFC 4180
//! quoting); titles and notes are JSON/text-side concerns.

use super::Report;
use crate::{Error, Result};
use cnt_obs::json;
use core::fmt;
use std::str::FromStr;

/// Version tag stamped into every JSON report as `"schema"`.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// How the CLI renders a [`Report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// The historical monospace table ([`Report::render`]).
    #[default]
    Text,
    /// One JSON object per report, on one line (JSON-lines friendly).
    Json,
    /// The data table as RFC 4180 CSV.
    Csv,
}

impl FromStr for OutputFormat {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "text" => Ok(OutputFormat::Text),
            "json" => Ok(OutputFormat::Json),
            "csv" => Ok(OutputFormat::Csv),
            other => Err(Error::Layer(format!(
                "unknown output format '{other}' (valid: text json csv)"
            ))),
        }
    }
}

impl fmt::Display for OutputFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OutputFormat::Text => "text",
            OutputFormat::Json => "json",
            OutputFormat::Csv => "csv",
        })
    }
}

impl Report {
    /// Renders the report in the requested format.
    ///
    /// `Text` is byte-identical to [`Report::render`]; the machine
    /// formats come from [`Report::to_json`] and [`Report::to_csv`].
    pub fn render_as(&self, format: OutputFormat) -> String {
        match format {
            OutputFormat::Text => self.render(),
            OutputFormat::Json => self.to_json(),
            OutputFormat::Csv => self.to_csv(),
        }
    }

    /// Serializes the report as a single-line JSON object (no trailing
    /// newline), schema version first.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.rows.len() * 24);
        out.push_str(&format!("{{\"schema\":{REPORT_SCHEMA_VERSION},\"id\":"));
        json::string(self.id, &mut out);
        out.push_str(",\"title\":");
        json::string(&self.title, &mut out);
        out.push_str(",\"columns\":");
        json::string_array(&self.columns, &mut out);
        out.push_str(",\"row_labels\":");
        json::string_array(&self.row_labels, &mut out);
        out.push_str(",\"rows\":");
        json::number_rows(&self.rows, &mut out);
        out.push_str(",\"notes\":");
        json::string_array(&self.notes, &mut out);
        out.push('}');
        out
    }

    /// Serializes the data table as CSV: a header row (with a leading
    /// `label` column when rows are labelled) and one row per data row,
    /// numbers in shortest round-trip form. Ends with a newline when any
    /// row was written.
    pub fn to_csv(&self) -> String {
        let labelled = !self.row_labels.is_empty();
        let mut out = String::new();
        if !self.columns.is_empty() {
            let mut header: Vec<String> = Vec::with_capacity(self.columns.len() + 1);
            if labelled {
                header.push("label".to_string());
            }
            header.extend(self.columns.iter().map(|c| csv_field(c)));
            out.push_str(&header.join(","));
            out.push('\n');
        }
        for (i, row) in self.rows.iter().enumerate() {
            let mut fields: Vec<String> = Vec::with_capacity(row.len() + 1);
            if labelled {
                let label = self.row_labels.get(i).map(String::as_str).unwrap_or("");
                fields.push(csv_field(label));
            }
            fields.extend(row.iter().map(|v| format!("{v}")));
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        out
    }
}

/// The workspace's JSON string writer, re-exported for the callers
/// that reach it through the report module.
pub use cnt_obs::json::string as json_string;

/// Quotes a CSV field when it contains a delimiter, quote, or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Validates that `text` is a whitespace-separated sequence of
/// well-formed JSON values — the shape of the JSON-lines stream
/// `repro all --format json` emits — and returns how many values it saw.
///
/// Any JSON value passes, so CI can pipe arbitrary structured output
/// through it.
///
/// # Errors
///
/// Returns `invalid JSON at byte N: …` for the first syntax error, or a
/// message saying the stream holds no value at all.
pub fn check_json_stream(text: &str) -> core::result::Result<usize, String> {
    let count = json::values(text).try_fold(0, |count, value| value.map(|_| count + 1))?;
    if count == 0 {
        return Err("empty input: no JSON value found".to_string());
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        let mut r = Report::new("figX", "demo \"quoted\" title").with_columns(&["a", "b,c"]);
        r.push_labeled_row("first", vec![1.0, 2.5]);
        r.push_labeled_row("se\"cond", vec![0.001, f64::NAN]);
        r.note("anchor ok\nsecond line");
        r
    }

    #[test]
    fn json_is_single_line_versioned_and_valid() {
        let text = report().to_json();
        assert!(!text.contains('\n'), "multi-line: {text}");
        assert!(text.starts_with("{\"schema\":1,\"id\":\"figX\""), "{text}");
        assert!(text.contains("\\\"quoted\\\""));
        assert!(text.contains("null"), "NaN must encode as null: {text}");
        assert_eq!(check_json_stream(&text).unwrap(), 1);
    }

    #[test]
    fn json_stream_counts_multiple_documents() {
        let a = report().to_json();
        let stream = format!("{a}\n{a}\n{a}\n");
        assert_eq!(check_json_stream(&stream).unwrap(), 3);
    }

    #[test]
    fn json_checker_rejects_malformed_streams() {
        for bad in [
            "",
            "   ",
            "{",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "{\"a\":1} trailing-garbage",
            "01",
            "1.e3",
            "nulls",
        ] {
            assert!(check_json_stream(bad).is_err(), "accepted: {bad:?}");
        }
        for good in [
            "{}",
            "[]",
            "null",
            "-0.5e-7 12 [3]",
            "{\"a\":[1,2,{\"b\":null}]}",
        ] {
            assert!(check_json_stream(good).is_ok(), "rejected: {good:?}");
        }
    }

    #[test]
    fn csv_quotes_and_labels() {
        let text = report().to_csv();
        let mut lines = text.lines();
        assert_eq!(lines.next().unwrap(), "label,a,\"b,c\"");
        assert_eq!(lines.next().unwrap(), "first,1,2.5");
        assert_eq!(lines.next().unwrap(), "\"se\"\"cond\",0.001,NaN");
        assert!(lines.next().is_none());
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn csv_without_labels_has_plain_header() {
        let mut r = Report::new("t", "plain").with_columns(&["x", "y"]);
        r.push_row(vec![1.0, 2.0]);
        assert_eq!(r.to_csv(), "x,y\n1,2\n");
    }

    #[test]
    fn render_as_text_matches_render() {
        let r = report();
        assert_eq!(r.render_as(OutputFormat::Text), r.render());
        assert_eq!("json".parse::<OutputFormat>().unwrap(), OutputFormat::Json);
        assert!("yaml".parse::<OutputFormat>().is_err());
    }
}
