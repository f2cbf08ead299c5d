//! The on-disk and on-the-wire shape of a sweep table.
//!
//! One JSON object: `{"key":…,"columns":[…],"rows":[[…],…]}`, members in
//! that order when written. The JSON itself — string escapes, numbers in
//! Rust's shortest round-trip `Display` form (so `encode ∘ decode` is the
//! identity on every finite `f64`), non-finite values as `null`, and the
//! parser — is [`cnt_obs::json`]; this module only fixes the table's
//! shape.

use crate::cache::Table;
use crate::{Error, Result};
use cnt_obs::json::{self, JsonValue};

/// Serializes a table to a JSON string (stable field order, no trailing
/// newline).
pub fn encode_table(table: &Table) -> String {
    let mut out = String::with_capacity(256 + table.rows.len() * 24);
    out.push_str("{\"key\":");
    json::string(&table.key, &mut out);
    out.push_str(",\"columns\":");
    json::string_array(&table.columns, &mut out);
    out.push_str(",\"rows\":");
    json::number_rows(&table.rows, &mut out);
    out.push('}');
    out
}

/// Parses a table previously written by [`encode_table`]. `null` cells
/// decode to NaN.
///
/// # Errors
///
/// Returns [`Error::Parse`] on malformed JSON or a wrong shape, and
/// [`Error::RowWidth`] when a row's width differs from the column count.
pub fn decode_table(text: &str) -> Result<Table> {
    let shape = |message: &str| Error::Parse {
        message: message.to_string(),
    };
    let doc = json::parse(text).map_err(|message| Error::Parse { message })?;
    let JsonValue::Object(members) = &doc else {
        return Err(shape("a table must be a JSON object"));
    };
    let known = ["key", "columns", "rows"];
    if let Some((other, _)) = members
        .iter()
        .find(|(name, _)| !known.contains(&name.as_str()))
    {
        return Err(shape(&format!("unknown member '{other}'")));
    }
    let strings = |v: &JsonValue| -> Option<Vec<String>> {
        v.as_array()?
            .iter()
            .map(|s| Some(s.as_str()?.to_string()))
            .collect()
    };
    let numbers = |row: &JsonValue| -> Option<Vec<f64>> {
        let cell = |c: &JsonValue| match c {
            JsonValue::Null => Some(f64::NAN),
            _ => c.as_number(),
        };
        row.as_array()?.iter().map(cell).collect()
    };
    let table = Table {
        key: doc
            .get("key")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| shape("'key' must be a string"))?
            .to_string(),
        columns: doc
            .get("columns")
            .and_then(strings)
            .ok_or_else(|| shape("'columns' must be an array of strings"))?,
        rows: doc
            .get("rows")
            .and_then(|v| v.as_array()?.iter().map(numbers).collect())
            .ok_or_else(|| shape("'rows' must be an array of number arrays"))?,
    };
    table.check_row_widths()?;
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table {
            key: "abc123".to_string(),
            columns: vec!["D_nm".to_string(), "ratio \"q\"\n".to_string()],
            rows: vec![
                vec![10.0, 0.9012345678901234],
                vec![1e-300, -2.5e17],
                vec![0.1 + 0.2, f64::MAX],
            ],
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let t = table();
        let text = encode_table(&t);
        let back = decode_table(&text).unwrap();
        assert_eq!(back.key, t.key);
        assert_eq!(back.columns, t.columns);
        assert_eq!(back.rows.len(), t.rows.len());
        for (a, b) in back.rows.iter().flatten().zip(t.rows.iter().flatten()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        // Encoding is also stable (byte-identical re-encode).
        assert_eq!(encode_table(&back), text);
    }

    #[test]
    fn non_finite_becomes_null_then_nan() {
        let t = Table {
            key: "k".to_string(),
            columns: vec!["x".to_string()],
            rows: vec![vec![f64::INFINITY]],
        };
        let text = encode_table(&t);
        assert!(text.contains("null"));
        assert!(decode_table(&text).unwrap().rows[0][0].is_nan());
    }

    #[test]
    fn rejects_wrong_shapes() {
        // Syntax errors are cnt_obs::json's to catch (its rejection table
        // covers the table documents this decoder used to reject); these
        // are well-formed JSON that is not a table.
        for bad in [
            "{\"wat\":1}",
            "[]",
            "{\"key\":\"k\",\"columns\":[\"a\"]}",
            "{\"key\":7,\"columns\":[\"a\"],\"rows\":[[1]]}",
            "{\"key\":\"k\",\"columns\":[1],\"rows\":[[1]]}",
            "{\"key\":\"k\",\"columns\":[\"a\"],\"rows\":[[\"1\"]]}",
        ] {
            assert!(
                matches!(decode_table(bad), Err(Error::Parse { .. })),
                "accepted: {bad}"
            );
        }
    }

    #[test]
    fn row_width_mismatch_names_the_row() {
        let text = "{\"key\":\"k\",\"columns\":[\"a\"],\"rows\":[[1],[1,2]]}";
        assert_eq!(
            decode_table(text),
            Err(Error::RowWidth {
                row: 1,
                width: 2,
                columns: 1
            })
        );
    }

    #[test]
    fn whitespace_tolerant() {
        let text = "{ \"key\" : \"k\" ,\n \"columns\" : [ \"a\" ] , \"rows\" : [ [ 1.5 ] ] }";
        let t = decode_table(text).unwrap();
        assert_eq!(t.rows, vec![vec![1.5]]);
    }

    #[test]
    fn escapes_round_trip() {
        let t = Table {
            key: "tab\t\"quote\"\\back\u{1}".to_string(),
            columns: vec![],
            rows: vec![],
        };
        let back = decode_table(&encode_table(&t)).unwrap();
        assert_eq!(back.key, t.key);
    }
}
