//! The workspace's JSON: one string writer, one number writer, the
//! array helpers built on them, and one value parser.
//!
//! The workspace has no serde, so every JSON document it writes or reads
//! goes through this module: reports, API bodies, metric and trace
//! renders, the sweep cache's tables, the job journal and the fleet's
//! chunk requests. Writers emit a fully specified subset — strings with
//! the standard escapes, numbers in Rust's shortest round-trip `Display`
//! form (so re-encoding a decoded document is byte-identical), non-finite
//! numbers as `null`. The parser accepts exactly RFC 8259 JSON, with one
//! twist: **numbers keep their raw source token**. Callers parse the
//! token into the type they need ([`JsonValue::as_number`]); the typed
//! parameter machinery in `cnt-interconnect` parses request overrides
//! from the client's original spelling, so a `POST …/run` body is
//! accepted and rejected exactly as `repro --set key=value` is.

use core::str::FromStr;

/// Appends `s` to `out` as a JSON string literal (standard escapes).
pub fn string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON number token for `v`: Rust's shortest round-trip `Display`
/// form, every spelling of which is in the JSON number grammar, or
/// `null` when `v` is not finite.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Appends `items` to `out` as a JSON array, writing each with `item`.
pub fn array<I: IntoIterator>(
    items: I,
    out: &mut String,
    mut item: impl FnMut(I::Item, &mut String),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(x, out);
    }
    out.push(']');
}

/// Appends `items` to `out` as a JSON array of strings.
pub fn string_array(items: &[String], out: &mut String) {
    array(items, out, |s, out| string(s, out));
}

/// Appends `rows` to `out` as a JSON array of number arrays.
pub fn number_rows(rows: &[Vec<f64>], out: &mut String) {
    array(rows, out, |row, out| {
        array(row, out, |v, out| out.push_str(&number(*v)));
    });
}

/// A parsed JSON value; numbers stay raw.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its source token (`"6"`, `"2.5e3"`, …).
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; member order preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The member `name` of an object (the first, if repeated); `None`
    /// for a missing member or a value that is not an object.
    pub fn get(&self, name: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The text of a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The items of an array value.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// A number value's raw token parsed as `T`; `None` for other values
    /// or a token `T` cannot hold.
    pub fn as_number<T: FromStr>(&self) -> Option<T> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns `invalid JSON at byte N: …`, naming the offset of the first
/// syntax error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.message("trailing input after the JSON document"));
    }
    Ok(value)
}

/// Parses a stream of JSON values separated by optional whitespace (the
/// JSON-lines shape `repro all --format json` emits), one value per
/// item. Iteration stops after the first error, whose offset is counted
/// from the start of `text`.
pub fn values(text: &str) -> Values<'_> {
    Values(Parser {
        bytes: text.as_bytes(),
        pos: 0,
    })
}

/// The iterator [`values`] returns.
pub struct Values<'a>(Parser<'a>);

impl Iterator for Values<'_> {
    type Item = Result<JsonValue, String>;

    fn next(&mut self) -> Option<Self::Item> {
        let p = &mut self.0;
        p.skip_ws();
        if p.pos == p.bytes.len() {
            return None;
        }
        let value = p.value();
        if value.is_err() {
            p.pos = p.bytes.len(); // nothing after a syntax error is trusted
        }
        Some(value)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn message(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, text: &[u8]) -> bool {
        if self.bytes[self.pos..].starts_with(text) {
            self.pos += text.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') if self.literal(b"true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.literal(b"false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.literal(b"null") => Ok(JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.message("expected a value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let name = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.message("expected ':'"));
            }
            self.pos += 1;
            members.push((name, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.message("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.message("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.message("expected '\"'"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                core::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| self.message(&format!("invalid UTF-8: {e}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.message("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            let scalar = match code {
                                // High surrogate: RFC 8259 encodes non-BMP
                                // characters as a \u pair; combine it with
                                // the mandatory low surrogate.
                                0xd800..=0xdbff => {
                                    if !self.literal(b"\\u") {
                                        return Err(self.message("unpaired high surrogate"));
                                    }
                                    let low = self.hex4()?;
                                    if !(0xdc00..=0xdfff).contains(&low) {
                                        return Err(self.message("unpaired high surrogate"));
                                    }
                                    0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                                }
                                0xdc00..=0xdfff => {
                                    return Err(self.message("unpaired low surrogate"))
                                }
                                code => code,
                            };
                            out.push(
                                char::from_u32(scalar)
                                    .ok_or_else(|| self.message("non-scalar \\u escape"))?,
                            );
                        }
                        other => {
                            return Err(
                                self.message(&format!("unknown escape '\\{}'", other as char))
                            )
                        }
                    }
                }
                _ => return Err(self.message("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.message("truncated \\u escape"));
        }
        let hex = core::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.message("bad \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.message("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let mut digits = 0;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(self.message("expected digits"));
        }
        if leading_zero && digits > 1 {
            return Err(self.message("leading zero"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(self.message("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(self.message("expected exponent digits"));
            }
        }
        let raw = core::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number token");
        Ok(JsonValue::Number(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_values_and_keeps_raw_numbers() {
        let v = parse(r#"{"params": {"nc": 6, "length_um": 2.5e2}, "format": "json", "flag": true, "none": null, "list": [1, "two"]}"#).unwrap();
        let JsonValue::Object(members) = &v else {
            panic!("not an object")
        };
        let params = &members[0];
        assert_eq!(params.0, "params");
        let JsonValue::Object(knobs) = &params.1 else {
            panic!("params not an object")
        };
        assert_eq!(knobs[0], ("nc".to_string(), JsonValue::Number("6".into())));
        assert_eq!(
            knobs[1],
            ("length_um".to_string(), JsonValue::Number("2.5e2".into()))
        );
        assert_eq!(members[1].1, JsonValue::String("json".into()));
        assert_eq!(members[2].1, JsonValue::Bool(true));
        assert_eq!(members[3].1, JsonValue::Null);

        // The accessors read the same tree; a wrong type reads as None.
        let params = v.get("params").unwrap();
        assert_eq!(params.get("nc").unwrap().as_number::<u32>(), Some(6));
        assert_eq!(params.get("length_um").unwrap().as_number(), Some(250.0));
        assert_eq!(v.get("format").unwrap().as_str(), Some("json"));
        assert_eq!(v.get("list").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("flag").unwrap().as_str(), None);
        assert_eq!(v.get("format").unwrap().as_number::<f64>(), None);
        assert_eq!(v.get("format").unwrap().get("format"), None);
        assert_eq!(v.get("missing"), None);
    }

    /// The one rejection table: every input here is malformed for the
    /// document parser and the stream iterator alike.
    const MALFORMED: &[&str] = &[
        // Syntax errors every former parser rejected.
        "",
        "   ",
        "{",
        "{\"a\":}",
        "[1,]",
        "\"open",
        "\"unterminated",
        "{\"a\":1} junk",
        "{\"a\":1} trailing-garbage",
        "01",
        "1.",
        "1.e3",
        "nul",
        "nulls",
        "{\"key\":\"k\"",
        "{\"key\":\"k\",\"columns\":[\"a\"],\"rows\":[[1]]} trailing",
        "{\"key\":\"k\",\"columns\":[\"a\"],\"rows\":[[bad]]}",
        // Lone surrogate escapes, which the stream checker accepted.
        r#""\ud83d""#,
        r#""\ude00""#,
        r#""\ud83dA""#,
        // Number tokens outside the JSON grammar, which the sweep
        // table decoder accepted.
        "{\"key\":\"k\",\"columns\":[\"a\"],\"rows\":[[+1]]}",
        "{\"key\":\"k\",\"columns\":[\"a\"],\"rows\":[[.5]]}",
        "{\"key\":\"k\",\"columns\":[\"a\"],\"rows\":[[1.]]}",
    ];

    #[test]
    fn rejects_malformed_documents() {
        for bad in MALFORMED {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
        for good in [
            "{}",
            "[]",
            "null",
            "{\"a\":[1,2,{\"b\":null}]}",
            r#""\ud83d\ude00""#,
        ] {
            assert!(parse(good).is_ok(), "rejected: {good:?}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in MALFORMED {
            let stream: Result<Vec<_>, _> = values(bad).collect();
            assert!(
                stream.map_or(true, |v| v.is_empty()),
                "stream accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn stream_yields_each_value_and_stops_at_the_first_error() {
        let stream: Vec<_> = values("-0.5e-7 12 [3]\n{\"a\":1}\n").collect();
        assert_eq!(stream.len(), 4);
        assert_eq!(stream[0], Ok(JsonValue::Number("-0.5e-7".into())));
        assert!(stream.iter().all(Result::is_ok));

        let stream: Vec<_> = values("{} {\"a\":} []").collect();
        assert_eq!(stream.len(), 2, "nothing after the error");
        assert_eq!(
            stream[1],
            Err("invalid JSON at byte 8: expected a value".to_string()),
            "offsets count from the start of the stream"
        );
        assert_eq!(values(" \n ").count(), 0);
    }

    #[test]
    fn escapes_unescape() {
        let v = parse(r#""tab\t quote\" slash\/ uA""#).unwrap();
        assert_eq!(v, JsonValue::String("tab\t quote\" slash/ uA".to_string()));
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_rejected() {
        // U+1F600 as Python's json.dumps (ensure_ascii=True) emits it.
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v, JsonValue::String("\u{1f600}".to_string()));
        // BMP escapes still work.
        assert_eq!(
            parse(r#""\u00b5m""#).unwrap(),
            JsonValue::String("µm".to_string())
        );
        for bad in [
            r#""\ud83d""#,   // high surrogate at end of string
            r#""\ud83d x""#, // high surrogate followed by plain text
            r#""\ud83dA""#,  // high surrogate followed by non-surrogate
            r#""\ude00""#,   // lone low surrogate
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn writers_escape_and_separate() {
        let mut out = String::new();
        string("tab\t\"q\"\\\u{1}\r\n µm", &mut out);
        assert_eq!(out, r#""tab\t\"q\"\\\u0001\r\n µm""#);
        out.clear();
        string_array(&["a".to_string(), "b".to_string()], &mut out);
        number_rows(&[vec![1.0, f64::NAN], vec![], vec![-0.0]], &mut out);
        assert_eq!(out, r#"["a","b"][[1,null],[],[-0]]"#);
    }
}
