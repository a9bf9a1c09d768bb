//! A minimal JSON value, writer, and parser.
//!
//! The build environment is fully offline (no serde), so the telemetry
//! report carries its own JSON layer: enough to *emit* the
//! `BENCH_*.json` artifacts deterministically (object keys
//! ride on `BTreeMap`, so rendering is stable) and to *parse* it back in
//! tests and CI checks. Numbers are `f64`; monotonic counters stay exact
//! up to 2^53, far beyond anything a run can accumulate.
//!
//! ```
//! use foam_telemetry::json::{parse, Value};
//!
//! let v = parse(r#"{"speedup": 1200.5, "phases": ["a", "b"]}"#).unwrap();
//! assert_eq!(v.get("speedup").and_then(Value::as_f64), Some(1200.5));
//! assert_eq!(v.get("phases").unwrap().as_array().unwrap().len(), 2);
//! let round = parse(&v.to_string()).unwrap();
//! assert_eq!(round, v);
//! ```

use std::collections::BTreeMap;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    /// Keys are ordered (`BTreeMap`), so serialization is deterministic.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on an object (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Build an object from `(key, value)` pairs.
    pub fn object(pairs: impl IntoIterator<Item = (String, Value)>) -> Value {
        Value::Object(pairs.into_iter().collect())
    }

    /// Render with two-space indentation (a stable, diff-friendly form
    /// for the `BENCH_*.json` artifacts).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(x) => out.push_str(&fmt_number(*x)),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind);
            }),
            Value::Object(map) => {
                let entries: Vec<(&String, &Value)> = map.iter().collect();
                write_seq(out, indent, '{', '}', entries.len(), |out, i, ind| {
                    let (k, v) = entries[i];
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, ind);
                });
            }
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s, None);
        f.write_str(&s)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Number(x)
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::Number(x as f64)
    }
}

impl From<usize> for Value {
    fn from(x: usize) -> Self {
        Value::Number(x as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        match indent {
            Some(level) => {
                out.push('\n');
                out.push_str(&"  ".repeat(level + 1));
                item(out, i, Some(level + 1));
            }
            None => item(out, i, None),
        }
        if i + 1 < len {
            out.push(',');
            if indent.is_none() {
                out.push(' ');
            }
        }
    }
    if let Some(level) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
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

/// JSON has no NaN/Infinity; they serialize as `null` and the counters
/// and timers never produce them. Integral values print without a
/// fractional part so counters read naturally.
fn fmt_number(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    if x == x.trunc() && x.abs() < 9.0e15 {
        format!("{}", x as i64)
    } else {
        let s = format!("{x}");
        // `{}` on f64 always includes enough digits to round-trip.
        s
    }
}

/// A parse failure: what was expected and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub expected: &'static str,
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected {} at byte {}", self.expected, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parse a JSON document. Trailing content after the top-level value is
/// an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError {
            expected: "end of input",
            offset: pos,
        });
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(b: &[u8], pos: &mut usize, lit: &'static str) -> Result<(), ParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(ParseError {
            expected: lit,
            offset: *pos,
        })
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'n') => eat(b, pos, "null").map(|_| Value::Null),
        Some(b't') => eat(b, pos, "true").map(|_| Value::Bool(true)),
        Some(b'f') => eat(b, pos, "false").map(|_| Value::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Value::String),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => {
                        return Err(ParseError {
                            expected: "',' or ']'",
                            offset: *pos,
                        })
                    }
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                eat(b, pos, ":")?;
                let val = parse_value(b, pos)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(map));
                    }
                    _ => {
                        return Err(ParseError {
                            expected: "',' or '}'",
                            offset: *pos,
                        })
                    }
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => Err(ParseError {
            expected: "a JSON value",
            offset: *pos,
        }),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if b.get(*pos) != Some(&b'"') {
        return Err(ParseError {
            expected: "'\"'",
            offset: *pos,
        });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or(ParseError {
                            expected: "4 hex digits",
                            offset: *pos,
                        })?;
                        let s = std::str::from_utf8(hex).map_err(|_| ParseError {
                            expected: "4 hex digits",
                            offset: *pos,
                        })?;
                        let code = u32::from_str_radix(s, 16).map_err(|_| ParseError {
                            expected: "4 hex digits",
                            offset: *pos,
                        })?;
                        // Surrogate pairs are not needed by our own output;
                        // lone surrogates map to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => {
                        return Err(ParseError {
                            expected: "an escape character",
                            offset: *pos,
                        })
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid).
                let s = &b[*pos..];
                let ch = std::str::from_utf8(s)
                    .ok()
                    .and_then(|s| s.chars().next())
                    .ok_or(ParseError {
                        expected: "valid UTF-8",
                        offset: *pos,
                    })?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
            None => {
                return Err(ParseError {
                    expected: "closing '\"'",
                    offset: *pos,
                })
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Number)
        .ok_or(ParseError {
            expected: "a number",
            offset: start,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_structures() {
        let v = Value::object([
            ("a".to_string(), Value::from(1.5)),
            (
                "b".to_string(),
                Value::Array(vec![Value::Null, Value::Bool(true), Value::from("x\n\"y")]),
            ),
            ("c".to_string(), Value::object([])),
        ]);
        // The compact form is one line (NDJSON progress streams rely
        // on it): the string's newline is escaped.
        assert!(!v.to_string().contains('\n'));
        for text in [v.to_string(), v.to_string_pretty()] {
            assert_eq!(parse(&text).unwrap(), v, "failed on {text:?}");
        }
    }

    #[test]
    fn counters_print_as_integers() {
        assert_eq!(Value::from(12u64).to_string(), "12");
        assert_eq!(Value::from(0.25).to_string(), "0.25");
        // Round-trip precision of an awkward float.
        let x = 0.1 + 0.2;
        let back = parse(&Value::from(x).to_string()).unwrap();
        assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn object_keys_are_sorted_deterministically() {
        let a = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        assert_eq!(a.to_string(), r#"{"a": 2, "z": 1}"#);
    }
}
