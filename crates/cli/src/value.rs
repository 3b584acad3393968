//! A minimal self-contained document model with TOML-subset and JSON
//! parsers plus a deterministic JSON writer.
//!
//! The build environment has no registry access, so the CLI cannot use
//! `serde`/`toml`/`serde_json`; this module implements exactly the slice
//! the manifest format needs:
//!
//! * TOML: `# comments`, `[table]` headers, `[[array-of-tables]]` headers,
//!   and `key = value` pairs where a value is a string, integer, float,
//!   boolean, or a flat array of those.
//! * JSON: the full scalar/array/object grammar (no `null`).
//!
//! The writer emits canonical JSON — object keys sorted (BTreeMap order),
//! fixed indentation, no trailing whitespace — so equal inputs produce
//! byte-identical artifacts.

use std::collections::BTreeMap;
use std::fmt::Write;

/// A parsed configuration value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array.
    Array(Vec<Value>),
    /// A key-sorted table / object.
    Table(BTreeMap<String, Value>),
}

impl Value {
    /// An empty table.
    pub fn table() -> Value {
        Value::Table(BTreeMap::new())
    }

    /// Table field access.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Table(t) => t.get(key),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer content, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The float content (integers coerce).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The boolean content, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Inserts into a table value.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a table.
    pub fn insert(&mut self, key: &str, value: Value) {
        match self {
            Value::Table(t) => {
                t.insert(key.to_string(), value);
            }
            _ => panic!("insert into non-table"),
        }
    }

    /// Renders canonical, pretty-printed JSON with a trailing newline.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_json(&self, out: &mut String, depth: usize) {
        // `write!` into a `String` cannot fail.
        match self {
            Value::Str(s) => {
                out.push('"');
                if s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            '\t' => out.push_str("\\t"),
                            '\r' => out.push_str("\\r"),
                            c if (c as u32) < 0x20 => {
                                let _ = write!(out, "\\u{:04x}", c as u32);
                            }
                            c => out.push(c),
                        }
                    }
                } else {
                    out.push_str(s);
                }
                out.push('"');
            }
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => {
                // Rust's shortest-roundtrip Display is deterministic; pin
                // the integral case to keep the value re-parseable as float.
                let _ = if f.fract() == 0.0 && f.is_finite() && f.abs() < 1e15 {
                    write!(out, "{f:.1}")
                } else {
                    write!(out, "{f}")
                };
            }
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    item.write_json(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push(']');
            }
            Value::Table(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    out.push('"');
                    out.push_str(k);
                    out.push_str("\": ");
                    v.write_json(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push('}');
            }
        }
    }
}

/// Starts a new JSON line indented `depth` levels of two spaces.
fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Strips a `#` comment not inside a string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses the TOML subset described in the module docs.
///
/// # Errors
///
/// Returns a message naming the offending line on malformed input.
pub fn parse_toml(text: &str) -> Result<Value, String> {
    enum Cursor {
        Root,
        Table(String),
        ArrayItem(String),
    }
    let mut root: BTreeMap<String, Value> = BTreeMap::new();
    let mut cursor = Cursor::Root;
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        let at = |msg: &str| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            let name = name.trim();
            if name.is_empty() {
                return Err(at("empty [[array-of-tables]] name"));
            }
            let entry = root.entry(name.to_string()).or_insert_with(|| Value::Array(Vec::new()));
            match entry {
                Value::Array(items) => items.push(Value::table()),
                _ => return Err(at(&format!("{name} is both a table and an array of tables"))),
            }
            cursor = Cursor::ArrayItem(name.to_string());
        } else if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let name = name.trim();
            if name.is_empty() || name.contains('.') {
                return Err(at("expected a plain [table] name (no dotted tables)"));
            }
            match root.entry(name.to_string()).or_insert_with(Value::table) {
                Value::Table(_) => {}
                _ => return Err(at(&format!("{name} is both an array of tables and a table"))),
            }
            cursor = Cursor::Table(name.to_string());
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim();
            if key.is_empty() {
                return Err(at("empty key"));
            }
            let value = parse_toml_value(value.trim()).map_err(|e| at(&e))?;
            let target = match &cursor {
                Cursor::Root => &mut root,
                Cursor::Table(name) => match root.get_mut(name) {
                    Some(Value::Table(t)) => t,
                    _ => unreachable!("cursor tracks an existing table"),
                },
                Cursor::ArrayItem(name) => match root.get_mut(name) {
                    Some(Value::Array(items)) => match items.last_mut() {
                        Some(Value::Table(t)) => t,
                        _ => unreachable!("cursor tracks a pushed table item"),
                    },
                    _ => unreachable!("cursor tracks an existing array"),
                },
            };
            if target.insert(key.to_string(), value).is_some() {
                return Err(at(&format!("duplicate key {key}")));
            }
        } else {
            return Err(at("expected [table], [[array-of-tables]], or key = value"));
        }
    }
    Ok(Value::Table(root))
}

fn parse_toml_value(s: &str) -> Result<Value, String> {
    if let Some(rest) = s.strip_prefix('"') {
        return match rest.split_once('"') {
            Some((content, tail)) if tail.trim().is_empty() => Ok(Value::Str(content.to_string())),
            _ => Err(format!("unterminated or trailing-garbage string: {s}")),
        };
    }
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner.strip_suffix(']').ok_or_else(|| format!("unterminated array: {s}"))?;
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(Value::Array(Vec::new()));
        }
        // Flat arrays only: split on commas outside strings.
        let mut items = Vec::new();
        let mut start = 0;
        let mut in_str = false;
        for (i, c) in inner.char_indices() {
            match c {
                '"' => in_str = !in_str,
                ',' if !in_str => {
                    items.push(parse_toml_value(inner[start..i].trim())?);
                    start = i + 1;
                }
                _ => {}
            }
        }
        items.push(parse_toml_value(inner[start..].trim())?);
        return Ok(Value::Array(items));
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let plain = s.replace('_', "");
    if let Ok(i) = plain.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = plain.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    Err(format!("unrecognized value: {s}"))
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse_json(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = json_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn json_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut table = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Table(table));
            }
            loop {
                skip_ws(b, pos);
                let key = match json_value(b, pos)? {
                    Value::Str(s) => s,
                    _ => return Err(format!("object key must be a string at byte {pos}")),
                };
                expect(b, pos, b':')?;
                table.insert(key, json_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Table(table));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(json_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Value::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            // \uXXXX (BMP only — enough to round-trip the
                            // control-character escapes our writer emits).
                            Some(b'u') => {
                                let hex = b
                                    .get(*pos + 1..*pos + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                                let c = char::from_u32(hex).ok_or_else(|| {
                                    format!("\\u escape is not a scalar value at byte {pos}")
                                })?;
                                s.push(c);
                                *pos += 4;
                            }
                            other => {
                                return Err(format!("unsupported escape {other:?} at byte {pos}"))
                            }
                        }
                        *pos += 1;
                    }
                    Some(&c) => {
                        // Copy the full UTF-8 sequence.
                        let start = *pos;
                        let width = match c {
                            c if c < 0x80 => 1,
                            c if c >= 0xf0 => 4,
                            c if c >= 0xe0 => 3,
                            _ => 2,
                        };
                        *pos += width;
                        let chunk = std::str::from_utf8(&b[start..*pos])
                            .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                        s.push_str(chunk);
                    }
                }
            }
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && (b[*pos].is_ascii_alphanumeric() || matches!(b[*pos], b'+' | b'-' | b'.'))
            {
                *pos += 1;
            }
            let token = std::str::from_utf8(&b[start..*pos]).unwrap_or("");
            match token {
                "true" => Ok(Value::Bool(true)),
                "false" => Ok(Value::Bool(false)),
                _ => {
                    if let Ok(i) = token.parse::<i64>() {
                        Ok(Value::Int(i))
                    } else if let Ok(f) = token.parse::<f64>() {
                        Ok(Value::Float(f))
                    } else {
                        Err(format!("unrecognized token {token:?} at byte {start}"))
                    }
                }
            }
        }
        None => Err("unexpected end of input".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_subset_round_trips() {
        let doc = parse_toml(
            r#"
            # campaign manifest
            [campaign]
            name = "demo"        # inline comment
            seed = 7
            theta = 0.9
            tiny = true
            systems = ["mondrian", "cpu"]
            sweep = [256, 1_024]

            [[stage]]
            op = "filter"
            modulus = 10

            [[stage]]
            op = "sort_by_key"
            "#,
        )
        .unwrap();
        let campaign = doc.get("campaign").unwrap();
        assert_eq!(campaign.get("name").unwrap().as_str(), Some("demo"));
        assert_eq!(campaign.get("seed").unwrap().as_int(), Some(7));
        assert_eq!(campaign.get("theta").unwrap().as_float(), Some(0.9));
        assert_eq!(campaign.get("tiny").unwrap().as_bool(), Some(true));
        assert_eq!(campaign.get("systems").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(campaign.get("sweep").unwrap().as_array().unwrap()[1], Value::Int(1024));
        let stages = doc.get("stage").unwrap().as_array().unwrap();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].get("op").unwrap().as_str(), Some("filter"));
        assert_eq!(stages[0].get("modulus").unwrap().as_int(), Some(10));
    }

    #[test]
    fn toml_errors_name_the_line() {
        let err = parse_toml("[campaign]\nwat").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(parse_toml("[a]\nk = 1\nk = 2").unwrap_err().contains("duplicate"));
        assert!(parse_toml("k = zzz").is_err());
    }

    #[test]
    fn json_round_trips_through_writer() {
        let text = r#"{"b": [1, 2.5, "x"], "a": {"nested": true}}"#;
        let v = parse_json(text).unwrap();
        let emitted = v.to_json();
        assert_eq!(parse_json(&emitted).unwrap(), v);
        // Canonical order: keys sorted.
        assert!(emitted.find("\"a\"").unwrap() < emitted.find("\"b\"").unwrap());
    }

    #[test]
    fn json_writer_is_deterministic() {
        let v = parse_json(r#"{"x": 1, "y": [true, false], "z": 0.125}"#).unwrap();
        assert_eq!(v.to_json(), v.to_json());
        assert!(v.to_json().contains("0.125"));
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("null").is_err(), "null is not in the manifest grammar");
        assert!(parse_json("{\"a\": 1} x").is_err());
    }

    #[test]
    fn float_formatting_is_reparseable() {
        let v = Value::Float(3.0);
        assert_eq!(v.to_json().trim(), "3.0");
        let v = Value::Float(0.30000000000000004);
        assert_eq!(parse_json(v.to_json().trim()).unwrap(), v);
    }
}
