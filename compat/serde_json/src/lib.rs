//! Offline stand-in for the `serde_json` crate.
//!
//! Renders and parses the [`serde::Value`] tree of the offline serde
//! stand-in. The emitted text is standard JSON except for three non-finite
//! number tokens (`Infinity`, `-Infinity`, `NaN`), which this crate both
//! emits and accepts so that metric reports containing empty running
//! statistics (whose min/max are ±∞) still round-trip.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Error produced while parsing or converting JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(value: serde::Error) -> Self {
        Error::new(value.to_string())
    }
}

/// Serializes a value to compact JSON.
///
/// # Errors
///
/// Infallible for the value model of the stand-in; the `Result` mirrors the
/// real `serde_json` signature.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes a value to pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Infallible for the value model of the stand-in.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Converts a serializable value into the generic value tree.
pub fn to_value<T: Serialize>(value: &T) -> Value {
    value.to_value()
}

/// Parses a type from JSON text.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value_str(text)?;
    Ok(T::from_value(&value)?)
}

/// Parses JSON text into the generic value tree.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON.
pub fn parse_value_str(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {pos}")));
    }
    Ok(value)
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, level: usize) {
    match value {
        Value::Unit => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => out.push_str(&format_float(*f)),
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn format_float(f: f64) -> String {
    if f.is_nan() {
        "NaN".to_string()
    } else if f == f64::INFINITY {
        "Infinity".to_string()
    } else if f == f64::NEG_INFINITY {
        "-Infinity".to_string()
    } else {
        // `{:?}` prints the shortest representation that round-trips and
        // always marks the value as a float ("8.0", "1e-10").
        format!("{f:?}")
    }
}

fn write_string(out: &mut String, s: &str) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// The deepest nesting of arrays and objects the parser accepts. Parsing
/// recurses once per level, so an unbounded depth lets a hostile document
/// (a corrupt cache entry, a partial report, a wire frame) overflow the stack
/// and abort the process. The deepest document this workspace writes nests
/// about ten levels.
const MAX_DEPTH: usize = 128;

/// Parses one value; `depth` counts the arrays and objects enclosing it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'{' | b'[')) && depth >= MAX_DEPTH {
        return Err(Error::new(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )));
    }
    match bytes.get(*pos) {
        None => Err(Error::new("unexpected end of input")),
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Map(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(Error::new(format!("expected `:` at byte {pos}")));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Map(entries));
                    }
                    _ => return Err(Error::new(format!("expected `,` or `}}` at byte {pos}"))),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Seq(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Seq(items));
                    }
                    _ => return Err(Error::new(format!("expected `,` or `]` at byte {pos}"))),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(_) => parse_scalar(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::new(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one piece. Both
        // are ASCII, so a run never splits a UTF-8 sequence, and validating
        // each run once keeps the whole parse linear in the document size.
        let end = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map_or(bytes.len(), |run| *pos + run);
        let run = std::str::from_utf8(&bytes[*pos..end])
            .map_err(|_| Error::new("invalid UTF-8 in string"))?;
        out.push_str(run);
        *pos = end;
        match bytes.get(*pos) {
            None => return Err(Error::new("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            _ => {
                // A backslash: decode one escape sequence.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error::new("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| Error::new("invalid \\u code point"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(Error::new("invalid escape sequence")),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_scalar(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    while *pos < bytes.len()
        && !matches!(
            bytes[*pos],
            b',' | b']' | b'}' | b' ' | b'\t' | b'\n' | b'\r' | b':'
        )
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| Error::new("invalid UTF-8 in scalar"))?;
    match token {
        "null" => Ok(Value::Unit),
        "true" => Ok(Value::Bool(true)),
        "false" => Ok(Value::Bool(false)),
        "NaN" => Ok(Value::Float(f64::NAN)),
        "Infinity" => Ok(Value::Float(f64::INFINITY)),
        "-Infinity" => Ok(Value::Float(f64::NEG_INFINITY)),
        _ => {
            if token.contains('.') || token.contains('e') || token.contains('E') {
                token
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| Error::new(format!("invalid number `{token}`")))
            } else if let Ok(i) = token.parse::<i64>() {
                Ok(Value::Int(i))
            } else if let Ok(u) = token.parse::<u64>() {
                Ok(Value::UInt(u))
            } else {
                Err(Error::new(format!("invalid token `{token}`")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips() {
        let value = Value::Map(vec![
            ("a".into(), Value::Int(-3)),
            ("b".into(), Value::Float(2.5)),
            ("c".into(), Value::Seq(vec![Value::Bool(true), Value::Unit])),
            ("d".into(), Value::Str("x \"y\"\nz".into())),
            ("inf".into(), Value::Float(f64::INFINITY)),
            ("ninf".into(), Value::Float(f64::NEG_INFINITY)),
            // Escapes and quotes right next to multi-byte characters, control
            // characters written as `\u` escapes, and runs that end on the
            // last byte of a 2-, 3- or 4-byte sequence.
            ("é\"ü".into(), Value::Str("ñ\\\"€\"𝄞\\".into())),
            ("ctl".into(), Value::Str("\u{1}é\u{1f}\u{7f}\t€\r\n".into())),
            ("wide".into(), Value::Str("🦀é€𝄞".repeat(3))),
            ("".into(), Value::Str(String::new())),
        ]);
        let mut compact = String::new();
        write_value(&mut compact, &value, None, 0);
        assert_eq!(parse_value_str(&compact).unwrap(), value);
        let mut pretty = String::new();
        write_value(&mut pretty, &value, Some(2), 0);
        assert_eq!(parse_value_str(&pretty).unwrap(), value);

        // Escapes the writer never emits still decode, wherever they fall.
        let parsed = parse_value_str(r#"["é€", "a\/é\b\f€", "Aü\\", "é\""]"#);
        assert_eq!(
            parsed.unwrap(),
            Value::Seq(vec![
                Value::Str("é€".into()),
                Value::Str("a/é\u{8}\u{c}€".into()),
                Value::Str("Aü\\".into()),
                Value::Str("é\"".into()),
            ])
        );
        assert!(parse_value_str(r#""é\q""#).is_err());
        assert!(parse_value_str(r#""€\u00""#).is_err());
        assert!(parse_value_str(r#""\ud800""#).is_err());
        assert!(parse_value_str("\"é€").is_err());
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Deep enough to overflow the stack if every level recursed.
        for open in ["[", "{\"a\":"] {
            let deep = open.repeat(100_000);
            let err = parse_value_str(&deep).unwrap_err();
            assert!(err.to_string().contains("nesting deeper"), "{err}");
        }
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_value_str(&at_limit).is_ok());
        let past_limit = format!("[{at_limit}]");
        assert!(parse_value_str(&past_limit).is_err());
    }

    #[test]
    fn nan_round_trips_as_nan() {
        let mut out = String::new();
        write_value(&mut out, &Value::Float(f64::NAN), None, 0);
        assert_eq!(out, "NaN");
        match parse_value_str("NaN").unwrap() {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn typed_round_trip() {
        let v: Vec<f64> = from_str(&to_string(&vec![1.0f64, 2.5]).unwrap()).unwrap();
        assert_eq!(v, vec![1.0, 2.5]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value_str("{").is_err());
        assert!(parse_value_str("[1,]").is_err());
        assert!(parse_value_str("1 2").is_err());
        assert!(parse_value_str("wibble").is_err());
    }
}
