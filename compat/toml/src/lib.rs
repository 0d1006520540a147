//! Offline stand-in for the `toml` crate.
//!
//! Implements the subset of TOML this workspace's scenario files use, over
//! the [`serde`] stand-in's value tree:
//!
//! * tables `[a.b]` and arrays of tables `[[a.b]]`;
//! * bare and quoted keys, dotted keys in assignments;
//! * strings (basic and literal), integers (with `_` separators), floats
//!   (including `inf`/`-inf`/`nan`), booleans;
//! * arrays (multi-line allowed) and inline tables `{ k = v }`;
//! * `#` comments.
//!
//! Serialization emits scalars first, then sub-tables, then arrays of
//! tables, so any value tree whose maps-in-arrays contain only maps is
//! representable. `Value::Unit` entries (i.e. `None` options) are omitted.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Error produced while parsing or rendering TOML.
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

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// Serializes a value to a TOML document.
///
/// # Errors
///
/// Returns [`Error`] when the value does not serialize to a map (TOML
/// documents are tables) or contains a shape TOML cannot express.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let value = value.to_value();
    let Value::Map(entries) = &value else {
        return Err(Error::new("top-level TOML value must be a table"));
    };
    let mut out = String::new();
    write_table(&mut out, &[], entries)?;
    Ok(out)
}

/// Alias for [`to_string`] (the real crate's pretty output differs only in
/// string style).
///
/// # Errors
///
/// See [`to_string`].
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    to_string(value)
}

fn is_inline(value: &Value) -> bool {
    match value {
        Value::Map(_) => false,
        Value::Seq(items) => !items.iter().all(|i| matches!(i, Value::Map(_))) || items.is_empty(),
        _ => true,
    }
}

fn write_table(
    out: &mut String,
    path: &[String],
    entries: &[(String, Value)],
) -> Result<(), Error> {
    for (key, value) in entries {
        if matches!(value, Value::Unit) {
            continue;
        }
        if is_inline(value) {
            out.push_str(&format_key(key));
            out.push_str(" = ");
            write_inline(out, value)?;
            out.push('\n');
        }
    }
    for (key, value) in entries {
        match value {
            Value::Map(inner) => {
                let mut child = path.to_vec();
                child.push(key.clone());
                out.push('\n');
                out.push('[');
                out.push_str(&join_path(&child));
                out.push_str("]\n");
                write_table(out, &child, inner)?;
            }
            Value::Seq(items) if !is_inline(value) => {
                let mut child = path.to_vec();
                child.push(key.clone());
                for item in items {
                    let Value::Map(inner) = item else {
                        return Err(Error::new("mixed array of tables"));
                    };
                    out.push('\n');
                    out.push_str("[[");
                    out.push_str(&join_path(&child));
                    out.push_str("]]\n");
                    write_table(out, &child, inner)?;
                }
            }
            _ => {}
        }
    }
    Ok(())
}

fn write_inline(out: &mut String, value: &Value) -> Result<(), Error> {
    match value {
        Value::Unit => return Err(Error::new("TOML cannot express null values")),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => out.push_str(&format_float(*f)),
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_inline(out, item)?;
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            let mut first = true;
            for (key, item) in entries {
                if matches!(item, Value::Unit) {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format_key(key));
                out.push_str(" = ");
                write_inline(out, item)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn format_float(f: f64) -> String {
    if f.is_nan() {
        "nan".to_string()
    } else if f == f64::INFINITY {
        "inf".to_string()
    } else if f == f64::NEG_INFINITY {
        "-inf".to_string()
    } else {
        let repr = format!("{f:?}");
        // TOML floats need a `.` or exponent; `{:?}` guarantees one.
        repr
    }
}

fn is_bare_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn format_key(key: &str) -> String {
    if is_bare_key(key) {
        key.to_string()
    } else {
        let mut out = String::new();
        write_string(&mut out, key);
        out
    }
}

fn join_path(path: &[String]) -> String {
    path.iter()
        .map(|p| format_key(p))
        .collect::<Vec<_>>()
        .join(".")
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04X}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parses a type from a TOML document.
///
/// # Errors
///
/// Returns [`Error`] on malformed TOML or a shape mismatch.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_document(text)?;
    Ok(T::from_value(&value)?)
}

/// Parses a TOML document into the generic value tree.
///
/// # Errors
///
/// Returns [`Error`] on malformed TOML.
pub fn parse_document(text: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        chars: text.chars().collect(),
        pos: 0,
    };
    let mut root = Value::Map(Vec::new());
    // Path of the table header currently in effect.
    let mut header: Vec<String> = Vec::new();
    loop {
        parser.skip_trivia();
        if parser.at_end() {
            break;
        }
        if parser.peek() == Some('[') {
            parser.bump();
            let array = parser.peek() == Some('[');
            if array {
                parser.bump();
            }
            let path = parser.parse_dotted_key()?;
            check_depth(path.len())?;
            parser.expect(']')?;
            if array {
                parser.expect(']')?;
                ensure_array_element(&mut root, &path)?;
            } else {
                ensure_table(&mut root, &path)?;
            }
            header = path;
            parser.expect_line_end()?;
        } else {
            let mut path = header.clone();
            path.extend(parser.parse_dotted_key()?);
            parser.skip_spaces();
            parser.expect('=')?;
            // The value sits inside one table per path segment but its own.
            let depth = path.len() - 1;
            check_depth(depth)?;
            let value = parser.parse_value(depth)?;
            let (key, parents) = path.split_last().expect("dotted key is never empty");
            let table = ensure_table(&mut root, parents)?;
            let Value::Map(entries) = table else {
                unreachable!("ensure_table returns maps")
            };
            if entries.iter().any(|(k, _)| k == key) {
                return Err(Error::new(format!("duplicate key `{key}`")));
            }
            entries.push((key.clone(), value));
            parser.expect_line_end()?;
        }
    }
    Ok(root)
}

/// The deepest nesting of tables and arrays the parser accepts. Parsing
/// recurses once per array or inline-table level, and dropping the parsed
/// tree recurses once per level of any kind, so an unbounded depth lets a
/// hostile scenario file overflow the stack and abort the process. Scenario
/// files nest only a few levels.
const MAX_DEPTH: usize = 128;

/// Fails when a table or array would sit `level` levels below the document
/// root and that is deeper than [`MAX_DEPTH`].
fn check_depth(level: usize) -> Result<(), Error> {
    if level > MAX_DEPTH {
        return Err(Error::new(format!(
            "nesting deeper than {MAX_DEPTH} levels"
        )));
    }
    Ok(())
}

/// Walks (creating as needed) the table at `path`, descending into the last
/// element of any array of tables along the way.
fn ensure_table<'a>(root: &'a mut Value, path: &[String]) -> Result<&'a mut Value, Error> {
    let mut current = root;
    for segment in path {
        // Descend through arrays of tables to their last element.
        let entries = match current {
            Value::Map(entries) => entries,
            _ => return Err(Error::new(format!("key `{segment}` is not a table"))),
        };
        let index = match entries.iter().position(|(k, _)| k == segment) {
            Some(i) => i,
            None => {
                entries.push((segment.clone(), Value::Map(Vec::new())));
                entries.len() - 1
            }
        };
        current = &mut entries[index].1;
        if let Value::Seq(items) = current {
            current = items
                .last_mut()
                .ok_or_else(|| Error::new(format!("array of tables `{segment}` is empty")))?;
        }
        if !matches!(current, Value::Map(_)) {
            return Err(Error::new(format!("key `{segment}` is not a table")));
        }
    }
    Ok(current)
}

/// Appends a fresh table to the array of tables at `path`, creating it if
/// needed.
fn ensure_array_element(root: &mut Value, path: &[String]) -> Result<(), Error> {
    let (last, parents) = path
        .split_last()
        .ok_or_else(|| Error::new("empty table header"))?;
    let parent = ensure_table(root, parents)?;
    let Value::Map(entries) = parent else {
        unreachable!("ensure_table returns maps")
    };
    match entries.iter_mut().find(|(k, _)| k == last) {
        Some((_, Value::Seq(items))) => {
            items.push(Value::Map(Vec::new()));
            Ok(())
        }
        Some(_) => Err(Error::new(format!(
            "key `{last}` is not an array of tables"
        ))),
        None => {
            entries.push((last.clone(), Value::Seq(vec![Value::Map(Vec::new())])));
            Ok(())
        }
    }
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn expect(&mut self, expected: char) -> Result<(), Error> {
        self.skip_spaces();
        match self.bump() {
            Some(c) if c == expected => Ok(()),
            other => Err(Error::new(format!(
                "expected `{expected}`, found {other:?}"
            ))),
        }
    }

    /// Skips spaces and tabs (not newlines).
    fn skip_spaces(&mut self) {
        while matches!(self.peek(), Some(' ') | Some('\t')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, newlines and comments.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(' ') | Some('\t') | Some('\n') | Some('\r') => {
                    self.pos += 1;
                }
                Some('#') => {
                    while !matches!(self.peek(), None | Some('\n')) {
                        self.pos += 1;
                    }
                }
                _ => return,
            }
        }
    }

    /// After a value or header: only spaces and a comment may precede the
    /// end of the line.
    fn expect_line_end(&mut self) -> Result<(), Error> {
        self.skip_spaces();
        if self.peek() == Some('#') {
            while !matches!(self.peek(), None | Some('\n')) {
                self.pos += 1;
            }
        }
        match self.peek() {
            None => Ok(()),
            Some('\n') => {
                self.pos += 1;
                Ok(())
            }
            Some('\r') => {
                self.pos += 1;
                if self.peek() == Some('\n') {
                    self.pos += 1;
                }
                Ok(())
            }
            Some(c) => Err(Error::new(format!("unexpected `{c}` before end of line"))),
        }
    }

    fn parse_dotted_key(&mut self) -> Result<Vec<String>, Error> {
        let mut parts = vec![self.parse_key_segment()?];
        loop {
            self.skip_spaces();
            if self.peek() == Some('.') {
                self.bump();
                parts.push(self.parse_key_segment()?);
            } else {
                return Ok(parts);
            }
        }
    }

    fn parse_key_segment(&mut self) -> Result<String, Error> {
        self.skip_spaces();
        match self.peek() {
            Some('"') => self.parse_basic_string(),
            Some('\'') => self.parse_literal_string(),
            Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '-' => {
                let mut out = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                        out.push(c);
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                Ok(out)
            }
            other => Err(Error::new(format!("expected key, found {other:?}"))),
        }
    }

    /// Parses one value; `depth` counts the tables and arrays enclosing it.
    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_spaces();
        if matches!(self.peek(), Some('[' | '{')) {
            check_depth(depth + 1)?;
        }
        match self.peek() {
            None => Err(Error::new("unexpected end of input in value position")),
            Some('"') => Ok(Value::Str(self.parse_basic_string()?)),
            Some('\'') => Ok(Value::Str(self.parse_literal_string()?)),
            Some('[') => {
                self.bump();
                let mut items = Vec::new();
                loop {
                    self.skip_trivia();
                    if self.peek() == Some(']') {
                        self.bump();
                        return Ok(Value::Seq(items));
                    }
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_trivia();
                    match self.peek() {
                        Some(',') => {
                            self.bump();
                        }
                        Some(']') => {
                            self.bump();
                            return Ok(Value::Seq(items));
                        }
                        other => {
                            return Err(Error::new(format!(
                                "expected `,` or `]` in array, found {other:?}"
                            )))
                        }
                    }
                }
            }
            Some('{') => {
                self.bump();
                let mut entries: Vec<(String, Value)> = Vec::new();
                self.skip_spaces();
                if self.peek() == Some('}') {
                    self.bump();
                    return Ok(Value::Map(entries));
                }
                loop {
                    let path = self.parse_dotted_key()?;
                    self.skip_spaces();
                    self.expect('=')?;
                    let inner = depth + path.len();
                    check_depth(inner)?;
                    let value = self.parse_value(inner)?;
                    insert_dotted(&mut entries, &path, value)?;
                    self.skip_spaces();
                    match self.bump() {
                        Some(',') => self.skip_spaces(),
                        Some('}') => return Ok(Value::Map(entries)),
                        other => {
                            return Err(Error::new(format!(
                                "expected `,` or `}}` in inline table, found {other:?}"
                            )))
                        }
                    }
                }
            }
            Some(_) => self.parse_scalar(),
        }
    }

    fn parse_basic_string(&mut self) -> Result<String, Error> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(Error::new("unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') | Some('U') => {
                        let len = if self.chars[self.pos - 1] == 'u' {
                            4
                        } else {
                            8
                        };
                        let mut code = 0u32;
                        for _ in 0..len {
                            let c = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or_else(|| Error::new("invalid unicode escape"))?;
                            code = code * 16 + c;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| Error::new("invalid unicode code point"))?,
                        );
                    }
                    other => {
                        return Err(Error::new(format!("invalid escape {other:?}")));
                    }
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn parse_literal_string(&mut self) -> Result<String, Error> {
        self.expect('\'')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(Error::new("unterminated literal string")),
                Some('\'') => return Ok(out),
                Some(c) => out.push(c),
            }
        }
    }

    fn parse_scalar(&mut self) -> Result<Value, Error> {
        let mut token = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, '+' | '-' | '_' | '.' | ':') {
                token.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        match token.as_str() {
            "" => Err(Error::new("empty value")),
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            "inf" | "+inf" => Ok(Value::Float(f64::INFINITY)),
            "-inf" => Ok(Value::Float(f64::NEG_INFINITY)),
            "nan" | "+nan" | "-nan" => Ok(Value::Float(f64::NAN)),
            _ => {
                let cleaned: String = token.chars().filter(|&c| c != '_').collect();
                if cleaned.contains('.') || cleaned.contains('e') || cleaned.contains('E') {
                    cleaned
                        .parse::<f64>()
                        .map(Value::Float)
                        .map_err(|_| Error::new(format!("invalid float `{token}`")))
                } else if let Ok(i) = cleaned.parse::<i64>() {
                    Ok(Value::Int(i))
                } else if let Ok(u) = cleaned.parse::<u64>() {
                    Ok(Value::UInt(u))
                } else {
                    Err(Error::new(format!("unsupported value `{token}`")))
                }
            }
        }
    }
}

fn insert_dotted(
    entries: &mut Vec<(String, Value)>,
    path: &[String],
    value: Value,
) -> Result<(), Error> {
    let (key, rest) = path.split_first().expect("dotted key is never empty");
    if rest.is_empty() {
        if entries.iter().any(|(k, _)| k == key) {
            return Err(Error::new(format!("duplicate key `{key}`")));
        }
        entries.push((key.clone(), value));
        return Ok(());
    }
    let index = match entries.iter().position(|(k, _)| k == key) {
        Some(i) => i,
        None => {
            entries.push((key.clone(), Value::Map(Vec::new())));
            entries.len() - 1
        }
    };
    match &mut entries[index].1 {
        Value::Map(inner) => insert_dotted(inner, rest, value),
        _ => Err(Error::new(format!("key `{key}` is not a table"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_arrays_and_scalars() {
        let doc = r#"
# top comment
name = "fig7"
count = 3
ratio = 2.5
flag = true
values = [1.0, 2.0, 3.0] # trailing comment
words = ["a", "b"]

[schedule]
warmup = 8.0
duration = 20.0

[[sweep]]
axis = "threshold"

[[sweep]]
axis = "policy"
nested = { kind = "x", n = 2 }
"#;
        let value = parse_document(doc).unwrap();
        assert_eq!(value.get("name"), Some(&Value::Str("fig7".into())));
        assert_eq!(value.get("count"), Some(&Value::Int(3)));
        assert_eq!(value.get("ratio"), Some(&Value::Float(2.5)));
        assert_eq!(value.get("flag"), Some(&Value::Bool(true)));
        assert_eq!(
            value.get("values"),
            Some(&Value::Seq(vec![
                Value::Float(1.0),
                Value::Float(2.0),
                Value::Float(3.0)
            ]))
        );
        let schedule = value.get("schedule").unwrap();
        assert_eq!(schedule.get("warmup"), Some(&Value::Float(8.0)));
        let Some(Value::Seq(sweep)) = value.get("sweep") else {
            panic!("sweep should be an array of tables");
        };
        assert_eq!(sweep.len(), 2);
        assert_eq!(
            sweep[1].get("nested").unwrap().get("kind"),
            Some(&Value::Str("x".into()))
        );
    }

    #[test]
    fn round_trips_nested_value() {
        let value = Value::Map(vec![
            ("a".into(), Value::Int(1)),
            ("f".into(), Value::Float(-0.25)),
            ("s".into(), Value::Str("hi \"there\"".into())),
            (
                "t".into(),
                Value::Map(vec![
                    ("x".into(), Value::Float(f64::INFINITY)),
                    ("y".into(), Value::Seq(vec![Value::Int(1), Value::Int(2)])),
                ]),
            ),
            (
                "arr".into(),
                Value::Seq(vec![
                    Value::Map(vec![("k".into(), Value::Int(1))]),
                    Value::Map(vec![("k".into(), Value::Int(2))]),
                ]),
            ),
        ]);
        let mut out = String::new();
        write_table(
            &mut out,
            &[],
            match &value {
                Value::Map(e) => e,
                _ => unreachable!(),
            },
        )
        .unwrap();
        let parsed = parse_document(&out).unwrap();
        assert_eq!(parsed, value);
    }

    #[test]
    fn multiline_arrays_parse() {
        let doc = "xs = [\n  1,\n  2, # comment\n  3,\n]\n";
        let value = parse_document(doc).unwrap();
        assert_eq!(
            value.get("xs"),
            Some(&Value::Seq(vec![
                Value::Int(1),
                Value::Int(2),
                Value::Int(3)
            ]))
        );
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Each document nests 100 000 levels: arrays, inline tables, dotted
        // keys and table headers. Every one must be a typed error, not a
        // stack overflow while parsing or dropping the tree.
        let deep = [
            format!("a = {}", "[".repeat(100_000)),
            format!("a = {}", "{ b = ".repeat(100_000)),
            format!("{}a = 1\n", "a.".repeat(100_000)),
            format!("[{}a]\n", "a.".repeat(100_000)),
            format!("a = {{ {}a = 1 }}\n", "a.".repeat(100_000)),
        ];
        for doc in &deep {
            let err = parse_document(doc).unwrap_err();
            assert!(err.to_string().contains("nesting deeper"), "{err}");
        }
        let at_limit = format!("a = {}{}\n", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_document(&at_limit).is_ok());
        let past_limit = format!("[t]\n{}", &at_limit);
        assert!(parse_document(&past_limit).is_err());
    }

    #[test]
    fn rejects_duplicates_and_garbage() {
        assert!(parse_document("a = 1\na = 2\n").is_err());
        assert!(parse_document("a = \n").is_err());
        assert!(parse_document("a = 1 b = 2\n").is_err());
    }
}
