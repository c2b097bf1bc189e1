//! Offline stand-in for `serde_json`.
//!
//! JSON text for the [`serde`] stand-in. Writing streams each value's
//! serializer into a text sink, so no [`Value`] tree is built; reading
//! parses into a [`Value`] tree first. The API surface matches what this
//! workspace calls: [`to_string`], [`to_string_pretty`], [`from_str`] and
//! the [`Error`] type, plus [`append_to_string`], which writes the text at
//! the end of an existing string.

pub use serde::Value;

use serde::{Deserialize, Serialize, Sink};
use std::fmt::Write as _;

/// JSON serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Error {
        Error(e.0)
    }
}

/// Serializes `value` as compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    append_to_string(&mut out, value)?;
    Ok(out)
}

/// Serializes `value` as compact JSON text at the end of `out`, so text
/// that follows something else (an artifact's header line) is written
/// in place instead of into a string of its own.
pub fn append_to_string<T: Serialize + ?Sized>(out: &mut String, value: &T) -> Result<(), Error> {
    *out = write(std::mem::take(out), value, None);
    Ok(())
}

/// Serializes `value` as human-indented JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(write(String::new(), value, Some(2)))
}

/// `out` with `value`'s text written at its end.
fn write<T: Serialize + ?Sized>(out: String, value: &T, indent: Option<usize>) -> String {
    let mut sink = TextSink { out, indent, depth: 0, empty: false, keyed: false };
    value.serialize_to(&mut sink);
    sink.out
}

/// Parses JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(T::deserialize(&value)?)
}

// ------------------------------------------------------------------ writing

/// The text [`Sink`]: writes each event straight into `out`. Arrays and
/// objects put each element on its own line when `indent` is set, and an
/// empty one is written `[]` or `{}`. Its methods are `#[inline]`: a
/// derived serializer is instantiated in its caller's crate, and these
/// calls are most of its work.
struct TextSink {
    out: String,
    /// Spaces per nesting level; `None` writes compact text.
    indent: Option<usize>,
    /// Arrays and objects open around the next value.
    depth: usize,
    /// Whether the innermost open array or object has no element yet.
    empty: bool,
    /// Whether a key was just written, so the next value is its field's.
    keyed: bool,
}

impl TextSink {
    /// Separates a value from what precedes it: nothing after a key or at
    /// the top level, else a comma unless it is the first element, then
    /// the element's line break.
    #[inline]
    fn value(&mut self) {
        if self.keyed {
            self.keyed = false;
        } else if self.depth > 0 {
            self.element();
        }
    }

    #[inline]
    fn element(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.newline();
    }

    #[inline]
    fn newline(&mut self) {
        if let Some(width) = self.indent {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', width * self.depth));
        }
    }

    #[inline]
    fn open(&mut self, bracket: char) {
        self.value();
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    #[inline]
    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.empty {
            self.newline();
        }
        self.out.push(bracket);
        self.empty = false;
    }

    /// Writes `n` in decimal. `write!(self.out, "{n}")` writes the same
    /// digits through `fmt`, and `to_string` of a 64-module executable
    /// took ~40% longer with it (2-core x86-64 Xeon).
    #[inline]
    fn digits(&mut self, mut n: u64) {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out.extend(buf[at..].iter().map(|&d| char::from(d)));
    }
}

impl Sink for TextSink {
    #[inline]
    fn null(&mut self) {
        self.value();
        self.out.push_str("null");
    }

    #[inline]
    fn bool(&mut self, b: bool) {
        self.value();
        self.out.push_str(if b { "true" } else { "false" });
    }

    #[inline]
    fn int(&mut self, n: i64) {
        self.value();
        if n < 0 {
            self.out.push('-');
        }
        self.digits(n.unsigned_abs());
    }

    #[inline]
    fn uint(&mut self, n: u64) {
        self.value();
        self.digits(n);
    }

    #[inline]
    fn float(&mut self, x: f64) {
        self.value();
        let _ = if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
            write!(self.out, "{x:.1}")
        } else {
            write!(self.out, "{x}")
        };
    }

    #[inline]
    fn str(&mut self, s: &str) {
        self.value();
        write_string(&mut self.out, s);
    }

    #[inline]
    fn begin_array(&mut self) {
        self.open('[');
    }

    #[inline]
    fn end_array(&mut self) {
        self.close(']');
    }

    #[inline]
    fn begin_object(&mut self) {
        self.open('{');
    }

    #[inline]
    fn key(&mut self, key: &str) {
        self.element();
        write_string(&mut self.out, key);
        self.out.push(':');
        if self.indent.is_some() {
            self.out.push(' ');
        }
        self.keyed = true;
    }

    #[inline]
    fn end_object(&mut self) {
        self.close('}');
    }
}

/// Writes `s` quoted, escaping `"`, `\` and the control characters. Text
/// between escapes is copied a run at a time.
#[inline]
fn write_string(out: &mut String, mut s: &str) {
    out.push('"');
    while let Some(i) = s.bytes().position(|b| b < 0x20 || b == b'"' || b == b'\\') {
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[..i]);
        match s.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        s = &s[i + 1..];
    }
    out.push_str(s);
    out.push('"');
}

// ------------------------------------------------------------------ parsing

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        let (mut line, mut col) = (1usize, 1usize);
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        Error(format!("{msg} at line {line} column {col}"))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.parse_lit("null", Value::Null),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if float {
            text.parse::<f64>().map(Value::Float).map_err(|_| self.err("invalid number"))
        } else if let Ok(n) = text.parse::<i64>() {
            Ok(Value::Int(n))
        } else if let Ok(n) = text.parse::<u64>() {
            Ok(Value::UInt(n))
        } else {
            Err(self.err("invalid number"))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        assert_eq!(to_string(&42i64).unwrap(), "42");
        assert_eq!(from_str::<i64>("42").unwrap(), 42);
        assert_eq!(from_str::<i64>("-7").unwrap(), -7);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert!(!from_str::<bool>("false").unwrap());
        assert_eq!(to_string("a\"b\\c\n").unwrap(), r#""a\"b\\c\n""#);
        assert_eq!(from_str::<String>(r#""a\"b\\c\n""#).unwrap(), "a\"b\\c\n");
    }

    #[test]
    fn round_trip_containers() {
        let v: Vec<Option<i64>> = vec![Some(1), None, Some(-3)];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,null,-3]");
        assert_eq!(from_str::<Vec<Option<i64>>>(&json).unwrap(), v);

        let pairs: Vec<(String, u64)> = vec![("a".into(), 1), ("b".into(), 2)];
        let json = to_string(&pairs).unwrap();
        assert_eq!(from_str::<Vec<(String, u64)>>(&json).unwrap(), pairs);
    }

    #[test]
    fn pretty_output_is_indented_and_parses_back() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("x".into())),
            ("items".into(), Value::Array(vec![Value::Int(1), Value::Int(2)])),
        ]);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"name\": \"x\""), "{pretty}");
        assert_eq!(from_str::<Value>(&pretty).unwrap(), v);
    }

    #[test]
    fn errors_carry_position() {
        let e = from_str::<Value>("{\"a\": }").unwrap_err();
        assert!(e.to_string().contains("line 1"), "{e}");
        assert!(from_str::<Value>("[1,2").is_err());
        assert!(from_str::<i64>("\"x\"").is_err());
    }

    #[test]
    fn large_u64_round_trips() {
        let n = u64::MAX;
        let json = to_string(&n).unwrap();
        assert_eq!(from_str::<u64>(&json).unwrap(), n);
    }
}
