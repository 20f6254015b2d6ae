//! The workspace's one JSON value model, parser and string escaper.
//!
//! Every JSON artifact — the JSONL trace, `PERF_baseline*.json`,
//! `BENCH_*.json` and `LINT_report.json` — is written by its own
//! fixed-layout emitter, because byte-identical files are part of each
//! artifact's contract. Those emitters share [`write_str`] for string
//! literals, and every reader goes through [`parse`].
//!
//! The parser follows RFC 8259, with one rule for numbers: an integer
//! literal that fits in a `u64` becomes [`Value::UInt`], any other number
//! becomes [`Value::Float`]. Callers apply their own range checks on top.

use std::fmt::{self, Write as _};

/// Objects and arrays nested deeper than this are rejected rather than
/// recursed into, so hostile input cannot overflow the stack. The
/// workspace's own files nest at most four levels.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An integer literal that fits in a `u64`.
    UInt(u64),
    /// Any other number: negative, fractional, exponent or oversized.
    Float(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's members in document order (duplicate keys are kept).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The first member named `key`, when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The integer, when `self` is a [`Value::UInt`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, when `self` is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, when `self` is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members in document order, when `self` is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Why a document failed to parse.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input where the problem was found.
    pub byte: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.byte)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; only whitespace may follow the value.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != text.len() {
        return parser.fail("trailing content after the value");
    }
    Ok(value)
}

/// Appends `s` to `out` as a quoted JSON string literal: `"` and `\` are
/// escaped, `\n`, `\r` and `\t` use their short forms, and every other
/// control character becomes `\u00XX`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, message: &str) -> Result<T, JsonError> {
        Err(JsonError {
            byte: self.pos,
            message: message.to_string(),
        })
    }

    fn peek_byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek_byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `b` if it is the next byte.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek_byte() == Some(b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    /// Consumes `lit` if the input continues with it.
    fn eat_literal(&mut self, lit: &str) -> bool {
        let hit = self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek_byte() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => self.fail("nesting too deep"),
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(Value::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(b':') {
                        return self.fail("expected ':' after an object key");
                    }
                    members.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat(b'}') {
                        return Ok(Value::Obj(members));
                    }
                    if !self.eat(b',') {
                        return self.fail("expected ',' or '}' in an object");
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(b']') {
                        return Ok(Value::Arr(items));
                    }
                    if !self.eat(b',') {
                        return self.fail("expected ',' or ']' in an array");
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.eat_literal("null") => Ok(Value::Null),
            _ if self.eat_literal("true") => Ok(Value::Bool(true)),
            _ if self.eat_literal("false") => Ok(Value::Bool(false)),
            _ => self.fail("expected a value"),
        }
    }

    /// Consumes a run of ASCII digits and returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek_byte(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.text.as_bytes()[int_start] == b'0') {
            return self.fail("malformed number");
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            if self.digits() == 0 {
                return self.fail("expected digits after the decimal point");
            }
        }
        if self.eat(b'e') || self.eat(b'E') {
            integral = false;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return self.fail("expected digits in the exponent");
            }
        }
        let literal = &self.text[start..self.pos];
        if integral {
            if let Ok(v) = literal.parse::<u64>() {
                return Ok(Value::UInt(v));
            }
        }
        match literal.parse::<f64>() {
            Ok(v) => Ok(Value::Float(v)),
            Err(_) => self.fail("malformed number"),
        }
    }

    /// Parses a string literal starting at its opening quote.
    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat(b'"') {
            return self.fail("expected a string");
        }
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte; those are ASCII, so the slice ends on a char boundary.
            let run = self.pos;
            while matches!(self.peek_byte(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek_byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return self.fail("raw control character in a string"),
                None => return self.fail("unterminated string"),
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let Some(b) = self.peek_byte() else {
            return self.fail("unterminated string");
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let unit = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&unit) {
                    // A high surrogate must pair with an escaped low one.
                    if !self.eat_literal("\\u") {
                        return self.fail("lone surrogate in a \\u escape");
                    }
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return self.fail("lone surrogate in a \\u escape");
                    }
                    0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    unit
                };
                match char::from_u32(code) {
                    Some(c) => c,
                    None => return self.fail("lone surrogate in a \\u escape"),
                }
            }
            _ => {
                self.pos -= 1;
                return self.fail("unknown escape");
            }
        })
    }

    /// Reads the four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok());
        match code {
            Some(code) => {
                self.pos += 4;
                Ok(code)
            }
            None => self.fail("expected four hex digits in a \\u escape"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quoted(s: &str) -> String {
        let mut out = String::new();
        write_str(&mut out, s);
        out
    }

    #[test]
    fn documents_parse_in_order_with_the_number_rule() {
        let doc = parse(
            r#" {"b": [1, -2, 3.5, 1e2, 18446744073709551616], "a": {"x": null},
                            "t": true, "f": false, "b": "again"} "#,
        )
        .expect("parse");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["b", "a", "t", "f", "b"]);
        assert_eq!(
            doc.get("b").and_then(Value::as_array).expect("array"),
            [
                Value::UInt(1),
                Value::Float(-2.0),
                Value::Float(3.5),
                Value::Float(100.0),
                Value::Float(18_446_744_073_709_551_616.0),
            ]
        );
        assert_eq!(doc.get("a").and_then(|a| a.get("x")), Some(&Value::Null));
        assert_eq!(doc.get("t"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("f"), Some(&Value::Bool(false)));
        assert_eq!(parse("18446744073709551615"), Ok(Value::UInt(u64::MAX)));
        assert_eq!(parse("-0"), Ok(Value::Float(-0.0)));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "{} trailing",
            "[1, 2,]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{1: 2}",
            "01",
            "1.",
            "-",
            ".5",
            "1e",
            "+1",
            "nul",
            "tru",
            "\"abc",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"a\tb\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "[\u{c}1]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert_eq!(
            parse(&deep).expect_err("too deep").message,
            "nesting too deep"
        );
        let nested = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&nested).is_ok());
        assert_eq!(parse("[1, x]").expect_err("bad value").byte, 4);
    }

    #[test]
    fn escapes_decode_and_round_trip() {
        let raw = "a\"b\\c\nd\te\u{1}f\u{e9}\r\u{8}\u{c}\u{1f}\u{7f}\u{1F600}";
        let text = quoted(raw);
        assert_eq!(
            text,
            "\"a\\\"b\\\\c\\nd\\te\\u0001f\u{e9}\\r\\u0008\\u000c\\u001f\u{7f}\u{1F600}\""
        );
        assert_eq!(parse(&text), Ok(Value::Str(raw.to_string())));
        assert_eq!(
            parse(r#""\/\b\f\u00e9\uD83D\uDE00""#),
            Ok(Value::Str("/\u{8}\u{c}\u{e9}\u{1F600}".to_string()))
        );
    }
}
