//! A std-only JSON reader, and the workspace's one JSON string escaper.
//!
//! [`parse`] reads a whole document into a [`Value`]. A number written
//! without a fraction or exponent parses exactly into [`Value::Int`]:
//! registry gauges, journal events and `/ledger` carry full-width `u64`
//! values (generation stamps, ε bit patterns) that an `f64` would round.
//! Every other number is a finite [`Value::Float`].
//!
//! The validators feed it files from outside the program, so malformed
//! input is an error naming the byte offset where reading stopped, never
//! a panic. That covers truncation, content after the document,
//! duplicate object keys, bad escapes and unpaired surrogates, and
//! nesting deeper than [`MAX_DEPTH`], which bounds the reader's
//! recursion so deep input cannot overflow the stack.
//!
//! [`write_str`] is the escaper every JSON writer in the workspace uses
//! (the Chrome-trace exporter and `socialrec-experiments`' `ToJson`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number without fraction or exponent, read exactly (every `u64`
    /// and every `i64` fits).
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; keys are unique (a duplicate is a parse error).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The member `key` of an object (`None` for a non-object).
    pub fn get(&self, key: &str) -> Option<&Value> {
        if let Value::Object(members) = self {
            members.get(key)
        } else {
            None
        }
    }

    /// An integer in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        if let Value::Int(i) = *self {
            u64::try_from(i).ok()
        } else {
            None
        }
    }

    /// An integer in `i64` range.
    pub fn as_i64(&self) -> Option<i64> {
        if let Value::Int(i) = *self {
            i64::try_from(i).ok()
        } else {
            None
        }
    }

    /// Any number, as the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(x) => Some(x),
            _ => None,
        }
    }

    /// A string's contents.
    pub fn as_str(&self) -> Option<&str> {
        if let Value::Str(s) = self {
            Some(s)
        } else {
            None
        }
    }

    /// A bool.
    pub fn as_bool(&self) -> Option<bool> {
        if let Value::Bool(b) = *self {
            Some(b)
        } else {
            None
        }
    }

    /// An array's elements.
    pub fn as_array(&self) -> Option<&[Value]> {
        if let Value::Array(items) = self {
            Some(items)
        } else {
            None
        }
    }

    /// Whether this is an object.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }
}

/// Parse one JSON document; surrounding whitespace is allowed, anything
/// else after the document is an error. Errors read
/// `"<reason> at byte <offset>"`.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut reader = Reader { text, bytes: text.as_bytes(), pos: 0 };
    let value = reader.value(0)?;
    reader.skip_ws();
    if reader.pos != reader.bytes.len() {
        return Err(reader.err("trailing content"));
    }
    Ok(value)
}

/// Append `s` to `out` as a quoted JSON string: `"` and `\` escaped,
/// `\n`, `\r` and `\t` by name, other control characters as `\u00XX`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn err(&self, reason: &str) -> String {
        format!("{reason} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// One value; `depth` counts the arrays and objects around it.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if !self.bytes[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.err("expected a value"));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Array(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key_at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':'"));
            }
            let value = self.value(depth)?;
            if members.insert(key, value).is_some() {
                return Err(format!("duplicate key at byte {key_at}"));
            }
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Object(members));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte. All three are ASCII, so both ends of the run sit on
            // char boundaries of the (valid UTF-8) input.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// The character an escape after `\` stands for.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let at = self.pos;
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.eat(b'\\') && self.eat(b'u') {
                    let low = self.hex4()?;
                    code = match low {
                        0xDC00..=0xDFFF => 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00),
                        _ => u32::MAX,
                    };
                }
                // A lone or mismatched surrogate is no `char`.
                return char::from_u32(code)
                    .ok_or_else(|| format!("unpaired surrogate at byte {at}"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.peek().and_then(|b| char::from(b).to_digit(16));
            code = code * 16 + digit.ok_or_else(|| self.err("expected four hex digits"))?;
            self.pos += 1;
        }
        Ok(code)
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        let mut ok = self.eat(b'0') || self.digits();
        let integral = !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        if self.eat(b'.') {
            ok &= self.digits();
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            ok &= self.digits();
        }
        if !ok {
            return Err(self.err("expected a digit"));
        }
        let text = &self.text[start..self.pos];
        match text.parse::<i128>() {
            Ok(i) if integral => Ok(Value::Int(i)),
            _ => match text.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(Value::Float(x)),
                _ => Err(format!("number out of range at byte {start}")),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err(text: &str) -> String {
        parse(text).unwrap_err()
    }

    #[test]
    fn reads_every_value_type() {
        let v = parse(" {\"a\": [null, true, false, 0, -7, 2.5, \"s\"], \"b\": {}} \n").unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0], Value::Null);
        assert_eq!((a[1].as_bool(), a[2].as_bool()), (Some(true), Some(false)));
        assert_eq!((a[3].as_u64(), a[4].as_i64(), a[5].as_f64()), (Some(0), Some(-7), Some(2.5)));
        assert_eq!(a[6].as_str(), Some("s"));
        assert!(v.get("b").unwrap().is_object() && v.get("c").is_none());
    }

    #[test]
    fn integers_are_exact_at_full_width() {
        // A generation stamp above i64::MAX and 2^53, as the registry
        // and the journal write them.
        assert_eq!(parse("15243249774799408224").unwrap().as_u64(), Some(15243249774799408224));
        assert_eq!(parse(&u64::MAX.to_string()).unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(parse(&i64::MIN.to_string()).unwrap().as_i64(), Some(i64::MIN));
        assert_eq!(parse("-1").unwrap().as_u64(), None, "negative is not a u64");
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None, "u64::MAX + 1");
        assert_eq!(parse("1.0").unwrap().as_u64(), None, "a float is not an integer");
        for x in [0.1f64, 1e-7, 6.02e23, f64::MAX, f64::MIN_POSITIVE] {
            let back = parse(&format!("{x:?}")).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
        assert_eq!(parse("2.5E+3").unwrap().as_f64(), Some(2500.0));
    }

    #[test]
    fn strings_decode_every_escape() {
        let v = parse(r#""q\" b\\ s\/ \b\f\n\r\t \u0001\u00e9 \ud83d\ude00 é""#).unwrap();
        assert_eq!(v.as_str(), Some("q\" b\\ s/ \u{8}\u{c}\n\r\t \u{1}é 😀 é"));
        // Everything the escaper writes reads back unchanged.
        let all: String = (0u32..0x80).filter_map(char::from_u32).chain(['é', '😀']).collect();
        let mut out = String::new();
        write_str(&mut out, &all);
        assert_eq!(parse(&out).unwrap().as_str(), Some(all.as_str()));
        assert!(out.contains("\\u0001") && out.contains("\\u001f") && out.contains("\\n"));
    }

    #[test]
    fn malformed_input_is_an_error_at_an_offset() {
        assert_eq!(err("{\"a\": 1, \"a\": 2}"), "duplicate key at byte 9");
        assert_eq!(err("{} x"), "trailing content at byte 3");
        assert_eq!(err("[1, 2"), "expected ',' or ']' at byte 5");
        assert_eq!(err("{\"a\" 1}"), "expected ':' at byte 5");
        assert_eq!(err(""), "unexpected end of input at byte 0");
        assert_eq!(err("\"\\ud800\""), "unpaired surrogate at byte 3");
        assert_eq!(err("\"\\udc00\""), "unpaired surrogate at byte 3");
        assert_eq!(err("\"\\ud800\\u0041\""), "unpaired surrogate at byte 3");
        assert_eq!(err("\"\\x\""), "invalid escape at byte 2");
        assert_eq!(err("\"\\u12\""), "expected four hex digits at byte 5");
        assert_eq!(err("\"a\u{1}\""), "control character in string at byte 2");
        assert_eq!(err("\"open"), "unterminated string at byte 5");
        assert_eq!(err("1e999"), "number out of range at byte 0");
        for bad in ["01", "1.", "-", ".5", "1e", "+1", "tru", "NaN", "Infinity", "{1: 2}", "[1,]"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(err(&nest(MAX_DEPTH + 1)), format!("nesting too deep at byte {MAX_DEPTH}"));
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(err(&objects).starts_with("nesting too deep"));
        // Far past the limit: an error, not a stack overflow.
        assert!(err(&"[".repeat(1 << 20)).starts_with("nesting too deep"));
    }
}
