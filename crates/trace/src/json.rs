//! The workspace's one JSON module: a strict RFC 8259 parser returning a
//! [`Json`] value, and the string and number writers every hand-written
//! JSON document here (Chrome traces, `results/BENCH_*.json`) is built
//! with. No serde in the dependency tree.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses exactly one well-formed JSON value (with optional
    /// surrounding whitespace).
    ///
    /// # Errors
    ///
    /// The byte offset and a message on the first error, trailing data
    /// after the value included.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser { text: s, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != s.len() {
            return Err(p.err("trailing data after the JSON value"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value (`None` for non-numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String value (`None` for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements (empty slice for non-arrays).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }
}

/// Validates that `s` is exactly one well-formed JSON value (with
/// optional surrounding whitespace): [`Json::parse`], discarding the
/// value.
///
/// # Errors
///
/// As [`Json::parse`].
pub fn validate_json(s: &str) -> Result<(), String> {
    Json::parse(s).map(drop)
}

/// Appends `s` as a JSON string literal with the required escapes.
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

/// Appends `v` as a JSON number: Rust's shortest round-trip form, so the
/// value reads back bit-exact, always with a decimal point or exponent so
/// it reads back as a float, and `null` for NaN/±∞, which JSON cannot
/// represent.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let start = out.len();
        let _ = write!(out, "{v}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// Nesting depth bound — far above anything the exporters emit, small
/// enough that the recursive parser cannot overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("invalid JSON at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", want as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Json::Obj(fields)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}' in object"));
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Json::Arr(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']' in array"));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte
            // whole; it never splits a UTF-8 sequence.
            let run = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    _ => return Err(self.err("bad escape character")),
                },
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character of a `\u` escape whose `u` was just consumed,
    /// joining a surrogate pair; a lone surrogate becomes U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if (0xd800..0xdc00).contains(&hi) && self.text[self.pos..].starts_with("\\u") {
            let back = self.pos;
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xdc00..0xe000).contains(&lo) {
                let c = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                return Ok(char::from_u32(c).unwrap_or('\u{fffd}'));
            }
            self.pos = back;
        }
        Ok(char::from_u32(hi).unwrap_or('\u{fffd}'))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0;
        for _ in 0..4 {
            let digit = self
                .bump()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("bad \\u escape"))?;
            v = v * 16 + digit;
        }
        Ok(v)
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits()?,
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        self.text[start..self.pos]
            .parse()
            .map(Json::Num)
            .map_err(|_| self.err("number out of range"))
    }

    fn digits(&mut self) -> Result<(), String> {
        if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
            return Err(self.err("expected a digit"));
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for s in [
            "{}",
            "[]",
            "null",
            "true",
            "-0.5e+10",
            "\"a\\n\\u0041\"",
            r#"{"a":[1,2,{"b":null}],"c":"d"}"#,
            "  { \"x\" : [ 1 , 2 ] }  ",
            "0",
            "[0.125, 1e3, -7]",
        ] {
            validate_json(s).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
        let doc =
            Json::parse(r#"{"a": [1, -2.5e3, true, null], "k": "a{}\"\\\nμs\u00e9\ud83d\ude00"}"#)
                .expect("parses");
        assert_eq!(
            doc.get("a").map(Json::items),
            Some(
                &[
                    Json::Num(1.0),
                    Json::Num(-2500.0),
                    Json::Bool(true),
                    Json::Null
                ][..]
            )
        );
        assert_eq!(doc.get("k").and_then(Json::as_str), Some("a{}\"\\\nμsé😀"));
    }

    #[test]
    fn rejects_invalid_documents() {
        for s in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "1.",
            "1e",
            "nul",
            "\"unterminated",
            "\"bad\\q\"",
            "\"\\u12g4\"",
            "{} {}",
            "[1] extra",
            "Infinity",
            "NaN",
            "'single'",
            "{1: 2}",
        ] {
            assert!(validate_json(s).is_err(), "should reject: {s}");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(4000) + &"]".repeat(4000);
        assert!(validate_json(&deep).is_err());
    }

    #[test]
    fn rejects_raw_control_characters() {
        assert!(validate_json("\"a\u{1}b\"").is_err());
    }

    #[test]
    fn writers_round_trip_through_the_parser() {
        for s in ["", "plain", "a\"b\\c\nd\u{1}\t\r", "μs 😀"] {
            let mut out = String::new();
            write_str(&mut out, s);
            assert_eq!(Json::parse(&out), Ok(Json::Str(s.to_string())), "{out}");
        }
        for v in [0.0, -0.0, 3.0, 0.1, 1.0 / 3.0, 1e300, -2.5e-300] {
            let mut out = String::new();
            write_f64(&mut out, v);
            assert!(out.contains(['.', 'e', 'E']), "{out} must read as a float");
            let back = Json::parse(&out).ok().and_then(|j| j.as_f64());
            assert_eq!(back.map(f64::to_bits), Some(v.to_bits()), "{v} -> {out}");
        }
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }
}
