//! The workspace's JSON codec: [`quote`] writes a string literal, and
//! [`Json::parse`] reads a whole document into a small value tree that
//! answers lookups by key ([`Json::get`]) or by dotted path
//! ([`Json::at`]).
//!
//! Numbers keep their source text, so an integer reads back exactly
//! through [`Json::u64`] instead of detouring through `f64`. Nesting
//! deeper than [`MAX_DEPTH`] is an error, not a stack overflow, and no
//! input makes the parser panic.

use std::fmt::{self, Write};

/// Deepest nesting of arrays and objects [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its (grammar-checked) source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's members, in document order.
    Obj(Vec<(String, Json)>),
}

/// Why a document did not parse, and the byte offset where it failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What was wrong there.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl Json {
    /// Parse one complete document; anything but whitespace after it is
    /// an error. Accepts any bytes: invalid UTF-8 inside a string is an
    /// error, never a panic.
    pub fn parse(input: impl AsRef<[u8]>) -> Result<Json, JsonError> {
        let mut p = Parser {
            s: input.as_ref(),
            i: 0,
        };
        let value = p.value(0)?;
        p.ws();
        if p.i != p.s.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// The member `key` of an object (the first, if repeated); `None`
    /// for a missing key or a value that is not an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Follow a dot-separated path of object keys and array indices:
    /// `"graphs.parses"`, `"results.0.engine"`.
    pub fn at(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |value, step| match value {
            Json::Arr(items) => items.get(step.parse::<usize>().ok()?),
            _ => value.get(step),
        })
    }

    /// A non-negative integer, exactly as written (`None` for fractions,
    /// exponents, negatives, out-of-range values and non-numbers).
    pub fn u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// Any number, as the nearest `f64`.
    pub fn f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The text of a string value.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items of an array value.
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// `s` as a JSON string literal, quotes included: `"` and `\` are
/// backslash-escaped, and so are control characters (`\n`, `\r`, `\t`,
/// else `\u00XX`). Everything else passes through as UTF-8.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError {
            offset: self.i,
            msg,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.i += usize::from(hit);
        hit
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// A value at nesting `depth`, leading whitespace included.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.ws();
        match self.peek() {
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if !self.s[self.i..].starts_with(word.as_bytes()) {
            return Err(self.err("unknown literal"));
        }
        self.i += word.len();
        Ok(value)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.i += 1; // '['
        let mut items = Vec::new();
        self.ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.i += 1; // '{'
        let mut members = Vec::new();
        self.ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(members));
        }
        loop {
            self.ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a member name"));
            }
            let key = self.string()?;
            self.ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':'"));
            }
            members.push((key, self.value(depth)?));
            self.ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(members));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, kept as
    /// text.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        let text = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
        Ok(Json::Num(text))
    }

    /// One or more ASCII digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.i;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            return Err(self.err("expected a digit"));
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.i += 1; // opening '"'
        let mut out = Vec::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.i += 1;
            match b {
                b'"' => {
                    return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8 in string"))
                }
                b'\\' => {
                    let Some(escape) = self.peek() else {
                        return Err(self.err("unterminated string"));
                    };
                    self.i += 1;
                    let c = match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.err("bad escape")),
                    };
                    let mut buf = [0; 4];
                    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                }
                0..=0x1f => return Err(self.err("control character in string")),
                _ => out.push(b),
            }
        }
    }

    /// The code point of a `\uXXXX` escape (its `\u` already consumed),
    /// joining a UTF-16 surrogate pair into one character.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let high = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&high) {
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err(self.err("unpaired surrogate"));
            }
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("unpaired surrogate"));
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.err("bad \\u escape"))?;
            code = code * 16 + digit;
            self.i += 1;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        assert_eq!(quote("tab\there\r"), "\"tab\\there\\r\"");
        assert_eq!(
            quote("ünï/cödé"),
            "\"ünï/cödé\"",
            "non-ASCII and '/' pass through"
        );
    }

    #[test]
    fn reads_nested_documents_by_key_and_path() {
        let doc = Json::parse(
            br#" {"job":17,"state":"queued","cache":{"hits":3},"graphs":{"hits":9},
                 "spans":[{"phase":"parse"},{"phase":"layout"}],"ok":true,"gone":null} "#,
        )
        .unwrap();
        assert_eq!(doc.get("job").and_then(Json::u64), Some(17));
        assert_eq!(doc.get("state").and_then(Json::str), Some("queued"));
        assert_eq!(doc.at("graphs.hits").and_then(Json::u64), Some(9));
        assert_eq!(doc.at("cache.hits").and_then(Json::u64), Some(3));
        assert_eq!(doc.get("hits"), None, "lookups never match nested keys");
        assert_eq!(doc.at("spans.1.phase").and_then(Json::str), Some("layout"));
        assert_eq!(doc.at("spans.2.phase"), None);
        assert_eq!(
            doc.get("spans").and_then(Json::arr).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("gone"), Some(&Json::Null));
        assert_eq!(
            doc.get("state").and_then(Json::u64),
            None,
            "a string is not a number"
        );
        assert_eq!(
            doc.get("job").and_then(Json::str),
            None,
            "a number is not a string"
        );
    }

    #[test]
    fn numbers_keep_their_text() {
        let doc = Json::parse(format!(
            "[{},9007199254740993,-4,2.5e3,0.125,1E-2]",
            u64::MAX
        ))
        .unwrap();
        let items = doc.arr().unwrap();
        assert_eq!(items[0].u64(), Some(u64::MAX));
        assert_eq!(
            items[1].u64(),
            Some(9_007_199_254_740_993),
            "no f64 rounding"
        );
        assert_eq!(items[2].u64(), None);
        assert_eq!(items[2].f64(), Some(-4.0));
        assert_eq!(items[3].f64(), Some(2500.0));
        assert_eq!(
            items[3].u64(),
            None,
            "exponent forms are not exact integers"
        );
        assert_eq!(items[4].f64(), Some(0.125));
        assert_eq!(items[5].f64(), Some(0.01));
    }

    #[test]
    fn string_escapes_decode() {
        let doc = Json::parse(r#""q\" b\\ s\/ \b\f\n\r\t \u00e9 \ud83d\ude00""#).unwrap();
        assert_eq!(doc.str(), Some("q\" b\\ s/ \u{8}\u{c}\n\r\t é 😀"));
        for s in [
            "",
            "engine \"boom\" panicked",
            "\u{0}\u{1f}\u{7f}",
            "日本語 ∑ 😀",
        ] {
            assert_eq!(Json::parse(quote(s)).unwrap().str(), Some(s));
        }
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in [
            "",
            " ",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{a:1}",
            "[1 2]",
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"raw\ncontrol\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "tru",
            "nul",
            "{} {}",
            "[1] x",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert!(
            Json::parse(b"\"\xff\"").is_err(),
            "invalid UTF-8 in a string"
        );
        let err = Json::parse("[1,]").unwrap_err();
        assert_eq!(err.offset, 3);
        assert_eq!(err.to_string(), "unexpected character at byte 3");
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(Json::parse(&deep).unwrap_err().msg, "nesting too deep");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert_eq!(Json::parse(&objects).unwrap_err().msg, "nesting too deep");
    }
}
