//! A minimal JSON codec: a value tree ([`parse`], navigate, serialize)
//! and a pull [`Reader`] that yields a document's tokens without building
//! one.
//!
//! The workspace forbids registry crates, so the wire layer carries its
//! own codec. Three properties matter for the protocol and are pinned by
//! tests:
//!
//! * **Integer fidelity** — whole numbers parse into `i64` (not through
//!   `f64`), because timestamps legitimately exceed 2⁵³ (the differential
//!   workload uses `i64::MAX / 4` interval bounds). Floats round-trip via
//!   Rust's shortest-representation formatting.
//! * **Bounded recursion** — nesting is capped (`MAX_DEPTH`), so a
//!   `[[[[…` bomb from the network is a parse error, not a stack
//!   overflow.
//! * **One grammar** — [`parse`] and the [`Reader`] share the string,
//!   escape and number routines and the depth cap, so they accept the
//!   same documents and read the same values from them, and fail on the
//!   same byte with the same reason. The request path decodes bodies with
//!   the reader only ([`crate::wire`]'s typed decoders), which write every
//!   `400` body too; the tree is the reader's grammar oracle in tests, and
//!   what clients and tests parse replies with.
//!
//! Object keys keep their insertion order; serialization is therefore
//! deterministic, which the byte-identical server-equivalence harness
//! relies on.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Maximum nesting depth accepted by the parser.
pub(crate) const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that is a whole integer in `i64` range.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `i64` (integers only).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a `u64` (non-negative integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(v) => Some(v as f64),
            Json::Num(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value (compact, deterministic).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write_bool(out, *b),
            Json::Int(v) => write_int(out, *v),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes an integer as [`Json::Int`] does.
pub(crate) fn write_int(out: &mut String, v: i64) {
    let _ = write!(out, "{v}");
}

/// Writes a float as [`Json::Num`] does.
pub(crate) fn write_num(out: &mut String, v: f64) {
    // Rust's Display for f64 is shortest-round-trip and never scientific;
    // non-finite values cannot occur in results (histogram construction
    // drops them) — encode defensively as null rather than emit invalid
    // JSON.
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        debug_assert!(false, "non-finite number in wire value");
        out.push_str("null");
    }
}

/// Writes a bool as [`Json::Bool`] does.
pub(crate) fn write_bool(out: &mut String, v: bool) {
    out.push_str(if v { "true" } else { "false" });
}

/// Writes a string as [`Json::Str`] does.
pub(crate) fn write_string(out: &mut String, s: &str) {
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

/// A parse failure: byte offset and reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid json at byte {}: {}", self.at, self.reason)
    }
}

/// Parses a complete JSON document (trailing non-whitespace is an error).
pub fn parse(bytes: &[u8]) -> Result<Json, JsonError> {
    let mut p = Parser::new(bytes)?;
    p.skip_ws();
    let value = p.value(0)?;
    p.end()?;
    Ok(value)
}

/// One token of a JSON document, as [`Reader::next`] yields it.
#[derive(Clone, Debug, PartialEq)]
pub enum Token<'a> {
    /// `{`.
    BeginObj,
    /// `}`.
    EndObj,
    /// `[`.
    BeginArr,
    /// `]`.
    EndArr,
    /// An object key, borrowed from the input unless it has escapes.
    Key(Cow<'a, str>),
    /// A string value, borrowed likewise.
    Str(Cow<'a, str>),
    /// A number that is a whole integer in `i64` range ([`Json::Int`]).
    Int(i64),
    /// Any other number ([`Json::Num`]).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// A pull reader: the tokens of one JSON document in order, with no tree.
///
/// It accepts exactly the documents [`parse`] accepts, and a value read
/// from it equals the tree's: the two share every routine below the
/// structure, and the nesting cap is the same `MAX_DEPTH`. The end of
/// a well-formed document is `Ok(None)`; an error ends the document, and
/// every later call returns it again.
pub struct Reader<'a> {
    p: Parser<'a>,
    /// Open containers, innermost last: `true` for an object.
    open: Vec<bool>,
    state: State,
}

/// Where a [`Reader`] stands between two tokens.
#[derive(Clone, Copy)]
enum State {
    /// Before the root value.
    Start,
    /// After `{` or `[`: a first member or item, or the close.
    Opened,
    /// After a key: `:` and its value.
    Key,
    /// After a complete value: `,` or the close — or, at the root, the
    /// end of input.
    Value,
    /// After an error, which every later call returns.
    Failed(JsonError),
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, which must be UTF-8 (as [`parse`] requires).
    pub fn new(bytes: &'a [u8]) -> Result<Reader<'a>, JsonError> {
        Ok(Reader {
            p: Parser::new(bytes)?,
            open: Vec::new(),
            state: State::Start,
        })
    }

    /// The next token, or `None` once the document is complete.
    ///
    /// Always inlined, with the number routine: a typed decoder's match
    /// on the token then folds into the code that makes it, which is
    /// most of the typed path's lead over the tree on number-dense
    /// bodies.
    #[allow(clippy::should_implement_trait)] // fallible: not an Iterator
    #[inline(always)]
    pub fn next(&mut self) -> Result<Option<Token<'a>>, JsonError> {
        self.step().inspect_err(|&e| self.state = State::Failed(e))
    }

    /// [`Self::next`] before an error is recorded as the reader's state.
    #[inline(always)]
    fn step(&mut self) -> Result<Option<Token<'a>>, JsonError> {
        self.p.skip_ws();
        match self.state {
            State::Failed(e) => return Err(e),
            State::Start => {}
            State::Key => {
                self.p.eat(b':', "expected ':'")?;
                self.p.skip_ws();
            }
            State::Opened | State::Value => {
                let Some(&object) = self.open.last() else {
                    return self.p.end().map(|()| None);
                };
                let (close, reason) = if object {
                    (b'}', "expected ',' or '}'")
                } else {
                    (b']', "expected ',' or ']'")
                };
                if self.p.peek() == Some(close) {
                    self.p.pos += 1;
                    self.open.pop();
                    self.state = State::Value;
                    return Ok(Some(if object { Token::EndObj } else { Token::EndArr }));
                }
                if let State::Value = self.state {
                    self.p.eat(b',', reason)?;
                    self.p.skip_ws();
                }
                if object {
                    self.state = State::Key;
                    return Ok(Some(Token::Key(self.p.string()?)));
                }
            }
        }
        self.value().map(Some)
    }

    #[inline(always)]
    fn value(&mut self) -> Result<Token<'a>, JsonError> {
        let p = &mut self.p;
        if self.open.len() > MAX_DEPTH {
            return Err(p.err("nesting too deep"));
        }
        self.state = State::Value;
        Ok(match p.peek() {
            Some(open @ (b'{' | b'[')) => {
                p.pos += 1;
                self.open.push(open == b'{');
                self.state = State::Opened;
                if open == b'{' {
                    Token::BeginObj
                } else {
                    Token::BeginArr
                }
            }
            Some(b'"') => Token::Str(p.string()?),
            Some(b't') => p.literal("true").map(|()| Token::Bool(true))?,
            Some(b'f') => p.literal("false").map(|()| Token::Bool(false))?,
            Some(b'n') => p.literal("null").map(|()| Token::Null)?,
            Some(b'-' | b'0'..=b'9') => p.number()?,
            _ => return Err(p.err("expected a value")),
        })
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(bytes: &'a [u8]) -> Result<Parser<'a>, JsonError> {
        let text = std::str::from_utf8(bytes).map_err(|e| JsonError {
            at: e.valid_up_to(),
            reason: "invalid utf-8",
        })?;
        Ok(Parser {
            text,
            bytes,
            pos: 0,
        })
    }

    /// Accepts only whitespace up to the end of input.
    fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters"))
        }
    }

    fn err(&self, reason: &'static str) -> JsonError {
        JsonError {
            at: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, reason: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => match self.number()? {
                Token::Int(v) => Ok(Json::Int(v)),
                Token::Num(v) => Ok(Json::Num(v)),
                _ => unreachable!("number() yields number tokens"),
            },
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, text: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?.into_owned();
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
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
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// A string, borrowed from the input when it has no escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let start = self.pos;
        self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = self.text[start..self.pos].to_owned();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
            let run = self.pos;
            self.plain_run();
            out.push_str(&self.text[run..self.pos]);
        }
    }

    /// Skips a run of bytes that stand for themselves in a string. The
    /// run ends on an ASCII byte or the end of input, so both ends are
    /// char boundaries: multi-byte UTF-8 units are all ≥ 0x80.
    fn plain_run(&mut self) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len());
    }

    /// Decodes the escape after a `\` onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let unit = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&unit) {
                    // Surrogate pair: require the low half.
                    self.eat(b'\\', "expected low surrogate")?;
                    self.eat(b'u', "expected low surrogate")?;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(code)
                } else {
                    char::from_u32(unit)
                };
                out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
            }
            _ => return Err(self.err("invalid escape")),
        }
        Ok(())
    }

    /// Exactly four ASCII hex digits (`u32::from_str_radix` would also
    /// take a leading `+`).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        let mut v = 0;
        for &b in digits {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid unicode escape"))?;
            v = v << 4 | digit;
        }
        self.pos += 4;
        Ok(v)
    }

    /// A number: [`Token::Int`] when it is a whole number in `i64` range,
    /// else [`Token::Num`].
    #[inline(always)]
    fn number(&mut self) -> Result<Token<'static>, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digit_start = self.pos;
        let int_digits = self.digits()?;
        if int_digits > 1 && self.bytes[digit_start] == b'0' {
            return Err(self.err("leading zero"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        if integral && int_digits <= 18 {
            // Always in `i64` range: the value `str::parse::<i64>` would
            // read, without scanning the digits again.
            let magnitude = self.bytes[digit_start..self.pos]
                .iter()
                .fold(0, |v, &d| v * 10 + i64::from(d - b'0'));
            let negative = digit_start > start;
            return Ok(Token::Int(if negative { -magnitude } else { magnitude }));
        }
        let text = &self.text[start..self.pos];
        if integral {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Token::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Token::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn digits(&mut self) -> Result<usize, JsonError> {
        let count = self.bytes[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        if count == 0 {
            return Err(self.err("expected digits"));
        }
        self.pos += count;
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_values() {
        let doc = br#"{"a":[1,2.5,-3,true,false,null],"s":"x\"\\\n\u00e9\ud83d\ude00","big":2305843009213693951}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("big").unwrap().as_i64(), Some(i64::MAX / 4));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\"\\\né😀"));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_i64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_i64(), Some(-3));
        // Re-encode → re-parse is identity.
        let re = parse(v.encode().as_bytes()).unwrap();
        assert_eq!(re, v);
    }

    #[test]
    fn integers_beyond_f64_precision_survive() {
        let v = parse(b"9007199254740993").unwrap(); // 2^53 + 1
        assert_eq!(v.as_i64(), Some(9007199254740993));
        assert_eq!(parse(v.encode().as_bytes()).unwrap(), v);
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for f in [0.1, 1.0 / 3.0, 6.5, 1e-12, 123456.789012345] {
            let encoded = Json::Num(f).encode();
            let back = parse(encoded.as_bytes()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} via {encoded}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            &b""[..],
            b"{",
            b"}",
            b"[1,]",
            b"{\"a\":}",
            b"{\"a\" 1}",
            b"01",
            b"1.",
            b"+1",
            b"--1",
            b"\"unterminated",
            b"\"bad \\q escape\"",
            b"\"\\ud800\"",
            b"\"\\u+041\"",
            b"\"\\u004\"",
            b"tru",
            b"nulll",
            b"1 2",
            b"\xff\xfe",
            b"{\"a\":1,}",
            b"{1:2}",
            b"[1}",
            b"{\"a\":1]",
        ] {
            assert!(parse(doc).is_err(), "{:?} must not parse", doc);
            assert!(drain(doc).is_err(), "{:?} must not read", doc);
        }
    }

    /// Every token of a document, or the reader's error.
    fn drain(doc: &[u8]) -> Result<Vec<Token<'_>>, JsonError> {
        let mut reader = Reader::new(doc)?;
        let mut tokens = Vec::new();
        while let Some(token) = reader.next()? {
            tokens.push(token);
        }
        Ok(tokens)
    }

    #[test]
    fn reader_yields_the_documents_tokens_borrowing_plain_strings() {
        let tokens =
            drain(br#" {"a" : [1, -2.5e1, "x\ny"], "\u0062":{}, "c":[true,false,null]} "#).unwrap();
        assert_eq!(
            tokens,
            [
                Token::BeginObj,
                Token::Key(Cow::Borrowed("a")),
                Token::BeginArr,
                Token::Int(1),
                Token::Num(-25.0),
                Token::Str(Cow::Owned("x\ny".to_string())),
                Token::EndArr,
                Token::Key(Cow::Borrowed("b")),
                Token::BeginObj,
                Token::EndObj,
                Token::Key(Cow::Borrowed("c")),
                Token::BeginArr,
                Token::Bool(true),
                Token::Bool(false),
                Token::Null,
                Token::EndArr,
                Token::EndObj,
            ]
        );
        assert!(matches!(&tokens[1], Token::Key(Cow::Borrowed(_))));
        assert!(matches!(&tokens[7], Token::Key(Cow::Owned(_))));
        assert_eq!(drain(b"7").unwrap(), [Token::Int(7)]);
    }

    #[test]
    fn nesting_bomb_is_an_error_not_a_stack_overflow() {
        let mut bomb = Vec::new();
        bomb.extend(std::iter::repeat_n(b'[', 100_000));
        assert_eq!(parse(&bomb).unwrap_err().reason, "nesting too deep");
        assert_eq!(drain(&bomb).unwrap_err(), parse(&bomb).unwrap_err());
        // The cap is the same in both: a value at depth MAX_DEPTH is
        // accepted, one level deeper is not.
        for depth in [MAX_DEPTH, MAX_DEPTH + 1] {
            let mut doc = vec![b'['; depth];
            doc.push(b'0');
            doc.extend(std::iter::repeat_n(b']', depth));
            assert_eq!(parse(&doc).is_ok(), depth == MAX_DEPTH);
            assert_eq!(drain(&doc).is_ok(), depth == MAX_DEPTH);
        }
    }

    #[test]
    fn object_key_order_is_preserved() {
        let v = parse(br#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.encode(), r#"{"z":1,"a":2}"#);
    }
}
