//! The workspace's one JSON text codec: a small hand-rolled document
//! value with its parser and writer.
//!
//! Two *trees* remain and one *codec*. The gateway needs a dynamic
//! document model — JSON-RPC params are schemaless (each tool defines
//! its own) and the registry forwards them opaquely — so [`Json`] is
//! its wire value and this parser/writer sit on its request path
//! untouched. The scheduler daemons (condor, lsf, grid) instead send
//! derived Rust types, which the `serde` shim renders to its own
//! `Content` tree; [`to_vec`]/[`to_string`]/[`from_slice`]/[`from_str`]
//! bridge that tree to [`Json`] by move and reuse the same text layer,
//! so bytes from a peer meet exactly one parser — the one with the
//! nesting cap. The conversion costs a tree walk, paid only on
//! ms-scale scheduler messages, never on the gateway's µs-scale path.
//!
//! Numbers: integers in `i64` range stay exact ([`Json::Int`]); other
//! numbers ride as `f64` ([`Json::Num`]). A typed encode of an integer
//! outside `i64` is an error rather than a rounded float. Parsing
//! enforces a nesting depth limit so hostile bodies cannot overflow
//! the stack.

use crate::{TdpError, TdpResult};
use serde::de::DeserializeOwned;
use serde::{Content, Serialize};
use std::fmt;

/// Maximum container nesting the parser accepts.
const MAX_DEPTH: usize = 64;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object as an ordered list of pairs (insertion order preserved;
    /// lookups are linear — gateway payloads are small).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Member of an object (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(f) if f.fract() == 0.0 && f.abs() < i64::MAX as f64 => Some(*f as i64),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|n| u64::try_from(n).ok())
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Convenience: string member of an object.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Convenience: integer member of an object.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Json::as_u64)
    }

    /// Serialize to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(f) => {
                if f.is_finite() {
                    out.push_str(&f.to_string());
                } else {
                    // JSON has no Inf/NaN; null keeps the document valid.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.fail("trailing characters after document"));
        }
        Ok(v)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(i64::from(n))
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        i64::try_from(n).map_or(Json::Num(n as f64), Json::Int)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::from(n as u64)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Num(f)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Parse failure with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub message: String,
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Encode a derived type as compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> TdpResult<String> {
    Ok(Json::try_from(value.to_content())?.render())
}

/// Encode a derived type as one JSON message (the daemons' chunk).
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> TdpResult<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Decode a derived type from JSON text.
pub fn from_str<T: DeserializeOwned>(text: &str) -> TdpResult<T> {
    let doc = Json::parse(text).map_err(decode_err)?;
    T::from_content(&doc.into()).map_err(decode_err)
}

/// Decode a derived type from one received chunk.
pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> TdpResult<T> {
    from_str(std::str::from_utf8(bytes).map_err(decode_err)?)
}

fn decode_err(e: impl fmt::Display) -> TdpError {
    TdpError::Protocol(format!("json decode: {e}"))
}

impl TryFrom<Content> for Json {
    type Error = TdpError;

    fn try_from(c: Content) -> TdpResult<Json> {
        Ok(match c {
            Content::Null => Json::Null,
            Content::Bool(b) => Json::Bool(b),
            Content::U64(n) => Json::Int(i64::try_from(n).map_err(|_| {
                TdpError::Protocol(format!("json encode: {n} is outside the exact (i64) range"))
            })?),
            Content::I64(n) => Json::Int(n),
            Content::F64(f) => Json::Num(f),
            Content::Str(s) => Json::Str(s),
            Content::Seq(items) => Json::Arr(
                items
                    .into_iter()
                    .map(Json::try_from)
                    .collect::<TdpResult<_>>()?,
            ),
            Content::Map(entries) => Json::Obj(
                entries
                    .into_iter()
                    .map(|(k, v)| Ok((k, Json::try_from(v)?)))
                    .collect::<TdpResult<_>>()?,
            ),
        })
    }
}

impl From<Json> for Content {
    fn from(j: Json) -> Content {
        match j {
            Json::Null => Content::Null,
            Json::Bool(b) => Content::Bool(b),
            Json::Int(n) => u64::try_from(n).map_or(Content::I64(n), Content::U64),
            Json::Num(f) => Content::F64(f),
            Json::Str(s) => Content::Str(s),
            Json::Arr(items) => Content::Seq(items.into_iter().map(Content::from).collect()),
            Json::Obj(pairs) => {
                Content::Map(pairs.into_iter().map(|(k, v)| (k, v.into())).collect())
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn fail(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            at: self.pos,
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

    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.fail(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.fail("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.fail("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.fail("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.fail("expected `:`"));
            }
            self.pos += 1;
            pairs.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.fail("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // consume '"'
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so any plain-byte run is UTF-8.
                out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                _ => return Err(self.fail("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = self.peek().ok_or_else(|| self.fail("truncated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0C}'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    self.literal("\\u")
                        .map_err(|_| self.fail("lone high surrogate"))?;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.fail("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.fail("invalid codepoint"))?);
            }
            _ => return Err(self.fail("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.fail("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| self.fail("malformed \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.fail("malformed \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if text.is_empty() || text == "-" {
            return Err(self.fail("malformed number"));
        }
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.fail("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for (text, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("42", Json::Int(42)),
            ("-3", Json::Int(-3)),
            ("1.5", Json::Num(1.5)),
        ] {
            assert_eq!(Json::parse(text).unwrap(), v);
            assert_eq!(Json::parse(&v.render()).unwrap(), v);
        }
    }

    #[test]
    fn containers_and_access() {
        let j = Json::parse(r#"{"a": [1, {"b": "x"}], "n": 7}"#).unwrap();
        assert_eq!(j.u64_field("n"), Some(7));
        let arr = j.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_i64(), Some(1));
        assert_eq!(arr[1].str_field("b"), Some("x"));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "quote\" back\\ nl\n tab\t unicode é🚀 ctl\u{01}";
        let rendered = Json::Str(s.into()).render();
        assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(s));
        // Surrogate pair form parses too.
        assert_eq!(
            Json::parse(r#""\ud83d\ude80""#).unwrap().as_str(),
            Some("\u{1F680}")
        );
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "\"x", "tru", "1 2", "{\"a\" 1}", "{a:1}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn rejects_unbounded_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn object_builder_preserves_order() {
        let j = Json::obj([("z", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(j.render(), r#"{"z":1,"a":2}"#);
    }

    // ---- typed entry points (serde `Content` tree ⇄ `Json` ⇄ text) ----

    use std::collections::HashMap;
    use std::fmt::Debug;

    fn typed_roundtrip<T: Serialize + DeserializeOwned + PartialEq + Debug>(v: T) {
        let text = to_string(&v).unwrap();
        assert_eq!(from_str::<T>(&text).unwrap(), v, "{text}");
        assert_eq!(from_slice::<T>(&to_vec(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn value_roundtrip_through_text() {
        let mut m: HashMap<u32, Vec<String>> = HashMap::new();
        m.insert(3, vec!["a".into(), "b".into()]);
        let text = to_string(&m).unwrap();
        let back: HashMap<u32, Vec<String>> = from_str(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn typed_values_roundtrip() {
        typed_roundtrip(HashMap::from([
            (7u32, "exited:0".to_string()),
            (9, String::new()),
        ]));
        typed_roundtrip(vec![0u8, 1, 127, 255]);
        typed_roundtrip((Some(-3i32), Option::<String>::None, true, 1.5f64));
        typed_roundtrip(crate::Addr::new(crate::HostId(2), 9620));
        typed_roundtrip("quote\" slash\\ nl\n unicode:é🚀 ctrl:\u{01}".to_string());
    }

    #[test]
    fn integers_stay_exact_or_fail_the_encode() {
        typed_roundtrip(i64::MAX as u64);
        typed_roundtrip(i64::MIN);
        assert_eq!(
            to_string(&(i64::MAX as u64)).unwrap(),
            "9223372036854775807"
        );
        // One past the exact range is an error, never a rounded float.
        let err = to_string(&(i64::MAX as u64 + 1)).unwrap_err();
        assert!(matches!(err, TdpError::Protocol(_)), "{err}");
        assert!(to_vec(&vec![1u64, u64::MAX]).is_err());
    }

    #[test]
    fn reads_the_retired_writers_dialect() {
        // The deleted `serde_json` shim wrote `\b`/`\f` short escapes
        // and its parser took exponent floats for integers; this writer
        // emits `\u0008`/`\u000c` and plain digits. A mixed-version
        // pair of daemons must decode both spellings to one value.
        let old: (String, u64) = from_str(r#"["a\b\fz\u00e9", 1e3]"#).unwrap();
        let new: (String, u64) = from_str(r#"["a\u0008\u000cz\u00e9", 1000]"#).unwrap();
        assert_eq!(old, new);
        assert_eq!(new, ("a\u{08}\u{0C}zé".to_string(), 1000));
        assert_eq!(to_string(&new).unwrap(), r#"["a\u0008\u000czé",1000]"#);
    }

    #[test]
    fn typed_decode_inherits_the_nesting_cap() {
        // A peer's chunk of 200 000 `[` overflowed the retired parser's
        // stack (SIGABRT); the shared parser refuses it at depth 64.
        let deep = "[".repeat(200_000);
        let err = from_slice::<Vec<u32>>(deep.as_bytes()).unwrap_err();
        assert!(matches!(err, TdpError::Protocol(_)), "{err}");
        assert!(
            from_slice::<String>(&[0xff, 0xfe]).is_err(),
            "invalid utf-8"
        );
        assert!(
            from_str::<u8>("300").is_err(),
            "value mapping errors surface"
        );
    }
}
