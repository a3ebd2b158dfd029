//! The workspace's one JSON text codec: a small hand-rolled document
//! value with its parser and writer.
//!
//! One *tree* and one *codec*. The gateway needs a dynamic document
//! model — JSON-RPC params are schemaless (each tool defines its own)
//! and the registry forwards them opaquely — so [`Json`] is its wire
//! value. The scheduler daemons (condor, lsf, grid) send typed messages
//! through the same tree: a type that travels implements [`ToJson`] and
//! [`FromJson`], and [`to_vec`]/[`to_string`]/[`from_slice`]/[`from_str`]
//! run value → [`Json`] → text and back, so bytes from a peer meet
//! exactly one parser — the one with the nesting cap.
//!
//! A message type's wire shape is data: [`json_struct!`] and
//! [`json_enum!`] take the list of its field and variant names and write
//! serde's default shape — a struct is an object of its fields in
//! declaration order, a newtype is its inner value, an enum is
//! externally tagged and a unit variant is a string. Decoding takes the
//! tree by value, so strings move into the message. The impls cover
//! only what travels: `bool`, `String`, `u8`/`u16`/`u32`/`u64`/`i64`,
//! `Option`, `Box`, `Vec`, pairs, maps with string or integer keys
//! (written as JSON object keys) and [`Blob`], a byte payload written
//! as one base64 string.
//!
//! Numbers: integers in `i64` range stay exact ([`Json::Int`]); other
//! numbers ride as `f64` ([`Json::Num`]). A typed encode of an integer
//! outside `i64` is an error rather than a rounded float. Parsing
//! enforces a nesting depth limit so hostile bodies cannot overflow
//! the stack.

use crate::{TdpError, TdpResult};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;
use std::str::FromStr;

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

    /// Render as compact JSON text.
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

/// A value that travels as JSON: it renders itself to a [`Json`] tree.
/// Fallible, so that an integer outside `i64` is an encode error, never
/// a rounded float.
pub trait ToJson {
    fn to_json(&self) -> TdpResult<Json>;
}

/// A value rebuilt from a [`Json`] tree. The tree is taken by value, so
/// decoded strings move into the value instead of being copied.
pub trait FromJson: Sized {
    fn from_json(j: Json) -> TdpResult<Self>;
}

/// Encode a value as compact JSON text.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> TdpResult<String> {
    Ok(value.to_json()?.render())
}

/// Encode a value as one JSON message (the daemons' chunk).
pub fn to_vec<T: ToJson + ?Sized>(value: &T) -> TdpResult<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Decode a value from JSON text.
pub fn from_str<T: FromJson>(text: &str) -> TdpResult<T> {
    T::from_json(Json::parse(text).map_err(decode_err)?)
}

/// Decode a value from one received chunk.
pub fn from_slice<T: FromJson>(bytes: &[u8]) -> TdpResult<T> {
    from_str(std::str::from_utf8(bytes).map_err(decode_err)?)
}

fn decode_err(e: impl fmt::Display) -> TdpError {
    TdpError::Protocol(format!("json decode: {e}"))
}

fn mismatch(want: impl fmt::Display, got: &Json) -> TdpError {
    let got = match got {
        Json::Null => "null",
        Json::Bool(_) => "a bool",
        Json::Int(_) | Json::Num(_) => "a number",
        Json::Str(_) => "a string",
        Json::Arr(_) => "an array",
        Json::Obj(_) => "an object",
    };
    decode_err(format_args!("expected {want}, got {got}"))
}

/// The fields of an object, taken out one by one by [`json_struct!`]
/// and [`json_enum!`]. A missing field is an error; a field the type
/// does not name is ignored.
pub struct Fields {
    pairs: Vec<(String, Json)>,
    ty: &'static str,
}

impl Fields {
    pub fn new(j: Json, ty: &'static str) -> TdpResult<Fields> {
        match j {
            Json::Obj(pairs) => Ok(Fields { pairs, ty }),
            other => Err(mismatch(format_args!("an object for {ty}"), &other)),
        }
    }

    pub fn take<T: FromJson>(&mut self, key: &str) -> TdpResult<T> {
        match self.pairs.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => T::from_json(std::mem::replace(v, Json::Null)),
            None => Err(decode_err(format_args!(
                "missing field `{key}` for {}",
                self.ty
            ))),
        }
    }
}

/// An externally tagged enum value: a unit variant is its name as a
/// string, any other is a one-member object `{name: body}`.
pub fn variant(j: Json, ty: &str) -> TdpResult<(String, Option<Json>)> {
    match j {
        Json::Str(tag) => Ok((tag, None)),
        Json::Obj(pairs) => match <[(String, Json); 1]>::try_from(pairs) {
            Ok([(tag, body)]) => Ok((tag, Some(body))),
            Err(pairs) => Err(mismatch(format_args!("a {ty} variant"), &Json::Obj(pairs))),
        },
        other => Err(mismatch(format_args!("a {ty} variant"), &other)),
    }
}

/// Implements [`ToJson`] and [`FromJson`] for a struct in serde's
/// default shape. `json_struct!(Ty { a, b })` is an object of the listed
/// fields, in declaration order; `json_struct!(Ty(Inner))`, a newtype,
/// is its inner value.
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($f:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::TdpResult<$crate::json::Json> {
                Ok($crate::json::Json::Obj(::std::vec![$((
                    stringify!($f).to_string(),
                    $crate::json::ToJson::to_json(&self.$f)?,
                )),+]))
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(j: $crate::json::Json) -> $crate::TdpResult<Self> {
                let mut fields = $crate::json::Fields::new(j, stringify!($ty))?;
                Ok($ty { $($f: fields.take(stringify!($f))?),+ })
            }
        }
    };
    ($ty:ident($inner:ty)) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::TdpResult<$crate::json::Json> {
                $crate::json::ToJson::to_json(&self.0)
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(j: $crate::json::Json) -> $crate::TdpResult<Self> {
                <$inner as $crate::json::FromJson>::from_json(j).map($ty)
            }
        }
    };
}

/// Implements [`ToJson`] and [`FromJson`] for an enum, externally tagged
/// as serde does by default: `json_enum!(Ty { Unit, Tuple(Inner),
/// Struct { a, b } })` writes `"Unit"`, `{"Tuple":inner}` and
/// `{"Struct":{"a":…,"b":…}}`.
#[macro_export]
macro_rules! json_enum {
    ($ty:ident { $($v:ident $(($t:ty))? $({ $($f:ident),+ $(,)? })?),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::TdpResult<$crate::json::Json> {
                Ok(match self {$(
                    $crate::json_enum!(@pat $ty $v x [$($t)?] [$($($f)+)?]) =>
                        $crate::json_enum!(@enc $v x [$($t)?] [$($($f)+)?]),
                )+})
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(j: $crate::json::Json) -> $crate::TdpResult<Self> {
                let (tag, body) = $crate::json::variant(j, stringify!($ty))?;
                match (tag.as_str(), body) {
                    $($crate::json_enum!(@tag $v b [$($t)?] [$($($f)+)?]) =>
                        $crate::json_enum!(@dec $ty $v b [$($t)?] [$($($f)+)?]),)+
                    (tag, _) => Err($crate::TdpError::Protocol(format!(
                        "json decode: unknown {} variant {tag:?}",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
    (@pat $ty:ident $v:ident $x:ident [] []) => { $ty::$v };
    (@pat $ty:ident $v:ident $x:ident [$t:ty] []) => { $ty::$v($x) };
    (@pat $ty:ident $v:ident $x:ident [] [$($f:ident)+]) => { $ty::$v { $($f),+ } };
    (@enc $v:ident $x:ident [] []) => {
        $crate::json::Json::Str(stringify!($v).to_string())
    };
    (@enc $v:ident $x:ident [$t:ty] []) => {
        $crate::json::Json::Obj(::std::vec![(
            stringify!($v).to_string(),
            $crate::json::ToJson::to_json($x)?,
        )])
    };
    (@enc $v:ident $x:ident [] [$($f:ident)+]) => {
        $crate::json::Json::Obj(::std::vec![(
            stringify!($v).to_string(),
            $crate::json::Json::Obj(::std::vec![$((
                stringify!($f).to_string(),
                $crate::json::ToJson::to_json($f)?,
            )),+]),
        )])
    };
    (@tag $v:ident $b:ident [] []) => { (stringify!($v), None) };
    (@tag $v:ident $b:ident [$($t:tt)*] [$($f:ident)*]) => { (stringify!($v), Some($b)) };
    (@dec $ty:ident $v:ident $b:ident [] []) => { Ok($ty::$v) };
    (@dec $ty:ident $v:ident $b:ident [$t:ty] []) => {
        Ok($ty::$v($crate::json::FromJson::from_json($b)?))
    };
    (@dec $ty:ident $v:ident $b:ident [] [$($f:ident)+]) => {{
        let mut fields =
            $crate::json::Fields::new($b, concat!(stringify!($ty), "::", stringify!($v)))?;
        Ok($ty::$v { $($f: fields.take(stringify!($f))?),+ })
    }};
}

impl ToJson for bool {
    fn to_json(&self) -> TdpResult<Json> {
        Ok(Json::Bool(*self))
    }
}

impl FromJson for bool {
    fn from_json(j: Json) -> TdpResult<Self> {
        match j {
            Json::Bool(b) => Ok(b),
            other => Err(mismatch("a bool", &other)),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> TdpResult<Json> {
        Ok(Json::Str(self.clone()))
    }
}

impl FromJson for String {
    fn from_json(j: Json) -> TdpResult<Self> {
        match j {
            Json::Str(s) => Ok(s),
            other => Err(mismatch("a string", &other)),
        }
    }
}

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> TdpResult<Json> {
                i64::try_from(i128::from(*self)).map(Json::Int).map_err(|_| {
                    TdpError::Protocol(format!(
                        "json encode: {self} is outside the exact (i64) range"
                    ))
                })
            }
        }

        impl FromJson for $t {
            fn from_json(j: Json) -> TdpResult<Self> {
                let n = match j {
                    Json::Int(n) => i128::from(n),
                    // An integral float, such as the retired writer's `1e3`.
                    Json::Num(f) if f.fract() == 0.0 => f as i128,
                    other => return Err(mismatch("an integer", &other)),
                };
                <$t>::try_from(n).map_err(|_| {
                    decode_err(format_args!("{n} is out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

json_int!(u8, u16, u32, u64, i64);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> TdpResult<Json> {
        self.as_ref().map_or(Ok(Json::Null), T::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: Json) -> TdpResult<Self> {
        match j {
            Json::Null => Ok(None),
            j => T::from_json(j).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Box<T> {
    fn to_json(&self) -> TdpResult<Json> {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(j: Json) -> TdpResult<Self> {
        T::from_json(j).map(Box::new)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> TdpResult<Json> {
        self.iter()
            .map(T::to_json)
            .collect::<TdpResult<_>>()
            .map(Json::Arr)
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: Json) -> TdpResult<Self> {
        match j {
            Json::Arr(items) => items.into_iter().map(T::from_json).collect(),
            other => Err(mismatch("an array", &other)),
        }
    }
}

/// Bytes that travel as one JSON string of padded standard base64
/// (RFC 4648 §4), not as an array of one number per byte. A decoder
/// refuses any other alphabet, missing or stray padding, and set
/// padding bits, so each value has exactly one text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Blob(pub Vec<u8>);

const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

impl From<Vec<u8>> for Blob {
    fn from(bytes: Vec<u8>) -> Blob {
        Blob(bytes)
    }
}

impl std::ops::Deref for Blob {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.0
    }
}

impl ToJson for Blob {
    fn to_json(&self) -> TdpResult<Json> {
        let mut text = String::with_capacity(self.0.len().div_ceil(3) * 4);
        for chunk in self.0.chunks(3) {
            let n = chunk
                .iter()
                .enumerate()
                .fold(0u32, |n, (i, &b)| n | u32::from(b) << (16 - 8 * i));
            for i in 0..4 {
                let digit = BASE64[(n >> (18 - 6 * i)) as usize & 63];
                text.push(if i <= chunk.len() {
                    char::from(digit)
                } else {
                    '='
                });
            }
        }
        Ok(Json::Str(text))
    }
}

impl FromJson for Blob {
    fn from_json(j: Json) -> TdpResult<Self> {
        let text = match j {
            Json::Str(text) => text,
            other => return Err(mismatch("a base64 string", &other)),
        };
        // Names where, not what: a bad payload may be megabytes long.
        let bad = |at: usize| decode_err(format_args!("bad base64 at character {at}"));
        if text.len() % 4 != 0 {
            return Err(bad(text.len()));
        }
        let quads = text.as_bytes().chunks(4);
        let last = quads.len().saturating_sub(1);
        let mut bytes = Vec::with_capacity(text.len() / 4 * 3);
        for (q, quad) in quads.enumerate() {
            let pad = quad.iter().rev().take_while(|&&c| c == b'=').count();
            if pad > 2 || (pad > 0 && q != last) {
                return Err(bad(4 * q));
            }
            let mut n = 0u32;
            for &c in &quad[..4 - pad] {
                let digit = match c {
                    b'A'..=b'Z' => c - b'A',
                    b'a'..=b'z' => c - b'a' + 26,
                    b'0'..=b'9' => c - b'0' + 52,
                    b'+' => 62,
                    b'/' => 63,
                    _ => return Err(bad(4 * q)),
                };
                n = n << 6 | u32::from(digit);
            }
            let three = (n << (6 * pad)).to_be_bytes();
            if three[4 - pad..].iter().any(|&b| b != 0) {
                return Err(bad(4 * q));
            }
            bytes.extend_from_slice(&three[1..4 - pad]);
        }
        Ok(Blob(bytes))
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> TdpResult<Json> {
        Ok(Json::Arr(vec![self.0.to_json()?, self.1.to_json()?]))
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(j: Json) -> TdpResult<Self> {
        let items = match j {
            Json::Arr(items) => <[Json; 2]>::try_from(items).map_err(Json::Arr),
            other => Err(other),
        };
        match items {
            Ok([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            Err(other) => Err(mismatch("a pair", &other)),
        }
    }
}

// Map keys travel as JSON object keys, so an integer key is written as
// its decimal string.
impl<K: fmt::Display, V: ToJson> ToJson for HashMap<K, V> {
    fn to_json(&self) -> TdpResult<Json> {
        object(self)
    }
}

impl<K: FromStr + Eq + Hash, V: FromJson> FromJson for HashMap<K, V> {
    fn from_json(j: Json) -> TdpResult<Self> {
        entries(j)
    }
}

impl<K: fmt::Display, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> TdpResult<Json> {
        object(self)
    }
}

impl<K: FromStr + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(j: Json) -> TdpResult<Self> {
        entries(j)
    }
}

fn object<'a, K, V>(map: impl IntoIterator<Item = (&'a K, &'a V)>) -> TdpResult<Json>
where
    K: fmt::Display + 'a,
    V: ToJson + 'a,
{
    map.into_iter()
        .map(|(k, v)| Ok((k.to_string(), v.to_json()?)))
        .collect::<TdpResult<_>>()
        .map(Json::Obj)
}

fn entries<K: FromStr, V: FromJson, M: FromIterator<(K, V)>>(j: Json) -> TdpResult<M> {
    match j {
        Json::Obj(pairs) => pairs
            .into_iter()
            .map(|(k, v)| {
                let key = k
                    .parse()
                    .map_err(|_| decode_err(format_args!("bad map key {k:?}")))?;
                Ok((key, V::from_json(v)?))
            })
            .collect(),
        other => Err(mismatch("an object", &other)),
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

    // ---- typed entry points (value ⇄ `Json` ⇄ text) ----

    use std::fmt::Debug;

    fn typed_roundtrip<T: ToJson + FromJson + PartialEq + Debug>(v: T) {
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
        typed_roundtrip(vec![("a".to_string(), true), ("b".to_string(), false)]);
        typed_roundtrip(vec![("trace.out".to_string(), vec![1u8, 2])]);
        typed_roundtrip((Some(-3i64), Option::<String>::None));
        typed_roundtrip(Box::new(Some(u16::MAX)));
        typed_roundtrip(crate::Addr::new(crate::HostId(2), 9620));
        typed_roundtrip("quote\" slash\\ nl\n unicode:é🚀 ctrl:\u{01}".to_string());
    }

    #[test]
    fn blobs_are_rfc4648_base64() {
        for (bytes, text) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            let blob = Blob(bytes.as_bytes().to_vec());
            assert_eq!(to_string(&blob).unwrap(), format!("\"{text}\""));
            typed_roundtrip(blob);
        }
        // Every byte value, at every offset within a quad.
        for n in 0..=258usize {
            typed_roundtrip(Blob((0..n).map(|i| (i * 167) as u8).collect()));
        }
        assert!(from_str::<Blob>("[1,2]").is_err());
    }

    #[test]
    fn int_keyed_maps_are_written_with_string_keys() {
        let m = HashMap::from([(3u32, "three".to_string())]);
        assert_eq!(to_string(&m).unwrap(), r#"{"3":"three"}"#);
        let b = BTreeMap::from([("b".to_string(), 2u64), ("a".to_string(), 1)]);
        assert_eq!(to_string(&b).unwrap(), r#"{"a":1,"b":2}"#);
        typed_roundtrip(b);
        let err = from_str::<HashMap<u32, String>>(r#"{"-1":"x"}"#).unwrap_err();
        assert!(matches!(err, TdpError::Protocol(_)), "{err}");
    }

    #[test]
    fn range_checks_fail_cleanly() {
        for (text, ok) in [("255", true), ("300", false), ("-1", false), ("2.5", false)] {
            assert_eq!(from_str::<u8>(text).is_ok(), ok, "{text} as u8");
        }
        assert!(from_str::<u16>("65536").is_err());
        assert!(from_str::<u32>("-1").is_err());
        assert!(from_str::<u64>("-1").is_err());
        assert_eq!(from_str::<i64>("-1").unwrap(), -1);
        // An integral float is read as the integer it spells.
        assert_eq!(from_str::<u32>("4e2").unwrap(), 400);
        assert!(from_str::<bool>("1").is_err());
        assert!(from_str::<(u8, u8)>("[1,2,3]").is_err());
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
