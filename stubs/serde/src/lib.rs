//! Offline shim for `serde` (see `stubs/README.md`).
//!
//! Instead of serde's visitor architecture this shim round-trips every
//! value through an owned, JSON-shaped tree ([`Content`]). `Serialize`
//! renders a value to a `Content`; `Deserialize` rebuilds it from one.
//! A format (here: `tdp_proto::json`) then only converts `Content` to
//! and from text. The derive macros in `serde_derive` target exactly this
//! model, following serde's default conventions: structs as maps,
//! externally-tagged enums, `None` as null, maps with stringified
//! keys.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;

pub use serde_derive::{Deserialize, Serialize};

/// The self-describing value tree every (de)serialization passes through.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Seq(Vec<Content>),
    Map(Vec<(String, Content)>),
}

impl Content {
    pub fn as_map(&self) -> Option<&[(String, Content)]> {
        match self {
            Content::Map(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_seq(&self) -> Option<&[Content]> {
        match self {
            Content::Seq(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Content::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deserialization failure: a human-readable mismatch description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(String);

impl DeError {
    pub fn custom(msg: impl fmt::Display) -> Self {
        DeError(msg.to_string())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

pub trait Serialize {
    fn to_content(&self) -> Content;
}

pub trait Deserialize: Sized {
    fn from_content(c: &Content) -> Result<Self, DeError>;
}

/// The real serde distinguishes borrowed from owned deserialization;
/// this shim is always owned, so the marker is a blanket alias.
pub mod de {
    pub use crate::{DeError, Deserialize};

    pub trait DeserializeOwned: Deserialize {}
    impl<T: Deserialize> DeserializeOwned for T {}
}

pub mod ser {
    pub use crate::Serialize;
}

/// Looks up a struct field in a decoded map (derive-macro helper).
pub fn decode_field<T: Deserialize>(
    m: &[(String, Content)],
    key: &str,
    ty: &str,
) -> Result<T, DeError> {
    match m.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::from_content(v),
        None => Err(DeError::custom(format!("missing field `{key}` for {ty}"))),
    }
}

// -------------------------------------------------------- primitives

macro_rules! ser_de_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let n = match *c {
                    Content::U64(n) => n,
                    Content::I64(n) if n >= 0 => n as u64,
                    Content::F64(f) if f >= 0.0 && f.fract() == 0.0 => f as u64,
                    ref other => {
                        return Err(DeError::custom(format!(
                            "expected unsigned integer, got {other:?}"
                        )))
                    }
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError::custom(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

macro_rules! ser_de_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                let v = *self as i64;
                if v >= 0 { Content::U64(v as u64) } else { Content::I64(v) }
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let n: i64 = match *c {
                    Content::I64(n) => n,
                    Content::U64(n) => i64::try_from(n)
                        .map_err(|_| DeError::custom(format!("{n} out of i64 range")))?,
                    Content::F64(f) if f.fract() == 0.0 => f as i64,
                    ref other => {
                        return Err(DeError::custom(format!(
                            "expected integer, got {other:?}"
                        )))
                    }
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError::custom(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

ser_de_uint!(u8, u16, u32, u64, usize);
ser_de_int!(i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Bool(b) => Ok(*b),
            other => Err(DeError::custom(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match *c {
            Content::F64(f) => Ok(f),
            Content::U64(n) => Ok(n as f64),
            Content::I64(n) => Ok(n as f64),
            ref other => Err(DeError::custom(format!("expected number, got {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn to_content(&self) -> Content {
        Content::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        f64::from_content(c).map(|f| f as f32)
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Str(s) => Ok(s.clone()),
            other => Err(DeError::custom(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let s = String::from_content(c)?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(ch), None) => Ok(ch),
            _ => Err(DeError::custom(format!("expected single char, got {s:?}"))),
        }
    }
}

impl Serialize for () {
    fn to_content(&self) -> Content {
        Content::Null
    }
}

impl Deserialize for () {
    fn from_content(_: &Content) -> Result<Self, DeError> {
        Ok(())
    }
}

// ------------------------------------------------------- containers

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        T::from_content(c).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            Some(v) => v.to_content(),
            None => Content::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_seq()
            .ok_or_else(|| DeError::custom(format!("expected sequence, got {c:?}")))?
            .iter()
            .map(T::from_content)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

macro_rules! ser_de_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_content(&self) -> Content {
                Content::Seq(vec![$(self.$n.to_content()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let s = c
                    .as_seq()
                    .ok_or_else(|| DeError::custom(format!("expected tuple seq, got {c:?}")))?;
                const N: usize = 0 $(+ { let _ = $n; 1 })+;
                if s.len() != N {
                    return Err(DeError::custom(format!(
                        "expected tuple of {N}, got {} elements", s.len()
                    )));
                }
                Ok(($($t::from_content(&s[$n])?,)+))
            }
        }
    )*};
}

ser_de_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// Map keys cross the tree as strings, mirroring JSON's object keys.
pub trait MapKey: Sized {
    fn to_key(&self) -> String;
    fn from_key(s: &str) -> Result<Self, DeError>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(s: &str) -> Result<Self, DeError> {
        Ok(s.to_string())
    }
}

macro_rules! int_map_key {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(s: &str) -> Result<Self, DeError> {
                s.parse()
                    .map_err(|_| DeError::custom(format!("bad {} map key {s:?}", stringify!($t))))
            }
        }
    )*};
}

int_map_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: MapKey + Eq + Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_content()))
                .collect(),
        )
    }
}

impl<K: MapKey + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_map()
            .ok_or_else(|| DeError::custom(format!("expected map, got {c:?}")))?
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_content(v)?)))
            .collect()
    }
}

impl<K: MapKey + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_content()))
                .collect(),
        )
    }
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_map()
            .ok_or_else(|| DeError::custom(format!("expected map, got {c:?}")))?
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_content(v)?)))
            .collect()
    }
}

impl<T: Serialize, E: Serialize> Serialize for Result<T, E> {
    fn to_content(&self) -> Content {
        match self {
            Ok(v) => Content::Map(vec![("Ok".to_string(), v.to_content())]),
            Err(e) => Content::Map(vec![("Err".to_string(), e.to_content())]),
        }
    }
}

impl<T: Deserialize, E: Deserialize> Deserialize for Result<T, E> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let m = c
            .as_map()
            .ok_or_else(|| DeError::custom(format!("expected Ok/Err map, got {c:?}")))?;
        match m {
            [(k, v)] if k == "Ok" => T::from_content(v).map(Ok),
            [(k, v)] if k == "Err" => E::from_content(v).map(Err),
            _ => Err(DeError::custom("expected single-key Ok/Err map")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(v: T) {
        let c = v.to_content();
        assert_eq!(T::from_content(&c).unwrap(), v);
    }

    #[test]
    fn primitive_roundtrips() {
        rt(42u32);
        rt(-7i64);
        rt(true);
        rt(String::from("dæmon"));
        rt(Some(3u8));
        rt(Option::<u8>::None);
        rt(vec![1u64, 2, 3]);
        rt((1u32, String::from("x")));
        rt(Ok::<u32, String>(5));
        rt(Err::<u32, String>("boom".into()));
    }

    #[test]
    fn int_keyed_maps_stringify() {
        let mut m = HashMap::new();
        m.insert(3u32, String::from("three"));
        let c = m.to_content();
        assert_eq!(c.as_map().unwrap()[0].0, "3");
        rt(m);
    }

    #[test]
    fn range_checks_fail_cleanly() {
        assert!(u8::from_content(&Content::U64(300)).is_err());
        assert!(u32::from_content(&Content::I64(-1)).is_err());
    }
}
