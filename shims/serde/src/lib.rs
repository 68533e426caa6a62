//! Offline stand-in for `serde`, API-compatible with the subset this
//! workspace uses: `#[derive(Serialize, Deserialize)]` on non-generic
//! structs/enums, with `#[serde(skip)]` on named struct fields as the
//! one supported `#[serde(...)]` attribute, consumed by the sibling
//! `serde_json` shim.
//!
//! Instead of serde's visitor architecture, both traits go through one
//! JSON-shaped [`Value`] tree: `Serialize` renders into it and
//! `Deserialize` reads back out of it. This is dramatically simpler and
//! entirely sufficient for JSON round-trips, which is the only data
//! format the workspace touches. Swap in the real crates by deleting the
//! `shims/` path entries from the workspace manifest once a registry is
//! reachable.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A JSON-shaped value tree — the interchange format between the derive
/// macros and `serde_json`.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer outside `i64` range.
    U64(u64),
    /// Floating-point number.
    F64(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

/// Serialization/deserialization error.
#[derive(Clone, Debug)]
pub struct Error(String);

impl Error {
    /// Creates an error from any message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl Value {
    /// Looks up a field of an object.
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::custom(format!("missing field `{name}`"))),
            _ => Err(Error::custom(format!(
                "expected object with field `{name}`"
            ))),
        }
    }

    /// Looks up an element of an array.
    pub fn index(&self, i: usize) -> Result<&Value, Error> {
        match self {
            Value::Array(items) => items
                .get(i)
                .ok_or_else(|| Error::custom(format!("missing array element {i}"))),
            _ => Err(Error::custom(format!("expected array with element {i}"))),
        }
    }

    /// Numeric view as `f64`.
    pub fn as_f64(&self) -> Result<f64, Error> {
        match self {
            Value::I64(v) => Ok(*v as f64),
            Value::U64(v) => Ok(*v as f64),
            Value::F64(v) => Ok(*v),
            Value::Null => Ok(f64::NAN),
            _ => Err(Error::custom("expected number")),
        }
    }

    /// Numeric view as `i64`.
    pub fn as_i64(&self) -> Result<i64, Error> {
        match self {
            Value::I64(v) => Ok(*v),
            Value::U64(v) => i64::try_from(*v).map_err(|_| Error::custom("u64 out of i64 range")),
            Value::F64(v) if v.fract() == 0.0 => Ok(*v as i64),
            _ => Err(Error::custom("expected integer")),
        }
    }

    /// Numeric view as `u64`.
    pub fn as_u64(&self) -> Result<u64, Error> {
        match self {
            Value::U64(v) => Ok(*v),
            Value::I64(v) => u64::try_from(*v).map_err(|_| Error::custom("negative integer")),
            Value::F64(v) if v.fract() == 0.0 && *v >= 0.0 => Ok(*v as u64),
            _ => Err(Error::custom("expected unsigned integer")),
        }
    }
}

/// Renders `self` into the shim [`Value`] data model.
pub trait Serialize {
    /// Converts `self` into a JSON-shaped value tree.
    fn to_json_value(&self) -> Value;
}

/// Reconstructs `Self` from the shim [`Value`] data model.
pub trait Deserialize: Sized {
    /// Parses `Self` out of a JSON-shaped value tree.
    fn from_json_value(v: &Value) -> Result<Self, Error>;
}

// --- Serialize impls -------------------------------------------------------

impl Serialize for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value { Value::I64(*self as i64) }
        }
    )*};
}
ser_signed!(i8, i16, i32, i64, isize);

macro_rules! ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value { Value::U64(*self as u64) }
        }
    )*};
}
ser_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value { Value::F64(*self as f64) }
        }
    )*};
}
ser_float!(f32, f64);

impl Serialize for str {
    fn to_json_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_json_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for char {
    fn to_json_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(v) => v.to_json_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_json_value(&self) -> Value {
        Value::Array(vec![self.0.to_json_value(), self.1.to_json_value()])
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_json_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_json_value(),
            self.1.to_json_value(),
            self.2.to_json_value(),
        ])
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_json_value(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json_value()))
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(pairs)
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_json_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_json_value()))
                .collect(),
        )
    }
}

impl Serialize for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

// --- Deserialize impls -----------------------------------------------------

impl Deserialize for bool {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected bool")),
        }
    }
}

macro_rules! de_signed {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_json_value(v: &Value) -> Result<Self, Error> {
                let raw = v.as_i64()?;
                <$t>::try_from(raw).map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t))))
            }
        }
    )*};
}
de_signed!(i8, i16, i32, i64, isize);

macro_rules! de_unsigned {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_json_value(v: &Value) -> Result<Self, Error> {
                let raw = v.as_u64()?;
                <$t>::try_from(raw).map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t))))
            }
        }
    )*};
}
de_unsigned!(u8, u16, u32, u64, usize);

impl Deserialize for f64 {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        v.as_f64()
    }
}

impl Deserialize for f32 {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        Ok(v.as_f64()? as f32)
    }
}

impl Deserialize for String {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::custom("expected string")),
        }
    }
}

impl Deserialize for char {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            _ => Err(Error::custom("expected single-character string")),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json_value(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_json_value).collect(),
            _ => Err(Error::custom("expected array")),
        }
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        let items = <Vec<T>>::from_json_value(v)?;
        <[T; N]>::try_from(items)
            .map_err(|_| Error::custom(format!("expected array of length {N}")))
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        T::from_json_value(v).map(Box::new)
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        Ok((
            A::from_json_value(v.index(0)?)?,
            B::from_json_value(v.index(1)?)?,
        ))
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        Ok((
            A::from_json_value(v.index(0)?)?,
            B::from_json_value(v.index(1)?)?,
            C::from_json_value(v.index(2)?)?,
        ))
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(pairs) => pairs
                .iter()
                .map(|(k, pv)| Ok((k.clone(), V::from_json_value(pv)?)))
                .collect(),
            _ => Err(Error::custom("expected object")),
        }
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(pairs) => pairs
                .iter()
                .map(|(k, pv)| Ok((k.clone(), V::from_json_value(pv)?)))
                .collect(),
            _ => Err(Error::custom("expected object")),
        }
    }
}

impl Deserialize for Value {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
