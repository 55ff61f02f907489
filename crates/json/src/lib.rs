//! # netmax-json
//!
//! A minimal, dependency-free JSON layer for the NetMax workspace: a
//! [`Json`] value model, a strict parser ([`Json::parse`]), compact and
//! pretty writers, and the [`ToJson`] / [`FromJson`] conversion traits
//! every serializable experiment type implements.
//!
//! This crate is the workspace's only serialization backend:
//! `netmax-bench run --json`, the spec registry, the `BENCH_*.json`
//! performance baselines and (through [`codec`]) every checkpoint
//! round-trip through it.
//!
//! Integers are kept in an [`i128`] variant so `u64` seeds survive the
//! round-trip exactly instead of being squeezed through an `f64`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
mod parse;
mod write;

pub use codec::CodecError;
pub use parse::JsonError;

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent; `i128` so the full
    /// `u64` and `i64` ranges round-trip losslessly.
    Int(i128),
    /// A fractional or exponent-form number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (and is the order written
    /// back out), which keeps artifacts diffable.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks a key up in an object, as an error-carrying operation.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key).ok_or_else(|| JsonError::schema(format!("missing field `{key}`")))
    }

    /// The value as a float; accepts both number variants, and `null` maps
    /// to NaN (the writer emits `null` for non-finite floats).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(x) => Ok(*x),
            Json::Int(i) => Ok(*i as f64),
            Json::Null => Ok(f64::NAN),
            other => Err(JsonError::schema(format!("expected number, got {}", other.kind()))),
        }
    }

    /// The value as an `i128` (integral numbers only).
    pub fn as_int(&self) -> Result<i128, JsonError> {
        match self {
            Json::Int(i) => Ok(*i),
            other => Err(JsonError::schema(format!("expected integer, got {}", other.kind()))),
        }
    }

    /// The value as a `u64`.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        u64::try_from(self.as_int()?)
            .map_err(|_| JsonError::schema("integer out of u64 range".to_string()))
    }

    /// The value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        usize::try_from(self.as_int()?)
            .map_err(|_| JsonError::schema("integer out of usize range".to_string()))
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::schema(format!("expected bool, got {}", other.kind()))),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::schema(format!("expected string, got {}", other.kind()))),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(JsonError::schema(format!("expected array, got {}", other.kind()))),
        }
    }

    /// The value's type name, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "integer",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Parses a JSON document (strict: one value, nothing trailing).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        parse::parse(text)
    }

    /// Writes the value as a pretty-printed document (2-space indent,
    /// trailing newline) — the format of every artifact this workspace
    /// commits.
    pub fn pretty(&self) -> String {
        write::pretty(self)
    }
}

impl fmt::Display for Json {
    /// Compact single-line form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write::compact(self, f)
    }
}

/// Conversion into a [`Json`] value.
///
/// Implemented by hand for each spec/report type so the schema is
/// explicit and reviewable.
pub trait ToJson {
    /// Converts `self` to a JSON value.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstructs `Self`, reporting schema mismatches as errors.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        if self.is_finite() {
            Json::Num(*self)
        } else {
            // JSON has no NaN/inf literal; `null` is the conventional spill.
            Json::Null
        }
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        // Widening to f64 is exact, and the f64 writer emits the shortest
        // round-tripping decimal, so `f32 → Json → f32` is lossless.
        f64::from(*self).to_json()
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.as_f64()? as f32)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str().map(str::to_string)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i128)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                <$t>::try_from(v.as_int()?).map_err(|_| {
                    JsonError::schema(concat!("integer out of ", stringify!($t), " range").to_string())
                })
            }
        }
    )*};
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-7", "3.25", "\"hi\\n\"", "[]", "{}"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn u64_seed_survives_exactly() {
        let seed = u64::MAX - 3;
        let v = seed.to_json();
        let text = v.to_string();
        assert_eq!(u64::from_json(&Json::parse(&text).unwrap()).unwrap(), seed);
    }

    #[test]
    fn nested_document_round_trips() {
        let text = r#"{"name":"fig08","seeds":[7,8],"cfg":{"epochs":12.5,"quick":false},"note":null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.field("name").unwrap().as_str().unwrap(), "fig08");
        assert_eq!(v.get("seeds").unwrap().as_arr().unwrap().len(), 2);
        let reparsed = Json::parse(&v.pretty()).unwrap();
        assert_eq!(reparsed, v);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64::NAN.to_json(), Json::Null);
        assert!(f64::from_json(&Json::Null).unwrap().is_nan());
        let x = 0.1f64 + 0.2;
        let back = f64::from_json(&Json::parse(&x.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, x, "shortest-round-trip Display must reparse exactly");
    }

    #[test]
    fn schema_errors_name_the_problem() {
        let v = Json::parse(r#"{"a": 1}"#).unwrap();
        let err = v.field("b").unwrap_err().to_string();
        assert!(err.contains("missing field `b`"), "{err}");
        let err = v.field("a").unwrap().as_str().unwrap_err().to_string();
        assert!(err.contains("expected string"), "{err}");
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "01", "1 2", "\"\\q\"", "nul"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn f32_round_trips_exactly() {
        for x in [0.1f32, -3.625, f32::MIN_POSITIVE, 1.0e30, 0.0] {
            let back = f32::from_json(&Json::parse(&x.to_json().to_string()).unwrap()).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        assert!(f32::from_json(&Json::Null).unwrap().is_nan());
    }

    #[test]
    fn option_and_vec_round_trip() {
        let xs: Vec<Option<u32>> = vec![Some(1), None, Some(3)];
        let v = xs.to_json();
        let back: Vec<Option<u32>> = Vec::from_json(&Json::parse(&v.to_string()).unwrap()).unwrap();
        assert_eq!(back, xs);
    }
}
