//! Dependency-free binary document codec — the checkpoint fast path.
//!
//! Two layers, both versioned and panic-free:
//!
//! * a **container**: magic (`NMXB`) + format version + a length-prefixed
//!   schema tag + named length-prefixed sections
//!   ([`write_document`] / [`read_document`]), and
//! * a **value codec**: a tagged little-endian encoding of [`Json`]
//!   values ([`encode_value`] / [`decode_value`]) with bit-exact float
//!   round-trips (`f64::to_bits`, no text-float hazards) and packed
//!   forms for homogeneous numeric arrays (`f32`/`f64`/`u64`), which is
//!   where checkpoint documents — parameter and momentum vectors — spend
//!   almost all of their bytes.
//!
//! The low-level `write_*` helpers are public so callers that already
//! hold typed state (a node's `&[f32]` parameters, a sampler's indices)
//! can stream the *exact same bytes* the generic encoder would produce
//! for the equivalent [`Json`] value, without materializing that value.
//! [`encode_value`] is itself implemented on those helpers, so the
//! equivalence holds by construction and is asserted in tests.
//!
//! Decoding never panics: every length is checked against the remaining
//! input before use, nesting is depth-limited, and all failures surface
//! as a typed [`CodecError`].

use crate::Json;

/// Magic bytes opening every binary document.
pub const MAGIC: [u8; 4] = *b"NMXB";

/// Container format version written by this codec.
pub const VERSION: u16 = 1;

/// Nesting depth limit for encoded/decoded values. Checkpoint documents
/// nest a handful of levels; the limit only exists so hostile input
/// cannot recurse the decoder off the stack.
const MAX_DEPTH: u32 = 96;

/// Value-encoding tag bytes.
const T_NULL: u8 = 0x00;
const T_FALSE: u8 = 0x01;
const T_TRUE: u8 = 0x02;
const T_INT: u8 = 0x03;
const T_NUM: u8 = 0x04;
const T_STR: u8 = 0x05;
const T_ARR: u8 = 0x06;
const T_OBJ: u8 = 0x07;
const T_ARR_F32: u8 = 0x08;
const T_ARR_F64: u8 = 0x09;
const T_ARR_U64: u8 = 0x0A;

/// A typed binary-codec failure. Every decode path returns one of these;
/// nothing in this module panics on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a declared length or fixed-width field
    /// completed.
    Truncated,
    /// The input does not begin with the binary magic.
    NotBinary,
    /// The container's format version is not understood.
    Version(u16),
    /// An unknown value tag byte.
    Tag(u8),
    /// A string was not valid UTF-8.
    Utf8,
    /// A declared length or element count exceeds the remaining input,
    /// or a value is too large for its length prefix.
    Length,
    /// A value or container nests deeper than the codec's limit.
    TooDeep,
    /// Well-formed content followed by unconsumed trailing bytes.
    Trailing,
    /// The container carries a different schema tag than the caller
    /// requires: `(found, expected)`.
    Schema(String, String),
    /// The container has no section with the required name.
    MissingSection(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "binary document truncated"),
            CodecError::NotBinary => write!(f, "not a binary document (missing NMXB magic)"),
            CodecError::Version(v) => write!(f, "unsupported binary format version {v}"),
            CodecError::Tag(t) => write!(f, "unknown binary value tag 0x{t:02X}"),
            CodecError::Utf8 => write!(f, "binary document contains invalid UTF-8"),
            CodecError::Length => write!(f, "binary document declares an impossible length"),
            CodecError::TooDeep => write!(f, "binary value nests too deeply"),
            CodecError::Trailing => write!(f, "trailing bytes after binary value"),
            CodecError::Schema(found, expected) => {
                write!(f, "binary document has schema `{found}`, expected `{expected}`")
            }
            CodecError::MissingSection(name) => {
                write!(f, "binary document is missing section `{name}`")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Whether `bytes` starts with the binary-document magic — the format
/// sniff callers use to dispatch between JSON text and binary decoding.
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.starts_with(&MAGIC)
}

// ---------------------------------------------------------------------
// Low-level writers. Each emits the exact byte form the generic encoder
// uses; callers with typed state compose them to produce documents
// byte-identical to `encode_value` on the equivalent `Json`.
// ---------------------------------------------------------------------

fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_u64_raw(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_len(out: &mut Vec<u8>, len: usize) -> Result<(), CodecError> {
    let v = u32::try_from(len).map_err(|_| CodecError::Length)?;
    write_u32(out, v);
    Ok(())
}

/// Writes the `null` value.
pub fn write_null(out: &mut Vec<u8>) {
    out.push(T_NULL);
}

/// Writes a boolean value.
pub fn write_bool(out: &mut Vec<u8>, b: bool) {
    out.push(if b { T_TRUE } else { T_FALSE });
}

/// Writes an integer value (16-byte little-endian `i128`).
pub fn write_int(out: &mut Vec<u8>, i: i128) {
    out.push(T_INT);
    out.extend_from_slice(&i.to_le_bytes());
}

/// Writes a float value faithfully (`to_bits`, including non-finite).
pub fn write_f64(out: &mut Vec<u8>, x: f64) {
    out.push(T_NUM);
    out.extend_from_slice(&x.to_bits().to_le_bytes());
}

/// Writes a float the way `f64::to_json` would represent it: finite
/// values bit-exactly, non-finite values as `null`. Mirror this when
/// streaming typed state that would otherwise pass through `ToJson`.
pub fn write_f64_json(out: &mut Vec<u8>, x: f64) {
    if x.is_finite() {
        write_f64(out, x);
    } else {
        write_null(out);
    }
}

/// Writes a string value.
pub fn write_str(out: &mut Vec<u8>, s: &str) -> Result<(), CodecError> {
    out.push(T_STR);
    write_len(out, s.len())?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Writes an object key (length-prefixed, untagged — keys are always
/// strings). Follow with the entry's value.
pub fn write_key(out: &mut Vec<u8>, key: &str) -> Result<(), CodecError> {
    write_len(out, key.len())?;
    out.extend_from_slice(key.as_bytes());
    Ok(())
}

/// Opens an object of `count` entries. Follow with `count` ×
/// ([`write_key`] + one value).
pub fn write_obj_header(out: &mut Vec<u8>, count: usize) -> Result<(), CodecError> {
    out.push(T_OBJ);
    write_len(out, count)
}

/// Opens a generic (unpacked) array of `count` values.
pub fn write_arr_header(out: &mut Vec<u8>, count: usize) -> Result<(), CodecError> {
    out.push(T_ARR);
    write_len(out, count)
}

/// Whether a float survives the f64 → f32 → f64 round trip bit-exactly —
/// the packing criterion for [`T_ARR_F32`] arrays.
fn f32_exact(x: f64) -> bool {
    ((x as f32) as f64).to_bits() == x.to_bits()
}

/// Writes an `f32` slice exactly as the generic encoder writes the
/// equivalent `Json` array (`Vec<f32>::to_json`): all-finite slices pack
/// as raw little-endian `f32` bits; a slice with non-finite elements
/// falls back to the generic form with `null` in those positions
/// (mirroring `ToJson`); an empty slice is an empty generic array.
pub fn write_f32_slice(out: &mut Vec<u8>, xs: &[f32]) -> Result<(), CodecError> {
    if xs.is_empty() {
        return write_arr_header(out, 0);
    }
    if xs.iter().all(|x| x.is_finite()) {
        out.push(T_ARR_F32);
        write_len(out, xs.len())?;
        for x in xs {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        return Ok(());
    }
    write_arr_header(out, xs.len())?;
    for x in xs {
        write_f64_json(out, f64::from(*x));
    }
    Ok(())
}

/// Writes a `u64` slice exactly as the generic encoder writes the
/// equivalent `Json` array of integers (packed little-endian `u64`;
/// empty slices are an empty generic array).
pub fn write_u64_slice(out: &mut Vec<u8>, xs: &[u64]) -> Result<(), CodecError> {
    if xs.is_empty() {
        return write_arr_header(out, 0);
    }
    out.push(T_ARR_U64);
    write_len(out, xs.len())?;
    for x in xs {
        write_u64_raw(out, *x);
    }
    Ok(())
}

/// [`write_u64_slice`] for `usize` element types (index lists).
pub fn write_usize_slice(out: &mut Vec<u8>, xs: &[usize]) -> Result<(), CodecError> {
    if xs.is_empty() {
        return write_arr_header(out, 0);
    }
    out.push(T_ARR_U64);
    write_len(out, xs.len())?;
    for x in xs {
        write_u64_raw(out, *x as u64);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Generic value encoding.
// ---------------------------------------------------------------------

/// How a `Json` array packs on the wire, decided deterministically from
/// its element types so re-encoding a decoded document reproduces the
/// same bytes.
enum Packing {
    F32,
    F64,
    U64,
    Generic,
}

fn packing(items: &[Json]) -> Packing {
    if items.is_empty() {
        return Packing::Generic;
    }
    let all_num = items.iter().all(|v| matches!(v, Json::Num(_)));
    if all_num {
        let exact = items.iter().all(|v| match v {
            Json::Num(x) => f32_exact(*x),
            _ => false,
        });
        return if exact { Packing::F32 } else { Packing::F64 };
    }
    let all_u64 = items.iter().all(|v| match v {
        Json::Int(i) => u64::try_from(*i).is_ok(),
        _ => false,
    });
    if all_u64 {
        return Packing::U64;
    }
    Packing::Generic
}

/// Encodes one [`Json`] value. Floats are written bit-exactly; arrays of
/// homogeneous numbers pack into raw little-endian lanes. The encoding
/// is canonical: equal values produce equal bytes, and
/// `encode(decode(bytes))` reproduces `bytes` for any valid input.
pub fn encode_value(out: &mut Vec<u8>, v: &Json) -> Result<(), CodecError> {
    encode_at(out, v, 0)
}

fn encode_at(out: &mut Vec<u8>, v: &Json, depth: u32) -> Result<(), CodecError> {
    if depth > MAX_DEPTH {
        return Err(CodecError::TooDeep);
    }
    match v {
        Json::Null => write_null(out),
        Json::Bool(b) => write_bool(out, *b),
        Json::Int(i) => write_int(out, *i),
        Json::Num(x) => write_f64(out, *x),
        Json::Str(s) => write_str(out, s)?,
        Json::Arr(items) => match packing(items) {
            Packing::F32 => {
                out.push(T_ARR_F32);
                write_len(out, items.len())?;
                for v in items {
                    let bits = match v {
                        Json::Num(x) => (*x as f32).to_bits(),
                        _ => 0,
                    };
                    out.extend_from_slice(&bits.to_le_bytes());
                }
            }
            Packing::F64 => {
                out.push(T_ARR_F64);
                write_len(out, items.len())?;
                for v in items {
                    let bits = match v {
                        Json::Num(x) => x.to_bits(),
                        _ => 0,
                    };
                    out.extend_from_slice(&bits.to_le_bytes());
                }
            }
            Packing::U64 => {
                out.push(T_ARR_U64);
                write_len(out, items.len())?;
                for v in items {
                    let word = match v {
                        Json::Int(i) => u64::try_from(*i).unwrap_or_default(),
                        _ => 0,
                    };
                    write_u64_raw(out, word);
                }
            }
            Packing::Generic => {
                write_arr_header(out, items.len())?;
                for item in items {
                    encode_at(out, item, depth + 1)?;
                }
            }
        },
        Json::Obj(entries) => {
            write_obj_header(out, entries.len())?;
            for (key, val) in entries {
                write_key(out, key)?;
                encode_at(out, val, depth + 1)?;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------

/// A bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, tail) = self.rest.split_at_checked(n).ok_or(CodecError::Truncated)?;
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        let head = self.take(1)?;
        head.first().copied().ok_or(CodecError::Truncated)
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        let b: [u8; 2] = self.take(2)?.try_into().map_err(|_| CodecError::Truncated)?;
        Ok(u16::from_le_bytes(b))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b: [u8; 4] = self.take(4)?.try_into().map_err(|_| CodecError::Truncated)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b: [u8; 8] = self.take(8)?.try_into().map_err(|_| CodecError::Truncated)?;
        Ok(u64::from_le_bytes(b))
    }

    fn i128(&mut self) -> Result<i128, CodecError> {
        let b: [u8; 16] = self.take(16)?.try_into().map_err(|_| CodecError::Truncated)?;
        Ok(i128::from_le_bytes(b))
    }

    fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::Utf8)
    }

    /// Reads an element count declared for items of at least
    /// `min_element_bytes` each, rejecting counts the remaining input
    /// cannot possibly satisfy (so no oversized allocation happens on
    /// hostile input).
    fn count(&mut self, min_element_bytes: usize) -> Result<usize, CodecError> {
        let count = self.u32()? as usize;
        let need = count.checked_mul(min_element_bytes).ok_or(CodecError::Length)?;
        if need > self.remaining() {
            return Err(CodecError::Length);
        }
        Ok(count)
    }
}

/// Decodes one [`Json`] value, requiring the input to be fully consumed.
/// Malformed, truncated, or trailing input yields a typed error; this
/// function never panics.
pub fn decode_value(bytes: &[u8]) -> Result<Json, CodecError> {
    let mut r = Reader::new(bytes);
    let v = decode_at(&mut r, 0)?;
    if r.remaining() != 0 {
        return Err(CodecError::Trailing);
    }
    Ok(v)
}

fn decode_at(r: &mut Reader<'_>, depth: u32) -> Result<Json, CodecError> {
    if depth > MAX_DEPTH {
        return Err(CodecError::TooDeep);
    }
    let tag = r.u8()?;
    match tag {
        T_NULL => Ok(Json::Null),
        T_FALSE => Ok(Json::Bool(false)),
        T_TRUE => Ok(Json::Bool(true)),
        T_INT => Ok(Json::Int(r.i128()?)),
        T_NUM => Ok(Json::Num(f64::from_bits(r.u64()?))),
        T_STR => Ok(Json::Str(r.str()?.to_string())),
        T_ARR => {
            let count = r.count(1)?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(decode_at(r, depth + 1)?);
            }
            Ok(Json::Arr(items))
        }
        T_OBJ => {
            let count = r.count(5)?;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let key = r.str()?.to_string();
                let val = decode_at(r, depth + 1)?;
                entries.push((key, val));
            }
            Ok(Json::Obj(entries))
        }
        T_ARR_F32 => {
            let count = r.count(4)?;
            let bytes = r.take(count * 4)?;
            let items = bytes
                .chunks_exact(4)
                .map(|c| {
                    let b: [u8; 4] = c.try_into().unwrap_or_default();
                    Json::Num(f64::from(f32::from_bits(u32::from_le_bytes(b))))
                })
                .collect();
            Ok(Json::Arr(items))
        }
        T_ARR_F64 => {
            let count = r.count(8)?;
            let bytes = r.take(count * 8)?;
            let items = bytes
                .chunks_exact(8)
                .map(|c| {
                    let b: [u8; 8] = c.try_into().unwrap_or_default();
                    Json::Num(f64::from_bits(u64::from_le_bytes(b)))
                })
                .collect();
            Ok(Json::Arr(items))
        }
        T_ARR_U64 => {
            let count = r.count(8)?;
            let bytes = r.take(count * 8)?;
            let items = bytes
                .chunks_exact(8)
                .map(|c| {
                    let b: [u8; 8] = c.try_into().unwrap_or_default();
                    Json::Int(i128::from(u64::from_le_bytes(b)))
                })
                .collect();
            Ok(Json::Arr(items))
        }
        other => Err(CodecError::Tag(other)),
    }
}

// ---------------------------------------------------------------------
// Container.
// ---------------------------------------------------------------------

/// The exact number of bytes a document with this schema tag and these
/// `(name, payload length)` sections occupies — what a writer reserves so
/// the container is written once, at its final size.
pub fn document_len<'s>(
    schema: &str,
    sections: impl IntoIterator<Item = (&'s str, usize)>,
) -> usize {
    let header = MAGIC.len() + 2 + 4 + schema.len() + 4;
    header + sections.into_iter().map(|(name, len)| 4 + name.len() + 8 + len).sum::<usize>()
}

/// Writes a document's header: magic, version, schema tag and section
/// count. Follow with `sections` × ([`write_section_header`] + exactly
/// the declared payload bytes).
pub fn write_document_header(
    out: &mut Vec<u8>,
    schema: &str,
    sections: usize,
) -> Result<(), CodecError> {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    write_len(out, schema.len())?;
    out.extend_from_slice(schema.as_bytes());
    write_len(out, sections)
}

/// Opens a section of `len` payload bytes, which the caller appends next
/// — how a writer streams a payload it never assembles in a buffer.
pub fn write_section_header(out: &mut Vec<u8>, name: &str, len: usize) -> Result<(), CodecError> {
    write_len(out, name.len())?;
    out.extend_from_slice(name.as_bytes());
    let len = u64::try_from(len).map_err(|_| CodecError::Length)?;
    write_u64_raw(out, len);
    Ok(())
}

/// Assembles a complete binary document: magic, version, schema tag, and
/// the named sections in the given order. Section payloads are opaque
/// bytes (typically [`encode_value`] output or packed records) built in
/// their own buffers — assembly is a straight concatenation with no
/// backpatching, into `out` reserved for the whole document up front.
pub fn write_document(
    out: &mut Vec<u8>,
    schema: &str,
    sections: &[(&str, &[u8])],
) -> Result<(), CodecError> {
    out.reserve(document_len(schema, sections.iter().map(|(name, p)| (*name, p.len()))));
    write_document_header(out, schema, sections.len())?;
    for (name, payload) in sections {
        write_section_header(out, name, payload.len())?;
        out.extend_from_slice(payload);
    }
    Ok(())
}

/// A parsed binary document: the schema tag plus zero-copy views of its
/// sections, in wire order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryDocument<'a> {
    /// The document's schema tag.
    pub schema: &'a str,
    sections: Vec<(&'a str, &'a [u8])>,
}

impl<'a> BinaryDocument<'a> {
    /// The payload of the first section named `name`, if present.
    pub fn section(&self, name: &str) -> Option<&'a [u8]> {
        self.sections.iter().find(|(n, _)| *n == name).map(|(_, p)| *p)
    }

    /// Like [`BinaryDocument::section`], but a typed error when absent.
    pub fn require(&self, name: &str) -> Result<&'a [u8], CodecError> {
        self.section(name).ok_or_else(|| CodecError::MissingSection(name.to_string()))
    }

    /// The sections in wire order.
    pub fn sections(&self) -> impl Iterator<Item = (&'a str, &'a [u8])> + '_ {
        self.sections.iter().copied()
    }

    /// Requires the document to carry exactly `schema`, as a typed error.
    pub fn check_schema(&self, schema: &str) -> Result<(), CodecError> {
        if self.schema == schema {
            Ok(())
        } else {
            Err(CodecError::Schema(self.schema.to_string(), schema.to_string()))
        }
    }
}

/// Parses a binary document's container framing (sections are *not*
/// value-decoded). Rejects bad magic, unknown versions, truncation, and
/// trailing bytes with typed errors; never panics.
pub fn read_document(bytes: &[u8]) -> Result<BinaryDocument<'_>, CodecError> {
    if !is_binary(bytes) {
        return Err(CodecError::NotBinary);
    }
    let mut r = Reader::new(bytes);
    let _magic = r.take(MAGIC.len())?;
    let version = r.u16()?;
    if version != VERSION {
        return Err(CodecError::Version(version));
    }
    let schema = r.str()?;
    let count = r.count(13)?; // name len (4) + u64 payload len (8) + ≥1 name byte
    let mut sections = Vec::with_capacity(count);
    for _ in 0..count {
        let name = r.str()?;
        let len = r.u64()?;
        let len = usize::try_from(len).map_err(|_| CodecError::Length)?;
        let payload = r.take(len)?;
        sections.push((name, payload));
    }
    if r.remaining() != 0 {
        return Err(CodecError::Trailing);
    }
    Ok(BinaryDocument { schema, sections })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ToJson;

    fn roundtrip(v: &Json) -> Json {
        let mut buf = Vec::new();
        encode_value(&mut buf, v).unwrap();
        decode_value(&buf).unwrap()
    }

    #[test]
    fn scalars_roundtrip_bit_exactly() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-1),
            Json::Int(i128::MAX),
            Json::Int(i128::MIN),
            Json::Num(0.1),
            Json::Num(-0.0),
            Json::Num(f64::MAX),
            Json::Num(5e-324),
            Json::Str(String::new()),
            Json::Str("héllo\n".into()),
        ] {
            assert_eq!(roundtrip(&v).to_string(), v.to_string());
        }
        // Bit-level check for the signed zero (text form can't see it).
        match roundtrip(&Json::Num(-0.0)) {
            Json::Num(x) => assert_eq!(x.to_bits(), (-0.0f64).to_bits()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn f32_arrays_pack_and_roundtrip() {
        let xs: Vec<f32> = vec![0.1, -2.5, 3.25e-8, f32::MIN_POSITIVE];
        let v = xs.to_json();
        let mut buf = Vec::new();
        encode_value(&mut buf, &v).unwrap();
        // tag + count + 4 bytes per lane.
        assert_eq!(buf.len(), 1 + 4 + 4 * xs.len());
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn f64_and_u64_arrays_pack() {
        let v = vec![0.1f64, 0.2, 0.3].to_json();
        let mut buf = Vec::new();
        encode_value(&mut buf, &v).unwrap();
        assert_eq!(buf.len(), 1 + 4 + 8 * 3);
        assert_eq!(roundtrip(&v), v);

        let v = vec![0u64, 7, u64::MAX].to_json();
        let mut buf = Vec::new();
        encode_value(&mut buf, &v).unwrap();
        assert_eq!(buf.len(), 1 + 4 + 8 * 3);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn mixed_and_empty_arrays_stay_generic() {
        for v in [
            Json::Arr(vec![]),
            Json::Arr(vec![Json::Int(1), Json::Num(2.0)]),
            Json::Arr(vec![Json::Int(-1), Json::Int(2)]),
            Json::Arr(vec![Json::Null, Json::Num(1.0)]),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn canonical_reencode_is_byte_identical() {
        let doc = Json::obj([
            ("params", vec![0.5f32, -1.25].to_json()),
            ("clock", 12.75f64.to_json()),
            ("indices", vec![3usize, 1, 4].to_json()),
            ("nested", Json::obj([("deep", Json::Arr(vec![Json::Str("x".into())]))])),
        ]);
        let mut a = Vec::new();
        encode_value(&mut a, &doc).unwrap();
        let decoded = decode_value(&a).unwrap();
        let mut b = Vec::new();
        encode_value(&mut b, &decoded).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn typed_writers_match_generic_encoder() {
        // The low-level writers must stream the same bytes the generic
        // encoder produces from the equivalent Json value.
        let params = [0.5f32, -7.0, 0.125];
        let indices = [9usize, 0, 42];
        let words = [1u64, 2, 3, 4];
        let json = Json::obj([
            ("params", params.as_slice().to_json()),
            ("indices", indices.as_slice().to_json()),
            ("rng", words.as_slice().to_json()),
            ("clock", 3.5f64.to_json()),
            ("bad", f64::NAN.to_json()),
            ("steps", 7usize.to_json()),
        ]);
        let mut generic = Vec::new();
        encode_value(&mut generic, &json).unwrap();

        let mut typed = Vec::new();
        write_obj_header(&mut typed, 6).unwrap();
        write_key(&mut typed, "params").unwrap();
        write_f32_slice(&mut typed, &params).unwrap();
        write_key(&mut typed, "indices").unwrap();
        write_usize_slice(&mut typed, &indices).unwrap();
        write_key(&mut typed, "rng").unwrap();
        write_u64_slice(&mut typed, &words).unwrap();
        write_key(&mut typed, "clock").unwrap();
        write_f64_json(&mut typed, 3.5);
        write_key(&mut typed, "bad").unwrap();
        write_f64_json(&mut typed, f64::NAN);
        write_key(&mut typed, "steps").unwrap();
        write_int(&mut typed, 7);
        assert_eq!(generic, typed);
    }

    #[test]
    fn nonfinite_f32_slice_matches_tojson_fallback() {
        let xs = [1.0f32, f32::INFINITY, -0.5];
        let mut typed = Vec::new();
        write_f32_slice(&mut typed, &xs).unwrap();
        let mut generic = Vec::new();
        encode_value(&mut generic, &xs.as_slice().to_json()).unwrap();
        assert_eq!(typed, generic);
    }

    #[test]
    fn container_roundtrips_and_sniffs() {
        let mut meta = Vec::new();
        encode_value(&mut meta, &Json::obj([("v", Json::Int(3))])).unwrap();
        let mut out = Vec::new();
        write_document(&mut out, "test/doc/v1", &[("meta", &meta), ("raw", b"abc")])
            .unwrap();
        assert!(is_binary(&out));
        assert_eq!(out.len(), document_len("test/doc/v1", [("meta", meta.len()), ("raw", 3)]));
        let doc = read_document(&out).unwrap();
        assert_eq!(doc.schema, "test/doc/v1");
        doc.check_schema("test/doc/v1").unwrap();
        assert_eq!(doc.section("raw"), Some(b"abc".as_slice()));
        assert_eq!(decode_value(doc.require("meta").unwrap()).unwrap().to_string(), "{\"v\":3}");
        assert!(matches!(doc.check_schema("other"), Err(CodecError::Schema(_, _))));
        assert!(matches!(doc.require("gone"), Err(CodecError::MissingSection(_))));
        assert!(!is_binary(b"{\"json\":true}"));
        assert!(matches!(read_document(b"{}"), Err(CodecError::NotBinary)));
    }

    #[test]
    fn truncation_yields_typed_errors_at_every_prefix() {
        let doc = Json::obj([
            ("params", vec![0.5f32, -1.0].to_json()),
            ("words", vec![1u64, 2].to_json()),
            ("s", Json::Str("text".into())),
        ]);
        let mut buf = Vec::new();
        encode_value(&mut buf, &doc).unwrap();
        for cut in 0..buf.len() {
            let head = &buf[..cut];
            assert!(decode_value(head).is_err(), "prefix of {cut} bytes decoded");
        }
        let mut out = Vec::new();
        write_document(&mut out, "t/v1", &[("a", &buf)]).unwrap();
        for cut in 0..out.len() {
            assert!(read_document(&out[..cut]).is_err(), "container prefix {cut} parsed");
        }
    }

    #[test]
    fn hostile_lengths_do_not_allocate_or_panic() {
        // A T_ARR claiming u32::MAX elements with no bytes behind it.
        let mut evil = vec![T_ARR];
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_value(&evil), Err(CodecError::Length));
        // Packed array with an impossible element count.
        let mut evil = vec![T_ARR_F64];
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        evil.extend_from_slice(&[0u8; 16]);
        assert_eq!(decode_value(&evil), Err(CodecError::Length));
        // Unknown tag.
        assert_eq!(decode_value(&[0x7F]), Err(CodecError::Tag(0x7F)));
        // Trailing garbage.
        assert_eq!(decode_value(&[T_NULL, 0]), Err(CodecError::Trailing));
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let mut v = Json::Null;
        for _ in 0..200 {
            v = Json::Arr(vec![v]);
        }
        let mut buf = Vec::new();
        assert_eq!(encode_value(&mut buf, &v), Err(CodecError::TooDeep));
        // Hand-build the equivalent wire form to hit the decoder's limit.
        let mut bytes = Vec::new();
        for _ in 0..200 {
            bytes.push(T_ARR);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(T_NULL);
        assert_eq!(decode_value(&bytes), Err(CodecError::TooDeep));
    }
}
