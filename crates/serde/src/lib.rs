//! Offline stand-in for `serde`.
//!
//! The build environment has no registry access, so the workspace carries a
//! small serialization framework under the same crate name. It
//! implements exactly the subset this repository uses:
//!
//! - `#[derive(Serialize, Deserialize)]` on non-generic structs and enums
//!   (unit, newtype, tuple and struct variants),
//! - field attributes `#[serde(default)]` and `#[serde(default = "path")]`,
//! - container attribute `#[serde(into = "T", from = "T")]`,
//! - the `serde_json` front end (`to_string`, `to_string_pretty`,
//!   `from_str`).
//!
//! The data model mirrors serde's JSON one (externally tagged enums,
//! transparent newtypes, `null` for `None`), so the on-disk JSON produced
//! by the real serde for these types round-trips here and vice versa.
//! Serialization streams: each type's one serializer,
//! [`Serialize::serialize_to`], drives a [`Sink`], so `serde_json` writes
//! text with no tree in between, while [`Serialize::serialize`] assembles
//! a [`Value`] for code that builds documents by hand. Deserialization
//! reads a [`Value`] tree.
//!
//! The same derives additionally emit a positional **binary** codec
//! ([`BinSerialize`] / [`BinDeserialize`]) that skips the `Value` tree
//! entirely — see the binary-codec section below. It is a private wire
//! format for callers that own both ends (the persistent compilation
//! cache); JSON remains the interchange format.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// A JSON-shaped value tree: what deserialization reads, and what
/// [`Serialize::serialize`] builds.
///
/// Objects preserve insertion order (like `serde_json`'s `preserve_order`
/// feature) so serialized output is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (covers every integer the workspace serializes; a
    /// `u64` above `i64::MAX` uses [`Value::UInt`]).
    Int(i64),
    /// Unsigned integer that does not fit in `i64`.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object, insertion-ordered.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// A short description of the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Looks up a field of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => obj_get(fields, key),
            _ => None,
        }
    }
}

/// Field lookup in an insertion-ordered object body.
pub fn obj_get<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Deserialization error: a human-readable message with enough context to
/// find the offending field.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Builds a "missing field" error (used by derived code).
pub fn missing_field<T>(ty: &str, field: &str) -> Result<T, DeError> {
    Err(DeError(format!("{ty}: missing field `{field}`")))
}

/// Builds an "unknown enum variant" error (used by derived code).
pub fn unknown_variant<T>(ty: &str, variant: &str) -> Result<T, DeError> {
    Err(DeError(format!("{ty}: unknown variant `{variant}`")))
}

/// Builds a type-mismatch error (used by derived code).
pub fn unexpected<T>(ty: &str, want: &str, got: &Value) -> Result<T, DeError> {
    Err(DeError(format!("{ty}: expected {want}, found {}", got.kind())))
}

/// Whether a field still holds its type's default value — the test behind
/// `#[serde(skip_default)]`, which omits such fields from serialized
/// objects (pair it with `#[serde(default)]` so they also read back).
pub fn is_default<T: Default + PartialEq>(v: &T) -> bool {
    *v == T::default()
}

/// The receiving end of serialization: a [`Serialize`] impl streams its
/// value into a sink as a sequence of JSON-model events. Array elements
/// need no separator calls; an object field is [`Sink::key`] followed by
/// its value.
///
/// Two sinks exist: `serde_json` writes the events as text straight into
/// its output, and [`Serialize::serialize`] assembles them into a
/// [`Value`].
pub trait Sink {
    /// `null`.
    fn null(&mut self);
    /// A boolean.
    fn bool(&mut self, b: bool);
    /// A signed integer.
    fn int(&mut self, n: i64);
    /// An unsigned integer (integer impls send the ones above `i64::MAX`).
    fn uint(&mut self, n: u64);
    /// A floating-point number.
    fn float(&mut self, x: f64);
    /// A string.
    fn str(&mut self, s: &str);
    /// Opens an array; each value until [`Sink::end_array`] is an element.
    fn begin_array(&mut self);
    /// Closes the innermost open array.
    fn end_array(&mut self);
    /// Opens an object.
    fn begin_object(&mut self);
    /// Names the next value as a field of the innermost open object.
    fn key(&mut self, key: &str);
    /// Closes the innermost open object.
    fn end_object(&mut self);

    /// One object field: `key`, then `value`.
    fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T)
    where
        Self: Sized,
    {
        self.key(key);
        value.serialize_to(self);
    }
}

/// A [`Sink`] that assembles the events into a [`Value`] tree.
#[derive(Debug, Default)]
struct TreeSink {
    /// Open arrays and objects, innermost last. An object's last entry
    /// holds `Null` from its [`Sink::key`] until its value arrives.
    open: Vec<Value>,
    done: Option<Value>,
}

impl TreeSink {
    /// The finished tree.
    fn finish(self) -> Value {
        assert!(self.open.is_empty(), "TreeSink: unclosed array or object");
        self.done.expect("TreeSink: no value was serialized")
    }

    fn put(&mut self, v: Value) {
        match self.open.last_mut() {
            None => self.done = Some(v),
            Some(Value::Array(items)) => items.push(v),
            Some(Value::Object(fields)) => {
                fields.last_mut().expect("a key before each value").1 = v
            }
            Some(_) => unreachable!("only arrays and objects are open"),
        }
    }

    fn close(&mut self) {
        let v = self.open.pop().expect("TreeSink: close without open");
        self.put(v);
    }
}

impl Sink for TreeSink {
    fn null(&mut self) {
        self.put(Value::Null);
    }
    fn bool(&mut self, b: bool) {
        self.put(Value::Bool(b));
    }
    fn int(&mut self, n: i64) {
        self.put(Value::Int(n));
    }
    fn uint(&mut self, n: u64) {
        self.put(Value::UInt(n));
    }
    fn float(&mut self, x: f64) {
        self.put(Value::Float(x));
    }
    fn str(&mut self, s: &str) {
        self.put(Value::Str(s.to_string()));
    }
    fn begin_array(&mut self) {
        self.open.push(Value::Array(Vec::new()));
    }
    fn end_array(&mut self) {
        self.close();
    }
    fn begin_object(&mut self) {
        self.open.push(Value::Object(Vec::new()));
    }
    fn key(&mut self, key: &str) {
        match self.open.last_mut() {
            Some(Value::Object(fields)) => fields.push((key.to_string(), Value::Null)),
            _ => panic!("TreeSink: key `{key}` outside an object"),
        }
    }
    fn end_object(&mut self) {
        self.close();
    }
}

/// Types that can stream themselves into a [`Sink`].
pub trait Serialize {
    /// Streams `self` into `sink`: the type's one serializer.
    fn serialize_to<S: Sink>(&self, sink: &mut S);

    /// `self` as a value tree, for code that assembles documents: the
    /// events of [`Serialize::serialize_to`], collected.
    fn serialize(&self) -> Value {
        let mut tree = TreeSink::default();
        self.serialize_to(&mut tree);
        tree.finish()
    }
}

/// Types that can be rebuilt from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from the value tree.
    fn deserialize(v: &Value) -> Result<Self, DeError>;
}

/// Streams `items` as an array.
fn serialize_seq<S: Sink>(items: impl IntoIterator<Item = impl Serialize>, sink: &mut S) {
    sink.begin_array();
    for item in items {
        item.serialize_to(sink);
    }
    sink.end_array();
}

// ---------------------------------------------------------------- primitives

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_to<S: Sink>(&self, sink: &mut S) {
                sink.int(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<$t, DeError> {
                let n: i64 = match *v {
                    Value::Int(n) => n,
                    Value::UInt(n) => {
                        i64::try_from(n).map_err(|_| DeError(format!("integer {n} overflows")))?
                    }
                    ref other => return unexpected(stringify!($t), "integer", other),
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError(format!("integer {n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_to<S: Sink>(&self, sink: &mut S) {
                match i64::try_from(*self) {
                    Ok(n) => sink.int(n),
                    Err(_) => sink.uint(*self as u64),
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<$t, DeError> {
                let n: u64 = match *v {
                    Value::Int(n) => {
                        u64::try_from(n).map_err(|_| DeError(format!("integer {n} is negative")))?
                    }
                    Value::UInt(n) => n,
                    ref other => return unexpected(stringify!($t), "integer", other),
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError(format!("integer {n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);
impl_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for bool {
    fn serialize_to<S: Sink>(&self, sink: &mut S) {
        sink.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<bool, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => unexpected("bool", "bool", other),
        }
    }
}

impl Serialize for f64 {
    fn serialize_to<S: Sink>(&self, sink: &mut S) {
        sink.float(*self);
    }
}

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<f64, DeError> {
        match *v {
            Value::Float(x) => Ok(x),
            Value::Int(n) => Ok(n as f64),
            Value::UInt(n) => Ok(n as f64),
            ref other => unexpected("f64", "number", other),
        }
    }
}

impl Serialize for String {
    fn serialize_to<S: Sink>(&self, sink: &mut S) {
        sink.str(self);
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<String, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => unexpected("String", "string", other),
        }
    }
}

impl Serialize for str {
    fn serialize_to<S: Sink>(&self, sink: &mut S) {
        sink.str(self);
    }
}

impl Serialize for char {
    fn serialize_to<S: Sink>(&self, sink: &mut S) {
        sink.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn deserialize(v: &Value) -> Result<char, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => unexpected("char", "single-character string", other),
        }
    }
}

// -------------------------------------------------------------- containers

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_to<S: Sink>(&self, sink: &mut S) {
        (**self).serialize_to(sink);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize_to<S: Sink>(&self, sink: &mut S) {
        (**self).serialize_to(sink);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(v: &Value) -> Result<Box<T>, DeError> {
        Ok(Box::new(T::deserialize(v)?))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_to<S: Sink>(&self, sink: &mut S) {
        match self {
            None => sink.null(),
            Some(x) => x.serialize_to(sink),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Option<T>, DeError> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::deserialize(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_to<S: Sink>(&self, sink: &mut S) {
        serialize_seq(self, sink);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Vec<T>, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::deserialize).collect(),
            other => unexpected("Vec", "array", other),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_to<S: Sink>(&self, sink: &mut S) {
        serialize_seq(self, sink);
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize_to<S: Sink>(&self, sink: &mut S) {
                sink.begin_array();
                $(self.$n.serialize_to(sink);)+
                sink.end_array();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(v: &Value) -> Result<($($t,)+), DeError> {
                const LEN: usize = [$($n),+].len();
                match v {
                    Value::Array(items) if items.len() == LEN => {
                        Ok(($($t::deserialize(&items[$n])?,)+))
                    }
                    other => unexpected("tuple", "fixed-length array", other),
                }
            }
        }
    )*};
}

impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

// Maps serialize as arrays of `[key, value]` pairs. (The real serde_json
// rejects non-string map keys outright; this workspace carries tuple- and
// integer-keyed maps, so the pair-array form is used uniformly.) A
// `HashMap`'s pairs are sorted by their value trees' `Debug` text, so its
// bytes do not depend on the hasher's iteration order.
impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize_to<S: Sink>(&self, sink: &mut S) {
        let mut entries: Vec<Value> = self.iter().map(|entry| entry.serialize()).collect();
        entries.sort_by_key(|e| format!("{e:?}"));
        serialize_seq(&entries, sink);
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + Eq + std::hash::Hash,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn deserialize(v: &Value) -> Result<HashMap<K, V, S>, DeError> {
        match v {
            Value::Array(items) => items
                .iter()
                .map(|item| match item {
                    Value::Array(pair) if pair.len() == 2 => {
                        Ok((K::deserialize(&pair[0])?, V::deserialize(&pair[1])?))
                    }
                    other => unexpected("HashMap entry", "[key, value] pair", other),
                })
                .collect(),
            other => unexpected("HashMap", "array of pairs", other),
        }
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize_to<S: Sink>(&self, sink: &mut S) {
        serialize_seq(self, sink);
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(v: &Value) -> Result<BTreeMap<K, V>, DeError> {
        match v {
            Value::Array(items) => items
                .iter()
                .map(|item| match item {
                    Value::Array(pair) if pair.len() == 2 => {
                        Ok((K::deserialize(&pair[0])?, V::deserialize(&pair[1])?))
                    }
                    other => unexpected("BTreeMap entry", "[key, value] pair", other),
                })
                .collect(),
            other => unexpected("BTreeMap", "array of pairs", other),
        }
    }
}

impl<T: Serialize, H> Serialize for HashSet<T, H> {
    fn serialize_to<S: Sink>(&self, sink: &mut S) {
        serialize_seq(self, sink);
    }
}

impl<T: Deserialize + Eq + std::hash::Hash, S: std::hash::BuildHasher + Default> Deserialize
    for HashSet<T, S>
{
    fn deserialize(v: &Value) -> Result<HashSet<T, S>, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::deserialize).collect(),
            other => unexpected("HashSet", "array", other),
        }
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize_to<S: Sink>(&self, sink: &mut S) {
        serialize_seq(self, sink);
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(v: &Value) -> Result<BTreeSet<T>, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::deserialize).collect(),
            other => unexpected("BTreeSet", "array", other),
        }
    }
}

/// The one walk over a [`Value`] tree: `serde_json` writes a tree as text
/// through this impl.
impl Serialize for Value {
    fn serialize_to<S: Sink>(&self, sink: &mut S) {
        match self {
            Value::Null => sink.null(),
            Value::Bool(b) => sink.bool(*b),
            Value::Int(n) => sink.int(*n),
            Value::UInt(n) => sink.uint(*n),
            Value::Float(x) => sink.float(*x),
            Value::Str(s) => sink.str(s),
            Value::Array(items) => serialize_seq(items, sink),
            Value::Object(fields) => {
                sink.begin_object();
                for (k, v) in fields {
                    sink.field(k, v);
                }
                sink.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Value, DeError> {
        Ok(v.clone())
    }
}

// ------------------------------------------------------------ binary codec
//
// A second, positional wire format alongside the [`Value`] tree. The JSON
// data model spends most of its decode time materializing an intermediate
// tree — every field name a heap `String`, every node an enum — only to
// walk it once and throw it away. The binary codec goes straight between
// structs and bytes: fields travel in declaration order with no names, so
// the schema lives in the type and a load allocates each string and vector
// exactly once. Both formats are emitted by the same derives; callers that
// own both ends of the wire (the persistent compilation cache) use this
// one, while JSON stays the interchange format.
//
// Wire format (all integers little-endian): integers widen to 8 bytes;
// `bool` and `Option` tags are 1 byte; strings and collections are
// u32-length-prefixed; enums are a u32 variant index (declaration order)
// followed by the payload fields. Hash-ordered containers sort by encoded
// key so identical values always produce identical bytes.

/// Types that can append themselves to the positional binary format.
pub trait BinSerialize {
    /// Appends the binary encoding of `self` to `out`.
    fn bin_serialize(&self, out: &mut Vec<u8>);
}

/// Types that can be rebuilt from the positional binary format.
pub trait BinDeserialize: Sized {
    /// Consumes `Self`'s encoding from the front of `cursor`.
    fn bin_deserialize(cursor: &mut &[u8]) -> Result<Self, DeError>;
}

/// Splits `n` bytes off the front of `cursor` (decode building block).
#[inline]
pub fn bin_take<'a>(cursor: &mut &'a [u8], n: usize) -> Result<&'a [u8], DeError> {
    if cursor.len() < n {
        return Err(bin_truncated(n, cursor.len()));
    }
    let (head, tail) = cursor.split_at(n);
    *cursor = tail;
    Ok(head)
}

/// The error of a read of `need` bytes from a cursor holding `have`: kept
/// out of line, so the inlined reads carry only their bounds check.
#[cold]
#[inline(never)]
fn bin_truncated(need: usize, have: usize) -> DeError {
    DeError(format!("binary payload truncated: need {need} bytes, have {have}"))
}

/// Writes a u32 length prefix (panics on `> u32::MAX` elements).
#[inline]
pub fn bin_put_len(n: usize, out: &mut Vec<u8>) {
    let n = u32::try_from(n).expect("binary codec: collection exceeds u32::MAX elements");
    out.extend_from_slice(&n.to_le_bytes());
}

/// Reads a u32 (length prefixes, enum variant indices).
#[inline]
pub fn bin_take_u32(cursor: &mut &[u8]) -> Result<u32, DeError> {
    Ok(u32::from_le_bytes(bin_take(cursor, 4)?.try_into().expect("4-byte slice")))
}

/// Reads a length prefix. The value is *claimed*, not trusted: callers cap
/// pre-allocation at the bytes actually remaining, so a corrupt length
/// fails on a later read instead of ballooning memory.
#[inline]
pub fn bin_take_len(cursor: &mut &[u8]) -> Result<usize, DeError> {
    Ok(bin_take_u32(cursor)? as usize)
}

/// Builds an "unknown variant index" error (used by derived code).
pub fn bin_bad_variant<T>(ty: &str, index: u32) -> Result<T, DeError> {
    Err(DeError(format!("{ty}: unknown binary variant index {index}")))
}

macro_rules! impl_bin_int {
    ($wide:ty; $($t:ty),*) => {$(
        impl BinSerialize for $t {
            #[inline]
            fn bin_serialize(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&(*self as $wide).to_le_bytes());
            }
        }
        impl BinDeserialize for $t {
            #[inline]
            fn bin_deserialize(cursor: &mut &[u8]) -> Result<$t, DeError> {
                let n = <$wide>::from_le_bytes(bin_take(cursor, 8)?.try_into().expect("8-byte slice"));
                <$t>::try_from(n)
                    .map_err(|_| DeError(format!("integer {n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_bin_int!(i64; i8, i16, i32, i64, isize);
impl_bin_int!(u64; u8, u16, u32, u64, usize);

impl BinSerialize for bool {
    #[inline]
    fn bin_serialize(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl BinDeserialize for bool {
    #[inline]
    fn bin_deserialize(cursor: &mut &[u8]) -> Result<bool, DeError> {
        match bin_take(cursor, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DeError(format!("bool: invalid byte {other}"))),
        }
    }
}

impl BinSerialize for f64 {
    #[inline]
    fn bin_serialize(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
}

impl BinDeserialize for f64 {
    #[inline]
    fn bin_deserialize(cursor: &mut &[u8]) -> Result<f64, DeError> {
        Ok(f64::from_bits(u64::from_le_bytes(
            bin_take(cursor, 8)?.try_into().expect("8-byte slice"),
        )))
    }
}

impl BinSerialize for String {
    #[inline]
    fn bin_serialize(&self, out: &mut Vec<u8>) {
        self.as_str().bin_serialize(out);
    }
}

impl BinDeserialize for String {
    #[inline]
    fn bin_deserialize(cursor: &mut &[u8]) -> Result<String, DeError> {
        let len = bin_take_len(cursor)?;
        String::from_utf8(bin_take(cursor, len)?.to_vec())
            .map_err(|_| DeError("string: invalid UTF-8".to_string()))
    }
}

impl BinSerialize for str {
    #[inline]
    fn bin_serialize(&self, out: &mut Vec<u8>) {
        bin_put_len(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl BinSerialize for char {
    #[inline]
    fn bin_serialize(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u32).to_le_bytes());
    }
}

impl BinDeserialize for char {
    #[inline]
    fn bin_deserialize(cursor: &mut &[u8]) -> Result<char, DeError> {
        let n = bin_take_u32(cursor)?;
        char::from_u32(n).ok_or_else(|| DeError(format!("char: invalid scalar value {n}")))
    }
}

impl<T: BinSerialize + ?Sized> BinSerialize for &T {
    fn bin_serialize(&self, out: &mut Vec<u8>) {
        (**self).bin_serialize(out);
    }
}

impl<T: BinSerialize + ?Sized> BinSerialize for Box<T> {
    fn bin_serialize(&self, out: &mut Vec<u8>) {
        (**self).bin_serialize(out);
    }
}

impl<T: BinDeserialize> BinDeserialize for Box<T> {
    fn bin_deserialize(cursor: &mut &[u8]) -> Result<Box<T>, DeError> {
        Ok(Box::new(T::bin_deserialize(cursor)?))
    }
}

impl<T: BinSerialize> BinSerialize for Option<T> {
    fn bin_serialize(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(x) => {
                out.push(1);
                x.bin_serialize(out);
            }
        }
    }
}

impl<T: BinDeserialize> BinDeserialize for Option<T> {
    fn bin_deserialize(cursor: &mut &[u8]) -> Result<Option<T>, DeError> {
        match bin_take(cursor, 1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::bin_deserialize(cursor)?)),
            other => Err(DeError(format!("Option: invalid tag {other}"))),
        }
    }
}

impl<T: BinSerialize> BinSerialize for Vec<T> {
    fn bin_serialize(&self, out: &mut Vec<u8>) {
        self.as_slice().bin_serialize(out);
    }
}

impl<T: BinDeserialize> BinDeserialize for Vec<T> {
    fn bin_deserialize(cursor: &mut &[u8]) -> Result<Vec<T>, DeError> {
        let n = bin_take_len(cursor)?;
        let mut items = Vec::with_capacity(n.min(cursor.len()));
        for _ in 0..n {
            items.push(T::bin_deserialize(cursor)?);
        }
        Ok(items)
    }
}

impl<T: BinSerialize> BinSerialize for [T] {
    fn bin_serialize(&self, out: &mut Vec<u8>) {
        bin_put_len(self.len(), out);
        for item in self {
            item.bin_serialize(out);
        }
    }
}

macro_rules! impl_bin_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: BinSerialize),+> BinSerialize for ($($t,)+) {
            fn bin_serialize(&self, out: &mut Vec<u8>) {
                $(self.$n.bin_serialize(out);)+
            }
        }
        impl<$($t: BinDeserialize),+> BinDeserialize for ($($t,)+) {
            fn bin_deserialize(cursor: &mut &[u8]) -> Result<($($t,)+), DeError> {
                Ok(($($t::bin_deserialize(cursor)?,)+))
            }
        }
    )*};
}

impl_bin_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// Length-prefixed `(key, value)` stream, sorted by encoded key bytes so
/// hash-ordered maps encode deterministically (keys are unique, so the
/// byte order is total).
fn bin_encode_pairs<'a, K, V>(
    pairs: impl Iterator<Item = (&'a K, &'a V)>,
    len: usize,
    out: &mut Vec<u8>,
) where
    K: BinSerialize + 'a,
    V: BinSerialize + 'a,
{
    let mut entries: Vec<(Vec<u8>, &V)> = pairs
        .map(|(k, v)| {
            let mut kb = Vec::new();
            k.bin_serialize(&mut kb);
            (kb, v)
        })
        .collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    bin_put_len(len, out);
    for (kb, v) in entries {
        out.extend_from_slice(&kb);
        v.bin_serialize(out);
    }
}

impl<K: BinSerialize, V: BinSerialize, S> BinSerialize for HashMap<K, V, S> {
    fn bin_serialize(&self, out: &mut Vec<u8>) {
        bin_encode_pairs(self.iter(), self.len(), out);
    }
}

impl<K, V, S> BinDeserialize for HashMap<K, V, S>
where
    K: BinDeserialize + Eq + std::hash::Hash,
    V: BinDeserialize,
    S: std::hash::BuildHasher + Default,
{
    fn bin_deserialize(cursor: &mut &[u8]) -> Result<HashMap<K, V, S>, DeError> {
        let n = bin_take_len(cursor)?;
        let mut map = HashMap::with_capacity_and_hasher(n.min(cursor.len()), S::default());
        for _ in 0..n {
            map.insert(K::bin_deserialize(cursor)?, V::bin_deserialize(cursor)?);
        }
        Ok(map)
    }
}

impl<K: BinSerialize, V: BinSerialize> BinSerialize for BTreeMap<K, V> {
    fn bin_serialize(&self, out: &mut Vec<u8>) {
        bin_put_len(self.len(), out);
        for (k, v) in self {
            k.bin_serialize(out);
            v.bin_serialize(out);
        }
    }
}

impl<K: BinDeserialize + Ord, V: BinDeserialize> BinDeserialize for BTreeMap<K, V> {
    fn bin_deserialize(cursor: &mut &[u8]) -> Result<BTreeMap<K, V>, DeError> {
        let n = bin_take_len(cursor)?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let k = K::bin_deserialize(cursor)?;
            let v = V::bin_deserialize(cursor)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

impl<T: BinSerialize, S> BinSerialize for HashSet<T, S> {
    fn bin_serialize(&self, out: &mut Vec<u8>) {
        let mut entries: Vec<Vec<u8>> = self
            .iter()
            .map(|x| {
                let mut xb = Vec::new();
                x.bin_serialize(&mut xb);
                xb
            })
            .collect();
        entries.sort_unstable();
        bin_put_len(entries.len(), out);
        for xb in entries {
            out.extend_from_slice(&xb);
        }
    }
}

impl<T: BinDeserialize + Eq + std::hash::Hash, S: std::hash::BuildHasher + Default> BinDeserialize
    for HashSet<T, S>
{
    fn bin_deserialize(cursor: &mut &[u8]) -> Result<HashSet<T, S>, DeError> {
        let n = bin_take_len(cursor)?;
        let mut set = HashSet::with_capacity_and_hasher(n.min(cursor.len()), S::default());
        for _ in 0..n {
            set.insert(T::bin_deserialize(cursor)?);
        }
        Ok(set)
    }
}

impl<T: BinSerialize> BinSerialize for BTreeSet<T> {
    fn bin_serialize(&self, out: &mut Vec<u8>) {
        bin_put_len(self.len(), out);
        for item in self {
            item.bin_serialize(out);
        }
    }
}

impl<T: BinDeserialize + Ord> BinDeserialize for BTreeSet<T> {
    fn bin_deserialize(cursor: &mut &[u8]) -> Result<BTreeSet<T>, DeError> {
        let n = bin_take_len(cursor)?;
        let mut set = BTreeSet::new();
        for _ in 0..n {
            set.insert(T::bin_deserialize(cursor)?);
        }
        Ok(set)
    }
}
