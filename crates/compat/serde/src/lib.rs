//! The workspace's one serialisation layer: a small binary codec that
//! carries the `.pa` artifact file, `registry.bin` and the
//! `pegasusctl` ↔ `pegasusd` frames. It is named `serde` for the familiar
//! `Serialize` / `Deserialize` vocabulary but shares no code or wire
//! format with the crates.io crate, and there are no derives: a type's
//! codec is one macro line beside its definition.
//!
//! * integers are fixed-width **little-endian** (`usize` travels as
//!   `u64`), floats as their IEEE-754 bit patterns (bit-exact round
//!   trips, no NaN canonicalization);
//! * `bool` and `Option` are one tag byte (anything other than 0/1 is a
//!   typed decode error, not a panic);
//! * strings, vectors and maps are a `u32` element count followed by the
//!   elements — the count is bounds-checked against the bytes actually
//!   remaining, so a hostile length prefix cannot drive a huge
//!   allocation;
//! * structs are their fields in the order [`impl_serde_struct!`] lists
//!   them, nothing else;
//! * enums are a `u8` tag declared beside the variant in
//!   [`impl_serde_enum!`], then the variant's fields in the listed order.
//!   Every recursive wire type recurses through an enum, so enum decoding
//!   is what is bounded: more than [`MAX_DECODE_DEPTH`] enums inside one
//!   another is [`DecodeError::TooDeep`], never a stack overflow.
//!
//! The bytes are a contract (`ARTIFACT_FORMAT_VERSION`,
//! `REGISTRY_FORMAT_VERSION`): tags and field order never change without
//! a version bump, and golden-byte tests in the owning crates pin them.
//! Deserialization never panics: malformed input surfaces as a
//! [`DecodeError`].

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// How many enums may nest inside one another in one decoded value. Real
/// route predicates and switch programs nest fewer than 8 deep.
pub const MAX_DECODE_DEPTH: usize = 64;

/// Why a byte buffer failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value did.
    Eof {
        /// What was being decoded.
        what: &'static str,
        /// Bytes the value needed.
        needed: usize,
        /// Bytes left in the buffer.
        remaining: usize,
    },
    /// A discriminant byte (enum tag, bool, `Option` marker) holds a
    /// value the type has no arm for.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A length prefix promises more elements than the remaining bytes
    /// could possibly hold.
    BadLength {
        /// The collection being decoded.
        what: &'static str,
        /// The claimed element count.
        len: usize,
        /// Bytes left in the buffer.
        remaining: usize,
    },
    /// A well-formed scalar its owner refuses to act on (a declared size).
    OutOfRange {
        /// The quantity being decoded.
        what: &'static str,
        /// The refused value.
        value: u64,
    },
    /// Enums nest deeper than [`MAX_DECODE_DEPTH`] (a hostile recursive
    /// value; decoding it further would overflow the stack).
    TooDeep {
        /// The enum whose decoder hit the limit.
        what: &'static str,
        /// The limit.
        limit: usize,
    },
    /// String bytes are not valid UTF-8.
    Utf8,
    /// [`from_bytes`] decoded a complete value but bytes were left over.
    TrailingBytes {
        /// Undecoded bytes after the value.
        remaining: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Eof { what, needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input decoding {what}: need {needed} bytes, {remaining} left"
                )
            }
            DecodeError::BadTag { what, tag } => {
                write!(f, "invalid discriminant {tag:#04x} for {what}")
            }
            DecodeError::BadLength { what, len, remaining } => {
                write!(f, "length prefix {len} for {what} exceeds the {remaining} bytes remaining")
            }
            DecodeError::OutOfRange { what, value } => {
                write!(f, "{what} {value} is outside the supported range")
            }
            DecodeError::TooDeep { what, limit } => {
                write!(f, "{what} nests more than {limit} enums deep")
            }
            DecodeError::Utf8 => write!(f, "string bytes are not valid UTF-8"),
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete value")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Byte-buffer sink values serialize into.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far, borrowed.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Append one raw byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn write_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes verbatim (no length prefix).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a `u32` element-count prefix. Counts beyond `u32::MAX`
    /// cannot occur for in-memory collections on supported targets, but
    /// saturate defensively rather than truncate silently.
    pub fn write_len(&mut self, len: usize) {
        self.write_u32(u32::try_from(len).unwrap_or(u32::MAX));
    }
}

/// Cursor over a borrowed byte buffer values deserialize from.
#[derive(Debug)]
pub struct Reader<'de> {
    buf: &'de [u8],
    pos: usize,
    depth: usize,
}

impl<'de> Reader<'de> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'de [u8]) -> Self {
        Reader { buf, pos: 0, depth: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'de [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Eof { what, needed: n, remaining: self.remaining() });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one raw byte.
    pub fn read_u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn read_u16(&mut self, what: &'static str) -> Result<u16, DecodeError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize, what: &'static str) -> Result<&'de [u8], DecodeError> {
        self.take(n, what)
    }

    /// Runs `decode` one nesting level down — [`impl_serde_enum!`] wraps
    /// every enum decoder in this — refusing to go deeper than
    /// [`MAX_DECODE_DEPTH`]. The level is released on success and on error.
    pub fn nested<T>(
        &mut self,
        what: &'static str,
        decode: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        if self.depth == MAX_DECODE_DEPTH {
            return Err(DecodeError::TooDeep { what, limit: MAX_DECODE_DEPTH });
        }
        self.depth += 1;
        let value = decode(self);
        self.depth -= 1;
        value
    }

    /// Read a `u32` element count and sanity-check it against the bytes
    /// remaining (every element of every supported type occupies at
    /// least one byte, so a count beyond `remaining` is corrupt and must
    /// not reach an allocator).
    pub fn read_len(&mut self, what: &'static str) -> Result<usize, DecodeError> {
        let len = self.read_u32(what)? as usize;
        if len > self.remaining() {
            return Err(DecodeError::BadLength { what, len, remaining: self.remaining() });
        }
        Ok(len)
    }
}

/// Types that can write themselves into a [`Writer`].
pub trait Serialize {
    /// Append this value's encoding.
    fn serialize(&self, w: &mut Writer);
}

/// Types that can read themselves back out of a [`Reader`].
pub trait Deserialize<'de>: Sized {
    /// Decode one value, advancing the reader past it.
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, DecodeError>;
}

/// Encode a value to a fresh byte vector.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.serialize(&mut w);
    w.into_bytes()
}

/// Decode exactly one value from a buffer; trailing bytes are an error.
pub fn from_bytes<'de, T: Deserialize<'de>>(bytes: &'de [u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    let value = T::deserialize(&mut r)?;
    if r.remaining() != 0 {
        return Err(DecodeError::TrailingBytes { remaining: r.remaining() });
    }
    Ok(value)
}

// --- primitive impls ---------------------------------------------------

macro_rules! impl_int {
    ($($ty:ty => $write:ident / $read:ident / $tag:literal),+ $(,)?) => {
        $(
            impl Serialize for $ty {
                fn serialize(&self, w: &mut Writer) {
                    w.$write(*self);
                }
            }
            impl<'de> Deserialize<'de> for $ty {
                fn deserialize(r: &mut Reader<'de>) -> Result<Self, DecodeError> {
                    r.$read($tag)
                }
            }
        )+
    };
}

impl_int! {
    u8 => write_u8 / read_u8 / "u8",
    u16 => write_u16 / read_u16 / "u16",
    u32 => write_u32 / read_u32 / "u32",
    u64 => write_u64 / read_u64 / "u64",
}

macro_rules! impl_via_bits {
    ($($ty:ty => $carrier:ty, $to:ident, $from:ident;)+) => {
        $(
            impl Serialize for $ty {
                fn serialize(&self, w: &mut Writer) {
                    <$carrier as Serialize>::serialize(&self.$to(), w);
                }
            }
            impl<'de> Deserialize<'de> for $ty {
                fn deserialize(r: &mut Reader<'de>) -> Result<Self, DecodeError> {
                    Ok(<$ty>::$from(<$carrier as Deserialize>::deserialize(r)?))
                }
            }
        )+
    };
}

impl_via_bits! {
    f32 => u32, to_bits, from_bits;
    f64 => u64, to_bits, from_bits;
}

macro_rules! impl_signed {
    ($($ty:ty => $carrier:ty),+ $(,)?) => {
        $(
            impl Serialize for $ty {
                fn serialize(&self, w: &mut Writer) {
                    <$carrier as Serialize>::serialize(&(*self as $carrier), w);
                }
            }
            impl<'de> Deserialize<'de> for $ty {
                fn deserialize(r: &mut Reader<'de>) -> Result<Self, DecodeError> {
                    Ok(<$carrier as Deserialize>::deserialize(r)? as $ty)
                }
            }
        )+
    };
}

impl_signed! {
    i8 => u8,
    i16 => u16,
    i32 => u32,
    i64 => u64,
}

impl Serialize for usize {
    fn serialize(&self, w: &mut Writer) {
        w.write_u64(*self as u64);
    }
}

impl<'de> Deserialize<'de> for usize {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, DecodeError> {
        let v = r.read_u64("usize")?;
        let remaining = r.remaining();
        usize::try_from(v).map_err(|_| DecodeError::BadLength {
            what: "usize",
            len: usize::MAX,
            remaining,
        })
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.write_u8(u8::from(*self));
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, DecodeError> {
        match r.read_u8("bool")? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what: "bool", tag }),
        }
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        self.as_str().serialize(w);
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, DecodeError> {
        let len = r.read_len("string")?;
        let bytes = r.read_bytes(len, "string")?;
        std::str::from_utf8(bytes).map(str::to_owned).map_err(|_| DecodeError::Utf8)
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.write_len(self.len());
        w.write_bytes(self.as_bytes());
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (*self).serialize(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            None => w.write_u8(0),
            Some(v) => {
                w.write_u8(1);
                v.serialize(w);
            }
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, DecodeError> {
        match r.read_u8("option")? {
            0 => Ok(None),
            1 => Ok(Some(T::deserialize(r)?)),
            tag => Err(DecodeError::BadTag { what: "option", tag }),
        }
    }
}

// A pointer travels as its pointee: ownership and sharing are properties
// of the process that decoded the value, not of the bytes.
macro_rules! impl_pointer {
    ($($ptr:ident),+) => {
        $(
            impl<T: Serialize> Serialize for $ptr<T> {
                fn serialize(&self, w: &mut Writer) {
                    self.as_ref().serialize(w);
                }
            }
            impl<'de, T: Deserialize<'de>> Deserialize<'de> for $ptr<T> {
                fn deserialize(r: &mut Reader<'de>) -> Result<Self, DecodeError> {
                    Ok($ptr::new(T::deserialize(r)?))
                }
            }
        )+
    };
}

impl_pointer!(Box, Arc);

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        w.write_len(self.len());
        for item in self {
            item.serialize(w);
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, DecodeError> {
        let len = r.read_len("vec")?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::deserialize(r)?);
        }
        Ok(out)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, w: &mut Writer) {
        for item in self {
            item.serialize(w);
        }
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, DecodeError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::deserialize(r)?);
        }
        // Infallible: the loop above pushed exactly N elements.
        out.try_into().map_err(|_| DecodeError::BadTag { what: "array", tag: 0 })
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize(&self, w: &mut Writer) {
        w.write_len(self.len());
        for (k, v) in self {
            k.serialize(w);
            v.serialize(w);
        }
    }
}

impl<'de, K, V, S> Deserialize<'de> for HashMap<K, V, S>
where
    K: Deserialize<'de> + Eq + Hash,
    V: Deserialize<'de>,
    S: std::hash::BuildHasher + Default,
{
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, DecodeError> {
        let len = r.read_len("map")?;
        let mut out = HashMap::with_capacity_and_hasher(len, S::default());
        for _ in 0..len {
            let k = K::deserialize(r)?;
            let v = V::deserialize(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {
        $(
            impl<$($name: Serialize),+> Serialize for ($($name,)+) {
                fn serialize(&self, w: &mut Writer) {
                    $( self.$idx.serialize(w); )+
                }
            }
            impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
                fn deserialize(r: &mut Reader<'de>) -> Result<Self, DecodeError> {
                    Ok(($($name::deserialize(r)?,)+))
                }
            }
        )+
    };
}

impl_tuple! {
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
}

/// Generate field-by-field [`Serialize`]/[`Deserialize`] impls for a
/// struct with named fields. Invoke it **inside the module that defines
/// the struct** so private fields are in scope:
///
/// ```
/// struct Point {
///     x: i64,
///     y: i64,
/// }
/// serde::impl_serde_struct!(Point { x, y });
///
/// let bytes = serde::to_bytes(&Point { x: 3, y: -4 });
/// let back: Point = serde::from_bytes(&bytes).unwrap();
/// assert_eq!((back.x, back.y), (3, -4));
/// ```
///
/// Fields encode in the order listed; list every field (the decoder
/// builds the struct with exactly these). A trailing `where check` names a
/// `fn(&Self) -> Result<(), DecodeError>` every decoded value must pass.
/// A tuple struct lists a binding per field — `impl_serde_struct!(Id(raw))`
/// makes a newtype travel as its content. Enums take [`impl_serde_enum!`].
#[macro_export]
macro_rules! impl_serde_struct {
    ($ty:ident ( $($field:ident),+ $(,)? )) => {
        impl $crate::Serialize for $ty {
            fn serialize(&self, w: &mut $crate::Writer) {
                let Self($($field),+) = self;
                $( $crate::Serialize::serialize($field, w); )+
            }
        }
        impl<'de> $crate::Deserialize<'de> for $ty {
            fn deserialize(
                r: &mut $crate::Reader<'de>,
            ) -> Result<Self, $crate::DecodeError> {
                $( let $field = $crate::Deserialize::deserialize(r)?; )+
                Ok(Self($($field),+))
            }
        }
    };
    ($ty:ty { $($field:ident),+ $(,)? } $(where $check:expr)?) => {
        impl $crate::Serialize for $ty {
            fn serialize(&self, w: &mut $crate::Writer) {
                $( $crate::Serialize::serialize(&self.$field, w); )+
            }
        }
        impl<'de> $crate::Deserialize<'de> for $ty {
            fn deserialize(
                r: &mut $crate::Reader<'de>,
            ) -> Result<Self, $crate::DecodeError> {
                $( let $field = $crate::Deserialize::deserialize(r)?; )+
                let value = Self { $($field),+ };
                $( $check(&value)?; )?
                Ok(value)
            }
        }
    };
}

/// Generate [`Serialize`]/[`Deserialize`] impls for an enum: one explicit
/// `u8` tag per variant, declared beside it, then the variant's fields in
/// the order listed (unit, tuple and struct variants alike):
///
/// ```
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Empty,
///     Circle(u32),
///     Rect { w: u32, h: u32 },
///     Not(Box<Shape>),
/// }
/// serde::impl_serde_enum!(Shape {
///     0 => Empty,
///     1 => Circle(radius),
///     2 => Rect { w, h },
///     3 => Not(inner),
/// });
///
/// let shape = Shape::Not(Box::new(Shape::Rect { w: 3, h: 4 }));
/// let bytes = serde::to_bytes(&shape);
/// assert_eq!(bytes, [3, 2, 3, 0, 0, 0, 4, 0, 0, 0]);
/// assert_eq!(serde::from_bytes::<Shape>(&bytes), Ok(shape));
/// assert_eq!(
///     serde::from_bytes::<Shape>(&[9]),
///     Err(serde::DecodeError::BadTag { what: "Shape", tag: 9 })
/// );
/// ```
///
/// The tags are the wire contract: list every variant, never renumber. An
/// unknown tag is [`DecodeError::BadTag`]; the decoder runs inside
/// [`Reader::nested`], so a recursive enum cannot be nested past
/// [`MAX_DECODE_DEPTH`].
#[macro_export]
macro_rules! impl_serde_enum {
    ($ty:ty { $(
        $tag:literal => $variant:ident
            $( ( $($elem:ident),+ $(,)? ) )?
            $( { $($field:ident),+ $(,)? } )?
    ),+ $(,)? }) => {
        impl $crate::Serialize for $ty {
            fn serialize(&self, w: &mut $crate::Writer) {
                match self {
                    $( Self::$variant $( ( $($elem),+ ) )? $( { $($field),+ } )? => {
                        w.write_u8($tag);
                        $( $( $crate::Serialize::serialize($elem, w); )+ )?
                        $( $( $crate::Serialize::serialize($field, w); )+ )?
                    } )+
                }
            }
        }
        impl<'de> $crate::Deserialize<'de> for $ty {
            fn deserialize(
                r: &mut $crate::Reader<'de>,
            ) -> Result<Self, $crate::DecodeError> {
                const WHAT: &str = stringify!($ty);
                r.nested(WHAT, |r| match r.read_u8(WHAT)? {
                    $( $tag => {
                        $( $( let $elem = $crate::Deserialize::deserialize(r)?; )+ )?
                        $( $( let $field = $crate::Deserialize::deserialize(r)?; )+ )?
                        Ok(Self::$variant $( ( $($elem),+ ) )? $( { $($field),+ } )?)
                    } )+
                    tag => Err($crate::DecodeError::BadTag { what: WHAT, tag }),
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T>(value: T)
    where
        T: Serialize + for<'de> Deserialize<'de> + PartialEq + std::fmt::Debug,
    {
        let bytes = to_bytes(&value);
        let back: T = from_bytes(&bytes).expect("round trip decodes");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0xabu8);
        round_trip(0xdeadu16);
        round_trip(0xdead_beefu32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(i64::MIN);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(1.5f32);
        round_trip(-0.0f64);
        round_trip(String::from("pegasus"));
        round_trip(String::new());
    }

    #[test]
    fn float_round_trip_is_bit_exact() {
        let nan = f32::from_bits(0x7fc0_0001);
        let bytes = to_bytes(&nan);
        let back: f32 = from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u32>::new());
        round_trip(Some(7i64));
        round_trip(Option::<String>::None);
        round_trip(Arc::new(vec![String::from("shared")]));
        assert_eq!(
            to_bytes(&Arc::new(7u32)),
            to_bytes(&Box::new(7u32)),
            "pointers are transparent"
        );
        round_trip([5u64; 64]);
        round_trip((1u32, String::from("x"), -9i64));
        let mut map = HashMap::new();
        map.insert(String::from("a"), vec![1u8, 2]);
        map.insert(String::from("b"), vec![]);
        round_trip(map);
    }

    #[test]
    fn struct_macro_round_trips() {
        #[derive(Debug, PartialEq)]
        struct Sample {
            id: u32,
            name: String,
            weights: Vec<i64>,
        }
        impl_serde_struct!(Sample { id, name, weights });
        let s = Sample { id: 9, name: "t".into(), weights: vec![-1, 0, 7] };
        let bytes = to_bytes(&s);
        assert_eq!(from_bytes::<Sample>(&bytes).unwrap(), s);
    }

    #[derive(Debug, PartialEq)]
    enum Tree {
        Leaf,
        Pair(u8, u16),
        Named { id: u32, name: String },
        Not(Box<Tree>),
        All(Vec<Tree>),
    }
    impl_serde_enum!(Tree {
        0 => Leaf,
        1 => Pair(a, b),
        2 => Named { id, name },
        7 => Not(inner),
        8 => All(children),
    });

    #[test]
    fn enum_macro_writes_the_declared_tag_then_the_fields_in_order() {
        assert_eq!(to_bytes(&Tree::Leaf), [0]);
        assert_eq!(to_bytes(&Tree::Pair(5, 0x0201)), [1, 5, 1, 2]);
        assert_eq!(
            to_bytes(&Tree::Named { id: 9, name: "t".into() }),
            [2, 9, 0, 0, 0, 1, 0, 0, 0, b't']
        );
        round_trip(Tree::All(vec![Tree::Not(Box::new(Tree::Pair(1, 2))), Tree::Leaf]));
        assert_eq!(to_bytes(&Tree::Not(Box::new(Tree::Leaf))), [7, 0]);
        assert_eq!(from_bytes::<Tree>(&[3]), Err(DecodeError::BadTag { what: "Tree", tag: 3 }));
    }

    #[test]
    fn tuple_struct_arm_is_transparent() {
        #[derive(Debug, PartialEq)]
        struct Id(u32);
        impl_serde_struct!(Id(raw));
        assert_eq!(to_bytes(&Id(7)), to_bytes(&7u32));
        round_trip(Id(u32::MAX));
    }

    /// `levels` enums inside one another: `levels - 1` `Not`s around a leaf.
    fn not_chain(levels: usize) -> Vec<u8> {
        let mut bytes = vec![7u8; levels - 1];
        bytes.push(0);
        bytes
    }

    #[test]
    fn enum_nesting_is_bounded_and_the_counter_unwinds() {
        for levels in [MAX_DECODE_DEPTH - 1, MAX_DECODE_DEPTH] {
            let mut tree = &from_bytes::<Tree>(&not_chain(levels)).expect("within the limit");
            let mut seen = 1;
            while let Tree::Not(inner) = tree {
                tree = inner;
                seen += 1;
            }
            assert_eq!(seen, levels);
        }
        let too_deep = DecodeError::TooDeep { what: "Tree", limit: MAX_DECODE_DEPTH };
        let bytes = not_chain(MAX_DECODE_DEPTH + 1);
        assert_eq!(from_bytes::<Tree>(&bytes), Err(too_deep.clone()));
        // The hostile shapes: neither reaches the stack's end.
        assert_eq!(from_bytes::<Tree>(&not_chain(10_001)), Err(too_deep.clone()));
        let all_of_one: Vec<u8> = [8u8, 1, 0, 0, 0].repeat(10_000);
        assert_eq!(from_bytes::<Tree>(&all_of_one), Err(too_deep.clone()));

        // The level is released on the error path as on success.
        let mut r = Reader::new(&bytes);
        assert_eq!(Tree::deserialize(&mut r), Err(too_deep));
        assert_eq!(r.depth, 0);
    }

    #[test]
    fn truncated_input_is_a_typed_eof() {
        let bytes = to_bytes(&0xdead_beefu32);
        let err = from_bytes::<u32>(&bytes[..2]).unwrap_err();
        assert!(matches!(err, DecodeError::Eof { needed: 4, remaining: 2, .. }));
    }

    #[test]
    fn bad_tags_are_typed() {
        assert!(matches!(
            from_bytes::<bool>(&[9]).unwrap_err(),
            DecodeError::BadTag { what: "bool", tag: 9 }
        ));
        assert!(matches!(
            from_bytes::<Option<u8>>(&[7]).unwrap_err(),
            DecodeError::BadTag { what: "option", tag: 7 }
        ));
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        // Claims u32::MAX elements with 0 bytes of payload behind it.
        let bytes = u32::MAX.to_le_bytes();
        let err = from_bytes::<Vec<u64>>(&bytes).unwrap_err();
        assert!(matches!(err, DecodeError::BadLength { what: "vec", .. }));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&5u8);
        bytes.push(0);
        assert_eq!(
            from_bytes::<u8>(&bytes).unwrap_err(),
            DecodeError::TrailingBytes { remaining: 1 }
        );
    }

    #[test]
    fn utf8_is_validated() {
        let mut w = Writer::new();
        w.write_len(2);
        w.write_bytes(&[0xff, 0xfe]);
        assert_eq!(from_bytes::<String>(&w.into_bytes()).unwrap_err(), DecodeError::Utf8);
    }
}
