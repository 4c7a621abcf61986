//! Self-delimiting key/value wire codec.
//!
//! MPI-D's defining job (paper §III) is bridging "non-contiguous and
//! variable sized key-value pair data" to MPI's "contiguous and fix-sized"
//! buffers. The [`Kv`] trait is that bridge: every key and value type knows
//! how to append itself to a flat buffer and parse itself back off the front
//! of one, so the realignment stage can pack arbitrary `(K, V)` streams into
//! contiguous partition frames (see [`crate::realign`]).
//!
//! Integers are little-endian fixed-width; byte strings are u32-length-
//! prefixed. Types must be self-delimiting: `decode` must consume exactly
//! the bytes `encode` produced.
//!
//! A key type adds one thing, its order, and states it once, on the encoded
//! bytes ([`Key`]): the sender sorts each spill with it and the receiver
//! merges with it, so no key is decoded to be compared on either side.

use bytes::{BufMut, BytesMut};
use std::cmp::Ordering;
use std::fmt;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended mid-value.
    Truncated,
    /// A length field or payload was invalid.
    Corrupt(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated key/value data"),
            CodecError::Corrupt(m) => write!(f, "corrupt key/value data: {m}"),
        }
    }
}
impl std::error::Error for CodecError {}

/// A type that can travel through MPI-D as a key or value.
pub trait Kv: Sized {
    /// Append the encoded form to `out`.
    fn encode(&self, out: &mut BytesMut);
    /// Parse one value off the front of `buf`, advancing it.
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError>;
    /// Exact number of bytes [`Kv::encode`] will append — used for buffer
    /// accounting and spill thresholds.
    fn wire_size(&self) -> usize;
    /// Advance `buf` past one encoded value without materializing it.
    ///
    /// The default parses and discards; fixed-width and length-prefixed
    /// types override it to a pure offset bump, which is what lets the
    /// receiver index a frame's records by offset instead of decoding every
    /// value up front. `skip` validates *framing* only — a later `decode`
    /// of the same bytes may still fail on content (e.g. invalid UTF-8).
    fn skip(buf: &mut &[u8]) -> Result<(), CodecError> {
        Self::decode(buf).map(|_| ())
    }
}

/// An MPI-D key: a [`Kv`] that is hashable, cloneable and ordered, and
/// that defines its order on the *encoded* bytes too, so the sender's spill
/// sort and the receiver's merge compare byte ranges and never decode a key
/// to compare it. A key is decoded once per output group, when the
/// receiver delivers it.
///
/// A user key type implements it with [`Key::encoded_cmp`], which must
/// order exactly as `Ord` does, equality included: the sender sorts with it
/// and the receiver groups with it, and the grouped output is the `Ord`
/// order. A struct key that encodes its fields one after another compares
/// field by field, splitting each slice after a field with that field's
/// [`Kv::skip`], as the pair impl does. [`Key::encoded_prefix`] and
/// [`Key::prefix_is_exact`] are optional speed-ups; their defaults claim
/// nothing and are always valid.
///
/// Implemented for the ordered integers, `String`, `Vec<u8>`, `()` and
/// pairs of keys. Floats are not `Ord`, so they are never keys.
pub trait Key: Kv + std::hash::Hash + Eq + Ord + Clone + Send + 'static {
    /// Compare two *encoded* keys, each slice holding exactly one key that
    /// [`Kv::skip`] accepted.
    ///
    /// It must order exactly as `Ord` does (including equality). Strings
    /// and blobs compare their payload bytes (lexicographic over UTF-8
    /// bytes *is* `str`'s `Ord`); fixed-width integers decode on the spot —
    /// little-endian bytes don't memcmp in numeric order, but a register
    /// load + compare is still far cheaper than materializing an owned key.
    fn encoded_cmp(a: &[u8], b: &[u8]) -> Ordering;
    /// Order-preserving 8-byte abbreviation of one *encoded* key, so a
    /// sort can keep the abbreviation beside each index entry and reach for
    /// the bytes only on a tie. The contract, for slices `a` and `b` that
    /// each hold exactly one encoded key:
    ///
    /// `encoded_prefix(a) < encoded_prefix(b)` ⟹ `encoded_cmp(a, b) == Less`
    ///
    /// Equal prefixes say nothing by themselves (see
    /// [`Key::prefix_is_exact`]), so the default `0` is always valid.
    /// Strings and blobs give their first seven payload bytes big-endian,
    /// zero-padded, then `min(len, 8)` — the length byte orders `"a"`
    /// before `"a\0"` and marks the prefixes that hold a whole key; the
    /// ordered integers widen to `u64` with the sign bit flipped, which
    /// makes their prefix order the whole order.
    fn encoded_prefix(_encoded: &[u8]) -> u64 {
        0
    }
    /// Whether `prefix` pins down the whole key: `true` promises that any
    /// two encoded keys of this type with this [`Key::encoded_prefix`] are
    /// equal, so a tie on it needs no look at the bytes. The default
    /// `false` is always valid. This is what keeps a merge of heavily
    /// repeated short keys (word count) off the frame bodies entirely.
    fn prefix_is_exact(_prefix: u64) -> bool {
        false
    }
}

/// Marker bundle for MPI-D values.
pub trait Value: Kv + Clone + Send + 'static {}
impl<T: Kv + Clone + Send + 'static> Value for T {}

/// [`Key::encoded_prefix`] of a `u32`-length-prefixed byte string: its first
/// seven payload bytes, big-endian and zero-padded, then `min(len, 8)`. A
/// payload of at most seven bytes is fully determined by its prefix
/// ([`bytes_prefix_is_exact`]).
fn bytes_prefix(encoded: &[u8]) -> u64 {
    let payload = &encoded[4..];
    let mut be = [0u8; 8];
    let n = payload.len().min(7);
    be[..n].copy_from_slice(&payload[..n]);
    be[7] = payload.len().min(8) as u8;
    u64::from_be_bytes(be)
}

fn bytes_prefix_is_exact(prefix: u64) -> bool {
    prefix & 0xff < 8
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if buf.len() < n {
        return Err(CodecError::Truncated);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

macro_rules! impl_kv_int {
    ($($t:ty),*) => {$(
        impl Kv for $t {
            fn encode(&self, out: &mut BytesMut) {
                out.put_slice(&self.to_le_bytes());
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
                let raw = take(buf, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(raw.try_into().expect("sized")))
            }
            fn wire_size(&self) -> usize {
                std::mem::size_of::<$t>()
            }
            fn skip(buf: &mut &[u8]) -> Result<(), CodecError> {
                take(buf, std::mem::size_of::<$t>()).map(|_| ())
            }
        }
    )*};
}

impl_kv_int!(u8, u16, u32, u64, i8, i16, i32, i64, f64, f32);

macro_rules! impl_key_int {
    ($($t:ty),*) => {$(
        impl Key for $t {
            fn encoded_cmp(a: &[u8], b: &[u8]) -> Ordering {
                let x = <$t>::from_le_bytes(a.try_into().expect("exact encoded width"));
                let y = <$t>::from_le_bytes(b.try_into().expect("exact encoded width"));
                x.cmp(&y)
            }
            fn encoded_prefix(encoded: &[u8]) -> u64 {
                let x = <$t>::from_le_bytes(encoded.try_into().expect("exact encoded width"));
                // Distance from the type's minimum: 0..=u64::MAX in value order
                // for signed and unsigned alike.
                (x as i128 - <$t>::MIN as i128) as u64
            }
            fn prefix_is_exact(_prefix: u64) -> bool {
                true
            }
        }
    )*};
}

impl_key_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl Kv for String {
    fn encode(&self, out: &mut BytesMut) {
        out.put_u32_le(self.len() as u32);
        out.put_slice(self.as_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u32::decode(buf)? as usize;
        let raw = take(buf, len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError::Corrupt("invalid UTF-8"))
    }
    fn wire_size(&self) -> usize {
        4 + self.len()
    }
    fn skip(buf: &mut &[u8]) -> Result<(), CodecError> {
        let len = u32::decode(buf)? as usize;
        take(buf, len).map(|_| ())
    }
}

impl Kv for Vec<u8> {
    fn encode(&self, out: &mut BytesMut) {
        out.put_u32_le(self.len() as u32);
        out.put_slice(self);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u32::decode(buf)? as usize;
        Ok(take(buf, len)?.to_vec())
    }
    fn wire_size(&self) -> usize {
        4 + self.len()
    }
    fn skip(buf: &mut &[u8]) -> Result<(), CodecError> {
        let len = u32::decode(buf)? as usize;
        take(buf, len).map(|_| ())
    }
}

macro_rules! impl_key_bytes {
    ($($t:ty),*) => {$(
        impl Key for $t {
            fn encoded_cmp(a: &[u8], b: &[u8]) -> Ordering {
                // `str`'s Ord is lexicographic over UTF-8 bytes, so comparing
                // the payload past the 4-byte length prefix matches
                // `String::cmp` as well as `Vec<u8>::cmp`.
                a[4..].cmp(&b[4..])
            }
            fn encoded_prefix(encoded: &[u8]) -> u64 {
                bytes_prefix(encoded)
            }
            fn prefix_is_exact(prefix: u64) -> bool {
                bytes_prefix_is_exact(prefix)
            }
        }
    )*};
}

impl_key_bytes!(String, Vec<u8>);

impl<A: Kv, B: Kv> Kv for (A, B) {
    fn encode(&self, out: &mut BytesMut) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size()
    }
    fn skip(buf: &mut &[u8]) -> Result<(), CodecError> {
        A::skip(buf)?;
        B::skip(buf)
    }
}

/// Split one encoded pair into its two encoded components.
fn split_pair<A: Kv>(encoded: &[u8]) -> (&[u8], &[u8]) {
    let mut rest = encoded;
    // The pair's own `skip` ran over these bytes when they were indexed.
    A::skip(&mut rest).expect("encoded pair skipped when indexed");
    encoded.split_at(encoded.len() - rest.len())
}

/// Pairs compare component by component, as tuples' `Ord` does, and keep
/// the default prefix.
impl<A: Key, B: Key> Key for (A, B) {
    fn encoded_cmp(a: &[u8], b: &[u8]) -> Ordering {
        let ((a0, a1), (b0, b1)) = (split_pair::<A>(a), split_pair::<A>(b));
        A::encoded_cmp(a0, b0).then_with(|| B::encoded_cmp(a1, b1))
    }
}

impl Kv for () {
    fn encode(&self, _out: &mut BytesMut) {}
    fn decode(_buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(())
    }
    fn wire_size(&self) -> usize {
        0
    }
}

impl Key for () {
    fn encoded_cmp(_a: &[u8], _b: &[u8]) -> Ordering {
        Ordering::Equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Kv + PartialEq + std::fmt::Debug>(v: T) {
        let mut out = BytesMut::new();
        v.encode(&mut out);
        assert_eq!(out.len(), v.wire_size(), "wire_size must be exact");
        let mut slice = &out[..];
        let back = T::decode(&mut slice).unwrap();
        assert_eq!(back, v);
        assert!(slice.is_empty(), "decode must consume exactly its bytes");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u8);
        round_trip(u64::MAX);
        round_trip(-77i64);
        round_trip(3.5f64);
        round_trip(i32::MIN);
    }

    #[test]
    fn strings_and_blobs_round_trip() {
        round_trip(String::new());
        round_trip("the quick brown fox".to_string());
        round_trip("ünïcödé".to_string());
        round_trip(Vec::<u8>::new());
        round_trip(vec![0u8, 255, 128]);
    }

    #[test]
    fn tuples_and_unit_round_trip() {
        round_trip(("key".to_string(), 42u64));
        round_trip((1u32, (2u32, "x".to_string())));
        round_trip(());
    }

    /// `wire_size` of these types is the denominator of the benchmark's
    /// `wire_ratio` and `job_mb_per_s`: pinned byte for byte, so that no
    /// change improves either by shrinking what it is measured against.
    #[test]
    fn string_blob_and_u64_encodings_are_pinned() {
        fn bytes_of<T: Kv>(v: T) -> Vec<u8> {
            let mut out = BytesMut::new();
            v.encode(&mut out);
            assert_eq!(out.len(), v.wire_size());
            out.to_vec()
        }
        assert_eq!(bytes_of("héllo".to_string()), b"\x06\0\0\0h\xc3\xa9llo");
        assert_eq!(bytes_of(String::new()), [0, 0, 0, 0]);
        assert_eq!(bytes_of(vec![0u8, 255, 7]), [3, 0, 0, 0, 0, 255, 7]);
        assert_eq!(bytes_of(Vec::<u8>::new()), [0, 0, 0, 0]);
        assert_eq!(bytes_of(0x0102_0304_0506_0708u64), [8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(bytes_of(("k".to_string(), 1u64)).len(), 4 + 1 + 8);
    }

    #[test]
    fn sequences_are_self_delimiting() {
        let mut out = BytesMut::new();
        "alpha".to_string().encode(&mut out);
        7u64.encode(&mut out);
        "beta".to_string().encode(&mut out);
        let mut slice = &out[..];
        assert_eq!(String::decode(&mut slice).unwrap(), "alpha");
        assert_eq!(u64::decode(&mut slice).unwrap(), 7);
        assert_eq!(String::decode(&mut slice).unwrap(), "beta");
        assert!(slice.is_empty());
    }

    #[test]
    fn truncation_detected() {
        let mut out = BytesMut::new();
        "hello".to_string().encode(&mut out);
        let mut slice = &out[..out.len() - 1];
        assert_eq!(String::decode(&mut slice), Err(CodecError::Truncated));
        let mut empty: &[u8] = &[];
        assert_eq!(u64::decode(&mut empty), Err(CodecError::Truncated));
    }

    fn cmp_encoded<T: Key>(a: &T, b: &T) -> Ordering {
        let (mut ea, mut eb) = (BytesMut::new(), BytesMut::new());
        a.encode(&mut ea);
        b.encode(&mut eb);
        T::encoded_cmp(&ea, &eb)
    }

    #[test]
    fn encoded_cmp_matches_ord() {
        for (a, b) in [(0u64, 1), (u64::MAX, 0), (7, 7), (1 << 40, 255)] {
            assert_eq!(cmp_encoded(&a, &b), a.cmp(&b), "{a} vs {b}");
        }
        for (a, b) in [(-5i32, 3), (i32::MIN, i32::MAX), (-1, -1), (256, -256)] {
            assert_eq!(cmp_encoded(&a, &b), a.cmp(&b), "{a} vs {b}");
        }
        let words = ["", "a", "ab", "b", "ünïcödé", "z\u{10FFFF}"];
        for a in words {
            for b in words {
                let (a, b) = (a.to_string(), b.to_string());
                assert_eq!(cmp_encoded(&a, &b), a.cmp(&b), "{a:?} vs {b:?}");
            }
        }
        let blobs: [&[u8]; 4] = [b"", b"\x00", b"\xff", b"\x00\x01"];
        for a in blobs {
            for b in blobs {
                let (a, b) = (a.to_vec(), b.to_vec());
                assert_eq!(cmp_encoded(&a, &b), a.cmp(&b), "{a:?} vs {b:?}");
            }
        }
        // Pairs compare component by component: the first decides unless
        // it ties, a shorter first string included.
        let pairs = [
            (s(""), 9u64),
            (s("a"), 2),
            (s("a"), 10),
            (s("a\0"), 0),
            (s("ab"), 1),
        ];
        for a in &pairs {
            for b in &pairs {
                assert_eq!(cmp_encoded(a, b), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
        let nested = [(1u32, (2u32, s("x"))), (1, (2, s(""))), (0, (9, s("z")))];
        for a in &nested {
            for b in &nested {
                assert_eq!(cmp_encoded(a, b), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    fn s(x: &str) -> String {
        x.to_string()
    }

    fn prefix_of<T: Key>(v: &T) -> u64 {
        let mut e = BytesMut::new();
        v.encode(&mut e);
        T::encoded_prefix(&e)
    }

    #[test]
    fn encoded_prefix_orders_edge_cases_and_knows_when_it_is_whole() {
        // Ascending by `Ord`; adjacent prefixes must never descend, and an
        // exact prefix must be unique to its value.
        let words = [
            "",
            "\0",
            "a",
            "a\0",
            "a\0\0",
            "aaaaaaa",
            "aaaaaaa\0",
            "aaaaaaaa1",
            "b",
        ];
        let p: Vec<u64> = words.iter().map(|w| prefix_of(&w.to_string())).collect();
        assert!(p.windows(2).all(|w| w[0] <= w[1]), "{p:?}");
        for (w, &pw) in words.iter().zip(&p) {
            assert_eq!(String::prefix_is_exact(pw), w.len() <= 7, "{w:?}");
            assert_eq!(pw, prefix_of(&w.as_bytes().to_vec()), "blob = string");
        }
        assert!(p[..7].windows(2).all(|w| w[0] < w[1]), "short keys: {p:?}");
        assert_eq!(p[6], p[7], "eight bytes and more tie on a shared start");

        let ints = [i64::MIN, -1, 0, 1, i64::MAX];
        assert!(ints.windows(2).all(|w| prefix_of(&w[0]) < prefix_of(&w[1])));
        assert!([0u8, 1, 255]
            .windows(2)
            .all(|w| prefix_of(&w[0]) < prefix_of(&w[1])));
        assert!(i64::prefix_is_exact(0) && u8::prefix_is_exact(7));
        // Types that keep the defaults claim nothing.
        assert_eq!(prefix_of(&("k".to_string(), 1u64)), 0);
        assert!(!<(String, u64)>::prefix_is_exact(0));
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut out = BytesMut::new();
        vec![0xff_u8, 0xfe].encode(&mut out);
        let mut slice = &out[..];
        assert!(matches!(
            String::decode(&mut slice),
            Err(CodecError::Corrupt(_))
        ));
    }
}
