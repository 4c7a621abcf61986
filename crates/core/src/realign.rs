//! Data realignment: key/value-list pairs ⇄ contiguous fixed-size frames.
//!
//! "The other important function is data realignment, which is reformatting
//! key and value list pairs from a discrete hash table to an
//! address-sequential and fix-sized partition." (paper §IV.A)
//!
//! A frame is a flat byte buffer:
//!
//! ```text
//! frame   := u32 n_groups , group*
//! group   := key , u32 n_values , value*
//! ```
//!
//! with keys and values encoded by the self-delimiting [`crate::kv::Kv`]
//! codec. Frames are capped near a configured size; one logical spill can
//! produce several frames per partition. The reverse direction
//! ([`FrameReader`]) streams groups back out without materializing the whole
//! frame's contents at once.

use crate::kv::{CodecError, Kv};
use bytes::{BufMut, Bytes, BytesMut};

/// Leading byte of a wire frame built with [`FrameBuilder::new_wire`]:
/// plain (uncompressed) body follows.
pub const MARKER_PLAIN: u8 = 0;
/// Leading byte of a wire frame whose body was LZ-compressed before send.
pub const MARKER_LZ: u8 = 1;

/// Builds frames of bounded size from `(key, values)` groups.
#[derive(Debug)]
pub struct FrameBuilder {
    target_bytes: usize,
    /// Bytes of header before the group-count field: 0 for plain frames,
    /// 1 for wire frames (compression marker). The count lives at
    /// `hdr - 4 .. hdr`.
    hdr: usize,
    buf: BytesMut,
    n_groups: u32,
    frames: Vec<Bytes>,
}

impl FrameBuilder {
    /// Frames will be closed once they exceed `target_bytes` (each frame may
    /// overshoot by one group; groups are never split across frames).
    pub fn new(target_bytes: usize) -> Self {
        Self::with_header(target_bytes, 4)
    }

    /// Like [`FrameBuilder::new`] but each frame is prefixed with a
    /// [`MARKER_PLAIN`] byte so it is already in wire form — the sender can
    /// ship it as-is without copying into a marker-prefixed scratch buffer.
    /// (Compressed sends still rewrite the frame; see [`crate::sender`].)
    pub fn new_wire(target_bytes: usize) -> Self {
        Self::with_header(target_bytes, 5)
    }

    fn with_header(target_bytes: usize, hdr: usize) -> Self {
        assert!(target_bytes > 0);
        let mut buf = BytesMut::with_capacity(target_bytes + 64);
        if hdr == 5 {
            buf.put_u8(MARKER_PLAIN);
        }
        buf.put_u32_le(0); // group-count placeholder
        FrameBuilder {
            target_bytes,
            hdr,
            buf,
            n_groups: 0,
            frames: Vec::new(),
        }
    }

    /// Append one key with its value list.
    pub fn push_group<K: Kv, V: Kv>(&mut self, key: &K, values: &[V]) {
        key.encode(&mut self.buf);
        self.buf.put_u32_le(values.len() as u32);
        for v in values {
            v.encode(&mut self.buf);
        }
        self.end_group();
    }

    /// Start a group from an already-encoded key slice, declaring its value
    /// count up front. Follow with [`FrameBuilder::push_raw`] /
    /// [`FrameBuilder::push_value`] calls for exactly `n_values` values,
    /// then [`FrameBuilder::end_group`].
    pub fn begin_group_raw(&mut self, key_bytes: &[u8], n_values: u32) {
        self.buf.put_slice(key_bytes);
        self.buf.put_u32_le(n_values);
    }

    /// Append already-encoded value bytes to the open group.
    pub fn push_raw(&mut self, value_bytes: &[u8]) {
        self.buf.put_slice(value_bytes);
    }

    /// Append one typed value to the open group.
    pub fn push_value<V: Kv>(&mut self, value: &V) {
        value.encode(&mut self.buf);
    }

    /// Close the group opened by [`FrameBuilder::begin_group_raw`], sealing
    /// the frame if it reached the target size.
    pub fn end_group(&mut self) {
        self.n_groups += 1;
        if self.buf.len() >= self.target_bytes {
            self.seal();
        }
    }

    fn seal(&mut self) {
        if self.n_groups == 0 {
            return;
        }
        self.buf[self.hdr - 4..self.hdr].copy_from_slice(&self.n_groups.to_le_bytes());
        let hdr = self.hdr;
        let full = std::mem::replace(&mut self.buf, {
            let mut b = BytesMut::with_capacity(self.target_bytes + 64);
            if hdr == 5 {
                b.put_u8(MARKER_PLAIN);
            }
            b.put_u32_le(0);
            b
        });
        self.frames.push(full.freeze());
        self.n_groups = 0;
    }

    /// Close the current frame and return every frame built.
    pub fn finish(mut self) -> Vec<Bytes> {
        self.seal();
        self.frames
    }

    /// Number of sealed frames so far.
    pub fn sealed_frames(&self) -> usize {
        self.frames.len()
    }
}

/// Streaming reader over one frame: "the sequential data stream will be
/// re-constructed as key-value pairs" (reverse realignment).
#[derive(Debug)]
pub struct FrameReader<'a> {
    rest: &'a [u8],
    remaining_groups: u32,
}

impl<'a> FrameReader<'a> {
    /// Open a frame.
    pub fn new(frame: &'a [u8]) -> Result<Self, CodecError> {
        let mut slice = frame;
        let n = u32::decode(&mut slice)?;
        Ok(FrameReader {
            rest: slice,
            remaining_groups: n,
        })
    }

    /// Groups not yet read.
    pub fn remaining(&self) -> u32 {
        self.remaining_groups
    }

    /// Read the next `(key, values)` group, or `None` at end of frame.
    pub fn next_group<K: Kv, V: Kv>(&mut self) -> Result<Option<(K, Vec<V>)>, CodecError> {
        if self.remaining_groups == 0 {
            if !self.rest.is_empty() {
                return Err(CodecError::Corrupt("trailing bytes after last group"));
            }
            return Ok(None);
        }
        let key = K::decode(&mut self.rest)?;
        let n_values = u32::decode(&mut self.rest)? as usize;
        let mut values = Vec::with_capacity(n_values.min(1 << 16));
        for _ in 0..n_values {
            values.push(V::decode(&mut self.rest)?);
        }
        self.remaining_groups -= 1;
        Ok(Some((key, values)))
    }

    /// Drain the whole frame into a vector of groups.
    pub fn read_all<K: Kv, V: Kv>(mut self) -> Result<Vec<(K, Vec<V>)>, CodecError> {
        let mut out = Vec::with_capacity(group_capacity(self.remaining_groups, self.rest));
        while let Some(g) = self.next_group()? {
            out.push(g);
        }
        Ok(out)
    }
}

/// Decode a list of frames back into groups, in frame order.
pub fn decode_frames<K: Kv, V: Kv>(frames: &[Bytes]) -> Result<Vec<(K, Vec<V>)>, CodecError> {
    let mut out = Vec::new();
    for f in frames {
        out.extend(FrameReader::new(f)?.read_all()?);
    }
    Ok(out)
}

/// How many groups to reserve room for when a frame's count header claims
/// `n_groups`: the header is a `u32` straight off the wire, so a flipped bit
/// must not size an allocation. Every group carries at least its `u32` value
/// count, which bounds the count by what `rest` can hold.
fn group_capacity(n_groups: u32, rest: &[u8]) -> usize {
    (n_groups as usize).min(rest.len() / 4)
}

/// One group's location inside a frame body: the decoded key plus the byte
/// range of its still-encoded value list. Produced by [`parse_group_index`];
/// values stay as bytes until a consumer actually needs them.
#[derive(Debug, Clone)]
pub struct GroupMeta<K> {
    /// The group key (keys must be decoded once anyway for merge ordering).
    pub key: K,
    /// Start of the encoded value list, as an offset into the frame body.
    pub val_off: usize,
    /// One past the end of the encoded value list.
    pub val_end: usize,
    /// Number of values in `val_off..val_end`.
    pub n_values: u32,
}

/// Index a frame body (count header + groups, no wire marker) into per-group
/// offsets without materializing any value. Keys are decoded; values are
/// length-skipped via [`Kv::skip`], so framing errors surface here but
/// content errors (e.g. invalid UTF-8 in a `String` value) surface at the
/// later `decode` of the group's byte range.
pub fn parse_group_index<K: Kv, V: Kv>(body: &[u8]) -> Result<Vec<GroupMeta<K>>, CodecError> {
    let mut slice = body;
    let n_groups = u32::decode(&mut slice)?;
    let mut out = Vec::with_capacity(group_capacity(n_groups, slice));
    for _ in 0..n_groups {
        let key = K::decode(&mut slice)?;
        let n_values = u32::decode(&mut slice)?;
        let val_off = body.len() - slice.len();
        for _ in 0..n_values {
            V::skip(&mut slice)?;
        }
        let val_end = body.len() - slice.len();
        out.push(GroupMeta {
            key,
            val_off,
            val_end,
            n_values,
        });
    }
    if !slice.is_empty() {
        return Err(CodecError::Corrupt("trailing bytes after last group"));
    }
    Ok(out)
}

/// One group's location inside a frame body with the key *not* decoded:
/// both the key and the value list stay as byte ranges. Produced by
/// [`parse_group_index_raw`] for key types with [`Kv::encoded_cmp`], where
/// the receiver's sort and merge compare encoded bytes directly and decode
/// each key only once, at output time.
#[derive(Debug, Clone, Copy)]
pub struct RawGroup {
    /// Start of the encoded key, as an offset into the frame body.
    pub key_off: u32,
    /// One past the end of the encoded key (= start of the value count).
    pub key_end: u32,
    /// Start of the encoded value list.
    pub val_off: u32,
    /// One past the end of the encoded value list.
    pub val_end: u32,
    /// Number of values in `val_off..val_end`.
    pub n_values: u32,
}

impl RawGroup {
    /// The encoded key bytes within `body`.
    pub fn key_bytes<'a>(&self, body: &'a [u8]) -> &'a [u8] {
        &body[self.key_off as usize..self.key_end as usize]
    }

    /// The encoded value-list bytes within `body`.
    pub fn val_bytes<'a>(&self, body: &'a [u8]) -> &'a [u8] {
        &body[self.val_off as usize..self.val_end as usize]
    }
}

/// One entry of a key-sorted index over the groups of one or more frames:
/// the key's [`Kv::encoded_prefix`] held inline, so sorting and merging
/// compare a register and touch the frame bytes only on a tie, plus where
/// the group lives. Sixteen bytes, so a sort moves entries, not groups.
#[derive(Debug, Clone, Copy)]
pub struct KeyRef {
    /// Order-preserving abbreviation of the group's encoded key.
    pub prefix: u64,
    /// Which frame of the indexed set holds the group.
    pub run: u32,
    /// The group's position in that frame's list of [`RawGroup`]s.
    pub group: u32,
}

/// Index a frame body into per-group key/value byte ranges, decoding
/// nothing. Keys are [`Kv::skip`]ped like values, so content errors (e.g.
/// invalid UTF-8 in a `String` key) surface at the later per-group decode.
/// Offsets are `u32`: frames are built to `frame_bytes` (order of KBs–MBs),
/// and a body too large to index that way is rejected as corrupt.
pub fn parse_group_index_raw<K: Kv, V: Kv>(body: &[u8]) -> Result<Vec<RawGroup>, CodecError> {
    if body.len() > u32::MAX as usize {
        return Err(CodecError::Corrupt("frame body exceeds u32 indexing"));
    }
    let mut slice = body;
    let n_groups = u32::decode(&mut slice)?;
    let mut out = Vec::with_capacity(group_capacity(n_groups, slice));
    for _ in 0..n_groups {
        let key_off = (body.len() - slice.len()) as u32;
        K::skip(&mut slice)?;
        let key_end = (body.len() - slice.len()) as u32;
        let n_values = u32::decode(&mut slice)?;
        let val_off = (body.len() - slice.len()) as u32;
        for _ in 0..n_values {
            V::skip(&mut slice)?;
        }
        let val_end = (body.len() - slice.len()) as u32;
        out.push(RawGroup {
            key_off,
            key_end,
            val_off,
            val_end,
            n_values,
        });
    }
    if !slice.is_empty() {
        return Err(CodecError::Corrupt("trailing bytes after last group"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(groups: &[(String, Vec<u64>)], target: usize) -> Vec<Bytes> {
        let mut b = FrameBuilder::new(target);
        for (k, vs) in groups {
            b.push_group(k, vs);
        }
        b.finish()
    }

    #[test]
    fn round_trip_single_frame() {
        let groups = vec![
            ("apple".to_string(), vec![1u64, 2, 3]),
            ("banana".to_string(), vec![]),
            ("cherry".to_string(), vec![9]),
        ];
        let frames = build(&groups, 1 << 20);
        assert_eq!(frames.len(), 1);
        let back: Vec<(String, Vec<u64>)> = decode_frames(&frames).unwrap();
        assert_eq!(back, groups);
    }

    #[test]
    fn small_target_splits_into_multiple_frames() {
        let groups: Vec<(String, Vec<u64>)> = (0..100)
            .map(|i| (format!("key-{i:03}"), vec![i as u64; 3]))
            .collect();
        let frames = build(&groups, 64);
        assert!(frames.len() > 10, "got {} frames", frames.len());
        let back: Vec<(String, Vec<u64>)> = decode_frames(&frames).unwrap();
        assert_eq!(back, groups, "order and content preserved across frames");
    }

    #[test]
    fn empty_builder_produces_no_frames() {
        let b = FrameBuilder::new(128);
        assert!(b.finish().is_empty());
    }

    #[test]
    fn streaming_reader_counts_down() {
        let frames = build(
            &[("a".to_string(), vec![1u64]), ("b".to_string(), vec![2, 3])],
            1 << 20,
        );
        let mut r = FrameReader::new(&frames[0]).unwrap();
        assert_eq!(r.remaining(), 2);
        let (k, vs): (String, Vec<u64>) = r.next_group().unwrap().unwrap();
        assert_eq!((k.as_str(), vs.as_slice()), ("a", &[1u64][..]));
        assert_eq!(r.remaining(), 1);
        let _ = r.next_group::<String, u64>().unwrap().unwrap();
        assert!(r.next_group::<String, u64>().unwrap().is_none());
    }

    #[test]
    fn corrupt_frame_detected() {
        let frames = build(&[("k".to_string(), vec![7u64])], 1 << 20);
        let mut bad = frames[0].to_vec();
        bad.truncate(bad.len() - 2);
        let mut r = FrameReader::new(&bad).unwrap();
        assert!(matches!(
            r.next_group::<String, u64>(),
            Err(CodecError::Truncated)
        ));
    }

    #[test]
    fn trailing_garbage_detected() {
        let frames = build(&[("k".to_string(), vec![7u64])], 1 << 20);
        let mut bad = frames[0].to_vec();
        bad.extend_from_slice(&[1, 2, 3]);
        let mut r = FrameReader::new(&bad).unwrap();
        let _ = r.next_group::<String, u64>().unwrap().unwrap();
        assert!(matches!(
            r.next_group::<String, u64>(),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn wire_builder_prefixes_marker_and_raw_groups_match_typed() {
        // Same groups through the typed and raw paths must produce the same
        // body bytes; the wire variant adds exactly one marker byte.
        let groups = vec![
            ("apple".to_string(), vec![1u64, 2, 3]),
            ("pear".to_string(), vec![9]),
        ];
        let typed = build(&groups, 1 << 20);

        let mut raw = FrameBuilder::new_wire(1 << 20);
        let mut key_buf = BytesMut::new();
        let mut val_buf = BytesMut::new();
        for (k, vs) in &groups {
            key_buf.clear();
            val_buf.clear();
            k.encode(&mut key_buf);
            for v in vs {
                v.encode(&mut val_buf);
            }
            raw.begin_group_raw(&key_buf, vs.len() as u32);
            raw.push_raw(&val_buf);
            raw.end_group();
        }
        let wire = raw.finish();
        assert_eq!(wire.len(), 1);
        assert_eq!(wire[0][0], MARKER_PLAIN);
        assert_eq!(&wire[0][1..], &typed[0][..]);
    }

    #[test]
    fn group_index_locates_every_value_list() {
        let groups = vec![
            ("a".to_string(), vec![10u64, 20]),
            ("bb".to_string(), vec![]),
            ("ccc".to_string(), vec![7]),
        ];
        let frames = build(&groups, 1 << 20);
        let idx = parse_group_index::<String, u64>(&frames[0]).unwrap();
        assert_eq!(idx.len(), 3);
        for (meta, (k, vs)) in idx.iter().zip(&groups) {
            assert_eq!(&meta.key, k);
            assert_eq!(meta.n_values as usize, vs.len());
            let mut slice = &frames[0][meta.val_off..meta.val_end];
            let decoded: Vec<u64> = (0..meta.n_values)
                .map(|_| u64::decode(&mut slice).unwrap())
                .collect();
            assert_eq!(&decoded, vs);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn raw_group_index_matches_typed_index() {
        let groups = vec![
            ("a".to_string(), vec![10u64, 20]),
            ("bb".to_string(), vec![]),
            ("ccc".to_string(), vec![7]),
        ];
        let frames = build(&groups, 1 << 20);
        let typed = parse_group_index::<String, u64>(&frames[0]).unwrap();
        let raw = parse_group_index_raw::<String, u64>(&frames[0]).unwrap();
        assert_eq!(raw.len(), typed.len());
        for (r, t) in raw.iter().zip(&typed) {
            let mut kb = r.key_bytes(&frames[0]);
            assert_eq!(String::decode(&mut kb).unwrap(), t.key);
            assert_eq!(r.val_off as usize, t.val_off);
            assert_eq!(r.val_end as usize, t.val_end);
            assert_eq!(r.n_values, t.n_values);
        }
        // The byte-range comparator on raw keys orders like the typed keys.
        let cmp = String::encoded_cmp().unwrap();
        for w in raw.windows(2) {
            assert_eq!(
                cmp(w[0].key_bytes(&frames[0]), w[1].key_bytes(&frames[0])),
                std::cmp::Ordering::Less
            );
        }
    }

    #[test]
    fn group_index_rejects_truncation_and_garbage() {
        let frames = build(&[("k".to_string(), vec![7u64])], 1 << 20);
        let mut bad = frames[0].to_vec();
        bad.truncate(bad.len() - 2);
        assert!(matches!(
            parse_group_index::<String, u64>(&bad),
            Err(CodecError::Truncated)
        ));
        let mut noisy = frames[0].to_vec();
        noisy.extend_from_slice(&[9, 9]);
        assert!(matches!(
            parse_group_index::<String, u64>(&noisy),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn hostile_group_count_is_an_error_not_an_allocation() {
        // A count header of u32::MAX over a one-group body: every reader
        // must run out of bytes, not reserve room for four billion groups.
        let frames = build(&[("k".to_string(), vec![7u64])], 1 << 20);
        let mut bad = frames[0].to_vec();
        bad[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            parse_group_index_raw::<String, u64>(&bad).unwrap_err(),
            CodecError::Truncated
        );
        assert_eq!(
            parse_group_index::<String, u64>(&bad).unwrap_err(),
            CodecError::Truncated
        );
        let reader = FrameReader::new(&bad).unwrap();
        assert_eq!(
            reader.read_all::<String, u64>().unwrap_err(),
            CodecError::Truncated
        );
    }

    #[test]
    fn frames_are_address_sequential() {
        // The realignment contract: one flat allocation per frame.
        let frames = build(&[("abc".to_string(), vec![1u64, 2])], 1 << 20);
        let f = &frames[0];
        // 4 (count) + 4+3 (key) + 4 (n_values) + 16 (values)
        assert_eq!(f.len(), 4 + 7 + 4 + 16);
    }
}
