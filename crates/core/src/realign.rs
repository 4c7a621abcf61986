//! Data realignment: key/value-list pairs ⇄ contiguous fixed-size frames.
//!
//! "The other important function is data realignment, which is reformatting
//! key and value list pairs from a discrete hash table to an
//! address-sequential and fix-sized partition." (paper §IV.A)
//!
//! A frame body is a flat byte buffer in one of two group layouts, chosen
//! per frame by bit 31 ([`SINGLE_VALUED`]) of its count word:
//!
//! ```text
//! body    := u32 count , group*             n_groups = count & 0x7fff_ffff
//! group   := key , u32 n_values , value*    count bit 31 clear
//! group   := key , value                    count bit 31 set
//! ```
//!
//! with keys and values encoded by the self-delimiting [`crate::kv::Kv`]
//! codec. A set bit says every group of the frame has exactly one value —
//! what a combiner leaves per key per spill, and what distinct keys produce —
//! so none carries a count. It sits in the body's own count word, not beside
//! the wire's compression marker, because plain [`FrameBuilder::new`] frames,
//! disk-run frames and LZ bodies after decompression have no marker byte;
//! clear, it is the only layout there was before it. The builder of a frame
//! picks its layout ([`FrameBuilder::single_valued`]): `realign_table` in
//! [`crate::sender`] per (spill, partition), and the receiver's window
//! spill per disk run ([`crate::extmerge::ExternalTable::begin_sorted_run`]).
//! One function writes the group layout (`put_group_head`), one reads it
//! (`split_group`).
//!
//! Frames are capped near a configured size; one logical spill can produce
//! several frames per partition. The reverse direction ([`FrameReader`])
//! streams groups back out without materializing the whole frame's contents
//! at once.

use crate::kv::{CodecError, Kv};
use bytes::{BufMut, Bytes, BytesMut};

/// Leading byte of a wire frame built with [`FrameBuilder::new_wire`]:
/// plain (uncompressed) body follows.
pub const MARKER_PLAIN: u8 = 0;
/// Leading byte of a wire frame whose body was LZ-compressed before send.
pub const MARKER_LZ: u8 = 1;
/// Bit 31 of a frame body's count word: every group of the frame has exactly
/// one value and omits its `u32 n_values` (see the module doc).
pub const SINGLE_VALUED: u32 = 1 << 31;

/// Whether a group fits the single-valued layout: one value, and a key of at
/// least one byte, so that a flagged frame's length bounds its group count.
pub(crate) fn fits_single_valued(key_len: usize, n_values: u32) -> bool {
    n_values == 1 && key_len > 0
}

fn count_word(n_groups: u32, single: bool) -> u32 {
    assert!(n_groups < SINGLE_VALUED, "frame of 2^31 groups or more");
    n_groups | if single { SINGLE_VALUED } else { 0 }
}

/// The one encoder of the group layout: the key (appended by `put_key`),
/// then, unless the frame is single-valued, the value count. The caller
/// appends the `n_values` encoded values.
fn put_group_head(
    buf: &mut BytesMut,
    single: bool,
    put_key: impl FnOnce(&mut BytesMut),
    n_values: u32,
) {
    let key_at = buf.len();
    put_key(buf);
    if single {
        // What the flag promises the parser: anything else decodes as garbage.
        let fits = fits_single_valued(buf.len() - key_at, n_values);
        assert!(fits, "not single-valued: empty key or {n_values} values");
    } else {
        buf.put_u32_le(n_values);
    }
}

/// Builds frames of bounded size from `(key, values)` groups.
#[derive(Debug)]
pub struct FrameBuilder {
    target_bytes: usize,
    /// Bytes of header before the first group: 4 for plain frames, 5 for
    /// wire frames (compression marker first), 8 for run records (body
    /// length first). The count word lives at `hdr - 4 .. hdr`.
    hdr: usize,
    /// Whether frames are built in the single-valued layout.
    single: bool,
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

    /// Like [`FrameBuilder::new`] but each frame is prefixed with the
    /// `u32` length of its body: the record of an [`crate::extmerge`] disk
    /// run, written with one call.
    pub fn new_record(target_bytes: usize) -> Self {
        Self::with_header(target_bytes, 8)
    }

    fn with_header(target_bytes: usize, hdr: usize) -> Self {
        assert!(target_bytes > 0);
        FrameBuilder {
            target_bytes,
            hdr,
            single: false,
            buf: Self::open_frame(target_bytes, hdr),
            n_groups: 0,
            frames: Vec::new(),
        }
    }

    fn open_frame(target_bytes: usize, hdr: usize) -> BytesMut {
        let mut buf = BytesMut::with_capacity(target_bytes + 64);
        match hdr {
            5 => buf.put_u8(MARKER_PLAIN),
            8 => buf.put_u32_le(0), // body-length placeholder
            _ => {}
        }
        buf.put_u32_le(0); // count-word placeholder
        buf
    }

    /// Build every frame in the single-valued layout ([`SINGLE_VALUED`]) when
    /// `single` is set: each group pushed must then have exactly one value
    /// and a key of at least one byte, or the push panics. Call first.
    pub fn single_valued(mut self, single: bool) -> Self {
        assert!(self.n_groups == 0 && self.frames.is_empty());
        self.single = single;
        self
    }

    /// Append one key with its value list.
    pub fn push_group<K: Kv, V: Kv>(&mut self, key: &K, values: &[V]) {
        let n_values = values.len() as u32;
        put_group_head(&mut self.buf, self.single, |b| key.encode(b), n_values);
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
        let put_key = |b: &mut BytesMut| b.put_slice(key_bytes);
        put_group_head(&mut self.buf, self.single, put_key, n_values);
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
        let count = count_word(self.n_groups, self.single);
        self.buf[self.hdr - 4..self.hdr].copy_from_slice(&count.to_le_bytes());
        if self.hdr == 8 {
            let body_len = (self.buf.len() - 4) as u32;
            self.buf[..4].copy_from_slice(&body_len.to_le_bytes());
        }
        let next = Self::open_frame(self.target_bytes, self.hdr);
        self.frames
            .push(std::mem::replace(&mut self.buf, next).freeze());
        self.n_groups = 0;
    }

    /// Close the current frame and return every frame built.
    pub fn finish(mut self) -> Vec<Bytes> {
        self.seal();
        self.frames
    }

    /// Hand over the frames sealed so far, in build order, so that a
    /// writer can stream them out as the groups come.
    pub fn take_sealed(&mut self) -> std::vec::Drain<'_, Bytes> {
        self.frames.drain(..)
    }

    /// Number of sealed frames so far.
    pub fn sealed_frames(&self) -> usize {
        self.frames.len()
    }
}

/// Read a frame body's count word: the layout, the group count, the groups'
/// bytes. The count comes straight off the wire, so it is checked here against
/// what the body can hold — a group is at least its 4-byte value count, or its
/// 1-byte key when single-valued — and may then size an allocation or bound a
/// loop. Offsets into a body are `u32` ([`RawGroup`]; frames are KBs–MBs), so
/// one too large for that is rejected as corrupt.
fn open_body(body: &[u8]) -> Result<(bool, usize, &[u8]), CodecError> {
    if body.len() > u32::MAX as usize {
        return Err(CodecError::Corrupt("frame body exceeds u32 indexing"));
    }
    let mut rest = body;
    let word = u32::decode(&mut rest)?;
    let single = word & SINGLE_VALUED != 0;
    let n_groups = (word & !SINGLE_VALUED) as usize;
    if n_groups > rest.len() / if single { 1 } else { 4 } {
        return Err(CodecError::Truncated);
    }
    Ok((single, n_groups, rest))
}

/// The one parser of the group layout: locate the group at the front of
/// `rest` (the unread tail of `body`) and step past it. Key and values are
/// [`Kv::skip`]ped, so framing errors surface here and content errors (e.g.
/// invalid UTF-8 in a `String`) at the later decode of the byte ranges.
#[inline(always)]
fn split_group<K: Kv, V: Kv>(
    body: &[u8],
    rest: &mut &[u8],
    single: bool,
) -> Result<RawGroup, CodecError> {
    let at = |rest: &[u8]| (body.len() - rest.len()) as u32;
    let key_off = at(rest);
    K::skip(rest)?;
    let key_end = at(rest);
    let n_values = if single { 1 } else { u32::decode(rest)? };
    let val_off = at(rest);
    for _ in 0..n_values {
        V::skip(rest)?;
    }
    Ok(RawGroup {
        key_off,
        key_end,
        val_off,
        val_end: at(rest),
        n_values,
    })
}

/// Streaming reader over one frame: "the sequential data stream will be
/// re-constructed as key-value pairs" (reverse realignment).
#[derive(Debug)]
pub struct FrameReader<'a> {
    body: &'a [u8],
    rest: &'a [u8],
    remaining_groups: u32,
    single: bool,
}

impl<'a> FrameReader<'a> {
    /// Open a frame.
    pub fn new(frame: &'a [u8]) -> Result<Self, CodecError> {
        let (single, n_groups, rest) = open_body(frame)?;
        Ok(FrameReader {
            body: frame,
            rest,
            remaining_groups: n_groups as u32,
            single,
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
        let g = split_group::<K, V>(self.body, &mut self.rest, self.single)?;
        let key = K::decode(&mut g.key_bytes(self.body))?;
        let mut encoded = g.val_bytes(self.body);
        let mut values = Vec::with_capacity((g.n_values as usize).min(1 << 16));
        for _ in 0..g.n_values {
            values.push(V::decode(&mut encoded)?);
        }
        self.remaining_groups -= 1;
        Ok(Some((key, values)))
    }

    /// Drain the whole frame into a vector of groups.
    pub fn read_all<K: Kv, V: Kv>(mut self) -> Result<Vec<(K, Vec<V>)>, CodecError> {
        let mut out = Vec::with_capacity(self.remaining_groups as usize);
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

/// One group's location inside a frame body with the key *not* decoded:
/// both the key and the value list stay as byte ranges. Produced by
/// [`parse_group_index_raw`], so that the receiver's merge compares encoded
/// keys ([`Key::encoded_cmp`](crate::kv::Key::encoded_cmp)) and decodes
/// each key only once, at output time.
#[derive(Debug, Clone, Copy)]
pub struct RawGroup {
    /// Start of the encoded key, as an offset into the frame body.
    pub key_off: u32,
    /// One past the end of the encoded key.
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
/// the key's [`Key::encoded_prefix`](crate::kv::Key::encoded_prefix) held
/// inline, so sorting and merging compare a register and touch the frame
/// bytes only on a tie, plus where the group lives. Sixteen bytes, so a
/// sort moves entries, not groups.
#[derive(Debug, Clone, Copy)]
pub struct KeyRef {
    /// Order-preserving abbreviation of the group's encoded key.
    pub prefix: u64,
    /// Which frame of the indexed set holds the group.
    pub run: u32,
    /// The group's position in that frame's list of [`RawGroup`]s.
    pub group: u32,
}

/// Index a frame body (count word + groups, no wire marker, either layout)
/// into per-group key/value byte ranges, decoding nothing: content errors
/// (e.g. invalid UTF-8 in a `String` key) surface at the later per-group
/// decode.
pub fn parse_group_index_raw<K: Kv, V: Kv>(body: &[u8]) -> Result<Vec<RawGroup>, CodecError> {
    let (single, n_groups, mut rest) = open_body(body)?;
    let mut out = Vec::with_capacity(n_groups);
    // `single` is a constant in each arm once `split_group` is inlined, so
    // the layout is tested once per frame, not once per group.
    if single {
        for _ in 0..n_groups {
            out.push(split_group::<K, V>(body, &mut rest, true)?);
        }
    } else {
        for _ in 0..n_groups {
            out.push(split_group::<K, V>(body, &mut rest, false)?);
        }
    }
    if !rest.is_empty() {
        return Err(CodecError::Corrupt("trailing bytes after last group"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::Key;

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

    /// The groups of `frame` as `parse_group_index_raw` locates them, decoded
    /// from its byte ranges.
    fn via_raw_index(frame: &[u8]) -> Vec<(String, Vec<u64>)> {
        let decode = |g: &RawGroup| {
            let key = String::decode(&mut g.key_bytes(frame)).unwrap();
            let mut vals = g.val_bytes(frame);
            let values = (0..g.n_values).map(|_| u64::decode(&mut vals).unwrap());
            let values: Vec<u64> = values.collect();
            assert!(vals.is_empty());
            (key, values)
        };
        let raw = parse_group_index_raw::<String, u64>(frame).unwrap();
        raw.iter().map(decode).collect()
    }

    const TRUNCATED: [Result<usize, CodecError>; 2] =
        [Err(CodecError::Truncated), Err(CodecError::Truncated)];

    /// Every reader's verdict on one frame body.
    fn read_every_way(body: &[u8]) -> [Result<usize, CodecError>; 2] {
        [
            parse_group_index_raw::<String, u64>(body).map(|g| g.len()),
            FrameReader::new(body).and_then(|r| Ok(r.read_all::<String, u64>()?.len())),
        ]
    }

    #[test]
    fn group_index_locates_every_value_list() {
        let groups = vec![
            ("a".to_string(), vec![10u64, 20]),
            ("bb".to_string(), vec![]),
            ("ccc".to_string(), vec![7]),
        ];
        let frames = build(&groups, 1 << 20);
        assert_eq!(via_raw_index(&frames[0]), groups);
        // The byte-range comparator on raw keys orders like the typed keys.
        let raw = parse_group_index_raw::<String, u64>(&frames[0]).unwrap();
        for w in raw.windows(2) {
            assert_eq!(
                String::encoded_cmp(w[0].key_bytes(&frames[0]), w[1].key_bytes(&frames[0])),
                std::cmp::Ordering::Less
            );
        }
    }

    #[test]
    fn group_index_rejects_truncation_and_garbage() {
        let frames = build(&[("k".to_string(), vec![7u64])], 1 << 20);
        let mut bad = frames[0].to_vec();
        bad.truncate(bad.len() - 2);
        assert_eq!(read_every_way(&bad), TRUNCATED);
        let mut noisy = frames[0].to_vec();
        noisy.extend_from_slice(&[9, 9]);
        for verdict in read_every_way(&noisy) {
            assert!(matches!(verdict, Err(CodecError::Corrupt(_))));
        }
        assert_eq!(read_every_way(&[1, 0]), TRUNCATED);
    }

    #[test]
    fn hostile_group_count_is_an_error_not_an_allocation() {
        // A count word of u32::MAX — the flag plus 2^31 - 1 groups — and
        // one of 2^31 - 1 without it, over a one-group body: every reader
        // must find the body too short, not reserve room for two billion
        // groups.
        let frames = build(&[("k".to_string(), vec![7u64])], 1 << 20);
        for count in [u32::MAX, u32::MAX >> 1, 5] {
            let mut bad = frames[0].to_vec();
            bad[..4].copy_from_slice(&count.to_le_bytes());
            assert_eq!(read_every_way(&bad), TRUNCATED);
        }
    }

    fn build_single(groups: &[(String, u64)], target: usize) -> Vec<Bytes> {
        let mut b = FrameBuilder::new(target).single_valued(true);
        for (k, v) in groups {
            b.push_group(k, std::slice::from_ref(v));
        }
        b.finish()
    }

    #[test]
    fn single_valued_frames_omit_the_value_counts_and_read_back() {
        let pairs: Vec<(String, u64)> = (0..50).map(|i| (format!("key-{i:02}"), i)).collect();
        let groups: Vec<(String, Vec<u64>)> =
            pairs.iter().map(|(k, v)| (k.clone(), vec![*v])).collect();
        for target in [32, 200, 1 << 20] {
            let frames = build_single(&pairs, target);
            // 4 (count word) per frame + 4+6 (key) + 8 (value) per group.
            let bytes: usize = frames.iter().map(|f| f.len()).sum();
            assert_eq!(bytes, 4 * frames.len() + 18 * pairs.len());
            // The other layout spends four more bytes on each group, so
            // it also fills (no fewer) frames sooner.
            let plain = build(&groups, target);
            let plain_bytes: usize = plain.iter().map(|f| f.len()).sum();
            assert_eq!(plain_bytes, 4 * plain.len() + 22 * pairs.len());
            assert!(frames.len() <= plain.len());
            let mut n_groups = 0;
            for f in &frames {
                let count = u32::from_le_bytes(f[..4].try_into().unwrap());
                assert_ne!(count & SINGLE_VALUED, 0, "flagged");
                n_groups += count & !SINGLE_VALUED;
                assert_eq!(
                    FrameReader::new(f).unwrap().remaining(),
                    count & !SINGLE_VALUED
                );
            }
            assert_eq!(n_groups as usize, pairs.len());
            assert_eq!(decode_frames::<String, u64>(&frames).unwrap(), groups);
            let raw: Vec<_> = frames.iter().flat_map(|f| via_raw_index(f)).collect();
            assert_eq!(raw, groups);
        }
        // The raw path builds the same bytes, marker aside.
        let mut raw = FrameBuilder::new_wire(1 << 20).single_valued(true);
        let mut key = BytesMut::new();
        for (k, v) in &pairs {
            key.clear();
            k.encode(&mut key);
            raw.begin_group_raw(&key, 1);
            raw.push_value(v);
            raw.end_group();
        }
        assert_eq!(&raw.finish()[0][1..], &build_single(&pairs, 1 << 20)[0][..]);
    }

    #[test]
    #[should_panic(expected = "not single-valued")]
    fn a_single_valued_builder_refuses_a_second_value() {
        FrameBuilder::new(64)
            .single_valued(true)
            .push_group(&"k".to_string(), &[1u64, 2]);
    }

    #[test]
    #[should_panic(expected = "not single-valued")]
    fn a_single_valued_builder_refuses_an_empty_key() {
        FrameBuilder::new(64)
            .single_valued(true)
            .push_group(&(), &[1u64]);
    }

    #[test]
    fn run_records_are_frames_behind_their_body_length() {
        let groups: Vec<(String, Vec<u64>)> = (0..40)
            .map(|i| (format!("key-{i:02}"), vec![i; 1 + i as usize % 3]))
            .collect();
        let mut b = FrameBuilder::new_record(64);
        let mut records = Vec::new();
        for (k, vs) in &groups {
            b.push_group(k, vs);
            records.extend(b.take_sealed());
        }
        assert!(b.take_sealed().next().is_none(), "taken as sealed");
        records.extend(b.finish());
        // Each record is `u32 len , body`, the bodies plain frames that
        // hold the groups in order.
        assert!(records.len() > 1);
        let bodies: Vec<Bytes> = records.iter().map(|r| r.slice(4..)).collect();
        for (r, body) in records.iter().zip(&bodies) {
            let len = u32::from_le_bytes(r[..4].try_into().unwrap());
            assert_eq!(len as usize, body.len());
        }
        assert_eq!(decode_frames::<String, u64>(&bodies).unwrap(), groups);
    }

    /// ROADMAP 10: a new header bit is a new way to lie to the decoder.
    #[test]
    fn a_lying_layout_bit_is_an_error_never_a_panic() {
        let flagged = build_single(&[("k".to_string(), 7), ("kk".to_string(), 8)], 1 << 20);
        let flagged = flagged[0].to_vec();
        let with_count = |body: &[u8], count: u32| {
            let mut b = body.to_vec();
            b[..4].copy_from_slice(&count.to_le_bytes());
            b
        };
        // A flagged group is at least a byte, so a count beyond the body's
        // length is refused before any group is read or any room reserved.
        let n_rest = (flagged.len() - 4) as u32;
        for count in [n_rest + 1, u32::MAX >> 1] {
            let bad = with_count(&flagged, SINGLE_VALUED | count);
            assert_eq!(read_every_way(&bad), TRUNCATED);
        }
        // One the length allows but the groups do not.
        let bad = with_count(&flagged, SINGLE_VALUED | n_rest);
        assert_eq!(read_every_way(&bad), TRUNCATED);
        // Cut mid-value, and mid-key.
        assert_eq!(read_every_way(&flagged[..flagged.len() - 3]), TRUNCATED);
        assert_eq!(read_every_way(&flagged[..flagged.len() - 10]), TRUNCATED);
        // Trailing bytes after the last flagged group.
        let noisy = [&flagged[..], &[0][..]].concat();
        for verdict in read_every_way(&noisy) {
            assert_eq!(
                verdict,
                Err(CodecError::Corrupt("trailing bytes after last group"))
            );
        }
        // The bit cleared on a single-valued frame: the first value's low
        // half is read as a count of seven values.
        assert_eq!(read_every_way(&with_count(&flagged, 2)), TRUNCATED);
        // The bit set on a multi-valued frame: count and half a value pass
        // for one value, and the rest is left over.
        let multi = build(&[("k".to_string(), vec![7u64, 8])], 1 << 20);
        let lied = with_count(&multi[0], SINGLE_VALUED | 1);
        for verdict in read_every_way(&lied) {
            assert!(matches!(verdict, Err(CodecError::Corrupt(_))));
        }
        // A bare flag over no groups is an empty frame, like a bare zero.
        assert_eq!(read_every_way(&SINGLE_VALUED.to_le_bytes()), [Ok(0), Ok(0)]);
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
