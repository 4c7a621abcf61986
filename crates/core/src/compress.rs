//! Frame compression — one of the realignment improvements the paper calls
//! out ("Data realignment is an important step of MPI-D library, so it can
//! be improved in several aspects, like high performance sorting and
//! compressing data").
//!
//! A small, dependency-free LZ77 variant tuned for realigned frames (which
//! are full of repeated keys and framing bytes): greedy longest-match over a
//! 32 KiB window with a 4-byte hash-chain index. The token stream is:
//!
//! ```text
//! token   := 0x00 varint(len) byte*len        -- literal run
//!          | 0x01 varint(dist) varint(len)    -- back-reference
//! varint  := LEB128 (7 bits per byte, high bit = continue)
//! ```
//!
//! Not a general-purpose compressor — correctness (exact round-trip for all
//! inputs, verified by property tests) and zero dependencies matter more
//! here than ratio.

use crate::kv::CodecError;
use std::collections::HashMap;

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 1 << 16;
const WINDOW: usize = 32 * 1024;
const MAX_CHAIN: usize = 16;

const TOK_LITERAL: u8 = 0x00;
const TOK_MATCH: u8 = 0x01;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = data.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::Corrupt("varint overflow"));
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn hash4(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]])
}

/// Compress `data`. Always succeeds; output may be larger than input for
/// incompressible data (callers should compare and keep the smaller form —
/// see [`crate::sender`]'s frame marker).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    compress_into(data, &mut out);
    out
}

/// [`compress`] `data`, appending the token stream to `out`.
pub fn compress_into(data: &[u8], out: &mut Vec<u8>) {
    let mut index: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut i = 0usize;
    let mut lit_start = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, data: &[u8]| {
        if to > from {
            out.push(TOK_LITERAL);
            put_varint(out, (to - from) as u64);
            out.extend_from_slice(&data[from..to]);
        }
    };

    while i + MIN_MATCH <= data.len() {
        let h = hash4(data, i);
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if let Some(positions) = index.get(&h) {
            for &p in positions.iter().rev().take(MAX_CHAIN) {
                if i - p > WINDOW {
                    break;
                }
                // Extend the match.
                let max = (data.len() - i).min(MAX_MATCH);
                let mut l = 0usize;
                while l < max && data[p + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - p;
                    if l >= 128 {
                        break; // good enough
                    }
                }
            }
        }
        index.entry(h).or_default().push(i);

        if best_len >= MIN_MATCH {
            flush_literals(out, lit_start, i, data);
            out.push(TOK_MATCH);
            put_varint(out, best_dist as u64);
            put_varint(out, best_len as u64);
            // Index a few positions inside the match so later data can
            // reference it (sparse, to bound cost).
            let end = i + best_len;
            let mut j = i + 1;
            while j + MIN_MATCH <= end.min(data.len()) {
                index.entry(hash4(data, j)).or_default().push(j);
                j += 3;
            }
            i = end;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(out, lit_start, data.len(), data);
}

/// Decompress a [`compress`] token stream.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(data.len() * 2);
    decompress_into(data, &mut out)?;
    Ok(out)
}

/// [`decompress`] `data`, appending the bytes to `out`; a match reaches
/// back no further than what this call appended.
pub fn decompress_into(data: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    let base = out.len();
    let mut pos = 0usize;
    while pos < data.len() {
        let tok = data[pos];
        pos += 1;
        match tok {
            TOK_LITERAL => {
                let len = get_varint(data, &mut pos)? as usize;
                if pos + len > data.len() {
                    return Err(CodecError::Truncated);
                }
                out.extend_from_slice(&data[pos..pos + len]);
                pos += len;
            }
            TOK_MATCH => {
                let dist = get_varint(data, &mut pos)? as usize;
                let len = get_varint(data, &mut pos)? as usize;
                if dist == 0 || dist > out.len() - base {
                    return Err(CodecError::Corrupt("match distance out of range"));
                }
                if len > MAX_MATCH {
                    return Err(CodecError::Corrupt("match length out of range"));
                }
                // Overlapping copies are legal (dist < len) — byte-by-byte.
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            _ => return Err(CodecError::Corrupt("unknown token")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> usize {
        let c = compress(data);
        let back = decompress(&c).unwrap();
        assert_eq!(back, data, "round trip failed for {} bytes", data.len());
        c.len()
    }

    #[test]
    fn the_into_forms_append_the_same_bytes_behind_a_prefix() {
        let data = b"abcabcabcabcabcabc-xyz-abcabcabc".repeat(20);
        let mut wire = vec![7u8];
        compress_into(&data, &mut wire);
        assert_eq!(&wire[1..], &compress(&data)[..]);
        let mut body = vec![9u8; 3];
        decompress_into(&wire[1..], &mut body).unwrap();
        assert_eq!((&body[..3], &body[3..]), (&[9u8; 3][..], &data[..]));
        // A match may not reach back into what was there before the call.
        let reach_back = [TOK_MATCH, 2, 4];
        let mut out = vec![1u8, 2];
        assert!(decompress_into(&reach_back, &mut out).is_err());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(round_trip(b""), 0);
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(b"abcd");
    }

    #[test]
    fn repetitive_data_shrinks() {
        let data: Vec<u8> = b"the quick brown fox "
            .iter()
            .cycle()
            .take(10_000)
            .copied()
            .collect();
        let c = round_trip(&data);
        assert!(c < data.len() / 5, "repetitive data should shrink 5x+: {c}");
    }

    #[test]
    fn overlapping_match_rle_style() {
        // "aaaa..." forces dist=1, len>dist overlapping copies.
        let data = vec![b'a'; 5000];
        let c = round_trip(&data);
        assert!(c < 50, "run of one byte should collapse: {c}");
    }

    #[test]
    fn random_data_round_trips_even_if_larger() {
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn realigned_frame_shape_compresses() {
        // Simulate a wordcount frame: repeated word stems + counts.
        use bytes::BufMut;
        let mut frame = bytes::BytesMut::new();
        for i in 0..500u32 {
            frame.put_u32_le(10);
            frame.put_slice(format!("word-{:05}", i % 40).as_bytes());
            frame.put_u32_le(1);
            frame.put_u64_le((i % 7) as u64);
        }
        let c = round_trip(&frame);
        assert!(c < frame.len() / 2, "frames should compress >=2x: {c}");
    }

    #[test]
    fn corrupt_streams_rejected() {
        assert!(decompress(&[0x02]).is_err(), "unknown token");
        assert!(
            decompress(&[TOK_LITERAL, 10, 1, 2]).is_err(),
            "truncated literal"
        );
        assert!(
            decompress(&[TOK_MATCH, 5, 4]).is_err(),
            "match before any output"
        );
        // Unterminated varint.
        assert!(decompress(&[TOK_LITERAL, 0x80]).is_err());
    }

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }
}
