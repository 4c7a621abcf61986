//! Property-based tests for MPI-D invariants:
//!
//! * realignment round-trips arbitrary key/value streams, in both group
//!   layouts;
//! * job output is independent of combiner use, spill threshold, frame
//!   size, transport mode, and topology (for an associative+commutative
//!   combine function);
//! * the partitioner gives every key exactly one owner;
//! * sorting encoded keys by `(encoded_prefix, encoded_cmp)` is sorting the
//!   keys by `Ord`, and an exact prefix belongs to one value only.

use bytes::BytesMut;
use mpi_rt::Universe;
use mpid::compress::{compress, decompress};
use mpid::realign::{decode_frames, FrameBuilder, SINGLE_VALUED};
use mpid::{HashPartitioner, Key, Kv, MpidConfig, MpidWorld, Partitioner, Role, SumCombiner};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_groups() -> impl Strategy<Value = Vec<(String, Vec<u64>)>> {
    proptest::collection::vec(
        ("[a-z]{0,12}", proptest::collection::vec(any::<u64>(), 0..8)),
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode→frame→decode is the identity on arbitrary group streams, for
    /// any frame-size target.
    #[test]
    fn realign_round_trip(groups in arb_groups(), target in 1usize..4096) {
        let mut b = FrameBuilder::new(target);
        for (k, vs) in &groups {
            b.push_group(k, vs);
        }
        let frames = b.finish();
        let back: Vec<(String, Vec<u64>)> = decode_frames(&frames).unwrap();
        prop_assert_eq!(back, groups);
        for f in &frames {
            prop_assert_eq!(u32::from_le_bytes(f[..4].try_into().unwrap()) & SINGLE_VALUED, 0);
        }
    }

    /// The same through the single-valued layout: a stream of one-value
    /// groups comes back flagged, frame by frame, and byte-exact — the count
    /// words, the keys and the values, nothing else.
    #[test]
    fn realign_round_trip_single_valued(
        pairs in proptest::collection::vec(("[a-z]{0,12}", any::<u64>()), 0..40),
        target in 1usize..4096,
    ) {
        let mut b = FrameBuilder::new(target).single_valued(true);
        for (k, v) in &pairs {
            b.push_group(k, std::slice::from_ref(v));
        }
        let frames = b.finish();
        let mut n_groups = 0;
        for f in &frames {
            let count = u32::from_le_bytes(f[..4].try_into().unwrap());
            prop_assert!(count & SINGLE_VALUED != 0, "frame not flagged");
            n_groups += (count & !SINGLE_VALUED) as usize;
        }
        prop_assert_eq!(n_groups, pairs.len());
        let payload: usize = pairs.iter().map(|(k, v)| k.wire_size() + v.wire_size()).sum();
        let built: usize = frames.iter().map(|f| f.len()).sum();
        prop_assert_eq!(built, 4 * frames.len() + payload);
        let back: Vec<(String, Vec<u64>)> = decode_frames(&frames).unwrap();
        let groups: Vec<(String, Vec<u64>)> = pairs.into_iter().map(|(k, v)| (k, vec![v])).collect();
        prop_assert_eq!(back, groups);
    }

    /// LZ compression round-trips arbitrary byte strings exactly.
    #[test]
    fn compress_round_trip(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let packed = compress(&data);
        prop_assert_eq!(decompress(&packed).unwrap(), data);
    }

    /// Compression round-trips highly repetitive data and shrinks it.
    #[test]
    fn compress_repetitive_shrinks(unit in proptest::collection::vec(any::<u8>(), 1..16), reps in 50usize..200) {
        let data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        let packed = compress(&data);
        prop_assert_eq!(decompress(&packed).unwrap(), data.clone());
        prop_assert!(packed.len() < data.len() / 2 + 32, "{} -> {}", data.len(), packed.len());
    }

    /// Kv encoding of tuples is self-delimiting under concatenation.
    #[test]
    fn kv_concatenation(pairs in proptest::collection::vec(("[ -~]{0,20}", any::<i64>()), 0..20)) {
        let mut buf = BytesMut::new();
        for (s, x) in &pairs {
            (s.clone(), *x).encode(&mut buf);
        }
        let mut slice = &buf[..];
        for (s, x) in &pairs {
            let (ds, dx) = <(String, i64)>::decode(&mut slice).unwrap();
            prop_assert_eq!(&ds, s);
            prop_assert_eq!(dx, *x);
        }
        prop_assert!(slice.is_empty());
    }

    /// Every key has exactly one partition owner, stable across calls.
    #[test]
    fn partitioner_total_and_stable(keys in proptest::collection::vec("[a-z0-9]{0,16}", 1..50), n in 1usize..16) {
        let p = HashPartitioner;
        for k in &keys {
            let a = p.partition(k, n);
            prop_assert!(a < n);
            prop_assert_eq!(a, p.partition(k, n));
        }
    }
}

/// The receiver's sort order — prefix first, encoded comparator on a tie —
/// must be the key type's `Ord`, and a prefix that claims to be the whole
/// key must not be shared by two different values.
fn prefix_sort_matches_ord<T: Key + std::fmt::Debug>(mut vals: Vec<T>) {
    let mut encoded: Vec<(u64, BytesMut)> = vals
        .iter()
        .map(|v| {
            let mut e = BytesMut::new();
            v.encode(&mut e);
            (T::encoded_prefix(&e), e)
        })
        .collect();
    encoded.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| T::encoded_cmp(&a.1, &b.1)));
    vals.sort();
    let back: Vec<T> = encoded
        .iter()
        .map(|(_, e)| T::decode(&mut &e[..]).unwrap())
        .collect();
    assert_eq!(back, vals);
    for w in encoded.windows(2) {
        if w[0].0 == w[1].0 && T::prefix_is_exact(w[0].0) {
            assert_eq!(w[0].1, w[1].1, "exact prefix {:#x} shared", w[0].0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Small alphabets (NUL included) and lengths either side of the
    /// prefix width, so shared prefixes and trailing-NUL twins are common.
    #[test]
    fn prefix_sort_matches_ord_strings_and_blobs(
        words in proptest::collection::vec("[ab\0]{0,10}", 0..60),
        blobs in proptest::collection::vec(proptest::collection::vec(0u8..3, 0..11), 0..60),
        wide in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..12), 0..40),
    ) {
        prefix_sort_matches_ord(words);
        prefix_sort_matches_ord(blobs);
        prefix_sort_matches_ord(wide);
    }

    #[test]
    fn prefix_sort_matches_ord_integers(
        a in proptest::collection::vec(any::<u8>(), 0..40),
        b in proptest::collection::vec(any::<u16>(), 0..40),
        c in proptest::collection::vec(any::<u32>(), 0..40),
        d in proptest::collection::vec(any::<u64>(), 0..40),
        e in proptest::collection::vec(any::<i8>(), 0..40),
        f in proptest::collection::vec(any::<i16>(), 0..40),
    ) {
        prefix_sort_matches_ord(a);
        prefix_sort_matches_ord(b);
        prefix_sort_matches_ord(c);
        prefix_sort_matches_ord(d);
        prefix_sort_matches_ord(e);
        prefix_sort_matches_ord(f);
    }

    #[test]
    fn prefix_sort_matches_ord_wide_signed(
        g in proptest::collection::vec(any::<i32>(), 0..40),
        h in proptest::collection::vec(any::<i64>(), 0..40),
        near in proptest::collection::vec(-3i64..3, 0..40),
    ) {
        prefix_sort_matches_ord(g);
        prefix_sort_matches_ord(h);
        prefix_sort_matches_ord(near);
    }

    /// Pairs compare component by component on their bytes: small alphabets
    /// with NUL and the empty string, so first components often tie, one
    /// often a prefix of the other, and the second component decides.
    #[test]
    fn prefix_sort_matches_ord_pairs(
        flat in proptest::collection::vec(("[ab\0]{0,4}", 0u64..4), 0..60),
        nested in proptest::collection::vec((0u32..3, (0u32..3, "[a\0]{0,3}")), 0..60),
    ) {
        prefix_sort_matches_ord(flat);
        prefix_sort_matches_ord(nested);
    }

    /// Types that keep the trait defaults abbreviate nothing.
    #[test]
    fn default_prefix_is_zero_and_never_exact(s in "[a-z]{0,12}", x in any::<u64>()) {
        let mut e = BytesMut::new();
        (s, x).encode(&mut e);
        prop_assert_eq!(<(String, u64)>::encoded_prefix(&e), 0);
        prop_assert_eq!(<()>::encoded_prefix(&[]), 0);
        prop_assert!(!<(String, u64)>::prefix_is_exact(0) && !<()>::prefix_is_exact(0));
    }
}

/// Run a sum-aggregation job over the given pairs with a parameterized
/// config; returns key → sum.
fn run_sum_job(cfg: MpidConfig, pairs: Vec<(String, u64)>, combine: bool) -> BTreeMap<String, u64> {
    // Chunk pairs into splits of ≤16 pairs, encoded as (index range).
    let splits: Vec<u64> = (0..pairs.len().div_ceil(16).max(1) as u64).collect();
    let results = Universe::run(cfg.required_ranks(), move |comm| {
        let world = MpidWorld::init(comm, cfg.clone()).unwrap();
        match world.role() {
            Role::Master => {
                world.run_master(splits.clone()).unwrap();
                None
            }
            Role::Mapper(_) => {
                let mut send = world.sender::<String, u64>();
                if combine {
                    send = send.with_combiner(SumCombiner);
                }
                while let Some(chunk) = world.next_split::<u64>().unwrap() {
                    let lo = chunk as usize * 16;
                    let hi = (lo + 16).min(pairs.len());
                    for (k, v) in &pairs[lo..hi] {
                        send.send(k.clone(), *v).unwrap();
                    }
                }
                send.finish().unwrap();
                None
            }
            Role::Reducer(_) => {
                let mut recv = world.receiver::<String, u64>();
                let mut out = BTreeMap::new();
                while let Some((k, vs)) = recv.recv().unwrap() {
                    out.insert(k, vs.into_iter().fold(0u64, u64::wrapping_add));
                }
                Some(out)
            }
        }
    });
    let mut merged = BTreeMap::new();
    for r in results.into_iter().flatten() {
        merged.extend(r);
    }
    merged
}

fn reference_sums(pairs: &[(String, u64)]) -> BTreeMap<String, u64> {
    let mut m: BTreeMap<String, u64> = BTreeMap::new();
    for (k, v) in pairs {
        let e = m.entry(k.clone()).or_insert(0);
        *e = e.wrapping_add(*v);
    }
    m
}

proptest! {
    // Spawning whole universes is expensive; keep case counts modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Job output equals the sequential reference regardless of combiner,
    /// spill threshold, frame size, Isend mode, and topology.
    #[test]
    fn job_invariant_under_pipeline_parameters(
        pairs in proptest::collection::vec(("[a-d]{1,3}", 0u64..1000), 0..120),
        spill in 16usize..2048,
        frame in 8usize..512,
        mappers in 1usize..4,
        reducers in 1usize..4,
        combine: bool,
        isend: bool,
    ) {
        let cfg = MpidConfig {
            n_mappers: mappers,
            n_reducers: reducers,
            spill_threshold_bytes: spill,
            frame_bytes: frame,
            use_isend: isend,
            ..Default::default()
        };
        let got = run_sum_job(cfg, pairs.clone(), combine);
        prop_assert_eq!(got, reference_sums(&pairs));
    }
}
