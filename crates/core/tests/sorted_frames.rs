//! Key order on the wire. Every frame an MPI-D sender ships holds its groups
//! in strictly ascending key order — for keys the spill sorts by prefix and
//! bytes and for keys it must decode, with or without a combiner, plain or
//! compressed, shipped directly or by an in-node leader — and the jobs those
//! frames carry still reduce to what `mapred::run_local` computes. The
//! receiver, for its part, does not rely on that order: frames built in
//! descending key order group exactly like sorted ones.

use bytes::{Bytes, BytesMut};
use mapred::{run_local, run_mpid, MapReduceApp, MpidEngineConfig, VecInput};
use mpi_rt::Universe;
use mpid::config::tags;
use mpid::realign::{FrameBuilder, FrameReader, MARKER_LZ, MARKER_PLAIN};
use mpid::{Key, Kv, MpidConfig, MpidWorld, Role, ShuffleKind, SumCombiner};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::sync::Arc;

/// Small spills and frames, so every job ships many frames per reducer.
const SPILL_BYTES: usize = 2 << 10;
const FRAME_BYTES: usize = 512;

/// Pass-through job over `(key, u64)` pairs: each reducer sums a key's
/// values, and with `combine` set the senders fold them first.
struct Sum<K> {
    combine: bool,
    _key: PhantomData<fn() -> K>,
}

impl<K: Key + Sync> MapReduceApp for Sum<K> {
    type InKey = K;
    type InVal = u64;
    type MidKey = K;
    type MidVal = u64;
    type OutKey = K;
    type OutVal = u64;

    fn map(&self, key: K, value: u64, emit: &mut dyn FnMut(K, u64)) {
        emit(key, value);
    }

    fn reduce(&self, key: K, values: Vec<u64>, emit: &mut dyn FnMut(K, u64)) {
        emit(key, values.iter().sum());
    }

    fn combine(&self) -> Option<fn(&mut u64, u64)> {
        self.combine.then_some(|acc, v| *acc += v)
    }
}

/// What the reducers of one job saw on the wire: every frame's groups, in
/// arrival order, and how many frames came LZ-compressed.
struct Wire<K> {
    frames: Vec<Vec<(K, Vec<u64>)>>,
    lz_frames: usize,
}

/// Ship `pairs` (pair `j` in split `j % 6`) from MPI-D senders to reducers
/// that read the raw wire frames instead of an `MpidReceiver`.
fn shipped<K: Key + Sync>(cfg: MpidConfig, pairs: &[(K, u64)], combine: bool) -> Wire<K> {
    const SPLITS: u64 = 6;
    let pairs = Arc::new(pairs.to_vec());
    let results = Universe::run(cfg.required_ranks(), move |comm| {
        let world = MpidWorld::init(comm, cfg.clone()).unwrap();
        match world.role() {
            Role::Master => {
                world.run_master((0..SPLITS).collect()).unwrap();
                None
            }
            Role::Mapper(_) => {
                let mut send = world.sender::<K, u64>();
                if combine {
                    send = send.with_combiner(SumCombiner);
                }
                while let Some(split) = world.next_split::<u64>().unwrap() {
                    for (k, v) in pairs.iter().skip(split as usize).step_by(SPLITS as usize) {
                        send.send(k.clone(), *v).unwrap();
                    }
                }
                send.finish().unwrap();
                None
            }
            Role::Reducer(_) => {
                let mut wire = Wire {
                    frames: Vec::new(),
                    lz_frames: 0,
                };
                let mut eos = 0;
                while eos < cfg.n_mappers {
                    let (payload, _) = comm.recv::<u8>(None, Some(tags::DATA)).unwrap();
                    let body = match payload.first() {
                        None => {
                            eos += 1;
                            continue;
                        }
                        Some(&MARKER_PLAIN) => payload[1..].to_vec(),
                        Some(&MARKER_LZ) => {
                            wire.lz_frames += 1;
                            mpid::compress::decompress(&payload[1..]).unwrap()
                        }
                        Some(m) => panic!("unknown frame marker {m}"),
                    };
                    let groups = FrameReader::new(&body).unwrap().read_all().unwrap();
                    wire.frames.push(groups);
                }
                Some(wire)
            }
        }
    });
    let mut all = Wire {
        frames: Vec::new(),
        lz_frames: 0,
    };
    for wire in results.into_iter().flatten() {
        all.frames.extend(wire.frames);
        all.lz_frames += wire.lz_frames;
    }
    all
}

/// Every shipped frame is in strictly ascending key order, in each mode of
/// the sender, and the same job through the engine reduces to `run_local`.
fn check_key_type<K: Key + Sync + Debug>(pairs: Vec<(K, u64)>) {
    let modes = [
        (false, false, ShuffleKind::Baseline),
        (true, false, ShuffleKind::Baseline),
        (false, true, ShuffleKind::Baseline),
        (true, true, ShuffleKind::Baseline),
        (
            true,
            false,
            ShuffleKind::InNodeCombine {
                mappers_per_host: 2,
            },
        ),
    ];
    for (combine, compress, shuffle) in modes {
        let mode = format!(
            "combine {combine}, compress {compress}, {}",
            shuffle.label()
        );
        let cfg = MpidConfig {
            n_mappers: 3,
            n_reducers: 2,
            spill_threshold_bytes: SPILL_BYTES,
            frame_bytes: FRAME_BYTES,
            compress,
            shuffle,
            ..Default::default()
        };
        let wire = shipped(cfg, &pairs, combine);
        assert!(wire.frames.len() > 6, "{mode}: too few frames to tell");
        assert_eq!(wire.lz_frames > 0, compress, "{mode}: LZ frames");
        for frame in &wire.frames {
            let keys: Vec<&K> = frame.iter().map(|(k, _)| k).collect();
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "{mode}: frame out of key order: {keys:?}"
            );
        }

        let app = Sum {
            combine,
            _key: PhantomData,
        };
        let cfg = MpidEngineConfig {
            spill_threshold_bytes: SPILL_BYTES,
            frame_bytes: FRAME_BYTES,
            compress,
            shuffle,
            ..MpidEngineConfig::with_workers(3, 2)
        };
        let input = VecInput::round_robin(pairs.clone(), 6);
        let want = run_local(&app, &input);
        let job = run_mpid(&cfg, Arc::new(app), Arc::new(input));
        let mut got = job.output;
        got.sort();
        assert_eq!(got, want, "{mode}: job output against run_local");
    }
}

/// A scrambled walk over `0..n`, `len` steps long, so keys repeat and
/// arrive out of order.
fn walk(n: u64, len: u64) -> impl Iterator<Item = (u64, u64)> {
    (0..len).map(move |i| ((i * 7919 + 13) % n, i))
}

/// Keys longer than seven bytes that share their first seven tie on their
/// prefix and are ordered by the spill's fix-up pass; the short ones, and
/// the seven-byte `"shared_"` itself, are whole in their prefix.
#[test]
fn string_keys_ship_in_ascending_order() {
    let pairs = walk(400, 1500)
        .map(|(r, v)| {
            let key = match r % 5 {
                0 => format!("k{}", r % 40),
                1 if r % 25 == 1 => "shared_".to_string(),
                _ => format!("shared_{:04}", r),
            };
            (key, v)
        })
        .collect();
    check_key_type::<String>(pairs);
}

#[test]
fn i64_keys_on_both_sides_of_zero_ship_in_ascending_order() {
    let pairs = walk(1001, 1500).map(|(r, v)| (r as i64 - 500, v)).collect();
    check_key_type::<i64>(pairs);
}

/// Blobs of up to ten bytes whose first seven alternate `0x00` and `0xff`:
/// the longer ones tie on their prefix and differ only past it.
#[test]
fn blob_keys_ship_in_ascending_order() {
    let pairs = walk(2000, 2000)
        .map(|(r, v)| {
            let len = (r % 11) as usize;
            let byte = |j: usize| {
                if j < 7 {
                    [0, 255][j % 2]
                } else {
                    (r / 11) as u8 ^ j as u8
                }
            };
            ((0..len).map(byte).collect(), v)
        })
        .collect();
    check_key_type::<Vec<u8>>(pairs);
}

/// Tuple keys all share prefix 0, so the spill's fix-up pass orders them
/// with `(A, B)::encoded_cmp`, component by component.
#[test]
fn tuple_keys_ship_in_ascending_order() {
    let pairs = walk(300, 1500)
        .map(|(r, v)| ((format!("t{}", r % 7), r / 7), v))
        .collect();
    check_key_type::<(String, u64)>(pairs);
}

/// `(key, values)` groups, encoded back to back, each value list behind its
/// length: what byte-equal compares.
fn encoded<K: Kv>(groups: &[(K, Vec<u64>)]) -> Vec<u8> {
    let mut out = BytesMut::new();
    for (k, vs) in groups {
        k.encode(&mut out);
        (vs.len() as u32).encode(&mut out);
        for v in vs {
            v.encode(&mut out);
        }
    }
    out.to_vec()
}

/// Two mappers ship frames in descending key order straight onto the wire,
/// bypassing `MpidSender` — a key recurs within a frame, across frames and
/// across mappers — and the reducer's grouped and bounded drains deliver,
/// byte for byte, the groups a sorted reference gives: ascending keys, each
/// key's values in (mapper rank, send order).
fn descending_frames_group_like_sorted<K: Key + Sync + Debug>(key: fn(u64) -> K) {
    let cfg = MpidConfig::with_workers(2, 1);
    // Per mapper: frames of (key ordinal, values), each frame descending.
    let frames_of = |m: u64| -> Vec<Vec<(u64, Vec<u64>)>> {
        vec![
            vec![(9, vec![m]), (7, vec![m, 1]), (7, vec![m, 2]), (2, vec![m])],
            vec![(8, vec![m + 10]), (7, vec![m + 10]), (0, vec![m + 10, 3])],
            vec![(9 - m, vec![m + 20]), (1, vec![m + 20])],
        ]
    };
    let mut reference = BTreeMap::<K, Vec<u64>>::new();
    for m in 0..2 {
        for frame in frames_of(m) {
            for (k, vs) in frame {
                reference.entry(key(k)).or_default().extend(vs);
            }
        }
    }
    let want = encoded(&reference.into_iter().collect::<Vec<_>>());
    for bounded in [false, true] {
        let cfg = cfg.clone();
        let results = Universe::run(cfg.required_ranks(), move |comm| {
            let world = MpidWorld::init(comm, cfg.clone()).unwrap();
            match world.role() {
                Role::Master => None,
                Role::Mapper(m) => {
                    let dst = Role::reducer_rank(&cfg, 0);
                    for frame in frames_of(m as u64) {
                        let mut b = FrameBuilder::new_wire(1 << 10);
                        for (k, vs) in frame {
                            b.push_group(&key(k), &vs);
                        }
                        for wire in b.finish() {
                            comm.send_bytes(dst, tags::DATA, wire).unwrap();
                        }
                    }
                    comm.send_bytes(dst, tags::DATA, Bytes::new()).unwrap();
                    None
                }
                Role::Reducer(_) => {
                    let mut recv = world.receiver::<K, u64>();
                    if bounded {
                        recv = recv.into_external(64, std::env::temp_dir()).unwrap();
                    }
                    Some(recv.recv_all().unwrap())
                }
            }
        });
        let got = results.into_iter().flatten().next().unwrap();
        assert_eq!(encoded(&got), want, "bounded {bounded}: {got:?}");
    }
}

#[test]
fn receiver_groups_descending_string_frames_like_sorted_ones() {
    descending_frames_group_like_sorted(|k| format!("key{k}"));
}

/// Tuple keys: the receiver's one index sort compares them with
/// `(A, B)::encoded_cmp`, component by component.
#[test]
fn receiver_groups_descending_tuple_frames_like_sorted_ones() {
    descending_frames_group_like_sorted(|k| (k / 4, format!("{k}")));
}
