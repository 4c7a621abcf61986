//! Bit-identity of the batched data path against a per-record reference.
//!
//! The sender buffers encoded bytes in an open-addressed arena table and
//! the receiver groups by sort-once/k-way-merge — neither holds a
//! per-record `BTreeMap` like the original implementation did. This test
//! proves the observable contract is unchanged: for a single mapper (so
//! frame arrival order is deterministic), the exact sequence of
//! `(key, values)` groups each reducer yields — keys ascending, values in
//! arrival order, spill epochs preserved — equals what a straightforward
//! per-record model produces, across randomized key/value sizes, spill
//! thresholds, frame sizes, combiner on/off, and compression on/off.
//!
//! The reference models the documented semantics directly: a `BTreeMap`
//! per spill epoch with the sender's *raw-stream* accounting (every record
//! charges its encoded key + value size, whether or not a combiner shrinks
//! the stored bytes — Hadoop's `io.sort.mb` counts serialized map output
//! the same way), flushed whenever the threshold is crossed; the reducer
//! concatenates each key's per-epoch groups in flush order. Raw accounting
//! is what makes spill epochs a pure function of the input stream and the
//! threshold, independent of combiner shrinkage or thread count.

mod common;

use mpi_rt::Universe;
use mpid::combine::FnCombiner;
use mpid::{HashPartitioner, Kv, MpidConfig, MpidWorld, Partitioner, Role, SenderStats};
use proptest::prelude::*;
use std::collections::BTreeMap;

type Groups = Vec<(String, Vec<Vec<u8>>)>;

/// Per-record reference: what each reducer must yield, in order.
fn reference_groups(
    pairs: &[(String, Vec<u8>)],
    n_reducers: usize,
    spill_threshold: usize,
    combine: bool,
) -> Vec<Groups> {
    enum Entry {
        Acc(Vec<u8>),
        List(Vec<Vec<u8>>),
    }
    let mut out: Vec<BTreeMap<String, Vec<Vec<u8>>>> = vec![BTreeMap::new(); n_reducers];
    let mut table: BTreeMap<String, Entry> = BTreeMap::new();
    let mut buffered = 0usize;
    let flush = |table: &mut BTreeMap<String, Entry>,
                 out: &mut Vec<BTreeMap<String, Vec<Vec<u8>>>>| {
        for (k, e) in std::mem::take(table) {
            let r = HashPartitioner.partition(&k, n_reducers);
            let groups = out[r].entry(k).or_default();
            match e {
                Entry::Acc(v) => groups.push(v),
                Entry::List(vs) => groups.extend(vs),
            }
        }
    };
    for (k, v) in pairs {
        // Raw-stream accounting: every record charges its full encoded
        // size, regardless of what the table stores after combining.
        buffered += k.wire_size() + v.wire_size();
        match table.entry(k.clone()) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                if combine {
                    slot.insert(Entry::Acc(v.clone()));
                } else {
                    slot.insert(Entry::List(vec![v.clone()]));
                }
            }
            std::collections::btree_map::Entry::Occupied(mut slot) => match slot.get_mut() {
                Entry::Acc(acc) => acc.extend_from_slice(v),
                Entry::List(vs) => vs.push(v.clone()),
            },
        }
        if buffered >= spill_threshold {
            flush(&mut table, &mut out);
            buffered = 0;
        }
    }
    flush(&mut table, &mut out);
    out.into_iter()
        .map(|m| m.into_iter().collect::<Groups>())
        .collect()
}

/// Run the real pipeline (1 mapper so arrival order is deterministic) and
/// collect each reducer's group sequence exactly as `recv()` yields it.
fn run_pipeline(cfg: MpidConfig, pairs: Vec<(String, Vec<u8>)>, combine: bool) -> Vec<Groups> {
    run_pipeline_with_stats(cfg, pairs, combine).0
}

/// [`run_pipeline`], plus the one mapper's sender statistics.
fn run_pipeline_with_stats(
    cfg: MpidConfig,
    pairs: Vec<(String, Vec<u8>)>,
    combine: bool,
) -> (Vec<Groups>, SenderStats) {
    let splits: Vec<u64> = (0..pairs.len().div_ceil(16).max(1) as u64).collect();
    let n_reducers = cfg.n_reducers;
    let results = Universe::run(cfg.required_ranks(), move |comm| {
        let world = MpidWorld::init(comm, cfg.clone()).unwrap();
        match world.role() {
            Role::Master => {
                world.run_master(splits.clone()).unwrap();
                None
            }
            Role::Mapper(_) => {
                let mut send = world.sender::<String, Vec<u8>>();
                if combine {
                    send = send.with_combiner(FnCombiner(|acc: &mut Vec<u8>, v: Vec<u8>| {
                        acc.extend_from_slice(&v)
                    }));
                }
                while let Some(chunk) = world.next_split::<u64>().unwrap() {
                    let lo = chunk as usize * 16;
                    let hi = (lo + 16).min(pairs.len());
                    for (k, v) in &pairs[lo..hi] {
                        send.send(k.clone(), v.clone()).unwrap();
                    }
                }
                Some(Err(send.finish().unwrap()))
            }
            Role::Reducer(r) => {
                let mut recv = world.receiver::<String, Vec<u8>>();
                let mut out: Groups = Vec::new();
                while let Some((k, vs)) = recv.recv().unwrap() {
                    out.push((k, vs));
                }
                Some(Ok((r, out)))
            }
        }
    });
    let mut per_reducer: Vec<Groups> = vec![Vec::new(); n_reducers];
    let mut sender = SenderStats::default();
    for result in results.into_iter().flatten() {
        match result {
            Ok((r, out)) => per_reducer[r] = out,
            Err(stats) => sender = stats,
        }
    }
    (per_reducer, sender)
}

proptest! {
    // Spawning whole universes is expensive; keep case counts modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batched sender/receiver ≡ per-record reference, group for group.
    #[test]
    fn batched_path_matches_per_record_reference(
        pairs in proptest::collection::vec(
            ("[a-c]{0,6}", proptest::collection::vec(any::<u8>(), 0..24)),
            0..100,
        ),
        spill in 16usize..1024,
        frame in 8usize..512,
        reducers in 1usize..4,
        combine: bool,
        compress: bool,
    ) {
        let cfg = MpidConfig {
            n_mappers: 1,
            n_reducers: reducers,
            spill_threshold_bytes: spill,
            frame_bytes: frame,
            compress,
            ..Default::default()
        };
        let got = run_pipeline(cfg, pairs.clone(), combine);
        let want = reference_groups(&pairs, reducers, spill, combine);
        prop_assert_eq!(got, want);
    }

    /// Many runs, compressed: a frame per group (`frame_bytes` below any
    /// group's size) and a spill every few records, so the one reducer
    /// merges 64+ LZ frames in which the same few keys keep recurring.
    #[test]
    fn many_compressed_runs_match_per_record_reference(
        pairs in proptest::collection::vec(
            ("[a-c]{0,6}", proptest::collection::vec(any::<u8>(), 0..24)),
            120..200,
        ),
        combine: bool,
    ) {
        let spill = 96;
        let cfg = MpidConfig {
            n_mappers: 1,
            n_reducers: 1,
            spill_threshold_bytes: spill,
            frame_bytes: 8,
            compress: true,
            ..Default::default()
        };
        // With a combiner every (key, spill epoch) is one value — and one frame.
        let runs: usize = reference_groups(&pairs, 1, spill, true)[0]
            .iter()
            .map(|(_, vs)| vs.len())
            .sum();
        prop_assert!(runs >= 64, "only {} runs", runs);
        let got = run_pipeline(cfg, pairs.clone(), combine);
        prop_assert_eq!(got, reference_groups(&pairs, 1, spill, combine));
    }

    /// Both frame layouts in one job, to one reducer: no combiner, one spill
    /// per epoch, and only some epochs repeat a key — those partitions'
    /// frames carry value counts, every other frame omits them. Output is
    /// the per-record reference's, and the frame bytes built are exactly the
    /// payload plus four per frame plus four per group of a counted frame.
    #[test]
    fn mixed_layouts_match_per_record_reference(
        epochs in common::arb_epochs(),
        frame in 8usize..512,
        reducers in 1usize..4,
        compress: bool,
    ) {
        let pairs: Vec<(String, Vec<u8>)> = common::mixed_layout_pairs(&epochs, 1)
            .into_iter()
            .map(|(k, v)| (k, v.to_le_bytes().to_vec()))
            .collect();
        let record = pairs[0].0.wire_size() + pairs[0].1.wire_size();
        let spill = common::EPOCH * record;
        let cfg = MpidConfig {
            n_mappers: 1,
            n_reducers: reducers,
            spill_threshold_bytes: spill,
            frame_bytes: frame,
            compress,
            ..Default::default()
        };
        let (got, sender) = run_pipeline_with_stats(cfg, pairs.clone(), false);
        prop_assert_eq!(got, reference_groups(&pairs, reducers, spill, false));

        let mut want_bytes = 4 * sender.frames;
        let mut layouts = [0u32; 2];
        for epoch in pairs.chunks(common::EPOCH) {
            // Partition → key → encoded bytes of the group's values.
            let mut parts: BTreeMap<usize, BTreeMap<&str, Vec<usize>>> = BTreeMap::new();
            for (k, v) in epoch {
                let part = parts.entry(HashPartitioner.partition(k, reducers)).or_default();
                part.entry(k).or_default().push(v.wire_size());
            }
            for groups in parts.values() {
                let counted = groups.values().any(|vs| vs.len() > 1);
                layouts[counted as usize] += 1;
                for (k, vs) in groups {
                    let head = 4 + k.len() + if counted { 4 } else { 0 };
                    want_bytes += (head + vs.iter().sum::<usize>()) as u64;
                }
            }
        }
        prop_assert!(layouts[0] > 0 && layouts[1] > 0, "one layout only: {:?}", layouts);
        prop_assert_eq!(sender.bytes_precompress, want_bytes);
    }
}
