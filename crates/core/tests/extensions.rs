//! Tests for the implemented "future work" extensions: frame compression,
//! streaming reception, and master-side statistics gathering.

use mpi_rt::Universe;
use mpid::{MpidConfig, MpidWorld, Role, SenderStats, SumCombiner};
use std::collections::BTreeMap;

fn wordy_splits() -> Vec<String> {
    (0..6)
        .map(|i| {
            (0..200)
                .map(|j| format!("word-{:03}", (i * 31 + j * 7) % 40))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

fn run_wordcount_cfg(cfg: MpidConfig) -> (BTreeMap<String, u64>, SenderStats) {
    let docs = wordy_splits();
    let results = Universe::run(cfg.required_ranks(), move |comm| {
        let world = MpidWorld::init(comm, cfg.clone()).unwrap();
        match world.role() {
            Role::Master => {
                world.run_master(docs.clone()).unwrap();
                let stats = world.collect_stats().unwrap();
                (None, Some(stats))
            }
            Role::Mapper(_) => {
                let mut send = world.sender::<String, u64>();
                while let Some(doc) = world.next_split::<String>().unwrap() {
                    for w in doc.split_whitespace() {
                        send.send(w.to_string(), 1).unwrap();
                    }
                }
                let st = send.finish().unwrap();
                world.report_stats(&st).unwrap();
                (None, None)
            }
            Role::Reducer(_) => {
                let mut recv = world.receiver::<String, u64>();
                let mut out = BTreeMap::new();
                while let Some((k, vs)) = recv.recv().unwrap() {
                    out.insert(k, vs.into_iter().sum::<u64>());
                }
                (Some(out), None)
            }
        }
    });
    let mut merged = BTreeMap::new();
    let mut stats = SenderStats::default();
    for (out, st) in results {
        if let Some(o) = out {
            merged.extend(o);
        }
        if let Some(s) = st {
            stats = s;
        }
    }
    (merged, stats)
}

#[test]
fn compression_preserves_results_and_shrinks_wire_bytes() {
    // One mapper: the byte counts of two separate runs are compared, and
    // with more mappers the split-to-mapper assignment (hence which words
    // share a table, hence the frame bytes) is a race.
    let plain_cfg = MpidConfig {
        n_mappers: 1,
        n_reducers: 2,
        ..Default::default()
    };
    let compressed_cfg = MpidConfig {
        compress: true,
        ..plain_cfg.clone()
    };
    let (plain_out, plain_stats) = run_wordcount_cfg(plain_cfg);
    let (comp_out, comp_stats) = run_wordcount_cfg(compressed_cfg);
    assert_eq!(plain_out, comp_out, "compression must be transparent");
    assert_eq!(plain_stats.bytes_precompress, comp_stats.bytes_precompress);
    assert!(
        comp_stats.bytes_sent < plain_stats.bytes_sent,
        "repeated word stems must compress: {} vs {}",
        comp_stats.bytes_sent,
        plain_stats.bytes_sent
    );
}

#[test]
fn compression_with_tiny_frames() {
    let cfg = MpidConfig {
        n_mappers: 3,
        n_reducers: 2,
        spill_threshold_bytes: 256,
        frame_bytes: 128,
        compress: true,
        ..Default::default()
    };
    let (out, stats) = run_wordcount_cfg(cfg.clone());
    let (reference, _) = run_wordcount_cfg(MpidConfig {
        compress: false,
        ..cfg
    });
    assert_eq!(out, reference);
    assert!(stats.frames > 10, "tiny frames should be numerous");
}

#[test]
fn stats_gather_over_mpi_matches_direct_merge() {
    let (_, stats) = run_wordcount_cfg(MpidConfig {
        n_mappers: 3,
        n_reducers: 1,
        ..Default::default()
    });
    // 6 splits × 200 words.
    assert_eq!(stats.pairs_in, 1200);
    assert!(stats.frames >= 1);
    assert!(stats.bytes_sent > 0);
}

#[test]
fn streaming_mode_folds_to_the_same_totals() {
    let cfg = MpidConfig {
        n_mappers: 3,
        n_reducers: 2,
        // Small spills so the same key crosses several frames — the case
        // streaming consumers must fold associatively.
        spill_threshold_bytes: 128,
        ..Default::default()
    };
    let docs = wordy_splits();
    let reference = {
        let mut m: BTreeMap<String, u64> = BTreeMap::new();
        for d in &docs {
            for w in d.split_whitespace() {
                *m.entry(w.to_string()).or_insert(0) += 1;
            }
        }
        m
    };
    let results = Universe::run(cfg.required_ranks(), move |comm| {
        let world = MpidWorld::init(comm, cfg.clone()).unwrap();
        match world.role() {
            Role::Master => {
                world.run_master(docs.clone()).unwrap();
                None
            }
            Role::Mapper(_) => {
                let mut send = world.sender::<String, u64>().with_combiner(SumCombiner);
                while let Some(doc) = world.next_split::<String>().unwrap() {
                    for w in doc.split_whitespace() {
                        send.send(w.to_string(), 1).unwrap();
                    }
                }
                send.finish().unwrap();
                None
            }
            Role::Reducer(_) => {
                // Streaming: fold groups as they arrive; keys may repeat.
                let mut stream = world.receiver::<String, u64>().into_streaming();
                let mut acc: BTreeMap<String, u64> = BTreeMap::new();
                let mut yields = 0u64;
                while let Some((k, vs)) = stream.recv().unwrap() {
                    yields += 1;
                    *acc.entry(k).or_insert(0) += vs.iter().sum::<u64>();
                }
                Some((acc, yields, stream.stats().frames))
            }
        }
    });
    let mut merged: BTreeMap<String, u64> = BTreeMap::new();
    let mut total_yields = 0;
    let mut total_distinct = 0;
    for (acc, yields, frames) in results.into_iter().flatten() {
        total_distinct += acc.len() as u64;
        merged.extend(acc);
        total_yields += yields;
        assert!(frames > 0);
    }
    assert_eq!(merged, reference);
    // With tiny spills, keys repeat across frames: more yields than keys.
    assert!(
        total_yields > total_distinct,
        "expected partial groups: {total_yields} yields for {total_distinct} keys"
    );
}

#[test]
fn streaming_and_grouped_receivers_have_matching_byte_counts() {
    // Cross-check the two reducer paths account identically. One mapper:
    // with more, which splits share a table (and hence the frame bytes) is
    // a race between mappers, so two separate runs need not agree.
    let cfg = MpidConfig {
        n_mappers: 1,
        n_reducers: 1,
        ..Default::default()
    };
    let run = |streaming: bool| {
        let cfg = cfg.clone();
        let docs = wordy_splits();
        let results = Universe::run(cfg.required_ranks(), move |comm| {
            let world = MpidWorld::init(comm, cfg.clone()).unwrap();
            match world.role() {
                Role::Master => {
                    world.run_master(docs.clone()).unwrap();
                    0
                }
                Role::Mapper(_) => {
                    let mut send = world.sender::<String, u64>();
                    while let Some(doc) = world.next_split::<String>().unwrap() {
                        for w in doc.split_whitespace() {
                            send.send(w.to_string(), 1).unwrap();
                        }
                    }
                    send.finish().unwrap();
                    0
                }
                Role::Reducer(_) => {
                    if streaming {
                        let mut s = world.receiver::<String, u64>().into_streaming();
                        while s.recv().unwrap().is_some() {}
                        s.stats().bytes_received
                    } else {
                        let mut r = world.receiver::<String, u64>();
                        while r.recv().unwrap().is_some() {}
                        r.stats().bytes_received
                    }
                }
            }
        });
        results.into_iter().max().unwrap()
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn external_merge_receiver_bounded_memory() {
    // Reducer with a tiny memory budget: must spill runs to disk and still
    // produce the exact grouped result in key order.
    let cfg = MpidConfig {
        n_mappers: 3,
        n_reducers: 1,
        spill_threshold_bytes: 128,
        ..Default::default()
    };
    let docs = wordy_splits();
    let reference = {
        let mut m: BTreeMap<String, u64> = BTreeMap::new();
        for d in &docs {
            for w in d.split_whitespace() {
                *m.entry(w.to_string()).or_insert(0) += 1;
            }
        }
        m
    };
    let results = Universe::run(cfg.required_ranks(), move |comm| {
        let world = MpidWorld::init(comm, cfg.clone()).unwrap();
        match world.role() {
            Role::Master => {
                world.run_master(docs.clone()).unwrap();
                None
            }
            Role::Mapper(_) => {
                let mut send = world.sender::<String, u64>();
                while let Some(doc) = world.next_split::<String>().unwrap() {
                    for w in doc.split_whitespace() {
                        send.send(w.to_string(), 1).unwrap();
                    }
                }
                send.finish().unwrap();
                None
            }
            Role::Reducer(_) => {
                let recv = world.receiver::<String, u64>();
                // 256-byte budget: guaranteed to spill.
                let mut ext = recv.into_external(256, std::env::temp_dir()).unwrap();
                let mut out: BTreeMap<String, u64> = BTreeMap::new();
                let mut last: Option<String> = None;
                while let Some((k, vs)) = ext.recv().unwrap() {
                    if let Some(prev) = &last {
                        assert!(*prev < k, "external merge must be key-ordered");
                    }
                    last = Some(k.clone());
                    out.insert(k, vs.iter().sum::<u64>());
                }
                Some((out, ext.spilled_runs()))
            }
        }
    });
    let (out, runs) = results.into_iter().flatten().next().unwrap();
    assert_eq!(out, reference);
    assert!(runs > 2, "tiny budget must spill several runs, got {runs}");
}
