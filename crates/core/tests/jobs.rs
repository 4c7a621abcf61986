//! End-to-end MPI-D jobs over the real mpi-rt runtime: full
//! master/mapper/reducer topologies, spill behaviour, transport modes,
//! and failure injection.

use mpi_rt::{MpiError, Universe};
use mpid::{
    ConstPartitioner, Kv, MpidConfig, MpidError, MpidWorld, Role, SenderStats, SumCombiner,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Reference word count.
fn expected_counts(docs: &[&str]) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    for d in docs {
        for w in d.split_whitespace() {
            *m.entry(w.to_string()).or_insert(0) += 1;
        }
    }
    m
}

/// Run WordCount with the given config; returns merged reducer outputs.
fn run_wordcount(cfg: MpidConfig, docs: Vec<String>) -> BTreeMap<String, u64> {
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
                let mut recv = world.receiver::<String, u64>();
                let mut out = BTreeMap::new();
                while let Some((k, vs)) = recv.recv().unwrap() {
                    out.insert(k, vs.into_iter().sum::<u64>());
                }
                Some(out)
            }
        }
    });
    let mut merged = BTreeMap::new();
    for r in results.into_iter().flatten() {
        for (k, v) in r {
            assert!(merged.insert(k, v).is_none(), "key owned by two reducers");
        }
    }
    merged
}

fn sample_docs(n: usize) -> Vec<String> {
    let words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
    (0..n)
        .map(|i| {
            (0..20)
                .map(|j| words[(i * 7 + j * 3) % words.len()])
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

#[test]
fn wordcount_matches_reference_various_topologies() {
    let docs = sample_docs(12);
    let expected = expected_counts(&docs.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    for (m, r) in [(1, 1), (2, 1), (3, 2), (4, 3)] {
        let got = run_wordcount(MpidConfig::with_workers(m, r), docs.clone());
        assert_eq!(got, expected, "topology {m}x{r}");
    }
}

#[test]
fn tiny_spill_threshold_still_correct() {
    // Spill after nearly every pair: exercises multi-spill, multi-frame
    // merging on the reducer side.
    let docs = sample_docs(8);
    let expected = expected_counts(&docs.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    let cfg = MpidConfig {
        n_mappers: 3,
        n_reducers: 2,
        spill_threshold_bytes: 32,
        frame_bytes: 24,
        ..Default::default()
    };
    assert_eq!(run_wordcount(cfg, docs), expected);
}

#[test]
fn sort_keys_mode_is_equivalent() {
    let docs = sample_docs(6);
    let expected = expected_counts(&docs.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    let cfg = MpidConfig {
        n_mappers: 2,
        n_reducers: 1,
        sort_keys: true,
        spill_threshold_bytes: 100,
        ..Default::default()
    };
    assert_eq!(run_wordcount(cfg, docs), expected);
}

#[test]
fn no_combiner_preserves_every_value() {
    // Without a combiner the reducer must see one value per occurrence.
    let cfg = MpidConfig::with_workers(2, 1);
    let total_pairs = Universe::run(cfg.required_ranks(), move |comm| {
        let world = MpidWorld::init(comm, cfg.clone()).unwrap();
        match world.role() {
            Role::Master => {
                world.run_master(vec![0u64, 1]).unwrap();
                0
            }
            Role::Mapper(_) => {
                let mut send = world.sender::<String, u64>(); // no combiner
                while let Some(_split) = world.next_split::<u64>().unwrap() {
                    for _ in 0..50 {
                        send.send("same-key".to_string(), 1).unwrap();
                    }
                }
                send.finish().unwrap();
                0
            }
            Role::Reducer(_) => {
                let mut recv = world.receiver::<String, u64>();
                let (k, vs) = recv.recv().unwrap().expect("one group");
                assert_eq!(k, "same-key");
                assert!(recv.recv().unwrap().is_none());
                vs.len()
            }
        }
    });
    assert_eq!(total_pairs.iter().sum::<usize>(), 100);
}

#[test]
fn combiner_shrinks_traffic() {
    // Same job with and without the combiner: the combiner run must ship
    // far fewer bytes (the paper's rationale for local combining).
    let run = |combine: bool| -> (u64, u64) {
        let cfg = MpidConfig::with_workers(1, 1);
        let stats = Universe::run(cfg.required_ranks(), move |comm| {
            let world = MpidWorld::init(comm, cfg.clone()).unwrap();
            match world.role() {
                Role::Master => {
                    world.run_master(vec![0u64]).unwrap();
                    None
                }
                Role::Mapper(_) => {
                    let mut send = world.sender::<String, u64>();
                    if combine {
                        send = send.with_combiner(SumCombiner);
                    }
                    while let Some(_s) = world.next_split::<u64>().unwrap() {
                        for i in 0..5000u64 {
                            send.send(format!("k{}", i % 10), 1).unwrap();
                        }
                    }
                    let st = send.finish().unwrap();
                    Some((st.bytes_sent, st.groups_out))
                }
                Role::Reducer(_) => {
                    let mut recv = world.receiver::<String, u64>();
                    while let Some((_, vs)) = recv.recv().unwrap() {
                        assert_eq!(vs.iter().sum::<u64>(), 500);
                    }
                    None
                }
            }
        });
        stats.into_iter().flatten().next().unwrap()
    };
    let (bytes_with, groups_with) = run(true);
    let (bytes_without, _) = run(false);
    assert_eq!(groups_with, 10);
    assert!(
        bytes_with * 20 < bytes_without,
        "combiner should cut traffic >20x here: {bytes_with} vs {bytes_without}"
    );
}

/// One mapper sends `pairs` to one reducer, which streams the groups off the
/// wire as they were framed: returns the sender's statistics, and the count
/// and the `Kv::wire_size` bytes (keys and values, nothing else) of those
/// groups.
fn wire_of(pairs: Vec<(String, u64)>, combine: bool, spill: usize) -> (SenderStats, u64, u64) {
    let cfg = MpidConfig {
        spill_threshold_bytes: spill,
        frame_bytes: 256,
        ..MpidConfig::with_workers(1, 1)
    };
    let results = Universe::run(cfg.required_ranks(), move |comm| {
        let world = MpidWorld::init(comm, cfg.clone()).unwrap();
        match world.role() {
            Role::Master => {
                world.run_master(vec![0u64]).unwrap();
                None
            }
            Role::Mapper(_) => {
                let mut send = world.sender::<String, u64>();
                if combine {
                    send = send.with_combiner(SumCombiner);
                }
                while world.next_split::<u64>().unwrap().is_some() {
                    for (k, v) in &pairs {
                        send.send(k.clone(), *v).unwrap();
                    }
                }
                Some((send.finish().unwrap(), 0, 0))
            }
            Role::Reducer(_) => {
                let mut stream = world.receiver::<String, u64>().into_streaming();
                let (mut groups, mut payload) = (0, 0);
                while let Some((k, vs)) = stream.recv().unwrap() {
                    groups += 1;
                    payload += (k.wire_size() + vs.iter().map(Kv::wire_size).sum::<usize>()) as u64;
                }
                Some((SenderStats::default(), groups, payload))
            }
        }
    });
    let mut results = results.into_iter().flatten();
    let (sender, ..) = results.next().unwrap();
    let (_, groups, payload) = results.next().unwrap();
    assert_eq!(sender.groups_out, groups);
    (sender, groups, payload)
}

/// The wire carries the keys, the values and five bytes a frame — and a
/// four-byte value count per group only where some group of the frame's
/// spill has more than one value. Exact and machine-independent (one mapper,
/// one reducer), so CI can gate on it.
#[test]
fn wire_bytes_are_payload_plus_five_per_frame_when_groups_are_single_valued() {
    // Word count with a combiner: 64 words recur through five spills, and
    // each spill ships one accumulator per word it saw.
    let words = (0..2000u64).map(|i| (format!("w{:02}", i * 7 % 64), 1));
    let (sender, groups, payload) = wire_of(words.collect(), true, 6000);
    assert_eq!(sender.spills, 5);
    assert!(sender.frames > 5 && groups > 64 && sender.pairs_combined > 1000);
    assert_eq!(sender.bytes_sent, payload + 5 * sender.frames);

    // Distinct keys, no combiner: every group has its one value.
    let distinct = (0..500u64).map(|i| (format!("key-{i:04}"), i));
    let (sender, groups, payload) = wire_of(distinct.collect(), false, 2000);
    assert_eq!((groups, sender.spills), (500, 5));
    assert_eq!(payload, 500 * (4 + 8 + 8));
    assert_eq!(sender.bytes_sent, payload + 5 * sender.frames);

    // One key sent twice, no combiner, one spill: its frames count values.
    let repeated = (0..500u64).map(|i| (format!("key-{:04}", i % 499), i));
    let (sender, groups, payload) = wire_of(repeated.collect(), false, 1 << 20);
    assert_eq!((groups, sender.spills), (499, 1));
    assert_eq!(sender.bytes_sent, payload + 4 * groups + 5 * sender.frames);
}

#[test]
fn custom_partitioner_routes_everything_to_one_reducer() {
    let cfg = MpidConfig::with_workers(2, 3);
    let per_reducer = Universe::run(cfg.required_ranks(), move |comm| {
        let world = MpidWorld::init(comm, cfg.clone()).unwrap();
        match world.role() {
            Role::Master => {
                world.run_master(vec![0u64, 1]).unwrap();
                None
            }
            Role::Mapper(_) => {
                let mut send = world
                    .sender::<u64, u64>()
                    .with_partitioner(ConstPartitioner(1));
                while let Some(s) = world.next_split::<u64>().unwrap() {
                    for i in 0..10 {
                        send.send(s * 100 + i, 1).unwrap();
                    }
                }
                send.finish().unwrap();
                None
            }
            Role::Reducer(i) => {
                let mut recv = world.receiver::<u64, u64>();
                let groups = recv.recv_all().unwrap();
                Some((i, groups.len()))
            }
        }
    });
    let counts: BTreeMap<usize, usize> = per_reducer.into_iter().flatten().collect();
    assert_eq!(counts[&0], 0);
    assert_eq!(counts[&1], 20);
    assert_eq!(counts[&2], 0);
}

#[test]
fn reducer_keys_arrive_in_ascending_order() {
    let cfg = MpidConfig::with_workers(2, 1);
    Universe::run(cfg.required_ranks(), move |comm| {
        let world = MpidWorld::init(comm, cfg.clone()).unwrap();
        match world.role() {
            Role::Master => {
                world.run_master(vec![0u64, 1]).unwrap();
            }
            Role::Mapper(m) => {
                let mut send = world.sender::<u64, u64>();
                while let Some(_s) = world.next_split::<u64>().unwrap() {
                    // Deliberately unsorted keys.
                    for k in [9u64, 3, 7, 1, 5] {
                        send.send(k * 10 + m as u64, 0).unwrap();
                    }
                }
                send.finish().unwrap();
            }
            Role::Reducer(_) => {
                let mut recv = world.receiver::<u64, u64>();
                let keys: Vec<u64> = recv
                    .recv_all()
                    .unwrap()
                    .into_iter()
                    .map(|(k, _)| k)
                    .collect();
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                assert_eq!(keys, sorted, "MPI_D_Recv must stream keys in order");
            }
        }
    });
}

#[test]
fn value_sorting_on_demand() {
    let cfg = MpidConfig::with_workers(3, 1);
    Universe::run(cfg.required_ranks(), move |comm| {
        let world = MpidWorld::init(comm, cfg.clone()).unwrap();
        match world.role() {
            Role::Master => {
                world.run_master(vec![0u64, 1, 2]).unwrap();
            }
            Role::Mapper(m) => {
                let mut send = world.sender::<String, u64>();
                while let Some(_s) = world.next_split::<u64>().unwrap() {
                    send.send("k".into(), 100 - m as u64).unwrap();
                    send.send("k".into(), m as u64).unwrap();
                }
                send.finish().unwrap();
            }
            Role::Reducer(_) => {
                let mut recv = world.receiver::<String, u64>().with_sorted_values();
                let (_, vs) = recv.recv().unwrap().unwrap();
                let mut sorted = vs.clone();
                sorted.sort_unstable();
                assert_eq!(vs, sorted);
                assert_eq!(vs.len(), 6);
            }
        }
    });
}

#[test]
fn dynamic_split_assignment_balances_work() {
    // 20 splits across 4 mappers: pull-based assignment guarantees all
    // splits processed exactly once regardless of scheduling.
    let cfg = MpidConfig::with_workers(4, 1);
    let results = Universe::run(cfg.required_ranks(), move |comm| {
        let world = MpidWorld::init(comm, cfg.clone()).unwrap();
        match world.role() {
            Role::Master => {
                let stats = world.run_master((0..20u64).collect()).unwrap();
                assert_eq!(stats.splits_assigned, 20);
                assert_eq!(stats.requests_served, 24); // 20 splits + 4 dones
                None
            }
            Role::Mapper(_) => {
                let mut send = world.sender::<u64, u64>();
                let mut got = Vec::new();
                while let Some(s) = world.next_split::<u64>().unwrap() {
                    got.push(s);
                    send.send(s, 1).unwrap();
                }
                send.finish().unwrap();
                Some(got)
            }
            Role::Reducer(_) => {
                let mut recv = world.receiver::<u64, u64>();
                let groups = recv.recv_all().unwrap();
                assert_eq!(groups.len(), 20, "every split seen exactly once");
                None
            }
        }
    });
    let all_splits: Vec<u64> = results.into_iter().flatten().flatten().collect();
    let mut sorted = all_splits.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..20).collect::<Vec<_>>());
}

#[test]
fn a_mapper_that_exits_without_eos_fails_the_reducer() {
    // Mapper 1 returns without sending EOS, and no timeout is set: the
    // reducer's untimed receive sits in the checker's wait-for graph, so
    // once every other rank has ended the watchdog reports the deadlock
    // instead of letting the reducer hang.
    let cfg = MpidConfig::with_workers(2, 1);
    let t0 = Instant::now();
    let results = Universe::run(cfg.required_ranks(), move |comm| {
        let world = MpidWorld::init(comm, cfg.clone()).unwrap();
        match world.role() {
            Role::Master => {
                // Serve only mapper requests that arrive; mapper 1 never asks.
                let (_, st) = comm.recv::<u8>(None, Some(3)).unwrap();
                comm.send(st.source, 4, &[0u8]).unwrap(); // done marker
                None
            }
            Role::Mapper(0) => {
                let send = world.sender::<String, u64>();
                let _ = world.next_split::<u64>().unwrap();
                send.finish().unwrap();
                None
            }
            Role::Mapper(_) => {
                // Exit without EOS.
                None
            }
            Role::Reducer(_) => {
                let mut recv = world.receiver::<String, u64>();
                match recv.recv() {
                    Err(MpidError::Mpi(MpiError::Deadlock(report))) => {
                        Some(report.stuck.contains(&comm.rank()))
                    }
                    other => panic!("expected a deadlock report, got {other:?}"),
                }
            }
        }
    });
    assert!(results.into_iter().flatten().any(|b| b));
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "took {took:?}");
}

/// The opt-in failure detector: a receiver given a timeout reports
/// `Timeout` for a mapper that has not sent, while that mapper still runs.
#[test]
fn an_opt_in_receive_timeout_reports_a_silent_mapper() {
    let cfg = MpidConfig::with_workers(1, 1);
    Universe::run(cfg.required_ranks(), move |comm| {
        let world = MpidWorld::init(comm, cfg.clone()).unwrap();
        match world.role() {
            Role::Master => {
                world.run_master(Vec::<u64>::new()).unwrap();
            }
            Role::Mapper(_) => {
                let send = world.sender::<String, u64>();
                while world.next_split::<u64>().unwrap().is_some() {}
                // Stay silent until the reducer has timed out.
                comm.recv::<u8>(Some(2), Some(7)).unwrap();
                send.finish().unwrap();
            }
            Role::Reducer(_) => {
                let mut recv = world
                    .receiver::<String, u64>()
                    .with_timeout(Some(Duration::from_millis(50)));
                match recv.recv() {
                    Err(MpidError::Mpi(MpiError::Timeout(t))) => {
                        assert_eq!(t, Duration::from_millis(50))
                    }
                    other => panic!("expected a timeout, got {other:?}"),
                }
                comm.send::<u8>(1, 7, &[]).unwrap();
                // Drain the mapper's end-of-stream marker.
                comm.recv::<u8>(Some(1), Some(mpid::config::tags::DATA))
                    .unwrap();
            }
        }
    });
}

#[test]
fn init_rejects_wrong_rank_count() {
    let cfg = MpidConfig::with_workers(3, 3); // needs 7 ranks
    Universe::run(4, move |comm| match MpidWorld::init(comm, cfg.clone()) {
        Err(MpidError::Config(msg)) => assert!(msg.contains("requires 7")),
        other => panic!("expected config error, got {:?}", other.is_ok()),
    });
}

#[test]
fn empty_input_produces_empty_output() {
    let got = run_wordcount(MpidConfig::with_workers(2, 2), vec![]);
    assert!(got.is_empty());
}

#[test]
fn single_huge_split_with_many_frames() {
    // One split expands to many pairs with tiny frames: stress framing.
    let cfg = MpidConfig {
        n_mappers: 1,
        n_reducers: 2,
        spill_threshold_bytes: 256,
        frame_bytes: 64,
        ..Default::default()
    };
    let docs = vec![(0..2000)
        .map(|i| format!("w{}", i % 37))
        .collect::<Vec<_>>()
        .join(" ")];
    let expected = expected_counts(&docs.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    assert_eq!(run_wordcount(cfg, docs), expected);
}
