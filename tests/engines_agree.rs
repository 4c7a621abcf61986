//! Cross-crate integration: every workload produces identical output on the
//! sequential reference engine and on the real distributed MPI-D engine,
//! across topologies and pipeline configurations — and a one-mapper job's
//! sender counters and MPI traffic repeat exactly.

use mpid_suite::mapred::{
    run_local, run_mpid, run_mpid_traced, MpidEngineConfig, TextInput, VecInput,
};
use mpid_suite::workloads::{
    zipf_pairs, Grep, InvertedIndex, JavaSort, SortGen, TextGen, WordCount, WordCountPairs,
};
use std::sync::Arc;

fn sorted<K: Ord + Clone, V: Ord + Clone>(mut v: Vec<(K, V)>) -> Vec<(K, V)> {
    v.sort();
    v
}

#[test]
fn wordcount_on_generated_text_all_topologies() {
    let make_input = || TextGen::new(0xABCD, 96 * 1024, 6, 500);
    let reference = sorted(run_local(&WordCount, &make_input()));
    assert!(!reference.is_empty());
    for (m, r) in [(1, 1), (2, 2), (4, 3)] {
        let cfg = MpidEngineConfig::with_workers(m, r);
        let job = run_mpid(&cfg, Arc::new(WordCount), Arc::new(make_input()));
        assert_eq!(sorted(job.output), reference, "topology {m}x{r}");
    }
}

#[test]
fn wordcount_total_words_conserved() {
    let input = TextGen::new(0x1234, 64 * 1024, 4, 300);
    let total_words: u64 = (0..4)
        .flat_map(|s| {
            input
                .records(s)
                .map(|(_, l)| l.split_whitespace().count() as u64)
                .collect::<Vec<_>>()
        })
        .sum();
    use mpid_suite::mapred::InputFormat;
    let job = run_mpid(
        &MpidEngineConfig::with_workers(3, 2),
        Arc::new(WordCount),
        Arc::new(TextGen::new(0x1234, 64 * 1024, 4, 300)),
    );
    let counted: u64 = job.output.iter().map(|(_, c)| c).sum();
    assert_eq!(counted, total_words);
    // Combiner must have collapsed most pairs.
    assert!(job.sender_stats.pairs_combined > job.sender_stats.pairs_in / 2);
}

#[test]
fn javasort_engines_agree_and_sort() {
    let make_input = || SortGen::new(0x5EED, 400_000, 5);
    let reference = run_local(&JavaSort, &make_input());
    let job = run_mpid(
        &MpidEngineConfig::with_workers(3, 4),
        Arc::new(JavaSort),
        Arc::new(make_input()),
    );
    // Range partitioning means the merged (reducer-ordered) output is the
    // globally sorted sequence, same as the local engine's.
    assert_eq!(job.output, reference);
    let keys: Vec<u64> = job.output.iter().map(|(k, _)| *k).collect();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn grep_engines_agree() {
    let make_input = || TextGen::new(0xFEED, 32 * 1024, 3, 200);
    let grep = || Grep {
        pattern: "ba".into(),
    };
    let reference = sorted(run_local(&grep(), &make_input()));
    let job = run_mpid(
        &MpidEngineConfig::with_workers(2, 2),
        Arc::new(grep()),
        Arc::new(make_input()),
    );
    assert_eq!(sorted(job.output), reference);
}

#[test]
fn inverted_index_engines_agree() {
    let docs: Vec<(u64, String)> = (0..20)
        .map(|i| (i, format!("w{} w{} shared", i % 5, (i * 3) % 7)))
        .collect();
    let reference = sorted(run_local(
        &InvertedIndex,
        &VecInput::round_robin(docs.clone(), 4),
    ));
    let job = run_mpid(
        &MpidEngineConfig::with_workers(4, 2),
        Arc::new(InvertedIndex),
        Arc::new(VecInput::round_robin(docs, 4)),
    );
    assert_eq!(sorted(job.output), reference);
    // Every word's posting list contains doc ids only once.
    for (_, list) in &reference {
        let ids: Vec<&str> = list.split(',').collect();
        let mut dedup = ids.clone();
        dedup.dedup();
        assert_eq!(ids, dedup);
    }
}

#[test]
fn pipeline_knobs_do_not_change_results() {
    let make_input = || {
        TextInput::new(vec![
            "a b c a b a".to_string(),
            "c c c d e f g".to_string(),
            "a a a a a a a".to_string(),
        ])
    };
    let reference = sorted(run_local(&WordCount, &make_input()));
    for (spill, frame, eager) in [
        (32usize, 16usize, 16usize),
        (1 << 20, 1 << 16, 64),
        (64, 1 << 20, 1 << 20),
    ] {
        let cfg = MpidEngineConfig {
            n_mappers: 2,
            n_reducers: 2,
            spill_threshold_bytes: spill,
            frame_bytes: frame,
            eager_threshold: eager,
            ..Default::default()
        };
        let job = run_mpid(&cfg, Arc::new(WordCount), Arc::new(make_input()));
        assert_eq!(
            sorted(job.output),
            reference,
            "spill={spill} frame={frame} eager={eager}"
        );
    }
}

#[test]
fn reduce_side_join_engines_agree() {
    use mpid_suite::workloads::{ReduceSideJoin, JOIN_LEFT, JOIN_RIGHT};
    let records: Vec<(u64, (u8, String))> = (0..40)
        .map(|i| {
            let key = i % 7;
            if i % 2 == 0 {
                (key, (JOIN_LEFT, format!("user-{i}")))
            } else {
                (key, (JOIN_RIGHT, format!("order-{i}")))
            }
        })
        .collect();
    let reference = sorted(run_local(
        &ReduceSideJoin,
        &VecInput::round_robin(records.clone(), 3),
    ));
    let job = run_mpid(
        &MpidEngineConfig::with_workers(3, 2),
        Arc::new(ReduceSideJoin),
        Arc::new(VecInput::round_robin(records, 3)),
    );
    assert_eq!(sorted(job.output), reference);
    assert!(!reference.is_empty());
}

/// Many small records: the Zipf word pairs the benchmark's WordCount rows run.
#[test]
fn wordcount_pairs_over_zipf_splits_engines_agree() {
    let pairs = zipf_pairs(7, 40_000, 2_000);
    let reference = sorted(run_local(
        &WordCountPairs,
        &VecInput::round_robin(pairs.clone(), 8),
    ));
    let job = run_mpid(
        &MpidEngineConfig::with_workers(2, 2),
        Arc::new(WordCountPairs),
        Arc::new(VecInput::round_robin(pairs, 8)),
    );
    assert_eq!(sorted(job.output), reference);
    assert_eq!(job.sender_stats.pairs_in, 40_000);
}

/// Few large records: `JavaSort` over 4 KiB values.
#[test]
fn javasort_over_large_values_engines_agree() {
    let records: Vec<(u64, Vec<u8>)> = (0..192u64)
        .map(|i| {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (key, vec![i as u8; 4096])
        })
        .collect();
    let reference = run_local(&JavaSort, &VecInput::round_robin(records.clone(), 8));
    let job = run_mpid(
        &MpidEngineConfig::with_workers(2, 2),
        Arc::new(JavaSort),
        Arc::new(VecInput::round_robin(records, 8)),
    );
    assert_eq!(job.output, reference);
    assert_eq!(reference.len(), 192);
}

/// A one-mapper job's sender counters are a pure function of the records
/// it reads and their order, so they pin what each split of a
/// `VecInput::round_robin` holds and the order it yields it in.
#[test]
fn one_mapper_sender_counts_over_round_robin_splits_are_pinned() {
    let input = VecInput::round_robin(zipf_pairs(11, 262_144, 20_000), 8);
    let cfg = MpidEngineConfig {
        spill_threshold_bytes: 256 << 10,
        ..MpidEngineConfig::with_workers(1, 1)
    };
    let job = run_mpid(&cfg, Arc::new(WordCountPairs), Arc::new(input));
    let s = &job.sender_stats;
    assert_eq!(
        (s.pairs_in, s.spills, s.frames, s.bytes_sent),
        (262_144, 17, 17, 1_300_840)
    );
}

/// A one-mapper, one-reducer WordCount sends the same MPI messages every
/// run. Pinned exactly: the universe's byte and message totals and the
/// count of each `mpi.*` span of the traced run (13 sends, 13 receives,
/// one `barrier` per rank at `MPI_D_Finalize`). The message total is the
/// 13 sends plus the barrier's 6 empty messages, all sent before the last
/// rank leaves the barrier and reads the counters.
#[test]
fn one_mapper_wordcount_mpi_traffic_is_pinned() {
    let make_input = || Arc::new(TextGen::new(0x7AFF, 32 * 1024, 4, 200));
    let cfg = MpidEngineConfig::with_workers(1, 1);
    let plain = run_mpid(&cfg, Arc::new(WordCount), make_input());
    let sink = mpid_suite::obs::SharedTrace::new();
    let traced = run_mpid_traced(&cfg, Arc::new(WordCount), make_input(), sink.clone());
    for job in [&plain, &traced] {
        assert_eq!(job.universe_bytes, 2872);
        assert_eq!(job.universe_msgs, 13 + 6);
    }
    let mut spans = std::collections::BTreeMap::new();
    for e in sink.take_trace().events() {
        if e.cat.starts_with("mpi.") {
            *spans.entry((e.cat, e.name.to_string())).or_insert(0u64) += 1;
        }
    }
    let spans: Vec<(&str, &str, u64)> = spans
        .iter()
        .map(|((cat, name), n)| (*cat, name.as_str(), *n))
        .collect();
    assert_eq!(
        spans,
        vec![
            ("mpi.coll", "barrier", 3),
            ("mpi.p2p", "recv", 13),
            ("mpi.p2p", "send", 13),
        ]
    );
}

#[test]
fn compression_on_the_real_engine_is_transparent() {
    let make_input = || TextGen::new(0xC0DE, 64 * 1024, 4, 400);
    let reference = sorted(run_local(&WordCount, &make_input()));
    let mut cfg = MpidEngineConfig::with_workers(2, 2);
    cfg.compress = true;
    let job = run_mpid(&cfg, Arc::new(WordCount), Arc::new(make_input()));
    assert_eq!(sorted(job.output), reference);
    assert!(
        job.sender_stats.bytes_sent < job.sender_stats.bytes_precompress,
        "zipf text must compress"
    );
}
