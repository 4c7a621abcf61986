//! Pipeline-stage tracing: running MPI-D inside a traced universe records
//! the sender's buffer → combine → realign → ship stages and the reducer's
//! merge stage on the rank lanes, without changing job output.

use mpi_rt::{MpiConfig, Universe};
use mpid::{MpidConfig, MpidWorld, Role, SumCombiner};
use std::collections::{BTreeMap, BTreeSet};

fn docs() -> Vec<String> {
    let words = ["alpha", "beta", "gamma", "delta"];
    (0..16)
        .map(|i| {
            (0..40)
                .map(|j| words[(i * 5 + j) % words.len()])
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

fn wordcount(
    comm: &mpi_rt::Comm,
    cfg: &MpidConfig,
    docs: &[String],
) -> Option<BTreeMap<String, u64>> {
    let world = MpidWorld::init(comm, cfg.clone()).unwrap();
    match world.role() {
        Role::Master => {
            world.run_master(docs.to_vec()).unwrap();
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
}

#[test]
fn traced_job_records_stage_spans_and_matches_untraced_output() {
    let cfg = MpidConfig::with_workers(2, 2);
    let input = docs();

    let plain: BTreeMap<String, u64> = {
        let cfg = cfg.clone();
        let input = input.clone();
        Universe::run(cfg.required_ranks(), move |comm| {
            wordcount(comm, &cfg, &input)
        })
        .into_iter()
        .flatten()
        .flatten()
        .collect()
    };

    let sink = obs::SharedTrace::new();
    let traced: BTreeMap<String, u64> = {
        let cfg = cfg.clone();
        let input = input.clone();
        Universe::run_traced(
            MpiConfig::default(),
            cfg.required_ranks(),
            sink.clone(),
            move |comm| wordcount(comm, &cfg, &input),
        )
        .into_iter()
        .flatten()
        .flatten()
        .collect()
    };
    assert_eq!(plain, traced, "tracing must not change job output");

    let trace = sink.take_trace();
    let stage = |name: &str| {
        trace
            .events()
            .iter()
            .filter(|e| e.name == name && e.cat == "mpid.stage")
            .count()
    };
    // Every spill emits one buffer, realign and ship span, so each count
    // equals the spills the two senders report, however the master split
    // the input between them.
    assert_eq!(stage("sender_finish"), 2);
    let spills: u64 = (trace.events().iter())
        .filter(|e| e.name == "sender_finish")
        .map(|e| {
            (e.args.iter())
                .find_map(|(k, v)| match (*k, v) {
                    ("spills", obs::ArgValue::U64(n)) => Some(*n),
                    _ => None,
                })
                .expect("sender_finish carries spills")
        })
        .sum();
    assert!(spills >= 1, "no spills");
    for name in ["buffer", "realign", "ship"] {
        assert_eq!(stage(name) as u64, spills, "{name} spans");
    }
    // Combining is active, so every mapper lane that buffered also has a
    // combine sub-span.
    let lanes = |name: &str| -> BTreeSet<(u32, u32)> {
        (trace.events().iter())
            .filter(|e| e.name == name && e.cat == "mpid.stage")
            .map(|e| (e.pid, e.tid))
            .collect()
    };
    assert_eq!(lanes("combine"), lanes("buffer"));
    // 2 reducers, one merge each.
    assert_eq!(stage("merge"), 2);
    // The merge span subsumes ReceiverStats: frames + received bytes ride
    // along as args.
    for e in trace.events().iter().filter(|e| e.name == "merge") {
        assert!(e.args.iter().any(|(k, _)| *k == "frames"));
        assert!(e
            .args
            .iter()
            .any(|(k, v)| *k == "bytes_received" && matches!(v, obs::ArgValue::U64(b) if *b > 0)));
    }
    // The sender_finish span subsumes SenderStats, including the surviving
    // combine fraction.
    for e in trace.events().iter().filter(|e| e.name == "sender_finish") {
        assert!(e
            .args
            .iter()
            .any(|(k, v)| *k == "combine_ratio" && matches!(v, obs::ArgValue::F64(r) if *r < 1.0)));
    }
    // 2 reducers, one drain each, closed at end of stream with the final
    // count of keys delivered; together they delivered every distinct word.
    let drained: u64 = (trace.events().iter())
        .filter(|e| e.name == "drain" && e.cat == "mpid.stage")
        .map(|e| match e.args[..] {
            [("distinct_keys", obs::ArgValue::U64(n))] => n,
            _ => panic!("drain span args: {:?}", e.args),
        })
        .sum();
    assert_eq!(stage("drain"), 2);
    assert_eq!(drained, plain.len() as u64);
    // MPI-layer spans interleave on the same lanes.
    assert!(trace.events().iter().any(|e| e.cat == "mpi.p2p"));
}
