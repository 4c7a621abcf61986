//! Tracing integration: a traced universe records p2p and barrier spans on
//! per-rank lanes, and tracing never changes results.

use mpi_rt::{MpiConfig, Universe};

fn ring(comm: &mpi_rt::Comm) -> u64 {
    let n = comm.size();
    let next = (comm.rank() + 1) % n;
    let prev = (comm.rank() + n - 1) % n;
    comm.send(next, 0, &[comm.rank() as u64]).unwrap();
    let (got, _) = comm.recv::<u64>(Some(prev), Some(0)).unwrap();
    // Fan the values in to rank 0 and the sum back out.
    let sum = if comm.rank() == 0 {
        let mut sum = got[0];
        for _ in 1..n {
            sum += comm.recv::<u64>(None, Some(1)).unwrap().0[0];
        }
        for dst in 1..n {
            comm.send(dst, 2, &[sum]).unwrap();
        }
        sum
    } else {
        comm.send(0, 1, &got).unwrap();
        comm.recv::<u64>(Some(0), Some(2)).unwrap().0[0]
    };
    comm.barrier().unwrap();
    sum
}

#[test]
fn traced_universe_matches_untraced_and_records_spans() {
    let plain = Universe::run(4, ring);
    let sink = obs::SharedTrace::new();
    let traced = Universe::run_traced(MpiConfig::default(), 4, sink.clone(), ring);
    assert_eq!(plain, traced, "tracing must not perturb results");

    let trace = sink.take_trace();
    let count = |name: &str, cat: &str| {
        trace
            .events()
            .iter()
            .filter(|e| e.name == name && e.cat == cat)
            .count()
    };
    // A ring pair per rank, a fan-in and fan-out pair per non-root rank,
    // and one barrier per rank.
    assert_eq!(count("send", "mpi.p2p"), 4 + 3 + 3);
    assert_eq!(count("recv", "mpi.p2p"), 4 + 3 + 3);
    assert_eq!(count("barrier", "mpi.coll"), 4);
    // The barrier is one span: the internal sends it performs must not
    // leak extra p2p spans (the 10 sends and 10 receives above only).
    assert_eq!(
        trace.events().iter().filter(|e| e.cat == "mpi.p2p").count(),
        20
    );
    // Every rank got its own process lane, named.
    for r in 0..4u32 {
        assert!(trace.events().iter().any(|e| e.pid == r));
        assert_eq!(
            trace.process_names().get(&r).map(String::as_str),
            Some(format!("rank-{r}").as_str())
        );
    }
    // Spans carry payload byte counts.
    assert!(trace.events().iter().filter(|e| e.name == "send").all(|e| e
        .args
        .iter()
        .any(|(k, v)| *k == "bytes" && matches!(v, obs::ArgValue::U64(8)))));
}
