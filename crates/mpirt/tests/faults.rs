//! Fault-injection integration tests: a planned rank crash surfaces as a
//! structured [`MpiError::RankLost`] on every survivor (no deadlock, no
//! hang), both in raw point-to-point code and mid-shuffle in a real MPI-D
//! job — and the barrier-checkpoint/restart engine turns that loss back
//! into a completed job with correct output.

use mapred::{
    run_local, run_mpid, run_mpid_checkpointed, InputFormat, MapReduceApp, MpidEngineConfig,
    TextInput,
};
use mpi_rt::{Comm, MpiConfig, MpiError, MpiResult, RankFault, Universe, VerifyConfig};
use mpid::{MpidConfig, MpidWorld, Role};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Checked config with a fast watchdog and one planned crash.
fn faulty(faults: Vec<RankFault>) -> MpiConfig {
    MpiConfig {
        eager_threshold: 64 * 1024,
        verify: VerifyConfig {
            enabled: true,
            watchdog_interval: Duration::from_millis(10),
        },
        fault_injection: faults,
    }
}

#[test]
fn rank_crash_during_ping_pong_is_rank_lost_not_a_hang() {
    // Rank 1 dies on its 4th p2p operation, mid ping-pong. Rank 0 is left
    // blocked in a receive that can never complete; the watchdog must turn
    // that into RankLost (naming the lost rank) in bounded time.
    let started = Instant::now();
    let res = Universe::try_run_with(
        faulty(vec![RankFault {
            rank: 1,
            after_ops: 3,
        }]),
        2,
        |comm| -> MpiResult<u32> {
            let peer = 1 - comm.rank();
            let mut rounds = 0;
            for _ in 0..100 {
                if comm.rank() == 0 {
                    comm.send(peer, 0, &[rounds])?;
                    comm.recv::<u32>(Some(peer), Some(0))?;
                } else {
                    comm.recv::<u32>(Some(peer), Some(0))?;
                    comm.send(peer, 0, &[rounds])?;
                }
                rounds += 1;
            }
            Ok(rounds)
        },
    );
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "rank loss detection must be bounded"
    );
    match res {
        Err(MpiError::RankLost(report)) => {
            assert_eq!(report.lost, vec![1], "the injected rank is named");
            let text = report.to_string();
            assert!(text.contains("lost"), "report explains the loss: {text}");
        }
        other => panic!("expected RankLost, got {other:?}"),
    }
}

#[test]
fn survivor_sees_rank_lost_error_on_its_blocked_receive() {
    // The surviving rank's own `recv` must return the structured error
    // (failure propagation), not just the universe teardown.
    let seen = Arc::new(std::sync::Mutex::new(None));
    let seen2 = seen.clone();
    let res = Universe::try_run_with(
        faulty(vec![RankFault {
            rank: 1,
            after_ops: 0,
        }]),
        2,
        move |comm| {
            if comm.rank() == 0 {
                let e = comm.recv::<u8>(Some(1), Some(0)).unwrap_err();
                *seen2.lock().unwrap() = Some(e);
            } else {
                // First p2p op crashes immediately.
                let _ = comm.send(0, 0, &[1u8]);
            }
        },
    );
    assert!(matches!(res, Err(MpiError::RankLost(_))));
    let observed = seen.lock().unwrap().take();
    match observed {
        Some(MpiError::RankLost(report)) => assert_eq!(report.lost, vec![1]),
        other => panic!("survivor should see RankLost on its recv, got {other:?}"),
    }
}

#[test]
fn a_panicking_rank_ends_an_unchecked_universe_at_once() {
    // Ranks 1–3 wait on ANY_SOURCE, so each could still be woken by another
    // live rank and no receive ever has all of its sources ended. With no
    // checker either, only rank 0's own abort can end their waits. Run the
    // universe on a thread of its own so that a hang fails the test.
    let (done, outcome) = std::sync::mpsc::channel();
    let started = Instant::now();
    std::thread::spawn(move || {
        let unchecked = MpiConfig {
            verify: VerifyConfig::disabled(),
            ..MpiConfig::default()
        };
        let res = Universe::try_run_with(unchecked, 4, |comm| {
            if comm.rank() == 0 {
                panic!("rank 0 gave up");
            }
            match comm.recv::<u8>(None, None) {
                Err(MpiError::RankLost(report)) => assert_eq!(report.lost, vec![0]),
                other => panic!("expected RankLost, got {other:?}"),
            }
        });
        let _ = done.send(res);
    });
    let res = outcome
        .recv_timeout(Duration::from_secs(20))
        .expect("the universe hung on its dead rank");
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "took {took:?}");
    match res {
        Err(MpiError::RanksFailed(failure)) => {
            assert_eq!(failure.failed, vec![(0, "rank 0 gave up".to_string())]);
        }
        other => panic!("expected RanksFailed naming rank 0 alone, got {other:?}"),
    }
}

/// A 1 + 1 WordCount, unchecked, with its mapper (rank 1) crashed at each
/// of its point-to-point operations in turn — split requests, frames,
/// end-of-stream, stats and the finalize barrier — until a crash point
/// lies past its last one. Every crash is `RankLost` naming the mapper, at
/// once: nothing but the crash itself ends the survivors' waits.
#[test]
fn a_mapper_crash_at_each_of_its_ops_is_rank_lost_at_once() {
    let cfg = MpidConfig {
        spill_threshold_bytes: 1 << 10,
        frame_bytes: 256,
        ..MpidConfig::with_workers(1, 1)
    };
    let input = corpus(3);
    let mut crashes = 0;
    for after_ops in 0..200 {
        let unchecked = MpiConfig {
            verify: VerifyConfig::disabled(),
            fault_injection: vec![RankFault { rank: 1, after_ops }],
            ..MpiConfig::default()
        };
        let started = Instant::now();
        let res = Universe::try_run_with(unchecked, cfg.required_ranks(), |comm| {
            wordcount_rank(comm, &cfg, &input)
        });
        let took = started.elapsed();
        match res {
            Ok(ranks) => {
                assert!(ranks.iter().all(|r| r.is_ok()), "{ranks:?}");
                break;
            }
            Err(MpiError::RankLost(report)) => assert_eq!(report.lost, vec![1]),
            Err(other) => panic!("crash at op {after_ops}: expected RankLost, got {other}"),
        }
        assert!(
            took < Duration::from_secs(1),
            "crash at op {after_ops} took {took:?}"
        );
        crashes += 1;
    }
    // Two splits' requests, frames across several spills, end-of-stream,
    // stats and the barrier.
    assert!(crashes > 8, "the mapper made only {crashes} p2p operations");
}

/// WordCount whose `map` gives up at its first record.
struct MapGivesUp;

impl MapReduceApp for MapGivesUp {
    type InKey = u64;
    type InVal = String;
    type MidKey = String;
    type MidVal = u64;
    type OutKey = String;
    type OutVal = u64;

    fn map(&self, _offset: u64, _line: String, _emit: &mut dyn FnMut(String, u64)) {
        panic!("the map gave up");
    }

    fn reduce(&self, word: String, counts: Vec<u64>, emit: &mut dyn FnMut(String, u64)) {
        emit(word, counts.iter().sum());
    }
}

/// A panic in `map` fails `run_mpid` at once, with the checker on or off:
/// the mapper rank's panic aborts the universe, so the master and the
/// reducer fail with `RankLost` naming it instead of waiting on it.
#[test]
fn a_map_panic_fails_run_mpid_at_once_checked_or_not() {
    for verify in [true, false] {
        let cfg = MpidEngineConfig {
            verify,
            ..MpidEngineConfig::with_workers(1, 1)
        };
        let started = Instant::now();
        let job = std::panic::catch_unwind(|| {
            run_mpid(&cfg, Arc::new(MapGivesUp), Arc::new(corpus(2)));
        });
        let took = started.elapsed();
        let panic = job.expect_err("the job must fail");
        let report = panic
            .downcast_ref::<String>()
            .expect("run_mpid reports failed ranks as a string");
        assert!(report.contains("rank 1: the map gave up"), "{report}");
        assert!(report.contains("rank(s) [1] lost"), "{report}");
        assert!(
            took < Duration::from_secs(1),
            "verify {verify}: took {took:?}"
        );
    }
}

/// A small WordCount corpus: `n_splits` documents of overlapping words.
fn corpus(n_splits: usize) -> TextInput {
    TextInput::new(
        (0..n_splits)
            .map(|s| {
                (0..40)
                    .map(|i| format!("word{} common tail{}", (s * 7 + i * 3) % 11, i % 5))
                    .collect::<Vec<_>>()
                    .join("\n")
            })
            .collect(),
    )
}

/// One rank of a WordCount over MPI-D: master, mapper or reducer by rank.
/// Errors come back, as they would to a program that checks them.
fn wordcount_rank(comm: &Comm, cfg: &MpidConfig, input: &TextInput) -> mpid::MpidResult<()> {
    let world = MpidWorld::init(comm, cfg.clone())?;
    match world.role() {
        Role::Master => {
            let splits: Vec<u64> = (0..input.n_splits() as u64).collect();
            world.run_master(splits)?;
            world.collect_stats()?;
        }
        Role::Mapper(_) => {
            let mut sender = world.sender::<String, u64>();
            while let Some(split) = world.next_split::<u64>()? {
                for (k, v) in input.records(split as usize) {
                    let mut sent = Ok(());
                    workloads::WordCount.map(k, v, &mut |mk, mv| {
                        if sent.is_ok() {
                            sent = sender.send(mk, mv);
                        }
                    });
                    sent?;
                }
            }
            let stats = sender.finish()?;
            world.report_stats(&stats)?;
        }
        Role::Reducer(_) => {
            let mut recv = world.receiver::<String, u64>();
            while let Some(_group) = recv.recv()? {}
        }
    }
    world.finalize()
}

#[test]
fn mapper_crash_during_mpid_shuffle_is_rank_lost() {
    // A full MPI-D pipeline (master + 2 mappers + 1 reducer) with mapper
    // rank 1 dying mid-shuffle: the master is blocked on split requests,
    // the reducer on frames. Everyone must come down with RankLost.
    let cfg = MpidConfig::with_workers(2, 1);
    let n_ranks = cfg.required_ranks();
    let input = corpus(6);
    let started = Instant::now();
    let res = Universe::try_run_with(
        faulty(vec![RankFault {
            rank: 1,
            after_ops: 4,
        }]),
        n_ranks,
        |comm| wordcount_rank(comm, &cfg, &input),
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "shuffle rank loss must be detected in bounded time"
    );
    match res {
        Err(MpiError::RankLost(report)) => {
            assert_eq!(report.lost, vec![1], "the crashed mapper is named");
        }
        other => panic!("expected RankLost from the shuffle, got {other:?}"),
    }
}

#[test]
fn checkpoint_restart_completes_wordcount_with_correct_output() {
    // The same crash that kills a plain MPI-D job is absorbed by the
    // barrier-checkpoint engine: the interrupted superstep replays and the
    // final output matches the crash-free run exactly — with the reducers
    // holding every frame, and through the bounded external merge.
    let input = Arc::new(corpus(8));
    let app = Arc::new(workloads::WordCount);

    let mut expected = run_local(&*app, &*input);
    expected.sort();

    for reduce_budget_bytes in [None, Some(256)] {
        let engine = MpidEngineConfig {
            reduce_budget_bytes,
            ..MpidEngineConfig::with_workers(2, 2)
        };
        let crash = vec![RankFault {
            rank: 1,
            after_ops: 5,
        }];
        let (out, stats) = run_mpid_checkpointed(&engine, 2, crash, app.clone(), input.clone());
        let mut got = out;
        got.sort();
        assert_eq!(got, expected, "recovered output must be correct");
        assert!(
            stats.restarts >= 1,
            "the injected crash must have forced at least one replay: {stats:?}"
        );
        assert_eq!(
            stats.supersteps, 4,
            "8 splits at interval 2 = 4 committed supersteps"
        );

        // And the crash-free checkpointed run agrees with plain MPI-D.
        let (out2, stats2) =
            run_mpid_checkpointed(&engine, 3, Vec::new(), app.clone(), input.clone());
        let mut got2 = out2;
        got2.sort();
        assert_eq!(got2, expected);
        assert_eq!(stats2.restarts, 0);

        let mut plain = run_mpid(&engine, app.clone(), input.clone()).output;
        plain.sort();
        assert_eq!(plain, expected);
    }
}
