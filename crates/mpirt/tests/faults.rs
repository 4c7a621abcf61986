//! Fault-injection integration tests: a planned rank crash surfaces as a
//! structured [`MpiError::RankLost`] on every survivor (no deadlock, no
//! hang), both in raw point-to-point code and mid-shuffle in a real MPI-D
//! job — and the barrier-checkpoint/restart engine turns that loss back
//! into a completed job with correct output.

use mapred::{
    run_local, run_mpid, run_mpid_checkpointed, InputFormat, MapReduceApp, MpidEngineConfig,
    TextInput,
};
use mpi_rt::{MpiConfig, MpiError, MpiResult, RankFault, Universe, VerifyConfig};
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

#[test]
fn mapper_crash_during_mpid_shuffle_is_rank_lost() {
    // A full MPI-D pipeline (master + 2 mappers + 1 reducer) with mapper
    // rank 1 dying mid-shuffle: the master is blocked on split requests,
    // the reducer on frames. Everyone must come down with RankLost.
    use mpid::{MpidWorld, Role};
    let cfg = mpid::MpidConfig::with_workers(2, 1);
    let n_ranks = cfg.required_ranks();
    let input = Arc::new(corpus(6));
    let app = Arc::new(workloads::WordCount);
    let started = Instant::now();
    let res = Universe::try_run_with(
        faulty(vec![RankFault {
            rank: 1,
            after_ops: 4,
        }]),
        n_ranks,
        move |comm| {
            let world = MpidWorld::init(comm, cfg.clone()).expect("valid config");
            match world.role() {
                Role::Master => {
                    let splits: Vec<u64> = (0..input.n_splits() as u64).collect();
                    world.run_master(splits).expect("master failed");
                    let _ = world.collect_stats().expect("stats gather failed");
                }
                Role::Mapper(_) => {
                    let mut sender = world.sender::<String, u64>();
                    while let Some(split) = world.next_split::<u64>().expect("split fetch") {
                        for (k, v) in input.records(split as usize) {
                            app.map(k, v, &mut |mk, mv| {
                                sender.send(mk, mv).expect("MPI_D_Send failed");
                            });
                        }
                    }
                    let stats = sender.finish().expect("finish failed");
                    world.report_stats(&stats).expect("stats report failed");
                }
                Role::Reducer(_) => {
                    let mut recv = world
                        .receiver::<String, u64>()
                        .with_timeout(Duration::from_secs(60));
                    while let Some(_group) = recv.recv().expect("MPI_D_Recv failed") {}
                }
            }
            world.finalize().expect("finalize failed");
        },
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
