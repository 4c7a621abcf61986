//! mpiverify integration tests: deadlock cycles abort with per-rank
//! reports instead of hanging, teardown leaks become findings, and the
//! checker is observation-only (checked and unchecked runs produce
//! identical results).

use mpi_rt::{Finding, MpiConfig, MpiError, MpiResult, Universe, VerifyConfig, VerifyReport};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Checked config with a fast watchdog so deadlock tests finish quickly.
fn checked(eager_threshold: usize) -> MpiConfig {
    MpiConfig {
        eager_threshold,
        verify: VerifyConfig {
            enabled: true,
            watchdog_interval: Duration::from_millis(10),
        },
        ..MpiConfig::default()
    }
}

fn expect_deadlock(res: &MpiResult<()>) -> &mpi_rt::DeadlockReport {
    match res {
        Err(MpiError::Deadlock(report)) => report,
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

#[test]
fn send_send_deadlock_aborts_with_report() {
    // Classic head-to-head MPI_Send: both payloads are above the eager
    // threshold, so both ranks park in the rendezvous and neither can
    // reach its receive. Must abort in bounded time, naming both ranks,
    // their pending ops, and peer/tag.
    let started = Instant::now();
    let results = Universe::run_with(checked(64), 2, |comm| -> MpiResult<()> {
        let peer = 1 - comm.rank();
        let payload = vec![0u8; 4096];
        comm.send(peer, 7, &payload)?;
        let (_, _) = comm.recv::<u8>(Some(peer), Some(7))?;
        Ok(())
    });
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "deadlock detection must be bounded"
    );
    for (rank, res) in results.iter().enumerate() {
        let report = expect_deadlock(res);
        assert_eq!(report.stuck, vec![0, 1], "both ranks are stuck");
        let text = report.to_string();
        assert!(text.contains("rank 0:"), "report names rank 0: {text}");
        assert!(text.contains("rank 1:"), "report names rank 1: {text}");
        assert!(
            text.contains("rendezvous-send"),
            "report shows the pending op: {text}"
        );
        assert!(text.contains("tag=7"), "report shows the tag: {text}");
        assert!(
            text.contains(&format!("dst={}", 1 - rank)),
            "report shows the peer: {text}"
        );
    }
}

#[test]
fn recv_recv_deadlock_aborts() {
    let results = Universe::run_with(checked(1 << 16), 2, |comm| -> MpiResult<()> {
        let peer = 1 - comm.rank();
        let (_, _) = comm.recv::<u8>(Some(peer), Some(3))?;
        Ok(())
    });
    for res in &results {
        let report = expect_deadlock(res);
        assert_eq!(report.stuck, vec![0, 1]);
        let text = report.to_string();
        assert!(text.contains("recv(src="), "pending recv in report: {text}");
        assert!(text.contains("tag=3"), "tag in report: {text}");
    }
}

#[test]
fn three_rank_circular_wait_detected() {
    // rank i waits for a message from rank (i+1) % 3 that never comes.
    let results = Universe::run_with(checked(1 << 16), 3, |comm| -> MpiResult<()> {
        let src = (comm.rank() + 1) % 3;
        let (_, _) = comm.recv::<u8>(Some(src), Some(0))?;
        Ok(())
    });
    for res in &results {
        let report = expect_deadlock(res);
        assert_eq!(report.stuck, vec![0, 1, 2], "whole cycle reported");
    }
}

#[test]
fn recv_from_finished_rank_is_a_deadlock() {
    let results = Universe::run_with(checked(1 << 16), 2, |comm| -> MpiResult<()> {
        if comm.rank() == 0 {
            let (_, _) = comm.recv::<u8>(Some(1), Some(0))?;
        }
        Ok(())
    });
    let report = expect_deadlock(&results[0]);
    assert_eq!(report.stuck, vec![0]);
    assert!(
        report.to_string().contains("rank 1: finished"),
        "report explains the peer finished: {report}"
    );
    assert_eq!(results[1], Ok(()));
}

#[test]
fn finalize_leak_audit_reports_unreceived_eager_message() {
    let (results, report) = Universe::run_verified(checked(1 << 16), 2, |comm| -> MpiResult<()> {
        if comm.rank() == 0 {
            // An eager send completes at once; rank 1 never receives.
            comm.send(1, 9, &[1u32, 2, 3])?;
        }
        comm.barrier()
    })
    .expect("no rank failed");
    assert!(results.iter().all(|r| r.is_ok()));
    let leak = report
        .findings
        .iter()
        .find_map(|f| match f {
            Finding::LeakedEager {
                to,
                src,
                tag,
                bytes,
                ..
            } => Some((*to, *src, *tag, *bytes)),
            _ => None,
        })
        .expect("leaked eager message reported");
    assert_eq!(leak, (1, 0, 9, 12));
}

#[test]
fn dropped_irecv_reports_unmatched_posted_receive() {
    let (_, report) = Universe::run_verified(checked(1 << 16), 2, |comm| -> MpiResult<()> {
        if comm.rank() == 0 {
            // Posted, never matched, dropped without waiting.
            let req = comm.irecv::<u8>(Some(1), Some(5))?;
            drop(req);
        }
        comm.barrier()
    })
    .expect("no rank failed");
    assert!(
        report.findings.iter().any(|f| matches!(
            f,
            Finding::UnmatchedRecv {
                rank: 0,
                src: Some(1),
                tag: Some(5),
                ..
            }
        )),
        "unmatched posted receive reported: {report}"
    );
}

#[test]
fn type_signature_mismatch_is_observed_not_fatal() {
    let (results, report) =
        Universe::run_verified(checked(1 << 16), 2, |comm| -> MpiResult<usize> {
            if comm.rank() == 0 {
                comm.send(1, 0, &[1u32, 2])?;
                Ok(0)
            } else {
                // 8 bytes of u32 read as u16: decodes fine (observation
                // only), but the signature check flags it.
                let (data, _) = comm.recv::<u16>(Some(0), Some(0))?;
                Ok(data.len())
            }
        })
        .expect("no rank failed");
    assert_eq!(results[1], Ok(4), "payload still decodes");
    assert!(
        report.findings.iter().any(|f| matches!(
            f,
            Finding::TypeMismatch { rank: 1, src: 0, sent, expected: "u16", .. }
                if sent.type_name == "u32" && sent.count == 2
        )),
        "type mismatch finding recorded: {report}"
    );
}

#[test]
fn byte_receives_are_compatible_with_everything() {
    // MPI-D frames travel as raw bytes; u8 must stay signature-compatible.
    let (_, report) = Universe::run_verified(checked(1 << 16), 2, |comm| -> MpiResult<()> {
        if comm.rank() == 0 {
            comm.send(1, 0, &[1u64, 2])?;
        } else {
            let (_, _) = comm.recv::<u8>(Some(0), Some(0))?;
        }
        Ok(())
    })
    .expect("no rank failed");
    assert!(report.is_clean(), "no findings expected: {report}");
}

#[test]
fn panicking_rank_yields_structured_failure_not_hang() {
    // Rank 1 panics while rank 0 is blocked receiving from it. Pre-checker
    // this was a bare `panic!("rank(s) [1] panicked")` — and before the
    // mailbox-closing guard, a hang. Now: a structured RanksFailed with
    // the panic payload and the wait-for-graph snapshot at failure time.
    let err = Universe::try_run_with(checked(1 << 16), 2, |comm| -> MpiResult<()> {
        if comm.rank() == 1 {
            panic!("boom at rank 1");
        }
        let (_, _) = comm.recv::<u8>(Some(1), Some(0))?;
        Ok(())
    })
    .expect_err("a rank panicked");
    match err {
        MpiError::RanksFailed(failure) => {
            assert_eq!(failure.failed.len(), 1);
            assert_eq!(failure.failed[0].0, 1);
            assert!(failure.failed[0].1.contains("boom at rank 1"));
            assert!(
                !failure.snapshot.is_empty(),
                "checker captured a wait-for-graph snapshot"
            );
            let text = failure.to_string();
            assert!(
                text.contains("rank 1: panicked") || text.contains("rank 1:"),
                "{text}"
            );
        }
        other => panic!("expected RanksFailed, got {other:?}"),
    }
}

#[test]
fn clean_run_has_clean_report() {
    let (results, report) = Universe::run_verified(checked(256), 4, |comm| {
        let n = comm.size();
        let right = (comm.rank() + 1) % n;
        let left = (comm.rank() + n - 1) % n;
        // Mix of eager and rendezvous traffic plus a barrier.
        let big = vec![comm.rank() as u64; 1024];
        let req = comm.isend(right, 1, &big).unwrap();
        let (got, _) = comm.recv::<u64>(Some(left), Some(1)).unwrap();
        req.wait();
        // Fan the values in to rank 0 and the sum back out.
        let sum = if comm.rank() == 0 {
            let mut sum = got[0];
            for _ in 1..n {
                sum += comm.recv::<u64>(None, Some(2)).unwrap().0[0];
            }
            for dst in 1..n {
                comm.send(dst, 3, &[sum]).unwrap();
            }
            sum
        } else {
            comm.send(0, 2, &[got[0]]).unwrap();
            comm.recv::<u64>(Some(0), Some(3)).unwrap().0[0]
        };
        comm.barrier().unwrap();
        sum
    })
    .expect("clean run");
    assert_eq!(results, vec![6; 4], "sum of ranks 0..4 on every rank");
    assert!(report.is_clean(), "unexpected findings: {report}");
}

proptest! {
    // Universes spawn threads; keep case counts moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The checker is observation-only: for an arbitrary correct workload
    /// (ring exchange + fan-in/fan-out sum + barrier over arbitrary
    /// payloads and universe sizes), checked and unchecked runs return
    /// identical results.
    #[test]
    fn checker_is_observation_only(
        n in 1usize..6,
        data in proptest::collection::vec(any::<u32>(), 1..64),
        eager in prop_oneof![Just(16usize), Just(4096usize)],
    ) {
        let workload = move |data: Vec<u32>| move |comm: &mpi_rt::Comm| {
            let n = comm.size();
            let local: Vec<u32> = data
                .iter()
                .map(|&x| x.wrapping_add(comm.rank() as u32))
                .collect();
            let mut ring = Vec::new();
            if n > 1 {
                let right = (comm.rank() + 1) % n;
                let left = (comm.rank() + n - 1) % n;
                let req = comm.isend(right, 2, &local).unwrap();
                let (got, _) = comm.recv::<u32>(Some(left), Some(2)).unwrap();
                req.wait();
                ring = got;
            }
            // Fan every rank's slice in to rank 0, which sums them
            // elementwise and sends the sum back out.
            let (summed, gathered) = if comm.rank() == 0 {
                let mut gathered = vec![local.clone()];
                for src in 1..n {
                    gathered.push(comm.recv::<u32>(Some(src), Some(3)).unwrap().0);
                }
                let summed: Vec<u32> = (0..local.len())
                    .map(|i| gathered.iter().fold(0u32, |acc, g| acc.wrapping_add(g[i])))
                    .collect();
                for dst in 1..n {
                    comm.send(dst, 4, &summed).unwrap();
                }
                (summed, Some(gathered))
            } else {
                comm.send(0, 3, &local).unwrap();
                (comm.recv::<u32>(Some(0), Some(4)).unwrap().0, None)
            };
            comm.barrier().unwrap();
            (ring, summed, gathered)
        };
        let checked_cfg = checked(eager);
        let unchecked_cfg = MpiConfig {
            eager_threshold: eager,
            verify: VerifyConfig::disabled(),
            ..MpiConfig::default()
        };
        let a = Universe::run_with(checked_cfg, n, workload(data.clone()));
        let b = Universe::run_with(unchecked_cfg, n, workload(data.clone()));
        prop_assert_eq!(a, b);
    }
}

// Silence the unused-import lint when proptest expands to nothing.
#[allow(unused)]
fn _report_type_check(r: VerifyReport) -> bool {
    r.is_clean()
}
