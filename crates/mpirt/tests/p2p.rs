//! Point-to-point semantics tests: matching, ordering, wildcards, both wire
//! protocols, non-blocking requests, timeouts and failure visibility.

use mpi_rt::{MpiConfig, MpiError, Universe, VerifyConfig};
use std::time::{Duration, Instant};

#[test]
fn ping_pong_various_sizes() {
    for size in [0usize, 1, 16, 1024, 100_000] {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let data = vec![7u8; size];
                comm.send(1, 3, &data).unwrap();
                let (back, st) = comm.recv::<u8>(Some(1), Some(4)).unwrap();
                assert_eq!(back, data);
                assert_eq!(st.bytes, size);
            } else {
                let (data, st) = comm.recv::<u8>(Some(0), Some(3)).unwrap();
                assert_eq!(st.source, 0);
                assert_eq!(st.tag, 3);
                comm.send(0, 4, &data).unwrap();
            }
        });
    }
}

#[test]
fn typed_payloads_survive_transit() {
    Universe::run(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 0, &[1i64, -5, i64::MAX]).unwrap();
            comm.send(1, 1, &[0.5f64, -2.25]).unwrap();
            comm.send(1, 2, &[u32::MAX]).unwrap();
        } else {
            let (a, _) = comm.recv::<i64>(Some(0), Some(0)).unwrap();
            assert_eq!(a, vec![1, -5, i64::MAX]);
            let (b, _) = comm.recv::<f64>(Some(0), Some(1)).unwrap();
            assert_eq!(b, vec![0.5, -2.25]);
            let (c, _) = comm.recv::<u32>(Some(0), Some(2)).unwrap();
            assert_eq!(c, vec![u32::MAX]);
        }
    });
}

#[test]
fn non_overtaking_same_source_same_tag() {
    Universe::run(2, |comm| {
        if comm.rank() == 0 {
            for i in 0..100u32 {
                comm.send(1, 5, &[i]).unwrap();
            }
        } else {
            for i in 0..100u32 {
                let (v, _) = comm.recv::<u32>(Some(0), Some(5)).unwrap();
                assert_eq!(v, vec![i], "messages overtook each other");
            }
        }
    });
}

#[test]
fn tag_selective_receive_reorders_across_tags() {
    Universe::run(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 1, &[10u8]).unwrap();
            comm.send(1, 2, &[20u8]).unwrap();
        } else {
            // Receive tag 2 first even though tag 1 was sent first.
            let (b, _) = comm.recv::<u8>(Some(0), Some(2)).unwrap();
            assert_eq!(b, vec![20]);
            let (a, _) = comm.recv::<u8>(Some(0), Some(1)).unwrap();
            assert_eq!(a, vec![10]);
        }
    });
}

#[test]
fn any_source_wildcard_collects_from_all() {
    let n = 8;
    Universe::run(n, |comm| {
        if comm.rank() == 0 {
            let mut seen = vec![false; n];
            for _ in 1..n {
                let (v, st) = comm.recv::<u64>(None, Some(9)).unwrap();
                assert_eq!(v, vec![st.source as u64]);
                assert!(!seen[st.source], "duplicate source");
                seen[st.source] = true;
            }
            assert!(seen[1..].iter().all(|&s| s));
        } else {
            comm.send(0, 9, &[comm.rank() as u64]).unwrap();
        }
    });
}

#[test]
fn rendezvous_protocol_for_large_messages() {
    // Eager threshold of 64 bytes forces the rendezvous path.
    let cfg = MpiConfig {
        eager_threshold: 64,
        ..MpiConfig::default()
    };
    Universe::run_with(cfg, 2, |comm| {
        if comm.rank() == 0 {
            let big = vec![0xabu8; 1 << 20];
            comm.send(1, 0, &big).unwrap();
        } else {
            // Delay so the sender actually parks in the rendezvous.
            std::thread::sleep(Duration::from_millis(30));
            let (data, _) = comm.recv::<u8>(Some(0), Some(0)).unwrap();
            assert_eq!(data.len(), 1 << 20);
            assert!(data.iter().all(|&b| b == 0xab));
        }
    });
}

#[test]
fn isend_completes_and_test_observes() {
    let cfg = MpiConfig {
        eager_threshold: 16,
        ..MpiConfig::default()
    };
    Universe::run_with(cfg, 2, |comm| {
        if comm.rank() == 0 {
            // Eager isend: complete immediately.
            let small = comm.isend(1, 0, &[1u8; 8]).unwrap();
            assert!(small.test());
            small.wait();
            // Rendezvous isend: not complete until the receiver matches.
            let big = comm.isend(1, 1, &vec![2u8; 1024]).unwrap();
            comm.send(1, 2, &[9u8]).unwrap(); // tell receiver to proceed
            big.wait();
        } else {
            let (a, _) = comm.recv::<u8>(Some(0), Some(0)).unwrap();
            assert_eq!(a.len(), 8);
            let (_, _) = comm.recv::<u8>(Some(0), Some(2)).unwrap();
            let (b, _) = comm.recv::<u8>(Some(0), Some(1)).unwrap();
            assert_eq!(b.len(), 1024);
        }
    });
}

#[test]
fn irecv_posted_before_send() {
    Universe::run(2, |comm| {
        if comm.rank() == 0 {
            let req = comm.irecv::<u16>(Some(1), Some(4)).unwrap();
            assert!(!req.test());
            comm.send(1, 3, &[1u8]).unwrap(); // unblock the peer
            let (data, st) = req.wait().unwrap();
            assert_eq!(data, vec![42u16, 43]);
            assert_eq!(st.source, 1);
        } else {
            let (_, _) = comm.recv::<u8>(Some(0), Some(3)).unwrap();
            comm.send(0, 4, &[42u16, 43]).unwrap();
        }
    });
}

#[test]
fn recv_timeout_expires_cleanly() {
    Universe::run(2, |comm| {
        if comm.rank() == 0 {
            let err = comm
                .recv_timeout::<u8>(Some(1), Some(0), Duration::from_millis(40))
                .unwrap_err();
            assert!(matches!(err, MpiError::Timeout(_)));
            // Tell rank 1 it can exit now.
            comm.send(1, 1, &[0u8]).unwrap();
        } else {
            let (_, _) = comm.recv::<u8>(Some(0), Some(1)).unwrap();
        }
    });
}

#[test]
fn send_to_dead_rank_errors_not_hangs() {
    Universe::run(2, |comm| {
        if comm.rank() == 0 {
            // Rank 1 exits immediately; give it time to close its mailbox.
            std::thread::sleep(Duration::from_millis(50));
            let err = comm.send(1, 0, &[1u8]).unwrap_err();
            assert!(matches!(err, MpiError::PeerGone { rank: 1 }));
        }
        // rank 1 returns immediately
    });
}

#[test]
fn rank_and_tag_validation() {
    Universe::run(1, |comm| {
        assert!(matches!(
            comm.send(5, 0, &[1u8]),
            Err(MpiError::RankOutOfRange { rank: 5, size: 1 })
        ));
        assert!(matches!(
            comm.send(0, -3, &[1u8]),
            Err(MpiError::TagOutOfRange(-3))
        ));
        assert!(matches!(
            comm.send(0, i32::MAX, &[1u8]),
            Err(MpiError::TagOutOfRange(_))
        ));
    });
}

#[test]
fn type_mismatch_detected_on_receive() {
    Universe::run(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 0, &[1u8, 2, 3]).unwrap(); // 3 bytes
        } else {
            let err = comm.recv::<u32>(Some(0), Some(0)).unwrap_err();
            assert!(matches!(
                err,
                MpiError::TypeMismatch {
                    payload: 3,
                    elem: 4
                }
            ));
        }
    });
}

#[test]
fn traffic_counters_advance() {
    let results = Universe::run(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 0, &[1u8; 100]).unwrap();
        } else {
            let (_, _) = comm.recv::<u8>(Some(0), Some(0)).unwrap();
        }
        (comm.universe_msgs_sent(), comm.universe_bytes_sent())
    });
    // At least the one payload message was counted.
    assert!(results.iter().any(|&(m, b)| m >= 1 && b >= 100));
}

#[test]
fn many_to_one_stress() {
    let n = 9;
    let per_sender = 200;
    Universe::run(n, |comm| {
        if comm.rank() == 0 {
            let mut counts = vec![0u32; n];
            let mut sum = 0u64;
            for _ in 0..(n - 1) * per_sender {
                let (v, st) = comm.recv::<u64>(None, None).unwrap();
                counts[st.source] += 1;
                sum += v[0];
            }
            assert!(counts[1..].iter().all(|&c| c == per_sender as u32));
            // Each sender r sends 0..per_sender scaled by r.
            let expected: u64 = (1..n as u64)
                .map(|r| r * (0..per_sender as u64).sum::<u64>())
                .sum();
            assert_eq!(sum, expected);
        } else {
            for i in 0..per_sender as u64 {
                comm.send(0, 0, &[comm.rank() as u64 * i]).unwrap();
            }
        }
    });
}

#[test]
fn blocking_waits_longer_than_a_poll_slice_in_both_verification_modes() {
    // Blocking waits poll in 25 ms slices whether or not the universe is
    // checked. Each wait here outlasts several slices: the peer holds back
    // for 60 ms after it can see the waiter is blocked.
    const HOLD: Duration = Duration::from_millis(60);
    for verify in [VerifyConfig::default(), VerifyConfig::disabled()] {
        let cfg = MpiConfig {
            eager_threshold: 64,
            verify,
            ..MpiConfig::default()
        };
        Universe::run_with(cfg, 2, |comm| {
            let big = vec![0x5au8; 4096];
            if comm.rank() == 0 {
                // Blocking receive: the reply comes HOLD after the go signal.
                let started = Instant::now();
                comm.send(1, 0, &[1u8]).unwrap();
                let (reply, _) = comm.recv::<u8>(Some(1), Some(1)).unwrap();
                assert_eq!(reply, vec![2]);
                assert!(started.elapsed() >= HOLD);
                // Rendezvous send: claimed HOLD after its envelope arrives.
                let started = Instant::now();
                comm.send(1, 2, &big).unwrap();
                assert!(started.elapsed() >= HOLD);
            } else {
                comm.recv::<u8>(Some(0), Some(0)).unwrap();
                std::thread::sleep(HOLD);
                comm.send(0, 1, &[2u8]).unwrap();
                while comm.pending_messages(Some(2)) == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                std::thread::sleep(HOLD);
                let (data, _) = comm.recv::<u8>(Some(0), Some(2)).unwrap();
                assert_eq!(data, big);
            }
        });
    }
}
