//! The frame-buffer free list across jobs, in a process of its own: a
//! repeated one-mapper job takes every frame buffer from the list that the
//! first job left there, and jobs that run at once share the list. Outputs
//! do not change. Each test uses its own frame size, so neither draws on
//! the other's size class.

use mpid_suite::mapred::{run_local, run_mpid_traced, JobOutput, MpidEngineConfig};
use mpid_suite::obs::{names, Phase, SharedTrace};
use mpid_suite::workloads::{JavaSort, SortGen};
use std::collections::BTreeMap;
use std::sync::Arc;

fn input() -> SortGen {
    SortGen::new(0xF8EE, 3 << 20, 4)
}

/// A traced JavaSort job: its output, and the sum over its senders of
/// their last `(frame_pool_hits, frame_pool_misses)` samples.
fn javasort_job(cfg: &MpidEngineConfig) -> (JobOutput<u64, Vec<u8>>, (f64, f64)) {
    let sink = SharedTrace::new();
    let job = run_mpid_traced(cfg, Arc::new(JavaSort), Arc::new(input()), sink.clone());
    let trace = sink.take_trace();
    let last_per_rank = |name: &str| {
        let mut last = BTreeMap::new();
        for e in trace.events().iter().filter(|e| e.name == name) {
            if let Phase::Counter { value } = e.ph {
                last.insert(e.pid, value);
            }
        }
        assert!(!last.is_empty(), "no {name} sample");
        last.values().sum()
    };
    let takes = (
        last_per_rank(names::CTR_MEM_FRAME_POOL_HITS),
        last_per_rank(names::CTR_MEM_FRAME_POOL_MISSES),
    );
    (job, takes)
}

#[test]
fn a_repeated_job_takes_every_frame_buffer_from_the_list() {
    let cfg = MpidEngineConfig::with_workers(1, 1);
    let (first, (_, first_misses)) = javasort_job(&cfg);
    assert!(
        first.sender_stats.frames > 4,
        "{} frames",
        first.sender_stats.frames
    );
    assert!(first_misses > 0.0, "the first job of a process allocates");
    let (second, (hits, misses)) = javasort_job(&cfg);
    assert_eq!(misses, 0.0, "the second job allocated {misses} buffers");
    assert!(hits >= second.sender_stats.frames as f64, "{hits} hits");
    assert_eq!(second.output, first.output);
    assert_eq!(second.output, run_local(&JavaSort, &input()));
}

#[test]
fn two_universes_at_once_share_the_list() {
    let reference = run_local(&JavaSort, &input());
    // Frames of 96 KiB: a size class of this test's own. One job ships
    // LZ frames, whose buffers come from the same class.
    let plain = MpidEngineConfig {
        frame_bytes: 96 << 10,
        ..MpidEngineConfig::with_workers(2, 2)
    };
    let lz = MpidEngineConfig {
        compress: true,
        ..plain.clone()
    };
    let mut later_hits = 0.0;
    for round in 0..3 {
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| javasort_job(&plain));
            let b = s.spawn(|| javasort_job(&lz));
            (a.join().unwrap(), b.join().unwrap())
        });
        for (job, (hits, _)) in [a, b] {
            assert_eq!(job.output, reference, "round {round}");
            if round > 0 {
                later_hits += hits;
            }
        }
    }
    assert!(later_hits > 0.0, "no buffer came back for a later job");
}
