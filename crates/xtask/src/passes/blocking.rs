//! Blocking-call pass: in `mpi-rt` and the `mpid` core, flag untimed
//! blocking primitives that bypass the timeout-carrying APIs.
//!
//! The runtime exposes `recv_timeout` / `recv_bytes_timeout` /
//! `wait_timeout` / `wait_taken_timeout` / `probe_timeout` so callers (and
//! the deadlock verifier) can bound every wait. An untimed wait is a
//! potential infinite hang that the verifier cannot attribute: a process
//! stuck in `slot.wait()` looks identical to a scheduled-but-slow peer.
//! The same goes for the core's thread-sync primitives now that the MPI-D
//! hot path spawns its own workers: an untimed `JoinHandle::join` (or a
//! raw condvar wait) on a worker that never exits is the same unattributed
//! hang one layer up. New call sites should thread a deadline, or close
//! the worker's input channel *before* joining so the join is bounded by
//! drained work; the deliberate fast-path primitives and reviewed
//! close-then-join shutdowns are allowlist entries
//! (`blocking:<path-suffix>:<token>`).

use crate::analyze::{token_matches, Finding, Pass, Workspace};

/// Untimed blocking token → why it is suspect.
pub const UNTIMED: &[(&str, &str)] = &[
    (
        ".wait()",
        "untimed blocking wait; use the *_timeout variant so hangs become \
         attributable timeouts",
    ),
    (
        ".wait_taken()",
        "untimed rendezvous wait; use wait_taken_timeout so hangs become \
         attributable timeouts",
    ),
    (
        ".wait(&mut",
        "raw untimed condvar wait; loop on wait_for with a deadline",
    ),
    (
        ".join()",
        "untimed thread join; close the worker's input channel first (so \
         the join is bounded) or use a timed handshake",
    ),
];

/// Crates the pass scans: the MPI runtime and the MPI-D core (which spawns
/// merge workers).
const SCANNED: &[&str] = &["mpirt", "core"];

/// The blocking-call pass; see the module docs.
pub struct BlockingCalls;

impl Pass for BlockingCalls {
    fn name(&self) -> &'static str {
        "blocking"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in SCANNED.iter().flat_map(|&c| ws.crate_files(c)) {
            for (line_no, code) in file.code_lines() {
                if file.is_test_line(line_no) {
                    continue;
                }
                for &(token, why) in UNTIMED {
                    if token_matches(code, token) {
                        out.push(Finding {
                            pass: self.name(),
                            file: file.rel.clone(),
                            line: line_no,
                            token: token.to_string(),
                            why: why.to_string(),
                            snippet: file.snippet(line_no),
                        });
                    }
                }
            }
        }
    }
}
