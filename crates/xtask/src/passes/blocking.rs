//! Blocking-call pass: in `mpi-rt` and the `mpid` core, flag untimed
//! blocking primitives that bypass the timeout-carrying APIs.
//!
//! The runtime's handles expose only timed waits (`wait_timeout`,
//! `wait_taken_timeout`, `probe_timeout`), and its blocking operations poll
//! them in slices so callers (and the deadlock verifier) can bound and
//! attribute every wait. An untimed wait is a potential infinite hang that
//! the verifier cannot attribute: a rank stuck in a raw
//! `Condvar::wait(guard)` looks identical to a scheduled-but-slow peer. The
//! same goes for the request-level `.wait()` and for an untimed
//! `JoinHandle::join`: new call sites should thread a deadline, or close a
//! worker's input channel *before* joining so the join is bounded by
//! drained work. The reviewed request waits and teardown joins are
//! allowlist entries (`blocking:<path-suffix>:<token>`).

use crate::analyze::{token_matches, Finding, Pass, Workspace};

/// Token under which a raw `Condvar::wait(guard)` is reported: a `.wait(`
/// call with an argument (the argument-less `.wait()` is its own token).
const CONDVAR_WAIT: &str = ".wait(<guard>)";

/// Untimed blocking token → why it is suspect.
pub const UNTIMED: &[(&str, &str)] = &[
    (
        ".wait()",
        "untimed blocking wait; use the *_timeout variant so hangs become \
         attributable timeouts",
    ),
    (
        CONDVAR_WAIT,
        "raw untimed condvar wait; use wait_timeout_while with a deadline",
    ),
    (
        ".join()",
        "untimed thread join; close the worker's input channel first (so \
         the join is bounded) or use a timed handshake",
    ),
];

/// Crates the pass scans: the MPI runtime and the MPI-D core (whose sender
/// joins its table thread and waits on its channels).
const SCANNED: &[&str] = &["mpirt", "core"];

/// True when `code` calls `.wait(` with an argument.
fn condvar_wait(code: &str) -> bool {
    code.match_indices(".wait(")
        .any(|(at, tok)| !code[at + tok.len()..].trim_start().starts_with(')'))
}

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
                    let hit = match token {
                        CONDVAR_WAIT => condvar_wait(code),
                        _ => token_matches(code, token),
                    };
                    if hit {
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
