//! Determinism pass: the banned-token table from the original line-grep
//! lint, re-implemented on real tokens.
//!
//! The whole reproduction rests on simulations being replayable — same
//! seed, same virtual-time schedule, same report — so sources of real-world
//! nondeterminism are banned from simulation code:
//!
//! * wall-clock and date reads (`std::time::Instant`, `SystemTime`,
//!   `UNIX_EPOCH`, chrono-style `Utc::now`/`Local::now`) — sim code must
//!   use virtual time from the `desim` scheduler;
//! * ambient RNGs (`thread_rng`, `rand::random`) — randomness must come
//!   from an explicitly seeded generator;
//! * iteration-order-dependent hash collections (`HashMap`, `HashSet`,
//!   `RandomState`) — per-process hash seeding makes iteration order (and
//!   anything derived from it) vary run to run; `BTreeMap`/`BTreeSet`
//!   iterate in key order.
//!
//! Matching happens on the blanked code view, so comments and string
//! literals can name these APIs freely, and with identifier boundaries, so
//! `MyHashMapLike` does not trip on `HashMap`. Test modules are scanned
//! too: a nondeterministic test is still a flaky test.

use crate::analyze::{token_matches, Finding, Pass, Workspace};

/// Crates whose `src/` trees must stay deterministic. The runtime crates
/// (`mpi-rt`, `obs`, `mpid`) legitimately read wall clocks — they run and
/// trace real execution — so only the simulation substrate is linted, plus
/// `xtask` itself.
pub const LINTED_CRATES: &[&str] = &[
    "desim", "netsim", "hadoop", "mapred", "faults", "serve", "xtask",
];

/// Banned token → why it breaks replayability.
pub const BANNED: &[(&str, &str)] = &[
    (
        "std::time::Instant",
        "wall-clock read; use the desim scheduler's virtual time",
    ),
    (
        "Instant::now",
        "wall-clock read; use the desim scheduler's virtual time",
    ),
    (
        "SystemTime",
        "wall-clock read; use the desim scheduler's virtual time",
    ),
    (
        "UNIX_EPOCH",
        "wall-clock epoch read; derive timestamps from virtual time",
    ),
    (
        "Utc::now",
        "ambient date read; derive dates from the simulation clock",
    ),
    (
        "Local::now",
        "ambient date read; derive dates from the simulation clock",
    ),
    (
        "thread_rng",
        "ambient RNG; use an explicitly seeded generator",
    ),
    (
        "rand::random",
        "ambient RNG; use an explicitly seeded generator",
    ),
    (
        "HashMap",
        "iteration order varies per process; use BTreeMap",
    ),
    (
        "HashSet",
        "iteration order varies per process; use BTreeSet",
    ),
    (
        "RandomState",
        "per-process hash seeding; use an ordered collection",
    ),
];

/// The determinism pass; see the module docs.
pub struct Determinism;

impl Pass for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for krate in LINTED_CRATES {
            for file in ws.crate_files(krate) {
                for (line_no, code) in file.code_lines() {
                    for &(token, why) in BANNED {
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
}
