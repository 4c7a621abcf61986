//! `cargo xtask` — workspace automation.
//!
//! * `analyze [--json <path>] [--pass <name>]…` — token-level static
//!   analysis (see [`analyze`] and [`passes`]): a lossless Rust lexer
//!   ([`lexer`]) feeds four passes — `determinism` (banned
//!   nondeterminism in the simulation crates), `telemetry` (every
//!   span/counter name must exist in `crates/obs/src/names.rs`, and the
//!   committed baselines must only reference registered names),
//!   `hotpath` (no panics/allocation in the manifest-declared hot
//!   modules), and `blocking` (no untimed waits in `mpi-rt`). Findings
//!   can be suppressed by reviewed allowlist entries; stale entries are
//!   themselves findings.
//! * `trace-diff` (see [`trace_diff`]) compares two `mpid-profile/1` run
//!   profiles and prints a ranked "what changed" table; CI runs it
//!   against the committed `PROFILE_BASELINE.json` to explain a failure of
//!   the byte-identity test that gates that file.

mod analyze;
mod json;
mod lexer;
mod passes;
mod trace_diff;

#[cfg(test)]
mod fixture_tests;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze::cli(&args[1..]),
        Some("trace-diff") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => trace_diff::trace_diff(a, b),
            _ => {
                eprintln!("usage: cargo xtask trace-diff <a.profile.json> <b.profile.json>");
                ExitCode::FAILURE
            }
        },
        Some(other) => {
            eprintln!("unknown xtask subcommand: {other}");
            usage();
            ExitCode::FAILURE
        }
        None => {
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!("usage: cargo xtask analyze [--json <path>] [--pass <name>]... | trace-diff <a> <b>");
}

/// All `.rs` files under `dir`, recursively, sorted.
pub(crate) fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// `cargo xtask` runs from the workspace root; `cargo run -p xtask` can run
/// from anywhere inside it — walk up to the directory holding the
/// workspace's `Cargo.toml`.
pub(crate) fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            panic!("could not locate workspace root (no Cargo.toml with crates/ found)");
        }
    }
}
