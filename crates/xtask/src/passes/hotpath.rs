//! Hot-path hygiene pass: modules declared hot in
//! `crates/xtask/hotpath.txt` must stay panic-free and allocation-lean.
//!
//! The batched record hot path (sender spill/ship, receiver decode/merge,
//! the external merge, partition realignment) was rebuilt around reused
//! buffers; this pass keeps the next refactor from quietly reintroducing
//! per-record allocation or panics:
//!
//! * `.unwrap()` / `.expect(` / `panic!` — a malformed frame or a full
//!   disk must surface as an error on the data path, not a crash;
//! * `.clone()` / `Vec::new` / `.to_vec(` — allocation and copying belong
//!   at setup/teardown, not per record/batch;
//! * `BytesMut::with_capacity` — frame buffers come from the one free list
//!   in `core/src/pool.rs`, the one frame allocation site, so that a
//!   process keeps the memory it already faulted in.
//!
//! Test modules are exempt. Reviewed exceptions (one-time clones at stage
//! boundaries, init-time `expect`s) go in `analyze-allow.txt` as
//! `hotpath:<path-suffix>:<token>` — and must each keep suppressing a real
//! finding, or the stale-allowlist check flags them.

use crate::analyze::{token_matches, Finding, Pass, Workspace};

/// Token → why it is suspect on a hot path.
pub const SUSPECT: &[(&str, &str)] = &[
    (
        ".unwrap()",
        "hot path must not panic; propagate the error (reviewed exceptions \
         go in the allowlist)",
    ),
    (
        ".expect(",
        "hot path must not panic; propagate the error (reviewed exceptions \
         go in the allowlist)",
    ),
    ("panic!", "hot path must not panic; return an error instead"),
    (
        ".clone()",
        "per-record copies defeat the batched hot path; borrow or reuse a \
         buffer",
    ),
    (
        "Vec::new",
        "fresh allocation on the hot path; take a pooled/reused buffer",
    ),
    (
        ".to_vec(",
        "copies the slice into a fresh allocation; borrow or reuse a buffer",
    ),
    (
        "BytesMut::with_capacity",
        "a fresh byte buffer on the hot path; take a frame buffer from the \
         free list in core/src/pool.rs (reviewed exceptions go in the \
         allowlist)",
    ),
];

/// The hot-path hygiene pass; see the module docs.
pub struct HotPathHygiene;

/// Load `crates/xtask/hotpath.txt`: one path suffix per line, `#` comments.
pub fn manifest(ws: &Workspace) -> Vec<String> {
    let path = ws.root.join("crates/xtask/hotpath.txt");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Vec::new();
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

impl Pass for HotPathHygiene {
    fn name(&self) -> &'static str {
        "hotpath"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let hot = manifest(ws);
        for suffix in &hot {
            let Some(file) = ws.files.iter().find(|f| f.rel.ends_with(suffix)) else {
                out.push(Finding {
                    pass: self.name(),
                    file: "crates/xtask/hotpath.txt".to_string(),
                    line: 1,
                    token: suffix.clone(),
                    why: "hot-path manifest names a file that does not exist; \
                          update the manifest"
                        .to_string(),
                    snippet: String::new(),
                });
                continue;
            };
            for (line_no, code) in file.code_lines() {
                if file.is_test_line(line_no) {
                    continue;
                }
                for &(token, why) in SUSPECT {
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
