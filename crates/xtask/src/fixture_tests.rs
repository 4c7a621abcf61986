//! Fixture-based golden tests for `cargo xtask analyze`: tempdir
//! mini-workspaces run through [`crate::analyze::run_passes`], plus
//! regression tests pinning the three bugs of the old line-grep lint
//! (block comments tripping it, string literals tripping it, and code
//! after `*/` on the same line being skipped).

use crate::analyze::{run_passes, to_json, Finding};
use std::path::{Path, PathBuf};

/// Fresh fixture root under the OS tempdir, namespaced per test.
fn fixture_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("xtask-analyze-fixture-{name}"));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    root
}

fn write(root: &Path, rel: &str, content: &str) {
    let path = root.join(rel);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, content).unwrap();
}

fn run(root: &Path, passes: &[&str]) -> Vec<Finding> {
    let selected: Vec<String> = passes.iter().map(|s| s.to_string()).collect();
    let (findings, _, _) = run_passes(root, Some(&selected));
    findings
}

/// A minimal registry for fixtures that exercise the telemetry pass.
const MINI_NAMES: &str = "pub const CAT_MPID_PHASE: &str = \"mpid.phase\";\n\
                          pub const SPAN_MAP: &str = \"map\";\n\
                          pub const M_MAPPERS: &str = \"mpid.mappers_done\";\n";

/// The original line-grep lint scanner, reproduced so the regression
/// fixtures can prove each of its bugs: skip lines *starting* with `//`,
/// strip everything after the first `//`, then substring-match.
fn legacy_scan(text: &str, token: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("//") {
            continue;
        }
        let code = line.split("//").next().unwrap_or(line);
        if code.contains(token) {
            hits.push(idx + 1);
        }
    }
    hits
}

// --- old grep bugs: legacy logic wrong, lexer-based pass right ------------

#[test]
fn old_bug_block_comment_no_longer_trips_determinism() {
    let src = "pub fn f() -> u32 {\n    /* a HashMap would be wrong here */\n    7\n}\n";
    // The legacy scanner flagged the comment (false positive)…
    assert_eq!(legacy_scan(src, "HashMap"), vec![2]);
    // …the token-level pass does not.
    let root = fixture_root("bug-block-comment");
    write(&root, "crates/netsim/src/lib.rs", src);
    assert!(run(&root, &["determinism"]).is_empty());
}

#[test]
fn old_bug_string_literal_no_longer_trips_determinism() {
    let src = "pub fn f() -> &'static str {\n    \"HashMap iteration order\"\n}\n";
    assert_eq!(legacy_scan(src, "HashMap"), vec![2]);
    let root = fixture_root("bug-string-literal");
    write(&root, "crates/netsim/src/lib.rs", src);
    assert!(run(&root, &["determinism"]).is_empty());
}

#[test]
fn old_bug_code_after_block_comment_is_no_longer_skipped() {
    // A `//` inside the block comment made the legacy scanner discard the
    // real code after `*/` (false negative).
    let src = "pub fn f() {\n    /* see https://example.com */ let m = \
               std::collections::HashMap::<u8, u8>::new();\n    drop(m);\n}\n";
    assert_eq!(legacy_scan(src, "HashMap"), Vec::<usize>::new());
    let root = fixture_root("bug-code-after-comment");
    write(&root, "crates/netsim/src/lib.rs", src);
    let findings = run(&root, &["determinism"]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].token, "HashMap");
    assert_eq!(findings[0].line, 2);
    assert_eq!(findings[0].file, "crates/netsim/src/lib.rs");
}

// --- determinism pass -----------------------------------------------------

#[test]
fn determinism_flags_real_uses_with_identifier_boundaries() {
    let root = fixture_root("determinism-golden");
    write(
        &root,
        "crates/mapred/src/lib.rs",
        "use std::collections::HashMap;\npub struct MyHashMapLike;\n\
         pub fn f() -> HashMap<u8, u8> {\n    HashMap::new()\n}\n",
    );
    let findings = run(&root, &["determinism"]);
    // Lines 1, 3, 4 — but never the `MyHashMapLike` identifier on line 2.
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![1, 3, 4], "{findings:?}");
    assert!(findings.iter().all(|f| f.token == "HashMap"));
}

#[test]
fn determinism_allowlist_suppresses_and_stale_entries_fail() {
    let root = fixture_root("allow-determinism");
    write(
        &root,
        "crates/desim/src/lib.rs",
        "pub fn now() -> u64 {\n    let _t = SystemTime::now();\n    0\n}\n",
    );
    // Unsuppressed: one finding.
    assert_eq!(run(&root, &["determinism"]).len(), 1);
    // Suppressed by a reviewed entry: clean.
    write(
        &root,
        "crates/xtask/analyze-allow.txt",
        "# reviewed\ndeterminism:desim/src/lib.rs: SystemTime\n",
    );
    assert!(run(&root, &["determinism"]).is_empty());
    // An entry matching nothing is itself a finding naming its own line.
    write(
        &root,
        "crates/xtask/analyze-allow.txt",
        "determinism:desim/src/lib.rs: SystemTime\ndeterminism:desim/src/lib.rs: thread_rng\n",
    );
    let findings = run(&root, &["determinism"]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].pass, "allowlist");
    assert_eq!(findings[0].file, "crates/xtask/analyze-allow.txt");
    assert_eq!(findings[0].line, 2);
    assert!(findings[0].why.contains("remove this entry"));
}

// --- telemetry pass -------------------------------------------------------

#[test]
fn telemetry_flags_unregistered_emitter_literals() {
    let root = fixture_root("telemetry-emitter");
    write(&root, "crates/obs/src/names.rs", MINI_NAMES);
    write(
        &root,
        "crates/hadoop/src/lib.rs",
        concat!(
            "pub fn emit(t: &Tracer) {\n",
            // Registered name + cat at top level are fine; the nested
            // arg-list key ("bytes") sits at depth 2+ and is not a name.
            "    t.complete(0, 0, \"map\", \"mpid.phase\", 0, 1, vec![(\"bytes\", 7u64)]);\n",
            // Unregistered name: finding.
            "    t.instant(0, 0, \"job_dne\", \"mpid.phase\", 2);\n",
            "}\n",
            // Test modules may use ad-hoc names freely.
            "#[cfg(test)]\nmod tests {\n",
            "    fn t(tr: &Tracer) {\n",
            "        tr.instant(0, 0, \"scratch_name\", \"scratch\", 0);\n",
            "    }\n",
            "}\n",
        ),
    );
    let findings = run(&root, &["telemetry"]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].token, "job_dne");
    assert_eq!(findings[0].file, "crates/hadoop/src/lib.rs");
    assert_eq!(findings[0].line, 3);
}

#[test]
fn telemetry_cross_checks_profile_baseline_against_registry() {
    let root = fixture_root("telemetry-baseline");
    // Registry without "ship" — as if the constant were deleted while the
    // committed baseline still references it.
    write(&root, "crates/obs/src/names.rs", MINI_NAMES);
    write(
        &root,
        "PROFILE_BASELINE.json",
        concat!(
            "{\n",
            "  \"schema\": \"mpid-profile/1\",\n",
            "  \"critical_path\": {\"segments\": [\n",
            "    {\"name\": \"map\", \"cat\": \"mpid.phase\"},\n",
            "    {\"name\": \"ship\", \"cat\": \"mpid.phase\"}\n",
            "  ]},\n",
            "  \"attribution\": [{\"name\": \"map\"}],\n",
            "  \"counters\": {\"mpid.mappers_done\": 49}\n",
            "}\n",
        ),
    );
    let findings = run(&root, &["telemetry"]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].token, "ship");
    assert_eq!(findings[0].file, "PROFILE_BASELINE.json");
    assert_eq!(findings[0].line, 5, "line of the `\"ship\"` segment");
}

// --- hotpath pass ---------------------------------------------------------

#[test]
fn hotpath_respects_manifest_and_skips_test_modules() {
    let root = fixture_root("hotpath-golden");
    write(
        &root,
        "crates/xtask/hotpath.txt",
        "# hot\ncore/src/hot.rs\n",
    );
    let body = concat!(
        "pub fn step(x: Option<u8>) -> u8 {\n",
        "    x.unwrap()\n",
        "}\n",
        "#[cfg(test)]\nmod tests {\n",
        "    #[test]\n",
        "    fn t() {\n",
        "        assert_eq!(super::step(Some(1)).clone(), 1);\n",
        "    }\n",
        "}\n",
    );
    write(&root, "crates/core/src/hot.rs", body);
    // The same hygiene sins in a file the manifest does not name: ignored.
    write(&root, "crates/core/src/cold.rs", body);
    let findings = run(&root, &["hotpath"]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].token, ".unwrap()");
    assert_eq!(findings[0].file, "crates/core/src/hot.rs");
    assert_eq!(findings[0].line, 2);
}

#[test]
fn hotpath_reports_manifest_entries_that_match_no_file() {
    let root = fixture_root("hotpath-missing");
    write(&root, "crates/xtask/hotpath.txt", "core/src/gone.rs\n");
    let findings = run(&root, &["hotpath"]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].file, "crates/xtask/hotpath.txt");
    assert!(findings[0].why.contains("does not exist"));
}

// --- blocking pass --------------------------------------------------------

#[test]
fn blocking_flags_untimed_waits_in_mpirt_and_core_only() {
    let root = fixture_root("blocking-golden");
    let body = concat!(
        "pub fn recv(slot: &Slot, deadline: Option<Deadline>) -> Msg {\n",
        "    match deadline {\n",
        "        Some(d) => slot.wait_timeout(d),\n",
        "        None => slot.wait(),\n",
        "    }\n",
        "}\n",
    );
    write(&root, "crates/mpirt/src/comm.rs", body);
    // A raw std condvar wait takes the guard by value; its timed twin is
    // fine.
    let condvar = concat!(
        "pub fn park(cv: &Condvar, m: &Mutex<bool>) {\n",
        "    let g = cv.wait_timeout(m.lock().unwrap(), POLL).unwrap().0;\n",
        "    let _g = cv.wait(g).unwrap();\n",
        "}\n",
    );
    write(&root, "crates/mpirt/src/matching.rs", condvar);
    // The core crate is scanned too: an untimed join there is a finding.
    write(
        &root,
        "crates/core/src/receiver.rs",
        "pub fn stop(h: Handle) {\n    h.join();\n}\n",
    );
    // The same tokens outside mpi-rt and core are not this pass's business.
    write(&root, "crates/mapred/src/lib.rs", body);
    write(&root, "crates/mapred/src/park.rs", condvar);
    let mut findings = run(&root, &["blocking"]);
    findings.sort_by(|a, b| a.file.cmp(&b.file));
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert_eq!(findings[0].token, ".join()");
    assert_eq!(findings[0].file, "crates/core/src/receiver.rs");
    assert_eq!(findings[0].line, 2);
    assert_eq!(findings[1].token, ".wait()");
    assert_eq!(findings[1].file, "crates/mpirt/src/comm.rs");
    assert_eq!(findings[1].line, 4);
    assert_eq!(findings[2].token, ".wait(<guard>)");
    assert_eq!(findings[2].file, "crates/mpirt/src/matching.rs");
    assert_eq!(findings[2].line, 3);
}

// --- output ---------------------------------------------------------------

#[test]
fn json_report_roundtrips_through_the_vendored_parser() {
    let root = fixture_root("json-output");
    write(&root, "crates/obs/src/names.rs", MINI_NAMES);
    write(
        &root,
        "crates/desim/src/lib.rs",
        "pub fn f() -> u64 {\n    thread_rng().next_u64()\n}\n",
    );
    let (findings, files, names) = run_passes(&root, None);
    let json = to_json(&findings, files, &names);
    let parsed = crate::json::parse_json(&json).expect("valid JSON");
    let obj = parsed.as_object().unwrap();
    assert_eq!(
        obj.get("schema").and_then(|s| s.as_str()),
        Some("mpid-analyze/1")
    );
    let reported = obj.get("findings").and_then(|f| f.as_array()).unwrap();
    assert_eq!(reported.len(), findings.len());
    assert!(!reported.is_empty());
    let first = reported[0].as_object().unwrap();
    assert_eq!(
        first.get("pass").and_then(|p| p.as_str()),
        Some("determinism")
    );
    assert_eq!(
        first.get("token").and_then(|t| t.as_str()),
        Some("thread_rng")
    );
    assert_eq!(first.get("line").and_then(|l| l.as_f64()), Some(2.0));
}

// --- the real workspace ---------------------------------------------------

#[test]
fn workspace_is_currently_clean() {
    // All four passes are wired into CI as a required job; this test keeps
    // plain `cargo test` failing at the same commit CI would.
    let root = crate::workspace_root();
    let (findings, files, _) = run_passes(&root, None);
    assert!(files > 50, "workspace scan looks truncated: {files} files");
    assert!(
        findings.is_empty(),
        "analyze findings: {:?}",
        findings
            .iter()
            .map(|f| format!("{}:{} [{}] `{}`", f.file, f.line, f.pass, f.token))
            .collect::<Vec<_>>()
    );
}
