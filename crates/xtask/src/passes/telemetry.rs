//! Telemetry-registry pass: every span/counter/gauge name the workspace
//! emits must be a constant in `crates/obs/src/names.rs`, and every name
//! the committed profile baseline references must still exist there.
//!
//! Two directions of drift are caught:
//!
//! * **emitter → registry**: any string literal passed at top level to a
//!   telemetry call (`complete(`, `instant(`, `counter(`, `inc(`, …) in a
//!   non-test context must be a registered name. Renaming an emitter
//!   literal without updating the registry fails here with the call site's
//!   file:line.
//! * **registry → baseline**: every span/counter name referenced by
//!   `PROFILE_BASELINE.json` (segments, by_category keys, attribution,
//!   memory, utilization, counters) must be a registered name. Deleting a
//!   constant the baseline still depends on fails here with the baseline's
//!   file:line — `cargo xtask analyze` compiles only `xtask`, so this is a
//!   finding rather than a build error.
//!
//! The registry itself is read at the token level: every string literal in
//! the non-test portion of `names.rs` is a registered name (which is why
//! that module keeps unrelated literals out).

use crate::analyze::{Finding, Pass, SourceFile, Workspace};
use crate::json::{parse_json, Json};
use crate::lexer::TokKind;
use std::collections::BTreeSet;

/// Workspace-relative path of the registry module.
pub const REGISTRY_PATH: &str = "crates/obs/src/names.rs";

/// Method names whose parenthesized arguments carry telemetry names.
/// Covers the `TraceBuffer`/`Tracer` emit surface, the metrics registry,
/// the report readers, and `mpi-rt`'s tracing wrappers.
const NAME_SINKS: &[&str] = &[
    "span_begin",
    "complete",
    "complete_since",
    "instant",
    "instant_args",
    "counter",
    "inc",
    "observe",
    "set_gauge",
    "from_trace",
    "share_of",
    "trace_coll",
    "trace_p2p",
];

/// Crates scanned for emitter literals: everything except `xtask` itself
/// (whose only telemetry-looking strings are this analyzer's own tables).
fn scanned(file: &SourceFile) -> bool {
    !file.rel.starts_with("crates/xtask/") && file.rel != REGISTRY_PATH
}

/// The telemetry-registry pass; see the module docs.
pub struct TelemetryRegistry;

impl Pass for TelemetryRegistry {
    fn name(&self) -> &'static str {
        "telemetry"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let Some(registry_file) = ws.file(REGISTRY_PATH) else {
            out.push(Finding {
                pass: self.name(),
                file: REGISTRY_PATH.to_string(),
                line: 1,
                token: REGISTRY_PATH.to_string(),
                why: "telemetry-name registry module is missing".to_string(),
                snippet: String::new(),
            });
            return;
        };
        let registry = registry_names(registry_file);

        for file in ws.files.iter().filter(|f| scanned(f)) {
            for (value, line) in call_site_literals(file) {
                if file.is_test_line(line) {
                    continue;
                }
                if !registry.contains(&value) {
                    out.push(Finding {
                        pass: self.name(),
                        file: file.rel.clone(),
                        line,
                        token: value,
                        why: format!(
                            "telemetry name is not defined in {REGISTRY_PATH}; \
                             add a constant there (and emit it by constant)"
                        ),
                        snippet: file.snippet(line),
                    });
                }
            }
        }

        check_profile_baseline(ws, &registry, self.name(), out);
    }
}

/// Every string literal in the non-test portion of the registry module.
pub fn registry_names(file: &SourceFile) -> BTreeSet<String> {
    file.tokens
        .iter()
        .filter(|t| t.kind == TokKind::Str && !file.is_test_line(t.line))
        .map(|t| unquote(&file.text[t.start..t.end]))
        .collect()
}

/// `(literal value, line)` for every top-level string literal inside the
/// parentheses of a [`NAME_SINKS`] call. "Top level" means bracket depth 1
/// relative to the call's own `(`, so keys inside `vec![("bytes", …)]` arg
/// lists are not treated as telemetry names.
pub fn call_site_literals(file: &SourceFile) -> Vec<(String, usize)> {
    let mut hits = Vec::new();
    let bytes = file.code.as_bytes();
    for sink in NAME_SINKS {
        let needle = format!("{sink}(");
        let mut from = 0usize;
        while let Some(rel) = file.code[from..].find(&needle) {
            let at = from + rel;
            from = at + 1;
            // Identifier boundary on the left: `.inc(` yes, `clinc(` no.
            if at > 0 {
                let prev = bytes[at - 1];
                if prev.is_ascii_alphanumeric() || prev == b'_' {
                    continue;
                }
            }
            let open = at + needle.len() - 1;
            collect_top_level_strings(file, open, &mut hits);
        }
    }
    hits.sort();
    hits.dedup();
    hits
}

/// Walk from the `(` at byte `open` to its matching `)`, recording string
/// literals that sit at depth 1. Works on the raw token stream (for
/// literal values) with depth tracked over the code view (where literal
/// and comment bytes are blank).
fn collect_top_level_strings(file: &SourceFile, open: usize, out: &mut Vec<(String, usize)>) {
    let code = file.code.as_bytes();
    let mut depth = 0i32;
    let mut i = open;
    // Token index of the first token past `open`, for literal lookups.
    let mut tok = file.tokens.partition_point(|t| t.end <= open);
    while i < code.len() {
        match code[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
            _ => {
                if depth == 1 {
                    // Is byte `i` the start of a Str token?
                    while tok < file.tokens.len() && file.tokens[tok].end <= i {
                        tok += 1;
                    }
                    if tok < file.tokens.len() {
                        let t = &file.tokens[tok];
                        if t.kind == TokKind::Str && t.start == i {
                            out.push((unquote(&file.text[t.start..t.end]), t.line));
                            i = t.end;
                            continue;
                        }
                    }
                }
            }
        }
        i += 1;
    }
}

/// Strip the quoting from a string-literal slice: `"x"`, `r"x"`, `r#"x"#`,
/// `b"x"`, plus the common backslash escapes for plain strings.
pub fn unquote(lit: &str) -> String {
    let mut s = lit;
    let raw = {
        let trimmed = s.trim_start_matches('b');
        trimmed.starts_with('r')
    };
    s = s.trim_start_matches('b').trim_start_matches('r');
    let hashes = s.len() - s.trim_start_matches('#').len();
    s = &s[hashes..];
    s = s.strip_prefix('"').unwrap_or(s);
    s = &s[..s.len().saturating_sub(hashes)];
    s = s.strip_suffix('"').unwrap_or(s);
    if raw || !s.contains('\\') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('0') => out.push('\0'),
            Some(other) => out.push(other), // \\ \" \' and the rest
            None => {}
        }
    }
    out
}

/// Report `name` (seen in `ctx` of a baseline file) if unregistered.
fn check_baseline_name(
    registry: &BTreeSet<String>,
    pass: &'static str,
    baseline: &str,
    text: &str,
    name: &str,
    ctx: &str,
    out: &mut Vec<Finding>,
) {
    if registry.contains(name) {
        return;
    }
    let needle = format!("\"{name}\"");
    let line = text
        .lines()
        .position(|l| l.contains(&needle))
        .map(|i| i + 1)
        .unwrap_or(1);
    out.push(Finding {
        pass,
        file: baseline.to_string(),
        line,
        token: name.to_string(),
        why: format!(
            "{ctx} references `{name}`, which is not defined in {REGISTRY_PATH}; \
             restore the constant or regenerate the baseline"
        ),
        snippet: text.lines().nth(line - 1).unwrap_or("").trim().to_string(),
    });
}

/// Cross-check `PROFILE_BASELINE.json` against the registry.
fn check_profile_baseline(
    ws: &Workspace,
    registry: &BTreeSet<String>,
    pass: &'static str,
    out: &mut Vec<Finding>,
) {
    let baseline = "PROFILE_BASELINE.json";
    let path = ws.root.join(baseline);
    let Ok(text) = std::fs::read_to_string(&path) else {
        return; // no committed profile baseline — nothing to check
    };
    let Ok(json) = parse_json(&text) else {
        out.push(Finding {
            pass,
            file: baseline.to_string(),
            line: 1,
            token: baseline.to_string(),
            why: "committed profile baseline is not valid JSON".to_string(),
            snippet: String::new(),
        });
        return;
    };
    let Some(obj) = json.as_object() else { return };
    let check = |name: &str, ctx: &str, out: &mut Vec<Finding>| {
        check_baseline_name(registry, pass, baseline, &text, name, ctx, out);
    };
    if let Some(segs) = obj
        .get("critical_path")
        .and_then(|c| c.as_object())
        .and_then(|c| c.get("segments"))
        .and_then(Json::as_array)
    {
        for seg in segs {
            let Some(s) = seg.as_object() else { continue };
            if let Some(name) = s.get("name").and_then(Json::as_str) {
                check(name, "critical-path segment", out);
            }
            if let Some(cat) = s.get("cat").and_then(Json::as_str) {
                check(cat, "critical-path segment category", out);
            }
        }
    }
    if let Some(rows) = obj.get("by_category").and_then(Json::as_array) {
        for row in rows {
            let Some(key) = row
                .as_object()
                .and_then(|r| r.get("key"))
                .and_then(Json::as_str)
            else {
                continue;
            };
            for part in key.splitn(2, '/') {
                check(part, "by_category key", out);
            }
        }
    }
    for (field, ctx) in [
        ("attribution", "attribution row"),
        ("memory", "memory counter summary"),
        ("utilization", "utilization counter summary"),
    ] {
        if let Some(rows) = obj.get(field).and_then(Json::as_array) {
            for row in rows {
                if let Some(name) = row
                    .as_object()
                    .and_then(|r| r.get("name"))
                    .and_then(Json::as_str)
                {
                    check(name, ctx, out);
                }
            }
        }
    }
    if let Some(counters) = obj.get("counters").and_then(Json::as_object) {
        for name in counters.keys() {
            check(name, "counters entry", out);
        }
    }
}
