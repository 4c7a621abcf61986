//! `cargo xtask analyze` — the static-analysis pass framework.
//!
//! A [`Workspace`] snapshot (every `crates/*/src/**/*.rs`, lexed once by
//! [`crate::lexer`]) is handed to each registered [`Pass`]; passes report
//! [`Finding`]s with a file:line, the offending token, and an explanation.
//! Findings are then filtered through the reviewed allowlist,
//! `crates/xtask/analyze-allow.txt` — `pass:<path-suffix>:<token>` per
//! line, `#` comments, every pass in the one file.
//!
//! Every allowlist entry must still suppress at least one finding: stale
//! entries are themselves reported as findings, so the escape hatch can't
//! rot into a blanket waiver.
//!
//! Output: a human-readable listing, an optional machine-readable
//! `--json <path>` report (schema `mpid-analyze/1`), and a markdown table
//! appended to `$GITHUB_STEP_SUMMARY` when that variable is set (CI).

use crate::lexer::{self, Token};
use crate::passes;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One report from a pass: where, what token, and why it matters.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Pass that produced the finding (`"determinism"`, `"telemetry"`, …).
    pub pass: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending token or name, used for allowlist matching.
    pub token: String,
    /// Why this is a problem and what to do instead.
    pub why: String,
    /// The raw source line, for context.
    pub snippet: String,
}

/// A static-analysis pass over the lexed workspace.
pub trait Pass {
    /// Stable pass name used in output, `--pass` filters, and allowlists.
    fn name(&self) -> &'static str;
    /// Scan `ws` and append findings.
    fn run(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// One lexed source file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Raw file contents.
    pub text: String,
    /// Lossless token stream of `text`.
    pub tokens: Vec<Token>,
    /// `text` with comments and literals blanked ([`lexer::code_view`]).
    pub code: String,
    /// Per-line `#[cfg(test)] mod` membership ([`lexer::test_module_mask`]).
    pub in_test: Vec<bool>,
}

impl SourceFile {
    fn new(rel: String, text: String) -> SourceFile {
        let tokens = lexer::lex(&text);
        let code = lexer::code_view(&text, &tokens);
        let in_test = lexer::test_module_mask(&code);
        SourceFile {
            rel,
            text,
            tokens,
            code,
            in_test,
        }
    }

    /// Is the 1-based `line` inside a `#[cfg(test)] mod` block?
    pub fn is_test_line(&self, line: usize) -> bool {
        self.in_test
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// The raw source line (1-based), trimmed, for finding snippets.
    pub fn snippet(&self, line: usize) -> String {
        self.text
            .lines()
            .nth(line.saturating_sub(1))
            .unwrap_or("")
            .trim()
            .to_string()
    }

    /// `(line_no, code_text)` pairs over the blanked code view, 1-based.
    pub fn code_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.code.lines().enumerate().map(|(i, l)| (i + 1, l))
    }
}

/// The lexed workspace: every `crates/*/src/**/*.rs`, sorted by path.
pub struct Workspace {
    /// Workspace root (directory holding the top-level `Cargo.toml`).
    pub root: PathBuf,
    /// All lexed sources.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Load and lex every crate source under `root/crates/`.
    pub fn load(root: &Path) -> Workspace {
        let mut files = Vec::new();
        let crates_dir = root.join("crates");
        let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
            .map(|rd| {
                rd.flatten()
                    .map(|e| e.path())
                    .filter(|p| p.join("src").is_dir())
                    .collect()
            })
            .unwrap_or_default();
        dirs.sort();
        for dir in dirs {
            for file in crate::rust_files(&dir.join("src")) {
                let Ok(text) = std::fs::read_to_string(&file) else {
                    eprintln!("warning: could not read {}", file.display());
                    continue;
                };
                let rel = file
                    .strip_prefix(root)
                    .unwrap_or(&file)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push(SourceFile::new(rel, text));
            }
        }
        Workspace {
            root: root.to_path_buf(),
            files,
        }
    }

    /// Files belonging to `crates/<krate>/src/`.
    pub fn crate_files<'a>(&'a self, krate: &'a str) -> impl Iterator<Item = &'a SourceFile> {
        let prefix = format!("crates/{krate}/src/");
        self.files
            .iter()
            .filter(move |f| f.rel.starts_with(&prefix))
    }

    /// Look up a file by exact workspace-relative path.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

/// Find matches of `token` in a code-view line with identifier-boundary
/// checks: a token that starts/ends with an identifier character must not
/// be embedded in a longer identifier (`MyHashMap` is not `HashMap`).
pub fn token_matches(code_line: &str, token: &str) -> bool {
    let line = code_line.as_bytes();
    let tok = token.as_bytes();
    if tok.is_empty() || line.len() < tok.len() {
        return false;
    }
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let first_is_ident = ident(tok[0]);
    let last_is_ident = ident(tok[tok.len() - 1]);
    let mut start = 0usize;
    while let Some(rel) = code_line[start..].find(token) {
        let at = start + rel;
        let pre_ok = !first_is_ident || at == 0 || !ident(line[at - 1]);
        let end = at + tok.len();
        let post_ok = !last_is_ident || end >= line.len() || !ident(line[end]);
        if pre_ok && post_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// A reviewed exception: `pass:<path-suffix>:<token>`.
#[derive(Debug)]
pub struct AllowEntry {
    /// Pass the exception applies to.
    pub pass: String,
    /// Path suffix matched against `Finding::file`.
    pub suffix: String,
    /// Exact token matched against `Finding::token`.
    pub token: String,
    /// 1-based line of the entry in the allowlist file, for stale-entry
    /// findings.
    pub origin_line: usize,
}

/// Workspace-relative path of the allowlist file.
const ALLOWLIST: &str = "crates/xtask/analyze-allow.txt";

/// All allowlist entries.
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Load `analyze-allow.txt`.
    pub fn load(root: &Path) -> Allowlist {
        let mut entries = Vec::new();
        let path = root.join(ALLOWLIST);
        for (line_no, line) in read_lines(&path) {
            let mut parts = line.splitn(3, ':');
            let (Some(pass), Some(suffix), Some(token)) =
                (parts.next(), parts.next(), parts.next())
            else {
                eprintln!(
                    "warning: malformed allowlist entry {}:{line_no}: `{line}`",
                    path.display()
                );
                continue;
            };
            entries.push(AllowEntry {
                pass: pass.trim().to_string(),
                suffix: suffix.trim().to_string(),
                token: token.trim().to_string(),
                origin_line: line_no,
            });
        }
        Allowlist { entries }
    }

    /// Drop findings covered by an entry; report entries that covered
    /// nothing as `allowlist` findings so the lists can't rot.
    pub fn apply(&self, findings: Vec<Finding>) -> Vec<Finding> {
        let mut used = vec![0usize; self.entries.len()];
        let mut kept = Vec::new();
        'f: for f in findings {
            for (i, e) in self.entries.iter().enumerate() {
                if e.pass == f.pass && f.token == e.token && f.file.ends_with(&e.suffix) {
                    used[i] += 1;
                    continue 'f;
                }
            }
            kept.push(f);
        }
        for (i, e) in self.entries.iter().enumerate() {
            if used[i] == 0 {
                kept.push(Finding {
                    pass: "allowlist",
                    file: ALLOWLIST.to_string(),
                    line: e.origin_line,
                    token: format!("{}:{}:{}", e.pass, e.suffix, e.token),
                    why: "stale allowlist entry: no current finding matches it; \
                          remove this entry"
                        .to_string(),
                    snippet: String::new(),
                });
            }
        }
        kept
    }
}

fn read_lines(path: &Path) -> Vec<(usize, String)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim().to_string()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// The full pass registry, in report order.
pub fn all_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(passes::determinism::Determinism),
        Box::new(passes::telemetry::TelemetryRegistry),
        Box::new(passes::hotpath::HotPathHygiene),
        Box::new(passes::blocking::BlockingCalls),
    ]
}

/// Run `selected` passes over the workspace at `root` and apply the
/// allowlists. Returns `(findings, files_scanned, pass_names)`.
pub fn run_passes(
    root: &Path,
    selected: Option<&[String]>,
) -> (Vec<Finding>, usize, Vec<&'static str>) {
    let ws = Workspace::load(root);
    let passes: Vec<Box<dyn Pass>> = all_passes()
        .into_iter()
        .filter(|p| selected.is_none_or(|names| names.iter().any(|n| n == p.name())))
        .collect();
    let names: Vec<&'static str> = passes.iter().map(|p| p.name()).collect();
    let mut findings = Vec::new();
    for pass in &passes {
        pass.run(&ws, &mut findings);
    }
    let allow = Allowlist::load(root);
    // A `--pass` subset only sees its own allowlist entries; entries for
    // passes that didn't run are not "stale", just out of scope.
    let scoped = Allowlist {
        entries: allow
            .entries
            .into_iter()
            .filter(|e| names.iter().any(|n| *n == e.pass))
            .collect(),
    };
    let mut findings = scoped.apply(findings);
    findings.sort_by(|a, b| {
        (a.pass, &a.file, a.line, &a.token).cmp(&(b.pass, &b.file, b.line, &b.token))
    });
    (findings, ws.files.len(), names)
}

/// CLI entry point for `cargo xtask analyze`.
pub fn cli(args: &[String]) -> ExitCode {
    let mut json_path: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => match it.next() {
                Some(p) => json_path = Some(p.clone()),
                None => {
                    eprintln!("--json requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--pass" => match it.next() {
                Some(p) => selected.push(p.clone()),
                None => {
                    eprintln!("--pass requires a pass name");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown analyze flag: {other}");
                eprintln!("usage: cargo xtask analyze [--json <path>] [--pass <name>]...");
                return ExitCode::FAILURE;
            }
        }
    }
    let known: Vec<&str> = all_passes().iter().map(|p| p.name()).collect();
    for s in &selected {
        if !known.iter().any(|k| k == s) {
            eprintln!("unknown pass `{s}`; known passes: {}", known.join(", "));
            return ExitCode::FAILURE;
        }
    }
    let root = crate::workspace_root();
    let sel = (!selected.is_empty()).then_some(selected.as_slice());
    let (findings, files, names) = run_passes(&root, sel);

    if let Some(path) = &json_path {
        let json = to_json(&findings, files, &names);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    step_summary(&findings, files, &names);

    if findings.is_empty() {
        println!(
            "analyze: {} file(s) clean across pass(es): {}",
            files,
            names.join(", ")
        );
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        eprintln!(
            "{}:{}: [{}] `{}` — {}\n    {}",
            f.file, f.line, f.pass, f.token, f.why, f.snippet
        );
    }
    eprintln!();
    eprintln!(
        "analyze: {} finding(s) across {} file(s); pass(es): {}",
        findings.len(),
        files,
        names.join(", ")
    );
    eprintln!(
        "fix the finding, or add a reviewed exception to \
         crates/xtask/analyze-allow.txt (`pass:<path-suffix>:<token>`)"
    );
    ExitCode::FAILURE
}

/// Serialize findings as `mpid-analyze/1` JSON.
pub fn to_json(findings: &[Finding], files: usize, passes: &[&'static str]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"mpid-analyze/1\",\n");
    s.push_str(&format!("  \"files_scanned\": {files},\n"));
    s.push_str("  \"passes\": [");
    for (i, p) in passes.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&json_str(p));
    }
    s.push_str("],\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {");
        s.push_str(&format!("\"pass\": {}, ", json_str(f.pass)));
        s.push_str(&format!("\"file\": {}, ", json_str(&f.file)));
        s.push_str(&format!("\"line\": {}, ", f.line));
        s.push_str(&format!("\"token\": {}, ", json_str(&f.token)));
        s.push_str(&format!("\"why\": {}, ", json_str(&f.why)));
        s.push_str(&format!("\"snippet\": {}", json_str(&f.snippet)));
        s.push('}');
    }
    if !findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Append a findings table to `$GITHUB_STEP_SUMMARY` when CI sets it.
fn step_summary(findings: &[Finding], files: usize, passes: &[&'static str]) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    let mut md = String::new();
    md.push_str("## cargo xtask analyze\n\n");
    if findings.is_empty() {
        md.push_str(&format!(
            "All clean: {} file(s) across pass(es) {}.\n",
            files,
            passes.join(", ")
        ));
    } else {
        // Per-pass counts first, then the detail table.
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for f in findings {
            *counts.entry(f.pass).or_default() += 1;
        }
        let summary: Vec<String> = counts.iter().map(|(p, n)| format!("{p}: {n}")).collect();
        md.push_str(&format!(
            "**{} finding(s)** ({})\n\n",
            findings.len(),
            summary.join(", ")
        ));
        md.push_str("| pass | location | token | why |\n|---|---|---|---|\n");
        for f in findings {
            md.push_str(&format!(
                "| {} | `{}:{}` | `{}` | {} |\n",
                f.pass,
                f.file,
                f.line,
                f.token.replace('|', "\\|"),
                f.why.replace('|', "\\|"),
            ));
        }
    }
    use std::io::Write as _;
    if let Ok(mut fh) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = fh.write_all(md.as_bytes());
    }
}
