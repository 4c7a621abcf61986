//! A small lossless Rust lexer for static-analysis passes.
//!
//! `cargo xtask` vendors no parser — the same precedent as the hand-rolled
//! JSON reader in [`crate::json`] — so the analysis passes work on a
//! token stream produced here. The lexer does not understand Rust grammar;
//! it only separates **code** from the regions where arbitrary text is
//! legal: line comments, (nested) block comments, string literals
//! (including raw `r#"…"#` and byte `b"…"` forms), and char/byte-char
//! literals. That distinction is exactly what the old line-grep lint got
//! wrong (`/* HashMap */` tripped it, `"HashMap"` in a string tripped it,
//! and code after `*/` on the same line was skipped).
//!
//! The lexer is *lossless*: every byte of the input belongs to exactly one
//! token, so concatenating the token slices reproduces the input — a
//! property the proptest in this module's tests pins down.

/// What a [`Token`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Everything that is not a comment or a literal: identifiers,
    /// punctuation, whitespace, lifetimes.
    Code,
    /// `// …` to the end of the line (newline not included).
    LineComment,
    /// `/* … */`, nesting respected.
    BlockComment,
    /// `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` — delimiters included.
    Str,
    /// `'x'`, `'\n'`, `b'x'` — delimiters included. Lifetimes stay Code.
    Char,
}

/// One token: a byte range of the source (`start..end`) plus the 1-based
/// line its first byte sits on.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// Token classification.
    pub kind: TokKind,
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset past the last byte, exclusive.
    pub end: usize,
    /// 1-based source line of `start`.
    pub line: usize,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lex `src` into a lossless token stream.
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let n = b.len();
    let mut out: Vec<Token> = Vec::new();
    let mut line = 1usize;
    let mut code_start = 0usize;
    let mut code_line = 1usize;
    let mut i = 0usize;

    macro_rules! flush_code {
        ($upto:expr) => {
            if code_start < $upto {
                out.push(Token {
                    kind: TokKind::Code,
                    start: code_start,
                    end: $upto,
                    line: code_line,
                });
            }
        };
    }

    while i < n {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                flush_code!(i);
                let start = i;
                while i < n && b[i] != b'\n' {
                    i += 1;
                }
                out.push(Token {
                    kind: TokKind::LineComment,
                    start,
                    end: i,
                    line,
                });
                code_start = i;
                code_line = line;
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                flush_code!(i);
                let start = i;
                let start_line = line;
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.push(Token {
                    kind: TokKind::BlockComment,
                    start,
                    end: i,
                    line: start_line,
                });
                code_start = i;
                code_line = line;
            }
            b'"' => {
                flush_code!(i);
                let start = i;
                let start_line = line;
                i = scan_string(b, i + 1, &mut line);
                out.push(Token {
                    kind: TokKind::Str,
                    start,
                    end: i,
                    line: start_line,
                });
                code_start = i;
                code_line = line;
            }
            b'r' | b'b' if !(i > 0 && is_ident(b[i - 1])) => {
                // Possible raw/byte literal prefix: r"…", r#"…"#, b"…",
                // br#"…"#, b'…'. `r#ident` (raw identifiers) and plain
                // identifiers starting with r/b fall through to Code.
                if let Some((end, kind)) = scan_prefixed_literal(b, i, &mut line) {
                    flush_code!(i);
                    let start_line = {
                        // `line` was advanced past the literal; recount its
                        // starting line from the newlines inside it.
                        let inner_newlines = b[i..end].iter().filter(|&&x| x == b'\n').count();
                        line - inner_newlines
                    };
                    out.push(Token {
                        kind,
                        start: i,
                        end,
                        line: start_line,
                    });
                    i = end;
                    code_start = i;
                    code_line = line;
                } else {
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal or lifetime. After the quote: an escape or a
                // single character followed by a closing quote means a char
                // literal; an identifier start with no closing quote right
                // after means a lifetime (which stays Code).
                if let Some(end) = scan_char_literal(src, b, i) {
                    flush_code!(i);
                    out.push(Token {
                        kind: TokKind::Char,
                        start: i,
                        end,
                        line,
                    });
                    i = end;
                    code_start = i;
                    code_line = line;
                } else {
                    // Lifetime/label: consume the quote and the ident run.
                    i += 1;
                    while i < n && is_ident(b[i]) {
                        i += 1;
                    }
                }
            }
            _ => {
                i += 1;
            }
        }
    }
    flush_code!(n);
    out
}

/// Scan a plain (possibly byte) string body starting just past the opening
/// quote; returns the offset past the closing quote.
fn scan_string(b: &[u8], mut i: usize, line: &mut usize) -> usize {
    let n = b.len();
    while i < n {
        match b[i] {
            b'\\' => i = (i + 2).min(n),
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    n
}

/// At `r`/`b`: scan `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, or `b'…'`.
/// Returns `(end, kind)` or `None` when this is not a literal prefix.
fn scan_prefixed_literal(b: &[u8], start: usize, line: &mut usize) -> Option<(usize, TokKind)> {
    let n = b.len();
    let mut i = start;
    let mut raw = false;
    if b[i] == b'b' {
        i += 1;
        if i < n && b[i] == b'r' {
            raw = true;
            i += 1;
        }
    } else {
        // b[i] == b'r'
        raw = true;
        i += 1;
    }
    if raw {
        let mut hashes = 0usize;
        while i < n && b[i] == b'#' {
            hashes += 1;
            i += 1;
        }
        if i >= n || b[i] != b'"' {
            return None; // raw identifier (`r#type`) or plain ident
        }
        i += 1;
        // Find `"` followed by `hashes` hashes.
        while i < n {
            if b[i] == b'\n' {
                *line += 1;
                i += 1;
            } else if b[i] == b'"'
                && b[i + 1..]
                    .iter()
                    .take(hashes)
                    .filter(|&&x| x == b'#')
                    .count()
                    == hashes
            {
                return Some((i + 1 + hashes, TokKind::Str));
            } else {
                i += 1;
            }
        }
        Some((n, TokKind::Str))
    } else if i < n && b[i] == b'"' {
        let end = scan_string(b, i + 1, line);
        Some((end, TokKind::Str))
    } else if i < n && b[i] == b'\'' {
        // Byte char `b'x'` / `b'\n'`.
        let mut j = i + 1;
        if j < n && b[j] == b'\\' {
            j += 2;
        } else {
            j += 1;
        }
        while j < n && b[j] != b'\'' {
            j += 1;
        }
        Some(((j + 1).min(n), TokKind::Char))
    } else {
        None
    }
}

/// At a `'`: if this starts a char literal, return the offset past its
/// closing quote; `None` means lifetime/label.
fn scan_char_literal(src: &str, b: &[u8], i: usize) -> Option<usize> {
    let n = b.len();
    if i + 1 >= n {
        return None;
    }
    if b[i + 1] == b'\\' {
        // Escape: consume `\x`, then everything to the closing quote
        // (covers `'\n'`, `'\u{1F600}'`, `'\''`).
        let mut j = (i + 3).min(n);
        while j < n && b[j] != b'\'' {
            j += 1;
        }
        return Some((j + 1).min(n));
    }
    // One character (possibly multi-byte) then a closing quote?
    let c = src[i + 1..].chars().next()?;
    if c == '\'' {
        // `''` — not valid Rust; treat as an empty char literal so the
        // stream stays lossless.
        return Some(i + 2);
    }
    let after = i + 1 + c.len_utf8();
    if after < n && b[after] == b'\'' {
        return Some(after + 1);
    }
    None // lifetime such as `'a` / `'static` / loop label
}

/// Byte-for-byte copy of `src` with every non-[`TokKind::Code`] token
/// blanked to spaces (newlines preserved), so line/column positions hold
/// and substring searches only ever see code.
pub fn code_view(src: &str, tokens: &[Token]) -> String {
    let mut buf = src.as_bytes().to_vec();
    for t in tokens {
        if t.kind != TokKind::Code {
            for x in &mut buf[t.start..t.end] {
                if *x != b'\n' {
                    *x = b' ';
                }
            }
        }
    }
    // Blanking only writes ASCII spaces over whole tokens, and token
    // boundaries sit on char boundaries, so the buffer stays valid UTF-8.
    String::from_utf8(buf).expect("blanked source is valid UTF-8")
}

/// Per-line flags over the code view: `true` for lines inside a
/// `#[cfg(test)] mod … { … }` block (attribute line through closing
/// brace). Passes that police production hygiene or telemetry names use
/// this to leave test code alone.
pub fn test_module_mask(code: &str) -> Vec<bool> {
    let line_of = |off: usize| code[..off].matches('\n').count();
    let total_lines = code.lines().count().max(1);
    let mut mask = vec![false; total_lines];
    let bytes = code.as_bytes();
    let mut search = 0usize;
    while let Some(rel) = code[search..].find("#[cfg(test)]") {
        let attr_at = search + rel;
        search = attr_at + 1;
        // Skip whitespace and further attributes to the next item.
        let mut j = attr_at + "#[cfg(test)]".len();
        loop {
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'#' {
                while j < bytes.len() && bytes[j] != b']' {
                    j += 1;
                }
                j += 1;
            } else {
                break;
            }
        }
        if !code[j..].starts_with("mod ") && !code[j..].starts_with("mod\t") {
            continue; // `#[cfg(test)]` on a use/fn/impl — not a module block
        }
        let Some(open_rel) = code[j..].find('{') else {
            continue; // `mod tests;` — out-of-line test module
        };
        let open = j + open_rel;
        let mut depth = 0usize;
        let mut k = open;
        while k < bytes.len() {
            match bytes[k] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let first = line_of(attr_at);
        let last = line_of(k.min(bytes.len().saturating_sub(1)));
        for m in mask.iter_mut().take(last + 1).skip(first) {
            *m = true;
        }
        search = k.max(search);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .iter()
            .map(|t| (t.kind, src[t.start..t.end].to_string()))
            .collect()
    }

    fn roundtrip(src: &str) -> String {
        lex(src).iter().map(|t| &src[t.start..t.end]).collect()
    }

    #[test]
    fn line_and_block_comments_are_separated_from_code() {
        let src = "let a = 1; // trailing\n/* block */ let b = 2;\n";
        let ks = kinds(src);
        assert!(ks.contains(&(TokKind::LineComment, "// trailing".into())));
        assert!(ks.contains(&(TokKind::BlockComment, "/* block */".into())));
        let code: String = ks
            .iter()
            .filter(|(k, _)| *k == TokKind::Code)
            .map(|(_, s)| s.as_str())
            .collect();
        assert!(code.contains("let b = 2;"), "code after */ kept: {code}");
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* x /* y */ z */ b";
        let ks = kinds(src);
        assert_eq!(ks[1], (TokKind::BlockComment, "/* x /* y */ z */".into()));
        assert_eq!(ks[2], (TokKind::Code, " b".into()));
    }

    #[test]
    fn strings_with_escapes_and_raw_strings() {
        let src = r####"let s = "a\"b"; let r = r#"raw "quoted" text"#; let b = b"bytes";"####;
        let strs: Vec<String> = kinds(src)
            .into_iter()
            .filter(|(k, _)| *k == TokKind::Str)
            .map(|(_, s)| s)
            .collect();
        assert_eq!(
            strs,
            vec![
                "\"a\\\"b\"".to_string(),
                "r#\"raw \"quoted\" text\"#".to_string(),
                "b\"bytes\"".to_string(),
            ]
        );
        assert_eq!(roundtrip(src), src);
    }

    #[test]
    fn raw_identifiers_are_code_not_strings() {
        let src = "let r#type = 1; let r = 2;";
        assert!(kinds(src).iter().all(|(k, _)| *k == TokKind::Code));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src =
            "fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; let q = '\\''; let e = '€'; }";
        let chars: Vec<String> = kinds(src)
            .into_iter()
            .filter(|(k, _)| *k == TokKind::Char)
            .map(|(_, s)| s)
            .collect();
        assert_eq!(chars, vec!["'x'", "'\\n'", "'\\''", "'€'"]);
        assert_eq!(roundtrip(src), src);
    }

    #[test]
    fn code_view_blanks_literals_preserving_layout() {
        let src = "let a = \"HashMap\"; /* HashMap */ let b = 1;\n";
        let view = code_view(src, &lex(src));
        assert_eq!(view.len(), src.len());
        assert!(!view.contains("HashMap"));
        assert!(view.contains("let a ="));
        assert!(view.contains("let b = 1;"));
    }

    #[test]
    fn test_module_mask_covers_cfg_test_blocks() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn more() {}\n";
        let view = code_view(src, &lex(src));
        let mask = test_module_mask(&view);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_on_non_module_items_is_not_a_block() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn prod() {}\n";
        let view = code_view(src, &lex(src));
        assert!(test_module_mask(&view).iter().all(|&t| !t));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Lossless: concatenating the lexed slices reproduces the input.
        #[test]
        fn roundtrip_arbitrary_fragments(parts in proptest::collection::vec(
            prop_oneof![
                Just("let x = 1;".to_string()),
                Just("// line comment with HashMap\n".to_string()),
                Just("/* block /* nested */ HashMap */".to_string()),
                "[a-zA-Z0-9 ]{0,12}".prop_map(|s| format!("\"{s}\"")),
                Just("r#\"raw \"str\" HashMap\"#".to_string()),
                Just("'c'".to_string()),
                Just("'\\n'".to_string()),
                Just("&'static str;".to_string()),
                Just("b\"bytes\"".to_string()),
                Just("\n".to_string()),
                "[a-z_]{1,8}".prop_map(|s| format!("let {s} = foo({s});")),
            ],
            0..24,
        )) {
            let src: String = parts.concat();
            prop_assert_eq!(roundtrip(&src), src);
        }

        /// Banned-looking words inside comments and string literals never
        /// surface as Code tokens.
        #[test]
        fn literals_and_comments_never_leak_into_code(
            word in "[A-Za-z]{4,10}",
            shape in 0usize..4,
        ) {
            let src = match shape {
                0 => format!("let a = 1; // {word}\nlet b = 2;"),
                1 => format!("let a = 1; /* {word} */ let b = 2;"),
                2 => format!("let a = \"{word}\";"),
                _ => format!("let a = r#\"{word}\"#;"),
            };
            let view = code_view(&src, &lex(&src));
            prop_assert!(!view.contains(&word));
            // And the surrounding code is still intact.
            prop_assert!(view.contains("let a"));
        }
    }
}
