//! Minimal JSON reader — objects, arrays, strings with the common escapes,
//! numbers, booleans, null. Just enough for the files `xtask` reads
//! (`mpid-profile/1` run profiles in [`crate::trace_diff`] and the
//! telemetry pass, `mpid-analyze/1` reports in the fixture tests); keeping
//! it in-tree avoids a serde dependency. Malformed input of any kind is an
//! `Err` naming the byte offset, never a panic.

use std::collections::BTreeMap;

#[derive(Debug)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    pub(crate) fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }
    pub(crate) fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    #[allow(dead_code)] // no current reader asks for a bool
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

pub(crate) fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at offset {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or(format!("invalid number at offset {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at offset {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(c) => return Err(format!("unsupported escape \\{}", *c as char)),
                    None => return Err("unterminated escape".into()),
                }
                *pos += 1;
            }
            c => {
                // Multi-byte UTF-8 sequences pass through byte by byte.
                out.push(c as char);
                *pos += 1;
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(out));
    }
    loop {
        out.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(out));
            }
            _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut out = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(out));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {}", *pos));
        }
        *pos += 1;
        out.insert(key, parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(out));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let v = parse_json(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y"}, "d": null}"#).unwrap();
        let o = v.as_object().unwrap();
        let a = o["a"].as_array().unwrap();
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(o["b"].as_object().unwrap()["c"].as_str(), Some("x\"y"));
        assert!(matches!(o["d"], Json::Null));
        assert_eq!(parse_json(" true ").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "{\"a\"",
            "{\"a\":",
            "{\"a\": 1",
            "{\"a\": 1,",
            "{1: 2}",
            "[",
            "[1",
            "[1,",
            "\"abc",
            "\"abc\\",
            "\"a\\qb\"",
            "{} x",
            "[1] 2",
            "-",
            "tru",
            "nul",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }
}
