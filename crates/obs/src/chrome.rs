//! Chrome trace-event JSON export (Perfetto / `chrome://tracing` loadable).
//!
//! Determinism contract: the output is a pure function of the [`Trace`]
//! contents. Timestamps are printed from integer nanoseconds with fixed-point
//! formatting (`µs.3`), metadata comes from `BTreeMap`s, and event order is
//! whatever [`Trace::sort`] produced — no wall clock, no hash-map iteration,
//! no float rounding enters the byte stream.

use crate::{ArgValue, Event, Phase, Trace};
use std::fmt::Write as _;

/// Serialize a trace to Chrome trace-event JSON (object form, with
/// `traceEvents` plus process/thread-name metadata records).
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(64 + trace.events().len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for (pid, name) in trace.process_names() {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        );
    }
    for ((pid, tid), name) in trace.thread_names() {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        );
    }
    for ev in trace.events() {
        sep(&mut out, &mut first);
        write_event(&mut out, ev);
    }
    out.push_str("]}\n");
    out
}

/// Serialize and write to `path`.
pub fn write_chrome_trace(trace: &Trace, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_chrome_json(trace))
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

fn write_event(out: &mut String, ev: &Event) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":",
        escape(&ev.name),
        escape(ev.cat),
        ev.pid,
        ev.tid
    );
    write_us(out, ev.ts_ns);
    match &ev.ph {
        Phase::Complete { dur_ns } => {
            out.push_str(",\"ph\":\"X\",\"dur\":");
            write_us(out, *dur_ns);
        }
        Phase::Instant => out.push_str(",\"ph\":\"i\",\"s\":\"t\""),
        Phase::Counter { value } => {
            out.push_str(",\"ph\":\"C\",\"args\":{\"value\":");
            write_f64(out, *value);
            out.push_str("}}");
            return;
        }
    }
    if !ev.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in ev.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", escape(k));
            match v {
                ArgValue::U64(x) => {
                    let _ = write!(out, "{x}");
                }
                ArgValue::I64(x) => {
                    let _ = write!(out, "{x}");
                }
                ArgValue::F64(x) => write_f64(out, *x),
                ArgValue::Bool(x) => {
                    let _ = write!(out, "{x}");
                }
                ArgValue::Str(s) => {
                    let _ = write!(out, "\"{}\"", escape(s));
                }
            }
        }
        out.push('}');
    }
    out.push('}');
}

/// Nanoseconds as microseconds with exactly three decimals — pure integer
/// formatting, so identical on every platform.
fn write_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        // JSON has no NaN/Inf literals; stringify rather than emit garbage.
        let _ = write!(out, "\"{v}\"");
    }
}

/// Escape `s` for the inside of a JSON string literal.
pub(crate) fn escape(s: &str) -> String {
    let mut e = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => e.push_str("\\\""),
            '\\' => e.push_str("\\\\"),
            '\n' => e.push_str("\\n"),
            '\r' => e.push_str("\\r"),
            '\t' => e.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(e, "\\u{:04x}", c as u32);
            }
            c => e.push(c),
        }
    }
    e
}

/// Minimal JSON syntax check (objects, arrays, strings, numbers, literals).
/// Exists so tests can assert exports are well-formed without a JSON
/// dependency; not a general-purpose parser.
pub fn validate(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing bytes at offset {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, i);
                string(b, i)?;
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected ':' at {i}"));
                }
                *i += 1;
                skip_ws(b, i);
                value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, i);
                value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at {i}")),
                }
            }
        }
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, b"true"),
        Some(b'f') => literal(b, i, b"false"),
        Some(b'n') => literal(b, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        _ => Err(format!("unexpected byte at {i}")),
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected '\"' at {i}"));
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => *i += 2,
            _ => *i += 1,
        }
    }
    Err("unterminated string".into())
}

fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *i + lit.len() && &b[*i..*i + lit.len()] == lit {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at {i}"))
    }
}

fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    while let Some(&c) = b.get(*i) {
        if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
            *i += 1;
        } else {
            break;
        }
    }
    if *i == start {
        Err(format!("empty number at {start}"))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuffer;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.set_process_name(0, "master");
        t.set_thread_name(1, 7, "map-7");
        let mut b = TraceBuffer::new(1, 7);
        b.complete(
            "map",
            "hadoop.phase",
            1_500,
            1_002_500,
            vec![
                ("local", ArgValue::Bool(true)),
                ("bytes", ArgValue::U64(64)),
            ],
        );
        b.instant("done", "hadoop", 1_002_500);
        b.counter("maps_done", "hadoop", 1_002_500, 1.0);
        t.absorb(b);
        t.sort();
        t
    }

    #[test]
    fn export_is_valid_json_with_expected_fields() {
        let json = to_chrome_json(&sample_trace());
        validate(&json).expect("well-formed JSON");
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":1001.000"));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("map-7"));
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(
            to_chrome_json(&sample_trace()),
            to_chrome_json(&sample_trace())
        );
    }

    #[test]
    fn escaping_handles_quotes_and_control() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate("{\"a\":1}").is_ok());
        assert!(validate("{\"a\":}").is_err());
        assert!(validate("[1,2,]").is_err());
        assert!(validate("{} junk").is_err());
    }
}
