//! `cargo xtask trace-diff <a> <b>` — compare two `*.profile.json` run
//! profiles (schema `mpid-profile/1`, written by
//! `cargo run -p mpid-bench --bin perf -- --profile <dir>`) and print a
//! ranked "what changed" table for regression triage.
//!
//! Every scalar in a profile is flattened to a dotted key — `wall_ns`,
//! `overlap.ratio`, `critical_path.<cat>/<name>.ns`,
//! `attribution.<phase>.blocked_ns`, `memory.<counter>.max`,
//! `counters.<name>`, … — and the table ranks keys by *relative* change
//! (`|b − a| / max(|a|, |b|)`), so a shuffle stage that doubled outranks a
//! wall clock that drifted 3 %. Two profiles of the same seeded sim run
//! are byte-identical, so the self-diff is empty.
//!
//! The diff explains, it does not gate: the gate is
//! `tests/run_profile.rs::committed_profile_baseline_is_current`, which
//! compares the fresh `fig6_mpid_1gb` profile with `PROFILE_BASELINE.json`
//! byte for byte, and this table is how to read a failure of it. It exits
//! nonzero only when a profile cannot be read. When `$GITHUB_STEP_SUMMARY`
//! is set the table is also appended there as markdown.

use crate::json::{parse_json, Json};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Maximum rows printed; the rest are summarized in one trailing line.
const MAX_ROWS: usize = 40;

pub fn trace_diff(a_path: &str, b_path: &str) -> ExitCode {
    let a = match load_profile(a_path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("trace-diff: {a_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let b = match load_profile(b_path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("trace-diff: {b_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let rows = diff_rows(&a.values, &b.values);
    println!(
        "trace-diff: {a_path} ({}) -> {b_path} ({})",
        a.label, b.label
    );
    print_rows(&rows);

    if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
        if !summary.is_empty() {
            if let Err(e) = write_step_summary(&summary, a_path, b_path, &rows) {
                eprintln!("trace-diff: failed to write {summary}: {e}");
            }
        }
    }
    ExitCode::SUCCESS
}

/// One changed scalar, pre-ranked by relative magnitude.
struct Delta {
    key: String,
    a: Option<f64>,
    b: Option<f64>,
    /// `|b − a| / max(|a|, |b|)` in `[0, 1]`; 1.0 for one-sided keys.
    rel: f64,
}

#[derive(Debug)]
struct Profile {
    label: String,
    values: BTreeMap<String, f64>,
}

fn load_profile(path: &str) -> Result<Profile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let value = parse_json(&text)?;
    flatten(&value)
}

/// Flatten an `mpid-profile/1` document into dotted scalar keys.
fn flatten(v: &Json) -> Result<Profile, String> {
    let obj = v.as_object().ok_or("top level is not an object")?;
    let schema = obj
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing \"schema\"")?;
    if schema != "mpid-profile/1" {
        return Err(format!(
            "unsupported schema {schema:?} (want mpid-profile/1)"
        ));
    }
    let label = obj
        .get("label")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();
    let mut m = BTreeMap::new();
    if let Some(w) = obj.get("wall_ns").and_then(Json::as_f64) {
        m.insert("wall_ns".to_string(), w);
    }
    if let Some(ov) = obj.get("overlap").and_then(Json::as_object) {
        for k in ["map_ns", "shuffle_ns", "overlap_ns", "ratio"] {
            if let Some(x) = ov.get(k).and_then(Json::as_f64) {
                m.insert(format!("overlap.{k}"), x);
            }
        }
    }
    if let Some(cp) = obj.get("critical_path").and_then(Json::as_object) {
        for k in ["total_ns", "coverage"] {
            if let Some(x) = cp.get(k).and_then(Json::as_f64) {
                m.insert(format!("critical_path.{k}"), x);
            }
        }
        for c in cp
            .get("by_category")
            .and_then(Json::as_array)
            .unwrap_or(&[])
        {
            let (Some(c), ()) = (c.as_object(), ()) else {
                continue;
            };
            if let (Some(key), Some(ns)) = (
                c.get("key").and_then(Json::as_str),
                c.get("ns").and_then(Json::as_f64),
            ) {
                m.insert(format!("critical_path.{key}.ns"), ns);
            }
        }
    }
    for r in obj
        .get("attribution")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        let Some(r) = r.as_object() else { continue };
        let Some(name) = r.get("name").and_then(Json::as_str) else {
            continue;
        };
        for f in [
            "self_ns",
            "disk_ns",
            "network_ns",
            "blocked_ns",
            "compute_ns",
        ] {
            if let Some(x) = r.get(f).and_then(Json::as_f64) {
                m.insert(format!("attribution.{name}.{f}"), x);
            }
        }
    }
    for (field, stats) in [("memory", "max"), ("utilization", "max")] {
        for c in obj.get(field).and_then(Json::as_array).unwrap_or(&[]) {
            let Some(c) = c.as_object() else { continue };
            let Some(name) = c.get("name").and_then(Json::as_str) else {
                continue;
            };
            for f in [stats, "last_sum"] {
                if let Some(x) = c.get(f).and_then(Json::as_f64) {
                    m.insert(format!("{field}.{name}.{f}"), x);
                }
            }
        }
    }
    if let Some(ctrs) = obj.get("counters").and_then(Json::as_object) {
        for (k, v) in ctrs {
            if let Some(x) = v.as_f64() {
                m.insert(format!("counters.{k}"), x);
            }
        }
    }
    Ok(Profile { label, values: m })
}

/// Changed keys across both profiles, most-changed first (relative delta
/// descending, key ascending on ties). Identical keys produce no row, so
/// a self-diff is empty.
fn diff_rows(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> Vec<Delta> {
    let mut rows = Vec::new();
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for key in keys {
        let (av, bv) = (a.get(key).copied(), b.get(key).copied());
        match (av, bv) {
            (Some(x), Some(y)) => {
                if x != y {
                    let denom = x.abs().max(y.abs());
                    rows.push(Delta {
                        key: key.clone(),
                        a: av,
                        b: bv,
                        rel: if denom > 0.0 {
                            (y - x).abs() / denom
                        } else {
                            0.0
                        },
                    });
                }
            }
            _ => rows.push(Delta {
                key: key.clone(),
                a: av,
                b: bv,
                rel: 1.0,
            }),
        }
    }
    rows.sort_by(|p, q| {
        q.rel
            .partial_cmp(&p.rel)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| p.key.cmp(&q.key))
    });
    rows
}

fn print_rows(rows: &[Delta]) {
    if rows.is_empty() {
        println!("trace-diff: no differences — profiles are identical");
        return;
    }
    let header = format!("{:<44} {:>14} {:>14} {:>9}", "metric", "a", "b", "delta");
    println!("{header}");
    println!("{}", "-".repeat(header.len()));
    for d in rows.iter().take(MAX_ROWS) {
        println!(
            "{:<44} {:>14} {:>14} {:>9}",
            d.key,
            fmt_val(&d.key, d.a),
            fmt_val(&d.key, d.b),
            fmt_delta(d)
        );
    }
    if rows.len() > MAX_ROWS {
        println!("... and {} smaller changes", rows.len() - MAX_ROWS);
    }
    println!();
    println!("trace-diff: {} metric(s) changed", rows.len());
}

/// Format a value by its key's unit: `*_ns` as seconds, ratios raw,
/// everything else as a plain number.
fn fmt_val(key: &str, v: Option<f64>) -> String {
    let Some(v) = v else { return "-".to_string() };
    if key.ends_with("_ns") || key.ends_with(".ns") {
        format!("{:.3} s", v / 1e9)
    } else if key.ends_with("ratio") || key.ends_with("coverage") || key.contains("utilization.") {
        format!("{v:.3}")
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

fn fmt_delta(d: &Delta) -> String {
    match (d.a, d.b) {
        (Some(x), Some(y)) if x != 0.0 => format!("{:+.1}%", 100.0 * (y - x) / x),
        (Some(_), Some(_)) => "new".to_string(),
        (None, Some(_)) => "added".to_string(),
        (Some(_), None) => "removed".to_string(),
        (None, None) => "-".to_string(),
    }
}

/// Append the ranked table to the GitHub Actions step summary as markdown.
fn write_step_summary(
    path: &str,
    a_path: &str,
    b_path: &str,
    rows: &[Delta],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "### Profile delta: `{a_path}` → `{b_path}`\n")?;
    if rows.is_empty() {
        writeln!(f, "No differences — profiles are identical.")?;
        return Ok(());
    }
    writeln!(f, "| metric | a | b | delta |")?;
    writeln!(f, "|---|---:|---:|---:|")?;
    for d in rows.iter().take(MAX_ROWS) {
        writeln!(
            f,
            "| `{}` | {} | {} | {} |",
            d.key,
            fmt_val(&d.key, d.a),
            fmt_val(&d.key, d.b),
            fmt_delta(d)
        )?;
    }
    writeln!(f)?;
    if rows.len() > MAX_ROWS {
        writeln!(f, "… and {} smaller changes.", rows.len() - MAX_ROWS)?;
    }
    writeln!(f, "**{} metric(s) changed.**", rows.len())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "mpid-profile/1",
  "label": "fig6_mpid_1gb",
  "wall_ns": 7300000000,
  "overlap": {"map_ns": 3644815443, "shuffle_ns": 2900000000, "overlap_ns": 2700000000, "ratio": 0.931034},
  "critical_path": {
    "total_ns": 7000000000,
    "coverage": 0.958904,
    "segments": [
      {"name": "map", "cat": "mpid.phase", "pid": 1, "tid": 0, "start_ns": 0, "dur_ns": 3644813080}
    ],
    "by_category": [
      {"key": "mpid.phase/map", "ns": 3644813080, "share": 0.520688}
    ]
  },
  "attribution": [
    {"name": "map", "count": 49, "span_ns": 178595836428, "self_ns": 178595836428, "disk_ns": 2025, "network_ns": 39102, "blocked_ns": 0, "compute_ns": 178595795301}
  ],
  "memory": [
    {"name": "mpid.mem.spills", "samples": 4, "max": 3.0, "mean": 2.0, "last_sum": 12.0}
  ],
  "utilization": [
    {"name": "net.util.up", "samples": 48, "max": 0.75, "mean": 0.25, "last_sum": 0.0}
  ],
  "counters": {
    "mpid.mappers_done": 49
  }
}
"#;

    fn profile_from(text: &str) -> Profile {
        flatten(&parse_json(text).unwrap()).unwrap()
    }

    #[test]
    fn flatten_extracts_dotted_scalars() {
        let p = profile_from(SAMPLE);
        assert_eq!(p.label, "fig6_mpid_1gb");
        assert_eq!(p.values["wall_ns"], 7.3e9);
        assert_eq!(p.values["overlap.ratio"], 0.931034);
        assert_eq!(p.values["critical_path.mpid.phase/map.ns"], 3644813080.0);
        assert_eq!(p.values["attribution.map.network_ns"], 39102.0);
        assert_eq!(p.values["memory.mpid.mem.spills.max"], 3.0);
        assert_eq!(p.values["counters.mpid.mappers_done"], 49.0);
    }

    #[test]
    fn self_diff_is_empty() {
        let p = profile_from(SAMPLE);
        let rows = diff_rows(&p.values, &p.values);
        assert!(rows.is_empty(), "identical profiles must diff to nothing");
    }

    #[test]
    fn ranked_by_relative_change() {
        let a = profile_from(SAMPLE);
        let mut b = profile_from(SAMPLE);
        // wall drifts 3%, blocked time quadruples: blocked must rank first.
        *b.values.get_mut("wall_ns").unwrap() *= 1.03;
        b.values.insert("attribution.map.blocked_ns".into(), 4000.0);
        let rows = diff_rows(&a.values, &b.values);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].key, "attribution.map.blocked_ns");
        assert_eq!(rows[1].key, "wall_ns");
        assert!(rows[0].rel > rows[1].rel);
    }

    #[test]
    fn one_sided_keys_rank_as_full_change() {
        let a = profile_from(SAMPLE);
        let mut b = profile_from(SAMPLE);
        b.values.remove("counters.mpid.mappers_done");
        let rows = diff_rows(&a.values, &b.values);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].rel, 1.0);
        assert_eq!(fmt_delta(&rows[0]), "removed");
    }

    #[test]
    fn wrong_schema_rejected() {
        let err = flatten(&parse_json(r#"{"schema": "other/9"}"#).unwrap()).unwrap_err();
        assert!(err.contains("unsupported schema"));
    }

    #[test]
    fn step_summary_table_is_markdown() {
        let a = profile_from(SAMPLE);
        let mut b = profile_from(SAMPLE);
        *b.values.get_mut("overlap.ratio").unwrap() = 0.5;
        let rows = diff_rows(&a.values, &b.values);
        let dir = std::env::temp_dir().join("trace-diff-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("summary.md");
        let _ = std::fs::remove_file(&p);
        write_step_summary(p.to_str().unwrap(), "a.json", "b.json", &rows).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(text.contains("| metric | a | b | delta |"));
        assert!(text.contains("`overlap.ratio`"));
        assert!(text.contains("**1 metric(s) changed.**"));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn value_formatting_follows_units() {
        assert_eq!(fmt_val("wall_ns", Some(7.3e9)), "7.300 s");
        assert_eq!(fmt_val("overlap.ratio", Some(0.93)), "0.930");
        assert_eq!(fmt_val("counters.x", Some(49.0)), "49");
        assert_eq!(fmt_val("counters.x", None), "-");
    }
}
