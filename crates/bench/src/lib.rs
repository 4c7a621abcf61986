//! # mpid-bench — experiment drivers for the ICPP 2011 reproduction
//!
//! One binary per paper table/figure (see `src/bin/`): each regenerates the
//! corresponding result on the simulated testbed and prints the paper's
//! reported values alongside for comparison. `perf` writes deterministic
//! run profiles and runs the bounded-memory check. Nothing here reads a
//! clock: wall time is measured by the `benchmark/` package. Figures 2–3
//! evaluate the `netsim::protocol` models fitted to the paper's anchors.

#![warn(missing_docs)]

/// Gigabyte constant.
pub const GB: u64 = 1 << 30;
/// Megabyte constant.
pub const MB: u64 = 1 << 20;

/// Paper-friendly size formatting (powers of two, as in Figures 2–3).
pub fn fmt_size(bytes: u64) -> String {
    if bytes >= GB {
        format!("{}GB", bytes / GB)
    } else if bytes >= MB {
        format!("{}MB", bytes / MB)
    } else if bytes >= 1024 {
        format!("{}KB", bytes / 1024)
    } else {
        format!("{}B", bytes)
    }
}

/// Format seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0} s")
    } else if s >= 1.0 {
        format!("{s:.1} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

/// Format a bandwidth in MB/s.
pub fn fmt_bw(bytes_per_sec: f64) -> String {
    let mb = bytes_per_sec / 1e6;
    if mb >= 1.0 {
        format!("{mb:.1} MB/s")
    } else {
        format!("{:.1} KB/s", bytes_per_sec / 1e3)
    }
}

/// Print a horizontal rule sized to a header line.
pub fn rule(header: &str) {
    println!("{}", "-".repeat(header.len()));
}

/// Value of a `--flag value` pair in `args`, if present.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Write a tracer's events as Chrome trace JSON (Perfetto/`chrome://tracing`
/// loadable) and print the per-phase breakdown reconstructed from the trace
/// alone, plus the metrics registry.
pub fn emit_trace(tracer: &obs::Tracer, path: &str, phase_cat: &str, title: &str) {
    let trace = tracer.take_trace();
    obs::chrome::write_chrome_trace(&trace, std::path::Path::new(path))
        .expect("write chrome trace");
    println!();
    println!(
        "trace: {} events -> {path} (load in Perfetto / chrome://tracing)",
        trace.events().len()
    );
    let breakdown = obs::report::PhaseBreakdown::from_trace(&trace, phase_cat);
    println!();
    print!("{}", breakdown.render(title));
    let metrics = tracer.metrics().render();
    if !metrics.is_empty() {
        println!();
        print!("{metrics}");
    }
    let profile = obs::analysis::RunProfile::build(&trace, Some(&tracer.metrics()), title);
    print_profile_summary(&profile);
}

/// Print the run-profile lines every figure summary shares: the map↔shuffle
/// overlap ratio and the top critical-path segments (see `obs::analysis`).
pub fn print_profile_summary(p: &obs::analysis::RunProfile) {
    println!();
    println!(
        "profile: map/shuffle overlap ratio {:.2} (map {}, shuffle {}, overlap {})",
        p.overlap.ratio,
        fmt_secs(p.overlap.map_ns as f64 / 1e9),
        fmt_secs(p.overlap.shuffle_ns as f64 / 1e9),
        fmt_secs(p.overlap.overlap_ns as f64 / 1e9),
    );
    println!(
        "critical path: {} ({:.0}% of wall), top segments:",
        fmt_secs(p.critical_path.total_ns as f64 / 1e9),
        p.critical_path.coverage * 100.0
    );
    for s in p.top_segments(3) {
        println!(
            "  {:<28} {:>10}  ({:.0}%)",
            s.key,
            fmt_secs(s.ns as f64 / 1e9),
            s.share * 100.0
        );
    }
}

/// Write a [`obs::analysis::RunProfile`] as deterministic JSON under `dir`
/// (created if missing) and return the file path.
pub fn write_profile(p: &obs::analysis::RunProfile, dir: &str) -> String {
    std::fs::create_dir_all(dir).expect("create profile dir");
    let path = format!("{dir}/{}.profile.json", p.label);
    std::fs::write(&path, p.to_json()).expect("write profile json");
    path
}

/// The message-size sweep used by Figures 2 and 3 (1 B → 64 MB, powers of
/// two... the paper plots powers of 4; we use powers of 2 for smoother
/// curves).
pub fn size_sweep() -> Vec<u64> {
    let mut v = Vec::new();
    let mut s = 1u64;
    while s <= 64 * MB {
        v.push(s);
        s *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(1), "1B");
        assert_eq!(fmt_size(2048), "2KB");
        assert_eq!(fmt_size(64 * MB), "64MB");
        assert_eq!(fmt_size(3 * GB), "3GB");
    }

    #[test]
    fn sweep_covers_figure_range() {
        let s = size_sweep();
        assert_eq!(*s.first().unwrap(), 1);
        assert_eq!(*s.last().unwrap(), 64 * MB);
        assert!(s.windows(2).all(|w| w[1] == w[0] * 2));
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_secs(0.0005), "500.0 us");
        assert_eq!(fmt_secs(0.5), "500.00 ms");
        assert_eq!(fmt_secs(12.34), "12.3 s");
        assert_eq!(fmt_secs(2001.0), "2001 s");
    }
}
