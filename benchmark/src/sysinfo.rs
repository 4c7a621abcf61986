//! What the benchmark reads about the machine and its own process. Every
//! reader returns a neutral value where `/proc` is missing, so the benchmark
//! still runs there; the numbers are per-layer context, never gated.

use std::fs;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// User plus system CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the parenthesised
    // command name (which may itself contain spaces), in clock ticks. Linux
    // reports them at USER_HZ = 100 on every architecture Rust supports.
    const TICKS_PER_SECOND: f64 = 100.0;
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            let rest = stat.rsplit_once(')')?.1;
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_SECOND)
        })
        .unwrap_or(0.0)
}

/// Reset the kernel's peak-RSS mark to the current RSS, so that a later
/// [`peak_rss_mb`] reports the peak of what ran in between.
pub fn reset_peak_rss() {
    // Refused in some sandboxes; the peak then covers the whole process.
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb * 1024.0 / 1e6)
        })
        .unwrap_or(0.0)
}
