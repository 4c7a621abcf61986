//! Post-run trace analysis: turns a finished [`Trace`] into a structured
//! [`RunProfile`] answering the questions bench numbers can't — *where* the
//! time went, not just how much there was.
//!
//! A profile has four parts:
//!
//! * **Critical path** — the longest chain of causally-ordered work spans
//!   (span B can follow span A iff A ends no later than B starts), found by
//!   weighted-interval dynamic programming over the span DAG. Its length
//!   bounds the run from below: no scheduling change shortens the run past
//!   the critical path without shortening a segment on it.
//! * **Overlap ratio** — `|map ∩ shuffle| / |shuffle|` over the interval
//!   unions of map spans and shuffle spans (`ship` for MPI-D, `copy` for
//!   Hadoop). This is the paper's headline mechanism measured directly:
//!   MPI-D pipelines shuffle under map and scores near 1, stock Hadoop's
//!   copy tail extends past map-finish and scores lower.
//! * **Resource-wait attribution** — every work span's *self*-time (its
//!   duration minus nested child spans on the same lane) is split into
//!   disk / network / blocked-on-peer / compute by intersecting it with the
//!   per-host `net.flow` occupancy timelines the simulators emit.
//! * **Counter summaries** — high-water and final values for `mpid.mem.*`
//!   (sender arena, wire pool, receiver frames, spill bytes) and
//!   `net.util.*` (per-host link/disk utilization samples), plus any scalar
//!   counters from an accompanying [`Metrics`] registry.
//!
//! Profiles serialize to a hand-rolled, byte-deterministic JSON document
//! (schema `mpid-profile/1`) consumed by `cargo xtask trace-diff`.

use crate::metrics::Metrics;
use crate::{names, Phase, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Span categories that represent *work* (as opposed to resource occupancy
/// like `net.flow`, or markers like `faults.inject`). The tables live in
/// [`crate::names`], next to the constants the emitters use.
fn is_work_cat(cat: &str) -> bool {
    names::WORK_CATS.contains(&cat) || cat.starts_with(names::CAT_MPI_PREFIX)
}

/// One span on the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSegment {
    /// Span name (`"map"`, `"ship"`, `"copy"`, …).
    pub name: String,
    /// Span category (`"mpid.phase"`, `"hadoop.phase"`, …).
    pub cat: &'static str,
    /// Host/process lane of the span.
    pub pid: u32,
    /// Thread lane of the span.
    pub tid: u32,
    /// Start time, ns.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// Time attributed to one `category/name` group along the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryShare {
    /// Group key, `"<cat>/<name>"` (e.g. `"mpid.phase/ship"`).
    pub key: String,
    /// Summed critical-path time in this group, ns.
    pub ns: u64,
    /// Fraction of the critical-path total in `[0, 1]`.
    pub share: f64,
}

/// The longest causally-ordered chain of work spans.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// Summed duration of the chain, ns.
    pub total_ns: u64,
    /// `total_ns / wall_ns` — how much of the run the chain explains.
    pub coverage: f64,
    /// Chain spans in time order.
    pub segments: Vec<PathSegment>,
    /// Chain time grouped by `"<cat>/<name>"`, descending by time
    /// (key breaks ties).
    pub by_category: Vec<CategoryShare>,
}

/// Interval-union overlap between map compute and shuffle data movement,
/// measured per `(pid, tid)` lane: a shuffle span only counts as
/// overlapped where it intersects map spans on its *own* lane (the
/// producing worker). This captures the paper's producer-side pipelining
/// rather than mere job-level concurrency.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverlapStats {
    /// Total time covered by at least one map span, ns.
    pub map_ns: u64,
    /// Total time covered by at least one shuffle span (`ship`/`copy`), ns.
    pub shuffle_ns: u64,
    /// Time covered by both at once, ns.
    pub overlap_ns: u64,
    /// `overlap_ns / shuffle_ns` (0 when no shuffle spans exist).
    pub ratio: f64,
}

/// Self-time of all spans sharing a name, classified by what the host's
/// resources were doing underneath.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionRow {
    /// Span name.
    pub name: String,
    /// Number of spans.
    pub count: usize,
    /// Raw span time (children included), ns.
    pub span_ns: u64,
    /// Self time (children on the same lane subtracted), ns.
    pub self_ns: u64,
    /// Self time overlapping a disk flow on the span's host, ns.
    pub disk_ns: u64,
    /// Self time overlapping a network flow (and no disk flow), ns.
    pub network_ns: u64,
    /// Unexplained self time of a data-movement phase — waiting on a peer, ns.
    pub blocked_ns: u64,
    /// Remaining self time: local computation, ns.
    pub compute_ns: u64,
}

/// Summary of one counter-event stream family (same name, any lane).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterStat {
    /// Counter name (e.g. `"mpid.mem.table_bytes"`, `"net.util.up"`).
    pub name: String,
    /// Number of samples across all lanes.
    pub samples: usize,
    /// Largest sampled value — the high-water mark.
    pub max: f64,
    /// Mean of all samples.
    pub mean: f64,
    /// Sum over lanes of each lane's final sample — the natural total for
    /// per-rank monotonic counters (spill counts, frames decoded).
    pub last_sum: f64,
}

/// A structured performance profile of one run, built from its trace.
#[derive(Debug, Clone, Default)]
pub struct RunProfile {
    /// Caller-supplied label (bench name, figure id).
    pub label: String,
    /// Wall extent of the work spans (max end − min start), ns.
    pub wall_ns: u64,
    /// Map↔shuffle overlap, the paper's mechanism.
    pub overlap: OverlapStats,
    /// Longest causally-ordered span chain.
    pub critical_path: CriticalPath,
    /// Per-phase resource-wait attribution, descending by self time.
    pub attribution: Vec<AttributionRow>,
    /// `mpid.mem.*` counter summaries (memory accounting), by name.
    pub memory: Vec<CounterStat>,
    /// `net.util.*` counter summaries (link/disk utilization), by name.
    pub utilization: Vec<CounterStat>,
    /// Scalar counters carried over from the run's [`Metrics`] registry.
    pub counters: BTreeMap<String, u64>,
}

/// Half-open interval `[start, end)` in ns.
type Iv = (u64, u64);

/// Merge a list of intervals into a sorted disjoint union.
fn union(mut ivs: Vec<Iv>) -> Vec<Iv> {
    ivs.retain(|&(s, e)| e > s);
    ivs.sort_unstable();
    let mut out: Vec<Iv> = Vec::with_capacity(ivs.len());
    for (s, e) in ivs {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of a disjoint sorted union.
fn total_len(u: &[Iv]) -> u64 {
    u.iter().map(|&(s, e)| e - s).sum()
}

/// Intersection of two disjoint sorted unions.
fn intersect(a: &[Iv], b: &[Iv]) -> Vec<Iv> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let s = a[i].0.max(b[j].0);
        let e = a[i].1.min(b[j].1);
        if e > s {
            out.push((s, e));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// `a` minus `b`, both disjoint sorted unions.
fn subtract(a: &[Iv], b: &[Iv]) -> Vec<Iv> {
    let mut out = Vec::new();
    let mut j = 0;
    for &(mut s, e) in a {
        while j < b.len() && b[j].1 <= s {
            j += 1;
        }
        let mut k = j;
        while s < e {
            if k >= b.len() || b[k].0 >= e {
                out.push((s, e));
                break;
            }
            if b[k].0 > s {
                out.push((s, b[k].0));
            }
            s = s.max(b[k].1);
            k += 1;
        }
    }
    out
}

impl RunProfile {
    /// Build a profile from a finished trace and (optionally) the scalar
    /// metrics registry that rode along with it.
    ///
    /// Every derived quantity is a pure function of the event stream, so a
    /// deterministic trace (fixed-seed simulation) yields a byte-identical
    /// profile — the property the golden tests and `trace-diff` lean on.
    pub fn build(trace: &Trace, metrics: Option<&Metrics>, label: &str) -> RunProfile {
        let mut work: Vec<&crate::Event> = Vec::new();
        // Per-host resource occupancy from net.flow spans.
        let mut disk_ivs: BTreeMap<u32, Vec<Iv>> = BTreeMap::new();
        let mut net_ivs: BTreeMap<u32, Vec<Iv>> = BTreeMap::new();
        // Counter streams keyed by (name, pid, tid); per-stream samples in
        // trace order (Trace::sort keeps streams time-ordered).
        let mut streams: BTreeMap<(String, u32, u32), Vec<f64>> = BTreeMap::new();

        for ev in trace.events() {
            match ev.ph {
                Phase::Complete { dur_ns } => {
                    if is_work_cat(ev.cat) {
                        work.push(ev);
                    } else if ev.cat == names::CAT_NET_FLOW {
                        let iv = (ev.ts_ns, ev.ts_ns + dur_ns);
                        let name = ev.name.as_ref();
                        if names::DISK_FLOW_SPANS.contains(&name) {
                            disk_ivs.entry(ev.pid).or_default().push(iv)
                        } else if names::NET_FLOW_SPANS.contains(&name) {
                            net_ivs.entry(ev.pid).or_default().push(iv)
                        }
                    }
                }
                Phase::Counter { value } => {
                    let name = ev.name.as_ref();
                    if name.starts_with(names::MEM_COUNTER_PREFIX)
                        || name.starts_with(names::UTIL_COUNTER_PREFIX)
                    {
                        streams
                            .entry((name.to_string(), ev.pid, ev.tid))
                            .or_default()
                            .push(value);
                    }
                }
                Phase::Instant => {}
            }
        }

        let wall_ns = {
            let min = work.iter().map(|e| e.ts_ns).min().unwrap_or(0);
            let max = work.iter().map(|e| e.end_ns()).max().unwrap_or(0);
            max.saturating_sub(min)
        };

        let disk: BTreeMap<u32, Vec<Iv>> =
            disk_ivs.into_iter().map(|(h, v)| (h, union(v))).collect();
        let net_only: BTreeMap<u32, Vec<Iv>> = net_ivs
            .into_iter()
            .map(|(h, v)| {
                let u = union(v);
                let d = disk.get(&h).map(Vec::as_slice).unwrap_or(&[]);
                (h, subtract(&u, d))
            })
            .collect();

        RunProfile {
            label: label.to_string(),
            wall_ns,
            overlap: overlap_stats(&work),
            critical_path: critical_path(&work, wall_ns),
            attribution: attribute(&work, &disk, &net_only),
            memory: counter_stats(&streams, names::MEM_COUNTER_PREFIX),
            utilization: counter_stats(&streams, names::UTIL_COUNTER_PREFIX),
            counters: metrics
                .map(|m| {
                    m.counters()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect::<BTreeMap<_, _>>()
                })
                .unwrap_or_default(),
        }
    }

    /// The top `n` critical-path category groups, largest first.
    pub fn top_segments(&self, n: usize) -> &[CategoryShare] {
        &self.critical_path.by_category[..n.min(self.critical_path.by_category.len())]
    }

    /// Serialize as byte-deterministic `mpid-profile/1` JSON.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(4096);
        o.push_str("{\n  \"schema\": \"mpid-profile/1\",\n");
        let _ = writeln!(o, "  \"label\": {},", json_str(&self.label));
        let _ = writeln!(o, "  \"wall_ns\": {},", self.wall_ns);
        let ov = &self.overlap;
        let _ = writeln!(
            o,
            "  \"overlap\": {{\"map_ns\": {}, \"shuffle_ns\": {}, \"overlap_ns\": {}, \"ratio\": {}}},",
            ov.map_ns,
            ov.shuffle_ns,
            ov.overlap_ns,
            json_f64(ov.ratio)
        );
        let cp = &self.critical_path;
        o.push_str("  \"critical_path\": {\n");
        let _ = writeln!(o, "    \"total_ns\": {},", cp.total_ns);
        let _ = writeln!(o, "    \"coverage\": {},", json_f64(cp.coverage));
        o.push_str("    \"segments\": [");
        for (i, s) in cp.segments.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                o,
                "{sep}      {{\"name\": {}, \"cat\": {}, \"pid\": {}, \"tid\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
                json_str(&s.name),
                json_str(s.cat),
                s.pid,
                s.tid,
                s.start_ns,
                s.dur_ns
            );
        }
        o.push_str(if cp.segments.is_empty() {
            "],\n"
        } else {
            "\n    ],\n"
        });
        o.push_str("    \"by_category\": [");
        for (i, c) in cp.by_category.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                o,
                "{sep}      {{\"key\": {}, \"ns\": {}, \"share\": {}}}",
                json_str(&c.key),
                c.ns,
                json_f64(c.share)
            );
        }
        o.push_str(if cp.by_category.is_empty() {
            "]\n"
        } else {
            "\n    ]\n"
        });
        o.push_str("  },\n");
        o.push_str("  \"attribution\": [");
        for (i, r) in self.attribution.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                o,
                "{sep}    {{\"name\": {}, \"count\": {}, \"span_ns\": {}, \"self_ns\": {}, \"disk_ns\": {}, \"network_ns\": {}, \"blocked_ns\": {}, \"compute_ns\": {}}}",
                json_str(&r.name),
                r.count,
                r.span_ns,
                r.self_ns,
                r.disk_ns,
                r.network_ns,
                r.blocked_ns,
                r.compute_ns
            );
        }
        o.push_str(if self.attribution.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        for (field, stats, comma) in [
            ("memory", &self.memory, ","),
            ("utilization", &self.utilization, ","),
        ] {
            let _ = write!(o, "  \"{field}\": [");
            for (i, c) in stats.iter().enumerate() {
                let sep = if i == 0 { "\n" } else { ",\n" };
                let _ = write!(
                    o,
                    "{sep}    {{\"name\": {}, \"samples\": {}, \"max\": {}, \"mean\": {}, \"last_sum\": {}}}",
                    json_str(&c.name),
                    c.samples,
                    json_f64(c.max),
                    json_f64(c.mean),
                    json_f64(c.last_sum)
                );
            }
            let close = if stats.is_empty() { "]" } else { "\n  ]" };
            let _ = writeln!(o, "{close}{comma}");
        }
        o.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(o, "{sep}    {}: {}", json_str(k), v);
        }
        o.push_str(if self.counters.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        o.push_str("}\n");
        o
    }

    /// Deterministic plain-text rendering: overlap line, critical-path
    /// category table, attribution table, memory/utilization summaries.
    pub fn render(&self) -> String {
        let s = |ns: u64| ns as f64 / 1e9;
        let mut out = String::new();
        let _ = writeln!(out, "== Run profile: {} ==", self.label);
        let _ = writeln!(
            out,
            "wall {:.3} s; critical path {:.3} s ({:.1}% coverage, {} segments)",
            s(self.wall_ns),
            s(self.critical_path.total_ns),
            self.critical_path.coverage * 100.0,
            self.critical_path.segments.len()
        );
        let _ = writeln!(
            out,
            "map<->shuffle overlap ratio: {:.3} (map {:.3} s, shuffle {:.3} s, overlap {:.3} s)",
            self.overlap.ratio,
            s(self.overlap.map_ns),
            s(self.overlap.shuffle_ns),
            s(self.overlap.overlap_ns)
        );
        if !self.critical_path.by_category.is_empty() {
            out.push_str("critical path by category:\n");
            for c in &self.critical_path.by_category {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>10.3} s {:>6.1}%",
                    c.key,
                    s(c.ns),
                    c.share * 100.0
                );
            }
        }
        if !self.attribution.is_empty() {
            let _ = writeln!(
                out,
                "resource-wait attribution (self time):\n  {:<14} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9}",
                "phase", "count", "self(s)", "compute", "disk", "network", "blocked"
            );
            for r in &self.attribution {
                let _ = writeln!(
                    out,
                    "  {:<14} {:>5} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
                    r.name,
                    r.count,
                    s(r.self_ns),
                    s(r.compute_ns),
                    s(r.disk_ns),
                    s(r.network_ns),
                    s(r.blocked_ns)
                );
            }
        }
        if !self.memory.is_empty() {
            out.push_str("memory high-water:\n");
            for c in &self.memory {
                let _ = writeln!(
                    out,
                    "  {:<28} max={:.0} last_sum={:.0} samples={}",
                    c.name, c.max, c.last_sum, c.samples
                );
            }
        }
        if !self.utilization.is_empty() {
            out.push_str("utilization (sampled):\n");
            for c in &self.utilization {
                let _ = writeln!(
                    out,
                    "  {:<28} mean={:.3} max={:.3} samples={}",
                    c.name, c.mean, c.max, c.samples
                );
            }
        }
        out
    }
}

/// JSON string literal (the Chrome exporter's escaper, quoted).
fn json_str(s: &str) -> String {
    format!("\"{}\"", crate::chrome::escape(s))
}

/// Fixed-precision float so the document is byte-stable.
fn json_f64(v: f64) -> String {
    // `+ 0.0` folds IEEE negative zero (e.g. an all-zero utilization
    // stream's max) into plain `0.000000`.
    format!("{:.6}", v + 0.0)
}

/// Longest chain of causally-ordered spans by weighted-interval DP.
///
/// Spans are sorted by `(end, start, pid, tid, name)`; `dp[i]` is the best
/// chain ending at span `i`, found by binary-searching the last span that
/// ends at or before `start[i]` and reading a running prefix-argmax. Ties
/// resolve to the earliest index at every step, so the chain is a pure
/// function of the (sorted) event stream.
fn critical_path(work: &[&crate::Event], wall_ns: u64) -> CriticalPath {
    if work.is_empty() {
        return CriticalPath::default();
    }
    let mut idx: Vec<usize> = (0..work.len()).collect();
    idx.sort_by(|&a, &b| {
        let (ea, eb) = (work[a], work[b]);
        (ea.end_ns(), ea.ts_ns, ea.pid, ea.tid, ea.name.as_ref()).cmp(&(
            eb.end_ns(),
            eb.ts_ns,
            eb.pid,
            eb.tid,
            eb.name.as_ref(),
        ))
    });
    let ends: Vec<u64> = idx.iter().map(|&i| work[i].end_ns()).collect();
    let n = idx.len();
    let mut dp = vec![0u64; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    // best_upto[i] = index (into the sorted order) with the largest dp among
    // 0..=i, earliest on ties.
    let mut best_upto = vec![0usize; n];
    for i in 0..n {
        let ev = work[idx[i]];
        let dur = ev.end_ns() - ev.ts_ns;
        // Last j with ends[j] <= ev.ts_ns.
        let j = ends.partition_point(|&e| e <= ev.ts_ns);
        let (base, from) = if j == 0 {
            (0, None)
        } else {
            let b = best_upto[j - 1];
            (dp[b], Some(b))
        };
        dp[i] = base + dur;
        pred[i] = if base > 0 { from } else { None };
        best_upto[i] = if i == 0 {
            0
        } else if dp[i] > dp[best_upto[i - 1]] {
            i
        } else {
            best_upto[i - 1]
        };
    }
    // Walk back from the global best chain end.
    let mut cur = Some(best_upto[n - 1]);
    let mut chain: Vec<usize> = Vec::new();
    while let Some(i) = cur {
        chain.push(idx[i]);
        cur = pred[i];
    }
    chain.reverse();

    let segments: Vec<PathSegment> = chain
        .iter()
        .map(|&i| {
            let e = work[i];
            PathSegment {
                name: e.name.to_string(),
                cat: e.cat,
                pid: e.pid,
                tid: e.tid,
                start_ns: e.ts_ns,
                dur_ns: e.end_ns() - e.ts_ns,
            }
        })
        .collect();
    let total_ns: u64 = segments.iter().map(|s| s.dur_ns).sum();
    let mut by_cat: BTreeMap<String, u64> = BTreeMap::new();
    for s in &segments {
        *by_cat.entry(format!("{}/{}", s.cat, s.name)).or_insert(0) += s.dur_ns;
    }
    let mut by_category: Vec<CategoryShare> = by_cat
        .into_iter()
        .map(|(key, ns)| CategoryShare {
            key,
            ns,
            share: if total_ns == 0 {
                0.0
            } else {
                ns as f64 / total_ns as f64
            },
        })
        .collect();
    by_category.sort_by(|a, b| b.ns.cmp(&a.ns).then(a.key.cmp(&b.key)));
    CriticalPath {
        total_ns,
        coverage: if wall_ns == 0 {
            0.0
        } else {
            total_ns as f64 / wall_ns as f64
        },
        segments,
        by_category,
    }
}

/// Map↔shuffle overlap over interval unions, computed **per lane**
/// (`(pid, tid)`) and summed. Map = spans named `map`; shuffle = `ship`
/// (MPI-D pipelines) and `copy` (Hadoop shuffle fetch).
///
/// The per-lane restriction makes the ratio measure *producer-side
/// pipelining* — the paper's mechanism: an MPI-D mapper ships its own
/// spills while it is still mapping, so `ship` overlaps `map` on the same
/// lane. Hadoop's copy runs on reduce-task lanes and only moves a map
/// output *after* the producing task committed it to disk, so its
/// shuffle never overlaps map work on its own lane even though, job-wide,
/// the copy phase runs concurrently with later map waves.
fn overlap_stats(work: &[&crate::Event]) -> OverlapStats {
    let mut map: BTreeMap<(u32, u32), Vec<Iv>> = BTreeMap::new();
    let mut shuffle: BTreeMap<(u32, u32), Vec<Iv>> = BTreeMap::new();
    for ev in work {
        let iv = (ev.ts_ns, ev.end_ns());
        let name = ev.name.as_ref();
        if name == names::SPAN_MAP {
            map.entry((ev.pid, ev.tid)).or_default().push(iv);
        } else if names::SHUFFLE_SPANS.contains(&name) {
            shuffle.entry((ev.pid, ev.tid)).or_default().push(iv);
        }
    }
    let (mut map_ns, mut shuffle_ns, mut overlap_ns) = (0u64, 0u64, 0u64);
    for ivs in map.values() {
        map_ns += total_len(&union(ivs.clone()));
    }
    for (lane, ivs) in &shuffle {
        let sh = union(ivs.clone());
        shuffle_ns += total_len(&sh);
        if let Some(mp) = map.get(lane) {
            overlap_ns += total_len(&intersect(&union(mp.clone()), &sh));
        }
    }
    OverlapStats {
        map_ns,
        shuffle_ns,
        overlap_ns,
        ratio: if shuffle_ns == 0 {
            0.0
        } else {
            overlap_ns as f64 / shuffle_ns as f64
        },
    }
}

/// Phases whose unexplained self time means waiting on another host rather
/// than local computation: they only make progress when a peer sends,
/// acknowledges, or drains data.
fn blocks_on_peer(name: &str) -> bool {
    names::BLOCKS_ON_PEER_SPANS.contains(&name)
}

/// Classify every work span's self-time against its host's resource
/// occupancy timelines.
fn attribute(
    work: &[&crate::Event],
    disk: &BTreeMap<u32, Vec<Iv>>,
    net_only: &BTreeMap<u32, Vec<Iv>>,
) -> Vec<AttributionRow> {
    // Group spans by lane so nesting (e.g. `combine` inside `buffer`) can be
    // subtracted: a span's self-time excludes lanemates strictly inside it.
    let mut lanes: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
    for (i, ev) in work.iter().enumerate() {
        lanes.entry((ev.pid, ev.tid)).or_default().push(i);
    }
    let mut rows: BTreeMap<&str, AttributionRow> = BTreeMap::new();
    let empty: Vec<Iv> = Vec::new();
    for ((pid, _tid), members) in &lanes {
        let d = disk.get(pid).unwrap_or(&empty);
        let n = net_only.get(pid).unwrap_or(&empty);
        for &i in members {
            let ev = work[i];
            let (s, e) = (ev.ts_ns, ev.end_ns());
            // Children: lanemates nested strictly inside this span.
            let children: Vec<Iv> = members
                .iter()
                .filter(|&&j| j != i)
                .map(|&j| (work[j].ts_ns, work[j].end_ns()))
                .filter(|&(cs, ce)| cs >= s && ce <= e && (ce - cs) < (e - s))
                .collect();
            let self_ivs = subtract(&[(s, e)], &union(children));
            let self_ns = total_len(&self_ivs);
            let disk_ns = total_len(&intersect(&self_ivs, d));
            let network_ns = total_len(&intersect(&self_ivs, n));
            let rest = self_ns - disk_ns - network_ns;
            let (blocked_ns, compute_ns) = if blocks_on_peer(ev.name.as_ref()) {
                (rest, 0)
            } else {
                (0, rest)
            };
            let row = rows
                .entry(ev.name.as_ref())
                .or_insert_with(|| AttributionRow {
                    name: ev.name.to_string(),
                    count: 0,
                    span_ns: 0,
                    self_ns: 0,
                    disk_ns: 0,
                    network_ns: 0,
                    blocked_ns: 0,
                    compute_ns: 0,
                });
            row.count += 1;
            row.span_ns += e - s;
            row.self_ns += self_ns;
            row.disk_ns += disk_ns;
            row.network_ns += network_ns;
            row.blocked_ns += blocked_ns;
            row.compute_ns += compute_ns;
        }
    }
    let mut out: Vec<AttributionRow> = rows.into_values().collect();
    out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    out
}

/// Summarize counter-event streams whose name starts with `prefix`,
/// grouped by name across lanes.
fn counter_stats(
    streams: &BTreeMap<(String, u32, u32), Vec<f64>>,
    prefix: &str,
) -> Vec<CounterStat> {
    let mut by_name: BTreeMap<&str, CounterStat> = BTreeMap::new();
    for ((name, _pid, _tid), samples) in streams {
        if !name.starts_with(prefix) || samples.is_empty() {
            continue;
        }
        let stat = by_name.entry(name).or_insert_with(|| CounterStat {
            name: name.clone(),
            samples: 0,
            max: f64::NEG_INFINITY,
            mean: 0.0, // holds the running sum until the final pass below
            last_sum: 0.0,
        });
        stat.samples += samples.len();
        for &v in samples {
            stat.max = stat.max.max(v);
            stat.mean += v;
        }
        stat.last_sum += samples.last().copied().unwrap_or(0.0);
    }
    let mut out: Vec<CounterStat> = by_name.into_values().collect();
    for s in &mut out {
        s.mean /= s.samples as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuffer;

    fn span(
        t: &mut Trace,
        pid: u32,
        tid: u32,
        name: &'static str,
        cat: &'static str,
        s: u64,
        e: u64,
    ) {
        let mut b = TraceBuffer::new(pid, tid);
        b.complete(name, cat, s, e, vec![]);
        t.absorb(b);
    }

    #[test]
    fn interval_algebra() {
        let u = union(vec![(5, 10), (0, 3), (9, 12), (3, 4)]);
        assert_eq!(u, vec![(0, 4), (5, 12)]);
        assert_eq!(total_len(&u), 11);
        let v = union(vec![(2, 6), (11, 20)]);
        assert_eq!(intersect(&u, &v), vec![(2, 4), (5, 6), (11, 12)]);
        assert_eq!(subtract(&u, &v), vec![(0, 2), (6, 11)]);
        assert_eq!(subtract(&v, &u), vec![(4, 5), (12, 20)]);
    }

    #[test]
    fn critical_path_picks_longest_chain() {
        let mut t = Trace::new();
        // Chain A: 0-10 map, 10-30 ship (total 30).
        span(&mut t, 1, 0, "map", "mpid.phase", 0, 10);
        span(&mut t, 1, 0, "ship", "mpid.phase", 10, 30);
        // Chain B: a single long overlapping span (total 25) — loses.
        span(&mut t, 2, 0, "map", "mpid.phase", 2, 27);
        t.sort();
        let p = RunProfile::build(&t, None, "t");
        assert_eq!(p.critical_path.total_ns, 30);
        assert_eq!(p.critical_path.segments.len(), 2);
        assert_eq!(p.critical_path.segments[0].name, "map");
        assert_eq!(p.critical_path.segments[1].name, "ship");
        assert_eq!(p.wall_ns, 30);
        assert!((p.critical_path.coverage - 1.0).abs() < 1e-12);
        // Category attribution covers the whole chain.
        let total: u64 = p.critical_path.by_category.iter().map(|c| c.ns).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn overlap_ratio_full_and_partial() {
        // MPI-D-like: the mapper ships its own spills while still mapping
        // (same lane), the drain tail extends past map finish.
        let mut t = Trace::new();
        span(&mut t, 1, 0, "map", "mpid.phase", 0, 100);
        span(&mut t, 1, 0, "ship", "mpid.phase", 50, 150);
        t.sort();
        let p = RunProfile::build(&t, None, "mpid");
        assert!((p.overlap.ratio - 0.5).abs() < 1e-12);
        assert_eq!(p.overlap.shuffle_ns, 100);
        assert_eq!(p.overlap.overlap_ns, 50);
        // Ship entirely inside the same lane's map: fully pipelined.
        let mut t = Trace::new();
        span(&mut t, 1, 0, "map", "mpid.phase", 0, 100);
        span(&mut t, 1, 0, "ship", "mpid.phase", 20, 60);
        t.sort();
        let p = RunProfile::build(&t, None, "mpid");
        assert_eq!(p.overlap.ratio, 1.0);
        // Hadoop-like: the copy runs on a reduce-task lane concurrently
        // with map work on other lanes — job-level concurrency, but no
        // producer-side pipelining, so it counts as zero overlap.
        let mut t = Trace::new();
        span(&mut t, 1, 0, "map", "hadoop.phase", 0, 100);
        span(&mut t, 2, 9, "copy", "hadoop.phase", 50, 150);
        t.sort();
        let p = RunProfile::build(&t, None, "hadoop");
        assert_eq!(p.overlap.ratio, 0.0);
        assert_eq!(p.overlap.shuffle_ns, 100);
        assert_eq!(p.overlap.overlap_ns, 0);
    }

    #[test]
    fn attribution_classifies_against_flows() {
        let mut t = Trace::new();
        // A 100 ns map on host 3 with 30 ns of disk and 20 ns of network
        // occupancy underneath; the remaining 50 ns is compute.
        span(&mut t, 3, 0, "map", "mpid.phase", 0, 100);
        span(&mut t, 3, 7, "disk_read", "net.flow", 0, 30);
        span(&mut t, 3, 8, "xfer", "net.flow", 30, 50);
        // A copy span on host 3 with nothing underneath: blocked on a peer.
        span(&mut t, 3, 9, "copy", "hadoop.phase", 100, 160);
        t.sort();
        let p = RunProfile::build(&t, None, "t");
        let map = p.attribution.iter().find(|r| r.name == "map").unwrap();
        assert_eq!(
            (map.disk_ns, map.network_ns, map.compute_ns, map.blocked_ns),
            (30, 20, 50, 0)
        );
        let copy = p.attribution.iter().find(|r| r.name == "copy").unwrap();
        assert_eq!((copy.blocked_ns, copy.compute_ns), (60, 0));
    }

    #[test]
    fn nested_child_spans_reduce_self_time() {
        let mut t = Trace::new();
        span(&mut t, 1, 5, "buffer", "mpid.stage", 0, 100);
        span(&mut t, 1, 5, "combine", "mpid.stage", 40, 70);
        t.sort();
        let p = RunProfile::build(&t, None, "t");
        let buffer = p.attribution.iter().find(|r| r.name == "buffer").unwrap();
        assert_eq!(buffer.span_ns, 100);
        assert_eq!(buffer.self_ns, 70, "combine's 30 ns subtracted");
        let combine = p.attribution.iter().find(|r| r.name == "combine").unwrap();
        assert_eq!(combine.self_ns, 30);
    }

    #[test]
    fn counter_streams_summarized() {
        let mut t = Trace::new();
        let mut b = TraceBuffer::new(1, 0);
        b.counter("mpid.mem.table_bytes", "mpid.mem", 10, 100.0);
        b.counter("mpid.mem.table_bytes", "mpid.mem", 20, 300.0);
        b.counter("net.util.up", "net.util", 10, 0.5);
        t.absorb(b);
        let mut b = TraceBuffer::new(2, 0);
        b.counter("mpid.mem.table_bytes", "mpid.mem", 15, 200.0);
        t.absorb(b);
        t.sort();
        let p = RunProfile::build(&t, None, "t");
        assert_eq!(p.memory.len(), 1);
        let m = &p.memory[0];
        assert_eq!(m.name, "mpid.mem.table_bytes");
        assert_eq!(m.samples, 3);
        assert_eq!(m.max, 300.0);
        assert_eq!(m.mean, 200.0);
        assert_eq!(m.last_sum, 500.0, "host 1 final 300 + host 2 final 200");
        assert_eq!(p.utilization.len(), 1);
        assert_eq!(p.utilization[0].name, "net.util.up");
    }

    #[test]
    fn json_and_render_are_deterministic() {
        let mut t = Trace::new();
        span(&mut t, 1, 0, "map", "mpid.phase", 0, 10);
        span(&mut t, 1, 1, "ship", "mpid.phase", 5, 12);
        t.sort();
        let mut m = Metrics::new();
        m.inc("net.solver.reallocs", 3);
        let a = RunProfile::build(&t, Some(&m), "t");
        let b = RunProfile::build(&t, Some(&m), "t");
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render(), b.render());
        assert!(a.to_json().contains("\"schema\": \"mpid-profile/1\""));
        assert!(a.to_json().contains("\"net.solver.reallocs\": 3"));
        assert!(a.render().contains("overlap ratio"));
    }

    #[test]
    fn empty_trace_profile_is_well_formed() {
        let p = RunProfile::build(&Trace::new(), None, "empty");
        assert_eq!(p.wall_ns, 0);
        assert_eq!(p.critical_path.total_ns, 0);
        assert_eq!(p.overlap.ratio, 0.0);
        assert!(p.to_json().contains("\"segments\": []"));
    }
}
