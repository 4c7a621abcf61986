//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded around calls *into* a layer, from the benchmark's
//! files only; nothing is recorded inside any crate. Each rank thread owns a
//! [`Lane`], so recording takes no lock, and the lanes of one job are merged
//! after the ranks have joined.

use crate::json::Value;
use std::time::Instant;

/// One recorded interval. `parent` indexes the job's span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The rank the span was recorded on.
    pub lane: u32,
    /// Which rep of the staged driver the span belongs to.
    pub job_id: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Recorder of one rank thread. Spans nest: one entered while another is
/// open becomes its child.
pub struct Lane {
    epoch: Instant,
    lane: u32,
    job_id: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Lane {
    /// A lane whose timestamps count from `epoch`, shared by the whole job.
    pub fn new(epoch: Instant, lane: u32, job_id: u32) -> Self {
        Lane {
            epoch,
            lane,
            job_id,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Lane::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            lane: self.lane,
            job_id: self.job_id,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The recorded spans; every span must have been closed.
    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "lane finished with an open span");
        self.spans
    }
}

/// Concatenate per-lane span lists, re-basing parent indices.
pub fn merge_lanes(lanes: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for lane in lanes {
        let base = all.len();
        all.extend(lane.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Nanoseconds of `spans[id]` that none of its direct children cover: the
/// span's duration minus the union of its children's intervals.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.dur_ns() - covered
}

/// Share of a root span's duration that its children cover.
pub fn coverage(spans: &[Span], root: usize) -> f64 {
    let dur = spans[root].dur_ns();
    if dur == 0 {
        return 1.0;
    }
    1.0 - self_time_ns(spans, root) as f64 / dur as f64
}

/// Spans as a JSON array, for `--out`.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("lane", Value::Num(f64::from(s.lane))),
                    ("job_id", Value::Num(f64::from(s.job_id))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            lane: 0,
            job_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a`: the union 10..50 counts once.
            span("b", 20, 50, Some(0)),
            span("c", 70, 90, Some(0)),
            // A grandchild covers part of `a`, not of the root.
            span("a1", 12, 18, Some(1)),
            // Sticks out of the root on the right: clipped at 100.
            span("d", 95, 120, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - (40 + 20 + 5));
        assert_eq!(self_time_ns(&spans, 1), 20 - 6);
        assert_eq!(self_time_ns(&spans, 4), 6);
        assert!((coverage(&spans, 0) - 0.65).abs() < 1e-12);
    }

    #[test]
    fn lanes_nest_and_merge() {
        let epoch = Instant::now();
        let mut a = Lane::new(epoch, 0, 7);
        a.enter("rank");
        let got = a.span("call", || 41 + 1);
        a.span("other", || ());
        a.exit();
        assert_eq!(got, 42);
        let mut b = Lane::new(epoch, 1, 7);
        b.enter("rank");
        b.span("call", || ());
        b.exit();

        let all = merge_lanes(vec![a.finish(), b.finish()]);
        let shape: Vec<_> = all.iter().map(|s| (s.name, s.lane, s.parent)).collect();
        assert_eq!(
            shape,
            vec![
                ("rank", 0, None),
                ("call", 0, Some(0)),
                ("other", 0, Some(0)),
                ("rank", 1, None),
                ("call", 1, Some(3)),
            ]
        );
        for s in &all {
            assert!(s.end_ns >= s.start_ns);
            assert_eq!(s.job_id, 7);
        }
        assert!(all[1].start_ns >= all[0].start_ns && all[2].end_ns <= all[0].end_ns);
    }
}
