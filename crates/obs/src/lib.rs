//! # obs — unified tracing & metrics for the MPI-D reproduction suite
//!
//! One event model shared by every layer of the stack:
//!
//! * the simulators (`netsim`, `hadoop-sim`, `mapred::sim`) stamp events with
//!   **simulated** nanoseconds from `desim::SimTime` — traces are bit-for-bit
//!   deterministic for a given seed and job spec;
//! * the real runtime (`mpi-rt`, `mpid`) stamps events with **wall-clock**
//!   nanoseconds measured from a shared [`WallClock`] epoch.
//!
//! Events are recorded through two front-ends:
//!
//! * [`TraceBuffer`] — a plain per-actor `Vec` with a span stack. No locking,
//!   no shared state; each rank/thread/sender owns one and the owner merges
//!   them into a [`Trace`] afterwards ([`Trace::absorb`] /
//!   [`SharedTrace::absorb`]).
//! * [`Tracer`] — a cheaply cloneable `Rc<RefCell<Trace>>` handle for
//!   single-threaded simulations, where handing out one sink to every
//!   subsystem is the convenient shape.
//!
//! Exporters:
//!
//! * [`chrome::to_chrome_json`] — Chrome trace-event JSON, loadable in
//!   Perfetto / `chrome://tracing`. Timestamps are printed from integer
//!   nanoseconds only, so the export is byte-identical across runs and
//!   platforms.
//! * [`report::PhaseBreakdown`] — per-phase aggregation (count, total, mean,
//!   p50/p95/p99, share) that regenerates the shape of the paper's Table I
//!   from a trace alone.
//! * [`analysis::RunProfile`] — critical-path extraction, map↔shuffle
//!   overlap ratio, resource-wait attribution, and memory/utilization
//!   counter summaries, serialized as `mpid-profile/1` JSON for
//!   `cargo xtask trace-diff`.
//!
//! A [`metrics::Metrics`] registry (counters, gauges, log₂-bucketed
//! histograms) rides along for scalar statistics that don't need a timeline.

#![warn(missing_docs)]

pub mod analysis;
pub mod chrome;
pub mod metrics;
pub mod names;
pub mod quantile;
pub mod report;

use std::borrow::Cow;
use std::cell::{Ref, RefCell, RefMut};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Event name: usually a static phase label, occasionally computed.
pub type Name = Cow<'static, str>;

/// A typed argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (byte counts, ids).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (rates, ratios).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form string.
    Str(String),
}

/// Event kind, following the Chrome trace-event phases.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// A span with known duration (`"X"` in Chrome terms).
    Complete {
        /// Span duration in nanoseconds.
        dur_ns: u64,
    },
    /// A point-in-time marker (`"i"`).
    Instant,
    /// A sampled counter value (`"C"`).
    Counter {
        /// The counter's value at this instant.
        value: f64,
    },
}

/// One trace event. Timestamps are nanoseconds — simulated time for the
/// simulators, wall-clock-since-epoch for the real runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name (phase label such as `"map"`, `"copy"`, `"ship"`).
    pub name: Name,
    /// Category, dot-namespaced by layer: `"hadoop.phase"`, `"net.flow"`,
    /// `"mpi.p2p"`, `"mpid.stage"`, …
    pub cat: &'static str,
    /// Start (or sample) time in nanoseconds.
    pub ts_ns: u64,
    /// Process lane — by convention a node/host id (0 = driver/master).
    pub pid: u32,
    /// Thread lane within the process — a task id, rank, or flow id.
    pub tid: u32,
    /// Kind and kind-specific payload.
    pub ph: Phase,
    /// Typed key/value arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl Event {
    /// End time for complete spans; `ts_ns` otherwise.
    pub fn end_ns(&self) -> u64 {
        match self.ph {
            Phase::Complete { dur_ns } => self.ts_ns + dur_ns,
            _ => self.ts_ns,
        }
    }
}

/// Per-actor event buffer: an append-only `Vec` plus a span stack. No locks —
/// each actor (rank thread, sender, simulator component) owns its own buffer
/// and merges it into a [`Trace`] when done.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    pid: u32,
    tid: u32,
    events: Vec<Event>,
    stack: Vec<OpenSpan>,
}

/// A span that has been entered but not yet closed: name, category, start
/// timestamp, and the args accumulated so far.
type OpenSpan = (Name, &'static str, u64, Vec<(&'static str, ArgValue)>);

impl TraceBuffer {
    /// A buffer whose events default to process `pid`, thread `tid`.
    pub fn new(pid: u32, tid: u32) -> Self {
        TraceBuffer {
            pid,
            tid,
            events: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The buffer's process lane.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// The buffer's thread lane.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Open a span at `ts_ns`. Close it with [`TraceBuffer::span_end`].
    /// Spans nest: begins/ends pair up LIFO.
    pub fn span_begin(&mut self, name: impl Into<Name>, cat: &'static str, ts_ns: u64) {
        self.stack.push((name.into(), cat, ts_ns, Vec::new()));
    }

    /// Attach an argument to the innermost open span.
    ///
    /// # Panics
    /// Panics if no span is open.
    pub fn span_arg(&mut self, key: &'static str, value: ArgValue) {
        self.stack
            .last_mut()
            .expect("span_arg with no open span")
            .3
            .push((key, value));
    }

    /// Close the innermost open span at `ts_ns`, recording a complete event.
    ///
    /// # Panics
    /// Panics if no span is open or `ts_ns` precedes the span start.
    pub fn span_end(&mut self, ts_ns: u64) {
        let (name, cat, start, args) = self.stack.pop().expect("span_end with no open span");
        assert!(ts_ns >= start, "span ends before it starts");
        self.events.push(Event {
            name,
            cat,
            ts_ns: start,
            pid: self.pid,
            tid: self.tid,
            ph: Phase::Complete {
                dur_ns: ts_ns - start,
            },
            args,
        });
    }

    /// Record a complete span in one call (when both endpoints are known).
    pub fn complete(
        &mut self,
        name: impl Into<Name>,
        cat: &'static str,
        start_ns: u64,
        end_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        assert!(end_ns >= start_ns, "span ends before it starts");
        self.events.push(Event {
            name: name.into(),
            cat,
            ts_ns: start_ns,
            pid: self.pid,
            tid: self.tid,
            ph: Phase::Complete {
                dur_ns: end_ns - start_ns,
            },
            args,
        });
    }

    /// Record a point-in-time marker.
    pub fn instant(&mut self, name: impl Into<Name>, cat: &'static str, ts_ns: u64) {
        self.events.push(Event {
            name: name.into(),
            cat,
            ts_ns,
            pid: self.pid,
            tid: self.tid,
            ph: Phase::Instant,
            args: Vec::new(),
        });
    }

    /// Record a counter sample.
    pub fn counter(&mut self, name: impl Into<Name>, cat: &'static str, ts_ns: u64, value: f64) {
        self.events.push(Event {
            name: name.into(),
            cat,
            ts_ns,
            pid: self.pid,
            tid: self.tid,
            ph: Phase::Counter { value },
            args: Vec::new(),
        });
    }

    /// Number of buffered events (open spans not included).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The buffered events.
    pub fn events(&self) -> &[Event] {
        &self.events
    }
}

/// A merged collection of events plus process/thread display names.
#[derive(Debug, Default)]
pub struct Trace {
    events: Vec<Event>,
    process_names: BTreeMap<u32, String>,
    thread_names: BTreeMap<(u32, u32), String>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// All events, in insertion order (see [`Trace::sort`]).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Append one event.
    pub fn push(&mut self, ev: Event) {
        self.events.push(ev);
    }

    /// Merge a per-actor buffer into this trace.
    ///
    /// # Panics
    /// Panics if the buffer still has an open span — a leak the caller
    /// should hear about rather than silently dropping the span.
    pub fn absorb(&mut self, buf: TraceBuffer) {
        assert!(
            buf.stack.is_empty(),
            "absorbing a TraceBuffer with {} unclosed span(s)",
            buf.stack.len()
        );
        self.events.extend(buf.events);
    }

    /// Name the process lane `pid` in exported traces.
    pub fn set_process_name(&mut self, pid: u32, name: impl Into<String>) {
        self.process_names.insert(pid, name.into());
    }

    /// Name thread `tid` of process `pid` in exported traces.
    pub fn set_thread_name(&mut self, pid: u32, tid: u32, name: impl Into<String>) {
        self.thread_names.insert((pid, tid), name.into());
    }

    /// Registered process names.
    pub fn process_names(&self) -> &BTreeMap<u32, String> {
        &self.process_names
    }

    /// Registered thread names.
    pub fn thread_names(&self) -> &BTreeMap<(u32, u32), String> {
        &self.thread_names
    }

    /// Stable-sort events by `(ts, pid, tid)`. Insertion order breaks ties,
    /// which keeps exports deterministic for deterministic event streams.
    pub fn sort(&mut self) {
        self.events.sort_by_key(|e| (e.ts_ns, e.pid, e.tid));
    }

    /// Merge another trace (names from `other` win on collision).
    pub fn merge(&mut self, other: Trace) {
        self.events.extend(other.events);
        self.process_names.extend(other.process_names);
        self.thread_names.extend(other.thread_names);
    }
}

/// Cloneable single-threaded trace handle — the sink the simulators thread
/// through their call graphs. Also carries a [`metrics::Metrics`] registry.
#[derive(Clone, Default)]
pub struct Tracer {
    trace: Rc<RefCell<Trace>>,
    metrics: Rc<RefCell<metrics::Metrics>>,
}

impl Tracer {
    /// Fresh empty tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Record a complete span.
    #[allow(clippy::too_many_arguments)] // mirrors the Chrome-trace "X" event field-for-field
    pub fn complete(
        &self,
        pid: u32,
        tid: u32,
        name: impl Into<Name>,
        cat: &'static str,
        start_ns: u64,
        end_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        assert!(end_ns >= start_ns, "span ends before it starts");
        self.trace.borrow_mut().push(Event {
            name: name.into(),
            cat,
            ts_ns: start_ns,
            pid,
            tid,
            ph: Phase::Complete {
                dur_ns: end_ns - start_ns,
            },
            args,
        });
    }

    /// Record a point-in-time marker.
    pub fn instant(
        &self,
        pid: u32,
        tid: u32,
        name: impl Into<Name>,
        cat: &'static str,
        ts_ns: u64,
    ) {
        self.trace.borrow_mut().push(Event {
            name: name.into(),
            cat,
            ts_ns,
            pid,
            tid,
            ph: Phase::Instant,
            args: Vec::new(),
        });
    }

    /// Record a point-in-time marker with span args (e.g. a `faults.inject`
    /// event carrying the struck host and fault parameters).
    pub fn instant_args(
        &self,
        pid: u32,
        tid: u32,
        name: impl Into<Name>,
        cat: &'static str,
        ts_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.trace.borrow_mut().push(Event {
            name: name.into(),
            cat,
            ts_ns,
            pid,
            tid,
            ph: Phase::Instant,
            args,
        });
    }

    /// Record a counter sample (on thread lane 0 of `pid`).
    pub fn counter(
        &self,
        pid: u32,
        name: impl Into<Name>,
        cat: &'static str,
        ts_ns: u64,
        value: f64,
    ) {
        self.trace.borrow_mut().push(Event {
            name: name.into(),
            cat,
            ts_ns,
            pid,
            tid: 0,
            ph: Phase::Counter { value },
            args: Vec::new(),
        });
    }

    /// Name a process lane.
    pub fn set_process_name(&self, pid: u32, name: impl Into<String>) {
        self.trace.borrow_mut().set_process_name(pid, name);
    }

    /// Name a thread lane.
    pub fn set_thread_name(&self, pid: u32, tid: u32, name: impl Into<String>) {
        self.trace.borrow_mut().set_thread_name(pid, tid, name);
    }

    /// Merge a per-actor buffer.
    pub fn absorb(&self, buf: TraceBuffer) {
        self.trace.borrow_mut().absorb(buf);
    }

    /// Shared metrics registry.
    pub fn metrics(&self) -> RefMut<'_, metrics::Metrics> {
        self.metrics.borrow_mut()
    }

    /// Read access to the underlying trace.
    pub fn trace(&self) -> Ref<'_, Trace> {
        self.trace.borrow()
    }

    /// Extract the trace, leaving this handle empty. Events are sorted.
    pub fn take_trace(&self) -> Trace {
        let mut t = std::mem::take(&mut *self.trace.borrow_mut());
        t.sort();
        t
    }

    /// Export the current events as Chrome trace JSON (sorted, deterministic).
    pub fn chrome_json(&self) -> String {
        let mut snapshot = Trace {
            events: self.trace.borrow().events.to_vec(),
            process_names: self.trace.borrow().process_names.clone(),
            thread_names: self.trace.borrow().thread_names.clone(),
        };
        snapshot.sort();
        chrome::to_chrome_json(&snapshot)
    }
}

/// Thread-safe trace collector for the real (multi-threaded) runtime: rank
/// threads record into private [`TraceBuffer`]s and merge them here when they
/// finish — the mutex is taken once per actor, not per event.
#[derive(Clone, Default)]
pub struct SharedTrace {
    inner: Arc<Mutex<Trace>>,
}

impl SharedTrace {
    /// Fresh empty collector.
    pub fn new() -> Self {
        SharedTrace::default()
    }

    /// Merge a finished per-actor buffer.
    pub fn absorb(&self, buf: TraceBuffer) {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .absorb(buf);
    }

    /// Name a process lane.
    pub fn set_process_name(&self, pid: u32, name: impl Into<String>) {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .set_process_name(pid, name);
    }

    /// Name a thread lane.
    pub fn set_thread_name(&self, pid: u32, tid: u32, name: impl Into<String>) {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .set_thread_name(pid, tid, name);
    }

    /// Extract the merged trace (sorted).
    pub fn take_trace(&self) -> Trace {
        let mut t = std::mem::take(
            &mut *self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        t.sort();
        t
    }
}

/// Wall-clock epoch for the real runtime: all threads stamp events with
/// nanoseconds since the same `Instant`, so their lanes line up.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// Epoch = now.
    pub fn start() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_spans_nest_lifo() {
        let mut b = TraceBuffer::new(1, 2);
        b.span_begin("outer", "t", 100);
        b.span_begin("inner", "t", 150);
        b.span_arg("bytes", ArgValue::U64(7));
        b.span_end(180);
        b.span_end(300);
        assert_eq!(b.len(), 2);
        assert_eq!(b.events()[0].name, "inner");
        assert_eq!(b.events()[0].ph, Phase::Complete { dur_ns: 30 });
        assert_eq!(b.events()[0].args, vec![("bytes", ArgValue::U64(7))]);
        assert_eq!(b.events()[1].name, "outer");
        assert_eq!(b.events()[1].end_ns(), 300);
    }

    #[test]
    #[should_panic(expected = "unclosed span")]
    fn absorbing_open_span_panics() {
        let mut b = TraceBuffer::new(0, 0);
        b.span_begin("leak", "t", 1);
        Trace::new().absorb(b);
    }

    #[test]
    fn trace_sort_is_stable_by_time_pid_tid() {
        let mut t = Trace::new();
        for (ts, pid, tid) in [(5u64, 1u32, 1u32), (5, 0, 2), (1, 9, 9), (5, 0, 1)] {
            t.push(Event {
                name: "e".into(),
                cat: "t",
                ts_ns: ts,
                pid,
                tid,
                ph: Phase::Instant,
                args: vec![],
            });
        }
        t.sort();
        let order: Vec<_> = t.events().iter().map(|e| (e.ts_ns, e.pid, e.tid)).collect();
        assert_eq!(order, vec![(1, 9, 9), (5, 0, 1), (5, 0, 2), (5, 1, 1)]);
    }

    #[test]
    fn tracer_collects_and_takes() {
        let tr = Tracer::new();
        let clone = tr.clone();
        clone.complete(0, 1, "map", "phase", 10, 20, vec![]);
        tr.instant(0, 1, "done", "phase", 20);
        tr.metrics().inc("maps_done", 1);
        let trace = tr.take_trace();
        assert_eq!(trace.events().len(), 2);
        assert!(tr.trace().events().is_empty(), "take_trace drains");
    }

    #[test]
    fn shared_trace_merges_across_threads() {
        let shared = SharedTrace::new();
        let mut handles = vec![];
        for rank in 0..4u32 {
            let s = shared.clone();
            handles.push(std::thread::spawn(move || {
                let mut b = TraceBuffer::new(0, rank);
                b.complete(
                    "work",
                    "mpi",
                    rank as u64 * 10,
                    rank as u64 * 10 + 5,
                    vec![],
                );
                s.absorb(b);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let t = shared.take_trace();
        assert_eq!(t.events().len(), 4);
    }
}
