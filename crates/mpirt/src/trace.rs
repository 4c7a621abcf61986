//! Optional per-rank wall-clock tracing of MPI operations.
//!
//! [`Universe::run_traced`](crate::Universe::run_traced) hands every rank a
//! [`RankTrace`]: a private event buffer (one Perfetto lane per world rank)
//! stamped against a universe-wide [`obs::WallClock`] epoch. Point-to-point
//! calls and collectives record complete spans; when a rank's function
//! returns, its buffer is absorbed into the shared [`obs::SharedTrace`]
//! sink. Layers above MPI (e.g. the MPI-D sender/receiver pipeline) can
//! fetch the handle via [`Comm::trace`](crate::Comm::trace) and interleave
//! their own stage spans on the same lane.
//!
//! Cost when tracing is off: one `Option` check per operation.

use crate::lock;
use obs::{ArgValue, SharedTrace, TraceBuffer, WallClock};
use std::sync::{Arc, Mutex};

/// Per-rank tracing handle: an event buffer plus the shared clock and sink.
///
/// The buffer is behind a mutex only so the handle stays `Send + Sync`
/// (a `Comm` moves across threads); a rank is a single logical thread,
/// so the lock is never contended.
pub struct RankTrace {
    buf: Mutex<TraceBuffer>,
    clock: WallClock,
    sink: SharedTrace,
}

impl RankTrace {
    /// A trace handle whose events land on process lane `pid` (the world
    /// rank), thread lane 0.
    pub fn new(pid: u32, clock: WallClock, sink: SharedTrace) -> Arc<Self> {
        Arc::new(RankTrace {
            buf: Mutex::new(TraceBuffer::new(pid, 0)),
            clock,
            sink,
        })
    }

    /// Nanoseconds since the universe-wide trace epoch.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Record a complete span with explicit endpoints.
    pub fn complete(
        &self,
        name: &'static str,
        cat: &'static str,
        start_ns: u64,
        end_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        lock(&self.buf).complete(name, cat, start_ns, end_ns, args);
    }

    /// Record a complete span from `start_ns` to now.
    pub fn complete_since(
        &self,
        name: &'static str,
        cat: &'static str,
        start_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let end = self.clock.now_ns();
        lock(&self.buf).complete(name, cat, start_ns, end, args);
    }

    /// Record a point-in-time marker at the current clock reading.
    pub fn instant(&self, name: &'static str, cat: &'static str) {
        let now = self.clock.now_ns();
        lock(&self.buf).instant(name, cat, now);
    }

    /// Record a counter sample at the current clock reading. Used by the
    /// MPI-D data path to publish memory-accounting values (`mpid.mem.*`)
    /// that `obs::analysis` rolls into a run profile.
    pub fn counter(&self, name: &'static str, cat: &'static str, value: f64) {
        let now = self.clock.now_ns();
        lock(&self.buf).counter(name, cat, now, value);
    }

    /// Drain the rank's buffer into the shared sink. Called by the universe
    /// after the rank function returns; safe to call more than once.
    pub fn flush(&self) {
        let mut guard = lock(&self.buf);
        let pid = guard.pid();
        let full = std::mem::replace(&mut *guard, TraceBuffer::new(pid, 0));
        drop(guard);
        self.sink.absorb(full);
    }
}
