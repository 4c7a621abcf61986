//! # desim — deterministic discrete-event simulation kernel
//!
//! A small, allocation-conscious discrete-event simulation (DES) kernel used by
//! every simulator in the MPI-D reproduction suite (`netsim`, `hadoop-sim`,
//! `mapred::sim`).
//!
//! Design points:
//!
//! * **Integer time.** Simulated time is a `u64` count of nanoseconds
//!   ([`SimTime`]). Floating-point clocks accumulate rounding error and make
//!   event ordering platform-dependent; integer nanoseconds keep runs
//!   bit-for-bit reproducible.
//! * **Deterministic tie-breaking.** Events scheduled for the same instant
//!   execute in scheduling order (FIFO), enforced by a monotonically increasing
//!   sequence number. This makes simulations reproducible regardless of heap
//!   internals.
//! * **State/scheduler split.** An event handler receives `&mut S` (the user's
//!   simulation state) *and* `&mut Scheduler<S>` so it can schedule follow-up
//!   events while mutating state — without fighting the borrow checker.
//! * **Cancellation.** [`Scheduler::schedule`] returns an [`EventId`] that can
//!   be cancelled in O(1) time (lazy deletion at pop). One bit per scheduled
//!   event records whether it has run or been cancelled, so cancelling an
//!   event that already ran is refused rather than miscounted.
//!
//! ```
//! use desim::{Sim, SimTime};
//!
//! struct Counter { fired: u32 }
//! let mut sim = Sim::new(Counter { fired: 0 });
//! sim.schedule_in(SimTime::from_millis(5), |s: &mut Counter, sched| {
//!     s.fired += 1;
//!     // chain another event 1 ms later
//!     sched.schedule_in(SimTime::from_millis(1), |s: &mut Counter, _| s.fired += 1);
//! });
//! sim.run();
//! assert_eq!(sim.state.fired, 2);
//! assert_eq!(sim.now(), SimTime::from_millis(6));
//! ```

#![warn(missing_docs)]

pub mod rng;
pub mod stats;
mod time;

pub use time::SimTime;

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Boxed event handler: runs against the user state and may schedule more events.
pub type Handler<S> = Box<dyn FnOnce(&mut S, &mut Scheduler<S>)>;

/// Identifier of a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

struct Entry<S> {
    at: SimTime,
    seq: u64,
    handler: Handler<S>,
}

// Order entries so that the *earliest* (then lowest-seq) entry is the max of
// the heap by reversing the comparison; we use a max-heap (`BinaryHeap`).
impl<S> PartialEq for Entry<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<S> Eq for Entry<S> {}
impl<S> PartialOrd for Entry<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for Entry<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: smaller (time, seq) = greater priority.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The event queue and clock. Handlers receive `&mut Scheduler<S>` so they can
/// schedule follow-up work while the simulation state is mutably borrowed.
pub struct Scheduler<S> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Entry<S>>,
    /// Bit `seq` is set once event `seq` has run or been cancelled.
    retired: Vec<u64>,
    /// Cancelled events still in the heap, dropped when they surface.
    cancelled: usize,
    executed: u64,
}

impl<S> Default for Scheduler<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> Scheduler<S> {
    /// Create an empty scheduler with the clock at zero.
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            retired: Vec::new(),
            cancelled: 0,
            executed: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending (excluding lazily-cancelled ones).
    pub fn pending(&self) -> usize {
        self.heap.len() - self.cancelled
    }

    fn is_retired(&self, seq: u64) -> bool {
        self.retired[(seq >> 6) as usize] & (1 << (seq & 63)) != 0
    }

    fn retire(&mut self, seq: u64) {
        self.retired[(seq >> 6) as usize] |= 1 << (seq & 63);
    }

    /// Schedule `handler` to run at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past (before [`Scheduler::now`]): a DES must
    /// never travel backwards.
    pub fn schedule(
        &mut self,
        at: SimTime,
        handler: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    ) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: now={:?} at={:?}",
            self.now,
            at
        );
        let seq = self.seq;
        self.seq += 1;
        if seq & 63 == 0 {
            self.retired.push(0);
        }
        self.heap.push(Entry {
            at,
            seq,
            handler: Box::new(handler),
        });
        EventId(seq)
    }

    /// Schedule `handler` to run `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimTime,
        handler: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    ) -> EventId {
        let at = self.now.saturating_add(delay);
        self.schedule(at, handler)
    }

    /// Cancel a previously scheduled event. Returns `true` the first time a
    /// not-yet-executed event is cancelled, `false` otherwise (unknown id,
    /// already cancelled, or already run).
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.seq || self.is_retired(id.0) {
            return false;
        }
        self.retire(id.0);
        self.cancelled += 1;
        true
    }

    /// Pop the next runnable (non-cancelled) event, advancing the clock.
    fn pop(&mut self) -> Option<Entry<S>> {
        while let Some(e) = self.heap.pop() {
            if self.is_retired(e.seq) {
                self.cancelled -= 1;
                continue;
            }
            self.retire(e.seq);
            debug_assert!(e.at >= self.now);
            self.now = e.at;
            self.executed += 1;
            return Some(e);
        }
        None
    }

    /// Time of the next runnable event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(e) = self.heap.peek() {
            if self.is_retired(e.seq) {
                self.heap.pop();
                self.cancelled -= 1;
                continue;
            }
            return Some(e.at);
        }
        None
    }
}

/// A complete simulation: user state plus a [`Scheduler`].
pub struct Sim<S> {
    /// The user's simulation state, freely accessible between runs.
    pub state: S,
    sched: Scheduler<S>,
}

impl<S> Sim<S> {
    /// Create a simulation around `state` with the clock at zero.
    pub fn new(state: S) -> Self {
        Sim {
            state,
            sched: Scheduler::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Access the scheduler (e.g. to seed initial events or cancel).
    pub fn scheduler(&mut self) -> &mut Scheduler<S> {
        &mut self.sched
    }

    /// Schedule an event at an absolute time. See [`Scheduler::schedule`].
    pub fn schedule(
        &mut self,
        at: SimTime,
        handler: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    ) -> EventId {
        self.sched.schedule(at, handler)
    }

    /// Schedule an event after a delay. See [`Scheduler::schedule_in`].
    pub fn schedule_in(
        &mut self,
        delay: SimTime,
        handler: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    ) -> EventId {
        self.sched.schedule_in(delay, handler)
    }

    /// Run until the event queue is empty. Returns the final time.
    pub fn run(&mut self) -> SimTime {
        while let Some(e) = self.sched.pop() {
            (e.handler)(&mut self.state, &mut self.sched);
        }
        self.sched.now()
    }

    /// Run until the queue is empty or the clock would pass `until`.
    /// Events scheduled exactly at `until` *are* executed; afterwards the
    /// clock rests at `until` even if no event fired there.
    pub fn run_until(&mut self, until: SimTime) -> SimTime {
        loop {
            match self.sched.peek_time() {
                Some(t) if t <= until => {
                    let e = self.sched.pop().expect("peeked event vanished");
                    (e.handler)(&mut self.state, &mut self.sched);
                }
                _ => break,
            }
        }
        if self.sched.now() < until {
            self.sched.now = until;
        }
        self.sched.now()
    }

    /// Execute at most one event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        match self.sched.pop() {
            Some(e) => {
                (e.handler)(&mut self.state, &mut self.sched);
                true
            }
            None => false,
        }
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.sched.executed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Default)]
    struct Log(Vec<(u64, &'static str)>);

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new(Log::default());
        sim.schedule(SimTime::from_nanos(30), |s: &mut Log, sc| {
            s.0.push((sc.now().as_nanos(), "c"))
        });
        sim.schedule(SimTime::from_nanos(10), |s: &mut Log, sc| {
            s.0.push((sc.now().as_nanos(), "a"))
        });
        sim.schedule(SimTime::from_nanos(20), |s: &mut Log, sc| {
            s.0.push((sc.now().as_nanos(), "b"))
        });
        sim.run();
        assert_eq!(sim.state.0, vec![(10, "a"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn same_time_events_run_fifo() {
        let mut sim = Sim::new(Log::default());
        for name in ["first", "second", "third"] {
            sim.schedule(SimTime::from_nanos(5), move |s: &mut Log, _| {
                s.0.push((5, name))
            });
        }
        sim.run();
        let names: Vec<_> = sim.state.0.iter().map(|e| e.1).collect();
        assert_eq!(names, vec!["first", "second", "third"]);
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut sim = Sim::new(0u32);
        sim.schedule(SimTime::from_nanos(1), |s: &mut u32, sc| {
            *s += 1;
            sc.schedule_in(SimTime::from_nanos(1), |s: &mut u32, sc| {
                *s += 10;
                sc.schedule_in(SimTime::from_nanos(1), |s: &mut u32, _| *s += 100);
            });
        });
        let end = sim.run();
        assert_eq!(sim.state, 111);
        assert_eq!(end, SimTime::from_nanos(3));
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Sim::new(0u32);
        let id = sim.schedule(SimTime::from_nanos(10), |s: &mut u32, _| *s += 1);
        sim.schedule(SimTime::from_nanos(5), |s: &mut u32, _| *s += 100);
        assert!(sim.scheduler().cancel(id));
        assert!(!sim.scheduler().cancel(id), "double cancel returns false");
        sim.run();
        assert_eq!(sim.state, 100);
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut sim = Sim::new(0u32);
        sim.schedule(SimTime::from_nanos(10), |s: &mut u32, _| *s += 1);
        sim.schedule(SimTime::from_nanos(20), |s: &mut u32, _| *s += 1);
        sim.schedule(SimTime::from_nanos(30), |s: &mut u32, _| *s += 1);
        let t = sim.run_until(SimTime::from_nanos(20));
        assert_eq!(sim.state, 2, "events at exactly `until` run");
        assert_eq!(t, SimTime::from_nanos(20));
        // Clock advances to `until` even with no event exactly there.
        let t = sim.run_until(SimTime::from_nanos(25));
        assert_eq!(t, SimTime::from_nanos(25));
        sim.run();
        assert_eq!(sim.state, 3);
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Sim::new(());
        sim.schedule(SimTime::from_nanos(10), |_, sc| {
            sc.schedule(SimTime::from_nanos(5), |_, _| {});
        });
        sim.run();
    }

    #[test]
    fn step_executes_single_event() {
        let mut sim = Sim::new(0u32);
        sim.schedule(SimTime::from_nanos(1), |s: &mut u32, _| *s += 1);
        sim.schedule(SimTime::from_nanos(2), |s: &mut u32, _| *s += 1);
        assert!(sim.step());
        assert_eq!(sim.state, 1);
        assert!(sim.step());
        assert!(!sim.step());
    }

    #[test]
    fn executed_and_pending_counters() {
        let mut sim = Sim::new(());
        let a = sim.schedule(SimTime::from_nanos(1), |_, _| {});
        sim.schedule(SimTime::from_nanos(2), |_, _| {});
        assert_eq!(sim.scheduler().pending(), 2);
        sim.scheduler().cancel(a);
        assert_eq!(sim.scheduler().pending(), 1);
        sim.run();
        assert_eq!(sim.executed(), 1);
    }

    #[test]
    fn cancelling_an_event_that_already_ran_is_refused() {
        let mut sim = Sim::new(0u32);
        let ran = sim.schedule(SimTime::from_nanos(1), |s: &mut u32, _| *s += 1);
        sim.schedule(SimTime::from_nanos(2), |s: &mut u32, _| *s += 10);
        assert!(sim.step());
        assert!(!sim.scheduler().cancel(ran), "the event already ran");
        assert_eq!(sim.scheduler().pending(), 1);
        sim.run();
        assert_eq!(sim.state, 11);
        assert_eq!(sim.scheduler().pending(), 0);
        assert!(!sim.scheduler().cancel(ran));
    }

    #[test]
    fn interleaved_cancel_from_inside_handler() {
        struct St {
            fired: Rc<RefCell<Vec<&'static str>>>,
            victim: Option<EventId>,
        }
        let fired = Rc::new(RefCell::new(vec![]));
        let mut sim = Sim::new(St {
            fired: fired.clone(),
            victim: None,
        });
        let victim = sim.schedule(SimTime::from_nanos(20), |s: &mut St, _| {
            s.fired.borrow_mut().push("victim");
        });
        sim.state.victim = Some(victim);
        sim.schedule(SimTime::from_nanos(10), |s: &mut St, sc| {
            s.fired.borrow_mut().push("assassin");
            let v = s.victim.take().unwrap();
            assert!(sc.cancel(v));
        });
        sim.run();
        assert_eq!(*fired.borrow(), vec!["assassin"]);
    }
}
