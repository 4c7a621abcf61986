//! Property tests for the desim kernel: ordering, determinism, statistics.

use desim::stats::OnlineStats;
use desim::{Sim, SimTime};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

proptest! {
    /// Whatever order events are scheduled in, they execute in nondecreasing
    /// time order, with FIFO tie-breaking among equal timestamps.
    #[test]
    fn events_execute_in_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(vec![]));
        let mut sim = Sim::new(());
        for (idx, &t) in times.iter().enumerate() {
            let log = log.clone();
            sim.schedule(SimTime::from_nanos(t), move |_, sc| {
                log.borrow_mut().push((sc.now().as_nanos(), idx));
            });
        }
        sim.run();
        let log = log.borrow();
        prop_assert_eq!(log.len(), times.len());
        for w in log.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// Two identical schedules produce identical execution traces.
    #[test]
    fn deterministic_replay(times in proptest::collection::vec(0u64..500, 1..100)) {
        let run = |times: &[u64]| {
            let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![]));
            let mut sim = Sim::new(());
            for &t in times {
                let log = log.clone();
                sim.schedule(SimTime::from_nanos(t), move |_, sc| {
                    log.borrow_mut().push(sc.now().as_nanos());
                });
            }
            sim.run();
            Rc::try_unwrap(log).unwrap().into_inner()
        };
        prop_assert_eq!(run(&times), run(&times));
    }

    /// run_until(t) then run() visits exactly the same events as a plain run().
    #[test]
    fn run_until_is_a_prefix(times in proptest::collection::vec(0u64..1000, 1..100), cut in 0u64..1000) {
        let build = |log: Rc<RefCell<Vec<u64>>>, times: &[u64]| {
            let mut sim = Sim::new(());
            for &t in times {
                let log = log.clone();
                sim.schedule(SimTime::from_nanos(t), move |_, sc| {
                    log.borrow_mut().push(sc.now().as_nanos());
                });
            }
            sim
        };
        let full: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![]));
        build(full.clone(), &times).run();

        let split: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![]));
        let mut sim = build(split.clone(), &times);
        sim.run_until(SimTime::from_nanos(cut));
        sim.run();
        prop_assert_eq!(&*full.borrow(), &*split.borrow());
    }

    /// OnlineStats mean/min/max match naive computation.
    #[test]
    fn online_stats_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..500)) {
        let mut s = OnlineStats::new();
        for &x in &xs { s.add(x); }
        let naive_mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - naive_mean).abs() < 1e-6 * (1.0 + naive_mean.abs()));
        prop_assert_eq!(s.min(), xs.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max(), xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }
}
