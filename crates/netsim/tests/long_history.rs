//! Incremental ≡ full over one long, deterministic history: thousands of
//! flows started, cancelled, killed, stalled and resumed in scrambled id
//! order, so removals land in the middle of the engine's flow storage
//! rather than at its ends, and the storage grows and shrinks many times
//! over. `tests/incremental.rs` covers short random histories; this one is
//! long enough for whatever the storage does only after many removals.
//!
//! After every operation the scoped engine and a `set_force_full(true)`
//! engine must agree bit for bit on every live flow's rate and remaining
//! bytes and on `next_completion`; completion batches and kill lists must
//! come out in ascending id; and `active_flows` must equal a `BTreeSet`
//! model of the live ids.

use netsim::{FlowId, FluidEngine, ResourceId};
use std::collections::{BTreeMap, BTreeSet};

/// xorshift64*: a fixed, dependency-free stream of operation choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Two engines in lockstep plus the model of what they should hold.
struct Lockstep {
    inc: FluidEngine,
    full: FluidEngine,
    rs: Vec<ResourceId>,
    /// Live flow → the resource indices it crosses.
    live: BTreeMap<FlowId, Vec<usize>>,
    stalled: BTreeSet<FlowId>,
    /// Ids removed by the current op, checked as gone by `check`.
    gone: Vec<FlowId>,
    issued: u64,
    started: usize,
}

impl Lockstep {
    fn new(caps: &[f64]) -> Self {
        let mut inc = FluidEngine::new();
        let mut full = FluidEngine::new();
        full.set_force_full(true);
        let rs = caps.iter().map(|&c| inc.add_resource(c)).collect();
        for &c in caps {
            full.add_resource(c);
        }
        Lockstep {
            inc,
            full,
            rs,
            live: BTreeMap::new(),
            stalled: BTreeSet::new(),
            gone: Vec::new(),
            issued: 0,
            started: 0,
        }
    }

    /// A live id chosen uniformly, so removals hit the middle of the table.
    fn pick(&self, rng: &mut Rng) -> Option<FlowId> {
        if self.live.is_empty() {
            return None;
        }
        let k = rng.below(self.live.len());
        self.live.keys().nth(k).copied()
    }

    fn start(&mut self, rng: &mut Rng) {
        let n = 1 + rng.below(3);
        let res: Vec<usize> = (0..n).map(|_| rng.below(self.rs.len())).collect();
        let ids: Vec<ResourceId> = res.iter().map(|&i| self.rs[i]).collect();
        // A few zero-byte flows exercise same-instant completion.
        let bytes = if rng.below(40) == 0 {
            0
        } else {
            1 + rng.next() % 200_000
        };
        let weight = [0.5, 1.0, 1.0, 2.0, 3.5][rng.below(5)];
        let a = self.inc.start_flow(bytes, &ids, weight);
        let b = self.full.start_flow(bytes, &ids, weight);
        assert_eq!(a, b, "id allocation must match");
        assert_eq!(a, FlowId(self.issued), "ids are issued in order");
        self.issued += 1;
        self.started += 1;
        self.live.insert(a, res);
    }

    fn finished(&mut self, done: &[FlowId]) {
        assert!(
            done.windows(2).all(|w| w[0] < w[1]),
            "batch not in ascending id order: {done:?}"
        );
        for id in done {
            assert!(self.live.remove(id).is_some(), "{id:?} was not live");
            self.stalled.remove(id);
            self.gone.push(*id);
        }
    }

    fn advance(&mut self, dt: f64) {
        let a = self.inc.advance(dt);
        let b = self.full.advance(dt);
        assert_eq!(a, b, "completion batches diverged");
        self.finished(&a);
    }

    fn cancel(&mut self, rng: &mut Rng) {
        let Some(id) = self.pick(rng) else { return };
        let a = self.inc.cancel_flow(id);
        assert!(a.is_some());
        assert_eq!(a, self.full.cancel_flow(id));
        assert_eq!(self.inc.cancel_flow(id), None, "second cancel");
        self.finished(&[id]);
    }

    fn kill(&mut self, rng: &mut Rng) {
        let r = rng.below(self.rs.len());
        let a = self.inc.kill_flows_crossing(&[self.rs[r]]);
        let b = self.full.kill_flows_crossing(&[self.rs[r]]);
        assert_eq!(a, b, "kill results diverged");
        let ids: Vec<FlowId> = a.iter().map(|&(id, _)| id).collect();
        let expect: Vec<FlowId> = self
            .live
            .iter()
            .filter(|(_, res)| res.contains(&r))
            .map(|(&id, _)| id)
            .collect();
        assert_eq!(
            ids, expect,
            "kill must take exactly the flows crossing r{r}"
        );
        self.finished(&ids);
    }

    fn stall(&mut self, rng: &mut Rng, on: bool) {
        let Some(id) = self.pick(rng) else { return };
        let (a, b) = if on {
            (self.inc.stall_flow(id), self.full.stall_flow(id))
        } else {
            (self.inc.resume_flow(id), self.full.resume_flow(id))
        };
        assert!(a && b);
        if on {
            self.stalled.insert(id);
        } else {
            self.stalled.remove(&id);
        }
    }

    fn set_capacity(&mut self, rng: &mut Rng) {
        let r = self.rs[rng.below(self.rs.len())];
        let cap = 10.0 + (rng.next() % 5_000) as f64;
        self.inc.set_capacity(r, cap);
        self.full.set_capacity(r, cap);
    }

    fn check(&mut self, op: usize) {
        assert_eq!(self.inc.active_flows(), self.live.len(), "op {op}");
        assert_eq!(self.full.active_flows(), self.live.len(), "op {op}");
        for &id in self.live.keys() {
            let bits = |e: &FluidEngine| {
                (
                    e.rate(id).map(f64::to_bits),
                    e.remaining(id).map(f64::to_bits),
                    e.is_stalled(id),
                )
            };
            let a = bits(&self.inc);
            assert!(a.0.is_some(), "op {op}: live {id:?} missing");
            assert_eq!(a, bits(&self.full), "op {op}: {id:?} diverged");
            assert_eq!(a.2, Some(self.stalled.contains(&id)), "op {op}: {id:?}");
        }
        for id in self.gone.drain(..) {
            assert_eq!(self.inc.rate(id), None, "op {op}: {id:?} lingers");
            assert_eq!(self.full.remaining(id), None, "op {op}: {id:?} lingers");
            assert_eq!(self.inc.cancel_flow(id), None, "op {op}: {id:?} lingers");
        }
        assert_eq!(
            self.inc.next_completion().map(f64::to_bits),
            self.full.next_completion().map(f64::to_bits),
            "op {op}: next_completion diverged"
        );
        assert_eq!(
            self.inc.total_bytes_completed().to_bits(),
            self.full.total_bytes_completed().to_bits(),
            "op {op}: delivered bytes diverged"
        );
        assert_eq!(self.inc.stats().full_recomputes, 0, "op {op}");
    }
}

#[test]
fn long_scrambled_history_matches_full_recompute() {
    let caps = [
        117.0e3, 117.0e3, 90.0e3, 250.0e3, 60.0e3, 117.0e3, 400.0e3, 80.0e3, 117.0e3, 30.0e3,
    ];
    let mut p = Lockstep::new(&caps);
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    // Alternate fill and drain phases: the live set climbs to `high`, then
    // removals (mostly from the middle) bring it back under `low`.
    let (high, low) = (160, 12);
    let mut filling = true;
    let (mut op, mut drains) = (0, 0);
    while p.started < 2_400 {
        if filling && p.live.len() >= high {
            filling = false;
        } else if !filling && p.live.len() <= low {
            filling = true;
            drains += 1;
        }
        let roll = rng.below(100);
        let start_below = if filling { 55 } else { 5 };
        match roll {
            _ if roll < start_below => p.start(&mut rng),
            // Cancels, and kills (each takes about a fifth of the live
            // flows), only while draining.
            0..=54 => p.cancel(&mut rng),
            55..=57 if !filling => p.kill(&mut rng),
            55..=68 => p.stall(&mut rng, true),
            69..=80 => p.stall(&mut rng, false),
            81..=84 => p.set_capacity(&mut rng),
            85..=92 => {
                if let Some(dt) = p.inc.next_completion() {
                    p.advance(dt);
                }
            }
            _ => p.advance((rng.below(50) as f64) * 1e-3),
        }
        p.check(op);
        op += 1;
    }
    assert!(drains >= 10, "only {drains} fill/drain cycles in {op} ops");
    // Resume everything and drain: the engines agree to the very end.
    let held: Vec<FlowId> = p.stalled.iter().copied().collect();
    for id in held {
        assert!(p.inc.resume_flow(id) && p.full.resume_flow(id));
        p.stalled.remove(&id);
        p.check(op);
        op += 1;
    }
    while let Some(dt) = p.inc.next_completion() {
        p.advance(dt);
        p.check(op);
        op += 1;
        assert!(op < 1_000_000, "engines failed to converge");
    }
    assert!(p.live.is_empty());
    assert_eq!(p.inc.active_flows(), 0);
}
