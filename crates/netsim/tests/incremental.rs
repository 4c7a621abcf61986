//! Incremental ≡ full: randomized mutation sequences must leave two engines
//! — one using the scoped component recompute, one forced through the
//! from-scratch path — in **bit-identical** states after every single op.
//! This is the property that lets the DES keep its determinism and `--check`
//! bit-identity guarantees while the solver skips untouched components.

use netsim::{FlowId, FluidEngine, ResourceId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Start {
        bytes: u64,
        res: Vec<usize>,
        weight: f64,
    },
    /// Advance exactly to the next completion (drives completion batches).
    AdvanceNext,
    /// Advance a fixed `hundredths / 100` seconds (partial progress, and
    /// same-timestamp completion batches when several flows line up).
    Advance {
        hundredths: u32,
    },
    Cancel {
        k: usize,
    },
    SetCap {
        r: usize,
        cap_tenths: u32,
    },
    Stall {
        k: usize,
    },
    Resume {
        k: usize,
    },
    /// Kill every flow crossing resource `r` (host-death path).
    Kill {
        r: usize,
    },
}

fn arb_ops(n_res: usize) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (
            1u64..50_000,
            proptest::collection::vec(0usize..n_res, 1..=3),
            0.5f64..4.0,
        )
            .prop_map(|(bytes, res, weight)| Op::Start { bytes, res, weight }),
        (0u8..1).prop_map(|_| Op::AdvanceNext),
        (0u32..500).prop_map(|hundredths| Op::Advance { hundredths }),
        (0usize..32).prop_map(|k| Op::Cancel { k }),
        (0usize..n_res, 1u32..10_000).prop_map(|(r, cap_tenths)| Op::SetCap { r, cap_tenths }),
        (0usize..32).prop_map(|k| Op::Stall { k }),
        (0usize..32).prop_map(|k| Op::Resume { k }),
        (0usize..n_res).prop_map(|r| Op::Kill { r }),
    ];
    proptest::collection::vec(op, 1..60)
}

/// Lockstep harness: every op is applied to both engines with identical
/// arguments; `live` tracks the ids both still hold.
struct Pair {
    inc: FluidEngine,
    full: FluidEngine,
    rs: Vec<ResourceId>,
    live: Vec<FlowId>,
}

impl Pair {
    fn new(caps: &[f64]) -> Pair {
        let mut inc = FluidEngine::new();
        let mut full = FluidEngine::new();
        full.set_force_full(true);
        let rs = caps.iter().map(|&c| inc.add_resource(c)).collect();
        for &c in caps {
            full.add_resource(c);
        }
        Pair {
            inc,
            full,
            rs,
            live: Vec::new(),
        }
    }

    fn pick(&self, k: usize) -> Option<FlowId> {
        if self.live.is_empty() {
            None
        } else {
            Some(self.live[k % self.live.len()])
        }
    }

    fn forget(&mut self, ids: &[FlowId]) {
        self.live.retain(|id| !ids.contains(id));
    }
}

/// Bit-level state comparison after each op.
fn assert_identical(p: &mut Pair) {
    prop_assert_eq!(p.inc.active_flows(), p.full.active_flows());
    for &id in &p.live {
        prop_assert_eq!(
            p.inc.rate(id).map(f64::to_bits),
            p.full.rate(id).map(f64::to_bits),
            "rate of {:?} diverged (inc {:?} vs full {:?})",
            id,
            p.inc.rate(id),
            p.full.rate(id)
        );
        prop_assert_eq!(
            p.inc.remaining(id).map(f64::to_bits),
            p.full.remaining(id).map(f64::to_bits),
            "remaining of {:?} diverged",
            id
        );
        prop_assert_eq!(p.inc.is_stalled(id), p.full.is_stalled(id));
    }
    prop_assert_eq!(
        p.inc.next_completion().map(f64::to_bits),
        p.full.next_completion().map(f64::to_bits),
        "next_completion diverged (inc {:?} vs full {:?})",
        p.inc.next_completion(),
        p.full.next_completion()
    );
    prop_assert_eq!(
        p.inc.total_bytes_completed().to_bits(),
        p.full.total_bytes_completed().to_bits()
    );
    prop_assert_eq!(p.inc.stats().full_recomputes, 0);
}

fn apply(p: &mut Pair, op: &Op) {
    match op {
        Op::Start { bytes, res, weight } => {
            let resources: Vec<ResourceId> = res.iter().map(|&i| p.rs[i]).collect();
            let a = p.inc.start_flow(*bytes, &resources, *weight);
            let b = p.full.start_flow(*bytes, &resources, *weight);
            prop_assert_eq!(a, b, "id allocation must match");
            p.live.push(a);
        }
        Op::AdvanceNext => {
            let dt_a = p.inc.next_completion();
            let dt_b = p.full.next_completion();
            prop_assert_eq!(dt_a.map(f64::to_bits), dt_b.map(f64::to_bits));
            if let Some(dt) = dt_a {
                let done_a = p.inc.advance(dt);
                let done_b = p.full.advance(dt);
                prop_assert_eq!(&done_a, &done_b, "completion batches diverged");
                p.forget(&done_a);
            }
        }
        Op::Advance { hundredths } => {
            let dt = *hundredths as f64 / 100.0;
            let done_a = p.inc.advance(dt);
            let done_b = p.full.advance(dt);
            prop_assert_eq!(&done_a, &done_b, "completion batches diverged");
            p.forget(&done_a);
        }
        Op::Cancel { k } => {
            if let Some(id) = p.pick(*k) {
                prop_assert_eq!(p.inc.cancel_flow(id), p.full.cancel_flow(id));
                p.forget(&[id]);
            }
        }
        Op::SetCap { r, cap_tenths } => {
            let cap = *cap_tenths as f64 / 10.0;
            p.inc.set_capacity(p.rs[*r], cap);
            p.full.set_capacity(p.rs[*r], cap);
        }
        Op::Stall { k } => {
            if let Some(id) = p.pick(*k) {
                prop_assert_eq!(p.inc.stall_flow(id), p.full.stall_flow(id));
            }
        }
        Op::Resume { k } => {
            if let Some(id) = p.pick(*k) {
                prop_assert_eq!(p.inc.resume_flow(id), p.full.resume_flow(id));
            }
        }
        Op::Kill { r } => {
            let killed_a = p.inc.kill_flows_crossing(&[p.rs[*r]]);
            let killed_b = p.full.kill_flows_crossing(&[p.rs[*r]]);
            prop_assert_eq!(&killed_a, &killed_b, "kill results diverged");
            let ids: Vec<FlowId> = killed_a.iter().map(|&(id, _)| id).collect();
            p.forget(&ids);
        }
    }
    assert_identical(p)
}

fn arb_system() -> impl Strategy<Value = (Vec<f64>, Vec<Op>)> {
    proptest::collection::vec(1.0f64..1000.0, 2..10).prop_flat_map(|caps| {
        let n = caps.len();
        arb_ops(n).prop_map(move |ops| (caps.clone(), ops))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Randomized start/finish/cancel/set-capacity/stall/resume/kill
    /// sequences leave the scoped and from-scratch engines bit-identical
    /// after every operation: rates, remaining bytes, stall flags,
    /// completion batches, `next_completion`, and delivered-byte totals.
    #[test]
    fn incremental_matches_full_over_random_histories((caps, ops) in arb_system()) {
        let mut pair = Pair::new(&caps);
        assert_identical(&mut pair);
        for op in &ops {
            apply(&mut pair, op);
        }
        // Drain to completion: the engines must agree to the very end.
        let mut guard = 0;
        while let Some(dt) = pair.inc.next_completion() {
            prop_assert_eq!(
                Some(dt.to_bits()),
                pair.full.next_completion().map(f64::to_bits)
            );
            let done_a = pair.inc.advance(dt + 1e-12);
            let done_b = pair.full.advance(dt + 1e-12);
            prop_assert_eq!(&done_a, &done_b);
            pair.forget(&done_a);
            assert_identical(&mut pair);
            guard += 1;
            prop_assert!(guard < 2000, "engines failed to converge");
        }
    }
}
