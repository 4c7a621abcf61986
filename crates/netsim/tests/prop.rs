//! Property tests for the fluid engine: capacity respect, max-min
//! optimality, byte conservation, and end-to-end DES delivery.

use desim::{Sim, SimTime};
use netsim::{Cluster, ClusterSpec, FlowId, FluidEngine, HasNet, HostId, Net, ResourceId, Route};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// A fluid system: resource capacities, and each flow's bytes, resource
/// indexes and weight.
type System = (Vec<f64>, Vec<(u64, Vec<usize>, f64)>);

/// Random resource capacities and flows over up to two resources each.
fn arb_system() -> impl Strategy<Value = System> {
    (2usize..8).prop_flat_map(|n_res| {
        let caps = proptest::collection::vec(1.0f64..1000.0, n_res..=n_res);
        let flows = proptest::collection::vec(
            (
                1u64..100_000,
                proptest::collection::vec(0usize..n_res, 1..=2),
                0.5f64..4.0,
            ),
            1..20,
        );
        (caps, flows)
    })
}

/// An engine holding `caps`' resources with every one of `flows` started:
/// the engine, the resources, and each flow's id, resources and weight.
#[allow(clippy::type_complexity)]
fn start(
    (caps, flows): &System,
) -> (
    FluidEngine,
    Vec<ResourceId>,
    Vec<(FlowId, Vec<ResourceId>, f64)>,
) {
    let mut e = FluidEngine::new();
    let rs: Vec<ResourceId> = caps.iter().map(|&c| e.add_resource(c)).collect();
    let mut meta = Vec::new();
    for (bytes, res_idx, w) in flows {
        let resources: Vec<ResourceId> = res_idx.iter().map(|&i| rs[i]).collect();
        let id = e.start_flow(*bytes, &resources, *w);
        meta.push((id, resources, *w));
    }
    (e, rs, meta)
}

/// No resource is ever oversubscribed, and every active flow gets a
/// strictly positive rate.
fn check_rates_respect_capacity(system: &System) {
    let (e, rs, meta) = start(system);
    for (i, (&r, cap)) in rs.iter().zip(&system.0).enumerate() {
        let u = e.utilization(r);
        prop_assert!(u <= cap * (1.0 + 1e-9), "resource {i}: {u} > {cap}");
    }
    for (id, _, _) in meta {
        let rate = e.rate(id).unwrap();
        prop_assert!(rate > 0.0, "starved flow");
    }
}

/// Max-min optimality: every flow crosses at least one *saturated*
/// resource on which no other flow has a higher rate-per-weight (the
/// standard bottleneck characterization of max-min fairness).
fn check_max_min_bottleneck(system: &System) {
    let (e, _, meta) = start(system);
    for (id, resources, w) in &meta {
        let my_norm = e.rate(*id).unwrap() / w;
        let has_bottleneck = resources.iter().any(|&r| {
            let saturated = e.utilization(r) >= e.capacity(r) * (1.0 - 1e-6);
            let i_am_top = meta
                .iter()
                .filter(|(_, res2, _)| res2.contains(&r))
                .all(|(id2, _, w2)| e.rate(*id2).unwrap() / w2 <= my_norm * (1.0 + 1e-6));
            saturated && i_am_top
        });
        prop_assert!(has_bottleneck, "flow {id:?} has no justifying bottleneck");
    }
}

/// Running the engine to completion moves exactly the requested bytes.
fn check_byte_conservation(system: &System) {
    let (mut e, _, _) = start(system);
    let total: f64 = system.1.iter().map(|(bytes, _, _)| *bytes as f64).sum();
    let mut guard = 0;
    while e.active_flows() > 0 {
        let dt = e.next_completion().expect("active flows must progress");
        e.advance(dt + 1e-12);
        guard += 1;
        prop_assert!(guard < 1000, "engine failed to converge");
    }
    let moved = e.total_bytes_completed();
    prop_assert!(
        (moved - total).abs() <= 1.0 + total * 1e-9,
        "moved {moved} of {total}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rates_respect_capacity(system in arb_system()) {
        check_rates_respect_capacity(&system);
    }

    #[test]
    fn max_min_bottleneck_characterization(system in arb_system()) {
        check_max_min_bottleneck(&system);
    }

    #[test]
    fn byte_conservation(system in arb_system()) {
        check_byte_conservation(&system);
    }
}

/// A shrunk failure recorded by an earlier property-test run: one roomy
/// resource with a half-weight flow, one unit-capacity resource shared by
/// two flows of unequal weight. Replayed as a plain case because the
/// vendored `proptest` does not read regression files.
#[test]
fn recorded_fluid_regression_holds_all_three_properties() {
    let system: System = (
        vec![563.2266935628757, 1.0],
        vec![
            (1, vec![0], 0.5),
            (1, vec![1], 2.2871911475451374),
            (1, vec![1], 2.876603272607917),
        ],
    );
    check_rates_respect_capacity(&system);
    check_max_min_bottleneck(&system);
    check_byte_conservation(&system);
}

// ---- end-to-end DES delivery over the cluster ----

struct St {
    net: Net<St>,
    done: Rc<RefCell<Vec<usize>>>,
}
impl HasNet for St {
    fn net(&mut self) -> &mut Net<St> {
        &mut self.net
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every transfer scheduled through the DES completes exactly once, and
    /// completion times are consistent with the slowest-link lower bound.
    #[test]
    fn all_transfers_complete_exactly_once(
        transfers in proptest::collection::vec((0usize..4, 0usize..4, 1u64..1_000_000), 1..25)
    ) {
        let spec = ClusterSpec {
            hosts: 4,
            nic_bytes_per_sec: 1e6,
            loopback_bytes_per_sec: 1e7,
            disk_read_bytes_per_sec: 5e5,
            disk_write_bytes_per_sec: 4e5,
            disk_seek: SimTime::from_millis(1),
            rack: None,
        };
        let done = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(St {
            net: Net::new(Cluster::new(spec)),
            done: done.clone(),
        });
        let total_bytes: u64 = transfers.iter().map(|&(_, _, b)| b).sum();
        for (i, &(src, dst, bytes)) in transfers.iter().enumerate() {
            sim.schedule(SimTime::ZERO, move |s: &mut St, sc| {
                let route = if src == dst {
                    Route::Loopback(HostId(src))
                } else {
                    Route::HostToHost { src: HostId(src), dst: HostId(dst) }
                };
                Net::start_flow(s, sc, route, bytes, 1.0, move |s, _| {
                    s.done.borrow_mut().push(i);
                });
            });
        }
        let end = sim.run();
        let mut completed = done.borrow().clone();
        completed.sort_unstable();
        prop_assert_eq!(completed, (0..transfers.len()).collect::<Vec<_>>());
        // Lower bound: everything must take at least total_bytes over the
        // aggregate bisection bandwidth (4 × 10 MB/s loopback dominates).
        let min_secs = total_bytes as f64 / (4.0 * 1e7 + 8.0 * 1e6);
        prop_assert!(end.as_secs_f64() >= min_secs * 0.9);
    }
}
