//! Exact solver work counters under both solver modes. The incremental
//! (component-scoped) solver and the forced from-scratch recompute must do
//! the *same* number of recomputes and — `tests/incremental.rs` proves —
//! reach bit-identical states; what differs is how many resources each
//! recompute sweeps, and that difference is the solver's whole claim
//! (EXPERIMENTS.md: 128× fewer sweeps on the churn, 8.6× on the 100 GB
//! MPI-D sim). The counters are deterministic, so they are pinned exactly.
//! So is the churn's outcome — its final clock, event count and
//! completions — which both modes must reach identically, and the flows
//! each mode re-rates.
//!
//! One `#[test]` in its own file: `set_force_full_default` is a
//! process-wide static, so nothing else may build a `Net` in this process
//! while it is flipped.

use desim::{Scheduler, Sim, SimTime};
use mapred::{run_sim_mpid_traced, SimMpidConfig};
use netsim::{Cluster, ClusterSpec, HasNet, HostId, Net, SolverStats};
use workloads::wordcount_spec;

const GB: u64 = 1 << 30;

/// What one churn run ended with.
struct ChurnOut {
    end_ns: u64,
    executed: u64,
    flows_completed: u64,
    stats: SolverStats,
}

/// `total` flows churned through the network driver as four disjoint
/// host-pair chains (so the scoped solver has component structure to
/// exploit). Every completion starts the next flow, keeping the
/// reallocation path hot.
fn flow_churn(total: u64) -> ChurnOut {
    struct St {
        net: Net<St>,
        to_start: u64,
        seq: u64,
    }
    impl HasNet for St {
        fn net(&mut self) -> &mut Net<St> {
            &mut self.net
        }
    }
    fn launch(s: &mut St, sc: &mut Scheduler<St>) {
        if s.to_start == 0 {
            return;
        }
        s.to_start -= 1;
        let i = s.seq;
        s.seq += 1;
        // Four disjoint host pairs out of the 8-node testbed; alternate
        // direction so both NIC sides stay loaded.
        let pair = (i % 4) as usize;
        let (src, dst) = if (i / 4).is_multiple_of(2) {
            (HostId(2 * pair), HostId(2 * pair + 1))
        } else {
            (HostId(2 * pair + 1), HostId(2 * pair))
        };
        let bytes = 16_384 + (i % 7) * 4_096;
        Net::transfer(s, sc, src, dst, bytes, launch);
    }

    let mut sim = Sim::new(St {
        net: Net::new(Cluster::new(ClusterSpec::icpp2011_testbed())),
        to_start: total,
        seq: 0,
    });
    // 64 concurrent chains (16 per host pair).
    sim.schedule(SimTime::ZERO, |s: &mut St, sc| {
        for _ in 0..64 {
            launch(s, sc);
        }
    });
    let end = sim.run();
    ChurnOut {
        end_ns: end.as_nanos(),
        executed: sim.executed(),
        flows_completed: sim.state.net.flows_completed(),
        stats: sim.state.net.solver_stats(),
    }
}

/// `net.solver.resources_swept` of the traced 100 GB Figure-6 MPI-D sim.
fn fig6_mpid_100gb_sweeps(spec: netsim::JobSpec) -> u64 {
    let tracer = obs::Tracer::new();
    let _ = run_sim_mpid_traced(
        SimMpidConfig::icpp2011_fig6().with_auto_splits(100 * GB),
        spec,
        tracer.clone(),
    );
    let sweeps = tracer
        .metrics()
        .counter(obs::names::M_NET_SOLVER_RESOURCES_SWEPT);
    sweeps
}

/// The 20 000-flow churn's `(final SimTime in ns, Sim::executed(),
/// flows_completed)`: the same under both solver modes.
const CHURN_OUTCOME: (u64, u64, u64) = (612_754_767, 29_914, 20_000);

#[test]
fn solver_work_is_pinned_under_both_modes() {
    let spec = wordcount_spec(100 * GB);
    // (forced full, churn (recomputes, resources swept, flows re-rated),
    // 100 GB sim sweeps)
    for (force_full, churn, sim_sweeps) in [
        (false, (39_975, 80_114, 315_864), 229_202),
        (true, (39_975, 10_230_784, 2_534_299), 1_978_272),
    ] {
        netsim::set_force_full_default(force_full);
        let out = flow_churn(20_000);
        let sweeps = fig6_mpid_100gb_sweeps(spec.clone());
        netsim::set_force_full_default(false);
        let stats = out.stats;
        assert_eq!(
            (out.end_ns, out.executed, out.flows_completed),
            CHURN_OUTCOME,
            "20 000-flow churn outcome (end ns, events, completions), force_full = {force_full}"
        );
        assert_eq!(
            (stats.recomputes, stats.resources_swept, stats.flows_rerated),
            churn,
            "20 000-flow churn, force_full = {force_full}"
        );
        assert_eq!(
            sweeps, sim_sweeps,
            "fig6 100 GB MPI-D sim net.solver.resources_swept, force_full = {force_full}"
        );
    }
}
