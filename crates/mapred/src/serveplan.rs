//! Multi-job entry point: distil a [`SimMpidConfig`] + [`JobSpec`] into the
//! coarse [`netsim::JobPlan`] the serving master executes on a shared
//! cluster.
//!
//! Mirrors `hadoop_sim::serve_plan` for the MPI-D stack: process startup
//! and serialized master split-assignment RPCs as setup, then a single
//! map+ship phase — the paper's core design point is that `MPI_D_Send`
//! pipelines spill shipment *during* map computation, so the shuffle's
//! all-to-all traffic runs concurrently with the map CPU instead of as a
//! separate copy phase — and a reduce tail that drains the last frames and
//! writes unreplicated output.

use crate::sim::SimMpidConfig;
use desim::SimTime;
use netsim::{JobPhase, JobPlan, JobSpec, PhaseFlows};

/// The serving-master plan for running `spec` on `n_hosts` granted worker
/// hosts under this configuration. Phase labels are `obs::names` constants.
pub fn serve_plan(cfg: &SimMpidConfig, spec: &JobSpec, n_hosts: usize) -> JobPlan {
    assert!(n_hosts > 0, "a job needs at least one host");
    let n = n_hosts as f64;
    // Data is pre-distributed evenly over the granted hosts in chunks of at
    // most one block. (`with_auto_splits` divides by mapper processes, not
    // hosts, so the single-job simulator's splits are smaller.)
    let split = (spec.input_bytes.div_ceil(n_hosts as u64)).clamp(1 << 20, 64 << 20);
    let n_splits = spec.input_bytes.div_ceil(split).max(1);

    // Memory-hierarchy pressure of the prototype's in-process state grows
    // with the per-host volume. (The single-job simulator uses the same
    // curve over the per-mapper volume, so it charges less pressure.)
    let per_host = spec.input_bytes.div_ceil(n_hosts as u64).max(1);
    let pressure = if per_host > cfg.pressure_ref_bytes {
        1.0 + cfg.pressure_per_doubling * (per_host as f64 / cfg.pressure_ref_bytes as f64).log2()
    } else {
        1.0
    };

    // Co-location for the in-node combine stage is the run of consecutive
    // splits a host maps — their spills merge through one per-host combine
    // before framing. (The single-job simulator counts mapper processes per
    // worker instead; `tests/sim_models_agree.rs` pins the gap.)
    let colocated = n_splits.div_ceil(n_hosts as u64) as usize;
    let shuffle = (spec
        .strategy_shuffle_bytes(spec.input_bytes, colocated)
        .round() as u64)
        .max(1);
    let innode_cpu = spec.innode_combine_ns(spec.input_bytes) * 1e-9 * cfg.native_cpu_factor / n;
    let output = spec.output_bytes(shuffle).max(1);
    JobPlan {
        setup_secs: cfg.startup.as_secs_f64() + n_splits as f64 * cfg.master_rpc.as_secs_f64(),
        phases: vec![
            JobPhase {
                label: obs::names::SPAN_MAP,
                cpu_secs: spec.map_cpu_secs(spec.input_bytes) * cfg.native_cpu_factor * pressure
                    / n
                    + innode_cpu,
                bytes: shuffle,
                flows: PhaseFlows::ShuffleAllToAll,
            },
            JobPhase {
                label: obs::names::SPAN_REDUCE_TAIL,
                cpu_secs: spec.reduce_cpu_secs(shuffle) * cfg.native_cpu_factor / n,
                bytes: output,
                flows: PhaseFlows::WriteReplicated { copies: 1 },
            },
        ],
    }
}

/// Failure-detection latency of the serving master for this stack: a dead
/// rank drops its sockets and mpiexec tears the job down within a connection
/// timeout — milliseconds, not Hadoop's missed-heartbeat seconds. The flip
/// side (the paper's concession) is that detection kills the *whole job*.
/// It is the detailed model's one constant, `sim::MPI_DETECT`.
pub fn detect_delay(_cfg: &SimMpidConfig) -> SimTime {
    crate::sim::MPI_DETECT
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimShuffle;

    fn wc_like(input_bytes: u64) -> JobSpec {
        JobSpec {
            name: "wordcount".into(),
            input_bytes,
            record_bytes: 80,
            map_cpu_ns_per_byte: 620.0,
            map_output_ratio: 1.8,
            combine_ratio: 0.1,
            combine_cpu_ns_per_byte: 30.0,
            reduce_cpu_ns_per_byte: 100.0,
            output_ratio: 1.0,
            shuffle: SimShuffle::Baseline,
        }
    }

    #[test]
    fn plan_overlaps_shuffle_with_map() {
        let cfg = SimMpidConfig::icpp2011_fig6();
        let spec = wc_like(1 << 30);
        let plan = serve_plan(&cfg, &spec, 8);
        plan.validate();
        assert_eq!(plan.phases.len(), 2);
        // The shuffle volume rides the map phase, not a separate copy.
        assert_eq!(plan.phases[0].flows, PhaseFlows::ShuffleAllToAll);
        assert_eq!(plan.phases[0].bytes, spec.shuffle_bytes(1 << 30));
        assert_eq!(
            plan.phases[1].flows,
            PhaseFlows::WriteReplicated { copies: 1 }
        );
        // Both stacks agree on the job's logical output volume.
        let hcfg = hadoop_sim_equivalent_output(&spec);
        assert_eq!(plan.output_bytes(), hcfg);
    }

    fn hadoop_sim_equivalent_output(spec: &JobSpec) -> u64 {
        spec.output_bytes(spec.shuffle_bytes(spec.input_bytes).max(1))
            .max(1)
    }

    #[test]
    fn strategies_trade_wire_for_map_work() {
        let cfg = SimMpidConfig::icpp2011_fig6();
        let base = serve_plan(&cfg, &wc_like(1 << 30), 8);

        let mut spec = wc_like(1 << 30);
        spec.shuffle = SimShuffle::InNodeCombine;
        let innode = serve_plan(&cfg, &spec, 8);
        assert!(innode.phases[0].bytes < base.phases[0].bytes);
    }

    #[test]
    fn native_stack_has_smaller_setup_and_cpu() {
        let cfg = SimMpidConfig::icpp2011_fig6();
        let spec = wc_like(1 << 30);
        let plan = serve_plan(&cfg, &spec, 8);
        // Setup is sub-second (startup + RPCs), vs Hadoop's 6 s job setup.
        assert!(plan.setup_secs < 1.0, "setup {}", plan.setup_secs);
        // Native map CPU is well below the Java cost.
        assert!(plan.phases[0].cpu_secs < spec.map_cpu_secs(1 << 30) / 8.0);
    }
}
