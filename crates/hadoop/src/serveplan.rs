//! Multi-job entry point: distil a [`HadoopConfig`] + [`JobSpec`] into the
//! coarse [`JobPlan`] the serving master executes on a shared cluster.
//!
//! The detailed per-task simulator in [`crate::sim`] owns one whole cluster
//! per job; under a serving workload many jobs share one [`netsim::Net`], so
//! each stack instead summarizes a job as barrier-separated phases (data
//! volumes, aggregate CPU, fixed overheads). The Hadoop plan keeps the overheads
//! the paper attributes the stack's latency floor to: job setup, per-wave
//! JVM launches, heartbeat-quantized scheduling, per-fetch seek/HTTP costs
//! in the copy phase, and 3× replicated output.

use crate::HadoopConfig;
use desim::SimTime;
use netsim::{JobPhase, JobPlan, JobSpec, PhaseFlows};

/// The serving-master plan for running `spec` on `n_hosts` granted worker
/// hosts under this configuration. Phase labels are `obs::names` constants.
pub fn serve_plan(cfg: &HadoopConfig, spec: &JobSpec, n_hosts: usize) -> JobPlan {
    assert!(n_hosts > 0, "a job needs at least one host");
    let n = n_hosts as f64;
    let n_maps = spec.input_bytes.div_ceil(cfg.block_bytes).max(1);
    let map_waves = n_maps.div_ceil((n_hosts * cfg.map_slots) as u64).max(1);
    // Scheduling quantization: each wave waits half a heartbeat on average
    // for its slot assignments, then pays a JVM launch.
    let wave_overhead = cfg.jvm_start.as_secs_f64() + cfg.heartbeat.as_secs_f64() / 2.0;

    // The job's shuffle strategy: in-node combining shrinks both wire and
    // reducer-input volume by merging the spills of the `map_slots`
    // co-located map tasks.
    let shuffle = (spec
        .strategy_shuffle_bytes(spec.input_bytes, cfg.map_slots)
        .round() as u64)
        .max(1);
    let innode_cpu = spec.innode_combine_ns(spec.input_bytes) * 1e-9 / n;
    let n_reduces = (cfg.n_reduces.max(1) as u64).min(n_hosts as u64 * cfg.reduce_slots as u64);
    // Every reducer fetches a partition of every map output: a short seek
    // into the spill file plus the HTTP round, divided over the hosts
    // fetching in parallel.
    let per_fetch = cfg.fetch_seek.as_secs_f64() + cfg.http_setup.as_secs_f64();
    let fetch_overhead = (n_maps * n_reduces) as f64 * per_fetch / n;

    let output = spec.output_bytes(shuffle).max(1);
    JobPlan {
        setup_secs: cfg.job_setup.as_secs_f64(),
        phases: vec![
            JobPhase {
                label: obs::names::SPAN_MAP,
                cpu_secs: spec.map_cpu_secs(spec.input_bytes) / n
                    + innode_cpu
                    + map_waves as f64 * wave_overhead,
                bytes: spec.input_bytes.max(1),
                flows: PhaseFlows::DiskReadEach,
            },
            JobPhase {
                label: obs::names::SPAN_COPY,
                cpu_secs: fetch_overhead,
                bytes: shuffle,
                flows: PhaseFlows::ShuffleAllToAll,
            },
            JobPhase {
                label: obs::names::SPAN_REDUCE,
                cpu_secs: spec.reduce_cpu_secs(shuffle) / n
                    + cfg.jvm_start.as_secs_f64()
                    + cfg.job_cleanup.as_secs_f64(),
                bytes: output,
                flows: PhaseFlows::WriteReplicated {
                    copies: cfg.replication,
                },
            },
        ],
    }
}

/// Failure-detection latency of the serving master for this stack: a worker
/// is declared lost after missing heartbeats (0.20.2 waits several
/// intervals; the paper's recovery discussion hinges on this being seconds,
/// not milliseconds).
pub fn detect_delay(cfg: &HadoopConfig) -> SimTime {
    SimTime::from_nanos(3 * cfg.heartbeat.as_nanos())
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
    fn plan_shape_and_volumes() {
        let cfg = HadoopConfig::icpp2011(8, 4, 14);
        let spec = wc_like(1 << 30);
        let plan = serve_plan(&cfg, &spec, 8);
        plan.validate();
        assert_eq!(plan.phases.len(), 3);
        assert_eq!(plan.phases[0].bytes, 1 << 30);
        assert_eq!(plan.phases[1].bytes, spec.shuffle_bytes(1 << 30));
        assert_eq!(plan.output_bytes(), spec.output_bytes(plan.phases[1].bytes));
        assert!(plan.setup_secs >= cfg.job_setup.as_secs_f64());
        // More hosts ⇒ less per-host map CPU.
        let wide = serve_plan(&cfg, &spec, 32);
        assert!(wide.phases[0].cpu_secs < plan.phases[0].cpu_secs);
    }

    #[test]
    fn strategies_shrink_the_copy_phase() {
        let cfg = HadoopConfig::icpp2011(8, 4, 14);
        let base = serve_plan(&cfg, &wc_like(1 << 30), 8);

        let mut spec = wc_like(1 << 30);
        spec.shuffle = SimShuffle::InNodeCombine;
        let innode = serve_plan(&cfg, &spec, 8);
        assert!(innode.phases[1].bytes < base.phases[1].bytes);
        // The reducer input shrank too: less reduce CPU.
        assert!(innode.phases[2].cpu_secs < base.phases[2].cpu_secs);
    }

    #[test]
    fn detect_delay_spans_missed_heartbeats() {
        let cfg = HadoopConfig::icpp2011(8, 4, 14);
        assert_eq!(detect_delay(&cfg), SimTime::from_secs(9));
    }
}
