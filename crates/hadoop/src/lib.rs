//! # hadoop-sim — a behavioural simulator of Hadoop 0.20.2 MapReduce
//!
//! The paper measures stock Hadoop 0.20.2 on an 8-node Gigabit-Ethernet
//! cluster; this crate reproduces that execution pipeline as a discrete-event
//! simulation over [`netsim`], at the fidelity the paper's experiments need:
//! heartbeat slot scheduling, per-task JVM launch, HDFS block locality,
//! map-side spills through `io.sort.mb`, the HTTP shuffle with per-fetch
//! disk seeks and bounded parallel copies, reduce-side merging, and
//! slot-limited task waves.
//!
//! Entry point: [`run_job`] with a [`HadoopConfig`] (deployment knobs) and a
//! [`netsim::JobSpec`] (workload volumes/costs); result: a [`JobReport`]
//! with per-task phase timings — the raw material of the paper's Figure 1,
//! Table I and the Hadoop side of Figure 6.

#![warn(missing_docs)]

pub mod config;
pub mod hdfs;
pub mod report;
pub mod serveplan;
pub mod sim;

pub use config::HadoopConfig;
pub use hdfs::{BlockId, NameNode};
pub use report::{JobReport, MapSpan, ReduceSpan};
pub use serveplan::serve_plan;
pub use sim::{run_job, run_job_faulty, run_job_faulty_traced, run_job_traced};

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimTime;
    use netsim::{JobSpec, SimShuffle};

    /// A small sort-like workload (identity map, shuffle everything).
    fn sort_spec(gb: f64) -> JobSpec {
        JobSpec {
            name: "sort".into(),
            input_bytes: (gb * (1 << 30) as f64) as u64,
            record_bytes: 100,
            map_cpu_ns_per_byte: 60.0,
            map_output_ratio: 1.0,
            combine_ratio: 1.0,
            combine_cpu_ns_per_byte: 0.0,
            reduce_cpu_ns_per_byte: 40.0,
            output_ratio: 1.0,
            shuffle: SimShuffle::Baseline,
        }
    }

    /// A WordCount-like workload (combiner shrinks output dramatically).
    fn wc_spec(gb: f64) -> JobSpec {
        JobSpec {
            name: "wordcount".into(),
            input_bytes: (gb * (1 << 30) as f64) as u64,
            record_bytes: 80,
            map_cpu_ns_per_byte: 800.0,
            map_output_ratio: 1.6,
            combine_ratio: 0.012,
            combine_cpu_ns_per_byte: 30.0,
            reduce_cpu_ns_per_byte: 100.0,
            output_ratio: 1.0,
            shuffle: SimShuffle::Baseline,
        }
    }

    #[test]
    fn small_sort_job_completes_with_sane_report() {
        let cfg = HadoopConfig::icpp2011(4, 4, 8);
        let report = run_job(cfg, sort_spec(1.0));
        assert_eq!(report.maps.len(), 16); // 1 GB / 64 MB
        assert_eq!(report.reduces.len(), 8);
        assert!(report.makespan > SimTime::from_secs(10));
        assert!(report.makespan < SimTime::from_secs(2000));
        for m in &report.maps {
            assert!(m.end > m.start);
        }
        for r in &report.reduces {
            assert!(r.end > r.start);
            assert!(r.copy > SimTime::ZERO);
            assert!(r.reduce > SimTime::ZERO);
            // Phases fit inside the span.
            assert!(r.copy + r.sort + r.reduce <= r.duration() + SimTime::from_secs(1));
        }
    }

    #[test]
    fn shuffle_strategies_trade_wire_for_map_work() {
        let base = run_job(HadoopConfig::icpp2011(4, 4, 8), wc_spec(1.0));
        assert!(base.shuffle_wire_bytes > 0);

        // In-node combining across the 4 co-running map slots shrinks what
        // the copy phase moves.
        let mut spec = wc_spec(1.0);
        spec.shuffle = SimShuffle::InNodeCombine;
        let innode = run_job(HadoopConfig::icpp2011(4, 4, 8), spec);
        assert!(
            innode.shuffle_wire_bytes < base.shuffle_wire_bytes,
            "innode {} !< base {}",
            innode.shuffle_wire_bytes,
            base.shuffle_wire_bytes
        );
    }

    #[test]
    fn rack_topology_slows_the_copy_phase() {
        let flat = run_job(HadoopConfig::icpp2011(4, 4, 8), wc_spec(1.0));
        let mut cfg = HadoopConfig::icpp2011(4, 4, 8);
        let nic = cfg.cluster.nic_bytes_per_sec;
        cfg.cluster.rack = Some(netsim::RackLayout::oversubscribed(4, nic, 8.0));
        let racked = run_job(cfg, wc_spec(1.0));
        // Same logical volume crosses the wire; the oversubscribed core
        // only slows it down.
        assert_eq!(racked.shuffle_wire_bytes, flat.shuffle_wire_bytes);
        assert!(racked.makespan >= flat.makespan);
    }

    #[test]
    fn traced_run_covers_every_task_without_perturbing_the_sim() {
        let cfg = HadoopConfig::icpp2011(4, 4, 8);
        let plain = run_job(cfg.clone(), sort_spec(1.0));
        let tracer = obs::Tracer::new();
        let traced = run_job_traced(cfg, sort_spec(1.0), tracer.clone());
        // Tracing is observation only: identical results.
        assert_eq!(plain.makespan, traced.makespan);
        let trace = tracer.take_trace();
        let count = |name: &str| {
            trace
                .events()
                .iter()
                .filter(|e| e.name == name && e.cat == "hadoop.phase")
                .count()
        };
        assert_eq!(count("map"), traced.maps.len());
        assert_eq!(count("copy"), traced.reduces.len());
        assert_eq!(count("sort"), traced.reduces.len());
        assert_eq!(count("reduce"), traced.reduces.len());
        // Every worker lane hosts at least one phase span.
        for pid in 1..=4u32 {
            assert!(
                trace
                    .events()
                    .iter()
                    .any(|e| e.pid == pid && e.cat == "hadoop.phase"),
                "no phase span on worker {pid}"
            );
        }
        // The trace alone reproduces the Table I shape: copy dominates the
        // reduce-side phases.
        let bd = obs::report::PhaseBreakdown::from_trace(&trace, "hadoop.phase");
        assert!(bd.share_of("copy") > bd.share_of("sort"));
        assert!(bd.row("map").is_some());
        // Network flow spans ride along on the same tracer.
        assert!(trace.events().iter().any(|e| e.cat == "net.flow"));
    }

    #[test]
    fn trace_export_is_byte_identical_across_runs() {
        // Same config + spec (the sim RNG is seeded from them) must give a
        // byte-identical Chrome export: timestamps are sim-time, event
        // ordering is a stable sort, and metadata maps are BTreeMaps.
        let export = || {
            let tracer = obs::Tracer::new();
            run_job_traced(
                HadoopConfig::icpp2011(4, 4, 8),
                sort_spec(1.0),
                tracer.clone(),
            );
            tracer.chrome_json()
        };
        let a = export();
        let b = export();
        assert!(a == b, "chrome export must be deterministic");
        obs::chrome::validate(&a).expect("export must be valid JSON");
    }

    #[test]
    fn job_time_grows_with_input() {
        let t1 = run_job(HadoopConfig::icpp2011(4, 4, 8), wc_spec(0.5)).makespan;
        let t2 = run_job(HadoopConfig::icpp2011(4, 4, 8), wc_spec(2.0)).makespan;
        assert!(t2 > t1, "4x input must take longer: {t1} vs {t2}");
    }

    #[test]
    fn fixed_overhead_dominates_tiny_jobs() {
        // A near-empty job still pays setup + scheduling + JVM + cleanup.
        let report = run_job(HadoopConfig::icpp2011(4, 4, 1), wc_spec(0.01));
        assert!(
            report.makespan > SimTime::from_secs(10),
            "tiny job finished too fast: {}",
            report.makespan
        );
    }

    #[test]
    fn locality_is_high_with_round_robin_blocks() {
        let report = run_job(HadoopConfig::icpp2011(4, 4, 8), sort_spec(2.0));
        assert!(
            report.map_locality() > 0.8,
            "locality {}",
            report.map_locality()
        );
    }

    #[test]
    fn many_reducer_waves_have_bounded_copy_after_first_wave() {
        // 2 GB sort with 200 reducers on 28 reduce slots → ≥7 waves. The
        // first wave waits for the map phase (huge copy); later waves only
        // pay fetch costs.
        let mut cfg = HadoopConfig::icpp2011(4, 4, 200);
        cfg.slowstart = 0.05;
        let report = run_job(cfg, sort_spec(2.0));
        let trimmed = report.without_top_copy_outliers(28);
        let first_wave_max = report.reduces.iter().map(|r| r.copy).max().unwrap();
        let trimmed_max = trimmed.reduces.iter().map(|r| r.copy).max().unwrap();
        assert!(
            first_wave_max > trimmed_max * 2,
            "first wave should wait for maps: {first_wave_max} vs {trimmed_max}"
        );
    }

    #[test]
    fn copy_fraction_grows_with_input_size_for_sort() {
        // The Table I trend: bigger inputs → copy stage takes a larger share.
        let small = run_job(HadoopConfig::icpp2011(8, 8, 64), sort_spec(1.0));
        let large = run_job(HadoopConfig::icpp2011(8, 8, 64), sort_spec(8.0));
        assert!(
            large.copy_fraction() > small.copy_fraction() * 0.9,
            "copy fraction should not shrink much with size: {} vs {}",
            small.copy_fraction(),
            large.copy_fraction()
        );
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let a = run_job(HadoopConfig::icpp2011(4, 2, 8), sort_spec(1.0));
        let b = run_job(HadoopConfig::icpp2011(4, 2, 8), sort_spec(1.0));
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.maps.len(), b.maps.len());
        for (x, y) in a.reduces.iter().zip(&b.reduces) {
            assert_eq!(x.copy, y.copy);
            assert_eq!(x.end, y.end);
        }
    }

    #[test]
    fn more_slots_speed_up_map_bound_jobs() {
        // Disable straggler randomness so the comparison isolates slots.
        let mut slow_cfg = HadoopConfig::icpp2011(2, 2, 8);
        slow_cfg.straggler_prob = 0.0;
        let mut fast_cfg = HadoopConfig::icpp2011(8, 8, 8);
        fast_cfg.straggler_prob = 0.0;
        let slow = run_job(slow_cfg, wc_spec(4.0)).makespan;
        let fast = run_job(fast_cfg, wc_spec(4.0)).makespan;
        assert!(
            fast.as_secs_f64() < slow.as_secs_f64() * 0.7,
            "more slots should help: {fast} vs {slow}"
        );
    }

    #[test]
    fn speculation_masks_stragglers() {
        // Heavy stragglers on a single-wave job: speculation should cut the
        // tail substantially.
        let mut on = HadoopConfig::icpp2011(8, 8, 8);
        on.straggler_prob = 0.15;
        on.straggler_factor = 6.0;
        let mut off = on.clone();
        off.speculative = false;
        let with = run_job(on, wc_spec(2.0));
        let without = run_job(off, wc_spec(2.0));
        assert!(
            with.speculative_launched > 0,
            "expected speculative attempts"
        );
        assert!(
            with.makespan.as_secs_f64() < without.makespan.as_secs_f64() * 0.95,
            "speculation should shorten the tail: {} vs {}",
            with.makespan,
            without.makespan
        );
    }

    #[test]
    fn replication_one_reduces_locality() {
        let mut r1 = HadoopConfig::icpp2011(8, 8, 8);
        r1.replication = 1;
        r1.straggler_prob = 0.0;
        let mut r3 = HadoopConfig::icpp2011(8, 8, 8);
        r3.straggler_prob = 0.0;
        let loc1 = run_job(r1, sort_spec(2.0)).map_locality();
        let loc3 = run_job(r3, sort_spec(2.0)).map_locality();
        assert!(
            loc3 >= loc1,
            "more replicas cannot hurt locality: {loc1} vs {loc3}"
        );
        assert!(loc3 > 0.8, "r=3 locality should be high: {loc3}");
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use netsim::{JobSpec, SimShuffle};

    fn spec() -> JobSpec {
        JobSpec {
            name: "wc".into(),
            input_bytes: 1 << 30,
            record_bytes: 80,
            map_cpu_ns_per_byte: 200.0,
            map_output_ratio: 1.6,
            combine_ratio: 0.02,
            combine_cpu_ns_per_byte: 0.0,
            reduce_cpu_ns_per_byte: 50.0,
            output_ratio: 1.0,
            shuffle: SimShuffle::Baseline,
        }
    }

    #[test]
    fn failed_attempts_are_retried_and_job_completes() {
        let mut cfg = HadoopConfig::icpp2011(4, 4, 4);
        cfg.task_failure_prob = 0.25;
        cfg.straggler_prob = 0.0;
        // 0.25^4 per task is ~0.4%, which across 16 tasks still fails one
        // seed in ~16 — give the retry budget headroom so the test pins the
        // retry mechanism, not the seed.
        cfg.max_task_attempts = 8;
        let report = run_job(cfg, spec());
        assert!(
            !report.job_failed,
            "25% failures must be absorbed by retries"
        );
        assert!(
            report.failed_map_attempts > 0,
            "expected some injected failures"
        );
        assert_eq!(report.maps.len(), 16, "every map eventually succeeds");
    }

    #[test]
    fn failures_slow_the_job_down() {
        let mut healthy = HadoopConfig::icpp2011(4, 4, 4);
        healthy.straggler_prob = 0.0;
        let mut flaky = healthy.clone();
        flaky.task_failure_prob = 0.3;
        let t_healthy = run_job(healthy, spec()).makespan;
        let t_flaky = run_job(flaky, spec()).makespan;
        assert!(
            t_flaky > t_healthy,
            "retries must cost time: {t_healthy} vs {t_flaky}"
        );
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_plain_run() {
        let cfg = HadoopConfig::icpp2011(4, 4, 4);
        let plain = run_job(cfg.clone(), spec());
        let faulty = run_job_faulty(cfg, spec(), faults::FaultPlan::none());
        assert_eq!(plain.makespan, faulty.makespan);
        assert_eq!(plain.maps.len(), faulty.maps.len());
        for (a, b) in plain.reduces.iter().zip(&faulty.reduces) {
            assert_eq!(a.end, b.end);
            assert_eq!(a.copy, b.copy);
        }
    }

    #[test]
    fn worker_crash_is_recovered_by_reexecution() {
        let mut cfg = HadoopConfig::icpp2011(4, 4, 4);
        cfg.straggler_prob = 0.0;
        let healthy = run_job(cfg.clone(), spec());
        // Kill worker host 3 mid-job (well inside the map phase).
        let crash_at = desim::SimTime::from_secs_f64(healthy.makespan.as_secs_f64() * 0.4);
        let plan = faults::FaultPlan::builder().crash(crash_at, 3).build();
        let report = run_job_faulty(cfg, spec(), plan);
        assert!(!report.job_failed, "crash must be absorbed, not fatal");
        assert_eq!(report.crashed_workers, 1);
        assert!(
            report.maps.len() >= 16,
            "all 16 splits commit (plus re-executions): {}",
            report.maps.len()
        );
        assert!(
            report.makespan > healthy.makespan,
            "losing a worker must cost time: {} vs {}",
            healthy.makespan,
            report.makespan
        );
        assert!(
            report.makespan.as_secs_f64() < healthy.makespan.as_secs_f64() * 3.0,
            "recovery should bound the slowdown: {} vs {}",
            healthy.makespan,
            report.makespan
        );
        // Deterministic replay: same plan, same result.
        let crash_at2 = desim::SimTime::from_secs_f64(healthy.makespan.as_secs_f64() * 0.4);
        let plan2 = faults::FaultPlan::builder().crash(crash_at2, 3).build();
        let again = run_job_faulty(
            {
                let mut c = HadoopConfig::icpp2011(4, 4, 4);
                c.straggler_prob = 0.0;
                c
            },
            spec(),
            plan2,
        );
        assert_eq!(report.makespan, again.makespan);
    }

    #[test]
    fn certain_failure_fails_the_job_after_max_attempts() {
        let mut cfg = HadoopConfig::icpp2011(4, 4, 4);
        cfg.task_failure_prob = 1.0;
        cfg.max_task_attempts = 3;
        let report = run_job(cfg, spec());
        assert!(report.job_failed, "always-failing maps must fail the job");
        // The failing task burned through its attempt budget.
        assert!(report.failed_map_attempts >= 3);
    }
}
