//! The detailed simulators and the serve plans describe the same two
//! stacks; here their shuffle volumes are checked against each other
//! (ROADMAP item 9a). Each plan is asked for the detailed simulator's
//! worker count, at Figure 6's sizes 1 and 10 GB, under every strategy.
//!
//! Both descriptions take their volume from the same `JobSpec` terms, so
//! where they agree on co-location they differ only by rounding: the
//! simulators round per split (and Hadoop per reducer partition), the
//! plans round the job total. Where they do not agree on
//! co-location, the gap is pinned as a named constant until item 9 picks
//! one model.

use mpid_suite::hadoop_sim::{self, HadoopConfig};
use mpid_suite::mapred::{self, run_sim_mpid, SimMpidConfig};
use mpid_suite::netsim::{JobPlan, JobSpec, SimShuffle};
use mpid_suite::obs::names::{SPAN_COPY, SPAN_MAP};
use mpid_suite::workloads::wordcount_spec;
use std::sync::OnceLock;

const GB: u64 = 1 << 30;

const STRATEGIES: [SimShuffle; 2] = [SimShuffle::Baseline, SimShuffle::InNodeCombine];

/// MPI-D in-node combining: serve-plan map-phase bytes ÷ the simulator's
/// shuffled bytes, per input size. The plan takes co-location as
/// `ceil(splits / hosts)` of its own 64 MB-capped splits (3 at 1 GB, 23 at
/// 10 GB on 7 hosts); the simulator takes `ceil(mappers / workers)` (49
/// mappers on 7 workers: 7). Pinned to 4 decimals.
const MPID_INNODE_PLAN_OVER_SIM: [(u64, f64); 2] = [(1, 2.1308), (10, 0.4100)];

/// WordCount at `input_bytes` under `shuffle`; the spec's ratios are
/// measured once per test binary.
fn wordcount(input_bytes: u64, shuffle: SimShuffle) -> JobSpec {
    static SPEC: OnceLock<JobSpec> = OnceLock::new();
    JobSpec {
        input_bytes,
        shuffle,
        ..SPEC.get_or_init(|| wordcount_spec(GB)).clone()
    }
}

fn phase_bytes(plan: &JobPlan, label: &str) -> u64 {
    plan.phases
        .iter()
        .find(|p| p.label == label)
        .unwrap_or_else(|| panic!("plan has no {label} phase"))
        .bytes
}

#[test]
fn hadoop_plan_copies_what_the_simulator_fetches() {
    let cfg = HadoopConfig::icpp2011(7, 7, 7);
    for gb in [1, 10] {
        for shuffle in STRATEGIES {
            let spec = wordcount(gb * GB, shuffle);
            let plan = hadoop_sim::serve_plan(&cfg, &spec, cfg.n_workers());
            let sim = hadoop_sim::run_job(cfg.clone(), spec.clone());
            // Rounding bound. Per map: `shuffle_bytes` rounds (½ B), the
            // strategy volume truncates (1 B) and the per-reducer partition
            // truncates (< 1 B per reducer). The plan rounds once (½ B).
            let maps = spec.input_bytes.div_ceil(cfg.block_bytes);
            let reducers = cfg.n_reduces as u64;
            let bound = maps * (reducers + 2) + 1;
            let copy = phase_bytes(&plan, SPAN_COPY);
            assert!(
                copy.abs_diff(sim.shuffle_wire_bytes) <= bound,
                "hadoop {gb} GB {}: plan copies {copy} B, sim fetched {} B (bound {bound})",
                shuffle.label(),
                sim.shuffle_wire_bytes,
            );
        }
    }
}

#[test]
fn mpid_plan_ships_what_the_simulator_shuffles() {
    for gb in [1, 10] {
        let cfg = SimMpidConfig::icpp2011_fig6().with_auto_splits(gb * GB);
        let workers = cfg.cluster.hosts - 1;
        for shuffle in STRATEGIES {
            let spec = wordcount(gb * GB, shuffle);
            let plan = mapred::serve_plan(&cfg, &spec, workers);
            let sim = run_sim_mpid(cfg.clone(), spec.clone());
            // The sim's `wire_bytes` also carries the MPI streaming
            // efficiency, which the plan does not model: compare the
            // reducer-input volume.
            let shuffled = sim.shuffle_bytes as f64;
            let shipped = phase_bytes(&plan, SPAN_MAP) as f64;
            if shuffle == SimShuffle::InNodeCombine {
                let (_, want) = MPID_INNODE_PLAN_OVER_SIM
                    .iter()
                    .copied()
                    .find(|&(g, _)| g == gb)
                    .expect("gap pinned for every size");
                let ratio = shipped / shuffled;
                assert!(
                    (ratio - want).abs() < 1e-4,
                    "mpid {gb} GB innode: plan/sim {ratio:.6}, pinned {want}"
                );
                continue;
            }
            // Rounding bound. Per split: `shuffle_bytes` rounds (½ B) and
            // the strategy volume truncates (1 B). The plan rounds once
            // (½ B).
            let splits = spec.input_bytes.div_ceil(cfg.split_bytes);
            let bound = (2 * splits + 1) as f64;
            assert!(
                (shipped - shuffled).abs() <= bound,
                "mpid {gb} GB {}: plan ships {shipped} B, sim {shuffled} B (bound {bound})",
                shuffle.label(),
            );
        }
    }
}
