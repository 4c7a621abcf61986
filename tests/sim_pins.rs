//! Exact pins of the two cluster simulators beyond Figure 6's fault-free
//! baseline: every shuffle strategy on `figshuffle`'s 4:1 rack shape, and
//! faulty runs of each stack. Like `fig6_makespans_are_pinned_to_the_nanosecond`
//! these are deterministic functions of (config, spec, plan), so they hold
//! on every machine. A refactor that claims "byte-identical sims" is held to
//! them; a deliberate model change updates the row it moved and says so in
//! EXPERIMENTS.md.

use faults::FaultPlan;
use mpid_suite::desim::SimTime;
use mpid_suite::hadoop_sim::{self, HadoopConfig};
use mpid_suite::mapred::{run_sim_mpid, run_sim_mpid_ft, FtOutcome, MpidFtMode, SimMpidConfig};
use mpid_suite::netsim::{ClusterSpec, JobSpec, RackLayout, SimShuffle};
use mpid_suite::workloads::wordcount_spec;
use std::sync::OnceLock;

const GB: u64 = 1 << 30;

/// 1 GB WordCount under `shuffle`. The spec's ratios are measured from a
/// fixed sample (seconds in a debug build), so it is measured once.
fn wordcount(shuffle: SimShuffle) -> JobSpec {
    static SPEC: OnceLock<JobSpec> = OnceLock::new();
    JobSpec {
        shuffle,
        ..SPEC.get_or_init(|| wordcount_spec(GB)).clone()
    }
}

/// `figshuffle`'s topology: racks of 4 hosts behind a 4:1 oversubscribed
/// core.
fn rack() -> RackLayout {
    let nic = ClusterSpec::icpp2011_testbed().nic_bytes_per_sec;
    RackLayout::oversubscribed(4, nic, 4.0)
}

/// `figshuffle`'s Hadoop cell: 4 map slots per tracker, 8 reducers, no
/// sampled stragglers.
fn hadoop_racked() -> HadoopConfig {
    let mut cfg = HadoopConfig::icpp2011(4, 4, 8);
    cfg.cluster.rack = Some(rack());
    cfg.straggler_prob = 0.0;
    cfg.speculative = false;
    cfg
}

/// `figshuffle`'s MPI-D cell: 4 mapper processes per worker, 4 reducers.
fn mpid_racked() -> SimMpidConfig {
    let mut cfg = SimMpidConfig::icpp2011_fig6();
    cfg.n_mappers = 28;
    cfg.n_reducers = 4;
    cfg.cluster.rack = Some(rack());
    cfg.with_auto_splits(GB)
}

#[test]
fn strategy_runs_on_the_rack_shape_are_pinned() {
    // (stack, strategy, shuffle wire bytes, makespan ns)
    const PINNED: [(&str, &str, u64, u64); 4] = [
        ("hadoop", "baseline", 92_145_664, 79_918_339_227),
        ("hadoop", "innode", 24_760_832, 78_792_237_521),
        ("mpid", "baseline", 92_178_244, 10_316_907_363),
        ("mpid", "innode", 24_769_808, 10_170_408_921),
    ];
    let strategies = [SimShuffle::Baseline, SimShuffle::InNodeCombine];
    let mut got = Vec::new();
    for shuffle in strategies {
        let r = hadoop_sim::run_job(hadoop_racked(), wordcount(shuffle));
        got.push((
            "hadoop",
            shuffle.label(),
            r.shuffle_wire_bytes,
            r.makespan.as_nanos(),
        ));
    }
    for shuffle in strategies {
        let r = run_sim_mpid(mpid_racked(), wordcount(shuffle));
        got.push(("mpid", shuffle.label(), r.wire_bytes, r.makespan.as_nanos()));
    }
    assert_eq!(got, PINNED, "a strategy run moved");
}

#[test]
fn hadoop_faulty_run_is_pinned() {
    // A degraded disk, a degraded NIC, a partition that heals mid-job and
    // one worker crash, on the Figure 6 deployment.
    let plan = FaultPlan::builder()
        .disk_slowdown(SimTime::from_secs(10), 2, 0.3)
        .nic_degrade(SimTime::from_secs(12), 4, 0.5)
        .partition(SimTime::from_secs(15), 3, 5, SimTime::from_secs(40))
        .crash(SimTime::from_secs(65), 6)
        .build();
    let r = hadoop_sim::run_job_faulty(
        HadoopConfig::icpp2011(7, 7, 7),
        wordcount(SimShuffle::Baseline),
        plan,
    );
    assert!(!r.job_failed);
    // (makespan ns, committed maps, crashed workers, maps re-executed,
    //  reduces restarted, speculative launched, speculative wasted,
    //  shuffle wire bytes)
    let got = (
        r.makespan.as_nanos(),
        r.maps.len(),
        r.crashed_workers,
        r.maps_reexecuted,
        r.restarted_reduces,
        r.speculative_launched,
        r.speculative_wasted,
        r.shuffle_wire_bytes,
    );
    assert_eq!(
        got,
        (112_485_644_680, 18, 1, 2, 1, 0, 0, 97_904_751),
        "the faulty Hadoop run moved"
    );
}

#[test]
fn hadoop_crash_during_shuffle_is_pinned() {
    // 10 GB WordCount (160 maps) with host 4 crashing at 112.112 s. In the
    // fault-free run host 4 commits a map output at ~112.05 s and all seven
    // reducers fetch it for ~117 ms, so the crash lands on six fetch batches
    // of surviving reducers (their claims are released) and on eight
    // committed outputs stored on host 4 (invalidated and re-executed).
    let spec = JobSpec {
        input_bytes: 10 * GB,
        ..wordcount(SimShuffle::Baseline)
    };
    let plan = FaultPlan::builder()
        .crash(SimTime::from_nanos(112_112_000_000), 4)
        .build();
    let r = hadoop_sim::run_job_faulty(HadoopConfig::icpp2011(7, 7, 7), spec, plan);
    assert!(!r.job_failed);
    // (makespan ns, maps re-executed, reduces restarted, shuffle wire bytes)
    let got = (
        r.makespan.as_nanos(),
        r.maps_reexecuted,
        r.restarted_reduces,
        r.shuffle_wire_bytes,
    );
    assert_eq!(
        got,
        (352_919_891_361, 8, 1, 976_579_323),
        "the crash-during-shuffle Hadoop run moved"
    );
    let copies: Vec<u64> = r.reduces.iter().map(|s| s.copy.as_nanos()).collect();
    assert_eq!(
        copies,
        [
            213_873_961_168,
            270_654_311_831,
            270_181_076_833,
            269_636_068_252,
            269_361_771_307,
            268_995_366_013,
            268_365_736_210,
        ],
        "a reducer's copy stage moved"
    );
}

#[test]
fn mpid_checkpointed_faulty_run_is_pinned() {
    // The same fault mix on MPI-D's seconds-long job, with the crash
    // absorbed by barrier checkpoints every 8 splits. Host 7 is left alone:
    // the restart drops it from the surviving cluster.
    let plan = FaultPlan::builder()
        .disk_slowdown(SimTime::from_millis(1000), 2, 0.3)
        .nic_degrade(SimTime::from_millis(1500), 4, 0.5)
        .partition(SimTime::from_millis(2000), 3, 5, SimTime::from_millis(4000))
        .crash(SimTime::from_millis(3000), 6)
        .build();
    let r = run_sim_mpid_ft(
        SimMpidConfig::icpp2011_fig6().with_auto_splits(GB),
        wordcount(SimShuffle::Baseline),
        plan,
        MpidFtMode::Checkpoint { interval_splits: 8 },
    );
    let FtOutcome::Completed { makespan } = r.outcome else {
        panic!("checkpointed MPI-D must complete: {:?}", r.outcome);
    };
    // (makespan ns, supersteps, restarts, checkpoint overhead ns, wasted ns)
    let got = (
        makespan.as_nanos(),
        r.supersteps,
        r.restarts,
        r.checkpoint_overhead.as_nanos(),
        r.wasted.as_nanos(),
    );
    assert_eq!(
        got,
        (45_480_175_856, 7, 1, 1_425_325_756, 3_000_000_000),
        "the faulty MPI-D run moved"
    );
}
