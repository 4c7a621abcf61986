//! Shape tests for the paper's tables and figures, at CI-friendly scale.
//! The full-scale reproductions are the `fig1`/`table1`/`fig2`/`fig3`/`fig6`
//! binaries in `crates/bench`; these tests pin the *trends* so a regression
//! in any simulator is caught by `cargo test`.

use mpid_suite::hadoop_sim::{self, HadoopConfig};
use mpid_suite::mapred::{run_sim_mpid, SimMpidConfig};
use mpid_suite::netsim::{HadoopRpcModel, JettyHttpModel, JobSpec, MpiModel, Transport};
use mpid_suite::workloads::{javasort_spec, wordcount_spec};

const GB: u64 = 1 << 30;

// ---------- Figure 2: latency anchors ----------

#[test]
fn fig2_latency_ratios_match_paper_anchors() {
    let mpi = MpiModel::default();
    let rpc = HadoopRpcModel::default();
    let ratio =
        |b: u64| rpc.one_way_latency(b).as_secs_f64() / mpi.one_way_latency(b).as_secs_f64();
    assert!((ratio(1) - 2.49).abs() < 0.1, "1B: {}", ratio(1));
    assert!(
        (ratio(1 << 10) - 15.1).abs() < 0.5,
        "1KB: {}",
        ratio(1 << 10)
    );
    assert!(
        ratio(512 << 10) > 100.0,
        "beyond 256KB: {}",
        ratio(512 << 10)
    );
    assert!(
        ratio(1 << 20) > 115.0 && ratio(1 << 20) < 130.0,
        "1MB: {}",
        ratio(1 << 20)
    );
}

#[test]
fn fig2_absolute_anchor_points() {
    let mpi = MpiModel::default();
    let rpc = HadoopRpcModel::default();
    assert!((mpi.one_way_latency(1 << 20).as_millis_f64() - 10.3).abs() < 0.1);
    assert!((mpi.one_way_latency(64 << 20).as_millis_f64() - 572.0).abs() < 5.0);
    assert!((rpc.one_way_latency(1 << 20).as_millis_f64() - 1259.0).abs() < 10.0);
    assert!((rpc.one_way_latency(64 << 20).as_millis_f64() - 56_827.0).abs() < 500.0);
}

// ---------- Figure 3: bandwidth shape ----------

#[test]
fn fig3_bandwidth_ordering_and_peaks() {
    let total = 128 << 20;
    let mpi = MpiModel::default();
    let jetty = JettyHttpModel::default();
    let rpc = HadoopRpcModel::default();
    let rpc_peak = rpc.effective_bandwidth(total, 64 << 20);
    let jetty_peak = jetty.effective_bandwidth(total, 64 << 20);
    let mpi_peak = mpi.effective_bandwidth(total, 64 << 20);
    // "about 100 times" RPC; "about 2%-3%" over Jetty.
    assert!(rpc_peak < 1.5e6);
    assert!(mpi_peak / rpc_peak > 50.0);
    let adv = mpi_peak / jetty_peak - 1.0;
    assert!((0.015..=0.04).contains(&adv), "MPI advantage {adv}");
}

// ---------- Table I: copy share grows with input ----------

#[test]
fn table1_copy_share_grows_with_input() {
    let share = |gb: u64, n_red: usize| {
        let report =
            hadoop_sim::run_job(HadoopConfig::icpp2011(8, 8, n_red), javasort_spec(gb * GB));
        report.copy_fraction()
    };
    let small = share(1, 16);
    let large = share(8, 128);
    assert!(large > small, "copy share must grow: {small} -> {large}");
    assert!(
        large > 0.3,
        "8GB/128-reducer run must already be copy-heavy: {large}"
    );
}

// ---------- Figure 1: first-wave outliers & copy dominance ----------

#[test]
fn fig1_first_wave_reducers_are_outliers() {
    let report = hadoop_sim::run_job(HadoopConfig::icpp2011(8, 8, 300), javasort_spec(10 * GB));
    let slots = 56;
    let trimmed = report.without_top_copy_outliers(slots);
    let worst = report.reduces.iter().map(|r| r.copy).max().unwrap();
    let trimmed_max = trimmed.reduces.iter().map(|r| r.copy).max().unwrap();
    assert!(
        worst.as_secs_f64() > 2.0 * trimmed_max.as_secs_f64(),
        "first wave {worst} vs rest {trimmed_max}"
    );
    // Sort stage is in-memory and near-instant.
    let sort = trimmed.reduce_phase_stats(|r| r.sort);
    assert!(sort.mean() < 0.05);
    // Exact pins: most of the 300 copiers start after many map outputs are
    // already ready, a shuffle path the 7-reducer Figure 6 jobs never take.
    assert_eq!(
        report.makespan.as_nanos(),
        209_372_775_210,
        "makespan moved"
    );
    let copy_ns: u64 = report.reduces.iter().map(|r| r.copy.as_nanos()).sum();
    assert_eq!(copy_ns, 3_389_176_478_055, "summed copy time moved");
}

// ---------- Figure 6: MPI-D wins, advantage narrows ----------

#[test]
fn fig6_mpid_beats_hadoop_and_ratio_grows() {
    let point = |gb: u64| {
        let spec = wordcount_spec(gb * GB);
        let h = hadoop_sim::run_job(HadoopConfig::icpp2011(7, 7, 7), spec.clone())
            .makespan
            .as_secs_f64();
        let m = run_sim_mpid(
            SimMpidConfig::icpp2011_fig6().with_auto_splits(gb * GB),
            spec,
        )
        .makespan
        .as_secs_f64();
        (h, m)
    };
    let (h1, m1) = point(1);
    let (h8, m8) = point(8);
    assert!(m1 < h1, "1GB: {m1} vs {h1}");
    assert!(m8 < h8, "8GB: {m8} vs {h8}");
    // At 1 GB Hadoop's fixed overheads dominate: MPI-D is several times
    // faster; at 8 GB the gap narrows.
    assert!(m1 / h1 < 0.35, "1GB ratio {}", m1 / h1);
    assert!(m8 / h8 > m1 / h1, "ratio must grow with size");
}

#[test]
fn fig6_hadoop_floor_at_tiny_input() {
    // Even a near-empty job pays setup, heartbeats, JVMs — the mechanism
    // behind MPI-D's 12x win at 1 GB.
    let spec = wordcount_spec(64 << 20);
    let h = hadoop_sim::run_job(HadoopConfig::icpp2011(7, 7, 1), spec.clone());
    let m = run_sim_mpid(
        SimMpidConfig::icpp2011_fig6().with_auto_splits(64 << 20),
        spec,
    );
    assert!(h.makespan.as_secs_f64() > 10.0);
    assert!(m.makespan.as_secs_f64() < h.makespan.as_secs_f64() / 3.0);
}

/// The six Figure-6 simulated makespans, exact to the nanosecond. Both
/// simulators are deterministic functions of (config, spec), so these hold
/// on every machine; a refactor that claims "byte-identical sims" is held
/// to this table. A deliberate model change updates the constant it moved
/// and says so in EXPERIMENTS.md.
#[test]
fn fig6_makespans_are_pinned_to_the_nanosecond() {
    // (GB, Hadoop makespan ns, MPI-D makespan ns)
    const PINNED: [(u64, u64, u64); 3] = [
        (1, 80_117_318_688, 7_563_136_699),
        (10, 246_595_060_630, 114_684_964_038),
        (100, 2_166_104_079_384, 1_184_776_327_910),
    ];
    // The spec's ratios are measured from a fixed sample and do not depend
    // on the size; measure once (seconds in a debug build).
    let base = wordcount_spec(GB);
    for (gb, hadoop_ns, mpid_ns) in PINNED {
        let spec = JobSpec {
            input_bytes: gb * GB,
            ..base.clone()
        };
        let h = hadoop_sim::run_job(HadoopConfig::icpp2011(7, 7, 7), spec.clone());
        assert_eq!(
            h.makespan.as_nanos(),
            hadoop_ns,
            "{gb} GB Hadoop makespan moved"
        );
        let m = run_sim_mpid(
            SimMpidConfig::icpp2011_fig6().with_auto_splits(gb * GB),
            spec,
        );
        assert_eq!(
            m.makespan.as_nanos(),
            mpid_ns,
            "{gb} GB MPI-D makespan moved"
        );
    }
}
