//! Golden tests for the `obs::analysis` run-profile layer over the two
//! Figure-6 simulators. Sim traces carry simulated-time timestamps, so a
//! fixed config + spec must produce a **bit-identical** profile — critical
//! path, attribution table, overlap ratio, JSON bytes — on every run and
//! every machine. These tests are the contract behind the committed
//! `PROFILE_BASELINE.json`: it is gated here, byte for byte, and
//! `cargo xtask trace-diff` is the tool that explains a failure.

use mpid_suite::hadoop_sim::{self, HadoopConfig};
use mpid_suite::mapred::{run_sim_mpid_traced, SimMpidConfig};
use mpid_suite::netsim::JobSpec;
use mpid_suite::obs::analysis::RunProfile;
use mpid_suite::obs::Tracer;
use mpid_suite::workloads::wordcount_spec;
use std::sync::OnceLock;

const GB: u64 = 1 << 30;

/// The 1 GB WordCount spec, measured once per test binary: `wordcount_spec`
/// runs the real mapper over an 8 MB sample, seconds in a debug build.
fn spec() -> JobSpec {
    static SPEC: OnceLock<JobSpec> = OnceLock::new();
    SPEC.get_or_init(|| wordcount_spec(GB)).clone()
}

fn mpid_profile() -> RunProfile {
    let tracer = Tracer::new();
    let _ = run_sim_mpid_traced(
        SimMpidConfig::icpp2011_fig6().with_auto_splits(GB),
        spec(),
        tracer.clone(),
    );
    let trace = tracer.take_trace();
    let metrics = tracer.metrics();
    RunProfile::build(&trace, Some(&metrics), "fig6_mpid_1gb")
}

fn hadoop_profile() -> RunProfile {
    let tracer = Tracer::new();
    let _ = hadoop_sim::run_job_traced(HadoopConfig::icpp2011(7, 7, 7), spec(), tracer.clone());
    let trace = tracer.take_trace();
    let metrics = tracer.metrics();
    RunProfile::build(&trace, Some(&metrics), "fig6_hadoop_1gb")
}

#[test]
fn profile_is_bit_identical_across_runs() {
    let a = mpid_profile().to_json();
    let b = mpid_profile().to_json();
    assert_eq!(a, b, "same seed must give byte-identical profile JSON");
    let ha = hadoop_profile().to_json();
    let hb = hadoop_profile().to_json();
    assert_eq!(ha, hb);
}

/// The committed baseline *is* this profile: critical path, attribution,
/// overlap ratio and the 1 GB `net.solver.*` counters, byte for byte. When
/// this fails, `cargo xtask trace-diff PROFILE_BASELINE.json <fresh>` ranks
/// what moved. After a deliberate model change, regenerate with
///
/// ```sh
/// cargo run --release -p mpid-bench --bin perf -- --quick --filter fig6_mpid_1gb --profile /tmp/p \
///   && cp /tmp/p/fig6_mpid_1gb.profile.json PROFILE_BASELINE.json
/// ```
#[test]
fn committed_profile_baseline_is_current() {
    assert!(
        mpid_profile().to_json() == include_str!("../PROFILE_BASELINE.json"),
        "fig6_mpid_1gb profile differs from PROFILE_BASELINE.json; \
         diff a fresh `perf --profile` against it with `cargo xtask trace-diff`"
    );
}

#[test]
fn mpid_overlap_beats_hadoop() {
    // The paper's mechanism: MPI-D mappers ship their spills while still
    // mapping (producer-side pipelining); Hadoop moves a map output only
    // after the producing task committed it, so its shuffle never overlaps
    // map compute on the producing lane.
    let m = mpid_profile();
    let h = hadoop_profile();
    assert!(
        m.overlap.ratio > h.overlap.ratio,
        "MPI-D overlap {} must exceed Hadoop overlap {}",
        m.overlap.ratio,
        h.overlap.ratio
    );
    assert!(m.overlap.ratio > 0.5, "MPI-D pipelines most of its shuffle");
    assert!(
        h.overlap.shuffle_ns > 0,
        "Hadoop profile must see copy spans"
    );
}

#[test]
fn profile_structure_names_the_pipeline() {
    let m = mpid_profile();
    // Critical path must explain most of the wall clock and end in the
    // reducer tail.
    assert!(m.critical_path.coverage > 0.9);
    assert_eq!(
        m.critical_path.segments.last().map(|s| s.name.as_str()),
        Some("reduce_tail")
    );
    // Every simulated phase appears in the attribution table, and read
    // self-time is disk-dominated while ship self-time is network/blocked.
    let names: Vec<&str> = m.attribution.iter().map(|r| r.name.as_str()).collect();
    for phase in ["read", "map", "ship", "reduce_tail"] {
        assert!(names.contains(&phase), "missing {phase} in {names:?}");
    }
    let read = m.attribution.iter().find(|r| r.name == "read").unwrap();
    assert!(read.disk_ns > read.compute_ns);
    // Utilization timelines sampled from the fluid engine are present.
    assert!(m.utilization.iter().any(|c| c.name == "net.util.disk"));

    let h = hadoop_profile();
    let copy = h.attribution.iter().find(|r| r.name == "copy").unwrap();
    assert!(
        copy.blocked_ns > copy.compute_ns,
        "hadoop copy waits on peers"
    );
}
