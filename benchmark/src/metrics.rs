//! The benchmark's contract as tables: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` is [`spec`] written out; `--smoke`
//! and a unit test fail when the two differ.

use crate::json::Value;
use std::collections::BTreeMap;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 11;
/// A seed to check a claim on that was not used while a change was written.
pub const HELD_OUT_SEED: u64 = 1213;
/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "wc_zipf",
        why: "Combiner folds ~92 % of pairs: sender hash/combine does most of the work, wire and merge almost none.",
    },
    WorkloadDef {
        name: "distinct_keys",
        why: "Combiner never fires: table insert, realign, full wire and the receiver sort/merge dominate; sender combine is bypassed.",
    },
    WorkloadDef {
        name: "large_values",
        why: "Few records, many bytes: realign copies and mpi-rt rendezvous transfers dominate; hashing and merge are bypassed.",
    },
    WorkloadDef {
        name: "distinct_keys_bounded",
        why: "Same receiver layer used differently (windowed spill through extmerge and disk, not the in-memory merge), so a gain for one that costs the other shows.",
    },
    WorkloadDef {
        name: "wc_zipf_1x1_t1",
        why: "Plain single-mapper/single-reducer run of the wc_zipf problem: the denominator for rank and thread scaling.",
    },
    WorkloadDef {
        name: "wc_zipf_1x1_t2",
        why: "The sender-shard / range-merge path (threads = 2); its ratio to wc_zipf_1x1_t1 is the thread-scaling figure.",
    },
    WorkloadDef {
        name: "sim_fig6",
        why: "Stack models (hadoop-sim, mapred::sim) over netsim/desim at the paper's Figure 6 points; no real data path runs.",
    },
    WorkloadDef {
        name: "sim_flow_churn",
        why: "Fluid solver and event queue with no stack model on top: where a solver change shows and a stack-model change must not.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const JOB_MB_PER_S: &str = "job_mb_per_s";
pub const WIRE_RATIO: &str = "wire_ratio";

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: JOB_MB_PER_S,
        unit: "MB/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: WIRE_RATIO,
        unit: "ratio",
        better: "lower",
        bound: 0.02,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// Exact counts have no better direction of their own; they are listed as
/// "lower" because each counts work done.
pub const PER_LAYER: &[Layer] = &[
    layer("mapred.local_mb_per_s", "MB/s", "higher"),
    layer("mapred.map_phase_s", "s", "lower"),
    layer("mapred.reduce_tail_s", "s", "lower"),
    layer("mpid.master.serve_s", "s", "lower"),
    layer("mpid.master.split_wait_s", "s", "lower"),
    layer("mpid.sender.send_loop_s", "s", "lower"),
    layer("mpid.sender.finish_s", "s", "lower"),
    layer("mpid.sender.pairs_in", "count", "lower"),
    layer("mpid.sender.spills", "count", "lower"),
    layer("mpid.sender.frames", "count", "lower"),
    layer("mpid.sender.combine_ratio", "ratio", "lower"),
    layer("mpid.sender.wire_bytes", "bytes", "lower"),
    layer("mpid.realign.build_mb_per_s", "MB/s", "higher"),
    layer("mpid.realign.parse_mb_per_s", "MB/s", "higher"),
    layer("mpid.receiver.first_recv_s", "s", "lower"),
    layer("mpid.receiver.merge_tail_s", "s", "lower"),
    layer("mpid.receiver.drain_s", "s", "lower"),
    layer("mpid.receiver.groups_in", "count", "lower"),
    layer("mpid.receiver.distinct_keys", "count", "lower"),
    layer("mpid.extmerge.groups_per_s", "groups/s", "higher"),
    layer("mpid.extmerge.spilled_runs", "count", "lower"),
    layer("mpid.pool.high_water_mb", "MB", "lower"),
    layer("mpid.pool.forced", "count", "lower"),
    layer("mpid.world.finalize_s", "s", "lower"),
    layer("mpirt.p2p.eager_rtt_ns", "ns", "lower"),
    layer("mpirt.p2p.rndv_mb_per_s", "MB/s", "higher"),
    layer("mpirt.universe.spawn_join_us", "us", "lower"),
    layer("mpirt.msgs", "count", "lower"),
    layer("mpirt.bytes", "bytes", "lower"),
    layer("desim.queue.events_per_s", "events/s", "higher"),
    layer("netsim.flows_per_s", "flows/s", "higher"),
    layer("netsim.solver.recomputes", "count", "lower"),
    layer("netsim.solver.resources_swept", "count", "lower"),
    layer("netsim.solver.flows_rerated", "count", "lower"),
    layer("netsim.solver.fig6_resources_swept", "count", "lower"),
    layer("hadoop-sim.wall_ms_1gb", "ms", "lower"),
    layer("hadoop-sim.wall_ms_10gb", "ms", "lower"),
    layer("hadoop-sim.wall_ms_100gb", "ms", "lower"),
    layer("mapred.sim.wall_ms_1gb", "ms", "lower"),
    layer("mapred.sim.wall_ms_10gb", "ms", "lower"),
    layer("mapred.sim.wall_ms_100gb", "ms", "lower"),
    // Simulated seconds: exact, and the same on every run by design.
    layer("hadoop-sim.makespan_s_100gb", "sim_s", "lower"),
    layer("mapred.sim.makespan_s_100gb", "sim_s", "lower"),
    layer("obs.real_trace_overhead_share", "share", "lower"),
    layer("obs.sim_trace_overhead_share", "share", "lower"),
    layer("harness.reps", "count", "higher"),
    layer("harness.wall_median_s", "s", "lower"),
    layer("harness.wall_p75_s", "s", "lower"),
    layer("harness.wall_iqr_share", "share", "lower"),
    layer("harness.cpu_s_per_job", "s", "lower"),
    layer("harness.peak_rss_mb", "MB", "lower"),
    layer("harness.span_coverage", "share", "higher"),
    layer("harness.staged_vs_engine_ratio", "ratio", "lower"),
];

/// Per-layer values of one traced run, keyed by the names of [`PER_LAYER`].
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Record `name`.
    ///
    /// # Panics
    /// Panics on a name [`PER_LAYER`] does not list: that is a typo here.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|l| l.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The contents of `BENCHMARK.json`.
pub fn spec() -> Value {
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::str(*s)).collect());
    Value::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better)),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Compare `BENCHMARK.json` (searched in the working directory, then beside
/// this package) with [`spec`].
pub fn check_spec_file() -> Result<(), String> {
    let candidates = [
        std::path::PathBuf::from("BENCHMARK.json"),
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    ];
    let text = candidates
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or("BENCHMARK.json not found")?;
    let on_disk = crate::json::parse(&text)?;
    let want = spec();
    if on_disk == want {
        return Ok(());
    }
    let keys = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    let differing = keys
        .into_iter()
        .find(|key| on_disk.get(key) != want.get(key))
        .unwrap_or("its set of keys");
    Err(format!(
        "BENCHMARK.json disagrees with benchmark/src/metrics.rs on {differing}; \
         regenerate it with --print-spec"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(u.len() <= 16, "unit {u} too long");
            assert!(u
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(spec().to_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_the_spec_written_out() {
        check_spec_file().unwrap();
    }
}
