//! perf — deterministic run profiles, Chrome traces and the bounded-memory
//! check over a fixed table of shapes. It reads no clock: wall time is
//! measured in one place, the `benchmark/` package (`BENCHMARK.json`), and
//! the exact quantities these shapes produce (simulated makespans, solver
//! counters, the 1 GB MPI-D profile) are pinned by tier-1 tests.
//!
//! The shapes ([`SHAPES`]): the Figure 6 WordCount sims (stock Hadoop and
//! the MPI-D simulation system at 1 / 10 / 100 GB) and the real
//! threads-as-ranks MPI-D data path (buffer → combine → realign → ship →
//! merge) over Zipf word pairs (`mpid_pipeline`), small keys with 4 KiB
//! values (`pipe_large_values`), all-distinct keys (`pipe_many_keys`), LZ
//! wire compression (`pipe_compressed`) and the bounded-memory external
//! merge (`pipe_extmerge`).
//!
//! * `--profile <dir>` runs every shape the filter matches under tracing
//!   and writes a `<dir>/<shape>.profile.json` run profile
//!   (`obs::analysis::RunProfile`, schema `mpid-profile/1`; see
//!   `cargo xtask trace-diff`). Sim profiles are byte-identical run to run
//!   — `fig6_mpid_1gb`'s is the committed `PROFILE_BASELINE.json`, gated
//!   by `tests/run_profile.rs`; real-pipeline profiles have deterministic
//!   counters and span structure but wall-clock duration fields.
//! * `--trace <path>` writes each matched shape's Chrome trace, inserting
//!   the shape name before the `.json` extension.
//! * `--filter <substr>` keeps the shapes whose name contains the substring.
//! * `--check-mem` runs the `pipe_extmerge` shape under a job block-pool
//!   budget, at sender `threads` 1 and 2, and fails if at either the
//!   pool's high-water mark exceeded it, or the job's output differs from
//!   the same shape run with no budget.
//! * `--quick` shrinks the real-pipeline inputs 4× for CI; shape names are
//!   the same in both modes.

use hadoop_sim::HadoopConfig;
use mapred::{
    run_mpid, run_mpid_traced, run_sim_mpid_traced, MapReduceApp, MpidEngineConfig, SimMpidConfig,
    VecInput,
};
use mpid::Kv;
use mpid_bench::{fmt_secs, GB};
use obs::analysis::RunProfile;
use std::sync::Arc;
use workloads::{rank_to_word, wordcount_spec, zipf_pairs, JavaSort, WordCountPairs};

/// What one traced shape run leaves behind.
type Traced = (obs::Trace, RunProfile);

/// A shape: its name and how to run it traced, given that name (the
/// profile's label) and the real-pipeline input scale (1 quick, 4 full;
/// the sims ignore it).
type Shape = (&'static str, fn(&str, usize) -> Traced);

/// Every shape, once.
const SHAPES: [Shape; 11] = [
    ("fig6_hadoop_1gb", |name, _| sim_hadoop(name, 1)),
    ("fig6_mpid_1gb", |name, _| sim_mpid(name, 1)),
    ("fig6_hadoop_10gb", |name, _| sim_hadoop(name, 10)),
    ("fig6_mpid_10gb", |name, _| sim_mpid(name, 10)),
    ("fig6_hadoop_100gb", |name, _| sim_hadoop(name, 100)),
    ("fig6_mpid_100gb", |name, _| sim_mpid(name, 100)),
    // Zipf word pairs — the WordCount shuffle with combining.
    ("mpid_pipeline", |name, scale| {
        pipe(name, &pipe_cfg(), WordCountPairs, zipf_words(11, scale))
    }),
    // Small key space, 4 KiB values — realign/ship dominated, no combining
    // possible (JavaSort is identity).
    ("pipe_large_values", |name, scale| {
        let recs = (0..scale as u64 * 512)
            .map(|i| {
                (
                    i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    vec![(i % 251) as u8; 4096],
                )
            })
            .collect();
        pipe(name, &pipe_cfg(), JavaSort, recs)
    }),
    // Every key distinct — the combiner never fires, the hash table and the
    // receiver merge see maximum distinct-key pressure.
    ("pipe_many_keys", |name, scale| {
        let pairs = (0..scale * 131_072).map(|i| (rank_to_word(i), 1)).collect();
        pipe(name, &pipe_cfg(), WordCountPairs, pairs)
    }),
    // Zipf word pairs with LZ wire compression.
    ("pipe_compressed", |name, scale| {
        let mut cfg = pipe_cfg();
        cfg.compress = true;
        pipe(name, &cfg, WordCountPairs, zipf_words(13, scale))
    }),
    // Zipf word pairs grouped through the bounded-memory external merge
    // (reducer-side disk spill path).
    ("pipe_extmerge", |name, scale| {
        pipe(name, &extmerge_cfg(), WordCountPairs, extmerge_input(scale))
    }),
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let filter = mpid_bench::arg_value(&args, "--filter");
    let profile_dir = mpid_bench::arg_value(&args, "--profile");
    let trace_path = mpid_bench::arg_value(&args, "--trace");
    let scale = if quick { 1 } else { 4 };
    if args.iter().any(|a| a == "--check-mem") {
        std::process::exit(check_mem(quick, scale));
    }
    if profile_dir.is_none() && trace_path.is_none() {
        eprintln!(
            "usage: perf [--quick] [--filter <substr>] \
             (--profile <dir> | --trace <path> | --check-mem)"
        );
        eprintln!("shapes:");
        for (name, _) in SHAPES {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }

    let mut emitted = 0usize;
    for (name, run) in SHAPES {
        if filter.as_deref().is_some_and(|f| !name.contains(f)) {
            continue;
        }
        let (trace, profile) = run(name, scale);
        if let Some(dir) = &profile_dir {
            let path = mpid_bench::write_profile(&profile, dir);
            println!(
                "profile: {name} -> {path} (overlap {:.2}, critical path {})",
                profile.overlap.ratio,
                fmt_secs(profile.critical_path.total_ns as f64 / 1e9)
            );
        }
        if let Some(base) = &trace_path {
            let path = trace_file(base, name);
            obs::chrome::write_chrome_trace(&trace, std::path::Path::new(&path))
                .expect("write chrome trace");
            println!("trace: {name} -> {path}");
        }
        emitted += 1;
    }
    if emitted == 0 {
        println!("perf: no shape matches the filter");
    }
}

/// One traced Figure-6 Hadoop sim (deterministic sim-time profile).
fn sim_hadoop(name: &str, gb: u64) -> Traced {
    sim(name, |tracer| {
        hadoop_sim::run_job_traced(
            HadoopConfig::icpp2011(7, 7, 7),
            wordcount_spec(gb * GB),
            tracer,
        );
    })
}

/// One traced Figure-6 MPI-D sim (deterministic sim-time profile).
fn sim_mpid(name: &str, gb: u64) -> Traced {
    sim(name, |tracer| {
        run_sim_mpid_traced(
            SimMpidConfig::icpp2011_fig6().with_auto_splits(gb * GB),
            wordcount_spec(gb * GB),
            tracer,
        );
    })
}

/// Run a simulator under a fresh tracer; the profile includes its metrics.
fn sim(name: &str, run: impl FnOnce(obs::Tracer)) -> Traced {
    let tracer = obs::Tracer::new();
    run(tracer.clone());
    let trace = tracer.take_trace();
    let profile = RunProfile::build(&trace, Some(&tracer.metrics()), name);
    (trace, profile)
}

/// One traced real-pipeline run over 8 round-robin splits (wall-clock
/// spans, deterministic counters); the trace is the per-rank merge.
fn pipe<A>(name: &str, cfg: &MpidEngineConfig, app: A, records: Vec<(A::InKey, A::InVal)>) -> Traced
where
    A: MapReduceApp,
    A::InKey: Kv + Clone + Send + Sync + 'static,
    A::InVal: Kv + Clone + Send + Sync + 'static,
{
    let input = Arc::new(VecInput::round_robin(records, 8));
    let sink = obs::SharedTrace::new();
    let _ = run_mpid_traced(cfg, Arc::new(app), input, sink.clone());
    let trace = sink.take_trace();
    let profile = RunProfile::build(&trace, None, name);
    (trace, profile)
}

/// The real-pipeline engine config every shape starts from: 4 mappers,
/// 2 reducers.
fn pipe_cfg() -> MpidEngineConfig {
    MpidEngineConfig::with_workers(4, 2)
}

/// `scale` × 512 Ki Zipf word pairs over a 20 000-word vocabulary.
fn zipf_words(seed: u64, scale: usize) -> Vec<(String, u64)> {
    zipf_pairs(seed, scale * 524_288, 20_000)
}

/// `pipe_extmerge`'s config: reducers group under a 256 KiB budget.
fn extmerge_cfg() -> MpidEngineConfig {
    let mut cfg = pipe_cfg();
    cfg.reduce_budget_bytes = Some(256 * 1024);
    cfg
}

/// `pipe_extmerge`'s input.
fn extmerge_input(scale: usize) -> Vec<(String, u64)> {
    zipf_words(17, scale)
}

/// `--check-mem`: run the `pipe_extmerge` shape with a job block-pool
/// budget, at sender `threads` 1 and 2, and assert at each that the pool's
/// high-water mark respected it and the output equals the unbudgeted run's.
/// Prints a Markdown summary (append it to `$GITHUB_STEP_SUMMARY` in CI)
/// and returns the process exit code.
///
/// The budget must clear the sender side's deterministic peak — mappers
/// charge their raw stream unconditionally (spilling on pool pressure
/// would make spill cadence timing-dependent), a 64 KiB block at a time,
/// and hold at most `max(raw bytes, spill_threshold_bytes)` each at one
/// thread; at two, a spilled epoch keeps its charge until its frames ship
/// (`mpid::sender`'s "Spill a late"), so a mapper holds up to
/// `spill_threshold_bytes` plus six blocks — plus the receivers' windowed
/// ingest, which is the *checked* part: it spills through the external
/// merge rather than exceed the pool. Quick mode moves ~8 MB of wire
/// through 4 mappers (no mapper crosses the 4 MB spill threshold), full
/// mode ~32 MB (every mapper spills at 4 MB), so high-water ≤ budget holds
/// exactly when the spill-before-exceed discipline works and nothing
/// forced a charge.
fn check_mem(quick: bool, scale: usize) -> i32 {
    let budget = if quick { 12 << 20 } else { 24 << 20 };
    let pairs = extmerge_input(scale);
    let wire_bytes: u64 = pairs
        .iter()
        .map(|(k, v)| (k.wire_size() + v.wire_size()) as u64)
        .sum();
    let input = Arc::new(VecInput::round_robin(pairs, 8));
    // The same shape with no budget at all: a budget may change memory
    // use, never what the job produces.
    let unbounded = run_mpid(&pipe_cfg(), Arc::new(WordCountPairs), input.clone());
    let runs = [1, 2].map(|threads| {
        let mut cfg = extmerge_cfg();
        cfg.mem_budget = Some(budget);
        cfg.threads = threads;
        let job = run_mpid(&cfg, Arc::new(WordCountPairs), input.clone());
        let stats = job.pool_stats.expect("mem_budget installs a job pool");
        let fits = stats.high_water <= budget && stats.forced == 0;
        let same_output = job.output == unbounded.output;
        if !fits {
            eprintln!(
                "check-mem: threads = {threads}: pool high water {} exceeded budget {} \
                 (forced charges: {})",
                stats.high_water, budget, stats.forced
            );
        }
        if !same_output {
            let (bounded, unbounded) = (&job.output, &unbounded.output);
            let at = (bounded.iter().zip(unbounded))
                .position(|(a, b)| a != b)
                .unwrap_or(bounded.len().min(unbounded.len()));
            eprintln!(
                "check-mem: threads = {threads}: bounded output ({} pairs) differs from \
                 unbounded ({} pairs) first at pair {at}: {:?} vs {:?}",
                bounded.len(),
                unbounded.len(),
                bounded.get(at),
                unbounded.get(at)
            );
        }
        (stats, job.output.len(), same_output, fits && same_output)
    });
    let row = |name: &str, cell: &dyn Fn(usize) -> String| {
        println!("| {name} | {} | {} |", cell(0), cell(1));
    };
    println!("## perf --check-mem");
    println!();
    println!("| metric | threads = 1 | threads = 2 |\n|---|---|---|");
    row("wire bytes", &|_| mpid_bench::fmt_size(wire_bytes));
    row("pool budget", &|_| mpid_bench::fmt_size(budget as u64));
    row("pool high water", &|i| {
        mpid_bench::fmt_size(runs[i].0.high_water as u64)
    });
    row("forced charges", &|i| runs[i].0.forced.to_string());
    row("output pairs", &|i| runs[i].1.to_string());
    row("output ≡ unbounded", &|i| {
        (if runs[i].2 { "yes" } else { "**no**" }).to_string()
    });
    row("verdict", &|i| {
        (if runs[i].3 { "PASS" } else { "**FAIL**" }).to_string()
    });
    i32::from(!runs.iter().all(|run| run.3))
}

/// Per-shape Chrome-trace path: `base.json` + shape `s` → `base.s.json`.
fn trace_file(base: &str, shape: &str) -> String {
    match base.strip_suffix(".json") {
        Some(stem) => format!("{stem}.{shape}.json"),
        None => format!("{base}.{shape}.json"),
    }
}
