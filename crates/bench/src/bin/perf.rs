//! perf — wall-clock performance harness for the simulation substrate.
//!
//! Times the hot paths the other figure binaries lean on and emits a
//! schema-versioned `BENCH.json` for CI regression gating (see
//! `cargo xtask bench-diff`):
//!
//! * **flow churn** — event-loop throughput of the fluid network driver
//!   (flows/sec through start → reallocate → complete cycles), with the
//!   incremental solver and with `--force-full` recomputes, side by side;
//! * **fig6 sims** — the Figure 6 WordCount runs (stock Hadoop and the
//!   MPI-D simulation system) at 1 / 10 / 100 GB, wall-clock each;
//! * **solver A/B** — the 100 GB MPI-D sim traced under both solver modes,
//!   reporting the `net.solver.resources_swept` counters and the wall-clock
//!   ratio (the incremental-solver acceptance metric); each mode gets one
//!   discarded warmup run so the timed run isn't paying first-touch costs;
//! * **mpid pipeline shapes** — the real threads-as-ranks MPI-D data path
//!   (buffer → combine → realign → ship → merge) over pre-materialized
//!   inputs, MB/s over encoded wire bytes. Input generation happens
//!   *outside* the timed region, so the number is the pipeline's, not the
//!   generator's. Shapes: Zipf word pairs (`mpid_pipeline`), small keys
//!   with large values (`pipe_large_values`), all-distinct keys
//!   (`pipe_many_keys`), LZ wire compression (`pipe_compressed`), the
//!   bounded-memory external merge (`pipe_extmerge`), and the non-baseline
//!   shuffle strategy — in-node combining with two mappers per host
//!   (`pipe_innode`).
//!
//! `--quick` shrinks the microbench sizes for CI; the bench *names* are
//! identical in both modes so baselines stay comparable (the JSON records
//! which mode produced it). `--out <path>` writes the JSON report.
//! `--filter <substr>` runs only the benches whose name contains the
//! substring (the report then contains just those benches).
//!
//! `--profile <dir>` re-runs every profileable filtered bench (the fig6
//! sims and the real pipeline shapes) under tracing and writes a
//! deterministic `<dir>/<bench>.profile.json` run profile
//! (`obs::analysis::RunProfile`, schema `mpid-profile/1`; see
//! `cargo xtask trace-diff`). Sim profiles are byte-identical run to run;
//! real-pipeline profiles have deterministic counters and span structure
//! but wall-clock duration fields. `--trace <path>` writes each profiled
//! bench's Chrome trace, inserting the bench name before the `.json`
//! extension when several match.

use desim::{Scheduler, Sim, SimTime};
use hadoop_sim::HadoopConfig;
use mapred::{
    run_mpid, run_mpid_traced, run_sim_mpid, run_sim_mpid_traced, MapReduceApp, MpidEngineConfig,
    SimMpidConfig, VecInput,
};
use mpid::Kv;
use mpid_bench::{fmt_secs, GB};
use netsim::{Cluster, ClusterSpec, HasNet, HostId, Net, SolverStats};
use std::sync::Arc;
use std::time::Instant;
use workloads::{rank_to_word, wordcount_spec, zipf_pairs, JavaSort, WordCountPairs};

/// One timed benchmark: a wall-clock plus named scalar metrics.
struct Bench {
    name: &'static str,
    wall_s: f64,
    metrics: Vec<(&'static str, f64)>,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = mpid_bench::arg_value(&args, "--out");
    let filter = mpid_bench::arg_value(&args, "--filter");
    let profile_dir = mpid_bench::arg_value(&args, "--profile");
    let trace_path = mpid_bench::arg_value(&args, "--trace");
    let threads: usize = mpid_bench::arg_value(&args, "--threads")
        .map(|t| t.parse().expect("--threads takes a positive integer"))
        .unwrap_or(1);
    assert!(threads >= 1, "--threads takes a positive integer");
    if args.iter().any(|a| a == "--check-mem") {
        std::process::exit(check_mem(quick));
    }
    let want = |name: &str| filter.as_deref().is_none_or(|f| name.contains(f));

    println!(
        "perf — simulation-substrate wall-clock harness ({}{})",
        if quick { "quick" } else { "full" },
        filter
            .as_deref()
            .map(|f| format!(", filter \"{f}\""))
            .unwrap_or_default()
    );
    println!();

    let mut benches: Vec<Bench> = Vec::new();

    // ------------------------------------------------------------------
    // 1. Flow churn: event-loop throughput of the fluid network driver.
    // ------------------------------------------------------------------
    if want("flow_churn") || want("flow_churn_full") {
        let churn_flows: u64 = if quick { 20_000 } else { 100_000 };
        let (inc_wall, inc_stats) = flow_churn(churn_flows, false);
        let (full_wall, full_stats) = flow_churn(churn_flows, true);
        let inc_rate = churn_flows as f64 / inc_wall;
        println!(
            "flow_churn        {:>10}  {churn_flows} flows, {:.0} flows/s (incremental)",
            fmt_secs(inc_wall),
            inc_rate
        );
        println!(
            "flow_churn_full   {:>10}  {churn_flows} flows, {:.0} flows/s (forced full recompute)",
            fmt_secs(full_wall),
            churn_flows as f64 / full_wall
        );
        if want("flow_churn") {
            benches.push(Bench {
                name: "flow_churn",
                wall_s: inc_wall,
                metrics: vec![
                    ("flows_per_sec", inc_rate),
                    ("resources_swept", inc_stats.resources_swept as f64),
                    ("recomputes", inc_stats.recomputes as f64),
                ],
            });
        }
        if want("flow_churn_full") {
            benches.push(Bench {
                name: "flow_churn_full",
                wall_s: full_wall,
                metrics: vec![
                    ("flows_per_sec", churn_flows as f64 / full_wall),
                    ("resources_swept", full_stats.resources_swept as f64),
                    ("recomputes", full_stats.recomputes as f64),
                ],
            });
        }
    }

    // ------------------------------------------------------------------
    // 2. Figure-6 WordCount sims, wall-clock per size and system.
    // ------------------------------------------------------------------
    println!();
    for gb in [1u64, 10, 100] {
        let h_name: &'static str = match gb {
            1 => "fig6_hadoop_1gb",
            10 => "fig6_hadoop_10gb",
            _ => "fig6_hadoop_100gb",
        };
        let m_name: &'static str = match gb {
            1 => "fig6_mpid_1gb",
            10 => "fig6_mpid_10gb",
            _ => "fig6_mpid_100gb",
        };
        if want(h_name) {
            let spec = wordcount_spec(gb * GB);
            let t0 = Instant::now();
            let h = hadoop_sim::run_job(HadoopConfig::icpp2011(7, 7, 7), spec);
            let h_wall = t0.elapsed().as_secs_f64();
            println!(
                "{h_name:<17} {:>10}  (simulated makespan {})",
                fmt_secs(h_wall),
                fmt_secs(h.makespan.as_secs_f64())
            );
            benches.push(Bench {
                name: h_name,
                wall_s: h_wall,
                metrics: vec![("sim_makespan_s", h.makespan.as_secs_f64())],
            });
        }
        if want(m_name) {
            let spec = wordcount_spec(gb * GB);
            let t0 = Instant::now();
            let m = run_sim_mpid(
                SimMpidConfig::icpp2011_fig6().with_auto_splits(gb * GB),
                spec,
            );
            let m_wall = t0.elapsed().as_secs_f64();
            println!(
                "{m_name:<17} {:>10}  (simulated makespan {})",
                fmt_secs(m_wall),
                fmt_secs(m.makespan.as_secs_f64())
            );
            benches.push(Bench {
                name: m_name,
                wall_s: m_wall,
                metrics: vec![("sim_makespan_s", m.makespan.as_secs_f64())],
            });
        }
    }

    // ------------------------------------------------------------------
    // 3. Solver A/B: the 100 GB MPI-D sim under both solver modes. The
    //    resources_swept counters come from the `net.solver.*` metrics the
    //    network driver publishes into the tracer. One discarded warmup
    //    run per mode: the first traced sim pays allocator growth and
    //    cold-cache costs that would otherwise bias whichever mode runs
    //    first (the original source of a phantom <1.0 "speedup").
    // ------------------------------------------------------------------
    if want("solver_ab_mpid_100gb") {
        println!();
        let _ = traced_mpid_100gb(false);
        let (ab_inc_wall, ab_inc_sweeps) = traced_mpid_100gb(false);
        let _ = traced_mpid_100gb(true);
        let (ab_full_wall, ab_full_sweeps) = traced_mpid_100gb(true);
        let wall_ratio = ab_full_wall / ab_inc_wall;
        let sweep_ratio = ab_full_sweeps as f64 / (ab_inc_sweeps.max(1)) as f64;
        println!(
            "solver A/B (fig6 100GB MPI-D): wall {} -> {} ({wall_ratio:.1}x), \
             resource sweeps {ab_full_sweeps} -> {ab_inc_sweeps} ({sweep_ratio:.1}x fewer)",
            fmt_secs(ab_full_wall),
            fmt_secs(ab_inc_wall),
        );
        benches.push(Bench {
            name: "solver_ab_mpid_100gb",
            wall_s: ab_inc_wall,
            metrics: vec![
                ("wall_full_s", ab_full_wall),
                ("sweeps_incremental", ab_inc_sweeps as f64),
                ("sweeps_full", ab_full_sweeps as f64),
                ("sweep_ratio", sweep_ratio),
                ("wall_speedup", wall_ratio),
            ],
        });
    }

    // ------------------------------------------------------------------
    // 4. Serving under contention: the figserve heavy-load grid point
    //    (fair-share scheduler) replayed on each stack. Wall-clock is the
    //    cost of simulating the whole stream; the simulated stream
    //    metrics (jobs/sec, p99 job latency, utilization) are
    //    deterministic and feed bench-diff's throughput and latency
    //    gates.
    // ------------------------------------------------------------------
    if want("serve_hadoop") || want("serve_mpid") {
        println!();
        let (n_racks, per_rack, n_jobs) = if quick { (3, 8, 16) } else { (5, 24, 60) };
        let stream = serve::arrival_stream(
            0x5E12,
            &serve::ArrivalConfig::new(n_jobs, SimTime::from_secs(2)),
        );
        let calm = faults::FaultPlan::none();
        type BackendCtor = fn() -> Box<dyn serve::JobBackend>;
        let backends: [(&'static str, BackendCtor); 2] = [
            ("serve_hadoop", serve::hadoop_backend),
            ("serve_mpid", serve::mpid_backend),
        ];
        for (name, backend) in backends {
            if !want(name) {
                continue;
            }
            let cfg = serve::ServeConfig::rackscale(n_racks, per_rack, 4.0);
            let t0 = Instant::now();
            let report = serve::run_serve(
                &cfg,
                Box::new(serve::FairShare),
                backend(),
                &stream,
                &calm,
                None,
            );
            let wall = t0.elapsed().as_secs_f64();
            let p99 = report.latency_quantile(0.99).as_secs_f64();
            println!(
                "{name:<17} {:>10}  {} jobs on {} hosts: {:.3} jobs/s, p99 {}, util {:.0}%",
                fmt_secs(wall),
                report.jobs.len(),
                cfg.cluster.hosts(),
                report.jobs_per_sec(),
                fmt_secs(p99),
                100.0 * report.utilization(),
            );
            benches.push(Bench {
                name,
                wall_s: wall,
                metrics: vec![
                    ("jobs_per_sec", report.jobs_per_sec()),
                    ("p99_latency_s", p99),
                    ("utilization", report.utilization()),
                ],
            });
        }
    }

    // ------------------------------------------------------------------
    // 5. Real MPI-D pipeline shapes: threads-as-ranks jobs over inputs
    //    materialized before the timer starts. MB/s is over encoded wire
    //    bytes (sum of every record's `Kv::wire_size`), the same unit the
    //    sender's spill accounting uses, so the number tracks data-path
    //    work rather than input-generator entropy.
    // ------------------------------------------------------------------
    println!();
    let scale = if quick { 1 } else { 4 };

    // Warm the thread/allocator machinery once so the first timed shape
    // isn't also paying universe spin-up cold costs.
    let shapes = [
        "mpid_pipeline",
        "pipe_large_values",
        "pipe_many_keys",
        "pipe_compressed",
        "pipe_extmerge",
        "pipe_innode",
        "pipe_many_keys_t1",
        "pipe_many_keys_t2",
        "pipe_many_keys_t4",
    ];
    if shapes.iter().any(|n| want(n)) {
        let warm = zipf_pairs(1, 65_536, 1_000);
        let _ = run_mpid(
            &pipe_cfg(threads),
            Arc::new(WordCountPairs),
            Arc::new(VecInput::round_robin(warm, 8)),
        );
    }

    // Shape 1: Zipf word pairs — the WordCount shuffle with combining.
    if want("mpid_pipeline") {
        let pairs = zipf_pairs(11, scale * 524_288, 20_000);
        benches.push(pipe_shape(
            "mpid_pipeline",
            &pipe_cfg(threads),
            WordCountPairs,
            pairs,
        ));
    }

    // Shape 2: small key space, 4 KiB values — realign/ship dominated,
    // no combining possible (JavaSort is identity).
    if want("pipe_large_values") {
        let n = scale * 512;
        let recs: Vec<(u64, Vec<u8>)> = (0..n as u64)
            .map(|i| {
                (
                    i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    vec![(i % 251) as u8; 4096],
                )
            })
            .collect();
        benches.push(pipe_shape(
            "pipe_large_values",
            &pipe_cfg(threads),
            JavaSort,
            recs,
        ));
    }

    // Shape 3: every key distinct — the combiner never fires, the hash
    // table and spill-sort see maximum distinct-key pressure.
    if want("pipe_many_keys") {
        let n = scale * 131_072;
        let pairs: Vec<(String, u64)> = (0..n).map(|i| (rank_to_word(i), 1)).collect();
        benches.push(pipe_shape(
            "pipe_many_keys",
            &pipe_cfg(threads),
            WordCountPairs,
            pairs,
        ));
    }

    // Shape 4: Zipf word pairs with LZ wire compression.
    if want("pipe_compressed") {
        let pairs = zipf_pairs(13, scale * 524_288, 20_000);
        let mut cfg = pipe_cfg(threads);
        cfg.compress = true;
        benches.push(pipe_shape("pipe_compressed", &cfg, WordCountPairs, pairs));
    }

    // Shape 5: Zipf word pairs grouped through the bounded-memory
    // external merge (reducer-side disk spill path).
    if want("pipe_extmerge") {
        let pairs = zipf_pairs(17, scale * 524_288, 20_000);
        let mut cfg = pipe_cfg(threads);
        cfg.reduce_budget_bytes = Some(256 * 1024);
        benches.push(pipe_shape("pipe_extmerge", &cfg, WordCountPairs, pairs));
    }

    // Shape 6: the in-node combine strategy — the 4 mappers pair into 2
    // per-host groups, members relay spills to their leader, and the
    // leader merges co-located output before framing. Times the relay +
    // leader-merge overhead against the baseline `mpid_pipeline` shape.
    if want("pipe_innode") {
        let pairs = zipf_pairs(19, scale * 524_288, 20_000);
        let mut cfg = pipe_cfg(threads);
        cfg.shuffle = mpid::ShuffleKind::InNodeCombine {
            mappers_per_host: 2,
        };
        benches.push(pipe_shape("pipe_innode", &cfg, WordCountPairs, pairs));
    }

    // ------------------------------------------------------------------
    // 6. The distinct-key shape (the one whose receiver merge sees every
    //    pair) at `threads` = 1 / 2 / 4 over the *same* input. Each point
    //    is its own named bench so `cargo xtask bench-diff` gates every
    //    cell against its own baseline. The receiver no longer reads
    //    `threads`, so the cells run the same code until the field and
    //    this matrix are retired together (ROADMAP item 7).
    // ------------------------------------------------------------------
    for (name, t) in [
        ("pipe_many_keys_t1", 1),
        ("pipe_many_keys_t2", 2),
        ("pipe_many_keys_t4", 4),
    ] {
        if !want(name) {
            continue;
        }
        let n = scale * 131_072;
        let pairs: Vec<(String, u64)> = (0..n).map(|i| (rank_to_word(i), 1)).collect();
        benches.push(pipe_shape(name, &pipe_cfg(t), WordCountPairs, pairs));
    }

    if let Some(path) = out {
        write_report(&path, quick, &benches);
        println!();
        println!("report: {} benches -> {path}", benches.len());
    }

    if profile_dir.is_some() || trace_path.is_some() {
        emit_profiles(
            quick,
            threads,
            filter.as_deref(),
            profile_dir.as_deref(),
            trace_path.as_deref(),
        );
    }
}

/// The real-pipeline engine config every shape uses: 4 mappers, 2
/// reducers, `threads` passed through (nothing on the data path reads it).
fn pipe_cfg(threads: usize) -> MpidEngineConfig {
    let mut cfg = MpidEngineConfig::with_workers(4, 2);
    cfg.threads = threads;
    cfg
}

/// `--check-mem`: run the bounded-memory external-merge shape with a job
/// block-pool budget and assert the pool's high-water mark respected it.
/// Prints a Markdown summary (append it to `$GITHUB_STEP_SUMMARY` in CI)
/// and returns the process exit code.
///
/// The budget must clear the sender side's deterministic peak — mappers
/// charge their raw stream unconditionally (spilling on pool pressure
/// would make spill cadence timing-dependent) and are bounded by
/// `min(raw bytes, spill_threshold_bytes)` per mapper — plus the
/// receivers' windowed ingest, which is the *checked* part: it spills
/// through the external merge rather than exceed the pool. Quick mode
/// moves ~8 MB of wire through 4 mappers (no mapper crosses the 4 MB
/// spill threshold), full mode ~32 MB (every mapper spills at 4 MB), so
/// high-water ≤ budget holds exactly when the spill-before-exceed
/// discipline works and nothing forced a charge.
fn check_mem(quick: bool) -> i32 {
    let scale = if quick { 1 } else { 4 };
    let budget = if quick { 12 << 20 } else { 24 << 20 };
    let pairs = zipf_pairs(17, scale * 524_288, 20_000);
    let wire_bytes: u64 = pairs
        .iter()
        .map(|(k, v)| (k.wire_size() + v.wire_size()) as u64)
        .sum();
    let mut cfg = pipe_cfg(1);
    cfg.reduce_budget_bytes = Some(256 * 1024);
    cfg.mem_budget = Some(budget);
    let input = Arc::new(VecInput::round_robin(pairs, 8));
    let job = run_mpid(&cfg, Arc::new(WordCountPairs), input);
    let stats = job.pool_stats.expect("mem_budget installs a job pool");
    let ok = stats.high_water <= budget && stats.forced == 0;
    println!("## perf --check-mem");
    println!();
    println!(
        "| metric | value |\n|---|---|\n| wire bytes | {} |\n| pool budget | {} |\n\
         | pool high water | {} |\n| forced charges | {} |\n| output pairs | {} |\n\
         | verdict | {} |",
        mpid_bench::fmt_size(wire_bytes),
        mpid_bench::fmt_size(budget as u64),
        mpid_bench::fmt_size(stats.high_water as u64),
        stats.forced,
        job.output.len(),
        if ok { "PASS" } else { "**FAIL**" },
    );
    if !ok {
        eprintln!(
            "check-mem: pool high water {} exceeded budget {} (forced charges: {})",
            stats.high_water, budget, stats.forced
        );
        return 1;
    }
    0
}

/// Re-run every profileable bench the filter matches under tracing: the
/// fig6 WordCount sims (deterministic sim-time profiles) and the real
/// pipeline shapes (wall-clock spans, deterministic counters). Writes a
/// `RunProfile` JSON per bench under `profile_dir` and/or a Chrome trace
/// per bench derived from `trace_path`.
fn emit_profiles(
    quick: bool,
    threads: usize,
    filter: Option<&str>,
    profile_dir: Option<&str>,
    trace_path: Option<&str>,
) {
    let want = |name: &str| filter.is_none_or(|f| name.contains(f));
    println!();
    let mut emitted = 0usize;
    let mut finish = |name: &str, trace: &obs::Trace, metrics: Option<&obs::metrics::Metrics>| {
        let profile = obs::analysis::RunProfile::build(trace, metrics, name);
        if let Some(dir) = profile_dir {
            let path = mpid_bench::write_profile(&profile, dir);
            println!(
                "profile: {name} -> {path} (overlap {:.2}, critical path {})",
                profile.overlap.ratio,
                fmt_secs(profile.critical_path.total_ns as f64 / 1e9)
            );
        }
        if let Some(base) = trace_path {
            let path = trace_file(base, name);
            obs::chrome::write_chrome_trace(trace, std::path::Path::new(&path))
                .expect("write chrome trace");
            println!("trace: {name} -> {path}");
        }
        emitted += 1;
    };

    for gb in [1u64, 10, 100] {
        let (h_name, m_name): (&str, &str) = match gb {
            1 => ("fig6_hadoop_1gb", "fig6_mpid_1gb"),
            10 => ("fig6_hadoop_10gb", "fig6_mpid_10gb"),
            _ => ("fig6_hadoop_100gb", "fig6_mpid_100gb"),
        };
        if want(h_name) {
            let tracer = obs::Tracer::new();
            let _ = hadoop_sim::run_job_traced(
                HadoopConfig::icpp2011(7, 7, 7),
                wordcount_spec(gb * GB),
                tracer.clone(),
            );
            let trace = tracer.take_trace();
            finish(h_name, &trace, Some(&tracer.metrics()));
        }
        if want(m_name) {
            let tracer = obs::Tracer::new();
            let _ = run_sim_mpid_traced(
                SimMpidConfig::icpp2011_fig6().with_auto_splits(gb * GB),
                wordcount_spec(gb * GB),
                tracer.clone(),
            );
            let trace = tracer.take_trace();
            finish(m_name, &trace, Some(&tracer.metrics()));
        }
    }

    let scale = if quick { 1 } else { 4 };
    if want("mpid_pipeline") {
        let pairs = zipf_pairs(11, scale * 524_288, 20_000);
        let trace = trace_pipe(&pipe_cfg(threads), WordCountPairs, pairs);
        finish("mpid_pipeline", &trace, None);
    }
    if want("pipe_large_values") {
        let n = scale * 512;
        let recs: Vec<(u64, Vec<u8>)> = (0..n as u64)
            .map(|i| {
                (
                    i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    vec![(i % 251) as u8; 4096],
                )
            })
            .collect();
        let trace = trace_pipe(&pipe_cfg(threads), JavaSort, recs);
        finish("pipe_large_values", &trace, None);
    }
    if want("pipe_many_keys") {
        let n = scale * 131_072;
        let pairs: Vec<(String, u64)> = (0..n).map(|i| (rank_to_word(i), 1)).collect();
        let trace = trace_pipe(&pipe_cfg(threads), WordCountPairs, pairs);
        finish("pipe_many_keys", &trace, None);
    }
    if want("pipe_compressed") {
        let pairs = zipf_pairs(13, scale * 524_288, 20_000);
        let mut cfg = pipe_cfg(threads);
        cfg.compress = true;
        let trace = trace_pipe(&cfg, WordCountPairs, pairs);
        finish("pipe_compressed", &trace, None);
    }
    if want("pipe_extmerge") {
        let pairs = zipf_pairs(17, scale * 524_288, 20_000);
        let mut cfg = pipe_cfg(threads);
        cfg.reduce_budget_bytes = Some(256 * 1024);
        let trace = trace_pipe(&cfg, WordCountPairs, pairs);
        finish("pipe_extmerge", &trace, None);
    }

    if emitted == 0 {
        println!("profile: no profileable bench matches the filter");
    }
}

/// One traced real-pipeline run (same shapes as the timed section); returns
/// the merged per-rank trace.
fn trace_pipe<A>(cfg: &MpidEngineConfig, app: A, records: Vec<(A::InKey, A::InVal)>) -> obs::Trace
where
    A: MapReduceApp,
    A::InKey: Kv + Clone + Send + Sync + 'static,
    A::InVal: Kv + Clone + Send + Sync + 'static,
{
    let input = Arc::new(VecInput::round_robin(records, 8));
    let sink = obs::SharedTrace::new();
    let _ = run_mpid_traced(cfg, Arc::new(app), input, sink.clone());
    sink.take_trace()
}

/// Per-bench Chrome-trace path: `base.json` + bench `b` → `base.b.json`.
fn trace_file(base: &str, bench: &str) -> String {
    match base.strip_suffix(".json") {
        Some(stem) => format!("{stem}.{bench}.json"),
        None => format!("{base}.{bench}.json"),
    }
}

/// Run one pipeline shape: materialize the input into split vectors (and
/// total its encoded wire bytes) before the timer, then time the real
/// threads-as-ranks job end to end.
fn pipe_shape<A>(
    name: &'static str,
    cfg: &MpidEngineConfig,
    app: A,
    records: Vec<(A::InKey, A::InVal)>,
) -> Bench
where
    A: MapReduceApp,
    A::InKey: Kv + Clone + Send + Sync + 'static,
    A::InVal: Kv + Clone + Send + Sync + 'static,
{
    let wire_bytes: u64 = records
        .iter()
        .map(|(k, v)| (k.wire_size() + v.wire_size()) as u64)
        .sum();
    let input = Arc::new(VecInput::round_robin(records, 8));
    let t0 = Instant::now();
    let job = run_mpid(cfg, Arc::new(app), input);
    let wall = t0.elapsed().as_secs_f64();
    let mbps = wire_bytes as f64 / wall / 1e6;
    println!(
        "{name:<17} {:>10}  {} wire, {mbps:.1} MB/s, {} output pairs",
        fmt_secs(wall),
        mpid_bench::fmt_size(wire_bytes),
        job.output.len()
    );
    Bench {
        name,
        wall_s: wall,
        metrics: vec![
            ("mb_per_sec", mbps),
            ("output_pairs", job.output.len() as f64),
        ],
    }
}

/// Event-loop microbench: `total` flows churned through the network driver
/// as four disjoint host-pair chains (so the scoped solver has component
/// structure to exploit). Every completion starts the next flow, keeping
/// the reallocation path hot. Returns (wall seconds, solver counters).
fn flow_churn(total: u64, force_full: bool) -> (f64, SolverStats) {
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

    netsim::set_force_full_default(force_full);
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
    let t0 = Instant::now();
    sim.run();
    let wall = t0.elapsed().as_secs_f64();
    netsim::set_force_full_default(false);
    assert_eq!(sim.state.net.flows_completed(), total);
    (wall, sim.state.net.solver_stats())
}

/// One traced 100 GB MPI-D sim run; returns (wall seconds, resource sweeps).
fn traced_mpid_100gb(force_full: bool) -> (f64, u64) {
    netsim::set_force_full_default(force_full);
    let tracer = obs::Tracer::new();
    let t0 = Instant::now();
    let _ = run_sim_mpid_traced(
        SimMpidConfig::icpp2011_fig6().with_auto_splits(100 * GB),
        wordcount_spec(100 * GB),
        tracer.clone(),
    );
    let wall = t0.elapsed().as_secs_f64();
    netsim::set_force_full_default(false);
    let sweeps = tracer
        .metrics()
        .counter(obs::names::M_NET_SOLVER_RESOURCES_SWEPT);
    (wall, sweeps)
}

/// Hand-rolled `BENCH.json` (schema `mpid-bench/1`): no JSON dependency in
/// the workspace, and the shape is flat enough that formatting it directly
/// keeps the file byte-stable for diffing.
fn write_report(path: &str, quick: bool, benches: &[Bench]) {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"mpid-bench/1\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str("  \"benches\": [\n");
    for (i, b) in benches.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_s\": {:.6}, \"metrics\": {{",
            b.name, b.wall_s
        ));
        for (j, (k, v)) in b.metrics.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{k}\": {v:.6}"));
        }
        s.push_str("}}");
        if i + 1 < benches.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s).expect("write BENCH.json");
}
