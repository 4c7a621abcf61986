//! Ablations of the MPI-D design choices called out in DESIGN.md — the
//! paper motivates each qualitatively (§III–IV); this binary quantifies
//! them on both the real pipeline and the simulated testbed.
//!
//! - **1. Local combining** ("reduce the memory consuming and the
//!   transmission quantity"): real shuffle bytes with/without combiner,
//!   and the simulated Figure 6 impact.
//! - **3. Spill threshold / frame size**: real frame counts and bytes.
//! - **4. Memory-pressure term**: the simulated superlinearity with the
//!   term disabled (what a spilling, Hadoop-like MPI-D would look like).
//!
//! Section numbers are stable labels for the printed output, so they skip
//! 2.

use hadoop_sim::HadoopConfig;
use mapred::{run_mpid, run_sim_mpid, MpidEngineConfig, SimMpidConfig};
use mpid_bench::{fmt_secs, GB};
use std::sync::Arc;
use workloads::{wordcount_spec, TextGen, WordCount};

fn main() {
    println!("MPI-D design ablations");
    println!("======================");

    combiner_real();
    combiner_simulated();
    spill_and_frame_sizes();
    pressure_term();
    compression();
    speculation();
}

/// Real pipeline: frame compression on/off.
fn compression() {
    println!();
    println!("5.  frame compression — real pipeline, 1 MB Zipf text");
    let run = |compress: bool| {
        let mut cfg = MpidEngineConfig::with_workers(2, 1);
        cfg.compress = compress;
        run_mpid(
            &cfg,
            Arc::new(WordCount),
            Arc::new(TextGen::new(11, 1 << 20, 4, 20_000)),
        )
    };
    let plain = run(false);
    let packed = run(true);
    assert_eq!(plain.output, packed.output);
    println!(
        "    plain:      {:>9} wire bytes",
        plain.sender_stats.bytes_sent
    );
    println!(
        "    compressed: {:>9} wire bytes ({:.1}x smaller, same output)",
        packed.sender_stats.bytes_sent,
        plain.sender_stats.bytes_sent as f64 / packed.sender_stats.bytes_sent as f64
    );
}

/// Simulated Hadoop: speculative execution on/off under heavy stragglers.
fn speculation() {
    println!();
    println!("6.  speculative execution — simulated Hadoop WordCount 2 GB, 15% stragglers x6");
    let mut on = HadoopConfig::icpp2011(7, 7, 7);
    on.straggler_prob = 0.15;
    on.straggler_factor = 6.0;
    let mut off = on.clone();
    off.speculative = false;
    let spec = wordcount_spec(2 << 30);
    let with = hadoop_sim::run_job(on, spec.clone());
    let without = hadoop_sim::run_job(off, spec);
    println!(
        "    speculation on:  makespan {} ({} duplicates, {} wasted)",
        fmt_secs(with.makespan.as_secs_f64()),
        with.speculative_launched,
        with.speculative_wasted
    );
    println!(
        "    speculation off: makespan {}",
        fmt_secs(without.makespan.as_secs_f64())
    );
    assert!(with.makespan <= without.makespan);
}

/// Real pipeline: combiner on/off over the same generated text.
fn combiner_real() {
    println!();
    println!("1a. local combining — real pipeline, 1 MB Zipf text, 2 mappers / 1 reducer");
    struct NoCombine;
    impl mapred::MapReduceApp for NoCombine {
        type InKey = u64;
        type InVal = String;
        type MidKey = String;
        type MidVal = u64;
        type OutKey = String;
        type OutVal = u64;
        fn map(&self, _k: u64, line: String, emit: &mut dyn FnMut(String, u64)) {
            for w in line.split_whitespace() {
                emit(w.to_string(), 1);
            }
        }
        fn reduce(&self, k: String, vs: Vec<u64>, emit: &mut dyn FnMut(String, u64)) {
            emit(k, vs.iter().sum());
        }
    }
    let cfg = MpidEngineConfig::with_workers(2, 1);
    let with = run_mpid(
        &cfg,
        Arc::new(WordCount),
        Arc::new(TextGen::new(1, 1 << 20, 4, 20_000)),
    );
    let without = run_mpid(
        &cfg,
        Arc::new(NoCombine),
        Arc::new(TextGen::new(1, 1 << 20, 4, 20_000)),
    );
    println!(
        "    with combiner:    {:>10} shuffle bytes, {:>6} frames",
        with.sender_stats.bytes_sent, with.sender_stats.frames
    );
    println!(
        "    without combiner: {:>10} shuffle bytes, {:>6} frames",
        without.sender_stats.bytes_sent, without.sender_stats.frames
    );
    println!(
        "    -> combiner cuts shuffle volume {:.1}x",
        without.sender_stats.bytes_sent as f64 / with.sender_stats.bytes_sent as f64
    );
    assert!(without.sender_stats.bytes_sent > 3 * with.sender_stats.bytes_sent);
}

/// Simulated testbed: what Figure 6 would look like without the combiner.
fn combiner_simulated() {
    println!();
    println!("1b. local combining — simulated Figure 6 point, WordCount 10 GB");
    let input = 10 * GB;
    let spec = wordcount_spec(input);
    let mut no_combine = spec.clone();
    no_combine.combine_ratio = 1.0;
    let cfg = SimMpidConfig::icpp2011_fig6().with_auto_splits(input);
    let with = run_sim_mpid(cfg.clone(), spec);
    let without = run_sim_mpid(cfg, no_combine);
    println!(
        "    with combiner:    makespan {}, shuffle {:.1} MB",
        fmt_secs(with.makespan.as_secs_f64()),
        with.shuffle_bytes as f64 / 1e6
    );
    println!(
        "    without combiner: makespan {}, shuffle {:.1} MB (all to ONE reducer)",
        fmt_secs(without.makespan.as_secs_f64()),
        without.shuffle_bytes as f64 / 1e6
    );
    assert!(without.makespan > with.makespan);
    assert!(without.shuffle_bytes > 10 * with.shuffle_bytes);
}

/// Real pipeline: spill-threshold / frame-size sweep.
fn spill_and_frame_sizes() {
    println!();
    println!("3.  spill threshold x frame size — real pipeline, fixed input");
    println!(
        "    {:>10} {:>10} | {:>8} {:>8} {:>12}",
        "spill", "frame", "spills", "frames", "bytes"
    );
    for (spill, frame) in [
        (1usize << 10, 1usize << 10),
        (64 << 10, 8 << 10),
        (4 << 20, 512 << 10),
    ] {
        let cfg = MpidEngineConfig {
            n_mappers: 2,
            n_reducers: 2,
            spill_threshold_bytes: spill,
            frame_bytes: frame,
            ..Default::default()
        };
        let job = run_mpid(
            &cfg,
            Arc::new(WordCount),
            Arc::new(TextGen::new(2, 512 << 10, 4, 10_000)),
        );
        println!(
            "    {:>10} {:>10} | {:>8} {:>8} {:>12}",
            spill,
            frame,
            job.sender_stats.spills,
            job.sender_stats.frames,
            job.sender_stats.bytes_sent
        );
    }
    println!("    -> small spill buffers ship more, less-combined data (same final output)");
}

/// Simulated testbed: disable the memory-pressure term.
fn pressure_term() {
    println!();
    println!("4.  memory-pressure term — simulated MPI-D WordCount, 1 vs 100 GB");
    let mut ratios = Vec::new();
    for pressure in [0.25, 0.0] {
        let run = |gb: u64| {
            let mut cfg = SimMpidConfig::icpp2011_fig6().with_auto_splits(gb * GB);
            cfg.pressure_per_doubling = pressure;
            run_sim_mpid(cfg, wordcount_spec(gb * GB))
                .makespan
                .as_secs_f64()
        };
        let t1 = run(1);
        let t100 = run(100);
        println!(
            "    pressure {:>4}: 1GB {} -> 100GB {}  ({:.0}x for 100x data)",
            pressure,
            fmt_secs(t1),
            fmt_secs(t100),
            t100 / t1
        );
        ratios.push(t100 / t1);
    }
    // Paper Figure 6, MPI-D: 3.9 s at 1 GB, 1129 s at 100 GB.
    let (paper_1gb, paper_100gb) = (3.9, 1129.0);
    println!(
        "    -> paper: 1GB {} -> 100GB {} ({:.0}x); this run: {:.0}x with the term, {:.0}x without",
        fmt_secs(paper_1gb),
        fmt_secs(paper_100gb),
        paper_100gb / paper_1gb,
        ratios[0],
        ratios[1]
    );
}
