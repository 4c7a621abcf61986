//! Shuffle-strategy figure (no counterpart in the paper, which ships every
//! spill directly): the pluggable shuffle seam swept across both simulated
//! stacks on rack topologies. The grid runs (stack × core oversubscription
//! × strategy) — Hadoop and MPI-D, a 2-rack cluster with a 1:1, 4:1 and
//! 8:1 oversubscribed core, and baseline / in-node combine — on a
//! WordCount-shaped job with four co-located map tasks per host, reporting
//! shuffle wire bytes and makespan per cell.
//!
//! The claims the table supports:
//!
//! * in-node combining cuts wire volume on any multi-mapper-per-host shape
//!   (co-located spills share a vocabulary, so duplicate keys cross the
//!   wire once per host instead of once per mapper);
//! * strategies change bytes moved, never bytes meant: wire volume is
//!   topology-invariant.
//!
//! Every cell is a simulator output; both strategies also run on the real
//! path (`mpid::ShuffleKind`).
//!
//! `--check` re-runs the grid and asserts those claims plus byte-identical
//! tables across independent replays (determinism).

use desim::SimTime;
use hadoop_sim::HadoopConfig;
use mapred::{run_sim_mpid, SimMpidConfig};
use mpid_bench::{fmt_secs, fmt_size, GB, MB};
use netsim::{JobSpec, RackLayout, SimShuffle};

const INPUT_BYTES: u64 = 4 * GB;
const STRATEGIES: [SimShuffle; 2] = [SimShuffle::Baseline, SimShuffle::InNodeCombine];
const STACKS: [&str; 2] = ["hadoop", "mpid"];
const OVERSUB: [f64; 3] = [1.0, 4.0, 8.0];
const HOSTS_PER_RACK: usize = 4;
const MAPPERS_PER_HOST: usize = 4;

/// One grid cell's results, with everything the assertions need.
struct Cell {
    stack: &'static str,
    oversub: f64,
    strategy: SimShuffle,
    wire_bytes: u64,
    makespan: SimTime,
}

fn rack(oversub: f64) -> RackLayout {
    let nic = netsim::ClusterSpec::icpp2011_testbed().nic_bytes_per_sec;
    RackLayout::oversubscribed(HOSTS_PER_RACK, nic, oversub)
}

fn wc_spec(strategy: SimShuffle) -> JobSpec {
    let mut spec = workloads::wordcount_spec(INPUT_BYTES);
    spec.shuffle = strategy;
    spec
}

fn run_hadoop(oversub: f64, strategy: SimShuffle) -> Cell {
    let mut cfg = HadoopConfig::icpp2011(MAPPERS_PER_HOST, 4, 8);
    cfg.cluster.rack = Some(rack(oversub));
    cfg.straggler_prob = 0.0; // keep the strategy comparison noise-free
    cfg.speculative = false;
    let report = hadoop_sim::run_job(cfg, wc_spec(strategy));
    Cell {
        stack: "hadoop",
        oversub,
        strategy,
        wire_bytes: report.shuffle_wire_bytes,
        makespan: report.makespan,
    }
}

fn run_mpid(oversub: f64, strategy: SimShuffle) -> Cell {
    let spec = wc_spec(strategy);
    // 7 worker hosts × 4 co-located mapper processes, mirroring the Hadoop
    // side's slot shape so the in-node combine sees the same co-location.
    let mut cfg = SimMpidConfig::icpp2011_fig6();
    cfg.n_mappers = 7 * MAPPERS_PER_HOST;
    cfg.n_reducers = 4;
    cfg.cluster.rack = Some(rack(oversub));
    let cfg = cfg.with_auto_splits(spec.input_bytes);
    let report = run_sim_mpid(cfg, spec);
    Cell {
        stack: "mpid",
        oversub,
        strategy,
        wire_bytes: report.wire_bytes,
        makespan: report.makespan,
    }
}

fn run_grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for stack in STACKS {
        for &oversub in &OVERSUB {
            for strategy in STRATEGIES {
                cells.push(match stack {
                    "hadoop" => run_hadoop(oversub, strategy),
                    _ => run_mpid(oversub, strategy),
                });
            }
        }
    }
    cells
}

/// Baseline cell of the same (stack, oversubscription) column.
fn baseline_of<'a>(cells: &'a [Cell], c: &Cell) -> &'a Cell {
    cells
        .iter()
        .find(|b| {
            b.stack == c.stack && b.oversub == c.oversub && b.strategy == SimShuffle::Baseline
        })
        .expect("baseline cell present")
}

fn table_lines(cells: &[Cell]) -> Vec<String> {
    let mut lines = Vec::new();
    for c in cells {
        let base = baseline_of(cells, c);
        lines.push(format!(
            "{:<6}  {:>4.0}:1  {:<10}  {:>9}  {:>6.1}%  {:>9}",
            c.stack,
            c.oversub,
            c.strategy.label(),
            fmt_size(c.wire_bytes),
            100.0 * c.wire_bytes as f64 / base.wire_bytes as f64,
            fmt_secs(c.makespan.as_secs_f64()),
        ));
    }
    lines
}

fn print_table(cells: &[Cell]) {
    let header = format!(
        "{:<6}  {:>6}  {:<10}  {:>9}  {:>7}  {:>9}",
        "stack", "core", "strategy", "wire", "vs base", "makespan"
    );
    println!("{header}");
    mpid_bench::rule(&header);
    for line in table_lines(cells) {
        println!("{line}");
    }
}

/// The figure's claims, asserted on every run (not just `--check`).
fn assert_shape(cells: &[Cell]) {
    for c in cells {
        let tag = format!("{}/{}:1/{}", c.stack, c.oversub, c.strategy.label());
        assert!(c.wire_bytes > 0, "{tag}: no wire traffic");
        assert!(c.makespan > SimTime::ZERO, "{tag}: empty run");
        // In-node combining must pay off on a 4-mappers-per-host shape.
        if c.strategy == SimShuffle::InNodeCombine {
            let base = baseline_of(cells, c);
            assert!(
                c.wire_bytes < base.wire_bytes,
                "{tag}: in-node combine did not cut wire volume \
                 ({} vs {})",
                c.wire_bytes,
                base.wire_bytes
            );
        }
    }
    // Strategies change bytes moved, never bytes meant: each strategy's
    // wire volume is identical across core oversubscription levels.
    for stack in STACKS {
        for strategy in STRATEGIES {
            let wires: Vec<u64> = cells
                .iter()
                .filter(|c| c.stack == stack && c.strategy == strategy)
                .map(|c| c.wire_bytes)
                .collect();
            assert!(
                wires.windows(2).all(|w| w[0] == w[1]),
                "{stack}/{}: wire volume varies with topology: {wires:?}",
                strategy.label()
            );
        }
    }
    println!();
    println!(
        "shape: {} cells; in-node combine cuts wire volume in every column, \
         and wire volume is topology-invariant",
        cells.len()
    );
}

fn run_check(cells: &[Cell]) {
    println!();
    println!("check — determinism (byte-identical tables on re-run)");
    assert_eq!(
        table_lines(cells),
        table_lines(&run_grid()),
        "grid drifted across independent replays"
    );
    println!("  {} cells: byte-identical across replays", cells.len());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");

    println!(
        "Shuffle strategies under rack topologies — {} WordCount, \
         2 racks x {} hosts, {} map tasks per host",
        fmt_size(INPUT_BYTES),
        HOSTS_PER_RACK,
        MAPPERS_PER_HOST,
    );
    println!(
        "(strategy set per job through JobSpec::shuffle; wire = \
         shuffle payload that crossed disk/network after strategy savings; \
         input {} MB per map wave)",
        INPUT_BYTES / MB / 64,
    );
    println!();

    let cells = run_grid();
    print_table(&cells);
    assert_shape(&cells);

    if check {
        run_check(&cells);
    }
}
