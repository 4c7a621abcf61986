//! Shuffle-strategy figure (no counterpart in the paper, which ships every
//! spill directly): the pluggable shuffle seam swept across both simulated
//! stacks on rack topologies. The grid runs (stack × core oversubscription
//! × strategy) — Hadoop and MPI-D, a 2-rack cluster with a 1:1, 4:1 and
//! 8:1 oversubscribed core, and baseline / in-node combine / coded shuffle
//! at r ∈ {1, 2, 3} — on a WordCount-shaped job with four co-located map
//! tasks per host, reporting shuffle wire bytes, makespan and the map-phase
//! extent (where coded shuffle's replicated map work shows up) per cell.
//!
//! The claims the table supports:
//!
//! * in-node combining cuts wire volume on any multi-mapper-per-host shape
//!   (co-located spills share a vocabulary, so duplicate keys cross the
//!   wire once per host instead of once per mapper);
//! * coded shuffle cuts wire volume ≈ `r`× at the price of `r`× map work —
//!   a trade that only pays where the core is oversubscribed enough that
//!   the copy phase, not the map phase, bounds the job;
//! * strategies change bytes moved, never bytes meant: wire volume is
//!   topology-invariant, and `r = 1` coded is byte-identical to baseline.
//!
//! Every cell is a simulator output. In-node combining also exists on the
//! real path (`mpid::ShuffleKind::InNodeCombine`); the coded rows are a
//! model with no real-path counterpart — the `1/r` wire factor is assumed.
//!
//! `--check` shrinks the input, re-runs the grid and asserts those claims
//! plus byte-identical tables across independent replays (determinism).

use desim::SimTime;
use hadoop_sim::HadoopConfig;
use mapred::{run_sim_mpid, SimMpidConfig};
use mpid_bench::{fmt_secs, fmt_size, GB, MB};
use netsim::{JobSpec, RackLayout, SimShuffle};

const STACKS: [&str; 2] = ["hadoop", "mpid"];
const OVERSUB: [f64; 3] = [1.0, 4.0, 8.0];
const HOSTS_PER_RACK: usize = 4;
const MAPPERS_PER_HOST: usize = 4;

fn strategies() -> [SimShuffle; 5] {
    [
        SimShuffle::Baseline,
        SimShuffle::InNodeCombine,
        SimShuffle::Coded { r: 1 },
        SimShuffle::Coded { r: 2 },
        SimShuffle::Coded { r: 3 },
    ]
}

struct Scale {
    input_bytes: u64,
}

impl Scale {
    fn full() -> Self {
        Scale {
            input_bytes: 4 * GB,
        }
    }

    fn check() -> Self {
        Scale { input_bytes: GB }
    }
}

/// One grid cell's results, with everything the assertions need.
struct Cell {
    stack: &'static str,
    oversub: f64,
    strategy: SimShuffle,
    wire_bytes: u64,
    makespan: SimTime,
    /// Map-phase extent (first map start to last map end) — coded
    /// shuffle's replicated map work lands here.
    map_extent: SimTime,
}

fn rack(oversub: f64) -> RackLayout {
    let nic = netsim::ClusterSpec::icpp2011_testbed().nic_bytes_per_sec;
    RackLayout::oversubscribed(HOSTS_PER_RACK, nic, oversub)
}

fn wc_spec(input_bytes: u64, strategy: SimShuffle) -> JobSpec {
    let mut spec = workloads::wordcount_spec(input_bytes);
    spec.shuffle = strategy;
    spec
}

/// The network-bound contrast workload: identity map, shuffle everything.
/// WordCount on this testbed is map-CPU-bound, so coded shuffle's wire
/// savings can never buy back its replicated map work there; sort is where
/// the copy volume, not the map CPU, bounds the job.
fn sort_spec(input_bytes: u64, strategy: SimShuffle) -> JobSpec {
    let mut spec = workloads::javasort_spec(input_bytes);
    spec.shuffle = strategy;
    spec
}

fn run_hadoop(scale: &Scale, oversub: f64, strategy: SimShuffle) -> Cell {
    let mut cfg = HadoopConfig::icpp2011(MAPPERS_PER_HOST, 4, 8);
    cfg.cluster.rack = Some(rack(oversub));
    cfg.straggler_prob = 0.0; // keep the strategy comparison noise-free
    cfg.speculative = false;
    let report = hadoop_sim::run_job(cfg, wc_spec(scale.input_bytes, strategy));
    let extent = report
        .phase_timeline()
        .iter()
        .find(|p| p.0 == "map")
        .map(|&(_, s, e)| e - s)
        .expect("map phase present");
    Cell {
        stack: "hadoop",
        oversub,
        strategy,
        wire_bytes: report.shuffle_wire_bytes,
        makespan: report.makespan,
        map_extent: extent,
    }
}

fn run_mpid(scale: &Scale, oversub: f64, strategy: SimShuffle) -> Cell {
    run_mpid_spec(oversub, strategy, wc_spec(scale.input_bytes, strategy))
}

fn run_mpid_spec(oversub: f64, strategy: SimShuffle, spec: JobSpec) -> Cell {
    // 7 worker hosts × 4 co-located mapper processes, mirroring the Hadoop
    // side's slot shape so the in-node combine sees the same co-location.
    let mut cfg = SimMpidConfig::icpp2011_fig6();
    cfg.n_mappers = 7 * MAPPERS_PER_HOST;
    cfg.n_reducers = 4;
    cfg.cluster.rack = Some(rack(oversub));
    let cfg = cfg.with_auto_splits(spec.input_bytes);
    let report = run_sim_mpid(cfg, spec);
    let map_start = report
        .mapper_spans
        .iter()
        .map(|&(s, _)| s)
        .min()
        .unwrap_or(SimTime::ZERO);
    Cell {
        stack: "mpid",
        oversub,
        strategy,
        wire_bytes: report.wire_bytes,
        makespan: report.makespan,
        map_extent: report.map_finish - map_start,
    }
}

fn run_grid(scale: &Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for stack in STACKS {
        for &oversub in &OVERSUB {
            for strategy in strategies() {
                cells.push(match stack {
                    "hadoop" => run_hadoop(scale, oversub, strategy),
                    _ => run_mpid(scale, oversub, strategy),
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
            "{:<6}  {:>4.0}:1  {:<10}  {:>9}  {:>6.1}%  {:>9}  {:>9}",
            c.stack,
            c.oversub,
            c.strategy.label(),
            fmt_size(c.wire_bytes),
            100.0 * c.wire_bytes as f64 / base.wire_bytes as f64,
            fmt_secs(c.makespan.as_secs_f64()),
            fmt_secs(c.map_extent.as_secs_f64()),
        ));
    }
    lines
}

fn print_table(cells: &[Cell]) {
    let header = format!(
        "{:<6}  {:>6}  {:<10}  {:>9}  {:>7}  {:>9}  {:>9}",
        "stack", "core", "strategy", "wire", "vs base", "makespan", "map"
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
        let base = baseline_of(cells, c);
        match c.strategy {
            // In-node combining must pay off on a 4-mappers-per-host shape.
            SimShuffle::InNodeCombine => assert!(
                c.wire_bytes < base.wire_bytes,
                "{tag}: in-node combine did not cut wire volume \
                 ({} vs {})",
                c.wire_bytes,
                base.wire_bytes
            ),
            // r = 1 coded is the degenerate strategy: baseline volumes.
            SimShuffle::Coded { r: 1 } => assert_eq!(
                c.wire_bytes, base.wire_bytes,
                "{tag}: degenerate coded drifted from baseline"
            ),
            // r ≥ 2 cuts wire ≈ r× and stretches the map phase.
            SimShuffle::Coded { r } => {
                let ratio = c.wire_bytes as f64 / base.wire_bytes as f64;
                let want = 1.0 / r as f64;
                assert!(
                    (ratio - want).abs() < 0.05,
                    "{tag}: wire ratio {ratio:.3}, expected ≈ {want:.3}"
                );
                assert!(
                    c.map_extent > base.map_extent,
                    "{tag}: replicated map work did not stretch the map phase"
                );
            }
            SimShuffle::Baseline => {}
        }
    }
    // Strategies change bytes moved, never bytes meant: each strategy's
    // wire volume is identical across core oversubscription levels.
    for stack in STACKS {
        for strategy in strategies() {
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
        "shape: {} cells; in-node combine and coded r>=2 cut wire volume in \
         every column, r=1 coded is byte-identical to baseline, and wire \
         volume is topology-invariant",
        cells.len()
    );
}

/// Where coded shuffle wins: WordCount above is map-CPU-bound, so `r`×
/// map work always loses there — the grid shows the wire savings but the
/// makespan column says "don't". On a network-bound sort (identity map,
/// shuffle everything) over an oversubscribed core, halving the wire
/// volume halves the binding resource, and coded r = 2 must beat its own
/// baseline's makespan.
fn run_coded_wins(scale: &Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &oversub in &[1.0, 8.0] {
        for strategy in [SimShuffle::Baseline, SimShuffle::Coded { r: 2 }] {
            cells.push(run_mpid_spec(
                oversub,
                strategy,
                sort_spec(scale.input_bytes, strategy),
            ));
        }
    }
    println!();
    println!("where coded shuffle wins — network-bound sort, mpid stack:");
    print_table(&cells);
    let pick = |oversub: f64, strategy: SimShuffle| {
        cells
            .iter()
            .find(|c| c.oversub == oversub && c.strategy == strategy)
            .expect("cell present")
    };
    let base = pick(8.0, SimShuffle::Baseline);
    let coded = pick(8.0, SimShuffle::Coded { r: 2 });
    assert!(
        coded.makespan < base.makespan,
        "coded r=2 on an 8:1 core should beat the network-bound baseline \
         ({:?} vs {:?})",
        coded.makespan,
        base.makespan
    );
    println!();
    println!(
        "  mpid sort @ 8:1 core: coded r=2 makespan {} beats baseline {} \
         (the same trade loses on CPU-bound WordCount above)",
        fmt_secs(coded.makespan.as_secs_f64()),
        fmt_secs(base.makespan.as_secs_f64()),
    );
    cells
}

fn run_check(scale: &Scale, cells: &[Cell], coded_wins: &[Cell]) {
    println!();
    println!("check — determinism (byte-identical tables on re-run)");
    let again = run_grid(scale);
    assert_eq!(
        table_lines(cells),
        table_lines(&again),
        "grid drifted across independent replays"
    );
    let wins_again: Vec<Cell> = [1.0, 8.0]
        .iter()
        .flat_map(|&o| {
            [SimShuffle::Baseline, SimShuffle::Coded { r: 2 }]
                .into_iter()
                .map(move |st| run_mpid_spec(o, st, sort_spec(scale.input_bytes, st)))
        })
        .collect();
    assert_eq!(
        table_lines(coded_wins),
        table_lines(&wins_again),
        "coded-wins table drifted across independent replays"
    );
    println!(
        "  {} cells: byte-identical across replays",
        cells.len() + coded_wins.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let scale = if check { Scale::check() } else { Scale::full() };

    println!(
        "Shuffle strategies under rack topologies — {} WordCount, \
         2 racks x {} hosts, {} map tasks per host",
        fmt_size(scale.input_bytes),
        HOSTS_PER_RACK,
        MAPPERS_PER_HOST,
    );
    println!(
        "(strategy set per job through JobSpec::shuffle; wire = \
         shuffle payload that crossed disk/network after strategy savings; \
         input {} MB per map wave; coded_r<r> rows are a model with no \
         real-path counterpart)",
        scale.input_bytes / MB / 64,
    );
    println!();

    let cells = run_grid(&scale);
    print_table(&cells);
    assert_shape(&cells);
    let coded_wins = run_coded_wins(&scale);

    if check {
        run_check(&scale, &cells, &coded_wins);
    }
}
