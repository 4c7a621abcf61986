//! Figure 2 (a/b/c) — point-to-point message latency: Hadoop RPC vs MPICH2,
//! message sizes 1 B to 64 MB (one-way = ping-pong / 2).
//!
//! This binary evaluates the calibrated protocol models on the simulated
//! GbE testbed (Figures 2–3 are the *calibration inputs* of the
//! reproduction — see DESIGN.md §5 — so this is a fidelity check that the
//! models reproduce the paper's anchor ratios: 2.49× at 1 B, 15.1× at 1 KB,
//! >100× beyond 256 KB, 123× at 1 MB).
//!
//! The models are `netsim::HadoopRpcModel` and `netsim::MpiModel`.

use mpid_bench::{fmt_secs, size_sweep};
use netsim::{HadoopRpcModel, MpiModel, Transport};

fn main() {
    let mpi = MpiModel::default();
    let rpc = HadoopRpcModel::default();

    println!("Figure 2 — message latency, Hadoop RPC vs MPICH2 (simulated GbE testbed)");
    println!();
    let header = format!(
        "{:>8}  {:>12}  {:>12}  {:>8}   {}",
        "size", "MPICH2", "Hadoop RPC", "ratio", "paper anchor"
    );
    println!("{header}");
    mpid_bench::rule(&header);

    for size in size_sweep() {
        let m = mpi.one_way_latency(size).as_secs_f64();
        let r = rpc.one_way_latency(size).as_secs_f64();
        let note = match size {
            1 => "2.49x (smallest gap)",
            1024 => "15.1x",
            262144 => ">100x beyond here",
            1048576 => "123x (biggest gap); 10.3ms vs 1259ms",
            67108864 => "572ms vs 56827ms",
            _ => "",
        };
        println!(
            "{:>8}  {:>12}  {:>12}  {:>7.1}x   {}",
            mpid_bench::fmt_size(size),
            fmt_secs(m),
            fmt_secs(r),
            r / m,
            note
        );
    }

    // Fidelity checks against the paper's reported anchors.
    let ratio =
        |b: u64| rpc.one_way_latency(b).as_secs_f64() / mpi.one_way_latency(b).as_secs_f64();
    assert!((ratio(1) - 2.49).abs() < 0.1, "1B anchor");
    assert!((ratio(1 << 10) - 15.1).abs() < 0.5, "1KB anchor");
    assert!(ratio(512 << 10) > 100.0, "256KB+ anchor");
    assert!(ratio(1 << 20) > 115.0, "1MB anchor");
    assert!(
        (mpi.one_way_latency(64 << 20).as_millis_f64() - 572.0).abs() < 5.0,
        "MPI 64MB anchor"
    );
    assert!(
        (rpc.one_way_latency(64 << 20).as_millis_f64() - 56_827.0).abs() < 500.0,
        "RPC 64MB anchor"
    );
    println!();
    println!("all paper anchors reproduced (1B: 2.49x, 1KB: 15.1x, >=256KB: >100x, 1MB: ~123x)");
}
