//! One-shot reproduction driver: runs every table/figure binary (plus the
//! ablations) and collects their stdout into a single markdown report.
//!
//! ```sh
//! cargo run --release -p mpid-bench --bin repro              # full scale
//! cargo run --release -p mpid-bench --bin repro -- --quick   # CI scale
//! cargo run --release -p mpid-bench --bin repro -- --out report.md
//! cargo run --release -p mpid-bench --bin repro -- --trace traces/
//! cargo run --release -p mpid-bench --bin repro -- --check
//! ```
//!
//! With `--trace <dir>`, every experiment that supports tracing also writes
//! a Chrome trace (`<dir>/<bin>.json`, Perfetto-loadable). With `--check`,
//! experiments that support it also run their real MPI pipeline under the
//! mpiverify correctness checker and assert it is observation-only.
//!
//! Each experiment binary asserts its own shape claims, so a nonzero exit
//! here means a reproduction regression, not just a formatting problem.

use std::io::Write;
use std::path::PathBuf;
use std::process::Command;

struct Experiment {
    bin: &'static str,
    title: &'static str,
    takes_quick: bool,
    takes_trace: bool,
    takes_check: bool,
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        bin: "fig2",
        title: "Figure 2 — point-to-point latency (Hadoop RPC vs MPICH2)",
        takes_quick: false,
        takes_trace: false,
        takes_check: false,
    },
    Experiment {
        bin: "fig3",
        title: "Figure 3 — bandwidth at varying packet sizes",
        takes_quick: false,
        takes_trace: false,
        takes_check: false,
    },
    Experiment {
        bin: "fig1",
        title: "Figure 1 — JavaSort per-reducer shuffle breakdown",
        takes_quick: true,
        takes_trace: true,
        takes_check: false,
    },
    Experiment {
        bin: "table1",
        title: "Table I — copy-stage share sweep",
        takes_quick: true,
        takes_trace: true,
        takes_check: false,
    },
    Experiment {
        bin: "fig6",
        title: "Figure 6 — WordCount: Hadoop vs MPI-D",
        takes_quick: true,
        takes_trace: true,
        takes_check: true,
    },
    Experiment {
        bin: "ablation",
        title: "Ablations — combiner, spills, pressure, compression, speculation",
        takes_quick: false,
        takes_trace: false,
        takes_check: false,
    },
];

/// Standing triage notes for the test suite, appended to every generated
/// report so readers of REPRO_REPORT.md see the suite's known state.
const TEST_TRIAGE: &str = "\
## Test-suite triage

`cargo test -q` at the original seed commit failed before running a single
test: five dev-dependencies (`bytes`, `rand`, `proptest`, `criterion`,
`parking_lot`) were declared as crates-io dependencies, which cannot be
fetched in the offline build environment. That was an environment problem,
not a code bug — the fix was vendoring minimal API-compatible stubs under
`vendor/` and pointing the workspace at them as path dependencies, after
which the whole suite compiles and runs with `--offline`.

There are **no intentionally-red tests**: every test in the workspace is
expected to pass, and the experiment binaries above assert their own
paper-shape claims (a nonzero exit from `repro` means a reproduction
regression). Trace-instrumented runs are covered by dedicated tests
asserting that tracing is a pure observation: traced and untraced runs
produce identical results, and trace export is byte-identical across
identical runs (`mpi-rt`, `mpid`, `hadoop-sim` trace tests).
";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let out_path: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("REPRO_REPORT.md"));
    let trace_dir: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir).expect("create trace dir");
    }

    // Sibling binaries live next to this one.
    let bin_dir = std::env::current_exe()
        .expect("current_exe")
        .parent()
        .expect("bin dir")
        .to_path_buf();

    let mut report = String::new();
    report.push_str("# Reproduction report — ICPP 2011 MPI-D suite\n\n");
    report.push_str(&format!(
        "Scale: {}. Every experiment binary asserts its paper-shape claims; \
         this report is their captured output.\n\n",
        if quick {
            "`--quick` (CI)"
        } else {
            "full (paper)"
        }
    ));

    let mut failures = Vec::new();
    for exp in EXPERIMENTS {
        let path = bin_dir.join(exp.bin);
        eprintln!("== running {} ...", exp.bin);
        let mut cmd = Command::new(&path);
        if quick && exp.takes_quick {
            cmd.arg("--quick");
        }
        if let Some(dir) = &trace_dir {
            if exp.takes_trace {
                cmd.arg("--trace")
                    .arg(dir.join(format!("{}.json", exp.bin)));
            }
        }
        if check && exp.takes_check {
            cmd.arg("--check");
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!(
                    "   could not launch {} ({e}); build all bins first: \
                     cargo build --release -p mpid-bench --bins",
                    path.display()
                );
                failures.push(exp.bin);
                continue;
            }
        };
        report.push_str(&format!("## {}\n\n```text\n", exp.title));
        report.push_str(&String::from_utf8_lossy(&output.stdout));
        if !output.status.success() {
            failures.push(exp.bin);
            report.push_str("\n*** SHAPE CHECK FAILED ***\n");
            report.push_str(&String::from_utf8_lossy(&output.stderr));
        }
        report.push_str("```\n\n");
    }

    report.push_str(TEST_TRIAGE);

    let mut f = std::fs::File::create(&out_path).expect("create report file");
    f.write_all(report.as_bytes()).expect("write report");
    println!("report written to {}", out_path.display());
    if failures.is_empty() {
        println!(
            "all {} experiments reproduced their shape claims",
            EXPERIMENTS.len()
        );
    } else {
        println!("FAILED experiments: {failures:?}");
        std::process::exit(1);
    }
}
