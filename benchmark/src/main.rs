//! benchmark — this repository's one repeatable benchmark.
//!
//! `cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!  [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace 0|1] [--smoke] [--out <path>]`
//!
//! One invocation runs one pass over one workload (every workload when
//! `--workload` is absent): with `--trace 0` the end-to-end pass, a closed
//! loop of one client in which a rep starts when the previous one finished;
//! with `--trace 1` the traced pass that gives the per-layer numbers. Each
//! pass prints its metrics by name with their units and ends with one JSON
//! line. README.md beside this package explains every metric and workload.

mod json;
mod metrics;
mod probes;
mod sims;
mod spans;
mod staged;
mod stats;
mod sysinfo;
mod workloads;

use json::Value;
use metrics::{Layers, END_TO_END, PER_LAYER, WORKLOADS};
use spans::Span;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Scale, TracedRun, Workload};

const USAGE: &str = "usage: benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] \
                     [--trace 0|1] [--smoke] [--out <path>] [--print-spec]";

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    print_spec: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: metrics::DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: None,
        print_spec: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let def = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?;
                args.workload = Some(def.name);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer")?;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--print-spec" => args.print_spec = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// How long and how often one pass runs.
#[derive(Clone, Copy)]
struct Plan {
    scale: Scale,
    seconds: f64,
    /// Set-ups per end-to-end pass; `setup_s` is their median.
    setups: usize,
    warmups: usize,
    min_reps: usize,
    /// Least rounds of a traced pass: of the workload itself, and of each
    /// reference workload that stands in for layers it does not exercise.
    own_rounds: u32,
    ref_rounds: u32,
}

impl Plan {
    fn full(seconds: f64) -> Plan {
        Plan {
            scale: Scale::Full,
            seconds,
            setups: 3,
            warmups: 2,
            min_reps: 5,
            own_rounds: 3,
            ref_rounds: 2,
        }
    }

    fn smoke() -> Plan {
        Plan {
            scale: Scale::Small,
            seconds: 0.0,
            setups: 1,
            warmups: 0,
            min_reps: 2,
            own_rounds: 2,
            ref_rounds: 1,
        }
    }
}

/// The result of one pass over one workload.
struct Report {
    workload: &'static str,
    trace: bool,
    seed: u64,
    attempted: u64,
    failures: Vec<String>,
    /// Name, value, unit: every metric of the pass, in table order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Untraced rep walls, seconds.
    walls: Vec<f64>,
    spans: Vec<Span>,
}

impl Report {
    fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    /// The line the driver reads.
    fn result_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.failures.is_empty())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed() as f64)),
            ("metrics", self.metrics_json()),
        ])
        .to_line()
    }

    fn metrics_json(&self) -> Value {
        Value::Obj(
            self.metrics
                .iter()
                .map(|&(name, value, unit)| {
                    let entry =
                        Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]);
                    (name.to_string(), entry)
                })
                .collect(),
        )
    }

    fn print(&self) {
        let pass = if self.trace {
            "traced pass"
        } else {
            "end-to-end pass"
        };
        println!("== {} · {pass} · seed {} ==", self.workload, self.seed);
        let [q1, q2, q3] = stats::quartiles(&self.walls);
        let iqr_share = stats::iqr_share(&self.walls);
        println!(
            "reps {}  wall s: q1 {q1:.6}  median {q2:.6}  q3/p75 {q3:.6}  harness.wall_iqr_share {iqr_share:.4}",
            self.walls.len()
        );
        for &(name, value, unit) in &self.metrics {
            let bound = END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound);
            let note = match bound {
                Some(b) if name == metrics::JOB_MB_PER_S && iqr_share > b => format!(
                    "  bound {b}  UNRESOLVED: reps spread {iqr_share:.3} of the median, wider than \
                     the bound; compare medians of at least ten runs"
                ),
                Some(b) => format!("  bound {b}"),
                None => String::new(),
            };
            println!("{name:<40} {value:>18.6} {unit}{note}");
        }
        for f in self.failures.iter().take(5) {
            println!("FAILED: {f}");
        }
        if self.failures.len() > 5 {
            println!("FAILED: ... and {} more", self.failures.len() - 5);
        }
    }
}

/// The end-to-end pass: set up, warm up, then reps in a closed loop until
/// `plan.seconds` have passed.
fn end_to_end(name: &'static str, seed: u64, plan: Plan) -> Report {
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..plan.setups {
        // Free the previous copy first, so set-up never holds two inputs.
        drop(workload.take());
        let t0 = Instant::now();
        workload = workloads::build(name, seed, plan.scale);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("workload names come from the table");

    let mut attempted = 0;
    let mut failures = Vec::new();
    for _ in 0..plan.warmups {
        attempted += 1;
        failures.extend(workload.rep().failure);
    }
    let mut walls = Vec::new();
    let mut wire = Vec::new();
    let started = Instant::now();
    while walls.len() < plan.min_reps || started.elapsed().as_secs_f64() < plan.seconds {
        let rep = workload.rep();
        attempted += 1;
        walls.push(rep.wall_s);
        wire.push(rep.wire_bytes as f64);
        failures.extend(rep.failure);
    }

    let input_bytes = workload.input_bytes() as f64;
    let values = [
        (metrics::SETUP_S, stats::median(&setup_s)),
        (
            metrics::JOB_MB_PER_S,
            input_bytes / 1e6 / stats::midmean(&walls),
        ),
        (metrics::WIRE_RATIO, stats::median(&wire) / input_bytes),
    ];
    Report {
        workload: name,
        trace: false,
        seed,
        attempted,
        failures,
        metrics: END_TO_END
            .iter()
            .map(|m| {
                let (_, v) = values
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .expect("every end-to-end metric is computed above");
                (m.name, *v, m.unit)
            })
            .collect(),
        walls,
        spans: Vec::new(),
    }
}

/// Which layers a workload exercises.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Real,
    Fig6,
    Churn,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Real, Kind::Fig6, Kind::Churn];

    fn of(workload: &str) -> Kind {
        match workload {
            "sim_fig6" => Kind::Fig6,
            "sim_flow_churn" => Kind::Churn,
            _ => Kind::Real,
        }
    }

    /// The workload that stands in for this kind, at `Scale::Small`, in the
    /// traced run of a workload of another kind.
    fn reference(self) -> &'static str {
        match self {
            Kind::Real => "wc_zipf",
            Kind::Fig6 => "sim_fig6",
            Kind::Churn => "sim_flow_churn",
        }
    }
}

/// Reference workloads, built on first use and shared by every traced pass
/// of the process.
#[derive(Default)]
struct References(Vec<(&'static str, Box<dyn Workload>)>);

impl References {
    fn get(&mut self, kind: Kind, seed: u64) -> &mut dyn Workload {
        let name = kind.reference();
        let at = match self.0.iter().position(|(n, _)| *n == name) {
            Some(at) => at,
            None => {
                let w = workloads::build(name, seed, Scale::Small).expect("a table name");
                self.0.push((name, w));
                self.0.len() - 1
            }
        };
        &mut *self.0[at].1
    }
}

/// The traced pass. Every per-layer metric is measured in every run: the
/// workload measures the layers it exercises for 45 % of `plan.seconds`,
/// small reference workloads the others, and the isolated probes the rest.
fn traced(name: &'static str, seed: u64, plan: Plan, refs: &mut References) -> Report {
    let mut layers = Layers::default();
    let mut own = workloads::build(name, seed, plan.scale).expect("a table name");
    sysinfo::reset_peak_rss();
    let TracedRun {
        walls,
        mut failures,
        cpu_s_per_rep,
        spans,
    } = own.traced(plan.seconds * 0.45, plan.own_rounds, &mut layers);
    let peak_rss_mb = sysinfo::peak_rss_mb();
    drop(own);
    let mut attempted = walls.len() as u64;
    for kind in Kind::ALL {
        if kind != Kind::of(name) {
            let run = refs
                .get(kind, seed)
                .traced(0.0, plan.ref_rounds, &mut layers);
            attempted += run.walls.len() as u64;
            failures.extend(
                run.failures
                    .into_iter()
                    .map(|e| format!("reference {}: {e}", kind.reference())),
            );
        }
    }
    probes::run(plan.scale, &mut layers);

    layers.set("harness.reps", walls.len() as f64);
    layers.set("harness.wall_median_s", stats::median(&walls));
    layers.set("harness.wall_p75_s", stats::quartiles(&walls)[2]);
    layers.set("harness.wall_iqr_share", stats::iqr_share(&walls));
    layers.set("harness.cpu_s_per_job", cpu_s_per_rep);
    layers.set("harness.peak_rss_mb", peak_rss_mb);
    let mut metrics = Vec::new();
    for m in PER_LAYER {
        match layers.get(m.name) {
            Some(v) => metrics.push((m.name, v, m.unit)),
            None => failures.push(format!("per-layer metric {} was not measured", m.name)),
        }
    }
    Report {
        workload: name,
        trace: true,
        seed,
        attempted,
        failures,
        metrics,
        walls,
        spans,
    }
}

/// `--smoke`: every workload through both passes on tiny inputs. A pass
/// reports exactly the metrics of the tables (a missing one is a failure), so
/// checking the tables against `BENCHMARK.json` checks the output's names.
fn smoke(seed: u64) -> Result<Vec<Report>, String> {
    metrics::check_spec_file()?;
    let mut refs = References::default();
    let mut reports = Vec::new();
    for w in WORKLOADS {
        for trace in [false, true] {
            let report = if trace {
                traced(w.name, seed, Plan::smoke(), &mut refs)
            } else {
                end_to_end(w.name, seed, Plan::smoke())
            };
            report.print();
            if let Some(f) = report.failures.first() {
                return Err(format!("{}: {f}", w.name));
            }
            if let Some(bad) = report.metrics.iter().find(|m| !m.1.is_finite()) {
                return Err(format!("{}: {} is not a finite number", w.name, bad.0));
            }
            reports.push(report);
        }
    }
    Ok(reports)
}

/// Everything measured, for `--out`.
fn out_json(args: &Args, reports: &[Report]) -> Value {
    Value::obj([
        ("schema", Value::str("mpid-benchmark/1")),
        (
            "machine",
            Value::obj([
                ("nproc", Value::Num(sysinfo::nproc() as f64)),
                ("cpu_model", Value::str(sysinfo::cpu_model())),
            ]),
        ),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("smoke", Value::Bool(args.smoke)),
        (
            "passes",
            Value::Arr(
                reports
                    .iter()
                    .map(|r| {
                        Value::obj([
                            ("workload", Value::str(r.workload)),
                            ("trace", Value::Bool(r.trace)),
                            ("attempted", Value::Num(r.attempted as f64)),
                            ("failed", Value::Num(r.failed() as f64)),
                            (
                                "failures",
                                Value::Arr(r.failures.iter().map(Value::str).collect()),
                            ),
                            ("reps", Value::Num(r.walls.len() as f64)),
                            (
                                "rep_wall_s",
                                Value::Arr(r.walls.iter().map(|w| Value::Num(*w)).collect()),
                            ),
                            ("metrics", r.metrics_json()),
                            ("spans", spans::to_json(&r.spans)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Spill files of the bounded workloads go where `std::env::temp_dir()`
/// points; keep that inside the working directory, which is the checkout.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create() -> std::io::Result<Self> {
        let dir = std::env::current_dir()?.join(".bench_tmp");
        std::fs::create_dir_all(&dir)?;
        // No other thread exists yet.
        std::env::set_var("TMPDIR", &dir);
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_spec {
        print!("{}", metrics::spec().to_pretty());
        return ExitCode::SUCCESS;
    }
    let _scratch = match ScratchDir::create() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("benchmark: cannot create .bench_tmp in the working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "benchmark · {} logical CPUs · {} · seed {} (default {}, held out {}) · {} s per pass",
        sysinfo::nproc(),
        sysinfo::cpu_model(),
        args.seed,
        metrics::DEFAULT_SEED,
        metrics::HELD_OUT_SEED,
        args.seconds
    );

    let started = Instant::now();
    let reports = if args.smoke {
        match smoke(args.seed) {
            Ok(reports) => {
                println!("smoke ok in {:.1} s", started.elapsed().as_secs_f64());
                reports
            }
            Err(e) => {
                eprintln!("benchmark: smoke failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let plan = Plan::full(args.seconds);
        let mut refs = References::default();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .filter(|n| args.workload.is_none_or(|w| w == *n));
        let mut reports = Vec::new();
        for name in names {
            let report = if args.trace {
                traced(name, args.seed, plan, &mut refs)
            } else {
                end_to_end(name, args.seed, plan)
            };
            report.print();
            println!("{}", report.result_line());
            reports.push(report);
        }
        reports
    };
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, out_json(&args, &reports).to_pretty()) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
