//! Serving figure (no counterpart in the paper, which benchmarks one job at
//! a time): a multi-tenant stream of heterogeneous jobs — WordCount / sort /
//! index / grep, zipf-ish sizes — served by a long-lived master on a
//! rack-aware 120-node cluster with a 4:1 oversubscribed core. The grid
//! sweeps (scheduler × stack × load): FIFO, fair-share and capacity
//! admission over the Hadoop and MPI-D backends at a light and a heavy
//! arrival rate, reporting jobs/sec, p50/p95/p99 job latency and cluster
//! utilization per point. A final fault-under-load point replays the heavy
//! stream while a node crashes and a rack uplink partitions and heals,
//! showing each stack's recovery bill (Hadoop phase restarts vs MPI-D
//! whole-job requeues) under contention.
//!
//! `--check` shrinks the cluster and stream, re-runs the grid and asserts
//! byte-identical reports (schedule determinism) plus Hadoop-vs-MPI-D
//! job-output identity on every point.

use desim::SimTime;
use faults::FaultPlan;
use mpid_bench::fmt_secs;
use serve::{
    arrival_stream, hadoop_backend, mpid_backend, run_serve, Arrival, ArrivalConfig, Capacity,
    FairShare, Fifo, JobBackend, Scheduler, ServeConfig, ServeReport,
};

const SEED: u64 = 0x5E12;
const SCHEDULERS: [&str; 3] = ["fifo", "fair", "capacity"];
const STACKS: [&str; 2] = ["hadoop", "mpid"];
const TENANTS: u32 = 3;

/// Cluster + stream scale: the full figure vs the `--check` smoke.
struct Scale {
    n_racks: usize,
    hosts_per_rack: usize,
    n_jobs: usize,
    light_gap: SimTime,
    heavy_gap: SimTime,
    /// Fault times for the fault-under-load point.
    crash_at: SimTime,
    cut_at: SimTime,
    heal_at: SimTime,
}

impl Scale {
    fn full() -> Self {
        Scale {
            n_racks: 5,
            hosts_per_rack: 24,
            n_jobs: 60,
            light_gap: SimTime::from_secs(20),
            heavy_gap: SimTime::from_secs(2),
            crash_at: SimTime::from_secs(30),
            cut_at: SimTime::from_secs(90),
            heal_at: SimTime::from_secs(210),
        }
    }

    fn check() -> Self {
        Scale {
            n_racks: 3,
            hosts_per_rack: 8,
            n_jobs: 16,
            light_gap: SimTime::from_secs(15),
            heavy_gap: SimTime::from_secs(2),
            crash_at: SimTime::from_secs(8),
            cut_at: SimTime::from_secs(20),
            heal_at: SimTime::from_secs(60),
        }
    }

    fn hosts(&self) -> usize {
        self.n_racks * self.hosts_per_rack
    }

    fn cluster(&self) -> ServeConfig {
        ServeConfig::rackscale(self.n_racks, self.hosts_per_rack, 4.0)
    }

    fn stream(&self, heavy: bool) -> Vec<Arrival> {
        let gap = if heavy {
            self.heavy_gap
        } else {
            self.light_gap
        };
        let mut cfg = ArrivalConfig::new(self.n_jobs, gap);
        cfg.n_tenants = TENANTS;
        arrival_stream(SEED, &cfg)
    }

    /// The fault-under-load plan: one node crash in rack 1 (allocation
    /// fills it first, so it is busy early), then the rest of rack 1's
    /// uplink partitions away from the master and heals.
    fn fault_plan(&self) -> FaultPlan {
        let crash_host = self.hosts_per_rack + 1;
        let rack1: Vec<usize> = (self.hosts_per_rack..2 * self.hosts_per_rack)
            .filter(|&h| h != crash_host)
            .collect();
        FaultPlan::builder()
            .crash(self.crash_at, crash_host)
            .partition_set(self.cut_at, 0, &rack1, self.heal_at)
            .build()
    }
}

fn scheduler_for(name: &str) -> Box<dyn Scheduler> {
    match name {
        "fifo" => Box::new(Fifo),
        "fair" => Box::new(FairShare),
        "capacity" => Box::new(Capacity { n_tenants: TENANTS }),
        _ => unreachable!("unknown scheduler"),
    }
}

fn backend_for(name: &str) -> Box<dyn JobBackend> {
    match name {
        "hadoop" => hadoop_backend(),
        "mpid" => mpid_backend(),
        _ => unreachable!("unknown stack"),
    }
}

struct Point {
    scheduler: &'static str,
    stack: &'static str,
    load: &'static str,
    report: ServeReport,
}

fn run_grid(scale: &Scale) -> Vec<Point> {
    let calm = FaultPlan::none();
    let mut points = Vec::new();
    for load in ["light", "heavy"] {
        let stream = scale.stream(load == "heavy");
        for scheduler in SCHEDULERS {
            for stack in STACKS {
                let report = run_serve(
                    &scale.cluster(),
                    scheduler_for(scheduler),
                    backend_for(stack),
                    &stream,
                    &calm,
                    None,
                );
                points.push(Point {
                    scheduler,
                    stack,
                    load,
                    report,
                });
            }
        }
    }
    points
}

fn run_fault_points(scale: &Scale) -> Vec<Point> {
    let stream = scale.stream(true);
    let plan = scale.fault_plan();
    STACKS
        .iter()
        .map(|stack| Point {
            scheduler: "fair",
            stack,
            load: "heavy+faults",
            report: run_serve(
                &scale.cluster(),
                scheduler_for("fair"),
                backend_for(stack),
                &stream,
                &plan,
                None,
            ),
        })
        .collect()
}

fn print_table(points: &[Point]) {
    let header = format!(
        "{:<9}  {:<6}  {:<12}  {:>8}  {:>9}  {:>9}  {:>9}  {:>5}  {:>9}  {:>8}",
        "scheduler",
        "stack",
        "load",
        "jobs/sec",
        "p50",
        "p95",
        "p99",
        "util",
        "recovered",
        "restarts"
    );
    println!("{header}");
    mpid_bench::rule(&header);
    for p in points {
        let r = &p.report;
        println!(
            "{:<9}  {:<6}  {:<12}  {:>8.4}  {:>9}  {:>9}  {:>9}  {:>4.0}%  {:>9}  {:>8}",
            p.scheduler,
            p.stack,
            p.load,
            r.jobs_per_sec(),
            fmt_secs(r.latency_quantile(0.50).as_secs_f64()),
            fmt_secs(r.latency_quantile(0.95).as_secs_f64()),
            fmt_secs(r.latency_quantile(0.99).as_secs_f64()),
            100.0 * r.utilization(),
            r.recovered,
            r.restarts,
        );
    }
}

/// The figure's claims: every point completes the whole stream, utilization
/// is sane, heavy load stresses latency at least as hard as light load, and
/// under faults each stack pays its own recovery bill.
fn assert_shape(points: &[Point], faulted: &[Point], n_jobs: usize) {
    for p in points.iter().chain(faulted) {
        let r = &p.report;
        let tag = format!("{}/{}/{}", p.scheduler, p.stack, p.load);
        assert_eq!(r.jobs.len(), n_jobs, "{tag}: stream incomplete");
        let u = r.utilization();
        assert!(u > 0.0 && u <= 1.0, "{tag}: utilization {u} out of range");
        assert!(r.jobs_per_sec() > 0.0, "{tag}: zero throughput");
    }
    // Per (scheduler, stack): heavy p99 is no better than light p99 (queueing
    // under contention can only hurt).
    for s in SCHEDULERS {
        for st in STACKS {
            let find = |load: &str| {
                &points
                    .iter()
                    .find(|p| p.scheduler == s && p.stack == st && p.load == load)
                    .expect("grid point present")
                    .report
            };
            let light = find("light").latency_quantile(0.99);
            let heavy = find("heavy").latency_quantile(0.99);
            assert!(
                heavy >= light,
                "{s}/{st}: heavy p99 {heavy:?} beats light p99 {light:?}"
            );
        }
    }
    let h = &faulted[0].report;
    let m = &faulted[1].report;
    assert!(
        h.recovered > 0,
        "hadoop under faults must phase-restart at least once"
    );
    assert_eq!(h.restarts, 0, "hadoop never requeues whole jobs");
    assert!(
        m.restarts > 0,
        "mpid under faults must requeue at least one job"
    );
    assert_eq!(m.recovered, 0, "mpid never phase-restarts");
    println!();
    println!(
        "shape: {} grid points + 2 fault points complete all {} jobs; \
         under faults Hadoop phase-restarted {}x, MPI-D requeued {} job(s)",
        points.len(),
        n_jobs,
        h.recovered,
        m.restarts,
    );
}

fn run_check(scale: &Scale) {
    println!();
    println!("check — schedule determinism (byte-identical reports on re-run)");
    let a = run_grid(scale);
    let b = run_grid(scale);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x.report.render(),
            y.report.render(),
            "{}/{}/{} report drifted across runs",
            x.scheduler,
            x.stack,
            x.load
        );
    }
    println!(
        "  {} grid points: byte-identical across independent replays",
        a.len()
    );
    println!("check — Hadoop-vs-MPI-D job-output identity on every point");
    for pair in a.chunks(2) {
        assert_eq!(
            pair[0].report.output_signature(),
            pair[1].report.output_signature(),
            "{}/{} stacks disagree on job outputs",
            pair[0].scheduler,
            pair[0].load
        );
    }
    let fa = run_fault_points(scale);
    let fb = run_fault_points(scale);
    for (x, y) in fa.iter().zip(&fb) {
        assert_eq!(x.report.render(), y.report.render(), "fault point drifted");
    }
    assert_eq!(
        fa[0].report.output_signature(),
        fa[1].report.output_signature(),
        "stacks disagree on outputs under faults"
    );
    println!("  outputs identical across stacks, with and without faults");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let scale = if check { Scale::check() } else { Scale::full() };

    println!(
        "Serving under contention — {} jobs streamed onto {} hosts \
         ({} racks x {}, 4:1 oversubscribed core, {} tenants)",
        scale.n_jobs,
        scale.hosts(),
        scale.n_racks,
        scale.hosts_per_rack,
        TENANTS,
    );
    println!(
        "(seed {SEED:#x}; light load = {} mean gap, heavy = {}; \
         40% wordcount, 20% each sort/index/grep, 64MB-4GB zipf sizes)",
        fmt_secs(scale.light_gap.as_secs_f64()),
        fmt_secs(scale.heavy_gap.as_secs_f64()),
    );
    println!();

    let points = run_grid(&scale);
    let faulted = run_fault_points(&scale);
    print_table(&points);
    println!();
    println!("fault-under-load (heavy stream; node crash + rack uplink partition that heals):");
    print_table(&faulted);
    assert_shape(&points, &faulted, scale.n_jobs);

    if check {
        run_check(&scale);
    }
}
