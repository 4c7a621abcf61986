//! The simulator workloads: the two stack models at the paper's Figure 6
//! points, and the fluid network driver alone under flow churn.

use crate::metrics::Layers;
use crate::stats::median;
use crate::sysinfo;
use crate::workloads::{Rep, Scale, TracedRun, Workload};
use desim::{Scheduler, Sim, SimTime};
use hadoop_sim::HadoopConfig;
use mapred::SimMpidConfig;
use netsim::{Cluster, ClusterSpec, HasNet, HostId, JobSpec, Net, SolverStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;
use std::time::Instant;
use workloads::wordcount_spec;

const GB: u64 = 1 << 30;
/// The input sizes of the paper's Figure 6.
const FIG6_GB: [u64; 3] = [1, 10, 100];

/// What the six simulated jobs of one `sim_fig6` rep returned.
#[derive(Debug, Clone, PartialEq)]
struct Fig6Out {
    /// Simulated makespans, Hadoop then MPI-D, per size.
    makespans: [[SimTime; 3]; 2],
    /// Shuffle bytes the models put on the simulated wire, all six jobs.
    wire_bytes: u64,
    hadoop_job_failed: bool,
}

/// Wall milliseconds of each of the six jobs, Hadoop then MPI-D, per size.
type Fig6Walls = [[f64; 3]; 2];

/// `sim_fig6`: `hadoop_sim::run_job` and `mapred::run_sim_mpid` at 1, 10 and
/// 100 GB of WordCount input. The input is the paper's and does not depend
/// on the seed.
pub struct Fig6 {
    /// WordCount volume ratios, calibrated once per set-up (they do not
    /// depend on the input size).
    spec: JobSpec,
    /// The first run's result: every rep must reproduce it bit for bit.
    reference: Fig6Out,
}

impl Fig6 {
    pub fn new() -> Self {
        let spec = wordcount_spec(GB);
        let (reference, _) = Self::run(&spec, None);
        Fig6 { spec, reference }
    }

    /// All six jobs; with `tracers`, under the `obs` tracer, one per job.
    fn run(spec: &JobSpec, mut tracers: Option<&mut Vec<obs::Tracer>>) -> (Fig6Out, Fig6Walls) {
        let mut out = Fig6Out {
            makespans: [[SimTime::ZERO; 3]; 2],
            wire_bytes: 0,
            hadoop_job_failed: false,
        };
        let mut walls = [[0.0; 3]; 2];
        let mut tracer = || {
            tracers.as_mut().map(|all| {
                all.push(obs::Tracer::new());
                all.last().expect("just pushed").clone()
            })
        };
        for (i, gb) in FIG6_GB.into_iter().enumerate() {
            let spec = JobSpec {
                input_bytes: gb * GB,
                ..spec.clone()
            };
            let hadoop_cfg = HadoopConfig::icpp2011(7, 7, 7);
            let mpid_cfg = SimMpidConfig::icpp2011_fig6().with_auto_splits(gb * GB);

            let tr = tracer();
            let t0 = Instant::now();
            let h = match tr {
                Some(tr) => hadoop_sim::run_job_traced(hadoop_cfg, spec.clone(), tr),
                None => hadoop_sim::run_job(hadoop_cfg, spec.clone()),
            };
            walls[0][i] = t0.elapsed().as_secs_f64() * 1e3;

            let tr = tracer();
            let t0 = Instant::now();
            let m = match tr {
                Some(tr) => mapred::run_sim_mpid_traced(mpid_cfg, spec, tr),
                None => mapred::run_sim_mpid(mpid_cfg, spec),
            };
            walls[1][i] = t0.elapsed().as_secs_f64() * 1e3;

            out.makespans[0][i] = h.makespan;
            out.makespans[1][i] = m.makespan;
            out.wire_bytes += h.shuffle_wire_bytes + m.wire_bytes;
            out.hadoop_job_failed |= h.job_failed;
        }
        (out, walls)
    }

    fn check(&self, got: &Fig6Out) -> Option<String> {
        if got.hadoop_job_failed {
            return Some("the simulated Hadoop job failed".to_string());
        }
        (got != &self.reference).then(|| {
            format!(
                "simulation is not deterministic: makespans/wire bytes {:?}/{} but the first run had {:?}/{}",
                got.makespans, got.wire_bytes, self.reference.makespans, self.reference.wire_bytes
            )
        })
    }
}

impl Workload for Fig6 {
    fn input_bytes(&self) -> u64 {
        // Each size runs on both stacks.
        2 * FIG6_GB.iter().sum::<u64>() * GB
    }

    fn rep(&mut self) -> Rep {
        let t0 = Instant::now();
        let (out, _) = Self::run(&self.spec, None);
        Rep {
            wall_s: t0.elapsed().as_secs_f64(),
            wire_bytes: out.wire_bytes,
            failure: self.check(&out),
        }
    }

    fn traced(&mut self, budget_s: f64, min_rounds: u32, out: &mut Layers) -> TracedRun {
        let mut run = TracedRun::default();
        let mut walls: Vec<Fig6Walls> = Vec::new();
        let mut traced_walls = Vec::new();
        let mut swept = 0;
        let mut cpu_s = 0.0;

        if min_rounds > 1 {
            let _ = self.rep();
        }
        let started = Instant::now();
        let mut round = 0u32;
        while round < min_rounds || started.elapsed().as_secs_f64() < budget_s {
            let cpu0 = sysinfo::cpu_seconds();
            let t0 = Instant::now();
            let (got, w) = Self::run(&self.spec, None);
            run.walls.push(t0.elapsed().as_secs_f64());
            cpu_s += sysinfo::cpu_seconds() - cpu0;
            run.failures.extend(self.check(&got));
            walls.push(w);

            let mut tracers = Vec::new();
            let t0 = Instant::now();
            let (got, _) = Self::run(&self.spec, Some(&mut tracers));
            traced_walls.push(t0.elapsed().as_secs_f64());
            run.failures.extend(self.check(&got));
            swept = tracers
                .iter()
                .map(|t| {
                    t.metrics()
                        .counter(obs::names::M_NET_SOLVER_RESOURCES_SWEPT)
                })
                .sum();
            round += 1;
        }
        run.cpu_s_per_rep = cpu_s / f64::from(round);

        const NAMES: [[&str; 3]; 2] = [
            [
                "hadoop-sim.wall_ms_1gb",
                "hadoop-sim.wall_ms_10gb",
                "hadoop-sim.wall_ms_100gb",
            ],
            [
                "mapred.sim.wall_ms_1gb",
                "mapred.sim.wall_ms_10gb",
                "mapred.sim.wall_ms_100gb",
            ],
        ];
        for (stack, names) in NAMES.iter().enumerate() {
            for (size, name) in names.iter().enumerate() {
                let ms: Vec<f64> = walls.iter().map(|w| w[stack][size]).collect();
                out.set(name, median(&ms));
            }
        }
        out.set(
            "hadoop-sim.makespan_s_100gb",
            self.reference.makespans[0][2].as_secs_f64(),
        );
        out.set(
            "mapred.sim.makespan_s_100gb",
            self.reference.makespans[1][2].as_secs_f64(),
        );
        out.set("netsim.solver.fig6_resources_swept", swept as f64);
        out.set(
            "obs.sim_trace_overhead_share",
            median(&traced_walls) / median(&run.walls) - 1.0,
        );
        run
    }
}

/// What one flow-churn simulation returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChurnOut {
    end: SimTime,
    completed: u64,
    delivered_bytes: u64,
    solver: SolverStats,
}

/// `sim_flow_churn`: `perf`'s `flow_churn` shape. Flows of seeded sizes are
/// churned through the network driver as four disjoint host-pair chains (so
/// the scoped solver has component structure to exploit), 64 at a time;
/// every completion starts the next flow, keeping reallocation hot.
pub struct Churn {
    /// Bytes of each flow, in start order.
    sizes: Rc<[u64]>,
    reference: ChurnOut,
}

struct ChurnState {
    net: Net<ChurnState>,
    sizes: Rc<[u64]>,
    next: usize,
    delivered_bytes: u64,
}

impl HasNet for ChurnState {
    fn net(&mut self) -> &mut Net<ChurnState> {
        &mut self.net
    }
}

impl ChurnState {
    fn launch(s: &mut ChurnState, sc: &mut Scheduler<ChurnState>) {
        let Some(&bytes) = s.sizes.get(s.next) else {
            return;
        };
        let i = s.next;
        s.next += 1;
        // Four disjoint host pairs out of the 8-node testbed; alternate
        // direction so both NIC sides stay loaded.
        let pair = i % 4;
        let (src, dst) = if (i / 4).is_multiple_of(2) {
            (HostId(2 * pair), HostId(2 * pair + 1))
        } else {
            (HostId(2 * pair + 1), HostId(2 * pair))
        };
        Net::transfer(s, sc, src, dst, bytes, move |s, sc| {
            s.delivered_bytes += bytes;
            ChurnState::launch(s, sc);
        });
    }
}

impl Churn {
    pub const FLOWS: usize = 100_000;

    pub fn new(seed: u64, scale: Scale) -> Self {
        let n = scale.of(Self::FLOWS);
        let mut rng = StdRng::seed_from_u64(seed);
        let sizes: Rc<[u64]> = (0..n)
            .map(|_| 16_384 + rng.random_range(0..7u64) * 4_096)
            .collect();
        let (reference, _) = Self::run(&sizes);
        Churn { sizes, reference }
    }

    /// One simulation; returns its result and the wall seconds of the event
    /// loop (building the cluster is not timed, as in `perf`).
    fn run(sizes: &Rc<[u64]>) -> (ChurnOut, f64) {
        let mut sim = Sim::new(ChurnState {
            net: Net::new(Cluster::new(ClusterSpec::icpp2011_testbed())),
            sizes: sizes.clone(),
            next: 0,
            delivered_bytes: 0,
        });
        sim.schedule(SimTime::ZERO, |s: &mut ChurnState, sc| {
            for _ in 0..64 {
                ChurnState::launch(s, sc);
            }
        });
        let t0 = Instant::now();
        let end = sim.run();
        let wall_s = t0.elapsed().as_secs_f64();
        let out = ChurnOut {
            end,
            completed: sim.state.net.flows_completed(),
            delivered_bytes: sim.state.delivered_bytes,
            solver: sim.state.net.solver_stats(),
        };
        (out, wall_s)
    }

    fn check(&self, got: &ChurnOut) -> Option<String> {
        if got.completed != self.sizes.len() as u64 {
            return Some(format!(
                "{} of {} flows completed",
                got.completed,
                self.sizes.len()
            ));
        }
        (got != &self.reference).then(|| {
            format!(
                "simulation is not deterministic: {got:?} but the first run had {:?}",
                self.reference
            )
        })
    }
}

impl Workload for Churn {
    fn input_bytes(&self) -> u64 {
        self.sizes.iter().sum()
    }

    fn rep(&mut self) -> Rep {
        let (out, wall_s) = Self::run(&self.sizes);
        Rep {
            wall_s,
            wire_bytes: out.delivered_bytes,
            failure: self.check(&out),
        }
    }

    fn traced(&mut self, budget_s: f64, min_rounds: u32, out: &mut Layers) -> TracedRun {
        let mut run = TracedRun::default();
        if min_rounds > 1 {
            let _ = self.rep();
        }
        let cpu0 = sysinfo::cpu_seconds();
        let started = Instant::now();
        while run.walls.len() < min_rounds as usize || started.elapsed().as_secs_f64() < budget_s {
            let rep = self.rep();
            run.walls.push(rep.wall_s);
            run.failures.extend(rep.failure);
        }
        run.cpu_s_per_rep = (sysinfo::cpu_seconds() - cpu0) / run.walls.len() as f64;

        let solver = self.reference.solver;
        out.set(
            "netsim.flows_per_s",
            self.sizes.len() as f64 / median(&run.walls),
        );
        out.set("netsim.solver.recomputes", solver.recomputes as f64);
        out.set(
            "netsim.solver.resources_swept",
            solver.resources_swept as f64,
        );
        out.set("netsim.solver.flows_rerated", solver.flows_rerated as f64);
        run
    }
}
