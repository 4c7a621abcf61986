//! The Hadoop 0.20.2 MapReduce execution pipeline as a discrete-event
//! simulation over `netsim`.
//!
//! Modelled mechanisms (each one is load-bearing for a paper result):
//!
//! * **Heartbeat scheduling** — a freed slot is refilled only at its
//!   tasktracker's next 3 s heartbeat, one map + one reduce per beat
//!   (0.20's `JobQueueTaskScheduler`). This is the fixed overhead that makes
//!   small jobs slow (Figure 6 at 1 GB).
//! * **Per-task JVM launch** and **job setup/cleanup tasks**.
//! * **HDFS locality** — blocks are placed round-robin across workers;
//!   trackers prefer local maps; remote maps stream the block over the NIC.
//! * **Map-side spills** — map output is sorted/spilled through
//!   `io.sort.mb`; outputs larger than the buffer pay an extra on-disk merge
//!   pass.
//! * **Shuffle copy** — every reducer fetches its partition of *every* map
//!   output over HTTP from the serving tasktracker. Each fetch costs a disk
//!   seek into the spill file plus servlet overhead; fetches run
//!   `parallel.copies` at a time. With thousands of reducers these
//!   seek-dominated small reads are what make the copy stage consume most
//!   of the job (Figure 1 / Table I). Reducers scheduled before the map
//!   phase ends (slowstart 5 %) sit in copy waiting for maps — the first
//!   `workers × reduce_slots` reducers show copy times of the whole map
//!   phase, exactly the 56 outliers the paper trims from Figure 1.
//! * **Reduce-side merge** — in-memory when the per-reducer shuffle volume
//!   fits the merge buffer (the paper's 0.01 s "sort" stage), on-disk merge
//!   passes otherwise.
//!
//! Fetches are batched per `(serving host, reducer)` — a batch claims every
//! currently-available unfetched map output on one host and pays
//! `count × (seek + servlet)` on the serving disk. This preserves the
//! per-fetch cost structure while keeping the event count tractable at the
//! paper's 2 345-reducer scale. Each copier finds its next batch in its own
//! index of claimable outputs, as 0.20's copier keeps per-host lists of
//! known map outputs instead of asking about every map: `CopyState::avail`
//! holds exactly the maps `m` with `map_out_ready[m] && !claimed[m]`, and
//! the batch is every entry on the host serving `avail`'s lowest map, in
//! ascending map order. Four sites keep that invariant: copier creation
//! (every ready output), `map_done` (the new output, for each copier that
//! has not claimed it), and two in `crash_worker` (invalidated outputs
//! leave every index; a killed fetch's released claims return while still
//! ready).

use crate::config::HadoopConfig;
use crate::hdfs::{BlockId, NameNode};
use crate::report::{JobReport, MapSpan, ReduceSpan};
use desim::rng::SplitMix64;
use desim::stats::OnlineStats;
use desim::{Scheduler, Sim, SimTime};
use faults::FaultPlan;
use netsim::{Cluster, FlowId, HasNet, HostId, JobSpec, Net, Route};
use obs::{ArgValue, Tracer};
use std::collections::{BTreeMap, BTreeSet};

/// Thread lane offset separating reducer spans from map spans on the same
/// host lane in exported traces (map tid = map index; reduce tid = this + r).
const REDUCE_TID_BASE: u32 = 1 << 20;

/// Simulation state for one Hadoop job execution.
pub struct HadoopSim {
    net: Net<HadoopSim>,
    cfg: HadoopConfig,
    spec: JobSpec,
    rng: SplitMix64,

    // Static job layout.
    n_maps: usize,
    hdfs: NameNode,
    blocks: Vec<BlockId>, // map m reads blocks[m]
    map_input: Vec<u64>,
    // Shuffled bytes of map m going to each reducer, after the strategy's
    // in-node combining.
    per_reduce_partition: Vec<u64>,

    // Scheduling state.
    setup_done: bool,
    pending_maps: Vec<usize>,
    pending_reduces: Vec<usize>,
    free_map_slots: Vec<usize>,    // indexed by worker (host-1)
    free_reduce_slots: Vec<usize>, // indexed by worker (host-1)

    // Progress.
    maps_done: usize,
    reduces_done: usize,
    map_out_ready: Vec<bool>,
    map_out_host: Vec<HostId>,
    copiers: Vec<Option<CopyState>>, // indexed by reduce id while copying
    waiting_reducers: Vec<usize>,
    // Speculative execution bookkeeping.
    map_started: Vec<Option<SimTime>>,
    map_speculated: Vec<bool>,
    map_attempts: Vec<usize>,
    completed_map_durations: OnlineStats,
    /// Per-task progress (0.0 queued → 1.0 output committed), the
    /// jobtracker-side signal real speculation heuristics key off.
    map_progress: Vec<f64>,

    // Fault-injection state. With an empty plan (`faulty == false`) none of
    // it is ever touched, keeping the no-fault path byte-identical.
    plan: FaultPlan,
    faulty: bool,
    worker_alive: Vec<bool>,
    /// Map attempts currently executing, as `(map, worker)` pairs.
    running_map_attempts: Vec<(usize, usize)>,
    /// In-flight remote input reads: flow → `(map, reading worker)`.
    /// Entries for completed flows are pruned lazily (flow ids are unique).
    map_read_flows: BTreeMap<FlowId, (usize, usize)>,
    /// In-flight shuffle fetch batches: flow → `(reducer, claimed maps)`.
    fetch_flows: BTreeMap<FlowId, (usize, Vec<usize>)>,
    /// Worker currently hosting each reduce task, if any.
    reduce_site: Vec<Option<usize>>,
    reduce_done: Vec<bool>,

    report: JobReport,
    finished: bool,
    tracer: Option<Tracer>,
}

struct CopyState {
    host: HostId,
    task_start: SimTime,
    copy_start: SimTime,
    claimed: Vec<bool>,
    /// Map outputs this reducer can claim now: the `m` with
    /// `map_out_ready[m] && !claimed[m]`, in ascending order. `try_fetch`
    /// takes its batches from here; see the module doc for the sites that
    /// keep it in step.
    avail: BTreeSet<usize>,
    completed: usize,
    in_flight: usize,
    bytes_fetched: u64,
}

impl HasNet for HadoopSim {
    fn net(&mut self) -> &mut Net<HadoopSim> {
        &mut self.net
    }
}

impl HadoopSim {
    fn new(cfg: HadoopConfig, spec: JobSpec, plan: FaultPlan) -> Self {
        cfg.validate().expect("invalid hadoop config");
        spec.validate().expect("invalid job spec");
        let workers = cfg.n_workers();
        plan.validate(workers + 1).expect("invalid fault plan");
        // Populate HDFS: the input dataset written round-robin from every
        // worker datanode, with the configured replication factor.
        let mut hdfs = NameNode::new(
            (1..=workers).map(HostId).collect(),
            cfg.replication,
            0x4DF5 ^ spec.input_bytes,
        );
        let blocks = hdfs.load_dataset(spec.input_bytes, cfg.block_bytes);
        let n_maps = blocks.len();
        let map_input: Vec<u64> = blocks.iter().map(|&b| hdfs.block(b).bytes).collect();
        // Co-location for in-node combining is a tasktracker's `map_slots`
        // co-running map tasks, whose spills merge before being served.
        let per_reduce_partition: Vec<u64> = map_input
            .iter()
            .map(|&b| spec.strategy_shuffle_bytes(b, cfg.map_slots) as u64 / cfg.n_reduces as u64)
            .collect();
        let n_reduces = cfg.n_reduces;
        HadoopSim {
            net: Net::new(Cluster::new(cfg.cluster.clone())),
            rng: SplitMix64::new(0x1c99_2011 ^ spec.input_bytes),
            spec,
            n_maps,
            hdfs,
            blocks,
            map_input,
            per_reduce_partition,
            setup_done: false,
            pending_maps: (0..n_maps).rev().collect(),
            pending_reduces: (0..n_reduces).rev().collect(),
            free_map_slots: vec![cfg.map_slots; workers],
            free_reduce_slots: vec![cfg.reduce_slots; workers],
            maps_done: 0,
            reduces_done: 0,
            map_out_ready: vec![false; n_maps],
            map_out_host: vec![HostId(0); n_maps],
            copiers: (0..n_reduces).map(|_| None).collect(),
            waiting_reducers: Vec::new(),
            map_started: vec![None; n_maps],
            map_speculated: vec![false; n_maps],
            map_attempts: vec![0; n_maps],
            completed_map_durations: OnlineStats::new(),
            map_progress: vec![0.0; n_maps],
            faulty: !plan.is_empty(),
            plan,
            worker_alive: vec![true; workers],
            running_map_attempts: Vec::new(),
            map_read_flows: BTreeMap::new(),
            fetch_flows: BTreeMap::new(),
            reduce_site: vec![None; n_reduces],
            reduce_done: vec![false; n_reduces],
            report: JobReport {
                makespan: SimTime::ZERO,
                maps: Vec::with_capacity(n_maps),
                reduces: (0..n_reduces)
                    .map(|_| ReduceSpan {
                        start: SimTime::ZERO,
                        end: SimTime::ZERO,
                        copy: SimTime::ZERO,
                        sort: SimTime::ZERO,
                        reduce: SimTime::ZERO,
                    })
                    .collect(),
                ..JobReport::default()
            },
            cfg,
            finished: false,
            tracer: None,
        }
    }

    /// Jobtracker-side per-map-task progress (0.0 queued, 0.5 input read,
    /// 1.0 output committed) — the signal speculation heuristics key off,
    /// reset to 0.0 when a crash forces re-execution.
    pub fn map_progress(&self) -> &[f64] {
        &self.map_progress
    }

    /// Install a trace sink on the job and its network, and name the trace
    /// lanes (pid 0 = jobtracker, pid 1.. = workers).
    fn set_tracer(&mut self, tracer: Tracer) {
        tracer.set_process_name(0, "jobtracker");
        for w in 0..self.cfg.n_workers() {
            tracer.set_process_name(1 + w as u32, format!("worker-{}", 1 + w));
        }
        self.net.set_tracer(tracer.clone());
        // Same cadence as the MPI-D sim so profiles are comparable.
        self.net.set_util_sampling(SimTime::from_millis(100));
        self.tracer = Some(tracer);
    }

    fn start(sim: &mut Sim<HadoopSim>) {
        let setup = sim.state.cfg.job_setup;
        sim.schedule(setup, |s: &mut HadoopSim, sc| {
            s.setup_done = true;
            if let Some(t) = &s.tracer {
                t.complete(
                    0,
                    0,
                    obs::names::SPAN_JOB_SETUP,
                    obs::names::CAT_HADOOP_JOB,
                    0,
                    sc.now().as_nanos(),
                    vec![],
                );
            }
        });
        // Stagger tracker heartbeats across the interval.
        let workers = sim.state.cfg.n_workers();
        let hb = sim.state.cfg.heartbeat;
        for w in 0..workers {
            let offset = SimTime::from_nanos(hb.as_nanos() * w as u64 / workers as u64);
            sim.schedule(setup + offset, move |s: &mut HadoopSim, sc| {
                Self::heartbeat(s, sc, w);
            });
        }
        // Straggler windows are not events: `map_compute`/`reduce_compute`
        // query them via `FaultPlan::cpu_factor`.
        let plan = sim.state.plan.clone();
        plan.arm(sim, |s| !s.finished, Some(Self::crash_worker));
    }

    /// A worker dies: kill its flows and tasks, invalidate map outputs it
    /// served, and put the lost work back on the jobtracker's queues —
    /// 0.20's TaskTracker-lost handling.
    fn crash_worker(s: &mut HadoopSim, sc: &mut Scheduler<HadoopSim>, host: HostId) {
        let w = host.0 - 1;
        if s.finished || !s.worker_alive[w] {
            return;
        }
        s.worker_alive[w] = false;
        s.report.crashed_workers += 1;
        let killed = Net::fail_host(s, sc, host);
        // Reduce tasks sited on the dead worker restart from scratch on a
        // surviving one (all partially fetched data lived on its disk).
        for r in 0..s.cfg.n_reduces {
            if s.reduce_site[r] == Some(w) && !s.reduce_done[r] {
                s.copiers[r] = None;
                s.waiting_reducers.retain(|&x| x != r);
                s.pending_reduces.push(r);
                s.reduce_site[r] = None;
                s.report.restarted_reduces += 1;
            }
        }
        // Reconcile killed flows that belonged to tasks on *surviving*
        // hosts: shuffle fetches served by the dead host, and remote input
        // reads streaming from its disk.
        let mut retry_fetch: Vec<usize> = Vec::new();
        for id in &killed {
            if let Some((r, maps)) = s.fetch_flows.remove(id) {
                if let Some(cs) = s.copiers[r].as_mut() {
                    cs.in_flight -= 1;
                    for m in maps {
                        cs.claimed[m] = false;
                        if s.map_out_ready[m] {
                            cs.avail.insert(m);
                        }
                    }
                    retry_fetch.push(r);
                }
            }
            if let Some((m, wk)) = s.map_read_flows.remove(id) {
                if s.worker_alive[wk] {
                    s.free_map_slots[wk] += 1;
                    if let Some(p) = s
                        .running_map_attempts
                        .iter()
                        .position(|&(mm, ww)| mm == m && ww == wk)
                    {
                        s.running_map_attempts.remove(p);
                    }
                    Self::requeue_map_if_lost(s, m);
                }
            }
        }
        // Attempts that were running on the dead worker are gone.
        let lost: Vec<usize> = s
            .running_map_attempts
            .iter()
            .filter(|&&(_, ww)| ww == w)
            .map(|&(m, _)| m)
            .collect();
        s.running_map_attempts.retain(|&(_, ww)| ww != w);
        for m in lost {
            Self::requeue_map_if_lost(s, m);
        }
        // Committed map outputs stored on the dead worker are lost; unless
        // another attempt is already re-producing them, those maps re-run.
        for m in 0..s.n_maps {
            if s.map_out_ready[m] && s.map_out_host[m] == host {
                s.map_out_ready[m] = false;
                for cs in s.copiers.iter_mut().flatten() {
                    cs.avail.remove(&m);
                }
                s.maps_done -= 1;
                s.report.maps_reexecuted += 1;
                Self::requeue_map_if_lost(s, m);
            }
        }
        if let Some(t) = &s.tracer {
            t.instant_args(
                1 + w as u32,
                0,
                obs::names::INST_WORKER_CRASH,
                obs::names::CAT_FAULTS_INJECT,
                sc.now().as_nanos(),
                vec![
                    ("flows_killed", ArgValue::U64(killed.len() as u64)),
                    ("maps_reexecuted", ArgValue::U64(s.report.maps_reexecuted)),
                ],
            );
            t.metrics().inc(obs::names::M_HADOOP_CRASHED_WORKERS, 1);
        }
        // Reducers whose fetch died mid-flight retry against the surviving
        // copies (or park until the re-executed map republishes).
        retry_fetch.sort_unstable();
        retry_fetch.dedup();
        for r in retry_fetch {
            if s.copiers[r].is_some() {
                Self::try_fetch(s, sc, r);
            }
        }
    }

    /// Re-queue map `m` for execution if no output is committed, no attempt
    /// is still running, and it is not already pending.
    fn requeue_map_if_lost(s: &mut HadoopSim, m: usize) {
        let running = s.running_map_attempts.iter().any(|&(mm, _)| mm == m);
        if !s.map_out_ready[m] && !running && !s.pending_maps.contains(&m) {
            s.pending_maps.push(m);
            s.map_started[m] = None;
            s.map_speculated[m] = false;
            s.map_progress[m] = 0.0;
        }
    }

    // ---------------- scheduling ----------------

    fn heartbeat(s: &mut HadoopSim, sc: &mut Scheduler<HadoopSim>, worker: usize) {
        if s.finished || !s.worker_alive[worker] {
            return;
        }
        if s.setup_done {
            Self::assign_tasks(s, sc, worker);
        }
        let hb = s.cfg.heartbeat;
        sc.schedule_in(hb, move |s: &mut HadoopSim, sc| {
            Self::heartbeat(s, sc, worker);
        });
    }

    fn assign_tasks(s: &mut HadoopSim, sc: &mut Scheduler<HadoopSim>, worker: usize) {
        let host = HostId(1 + worker);
        // One map assignment per heartbeat (0.20 scheduler), locality first
        // (any of the block's replicas on this host counts).
        if s.free_map_slots[worker] > 0 {
            if !s.pending_maps.is_empty() {
                let pick = s
                    .pending_maps
                    .iter()
                    .rposition(|&m| s.hdfs.is_local(s.blocks[m], host))
                    .unwrap_or(s.pending_maps.len() - 1);
                let m = s.pending_maps.remove(pick);
                s.free_map_slots[worker] -= 1;
                s.map_started[m].get_or_insert(sc.now());
                s.map_attempts[m] += 1;
                Self::start_map(s, sc, m, worker);
            } else if s.cfg.speculative {
                // No fresh work: consider a speculative duplicate for the
                // worst straggler (0.20's heuristic, simplified — elapsed
                // must exceed 1.5x the average completed map duration).
                let avg = s.completed_map_durations.mean();
                if s.completed_map_durations.count() >= 3 {
                    let now = sc.now().as_secs_f64();
                    let candidate = (0..s.n_maps)
                        .filter(|&m| {
                            !s.map_out_ready[m]
                                && !s.map_speculated[m]
                                && s.map_started[m].is_some()
                        })
                        .max_by(|&a, &b| {
                            let ea = now - s.map_started[a].expect("started").as_secs_f64();
                            let eb = now - s.map_started[b].expect("started").as_secs_f64();
                            ea.partial_cmp(&eb).expect("finite")
                        });
                    if let Some(m) = candidate {
                        let elapsed = now - s.map_started[m].expect("started").as_secs_f64();
                        if elapsed > 1.5 * avg {
                            s.map_speculated[m] = true;
                            s.report.speculative_launched += 1;
                            s.free_map_slots[worker] -= 1;
                            if let Some(t) = &s.tracer {
                                t.instant(
                                    1 + worker as u32,
                                    m as u32,
                                    obs::names::INST_SPECULATIVE_LAUNCH,
                                    obs::names::CAT_HADOOP_SCHED,
                                    sc.now().as_nanos(),
                                );
                                t.metrics()
                                    .inc(obs::names::M_HADOOP_SPECULATIVE_LAUNCHED, 1);
                            }
                            Self::start_map(s, sc, m, worker);
                        }
                    }
                }
            }
        }
        // One reduce assignment per heartbeat, gated on slowstart.
        let slowstart_met = s.maps_done as f64 >= s.cfg.slowstart * s.n_maps as f64;
        if slowstart_met && s.free_reduce_slots[worker] > 0 {
            if let Some(r) = s.pending_reduces.pop() {
                s.free_reduce_slots[worker] -= 1;
                Self::start_reduce(s, sc, r, worker);
            }
        }
    }

    // ---------------- map tasks ----------------

    fn start_map(s: &mut HadoopSim, sc: &mut Scheduler<HadoopSim>, m: usize, worker: usize) {
        let host = HostId(1 + worker);
        let start = sc.now();
        let (replica, local) = s.hdfs.select_replica(s.blocks[m], host);
        s.running_map_attempts.push((m, worker));
        let jvm = SimTime::from_secs_f64(s.rng.jittered(s.cfg.jvm_start.as_secs_f64(), 0.2));
        sc.schedule_in(jvm, move |s: &mut HadoopSim, sc| {
            // The attempt's worker may have crashed while the JVM launched.
            if !s.worker_alive[worker] {
                return;
            }
            // A remote replica host may have crashed too: fall back to a
            // surviving replica (or requeue via the dead-host read path).
            let (replica, local) = if !local && !s.net.host_alive(replica) {
                s.hdfs
                    .select_replica_alive(s.blocks[m], host, |h| s.net.host_alive(h))
            } else {
                (replica, local)
            };
            // Read the input block (local disk or streamed from the replica
            // host).
            let bytes = s.map_input[m];
            let route = if local {
                Route::DiskRead(host)
            } else {
                Route::RemoteRead {
                    from: replica,
                    to: host,
                }
            };
            // Charge one initial seek via the seek-equivalent convention.
            let seek_bytes =
                (s.cfg.fetch_seek.as_secs_f64() * s.cfg.cluster.disk_read_bytes_per_sec) as u64;
            let id = Net::start_flow(s, sc, route, bytes + seek_bytes, 1.0, move |s, sc| {
                Self::map_compute(s, sc, m, worker, start, local);
            });
            if s.faulty && !local {
                s.map_read_flows.insert(id, (m, worker));
            }
        });
    }

    fn map_compute(
        s: &mut HadoopSim,
        sc: &mut Scheduler<HadoopSim>,
        m: usize,
        worker: usize,
        start: SimTime,
        local: bool,
    ) {
        let bytes = s.map_input[m];
        // Real-world map durations vary substantially (GC pauses, record
        // skew, page-cache state) — and that variance is load-bearing for
        // Table I's small-input cells: reducers launched at 5% map
        // completion spend their copy stage waiting for straggler maps.
        // Straggler injection: a small fraction of attempts run several
        // times slower (GC storm, failing disk) — what speculative
        // execution exists to mask.
        let straggle = if s.rng.next_f64() < s.cfg.straggler_prob {
            s.cfg.straggler_factor
        } else {
            1.0
        };
        s.map_progress[m] = 0.5;
        // Injected straggler windows multiply on top of the sampled
        // variance (applied after the RNG draws, so an empty plan leaves
        // the random sequence untouched).
        let injected = s.plan.cpu_factor(1 + worker, sc.now());
        // In-node combining pays a second combine pass over the slot
        // group's merged spills (0 at baseline).
        let strategy_cpu = s.spec.innode_combine_ns(bytes) * 1e-9;
        let cpu = SimTime::from_secs_f64(
            (s.rng.jittered(s.spec.map_cpu_secs(bytes), 0.35) + strategy_cpu) * straggle * injected,
        );
        sc.schedule_in(cpu, move |s: &mut HadoopSim, sc| {
            if !s.worker_alive[worker] {
                return;
            }
            // Spill the (combined) map output; oversized raw output pays an
            // extra merge pass (read + write ≈ 3× the final volume).
            let host = HostId(1 + worker);
            let input = s.map_input[m];
            let raw = s.spec.map_output_bytes(input);
            let shuffled = s.spec.strategy_shuffle_bytes(input, s.cfg.map_slots) as u64;
            let disk_bytes = if raw > s.cfg.io_sort_bytes {
                shuffled * 3
            } else {
                shuffled
            };
            Net::disk_write(s, sc, host, disk_bytes, move |s, sc| {
                Self::map_done(s, sc, m, worker, start, local);
            });
        });
    }

    fn map_done(
        s: &mut HadoopSim,
        sc: &mut Scheduler<HadoopSim>,
        m: usize,
        worker: usize,
        start: SimTime,
        local: bool,
    ) {
        if s.finished || !s.worker_alive[worker] {
            return;
        }
        // This attempt is no longer running, whatever its outcome below.
        if let Some(p) = s
            .running_map_attempts
            .iter()
            .position(|&(mm, ww)| mm == m && ww == worker)
        {
            s.running_map_attempts.remove(p);
        }
        if s.map_out_ready[m] {
            // A speculative duplicate lost the race: its work is wasted;
            // just free the slot.
            s.report.speculative_wasted += 1;
            s.free_map_slots[worker] += 1;
            if let Some(t) = &s.tracer {
                t.instant(
                    1 + worker as u32,
                    m as u32,
                    obs::names::INST_SPECULATIVE_WASTED,
                    obs::names::CAT_HADOOP_SCHED,
                    sc.now().as_nanos(),
                );
            }
            return;
        }
        // Attempt-failure injection (task JVM crash, disk error): the
        // attempt's work is lost; the JobTracker reschedules the task, up to
        // the attempt limit — then the whole job is failed, 0.20-style.
        if s.rng.next_f64() < s.cfg.task_failure_prob {
            s.report.failed_map_attempts += 1;
            s.free_map_slots[worker] += 1;
            if let Some(t) = &s.tracer {
                t.instant(
                    1 + worker as u32,
                    m as u32,
                    obs::names::INST_MAP_ATTEMPT_FAILED,
                    obs::names::CAT_HADOOP_SCHED,
                    sc.now().as_nanos(),
                );
                t.metrics().inc(obs::names::M_HADOOP_FAILED_MAP_ATTEMPTS, 1);
            }
            if s.map_attempts[m] >= s.cfg.max_task_attempts {
                s.report.job_failed = true;
                s.report.makespan = sc.now();
                s.finished = true;
                return;
            }
            s.pending_maps.push(m);
            return;
        }
        s.report.maps.push(MapSpan {
            start,
            end: sc.now(),
            local,
        });
        s.completed_map_durations
            .add((sc.now() - start).as_secs_f64());
        s.map_out_ready[m] = true;
        s.map_out_host[m] = HostId(1 + worker);
        for cs in s.copiers.iter_mut().flatten() {
            if !cs.claimed[m] {
                cs.avail.insert(m);
            }
        }
        s.map_progress[m] = 1.0;
        s.maps_done += 1;
        if let Some(t) = &s.tracer {
            t.complete(
                1 + worker as u32,
                m as u32,
                obs::names::SPAN_MAP,
                obs::names::CAT_HADOOP_PHASE,
                start.as_nanos(),
                sc.now().as_nanos(),
                vec![
                    ("local", ArgValue::Bool(local)),
                    ("input_bytes", ArgValue::U64(s.map_input[m])),
                ],
            );
            t.counter(
                0,
                obs::names::M_HADOOP_MAPS_DONE,
                obs::names::CAT_HADOOP,
                sc.now().as_nanos(),
                s.maps_done as f64,
            );
            t.metrics().inc(obs::names::M_HADOOP_MAPS_DONE, 1);
            t.metrics().observe(
                obs::names::M_HADOOP_MAP_DURATION_MS,
                (sc.now() - start).as_nanos() / 1_000_000,
            );
        }
        s.free_map_slots[worker] += 1;
        // New map output may unblock reducers idling in their copy phase.
        let waiting = std::mem::take(&mut s.waiting_reducers);
        for r in waiting {
            Self::try_fetch(s, sc, r);
        }
    }

    // ---------------- reduce tasks ----------------

    fn start_reduce(s: &mut HadoopSim, sc: &mut Scheduler<HadoopSim>, r: usize, worker: usize) {
        let host = HostId(1 + worker);
        let task_start = sc.now();
        s.reduce_site[r] = Some(worker);
        let jvm = SimTime::from_secs_f64(s.rng.jittered(s.cfg.jvm_start.as_secs_f64(), 0.2));
        sc.schedule_in(jvm, move |s: &mut HadoopSim, sc| {
            if !s.worker_alive[worker] {
                return;
            }
            s.copiers[r] = Some(CopyState {
                host,
                task_start,
                copy_start: sc.now(),
                claimed: vec![false; s.n_maps],
                avail: (0..s.n_maps).filter(|&m| s.map_out_ready[m]).collect(),
                completed: 0,
                in_flight: 0,
                bytes_fetched: 0,
            });
            Self::try_fetch(s, sc, r);
        });
    }

    /// Launch shuffle fetch batches for reducer `r` up to the parallel-copy
    /// limit; park the reducer if no unclaimed output is available yet.
    fn try_fetch(s: &mut HadoopSim, sc: &mut Scheduler<HadoopSim>, r: usize) {
        loop {
            let Some(cs) = s.copiers[r].as_mut() else {
                return;
            };
            if cs.in_flight >= s.cfg.parallel_copies {
                return;
            }
            let Some(&first) = cs.avail.first() else {
                // Nothing available: park unless copy already complete.
                if cs.completed < s.n_maps && cs.in_flight == 0 {
                    s.waiting_reducers.push(r);
                }
                return;
            };
            // Claim every available output on the lowest one's host as one
            // batch.
            let from = s.map_out_host[first];
            let batch: Vec<usize> = cs
                .avail
                .iter()
                .copied()
                .filter(|&m| s.map_out_host[m] == from)
                .collect();
            for &m in &batch {
                cs.avail.remove(&m);
                cs.claimed[m] = true;
            }
            cs.in_flight += 1;
            let to = cs.host;
            let payload: u64 = batch.iter().map(|&m| s.per_reduce_partition[m]).sum();
            // Per-fetch seek + servlet overhead, charged as seek-equivalent
            // bytes on the serving disk.
            let per_fetch = s.cfg.fetch_seek.as_secs_f64() + s.cfg.http_setup.as_secs_f64();
            let overhead_bytes =
                (per_fetch * s.cfg.cluster.disk_read_bytes_per_sec) as u64 * batch.len() as u64;
            let route = if from == to {
                Route::DiskRead(from)
            } else {
                Route::RemoteRead { from, to }
            };
            let n_batch = batch.len();
            s.report.shuffle_wire_bytes += payload;
            let id = Net::start_flow(s, sc, route, payload + overhead_bytes, 1.0, move |s, sc| {
                let cs = s.copiers[r].as_mut().expect("copier");
                cs.in_flight -= 1;
                cs.completed += n_batch;
                cs.bytes_fetched += payload;
                if cs.completed >= s.n_maps {
                    if cs.in_flight == 0 {
                        Self::copy_done(s, sc, r);
                    }
                } else {
                    Self::try_fetch(s, sc, r);
                }
            });
            if s.faulty {
                s.fetch_flows.insert(id, (r, batch));
            }
        }
    }

    fn copy_done(s: &mut HadoopSim, sc: &mut Scheduler<HadoopSim>, r: usize) {
        let cs = s.copiers[r].take().expect("copier");
        let copy = sc.now() - cs.copy_start;
        let shuffled = cs.bytes_fetched;
        let span_base = (cs.task_start, cs.host);
        if let Some(t) = &s.tracer {
            t.complete(
                cs.host.0 as u32,
                REDUCE_TID_BASE + r as u32,
                obs::names::SPAN_COPY,
                obs::names::CAT_HADOOP_PHASE,
                cs.copy_start.as_nanos(),
                sc.now().as_nanos(),
                vec![("shuffled_bytes", ArgValue::U64(shuffled))],
            );
            t.metrics()
                .inc(obs::names::M_HADOOP_SHUFFLE_BYTES, shuffled);
        }
        // Sort/merge stage: in-memory if it fits the merge buffer (the
        // paper's ~0.01 s sorts), otherwise on-disk merge passes.
        if shuffled <= s.cfg.merge_buffer_bytes {
            let sort = SimTime::from_millis(10);
            let worker = cs.host.0 - 1;
            sc.schedule_in(sort, move |s: &mut HadoopSim, sc| {
                if !s.worker_alive[worker] {
                    return;
                }
                Self::reduce_compute(s, sc, r, span_base, copy, sort, shuffled);
            });
        } else {
            let sort_start = sc.now();
            // One merge pass: write then read the whole volume.
            let host = cs.host;
            Net::disk_write(s, sc, host, shuffled, move |s, sc| {
                Net::start_flow(s, sc, Route::DiskRead(host), shuffled, 1.0, move |s, sc| {
                    let sort = sc.now() - sort_start;
                    Self::reduce_compute(s, sc, r, span_base, copy, sort, shuffled);
                });
            });
        }
    }

    fn reduce_compute(
        s: &mut HadoopSim,
        sc: &mut Scheduler<HadoopSim>,
        r: usize,
        span_base: (SimTime, HostId),
        copy: SimTime,
        sort: SimTime,
        shuffled: u64,
    ) {
        let reduce_start = sc.now();
        let (task_start, host) = span_base;
        let injected = s.plan.cpu_factor(host.0, sc.now());
        let cpu = SimTime::from_secs_f64(
            s.rng.jittered(s.spec.reduce_cpu_secs(shuffled), 0.1) * injected,
        );
        if let Some(t) = &s.tracer {
            // The sort/merge stage ends exactly where the reduce stage starts.
            t.complete(
                host.0 as u32,
                REDUCE_TID_BASE + r as u32,
                obs::names::SPAN_SORT,
                obs::names::CAT_HADOOP_PHASE,
                (reduce_start - sort).as_nanos(),
                reduce_start.as_nanos(),
                vec![],
            );
        }
        sc.schedule_in(cpu, move |s: &mut HadoopSim, sc| {
            if !s.worker_alive[host.0 - 1] {
                return;
            }
            let out = s.spec.output_bytes(shuffled);
            // Output commits through the page cache: write-back absorbs the
            // burst, so the flow gets elevated weight against the steady
            // seek-dominated shuffle load on the spindle.
            let ratio =
                s.cfg.cluster.disk_read_bytes_per_sec / s.cfg.cluster.disk_write_bytes_per_sec;
            let scaled = ((out as f64) * ratio).ceil() as u64;
            Net::start_flow(s, sc, Route::DiskWrite(host), scaled, 4.0, move |s, sc| {
                let reduce = sc.now() - reduce_start;
                s.report.reduces[r] = ReduceSpan {
                    start: task_start,
                    end: sc.now(),
                    copy,
                    sort,
                    reduce,
                };
                s.reduces_done += 1;
                s.reduce_done[r] = true;
                s.reduce_site[r] = None;
                s.free_reduce_slots[host.0 - 1] += 1;
                if let Some(t) = &s.tracer {
                    t.complete(
                        host.0 as u32,
                        REDUCE_TID_BASE + r as u32,
                        obs::names::SPAN_REDUCE,
                        obs::names::CAT_HADOOP_PHASE,
                        reduce_start.as_nanos(),
                        sc.now().as_nanos(),
                        vec![("shuffled_bytes", ArgValue::U64(shuffled))],
                    );
                    t.counter(
                        0,
                        obs::names::M_HADOOP_REDUCES_DONE,
                        obs::names::CAT_HADOOP,
                        sc.now().as_nanos(),
                        s.reduces_done as f64,
                    );
                    t.metrics().inc(obs::names::M_HADOOP_REDUCES_DONE, 1);
                }
                if s.reduces_done == s.cfg.n_reduces {
                    let cleanup = s.cfg.job_cleanup;
                    sc.schedule_in(cleanup, |s: &mut HadoopSim, sc| {
                        s.finished = true;
                        s.report.makespan = sc.now();
                        if let Some(t) = &s.tracer {
                            t.instant(
                                0,
                                0,
                                obs::names::INST_JOB_FINISHED,
                                obs::names::CAT_HADOOP_JOB,
                                sc.now().as_nanos(),
                            );
                        }
                    });
                }
            });
        });
    }
}

/// Execute one simulated Hadoop job, returning the timing report.
pub fn run_job(cfg: HadoopConfig, spec: JobSpec) -> JobReport {
    run_job_inner(cfg, spec, FaultPlan::none(), None)
}

/// Like [`run_job`], but recording map/copy/sort/reduce spans, scheduler
/// instants, and network flow spans into `tracer` (all timestamps are
/// simulated nanoseconds, so the resulting trace is deterministic).
pub fn run_job_traced(cfg: HadoopConfig, spec: JobSpec, tracer: Tracer) -> JobReport {
    run_job_inner(cfg, spec, FaultPlan::none(), Some(tracer))
}

/// Execute one simulated Hadoop job under a fault plan: node crashes kill
/// workers (their tasks and map outputs re-execute elsewhere), degraded
/// disks/NICs rescale flow rates, partitions stall traffic until healed,
/// and straggler windows slow task CPU (masked by speculation). An empty
/// plan is byte-identical to [`run_job`].
pub fn run_job_faulty(cfg: HadoopConfig, spec: JobSpec, plan: FaultPlan) -> JobReport {
    run_job_inner(cfg, spec, plan, None)
}

/// [`run_job_faulty`] with trace recording; every injected fault appears as
/// a `faults.inject` instant on the struck host's lane.
pub fn run_job_faulty_traced(
    cfg: HadoopConfig,
    spec: JobSpec,
    plan: FaultPlan,
    tracer: Tracer,
) -> JobReport {
    run_job_inner(cfg, spec, plan, Some(tracer))
}

fn run_job_inner(
    cfg: HadoopConfig,
    spec: JobSpec,
    plan: FaultPlan,
    tracer: Option<Tracer>,
) -> JobReport {
    let mut sim = Sim::new(HadoopSim::new(cfg, spec, plan));
    if let Some(t) = tracer {
        sim.state.plan.emit_schedule(&t);
        sim.state.set_tracer(t);
    }
    HadoopSim::start(&mut sim);
    sim.run();
    assert!(
        sim.state.finished,
        "simulation ended without completing the job (deadlock in the model?)"
    );
    sim.state.report.clone()
}
