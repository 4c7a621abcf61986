//! Cluster-scale cost simulation of the MPI-D execution pipeline — the
//! MPI-D side of the paper's Figure 6, on the same simulated testbed as
//! `hadoop-sim`.
//!
//! The simulated process layout is the paper's: rank 0 is the master on the
//! head node; mapper and reducer processes are placed round-robin on the
//! worker hosts ("49 processes as concurrent mappers, and 1 process as the
//! reducer"). Mechanisms modelled:
//!
//! * near-zero startup (an `mpiexec` launch, not a JobTracker submission);
//! * pull-based split assignment over MPI (sub-millisecond per request,
//!   versus Hadoop's 3 s heartbeats);
//! * local sequential disk reads of each split;
//! * map CPU at native-code speed — the prototype is C on MPICH2, so the
//!   per-byte map cost is `native_cpu_factor` × the Java cost in the shared
//!   [`JobSpec`];
//! * a memory-pressure term: unlike Hadoop, which bounds per-task state by
//!   spilling through `io.sort.mb`, the MPI-D prototype's per-process hash
//!   tables and receive buffers grow with the per-process data share, and
//!   cache locality degrades. Calibrated (+25 % per
//!   doubling of per-mapper volume beyond a 21 MB reference) — this is what
//!   reproduces the superlinear growth visible in the paper's own Figure 6
//!   numbers (1 GB → 3.9 s but 100 GB → 1129 s, 289× time for 100× data);
//! * shuffle as MPI flows (combined frames over the fluid network, paying
//!   the MPI streaming efficiency, contending on the reducer's downlink);
//! * streaming reduce overlapped with reception, then a final output write.

use desim::{Scheduler, Sim, SimTime};
use faults::FaultPlan;
use netsim::{Cluster, ClusterSpec, HasNet, HostId, JobSpec, MpiModel, Net, Route, Transport};
use obs::{ArgValue, Tracer};
use std::collections::BTreeMap;

/// Configuration of the simulated MPI-D deployment.
#[derive(Debug, Clone)]
pub struct SimMpidConfig {
    /// Cluster hardware and rack layout (host 0 = master/head node).
    pub cluster: ClusterSpec,
    /// Mapper processes (paper Figure 6: 49).
    pub n_mappers: usize,
    /// Reducer processes (paper Figure 6: 1).
    pub n_reducers: usize,
    /// Bytes per input split.
    pub split_bytes: u64,
    /// Process launch + `MPI_D_Init` time.
    pub startup: SimTime,
    /// Round-trip cost of one split request to the master.
    pub master_rpc: SimTime,
    /// Map CPU cost relative to the Java cost in the [`JobSpec`]
    /// (native C prototype vs. Hadoop's JVM path).
    pub native_cpu_factor: f64,
    /// Extra per-byte CPU per doubling of per-mapper data volume beyond
    /// [`SimMpidConfig::pressure_ref_bytes`] (memory-hierarchy pressure of
    /// the prototype's unbounded in-process state).
    pub pressure_per_doubling: f64,
    /// Reference per-mapper volume at which pressure is 1.0×.
    pub pressure_ref_bytes: u64,
    /// Frame granularity for pipelined spill shipping: combined map output
    /// ships in frames of this size *while the split is still being
    /// mapped* (the paper's `MPI_D_Send` design — data movement overlaps
    /// map computation on the producing mapper). `0` disables pipelining
    /// and ships the whole split output after the map completes.
    pub ship_frame_bytes: u64,
}

impl SimMpidConfig {
    /// The paper's Figure 6 deployment: 8 nodes, 49 mappers + 1 reducer +
    /// 1 master, 64 MB splits.
    pub fn icpp2011_fig6() -> Self {
        SimMpidConfig {
            cluster: ClusterSpec::icpp2011_testbed(),
            n_mappers: 49,
            n_reducers: 1,
            split_bytes: 64 << 20,
            startup: SimTime::from_millis(300),
            master_rpc: SimTime::from_micros(1100), // ~2× MPI small-message latency
            native_cpu_factor: 0.23,
            pressure_per_doubling: 0.25,
            pressure_ref_bytes: 21 << 20,
            ship_frame_bytes: 512 << 10,
        }
    }

    /// Size splits the way the paper's runs do: data is pre-distributed
    /// evenly across the mapper processes, in chunks of at most one HDFS
    /// block (so 1 GB over 49 mappers runs as ~21 MB splits, while 100 GB
    /// runs as 64 MB splits, 32 per mapper).
    pub fn with_auto_splits(mut self, input_bytes: u64) -> Self {
        let even = input_bytes.div_ceil(self.n_mappers as u64);
        self.split_bytes = even.clamp(1 << 20, 64 << 20);
        self
    }

    fn validate(&self) {
        assert!(self.cluster.hosts >= 2, "need head node plus workers");
        assert!(self.n_mappers > 0 && self.n_reducers > 0);
        assert!(self.split_bytes > 0);
        assert!(self.native_cpu_factor > 0.0);
        assert!(self.pressure_per_doubling >= 0.0);
        assert!(self.pressure_ref_bytes > 0);
    }
}

/// Timing report of one simulated MPI-D job.
#[derive(Debug, Clone)]
pub struct SimMpidReport {
    /// Wall-clock job time.
    pub makespan: SimTime,
    /// When the last mapper finished (map + send complete).
    pub map_finish: SimTime,
    /// Total bytes shuffled to reducers (reducer-input volume, after any
    /// in-node combining).
    pub shuffle_bytes: u64,
    /// Bytes that actually crossed the network (or loopback) for the
    /// shuffle: reducer-input volume inflated by the MPI streaming
    /// efficiency.
    pub wire_bytes: u64,
    /// Per-mapper busy spans `(start, end)`.
    pub mapper_spans: Vec<(SimTime, SimTime)>,
    /// The effective map-CPU multiplier applied (native factor × pressure).
    pub cpu_multiplier: f64,
}

struct MpidSim {
    net: Net<MpidSim>,
    cfg: SimMpidConfig,
    spec: JobSpec,
    // split queue
    next_split: usize,
    n_splits: usize,
    split_input: Vec<u64>,
    split_home: Vec<HostId>,
    mapper_host: Vec<HostId>,
    reducer_host: Vec<HostId>,
    // progress
    mappers_done: usize,
    sends_in_flight: usize,
    mapper_spans: Vec<(SimTime, SimTime)>,
    // reducer bookkeeping
    first_arrival: Option<SimTime>,
    shuffle_bytes: u64,
    wire_bytes: u64,
    cpu_multiplier: f64,
    mpi_efficiency: f64,
    // Mapper processes per worker host: the in-node combine stage's
    // co-location under the round-robin placement.
    colocated: usize,
    report_makespan: SimTime,
    finished: bool,
    reduce_started: bool,
    tracer: Option<Tracer>,
    // (mapper, split) → (ship start ns — `None` until the first frame
    // ships, flows outstanding, shuffled bytes). Drives both the traced
    // `ship` span and the blocking-send handoff to the next split.
    ship_state: BTreeMap<(usize, usize), (Option<u64>, usize, u64)>,
    // Benign (crash-free) fault schedule: degradations, partitions and
    // straggler windows. Crashes are handled by the FT driver above the sim.
    plan: FaultPlan,
}

impl HasNet for MpidSim {
    fn net(&mut self) -> &mut Net<MpidSim> {
        &mut self.net
    }
}

impl MpidSim {
    fn new(cfg: SimMpidConfig, spec: JobSpec, plan: FaultPlan) -> Self {
        cfg.validate();
        spec.validate().expect("invalid job spec");
        assert!(
            plan.first_crash().is_none(),
            "MpidSim takes a benign plan; crashes are driver-level (run_sim_mpid_ft)"
        );
        plan.validate(cfg.cluster.hosts)
            .expect("invalid fault plan");
        let n_splits = (spec.input_bytes.div_ceil(cfg.split_bytes)).max(1) as usize;
        let mut split_input = vec![cfg.split_bytes; n_splits];
        let tail = spec.input_bytes % cfg.split_bytes;
        if tail != 0 {
            split_input[n_splits - 1] = tail;
        }
        let workers = cfg.cluster.hosts - 1;
        // "we distribute all input data across all nodes to guarantee the
        // data accessing locally": split s lives where mapper (s mod M) runs.
        let mapper_host: Vec<HostId> = (0..cfg.n_mappers)
            .map(|i| HostId(1 + i % workers))
            .collect();
        let split_home: Vec<HostId> = (0..n_splits)
            .map(|s| mapper_host[s % cfg.n_mappers])
            .collect();
        let reducer_host: Vec<HostId> = (0..cfg.n_reducers)
            .map(|i| HostId(1 + (workers - 1 - i % workers)))
            .collect();
        // Memory-pressure multiplier from the per-mapper data share.
        let share = spec.input_bytes as f64 / cfg.n_mappers as f64;
        let ref_b = cfg.pressure_ref_bytes as f64;
        let doublings = (share / ref_b).log2().max(0.0);
        let cpu_multiplier = cfg.native_cpu_factor * (1.0 + cfg.pressure_per_doubling * doublings);
        let mpi_efficiency = {
            // Streaming efficiency of frame-sized MPI messages.
            let m = MpiModel::default();
            m.stream_bandwidth(512 * 1024) / m.peak_bw
        };
        MpidSim {
            net: Net::new(Cluster::new(cfg.cluster.clone())),
            spec,
            next_split: 0,
            n_splits,
            split_input,
            split_home,
            mapper_spans: vec![(SimTime::ZERO, SimTime::ZERO); cfg.n_mappers],
            mapper_host,
            reducer_host,
            mappers_done: 0,
            sends_in_flight: 0,
            first_arrival: None,
            shuffle_bytes: 0,
            wire_bytes: 0,
            cpu_multiplier,
            mpi_efficiency,
            colocated: cfg.n_mappers.div_ceil(workers),
            report_makespan: SimTime::ZERO,
            finished: false,
            reduce_started: false,
            tracer: None,
            ship_state: BTreeMap::new(),
            plan,
            cfg,
        }
    }

    /// Install a trace sink on the job and its network, naming the lanes
    /// (pid 0 = master, pid 1.. = workers; mapper `m` traces on its host's
    /// lane with tid `m`).
    fn set_tracer(&mut self, tracer: Tracer) {
        tracer.set_process_name(0, "master");
        for h in 1..self.cfg.cluster.hosts {
            tracer.set_process_name(h as u32, format!("worker-{h}"));
        }
        for (m, host) in self.mapper_host.iter().enumerate() {
            tracer.set_thread_name(host.0 as u32, m as u32, format!("mapper-{m}"));
        }
        self.net.set_tracer(tracer.clone());
        // 100 ms of simulated time between utilization samples: fine enough
        // to see the shuffle ramp in multi-minute jobs, coarse enough that
        // the samples stay a small fraction of the trace.
        self.net.set_util_sampling(SimTime::from_millis(100));
        self.tracer = Some(tracer);
    }

    fn start(sim: &mut Sim<MpidSim>) {
        let startup = sim.state.cfg.startup;
        let n = sim.state.cfg.n_mappers;
        for m in 0..n {
            sim.schedule(startup, move |s: &mut MpidSim, sc| {
                s.mapper_spans[m].0 = sc.now();
                Self::request_split(s, sc, m);
            });
        }
        // The plan is benign (checked in `MpidSim::new`): no crash handler.
        let plan = sim.state.plan.clone();
        plan.arm(sim, |s| !s.finished, None);
    }

    /// Mapper `m` asks the master for work (paper: pull-based assignment).
    fn request_split(s: &mut MpidSim, sc: &mut Scheduler<MpidSim>, m: usize) {
        let rpc = s.cfg.master_rpc;
        sc.schedule_in(rpc, move |s: &mut MpidSim, sc| {
            if s.next_split < s.n_splits {
                let split = s.next_split;
                s.next_split += 1;
                Self::read_split(s, sc, m, split);
            } else {
                Self::mapper_done(s, sc, m);
            }
        });
    }

    fn read_split(s: &mut MpidSim, sc: &mut Scheduler<MpidSim>, m: usize, split: usize) {
        let my_host = s.mapper_host[m];
        let home = s.split_home[split];
        let bytes = s.split_input[split];
        let route = if home == my_host {
            Route::DiskRead(my_host)
        } else {
            Route::RemoteRead {
                from: home,
                to: my_host,
            }
        };
        // One seek to open the split file.
        let seek_bytes = (0.008 * s.cfg.cluster.disk_read_bytes_per_sec) as u64;
        let read_start = sc.now().as_nanos();
        Net::start_flow(s, sc, route, bytes + seek_bytes, 1.0, move |s, sc| {
            if let Some(t) = &s.tracer {
                t.complete(
                    my_host.0 as u32,
                    m as u32,
                    obs::names::SPAN_READ,
                    obs::names::CAT_MPID_PHASE,
                    read_start,
                    sc.now().as_nanos(),
                    vec![("bytes", ArgValue::U64(bytes))],
                );
            }
            Self::map_split(s, sc, m, split);
        });
    }

    fn map_split(s: &mut MpidSim, sc: &mut Scheduler<MpidSim>, m: usize, split: usize) {
        let bytes = s.split_input[split];
        // An injected straggler multiplies the whole split's compute (the
        // factor ×1.0 for an empty plan keeps the cost bit-identical).
        let injected = s.plan.cpu_factor(s.mapper_host[m].0, sc.now());
        // Map function and combiner are serial per mapper process (at
        // baseline the sum equals `spec.map_cpu_secs(bytes)`).
        // In-node combining pays a second combine pass over the host's
        // merged post-combine spills (0 at baseline).
        let map_ns = bytes as f64 * s.spec.map_cpu_ns_per_byte;
        let comb_ns = s.spec.map_output_bytes(bytes) as f64 * s.spec.combine_cpu_ns_per_byte;
        let innode_ns = s.spec.innode_combine_ns(bytes);
        let cpu_secs = (map_ns + comb_ns + innode_ns) * 1e-9 * s.cpu_multiplier * injected;
        let map_start = sc.now().as_nanos();
        // Pipelined spill shipping (the paper's `MPI_D_Send` design): the
        // combined output accrues over the map compute and ships in
        // frame-sized spills as each is produced, so data movement overlaps
        // map computation on the producing mapper. The final frame is only
        // ready when the map is.
        let shuffled = s.spec.strategy_shuffle_bytes(bytes, s.colocated) as u64;
        s.shuffle_bytes += shuffled;
        let n_frames = match s.cfg.ship_frame_bytes {
            0 => 1,
            f => (shuffled / f).clamp(1, 64) as usize,
        };
        s.ship_state
            .insert((m, split), (None, n_frames * s.cfg.n_reducers, shuffled));
        let per_frame = shuffled / n_frames as u64;
        for j in 1..=n_frames {
            let at = SimTime::from_secs_f64(cpu_secs * j as f64 / n_frames as f64);
            let last_frame = j == n_frames;
            let fbytes = if last_frame {
                shuffled - per_frame * (n_frames as u64 - 1)
            } else {
                per_frame
            };
            sc.schedule_in(at, move |s: &mut MpidSim, sc| {
                if last_frame {
                    if let Some(t) = &s.tracer {
                        t.complete(
                            s.mapper_host[m].0 as u32,
                            m as u32,
                            obs::names::SPAN_MAP,
                            obs::names::CAT_MPID_PHASE,
                            map_start,
                            sc.now().as_nanos(),
                            vec![("bytes", ArgValue::U64(bytes))],
                        );
                    }
                }
                Self::ship_frame(s, sc, m, split, fbytes);
            });
        }
    }

    /// Ship one produced frame of this split's combined output to the
    /// reducers as MPI messages.
    fn ship_frame(
        s: &mut MpidSim,
        sc: &mut Scheduler<MpidSim>,
        m: usize,
        split: usize,
        fbytes: u64,
    ) {
        let my_host = s.mapper_host[m];
        let n_red = s.cfg.n_reducers;
        let per_red = fbytes / n_red as u64;
        if let Some((start, _, _)) = s.ship_state.get_mut(&(m, split)) {
            if start.is_none() {
                *start = Some(sc.now().as_nanos());
            }
        }
        // Wire bytes inflated by the MPI streaming efficiency for
        // frame-sized messages.
        for r in 0..n_red {
            let dst = s.reducer_host[r];
            let wire = (per_red as f64 / s.mpi_efficiency) as u64;
            s.wire_bytes += wire;
            let route = if dst == my_host {
                Route::Loopback(my_host)
            } else {
                Route::HostToHost { src: my_host, dst }
            };
            s.sends_in_flight += 1;
            Net::start_flow(s, sc, route, wire, 1.0, move |s, sc| {
                s.sends_in_flight -= 1;
                if s.first_arrival.is_none() {
                    s.first_arrival = Some(sc.now());
                    if let Some(t) = &s.tracer {
                        t.instant(
                            s.reducer_host[0].0 as u32,
                            0,
                            obs::names::INST_FIRST_ARRIVAL,
                            obs::names::CAT_MPID,
                            sc.now().as_nanos(),
                        );
                    }
                }
                let mut drained = false;
                if let Some((_, left, _)) = s.ship_state.get_mut(&(m, split)) {
                    *left -= 1;
                    drained = *left == 0;
                }
                if drained {
                    let (start, _, bytes) = s.ship_state.remove(&(m, split)).expect("ship state");
                    if let Some(t) = &s.tracer {
                        t.complete(
                            s.mapper_host[m].0 as u32,
                            m as u32,
                            obs::names::SPAN_SHIP,
                            obs::names::CAT_MPID_PHASE,
                            start.unwrap_or_else(|| sc.now().as_nanos()),
                            sc.now().as_nanos(),
                            vec![("shuffled_bytes", ArgValue::U64(bytes))],
                        );
                    }
                    // Blocking sends: the mapper proceeds only once the
                    // split's spills have all drained.
                    Self::request_split(s, sc, m);
                }
                Self::maybe_finish(s, sc);
            });
        }
    }

    fn mapper_done(s: &mut MpidSim, sc: &mut Scheduler<MpidSim>, m: usize) {
        s.mapper_spans[m].1 = sc.now();
        s.mappers_done += 1;
        if let Some(t) = &s.tracer {
            t.counter(
                0,
                obs::names::M_MPID_MAPPERS_DONE,
                obs::names::CAT_MPID,
                sc.now().as_nanos(),
                s.mappers_done as f64,
            );
            t.metrics().inc(obs::names::M_MPID_MAPPERS_DONE, 1);
        }
        Self::maybe_finish(s, sc);
    }

    /// Once every mapper is done and every frame has landed, run the
    /// reducer tail: leftover reduce CPU (streaming reduce overlaps
    /// reception) plus the final output write.
    fn maybe_finish(s: &mut MpidSim, sc: &mut Scheduler<MpidSim>) {
        if s.reduce_started || s.mappers_done < s.cfg.n_mappers || s.sends_in_flight > 0 {
            return;
        }
        s.reduce_started = true;
        let per_red = s.shuffle_bytes / s.cfg.n_reducers as u64;
        let total_cpu = s.spec.reduce_cpu_secs(per_red) * s.cfg.native_cpu_factor;
        let overlapped = s
            .first_arrival
            .map(|t| (sc.now() - t).as_secs_f64())
            .unwrap_or(0.0);
        let injected = s.plan.cpu_factor(s.reducer_host[0].0, sc.now());
        let remaining = (total_cpu * injected - overlapped).max(0.0);
        let out_bytes = s.spec.output_bytes(per_red);
        let tail_start = sc.now().as_nanos();
        sc.schedule_in(
            SimTime::from_secs_f64(remaining),
            move |s: &mut MpidSim, sc| {
                // Reducers write their outputs in parallel on their hosts.
                let host = s.reducer_host[0];
                Net::disk_write(s, sc, host, out_bytes, move |s, sc| {
                    s.finished = true;
                    s.report_makespan = sc.now();
                    if let Some(t) = &s.tracer {
                        t.complete(
                            host.0 as u32,
                            u32::MAX,
                            obs::names::SPAN_REDUCE_TAIL,
                            obs::names::CAT_MPID_PHASE,
                            tail_start,
                            sc.now().as_nanos(),
                            vec![],
                        );
                        t.instant(
                            0,
                            0,
                            obs::names::INST_JOB_FINISHED,
                            obs::names::CAT_MPID,
                            sc.now().as_nanos(),
                        );
                    }
                });
            },
        );
    }
}

/// Execute one simulated MPI-D job.
pub fn run_sim_mpid(cfg: SimMpidConfig, spec: JobSpec) -> SimMpidReport {
    run_sim_mpid_inner(cfg, spec, FaultPlan::none(), None)
}

/// Like [`run_sim_mpid`], but recording per-split read/map/ship spans, the
/// reducer tail, and network flow spans into `tracer` (simulated-time
/// timestamps — deterministic for a given config and spec).
pub fn run_sim_mpid_traced(cfg: SimMpidConfig, spec: JobSpec, tracer: Tracer) -> SimMpidReport {
    run_sim_mpid_inner(cfg, spec, FaultPlan::none(), Some(tracer))
}

fn run_sim_mpid_inner(
    cfg: SimMpidConfig,
    spec: JobSpec,
    plan: FaultPlan,
    tracer: Option<Tracer>,
) -> SimMpidReport {
    let mut sim = Sim::new(MpidSim::new(cfg, spec, plan));
    if let Some(t) = tracer {
        sim.state.set_tracer(t);
    }
    MpidSim::start(&mut sim);
    sim.run();
    assert!(sim.state.finished, "MPI-D simulation did not complete");
    let map_finish = sim
        .state
        .mapper_spans
        .iter()
        .map(|&(_, e)| e)
        .max()
        .unwrap_or(SimTime::ZERO);
    SimMpidReport {
        makespan: sim.state.report_makespan,
        map_finish,
        shuffle_bytes: sim.state.shuffle_bytes,
        wire_bytes: sim.state.wire_bytes,
        mapper_spans: sim.state.mapper_spans.clone(),
        cpu_multiplier: sim.state.cpu_multiplier,
    }
}

/// MPI's failure-detection latency in the cost model: the time between a
/// process dying and MPICH aborting the job (or, in checkpoint mode, the
/// driver noticing and starting the respawn). The serve plan's
/// `detect_delay` returns this same constant. On the real path a dying rank
/// aborts its universe, and the abort wakes every other rank's wait: from a
/// panic in `map` to `run_mpid` failing took a median of 0.1 ms over 25
/// runs each with the checker on and off (1 + 1 WordCount, release build,
/// 2-core x86-64 box). The constant prices MPICH noticing a dead process,
/// which the threads-as-ranks runtime does not model.
pub(crate) const MPI_DETECT: SimTime = SimTime::from_millis(80);

/// How the simulated MPI-D deployment reacts to node crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpidFtMode {
    /// The paper's prototype: no fault tolerance at all. The first node
    /// crash aborts the whole job after the detection latency.
    Unchecked,
    /// Barrier checkpoint/restart: the job runs as supersteps of
    /// `interval_splits` splits; at each barrier the reducers flush their
    /// partition-buffer delta to local disk, and a superstep interrupted by
    /// a crash is replayed from the last barrier on the surviving hosts.
    Checkpoint {
        /// Input splits per superstep (clamped to at least 1).
        interval_splits: usize,
    },
}

/// How a fault-injected MPI-D job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtOutcome {
    /// The job finished.
    Completed {
        /// Wall-clock job time including recovery.
        makespan: SimTime,
    },
    /// The job was lost — unchecked MPI under a node crash.
    Failed {
        /// When the job aborted (crash + detection latency).
        at: SimTime,
        /// The crashed host.
        lost_host: usize,
    },
}

/// Report of one fault-injected MPI-D simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimMpidFtReport {
    /// Completion or failure.
    pub outcome: FtOutcome,
    /// Supersteps completed (1 for an unchecked run that finished).
    pub supersteps: u64,
    /// Supersteps replayed after a crash.
    pub restarts: u64,
    /// Total barrier time spent writing checkpoints.
    pub checkpoint_overhead: SimTime,
    /// Simulated work thrown away (partial superstep at a crash, or the
    /// whole run for an unchecked failure).
    pub wasted: SimTime,
}

/// Execute one simulated MPI-D job under a fault plan.
///
/// Benign events (disk/NIC degradations, partitions, stragglers) are
/// injected into the fluid simulation itself; node crashes are resolved by
/// the FT `mode` — fail-fast for [`MpidFtMode::Unchecked`], replay from the
/// last barrier for [`MpidFtMode::Checkpoint`]. With an empty plan,
/// unchecked mode is bit-identical to [`run_sim_mpid`].
pub fn run_sim_mpid_ft(
    cfg: SimMpidConfig,
    spec: JobSpec,
    plan: FaultPlan,
    mode: MpidFtMode,
) -> SimMpidFtReport {
    run_sim_mpid_ft_inner(cfg, spec, plan, mode, None)
}

/// [`run_sim_mpid_ft`] with the fault schedule, barrier checkpoints and
/// restarts recorded as `mpid.checkpoint` / `faults.inject` trace events.
pub fn run_sim_mpid_ft_traced(
    cfg: SimMpidConfig,
    spec: JobSpec,
    plan: FaultPlan,
    mode: MpidFtMode,
    tracer: Tracer,
) -> SimMpidFtReport {
    plan.emit_schedule(&tracer);
    run_sim_mpid_ft_inner(cfg, spec, plan, mode, Some(tracer))
}

fn run_sim_mpid_ft_inner(
    cfg: SimMpidConfig,
    spec: JobSpec,
    plan: FaultPlan,
    mode: MpidFtMode,
    tracer: Option<Tracer>,
) -> SimMpidFtReport {
    plan.validate(cfg.cluster.hosts)
        .expect("invalid fault plan");
    let interval = match mode {
        MpidFtMode::Unchecked => {
            // One monolithic "superstep": run the whole job with the benign
            // events injected, then let the first crash (if it lands before
            // completion) kill it.
            let report = run_sim_mpid_inner(cfg, spec, plan.without_crashes(), tracer.clone());
            return match plan.first_crash() {
                Some((at, host)) if at < report.makespan => {
                    let failed_at = at + MPI_DETECT;
                    if let Some(t) = &tracer {
                        t.instant(
                            0,
                            0,
                            obs::names::INST_JOB_FAILED,
                            obs::names::CAT_MPID_CHECKPOINT,
                            failed_at.as_nanos(),
                        );
                    }
                    SimMpidFtReport {
                        outcome: FtOutcome::Failed {
                            at: failed_at,
                            lost_host: host,
                        },
                        supersteps: 0,
                        restarts: 0,
                        checkpoint_overhead: SimTime::ZERO,
                        wasted: at,
                    }
                }
                _ => SimMpidFtReport {
                    outcome: FtOutcome::Completed {
                        makespan: report.makespan,
                    },
                    supersteps: 1,
                    restarts: 0,
                    checkpoint_overhead: SimTime::ZERO,
                    wasted: SimTime::ZERO,
                },
            };
        }
        MpidFtMode::Checkpoint { interval_splits } => interval_splits.max(1) as u64,
    };

    let n_splits = spec.input_bytes.div_ceil(cfg.split_bytes).max(1);
    let mut crash_pending = plan.first_crash();
    let mut hosts = cfg.cluster.hosts;
    let mut elapsed = SimTime::ZERO;
    let mut report = SimMpidFtReport {
        outcome: FtOutcome::Completed {
            makespan: SimTime::ZERO,
        },
        supersteps: 0,
        restarts: 0,
        checkpoint_overhead: SimTime::ZERO,
        wasted: SimTime::ZERO,
    };
    let mut split = 0u64;
    while split < n_splits {
        let chunk = interval.min(n_splits - split);
        let chunk_bytes = (spec.input_bytes - split * cfg.split_bytes).min(chunk * cfg.split_bytes);
        let mut sub_cfg = cfg.clone();
        sub_cfg.cluster.hosts = hosts;
        let mut sub_spec = spec.clone();
        sub_spec.input_bytes = chunk_bytes;
        // The superstep inherits whatever benign faults are active at its
        // start plus those scheduled during it, re-based to local time.
        let sub = run_sim_mpid_inner(
            sub_cfg,
            sub_spec,
            plan.after(elapsed).without_crashes(),
            None,
        );
        // Barrier: reducers flush this superstep's partition-buffer delta
        // to local disk in parallel, plus one barrier RPC.
        let per_red = spec.shuffle_bytes(chunk_bytes) / cfg.n_reducers as u64;
        let ckpt = SimTime::from_secs_f64(per_red as f64 / cfg.cluster.disk_write_bytes_per_sec)
            + cfg.master_rpc;
        let end = elapsed + sub.makespan + ckpt;
        if let Some((at, _host)) = crash_pending {
            if at < end {
                // The crash lands in this superstep: its partial work is
                // lost, the host is gone, and after detection + respawn the
                // superstep replays from the last barrier on the survivors.
                report.wasted += at.max(elapsed) - elapsed;
                report.restarts += 1;
                hosts -= 1;
                elapsed = at + MPI_DETECT + cfg.startup;
                crash_pending = None;
                if let Some(t) = &tracer {
                    t.instant(
                        0,
                        0,
                        obs::names::INST_RESTART,
                        obs::names::CAT_MPID_CHECKPOINT,
                        elapsed.as_nanos(),
                    );
                }
                continue;
            }
        }
        elapsed = end;
        report.checkpoint_overhead += ckpt;
        report.supersteps += 1;
        split += chunk;
        if let Some(t) = &tracer {
            t.instant(
                0,
                0,
                obs::names::INST_CHECKPOINT,
                obs::names::CAT_MPID_CHECKPOINT,
                elapsed.as_nanos(),
            );
        }
    }
    report.outcome = FtOutcome::Completed { makespan: elapsed };
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{RackLayout, SimShuffle};

    fn wc_spec(gb: f64) -> JobSpec {
        JobSpec {
            name: "wordcount".into(),
            input_bytes: (gb * (1u64 << 30) as f64) as u64,
            record_bytes: 80,
            map_cpu_ns_per_byte: 800.0,
            map_output_ratio: 1.6,
            combine_ratio: 0.012,
            combine_cpu_ns_per_byte: 30.0,
            reduce_cpu_ns_per_byte: 100.0,
            output_ratio: 1.0,
            shuffle: SimShuffle::Baseline,
        }
    }

    #[test]
    fn completes_and_scales_with_input() {
        let t1 = run_sim_mpid(SimMpidConfig::icpp2011_fig6(), wc_spec(1.0)).makespan;
        let t10 = run_sim_mpid(SimMpidConfig::icpp2011_fig6(), wc_spec(10.0)).makespan;
        assert!(t10 > t1 * 5, "10x data should be >5x time: {t1} vs {t10}");
    }

    #[test]
    fn superlinear_pressure_term() {
        // 100× the data must take more than 100× the time (the paper's
        // observed shape).
        let cfg = |gb: f64| {
            SimMpidConfig::icpp2011_fig6().with_auto_splits((gb * (1u64 << 30) as f64) as u64)
        };
        let t1 = run_sim_mpid(cfg(1.0), wc_spec(1.0)).makespan;
        let t100 = run_sim_mpid(cfg(100.0), wc_spec(100.0)).makespan;
        let ratio = t100.as_secs_f64() / t1.as_secs_f64();
        assert!(ratio > 100.0, "expected superlinear growth, got {ratio}");
    }

    #[test]
    fn deterministic() {
        let a = run_sim_mpid(SimMpidConfig::icpp2011_fig6(), wc_spec(1.0));
        let b = run_sim_mpid(SimMpidConfig::icpp2011_fig6(), wc_spec(1.0));
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn mapper_spans_cover_the_job() {
        let r = run_sim_mpid(SimMpidConfig::icpp2011_fig6(), wc_spec(1.0));
        assert!(r.map_finish <= r.makespan);
        assert!(r.mapper_spans.iter().all(|&(s, e)| e >= s));
        assert!(r.shuffle_bytes > 0);
    }

    #[test]
    fn ft_unchecked_with_empty_plan_matches_plain_run() {
        let plain = run_sim_mpid(SimMpidConfig::icpp2011_fig6(), wc_spec(1.0));
        let ft = run_sim_mpid_ft(
            SimMpidConfig::icpp2011_fig6(),
            wc_spec(1.0),
            FaultPlan::none(),
            MpidFtMode::Unchecked,
        );
        assert_eq!(
            ft.outcome,
            FtOutcome::Completed {
                makespan: plain.makespan
            }
        );
        assert_eq!(ft.checkpoint_overhead, SimTime::ZERO);
    }

    #[test]
    fn ft_unchecked_fails_fast_on_a_crash() {
        let plain = run_sim_mpid(SimMpidConfig::icpp2011_fig6(), wc_spec(1.0));
        let crash_at = SimTime::from_secs_f64(plain.makespan.as_secs_f64() * 0.5);
        let plan = FaultPlan::builder().crash(crash_at, 3).build();
        let ft = run_sim_mpid_ft(
            SimMpidConfig::icpp2011_fig6(),
            wc_spec(1.0),
            plan,
            MpidFtMode::Unchecked,
        );
        match ft.outcome {
            FtOutcome::Failed { at, lost_host } => {
                assert_eq!(lost_host, 3);
                assert!(at >= crash_at && at < crash_at + SimTime::from_secs(1));
            }
            other => panic!("expected fail-fast, got {other:?}"),
        }
    }

    #[test]
    fn ft_checkpoint_survives_the_crash_with_bounded_slowdown() {
        let cfg = SimMpidConfig::icpp2011_fig6().with_auto_splits(1 << 30);
        let plain = run_sim_mpid(cfg.clone(), wc_spec(1.0));
        let crash_at = SimTime::from_secs_f64(plain.makespan.as_secs_f64() * 0.5);
        let plan = FaultPlan::builder().crash(crash_at, 3).build();
        let mode = MpidFtMode::Checkpoint { interval_splits: 4 };
        let ft = run_sim_mpid_ft(cfg.clone(), wc_spec(1.0), plan.clone(), mode);
        let FtOutcome::Completed { makespan } = ft.outcome else {
            panic!("checkpointed run must complete: {:?}", ft.outcome);
        };
        assert_eq!(ft.restarts, 1);
        assert!(ft.checkpoint_overhead > SimTime::ZERO);
        // Recovery costs something, but far less than a full re-run.
        assert!(makespan > plain.makespan);
        assert!(
            makespan.as_secs_f64() < plain.makespan.as_secs_f64() * 3.0 + 60.0,
            "recovery should be bounded: {makespan} vs {}",
            plain.makespan
        );
        // Deterministic replay.
        let again = run_sim_mpid_ft(cfg, wc_spec(1.0), plan, mode);
        assert_eq!(ft, again);
    }

    #[test]
    fn ft_straggler_slows_the_whole_job_without_crashing_it() {
        let plain = run_sim_mpid(SimMpidConfig::icpp2011_fig6(), wc_spec(1.0));
        let until = SimTime::from_secs_f64(plain.makespan.as_secs_f64() * 4.0);
        let plan = FaultPlan::builder()
            .straggler(SimTime::ZERO, 2, 6.0, until)
            .build();
        let ft = run_sim_mpid_ft(
            SimMpidConfig::icpp2011_fig6(),
            wc_spec(1.0),
            plan,
            MpidFtMode::Unchecked,
        );
        let FtOutcome::Completed { makespan } = ft.outcome else {
            panic!("stragglers must not fail the job");
        };
        // No speculation in MPI-D: the slow host drags the makespan.
        assert!(makespan > plain.makespan);
    }

    #[test]
    fn traced_run_emits_pipeline_spans_without_perturbing_the_sim() {
        let plain = run_sim_mpid(SimMpidConfig::icpp2011_fig6(), wc_spec(1.0));
        let tracer = Tracer::new();
        let traced =
            run_sim_mpid_traced(SimMpidConfig::icpp2011_fig6(), wc_spec(1.0), tracer.clone());
        assert_eq!(plain.makespan, traced.makespan);
        let trace = tracer.take_trace();
        let count = |name: &str| {
            trace
                .events()
                .iter()
                .filter(|e| e.name == name && e.cat == "mpid.phase")
                .count()
        };
        // 1 GB over 49 mappers with 64 MB splits = 16 splits, each traced
        // through read → map → ship.
        assert_eq!(count("read"), 16);
        assert_eq!(count("map"), 16);
        assert_eq!(count("ship"), 16);
        assert_eq!(count("reduce_tail"), 1);
        assert!(trace.events().iter().any(|e| e.name == "mpid.mappers_done"));
        assert_eq!(tracer.metrics().counter("mpid.mappers_done"), 49);
    }

    #[test]
    fn shuffle_strategies_trade_wire_for_map_work() {
        let base = run_sim_mpid(SimMpidConfig::icpp2011_fig6(), wc_spec(1.0));
        assert!(base.wire_bytes > 0);

        // In-node combining: 49 mappers on 7 workers = 7 co-located spill
        // sets merged per host; WordCount combines well, so wire collapses.
        let mut spec = wc_spec(1.0);
        spec.shuffle = SimShuffle::InNodeCombine;
        let innode = run_sim_mpid(SimMpidConfig::icpp2011_fig6(), spec);
        assert!(
            innode.wire_bytes < base.wire_bytes / 2,
            "in-node combine should collapse duplicate keys: {} vs {}",
            innode.wire_bytes,
            base.wire_bytes
        );
        assert!(innode.shuffle_bytes < base.shuffle_bytes);
    }

    #[test]
    fn rack_topology_slows_cross_rack_shuffle() {
        let flat = run_sim_mpid(SimMpidConfig::icpp2011_fig6(), wc_spec(1.0));
        let mut cfg = SimMpidConfig::icpp2011_fig6();
        cfg.cluster.rack = Some(RackLayout::oversubscribed(
            4,
            cfg.cluster.nic_bytes_per_sec,
            8.0,
        ));
        let racked = run_sim_mpid(cfg, wc_spec(1.0));
        // Same data moved; the oversubscribed core can only cost time.
        assert_eq!(racked.wire_bytes, flat.wire_bytes);
        assert!(racked.makespan >= flat.makespan);
    }
}
