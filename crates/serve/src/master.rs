//! The serving master: one long-lived simulated resource manager admitting
//! a stream of jobs onto a shared rack-aware cluster.
//!
//! One [`netsim::Net`] models the whole cluster; every admitted job's
//! phases run as real flows through it, so concurrent jobs contend for NICs,
//! disks, rack uplinks and the oversubscribed core exactly as the fluid
//! solver dictates. The master owns admission (via a pluggable
//! [`Scheduler`]), rack-aware placement (prefer the emptiest rack),
//! per-phase execution of the backend's [`JobPlan`], and failure handling
//! with per-stack semantics ([`Recovery`]).
//!
//! ## Determinism invariants
//!
//! * all master state lives in `BTreeMap`/`BTreeSet` keyed by job id or
//!   host id — iteration order never depends on completion interleavings;
//! * every stochastic choice is made up front in the arrival stream; the
//!   master itself draws no randomness;
//! * stale-callback protection is by epoch: restarting a phase bumps the
//!   job's epoch, so in-flight completions from the abandoned attempt are
//!   ignored rather than double-counted.

use crate::arrivals::Arrival;
use crate::backend::{JobBackend, Recovery};
use crate::report::{JobRecord, ServeReport};
use crate::scheduler::{PendingView, Scheduler};
use desim::{EventId, Scheduler as EventQueue, Sim, SimTime};
use faults::{FaultEvent, FaultKind, FaultPlan};
use netsim::{
    Cluster, ClusterSpec, FlowId, HasNet, HostId, JobPlan, Net, PhaseFlows, RackLayout, Route,
};
use obs::Tracer;
use std::collections::{BTreeMap, BTreeSet};

/// Cluster shape and job-sizing policy for a serving run.
pub struct ServeConfig {
    /// The shared cluster (host 0 is the master and never runs jobs).
    pub cluster: Cluster,
    /// Input bytes per granted host: a job asks for
    /// `ceil(input / bytes_per_host)` hosts.
    pub bytes_per_host: u64,
    /// Minimum hosts per job.
    pub min_hosts: usize,
    /// Maximum hosts per job.
    pub max_hosts: usize,
}

impl ServeConfig {
    /// A rack-scale cluster of `n_racks × hosts_per_rack` paper-testbed
    /// hosts behind a `oversub:1` oversubscribed core, with default job
    /// sizing (256 MB per host, 2–16 hosts per job).
    pub fn rackscale(n_racks: usize, hosts_per_rack: usize, oversub: f64) -> Self {
        let mut spec = ClusterSpec::icpp2011_testbed();
        spec.hosts = n_racks * hosts_per_rack;
        spec.rack = Some(RackLayout::oversubscribed(
            hosts_per_rack,
            spec.nic_bytes_per_sec,
            oversub,
        ));
        ServeConfig {
            cluster: Cluster::new(spec),
            bytes_per_host: 256 << 20,
            min_hosts: 2,
            max_hosts: 16,
        }
    }

    /// Worker hosts (everything but host 0).
    pub fn worker_hosts(&self) -> usize {
        self.cluster.hosts() - 1
    }
}

struct Pending {
    arrival: Arrival,
    job_restarts: u32,
}

struct Running {
    arrival: Arrival,
    plan: JobPlan,
    hosts: Vec<usize>,
    phase: usize,
    epoch: u64,
    outstanding: usize,
    flows: BTreeSet<FlowId>,
    timer: Option<EventId>,
    started: SimTime,
    busy_since: SimTime,
    phase_restarts: u32,
    job_restarts: u32,
}

struct Master {
    sched: Box<dyn Scheduler>,
    backend: Box<dyn JobBackend>,
    cluster: Cluster,
    bytes_per_host: u64,
    min_hosts: usize,
    max_hosts: usize,
    free: BTreeSet<usize>,
    dead: BTreeSet<usize>,
    down: BTreeSet<usize>,
    pending: BTreeMap<u64, Pending>,
    running: BTreeMap<u64, Running>,
    tenant_hosts: BTreeMap<u32, usize>,
    records: BTreeMap<u64, JobRecord>,
    next_epoch: u64,
    recovered: u64,
    restarts: u64,
    busy_host_secs: f64,
    last_finish: SimTime,
    tracer: Option<Tracer>,
}

impl Master {
    fn alive_workers(&self) -> usize {
        self.cluster.hosts() - 1 - self.dead.len() - self.down.len()
    }

    fn wanted(&self, input_bytes: u64) -> usize {
        let want = (input_bytes.div_ceil(self.bytes_per_host) as usize)
            .clamp(self.min_hosts, self.max_hosts);
        want.min(self.alive_workers()).max(1)
    }

    /// Grant `want` hosts rack-aware: repeatedly take from the rack with
    /// the most free hosts (ties to the lower rack id), ascending host ids
    /// within a rack. Keeps small jobs rack-local and spreads large ones
    /// over as few racks as possible.
    fn allocate(&mut self, want: usize) -> Vec<usize> {
        let mut by_rack: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &h in &self.free {
            by_rack
                .entry(self.cluster.rack_of(HostId(h)))
                .or_default()
                .push(h);
        }
        let mut granted = Vec::with_capacity(want);
        while granted.len() < want {
            let Some((&rack, _)) = by_rack
                .iter()
                .filter(|(_, v)| !v.is_empty())
                .max_by_key(|(rack, v)| (v.len(), usize::MAX - **rack))
            else {
                break;
            };
            let hosts = by_rack.get_mut(&rack).expect("rack present");
            let take = hosts.len().min(want - granted.len());
            granted.extend(hosts.drain(..take));
        }
        for h in &granted {
            self.free.remove(h);
        }
        granted.sort_unstable();
        granted
    }

    fn sample_counters(&self, now: SimTime) {
        if let Some(t) = &self.tracer {
            let ts = now.as_nanos();
            t.counter(
                0,
                obs::names::CTR_SERVE_QUEUE_DEPTH,
                obs::names::CAT_SERVE,
                ts,
                self.pending.len() as f64,
            );
            t.counter(
                0,
                obs::names::CTR_SERVE_RUNNING,
                obs::names::CAT_SERVE,
                ts,
                self.running.len() as f64,
            );
        }
    }
}

/// The simulation state: shared network plus master bookkeeping.
pub struct ServeState {
    net: Net<ServeState>,
    m: Master,
}

impl HasNet for ServeState {
    fn net(&mut self) -> &mut Net<Self> {
        &mut self.net
    }
}

type Sched = EventQueue<ServeState>;

/// Replay `arrivals` against `backend` under `scheduler` and `faults`,
/// returning the deterministic [`ServeReport`]. Passing the same inputs
/// always produces a byte-identical `report.render()`.
pub fn run_serve(
    cfg: &ServeConfig,
    scheduler: Box<dyn Scheduler>,
    backend: Box<dyn JobBackend>,
    arrivals: &[Arrival],
    faults: &FaultPlan,
    tracer: Option<Tracer>,
) -> ServeReport {
    let hosts = cfg.cluster.hosts();
    assert!(hosts >= 3, "need a master and at least two workers");
    faults.validate(hosts).expect("fault plan rejected");

    let mut net = Net::new(cfg.cluster.clone());
    if let Some(t) = &tracer {
        net.set_tracer(t.clone());
        faults.emit_schedule(t);
    }
    let scheduler_name = scheduler.name();
    let backend_name = backend.name();
    let m = Master {
        sched: scheduler,
        backend,
        cluster: cfg.cluster.clone(),
        bytes_per_host: cfg.bytes_per_host,
        min_hosts: cfg.min_hosts,
        max_hosts: cfg.max_hosts,
        free: (1..hosts).collect(),
        dead: BTreeSet::new(),
        down: BTreeSet::new(),
        pending: BTreeMap::new(),
        running: BTreeMap::new(),
        tenant_hosts: BTreeMap::new(),
        records: BTreeMap::new(),
        next_epoch: 0,
        recovered: 0,
        restarts: 0,
        busy_host_secs: 0.0,
        last_finish: SimTime::ZERO,
        tracer,
    };
    let mut sim = Sim::new(ServeState { net, m });

    for a in arrivals {
        let a = a.clone();
        sim.schedule(a.at, move |s: &mut ServeState, sc| on_arrival(s, sc, a));
    }
    for e in faults.events() {
        let e = e.clone();
        sim.schedule(e.at, move |s: &mut ServeState, sc| apply_fault(s, sc, e));
    }
    sim.run();

    let m = &sim.state.m;
    ServeReport {
        scheduler: scheduler_name,
        backend: backend_name,
        worker_hosts: hosts - 1,
        jobs: m.records.values().cloned().collect(),
        makespan: m.last_finish,
        recovered: m.recovered,
        restarts: m.restarts,
        busy_host_secs: m.busy_host_secs,
    }
}

fn on_arrival(s: &mut ServeState, sc: &mut Sched, a: Arrival) {
    if let Some(t) = &s.m.tracer {
        t.instant(
            0,
            a.id as u32,
            obs::names::INST_SERVE_ARRIVAL,
            obs::names::CAT_SERVE,
            sc.now().as_nanos(),
        );
    }
    s.m.pending.insert(
        a.id,
        Pending {
            arrival: a,
            job_restarts: 0,
        },
    );
    s.m.sample_counters(sc.now());
    try_dispatch(s, sc);
}

fn try_dispatch(s: &mut ServeState, sc: &mut Sched) {
    loop {
        let m = &mut s.m;
        if m.alive_workers() == 0 || m.pending.is_empty() {
            return;
        }
        let views: Vec<PendingView> = m
            .pending
            .values()
            .map(|p| PendingView {
                id: p.arrival.id,
                tenant: p.arrival.tenant,
                hosts_wanted: m.wanted(p.arrival.spec.input_bytes),
                submitted: p.arrival.at,
            })
            .collect();
        let free = m.free.len();
        let total = m.cluster.hosts() - 1;
        let Some(id) = m.sched.pick(&views, free, &m.tenant_hosts, total) else {
            return;
        };
        let want = views
            .iter()
            .find(|v| v.id == id)
            .expect("scheduler picked an unknown job")
            .hosts_wanted;
        if want > m.free.len() {
            // Defensive: a policy picked a job that doesn't fit. Stop
            // dispatching rather than loop forever.
            return;
        }
        let granted = m.allocate(want);
        start_job(s, sc, id, granted);
    }
}

fn start_job(s: &mut ServeState, sc: &mut Sched, id: u64, hosts: Vec<usize>) {
    let now = sc.now();
    let p = s.m.pending.remove(&id).expect("job pending");
    let plan = s.m.backend.plan(&p.arrival.spec, hosts.len());
    plan.validate();
    *s.m.tenant_hosts.entry(p.arrival.tenant).or_insert(0) += hosts.len();
    s.m.next_epoch += 1;
    let epoch = s.m.next_epoch;
    if let Some(t) = &s.m.tracer {
        let ts = now.as_nanos();
        t.instant(
            0,
            id as u32,
            obs::names::INST_SERVE_ADMIT,
            obs::names::CAT_SERVE,
            ts,
        );
        t.complete(
            0,
            id as u32,
            obs::names::SPAN_SERVE_QUEUED,
            obs::names::CAT_SERVE_JOB,
            p.arrival.at.as_nanos().min(ts),
            ts,
            vec![],
        );
    }
    let setup = SimTime::from_secs_f64(plan.setup_secs);
    s.m.running.insert(
        id,
        Running {
            arrival: p.arrival,
            plan,
            hosts,
            phase: 0,
            epoch,
            outstanding: 0,
            flows: BTreeSet::new(),
            timer: None,
            started: now,
            busy_since: now,
            phase_restarts: 0,
            job_restarts: p.job_restarts,
        },
    );
    s.m.sample_counters(now);
    sc.schedule_in(setup, move |s: &mut ServeState, sc| {
        start_phase(s, sc, id, epoch)
    });
}

/// Launch phase `r.phase` of job `id`: one CPU timer plus the phase's flow
/// pattern, all tagged with `epoch` so abandoned attempts can't complete.
fn start_phase(s: &mut ServeState, sc: &mut Sched, id: u64, epoch: u64) {
    let Some(r) = s.m.running.get(&id) else {
        return;
    };
    if r.epoch != epoch {
        return;
    }
    if r.phase >= r.plan.phases.len() {
        finish_job(s, sc, id);
        return;
    }
    let phase = &r.plan.phases[r.phase];
    let cpu = phase.cpu_secs;
    let bytes = phase.bytes;
    let flows_kind = phase.flows;
    let hosts = r.hosts.clone();
    let n = hosts.len() as u64;

    // Build the route list for the pattern before touching the network
    // (start_flow needs the whole state mutably).
    let mut routes: Vec<(Route, u64)> = Vec::new();
    match flows_kind {
        PhaseFlows::None => {}
        PhaseFlows::DiskReadEach => {
            let share = bytes / n;
            for &h in &hosts {
                routes.push((Route::DiskRead(HostId(h)), share));
            }
        }
        PhaseFlows::ShuffleAllToAll => {
            if n == 1 {
                routes.push((Route::Loopback(HostId(hosts[0])), bytes));
            } else {
                let share = bytes / (n * (n - 1));
                for &src in &hosts {
                    for &dst in &hosts {
                        if src != dst {
                            routes.push((
                                Route::HostToHost {
                                    src: HostId(src),
                                    dst: HostId(dst),
                                },
                                share,
                            ));
                        }
                    }
                }
            }
        }
        PhaseFlows::WriteReplicated { copies } => {
            let share = bytes / n;
            // The disk resource's capacity is the read rate; writes inflate
            // bytes by read/write, as Net::disk_write does.
            let spec = s.m.cluster.spec();
            let ratio = spec.disk_read_bytes_per_sec / spec.disk_write_bytes_per_sec;
            let scaled = ((share as f64) * ratio).ceil() as u64;
            for (i, &h) in hosts.iter().enumerate() {
                routes.push((Route::DiskWrite(HostId(h)), scaled));
                // Replicas go to the job's other hosts (next in the grant,
                // wrapping) — off-host copies without leaking flows onto
                // hosts the job doesn't own.
                for c in 1..copies.min(hosts.len()) {
                    let dst = hosts[(i + c) % hosts.len()];
                    routes.push((
                        Route::HostToHost {
                            src: HostId(h),
                            dst: HostId(dst),
                        },
                        share,
                    ));
                }
            }
        }
    }

    let mut flow_ids = BTreeSet::new();
    for (route, b) in routes {
        let fid = Net::start_flow(s, sc, route, b, 1.0, move |s: &mut ServeState, sc| {
            phase_item_done(s, sc, id, epoch, true)
        });
        flow_ids.insert(fid);
    }
    let n_flows = flow_ids.len();
    let timer = sc.schedule_in(
        SimTime::from_secs_f64(cpu),
        move |s: &mut ServeState, sc| phase_item_done(s, sc, id, epoch, false),
    );
    let r = s.m.running.get_mut(&id).expect("job running");
    r.flows = flow_ids;
    r.timer = Some(timer);
    r.outstanding = n_flows + 1;
}

fn phase_item_done(s: &mut ServeState, sc: &mut Sched, id: u64, epoch: u64, was_flow: bool) {
    let Some(r) = s.m.running.get_mut(&id) else {
        return;
    };
    if r.epoch != epoch {
        return;
    }
    if !was_flow {
        r.timer = None;
    }
    r.outstanding -= 1;
    if r.outstanding > 0 {
        return;
    }
    r.phase += 1;
    r.flows.clear();
    start_phase(s, sc, id, epoch);
}

fn finish_job(s: &mut ServeState, sc: &mut Sched, id: u64) {
    let now = sc.now();
    let r = s.m.running.remove(&id).expect("job running");
    s.m.busy_host_secs += r.hosts.len() as f64 * now.saturating_sub(r.busy_since).as_secs_f64();
    let t =
        s.m.tenant_hosts
            .get_mut(&r.arrival.tenant)
            .expect("tenant accounted");
    *t -= r.hosts.len();
    if *t == 0 {
        s.m.tenant_hosts.remove(&r.arrival.tenant);
    }
    s.m.free.extend(r.hosts.iter().copied());
    let shuffle = r
        .arrival
        .spec
        .shuffle_bytes(r.arrival.spec.input_bytes)
        .max(1);
    s.m.records.insert(
        id,
        JobRecord {
            id,
            class: r.arrival.class.label(),
            tenant: r.arrival.tenant,
            input_bytes: r.arrival.spec.input_bytes,
            output_bytes: r.arrival.spec.output_bytes(shuffle).max(1),
            hosts: r.hosts.len(),
            submitted: r.arrival.at,
            started: r.started,
            finished: now,
            phase_restarts: r.phase_restarts,
            job_restarts: r.job_restarts,
        },
    );
    s.m.last_finish = s.m.last_finish.max(now);
    if let Some(t) = &s.m.tracer {
        t.complete(
            0,
            id as u32,
            obs::names::SPAN_SERVE_RUN,
            obs::names::CAT_SERVE_JOB,
            r.started.as_nanos(),
            now.as_nanos(),
            vec![],
        );
        t.instant(
            0,
            id as u32,
            obs::names::INST_JOB_FINISHED,
            obs::names::CAT_SERVE,
            now.as_nanos(),
        );
        t.metrics().inc(obs::names::M_SERVE_JOBS_DONE, 1);
    }
    s.m.sample_counters(now);
    try_dispatch(s, sc);
}

fn apply_fault(s: &mut ServeState, sc: &mut Sched, e: FaultEvent) {
    match e.kind {
        FaultKind::NodeCrash => host_lost(s, sc, e.host, true),
        FaultKind::DiskSlowdown { factor } => {
            if !s.m.dead.contains(&e.host) {
                Net::set_disk_factor(s, sc, HostId(e.host), factor);
            }
        }
        FaultKind::NicDegrade { factor } => {
            if !s.m.dead.contains(&e.host) {
                Net::set_nic_factor(s, sc, HostId(e.host), factor);
            }
        }
        FaultKind::LinkPartition { peer, heal_at } => {
            // A cut whose endpoint is host 0 isolates the *other* endpoint
            // from the master — the serving-level meaning of a rack-uplink
            // failure built with `FaultPlanBuilder::partition_set`.
            let h = if e.host == 0 { peer } else { e.host };
            if h == 0 || s.m.dead.contains(&h) || s.m.down.contains(&h) {
                return;
            }
            host_lost(s, sc, h, false);
            sc.schedule_in(
                heal_at.saturating_sub(sc.now()).max(SimTime::from_nanos(1)),
                move |s: &mut ServeState, sc| heal_host(s, sc, h),
            );
        }
        // The coarse plan model has no per-task CPU lanes to stretch;
        // stragglers are a single-job-simulator concern.
        FaultKind::StragglerCpu { .. } => {}
    }
}

fn heal_host(s: &mut ServeState, sc: &mut Sched, h: usize) {
    if let Some(t) = &s.m.tracer {
        t.instant(
            h as u32,
            0,
            obs::names::FAULT_LINK_HEAL,
            obs::names::CAT_FAULTS_INJECT,
            sc.now().as_nanos(),
        );
    }
    s.m.down.remove(&h);
    if !s.m.dead.contains(&h) {
        s.m.free.insert(h);
    }
    try_dispatch(s, sc);
}

fn host_lost(s: &mut ServeState, sc: &mut Sched, h: usize, permanent: bool) {
    if h == 0 || s.m.dead.contains(&h) {
        return;
    }
    if permanent {
        s.m.dead.insert(h);
        s.m.down.remove(&h);
        Net::fail_host(s, sc, HostId(h));
    } else {
        s.m.down.insert(h);
    }
    s.m.free.remove(&h);
    // Hosts are exclusively granted: at most one running job owns `h`.
    let owner =
        s.m.running
            .iter()
            .find(|(_, r)| r.hosts.contains(&h))
            .map(|(id, _)| *id);
    if let Some(id) = owner {
        job_lost_host(s, sc, id, h);
    }
    try_dispatch(s, sc);
}

/// Per-stack reaction to job `id` losing host `h`: cancel the current
/// attempt's work, then either re-run the phase on the survivors (Hadoop)
/// or re-queue the whole job (MPI).
fn job_lost_host(s: &mut ServeState, sc: &mut Sched, id: u64, h: usize) {
    let now = sc.now();
    let recovery = s.m.backend.recovery();
    let detect = s.m.backend.detect_delay();
    let r = s.m.running.get_mut(&id).expect("job running");
    s.m.busy_host_secs += r.hosts.len() as f64 * now.saturating_sub(r.busy_since).as_secs_f64();
    r.busy_since = now;
    r.hosts.retain(|&x| x != h);
    let t =
        s.m.tenant_hosts
            .get_mut(&s.m.running[&id].arrival.tenant)
            .expect("tenant accounted");
    *t -= 1;
    let r = s.m.running.get_mut(&id).expect("job running");
    let flows: Vec<FlowId> = r.flows.iter().copied().collect();
    if let Some(timer) = r.timer.take() {
        sc.cancel(timer);
    }
    r.flows.clear();
    r.outstanding = 0;
    s.m.next_epoch += 1;
    let epoch = s.m.next_epoch;
    s.m.running.get_mut(&id).expect("job running").epoch = epoch;
    for f in flows {
        // Flows already killed by Net::fail_host return None here.
        Net::cancel_flow(s, sc, f);
    }
    match recovery {
        Recovery::PhaseRestart => {
            s.m.recovered += 1;
            let r = s.m.running.get_mut(&id).expect("job running");
            r.phase_restarts += 1;
            let survivors = r.hosts.len();
            if let Some(t) = &s.m.tracer {
                t.instant(
                    0,
                    id as u32,
                    obs::names::INST_SERVE_PHASE_RESTART,
                    obs::names::CAT_SERVE,
                    now.as_nanos(),
                );
                t.metrics().inc(obs::names::M_SERVE_JOBS_RECOVERED, 1);
            }
            if survivors == 0 {
                requeue(s, sc, id, detect);
            } else {
                // The lost host's partitions re-execute: the phase restarts
                // in full on the survivors once the loss is detected.
                sc.schedule_in(detect, move |s: &mut ServeState, sc| {
                    start_phase(s, sc, id, epoch)
                });
            }
        }
        Recovery::JobRestart => {
            s.m.restarts += 1;
            if let Some(t) = &s.m.tracer {
                t.instant(
                    0,
                    id as u32,
                    obs::names::INST_SERVE_JOB_RESTART,
                    obs::names::CAT_SERVE,
                    now.as_nanos(),
                );
                t.metrics().inc(obs::names::M_SERVE_JOB_RESTARTS, 1);
            }
            requeue(s, sc, id, detect);
        }
    }
}

/// Tear job `id` down and put it back in the queue after `detect` (the
/// master reclaims its surviving hosts immediately — the processes died
/// with the lost rank).
fn requeue(s: &mut ServeState, sc: &mut Sched, id: u64, detect: SimTime) {
    let r = s.m.running.remove(&id).expect("job running");
    let t =
        s.m.tenant_hosts
            .get_mut(&r.arrival.tenant)
            .expect("tenant accounted");
    *t -= r.hosts.len();
    if *t == 0 {
        s.m.tenant_hosts.remove(&r.arrival.tenant);
    }
    s.m.free.extend(r.hosts.iter().copied());
    let pending = Pending {
        arrival: r.arrival,
        job_restarts: r.job_restarts + 1,
    };
    sc.schedule_in(detect, move |s: &mut ServeState, sc| {
        s.m.pending.insert(id, pending);
        s.m.sample_counters(sc.now());
        try_dispatch(s, sc);
    });
}
