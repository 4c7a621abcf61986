//! DES driver for the fluid engine: flows with completion callbacks, embedded
//! in a `desim` simulation.
//!
//! Everything the driver keeps per live flow — its completion callback, its
//! route (so faults can find the flows they hit) and its trace bookkeeping —
//! is one record in a [`FlowTable`], the same ascending-`FlowId` table the
//! fluid engine keeps its flow states in. A completion is one lookup, and
//! every walk over live flows (completion batches, partition cuts and
//! heals) runs in ascending `FlowId` order, the order the engine's
//! arithmetic and the event sequence it schedules depend on.

use crate::cluster::{Cluster, HostId, Route};
use crate::flowtable::FlowTable;
use crate::resource::{FlowId, FluidEngine, SolverStats};
use desim::{EventId, Scheduler, SimTime};
use obs::{ArgValue, Tracer};
use std::collections::BTreeSet;

/// Trace bookkeeping of one flow, kept only while a tracer is installed.
struct FlowMeta {
    start_ns: u64,
    kind: &'static str,
    host: usize,
    bytes: u64,
}

fn route_meta(route: &Route) -> (&'static str, usize) {
    match route {
        Route::HostToHost { src, .. } => (obs::names::FLOW_XFER, src.0),
        Route::Loopback(h) => (obs::names::FLOW_LOOPBACK, h.0),
        Route::DiskRead(h) => (obs::names::FLOW_DISK_READ, h.0),
        Route::DiskWrite(h) => (obs::names::FLOW_DISK_WRITE, h.0),
        Route::RemoteRead { from, .. } => (obs::names::FLOW_REMOTE_READ, from.0),
    }
}

/// Does this route touch host `h` at either endpoint?
fn route_crosses_host(route: &Route, h: usize) -> bool {
    match *route {
        Route::HostToHost { src, dst } => src.0 == h || dst.0 == h,
        Route::Loopback(x) | Route::DiskRead(x) | Route::DiskWrite(x) => x.0 == h,
        Route::RemoteRead { from, to } => from.0 == h || to.0 == h,
    }
}

/// Does this route cross the network link between hosts `a` and `b`?
/// Only inter-host routes can — disk and loopback traffic never leaves
/// the host, so a partition does not touch it.
fn route_crosses_link(route: &Route, a: usize, b: usize) -> bool {
    let (x, y) = match *route {
        Route::HostToHost { src, dst } => (src.0, dst.0),
        Route::RemoteRead { from, to } => (from.0, to.0),
        _ => return false,
    };
    (x == a && y == b) || (x == b && y == a)
}

/// Gives the `Net` driver access to itself inside the user's simulation state.
///
/// Event handlers in `desim` receive `&mut S`; the network driver needs to
/// find itself within `S` to advance flows, so the simulation state implements
/// this single-method trait.
pub trait HasNet: Sized + 'static {
    /// Mutable access to the embedded network driver.
    fn net(&mut self) -> &mut Net<Self>;
}

type DoneFn<S> = Box<dyn FnOnce(&mut S, &mut Scheduler<S>)>;

/// What the driver keeps per live flow.
struct FlowRecord<S> {
    done: DoneFn<S>,
    route: Route,
    /// `Some` iff a tracer was installed when the flow started.
    meta: Option<FlowMeta>,
}

/// Fluid network embedded in a discrete-event simulation.
///
/// Start flows with [`Net::start_flow`]; the provided callback fires at the
/// simulated instant the last byte arrives. Rates react to every flow
/// start/completion (max-min fair sharing — see [`FluidEngine`]).
pub struct Net<S> {
    fluid: FluidEngine,
    cluster: Cluster,
    flows: FlowTable<FlowRecord<S>>,
    timer: Option<EventId>,
    last_sync: SimTime,
    flows_completed: u64,
    tracer: Option<Tracer>,
    /// Minimum simulated time between utilization samples (None = off).
    util_every: Option<SimTime>,
    /// When utilization was last sampled.
    last_util_sample: Option<SimTime>,
    /// Solver counters already published to the tracer's metrics, so each
    /// reallocation point publishes only the delta.
    published_stats: SolverStats,
    // --- fault state (all empty/true on the no-fault path) ---
    host_alive: Vec<bool>,
    /// Cut links as normalized `(min, max)` host pairs.
    partitions: BTreeSet<(usize, usize)>,
}

impl<S: HasNet> Net<S> {
    /// Build a driver over `cluster`'s resources.
    pub fn new(cluster: Cluster) -> Self {
        let hosts = cluster.spec().hosts;
        Net {
            fluid: cluster.build_engine(),
            cluster,
            flows: FlowTable::default(),
            timer: None,
            last_sync: SimTime::ZERO,
            flows_completed: 0,
            tracer: None,
            util_every: None,
            last_util_sample: None,
            published_stats: SolverStats::default(),
            host_alive: vec![true; hosts],
            partitions: BTreeSet::new(),
        }
    }

    /// Install a trace sink. Each flow then produces a complete span
    /// (`"xfer"`/`"loopback"`/`"disk_read"`/`"disk_write"`, cat `"net.flow"`)
    /// on the source host's lane, plus `"net.active_flows"` counter samples
    /// and `"realloc"` instants at every bandwidth reallocation point.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Sample per-host resource utilization into the trace at most once per
    /// `every` of simulated time (counter events `"net.util.up"` /
    /// `"net.util.down"` / `"net.util.disk"`, cat `"net.util"`, one stream
    /// per host lane, values normalized to `[0, 1]` of capacity). Samples
    /// are taken at bandwidth-reallocation points, where rates change — the
    /// fluid model holds them constant in between, so no detail is lost.
    pub fn set_util_sampling(&mut self, every: SimTime) {
        self.util_every = Some(every);
    }

    fn trace_flow_change(&mut self, now: SimTime) {
        let Some(t) = self.tracer.clone() else {
            return;
        };
        let ts = now.as_nanos();
        t.counter(
            0,
            obs::names::CTR_NET_ACTIVE_FLOWS,
            obs::names::CAT_NET,
            ts,
            self.fluid.active_flows() as f64,
        );
        t.instant(0, 0, obs::names::INST_REALLOC, obs::names::CAT_NET, ts);
        t.metrics().inc(obs::names::M_NET_REALLOCS, 1);
        let stats = self.fluid.stats();
        let d = stats.delta_since(&self.published_stats);
        t.metrics()
            .inc(obs::names::M_NET_SOLVER_RECOMPUTES, d.recomputes);
        t.metrics()
            .inc(obs::names::M_NET_SOLVER_FULL_RECOMPUTES, d.full_recomputes);
        t.metrics()
            .inc(obs::names::M_NET_SOLVER_RESOURCES_SWEPT, d.resources_swept);
        t.metrics()
            .inc(obs::names::M_NET_SOLVER_FLOWS_RERATED, d.flows_rerated);
        self.published_stats = stats;
        if let Some(every) = self.util_every {
            let due = match self.last_util_sample {
                None => true,
                Some(last) => now - last >= every,
            };
            if due {
                self.last_util_sample = Some(now);
                for h in self.cluster.host_ids() {
                    for (name, rid) in [
                        (obs::names::CTR_UTIL_UP, self.cluster.uplink(h)),
                        (obs::names::CTR_UTIL_DOWN, self.cluster.downlink(h)),
                        (obs::names::CTR_UTIL_DISK, self.cluster.disk(h)),
                    ] {
                        let cap = self.fluid.capacity(rid);
                        let frac = if cap > 0.0 {
                            // clamp: rate sums can land at -0.0 or nudge a
                            // hair past capacity in floating point
                            (self.fluid.utilization(rid) / cap).clamp(0.0, 1.0)
                        } else {
                            0.0
                        };
                        t.counter(h.0 as u32, name, obs::names::CAT_NET_UTIL, ts, frac);
                    }
                }
            }
        }
    }

    /// Solver work counters accumulated by the embedded fluid engine.
    pub fn solver_stats(&self) -> SolverStats {
        self.fluid.stats()
    }

    /// The cluster topology this driver simulates.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Number of flows whose completion callback has fired.
    pub fn flows_completed(&self) -> u64 {
        self.flows_completed
    }

    /// Number of currently active flows.
    pub fn active_flows(&self) -> usize {
        self.fluid.active_flows()
    }

    /// Start a flow of `bytes` along `route`, invoking `done` when finished.
    ///
    /// Zero-byte flows complete "immediately" (via a zero-delay event, so the
    /// callback still runs from the event loop, never reentrantly).
    pub fn start_flow(
        state: &mut S,
        sched: &mut Scheduler<S>,
        route: Route,
        bytes: u64,
        weight: f64,
        done: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    ) -> FlowId {
        // Bring the fluid state up to `now` before mutating the flow set.
        Self::sync(state, sched);
        let net = state.net();
        for h in 0..net.host_alive.len() {
            assert!(
                net.host_alive[h] || !route_crosses_host(&route, h),
                "flow routed through crashed host {h}: {route:?} — callers must \
                 check Net::host_alive before starting flows"
            );
        }
        let resources = net.cluster.route_resources(&route);
        let (kind, host) = route_meta(&route);
        let id = net.fluid.start_flow(bytes, &resources, weight);
        // A flow started across a cut link stalls until the link heals.
        if net
            .partitions
            .iter()
            .any(|&(a, b)| route_crosses_link(&route, a, b))
        {
            net.fluid.stall_flow(id);
        }
        let meta = net.tracer.is_some().then(|| FlowMeta {
            start_ns: sched.now().as_nanos(),
            kind,
            host,
            bytes,
        });
        let traced = meta.is_some();
        net.flows.insert(
            id,
            FlowRecord {
                done: Box::new(done),
                route,
                meta,
            },
        );
        if traced {
            net.trace_flow_change(sched.now());
        }
        Self::arm_timer(state, sched);
        id
    }

    /// Cancel an active flow; its callback never fires. Returns the number of
    /// bytes left undelivered, or `None` if the flow already completed.
    pub fn cancel_flow(state: &mut S, sched: &mut Scheduler<S>, id: FlowId) -> Option<u64> {
        Self::sync(state, sched);
        let net = state.net();
        let left = net.fluid.cancel_flow(id)?;
        let rec = net.flows.remove(id).expect("cancelled flow has a record");
        if let Some(meta) = rec.meta {
            if let Some(t) = &net.tracer {
                t.instant(
                    meta.host as u32,
                    id.0 as u32,
                    obs::names::INST_FLOW_CANCELLED,
                    obs::names::CAT_NET_FLOW,
                    sched.now().as_nanos(),
                );
                t.metrics().inc(obs::names::M_NET_FLOWS_CANCELLED, 1);
            }
            net.trace_flow_change(sched.now());
        }
        Self::arm_timer(state, sched);
        Some(left)
    }

    /// Advance fluid progress to the current simulated time and fire any
    /// completion callbacks.
    fn sync(state: &mut S, sched: &mut Scheduler<S>) {
        let now = sched.now();
        let net = state.net();
        let dt = (now - net.last_sync).as_secs_f64();
        net.last_sync = now;
        let done = net.fluid.advance(dt);
        if done.is_empty() {
            return;
        }
        let mut cbs = Vec::with_capacity(done.len());
        for id in done {
            let rec = net.flows.remove(id).expect("completed flow has a record");
            cbs.push(rec.done);
            if let Some(meta) = rec.meta {
                if let Some(t) = &net.tracer {
                    t.complete(
                        meta.host as u32,
                        id.0 as u32,
                        meta.kind,
                        obs::names::CAT_NET_FLOW,
                        meta.start_ns,
                        now.as_nanos(),
                        vec![("bytes", ArgValue::U64(meta.bytes))],
                    );
                    t.metrics().inc(obs::names::M_NET_FLOWS_COMPLETED, 1);
                    t.metrics()
                        .observe(obs::names::M_NET_FLOW_BYTES, meta.bytes);
                }
            }
            net.flows_completed += 1;
        }
        if net.tracer.is_some() {
            net.trace_flow_change(now);
        }
        for cb in cbs {
            cb(state, sched);
        }
    }

    /// (Re)schedule the wake-up event for the next flow completion.
    fn arm_timer(state: &mut S, sched: &mut Scheduler<S>) {
        let net = state.net();
        if let Some(t) = net.timer.take() {
            sched.cancel(t);
        }
        let Some(secs) = net.fluid.next_completion() else {
            return;
        };
        // One clamp covers every completion: the timer always fires at least
        // 1 ns in the future, so `sync → arm_timer` can never re-arm at the
        // same instant. That includes `secs == 0.0` (a flow whose remaining
        // bytes are already ≤ 0), which previously mapped to `SimTime::ZERO`
        // and produced an extra same-instant event; `advance()`'s DONE_EPS
        // completion scan guarantees the flow finishes on the 1 ns tick.
        let delay = SimTime::from_secs_f64(secs).max(SimTime::from_nanos(1));
        let id = sched.schedule_in(delay, |s: &mut S, sc| {
            s.net().timer = None;
            Net::sync(s, sc);
            Net::arm_timer(s, sc);
        });
        state.net().timer = Some(id);
    }

    /// Whether a host is (still) alive. All hosts start alive; only
    /// [`Net::fail_host`] flips this, permanently.
    pub fn host_alive(&self, h: HostId) -> bool {
        self.host_alive[h.0]
    }

    /// Crash a host: every in-flight flow touching it is killed *without*
    /// firing its completion callback, and the freed bandwidth re-shares to
    /// the survivors in the same instant. Future flows routed through the
    /// host panic (callers must consult [`Net::host_alive`]).
    ///
    /// Returns the ids of the killed flows so higher layers can reconcile
    /// their own per-flow bookkeeping (e.g. un-claim shuffle fetches).
    /// Crashing an already-dead host is a no-op returning `[]`.
    pub fn fail_host(state: &mut S, sched: &mut Scheduler<S>, h: HostId) -> Vec<FlowId> {
        Self::sync(state, sched);
        let net = state.net();
        if !net.host_alive[h.0] {
            return Vec::new();
        }
        net.host_alive[h.0] = false;
        let rs = [
            net.cluster.uplink(h),
            net.cluster.downlink(h),
            net.cluster.disk(h),
            net.cluster.loopback(h),
        ];
        let killed = net.fluid.kill_flows_crossing(&rs);
        let mut ids = Vec::with_capacity(killed.len());
        for (id, _left) in killed {
            let rec = net.flows.remove(id).expect("killed flow has a record");
            if let Some(meta) = rec.meta {
                if let Some(t) = &net.tracer {
                    t.instant(
                        meta.host as u32,
                        id.0 as u32,
                        obs::names::INST_FLOW_KILLED,
                        obs::names::CAT_NET_FLOW,
                        sched.now().as_nanos(),
                    );
                }
            }
            ids.push(id);
        }
        if let Some(t) = &net.tracer {
            t.instant_args(
                h.0 as u32,
                0,
                obs::names::FAULT_NODE_CRASH,
                obs::names::CAT_FAULTS_INJECT,
                sched.now().as_nanos(),
                vec![("flows_killed", ArgValue::U64(ids.len() as u64))],
            );
            t.metrics().inc(obs::names::M_NET_HOSTS_FAILED, 1);
        }
        net.trace_flow_change(sched.now());
        Self::arm_timer(state, sched);
        ids
    }

    /// Rescale a host's NIC (uplink **and** downlink) to `factor` × the
    /// spec rate. All flow rates react immediately. `factor` must be in
    /// `(0, 1]` going down or `>= 1` restoring; it is absolute, not
    /// cumulative.
    pub fn set_nic_factor(state: &mut S, sched: &mut Scheduler<S>, h: HostId, factor: f64) {
        assert!(factor > 0.0 && factor.is_finite());
        Self::sync(state, sched);
        let net = state.net();
        let cap = net.cluster.spec().nic_bytes_per_sec * factor;
        let (up, down) = (net.cluster.uplink(h), net.cluster.downlink(h));
        net.fluid.set_capacity(up, cap);
        net.fluid.set_capacity(down, cap);
        if let Some(t) = &net.tracer {
            t.instant_args(
                h.0 as u32,
                0,
                obs::names::FAULT_NIC_DEGRADE,
                obs::names::CAT_FAULTS_INJECT,
                sched.now().as_nanos(),
                vec![("factor", ArgValue::F64(factor))],
            );
        }
        net.trace_flow_change(sched.now());
        Self::arm_timer(state, sched);
    }

    /// Rescale a host's disk to `factor` × the spec read rate. Absolute,
    /// like [`Net::set_nic_factor`].
    pub fn set_disk_factor(state: &mut S, sched: &mut Scheduler<S>, h: HostId, factor: f64) {
        assert!(factor > 0.0 && factor.is_finite());
        Self::sync(state, sched);
        let net = state.net();
        let cap = net.cluster.spec().disk_read_bytes_per_sec * factor;
        let disk = net.cluster.disk(h);
        net.fluid.set_capacity(disk, cap);
        if let Some(t) = &net.tracer {
            t.instant_args(
                h.0 as u32,
                0,
                obs::names::FAULT_DISK_SLOWDOWN,
                obs::names::CAT_FAULTS_INJECT,
                sched.now().as_nanos(),
                vec![("factor", ArgValue::F64(factor))],
            );
        }
        net.trace_flow_change(sched.now());
        Self::arm_timer(state, sched);
    }

    /// Cut the network link between `a` and `b`. In-flight flows between the
    /// pair stall (keeping their delivered bytes) and release their bandwidth
    /// shares; flows started across the cut stall from the outset. Everything
    /// resumes on [`Net::heal_link`]. Disk and loopback traffic is unaffected.
    pub fn cut_link(state: &mut S, sched: &mut Scheduler<S>, a: HostId, b: HostId) {
        assert!(a != b, "cannot partition a host from itself");
        Self::sync(state, sched);
        let net = state.net();
        net.partitions.insert((a.0.min(b.0), a.0.max(b.0)));
        let hit: Vec<FlowId> = net
            .flows
            .iter()
            .filter(|(_, rec)| route_crosses_link(&rec.route, a.0, b.0))
            .map(|(id, _)| id)
            .collect();
        for id in &hit {
            net.fluid.stall_flow(*id);
        }
        if let Some(t) = &net.tracer {
            t.instant_args(
                a.0 as u32,
                0,
                obs::names::FAULT_LINK_PARTITION,
                obs::names::CAT_FAULTS_INJECT,
                sched.now().as_nanos(),
                vec![
                    ("peer", ArgValue::U64(b.0 as u64)),
                    ("flows_stalled", ArgValue::U64(hit.len() as u64)),
                ],
            );
        }
        net.trace_flow_change(sched.now());
        Self::arm_timer(state, sched);
    }

    /// Heal a previously cut link: stalled flows between the pair rejoin the
    /// max-min sharing (unless another still-active cut keeps them stalled;
    /// flows to crashed endpoints were already killed by [`Net::fail_host`]).
    /// No-op if the link is not cut.
    pub fn heal_link(state: &mut S, sched: &mut Scheduler<S>, a: HostId, b: HostId) {
        Self::sync(state, sched);
        let net = state.net();
        if !net.partitions.remove(&(a.0.min(b.0), a.0.max(b.0))) {
            return;
        }
        let resumable: Vec<FlowId> = net
            .flows
            .iter()
            .filter(|&(id, rec)| {
                net.fluid.is_stalled(id) == Some(true)
                    && !net
                        .partitions
                        .iter()
                        .any(|&(x, y)| route_crosses_link(&rec.route, x, y))
            })
            .map(|(id, _)| id)
            .collect();
        for id in &resumable {
            net.fluid.resume_flow(*id);
        }
        if let Some(t) = &net.tracer {
            t.instant_args(
                a.0 as u32,
                0,
                obs::names::FAULT_LINK_HEAL,
                obs::names::CAT_FAULTS_INJECT,
                sched.now().as_nanos(),
                vec![
                    ("peer", ArgValue::U64(b.0 as u64)),
                    ("flows_resumed", ArgValue::U64(resumable.len() as u64)),
                ],
            );
        }
        net.trace_flow_change(sched.now());
        Self::arm_timer(state, sched);
    }

    /// Convenience: host-to-host transfer (loopback when `src == dst`).
    pub fn transfer(
        state: &mut S,
        sched: &mut Scheduler<S>,
        src: HostId,
        dst: HostId,
        bytes: u64,
        done: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    ) -> FlowId {
        let route = if src == dst {
            Route::Loopback(src)
        } else {
            Route::HostToHost { src, dst }
        };
        Self::start_flow(state, sched, route, bytes, 1.0, done)
    }

    /// Convenience: sequential disk read of `bytes` on `host`, preceded by one
    /// seek if `seek` is set.
    pub fn disk_read(
        state: &mut S,
        sched: &mut Scheduler<S>,
        host: HostId,
        bytes: u64,
        seek: bool,
        done: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    ) {
        let seek_time = if seek {
            state.net().cluster.spec().disk_seek
        } else {
            SimTime::ZERO
        };
        sched.schedule_in(seek_time, move |s: &mut S, sc| {
            Net::start_flow(s, sc, Route::DiskRead(host), bytes, 1.0, done);
        });
    }

    /// Convenience: sequential disk write of `bytes` on `host`.
    ///
    /// The disk resource's capacity is the *read* rate; writes are slower, so
    /// the byte count is inflated by `read_rate / write_rate` (see the
    /// resource-layout notes on [`Cluster`]).
    pub fn disk_write(
        state: &mut S,
        sched: &mut Scheduler<S>,
        host: HostId,
        bytes: u64,
        done: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    ) {
        let spec = state.net().cluster.spec();
        let ratio = spec.disk_read_bytes_per_sec / spec.disk_write_bytes_per_sec;
        let scaled = ((bytes as f64) * ratio).ceil() as u64;
        Self::start_flow(state, sched, Route::DiskWrite(host), scaled, 1.0, done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use desim::Sim;

    struct St {
        net: Net<St>,
        done_at: Vec<(u32, SimTime)>,
    }
    impl HasNet for St {
        fn net(&mut self) -> &mut Net<St> {
            &mut self.net
        }
    }

    fn sim_with(spec: ClusterSpec) -> Sim<St> {
        Sim::new(St {
            net: Net::new(Cluster::new(spec)),
            done_at: vec![],
        })
    }

    fn small_spec() -> ClusterSpec {
        ClusterSpec {
            hosts: 4,
            nic_bytes_per_sec: 100.0,
            loopback_bytes_per_sec: 1000.0,
            disk_read_bytes_per_sec: 50.0,
            disk_write_bytes_per_sec: 40.0,
            disk_seek: SimTime::from_millis(8),
            rack: None,
        }
    }

    #[test]
    fn single_transfer_takes_bytes_over_bandwidth() {
        let mut sim = sim_with(small_spec());
        sim.schedule(SimTime::ZERO, |s: &mut St, sc| {
            Net::transfer(s, sc, HostId(0), HostId(1), 200, |s, sc| {
                s.done_at.push((1, sc.now()));
            });
        });
        sim.run();
        assert_eq!(sim.state.done_at.len(), 1);
        // 200 bytes at 100 B/s = 2 s.
        assert_eq!(sim.state.done_at[0].1, SimTime::from_secs(2));
    }

    #[test]
    fn contending_transfers_share_then_speed_up() {
        // Two flows out of host 0: share the uplink (50 B/s each); when the
        // short one finishes, the long one accelerates to 100 B/s.
        let mut sim = sim_with(small_spec());
        sim.schedule(SimTime::ZERO, |s: &mut St, sc| {
            Net::transfer(s, sc, HostId(0), HostId(1), 100, |s, sc| {
                s.done_at.push((1, sc.now()));
            });
            Net::transfer(s, sc, HostId(0), HostId(2), 300, |s, sc| {
                s.done_at.push((2, sc.now()));
            });
        });
        sim.run();
        // Short flow: 100 bytes at 50 B/s = 2 s.
        // Long flow: 200 bytes left at t=2, then 100 B/s → done at 4 s.
        assert_eq!(
            sim.state.done_at,
            vec![(1, SimTime::from_secs(2)), (2, SimTime::from_secs(4)),]
        );
    }

    #[test]
    fn late_arrival_slows_existing_flow() {
        let mut sim = sim_with(small_spec());
        sim.schedule(SimTime::ZERO, |s: &mut St, sc| {
            Net::transfer(s, sc, HostId(0), HostId(1), 400, |s, sc| {
                s.done_at.push((1, sc.now()));
            });
        });
        // At t=1s, 100 bytes moved; a second flow halves the rate.
        sim.schedule(SimTime::from_secs(1), |s: &mut St, sc| {
            Net::transfer(s, sc, HostId(0), HostId(2), 100, |s, sc| {
                s.done_at.push((2, sc.now()));
            });
        });
        sim.run();
        // Flow 2: 100 bytes at 50 B/s → done at t=3.
        // Flow 1: 100 + (2s × 50) = 200 by t=3, then 200 left at 100 B/s → t=5.
        assert_eq!(
            sim.state.done_at,
            vec![(2, SimTime::from_secs(3)), (1, SimTime::from_secs(5)),]
        );
    }

    #[test]
    fn loopback_does_not_use_nic() {
        let mut sim = sim_with(small_spec());
        sim.schedule(SimTime::ZERO, |s: &mut St, sc| {
            // Saturate the uplink of host 0.
            Net::transfer(s, sc, HostId(0), HostId(1), 1000, |s, sc| {
                s.done_at.push((1, sc.now()));
            });
            // Loopback on host 0 must be unaffected (1000 B/s).
            Net::transfer(s, sc, HostId(0), HostId(0), 1000, |s, sc| {
                s.done_at.push((0, sc.now()));
            });
        });
        sim.run();
        assert_eq!(sim.state.done_at[0], (0, SimTime::from_secs(1)));
        assert_eq!(sim.state.done_at[1], (1, SimTime::from_secs(10)));
    }

    #[test]
    fn disk_read_includes_seek() {
        let mut sim = sim_with(small_spec());
        sim.schedule(SimTime::ZERO, |s: &mut St, sc| {
            Net::disk_read(s, sc, HostId(2), 50, true, |s, sc| {
                s.done_at.push((9, sc.now()));
            });
        });
        sim.run();
        // 8 ms seek + 50 bytes at 50 B/s = 1.008 s.
        assert_eq!(
            sim.state.done_at[0].1,
            SimTime::from_millis(8) + SimTime::from_secs(1)
        );
    }

    #[test]
    fn disk_read_and_write_share_the_spindle() {
        // Read at 50 and write at 40 on the same disk: the disk resource is
        // shared, so concurrent read+write each get a fraction.
        let mut sim = sim_with(small_spec());
        sim.schedule(SimTime::ZERO, |s: &mut St, sc| {
            Net::disk_read(s, sc, HostId(1), 100, false, |s, sc| {
                s.done_at.push((1, sc.now()));
            });
            Net::disk_write(s, sc, HostId(1), 100, |s, sc| {
                s.done_at.push((2, sc.now()));
            });
        });
        sim.run();
        // Both finish later than they would alone.
        assert!(sim.state.done_at[0].1 > SimTime::from_secs(2));
        assert!(sim.state.done_at[1].1 > SimTime::from_millis(2500));
    }

    #[test]
    fn cancel_flow_suppresses_callback() {
        let mut sim = sim_with(small_spec());
        sim.schedule(SimTime::ZERO, |s: &mut St, sc| {
            let id = Net::transfer(s, sc, HostId(0), HostId(1), 1000, |s, sc| {
                s.done_at.push((1, sc.now()));
            });
            sc.schedule_in(SimTime::from_secs(1), move |s: &mut St, sc| {
                let left = Net::cancel_flow(s, sc, id).unwrap();
                assert_eq!(left, 900);
            });
        });
        sim.run();
        assert!(sim.state.done_at.is_empty());
    }

    #[test]
    fn zero_byte_flow_completes() {
        let mut sim = sim_with(small_spec());
        sim.schedule(SimTime::ZERO, |s: &mut St, sc| {
            Net::transfer(s, sc, HostId(0), HostId(1), 0, |s, sc| {
                s.done_at.push((1, sc.now()));
            });
        });
        sim.run();
        assert_eq!(sim.state.done_at.len(), 1);
    }

    #[test]
    fn zero_remaining_flow_timer_always_advances_the_clock() {
        // Regression for the zero-remaining-bytes spin: `secs == 0.0` used
        // to arm a zero-delay timer, scheduling an extra event at the same
        // instant. The unified clamp fires the timer 1 ns later instead, so
        // every armed timer advances the clock.
        let mut sim = sim_with(small_spec());
        sim.schedule(SimTime::ZERO, |s: &mut St, sc| {
            Net::transfer(s, sc, HostId(0), HostId(1), 0, |s, sc| {
                s.done_at.push((1, sc.now()));
            });
        });
        sim.run();
        assert_eq!(sim.state.done_at, vec![(1, SimTime::from_nanos(1))]);
        assert_eq!(sim.state.net.active_flows(), 0);
    }

    #[test]
    fn subnanosecond_completion_does_not_spin() {
        // 1 byte at 1e12 B/s is a 1 ps transfer — it rounds to a 0 ns
        // delay. The clamp must still advance the clock so the completion
        // is observed and the event loop terminates.
        let mut spec = small_spec();
        spec.nic_bytes_per_sec = 1e12;
        let mut sim = sim_with(spec);
        sim.schedule(SimTime::ZERO, |s: &mut St, sc| {
            Net::transfer(s, sc, HostId(0), HostId(1), 1, |s, sc| {
                s.done_at.push((1, sc.now()));
            });
        });
        sim.run();
        assert_eq!(sim.state.done_at, vec![(1, SimTime::from_nanos(1))]);
        assert_eq!(sim.state.net.flows_completed(), 1);
    }

    #[test]
    fn solver_counters_flow_into_metrics() {
        let tracer = Tracer::new();
        let mut sim = sim_with(small_spec());
        sim.state.net.set_tracer(tracer.clone());
        sim.schedule(SimTime::ZERO, |s: &mut St, sc| {
            Net::transfer(s, sc, HostId(0), HostId(1), 200, |s, sc| {
                s.done_at.push((1, sc.now()));
            });
        });
        sim.run();
        let stats = sim.state.net.solver_stats();
        assert!(stats.recomputes >= 2, "start + completion recompute");
        assert_eq!(stats.full_recomputes, 0);
        assert_eq!(
            tracer.metrics().counter("net.solver.recomputes"),
            stats.recomputes
        );
        assert_eq!(
            tracer.metrics().counter("net.solver.resources_swept"),
            stats.resources_swept
        );
    }

    #[test]
    fn tracer_records_flow_spans_and_counters() {
        let tracer = Tracer::new();
        let mut sim = sim_with(small_spec());
        sim.state.net.set_tracer(tracer.clone());
        sim.schedule(SimTime::ZERO, |s: &mut St, sc| {
            Net::transfer(s, sc, HostId(0), HostId(1), 200, |s, sc| {
                s.done_at.push((1, sc.now()));
            });
        });
        sim.run();
        let trace = tracer.take_trace();
        let span = trace
            .events()
            .iter()
            .find(|e| e.name == "xfer")
            .expect("flow span recorded");
        assert_eq!(span.ts_ns, 0);
        assert_eq!(span.end_ns(), 2_000_000_000, "200 B at 100 B/s");
        assert_eq!(span.args, vec![("bytes", ArgValue::U64(200))]);
        assert!(trace.events().iter().any(|e| e.name == "net.active_flows"));
        assert_eq!(tracer.metrics().counter("net.flows_completed"), 1);
    }

    #[test]
    fn fail_host_kills_its_flows_and_frees_shares() {
        let mut sim = sim_with(small_spec());
        sim.schedule(SimTime::ZERO, |s: &mut St, sc| {
            // Two flows share host 0's uplink at 50 B/s each.
            Net::transfer(s, sc, HostId(0), HostId(1), 400, |s, sc| {
                s.done_at.push((1, sc.now()));
            });
            Net::transfer(s, sc, HostId(0), HostId(2), 400, |s, sc| {
                s.done_at.push((2, sc.now()));
            });
        });
        sim.schedule(SimTime::from_secs(1), |s: &mut St, sc| {
            let killed = Net::fail_host(s, sc, HostId(1));
            assert_eq!(killed.len(), 1, "only the flow touching host 1 dies");
            assert!(!s.net.host_alive(HostId(1)));
            assert!(s.net.host_alive(HostId(0)));
            // Double-fail is a no-op.
            assert!(Net::fail_host(s, sc, HostId(1)).is_empty());
        });
        sim.run();
        // Victim's callback never fired; survivor had 350 left at t=1 and
        // the full 100 B/s from then on → done at t = 1 + 3.5 = 4.5 s.
        assert_eq!(sim.state.done_at, vec![(2, SimTime::from_millis(4500))]);
        assert_eq!(sim.state.net.active_flows(), 0);
        assert_eq!(sim.state.net.flows_completed(), 1);
    }

    #[test]
    #[should_panic(expected = "crashed host")]
    fn starting_a_flow_through_a_dead_host_panics() {
        let mut sim = sim_with(small_spec());
        sim.schedule(SimTime::ZERO, |s: &mut St, sc| {
            Net::fail_host(s, sc, HostId(2));
            Net::transfer(s, sc, HostId(0), HostId(2), 10, |_, _| {});
        });
        sim.run();
    }

    #[test]
    fn partition_stalls_in_flight_flows_until_heal() {
        let mut sim = sim_with(small_spec());
        sim.schedule(SimTime::ZERO, |s: &mut St, sc| {
            Net::transfer(s, sc, HostId(0), HostId(1), 400, |s, sc| {
                s.done_at.push((1, sc.now()));
            });
            // Unrelated pair: must be unaffected by the cut.
            Net::transfer(s, sc, HostId(2), HostId(3), 200, |s, sc| {
                s.done_at.push((2, sc.now()));
            });
        });
        sim.schedule(SimTime::from_secs(1), |s: &mut St, sc| {
            Net::cut_link(s, sc, HostId(0), HostId(1));
        });
        sim.schedule(SimTime::from_secs(3), |s: &mut St, sc| {
            Net::heal_link(s, sc, HostId(0), HostId(1));
            // Healing an uncut link is a no-op.
            Net::heal_link(s, sc, HostId(2), HostId(3));
        });
        sim.run();
        // Cut flow: 100 bytes moved by t=1, stalled for 2 s, then 300 left
        // at 100 B/s → done at 1 + 2 + 3 = 6 s. Other pair: plain 2 s.
        assert_eq!(
            sim.state.done_at,
            vec![(2, SimTime::from_secs(2)), (1, SimTime::from_secs(6))]
        );
    }

    #[test]
    fn flow_started_across_a_cut_link_waits_for_heal() {
        let mut sim = sim_with(small_spec());
        sim.schedule(SimTime::ZERO, |s: &mut St, sc| {
            Net::cut_link(s, sc, HostId(0), HostId(1));
            Net::transfer(s, sc, HostId(0), HostId(1), 200, |s, sc| {
                s.done_at.push((1, sc.now()));
            });
        });
        sim.schedule(SimTime::from_secs(2), |s: &mut St, sc| {
            Net::heal_link(s, sc, HostId(0), HostId(1));
        });
        sim.run();
        assert_eq!(sim.state.done_at, vec![(1, SimTime::from_secs(4))]);
    }

    #[test]
    fn nic_and_disk_factors_rescale_mid_flow() {
        let mut sim = sim_with(small_spec());
        sim.schedule(SimTime::ZERO, |s: &mut St, sc| {
            Net::transfer(s, sc, HostId(0), HostId(1), 200, |s, sc| {
                s.done_at.push((1, sc.now()));
            });
            Net::disk_read(s, sc, HostId(2), 100, false, |s, sc| {
                s.done_at.push((2, sc.now()));
            });
        });
        sim.schedule(SimTime::from_secs(1), |s: &mut St, sc| {
            // NIC drops to 25 B/s, disk halves to 25 B/s.
            Net::set_nic_factor(s, sc, HostId(0), 0.25);
            Net::set_disk_factor(s, sc, HostId(2), 0.5);
        });
        sim.run();
        // NIC flow: 100 moved by t=1, then 100 at 25 B/s → t=5.
        // Disk flow: 50 moved by t=1, then 50 at 25 B/s → t=3.
        assert_eq!(
            sim.state.done_at,
            vec![(2, SimTime::from_secs(3)), (1, SimTime::from_secs(5))]
        );
    }

    #[test]
    fn many_flows_byte_accounting() {
        let mut sim = sim_with(small_spec());
        sim.schedule(SimTime::ZERO, |s: &mut St, sc| {
            for d in 1..4u32 {
                for k in 0..3u32 {
                    let tag = d * 10 + k;
                    Net::transfer(
                        s,
                        sc,
                        HostId(0),
                        HostId(d as usize),
                        100 + k as u64 * 37,
                        move |s, sc| {
                            s.done_at.push((tag, sc.now()));
                        },
                    );
                }
            }
        });
        sim.run();
        assert_eq!(sim.state.done_at.len(), 9);
        assert_eq!(sim.state.net.flows_completed(), 9);
        assert_eq!(sim.state.net.active_flows(), 0);
    }
}
