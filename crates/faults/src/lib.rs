//! # faults — deterministic fault-injection plans for the cluster simulators
//!
//! The paper's discussion concedes the one axis where Hadoop beats MPI:
//! fault tolerance. Hadoop re-executes failed tasks and speculates on
//! stragglers; a plain MPI job dies with its slowest or failed rank. To
//! *measure* that claim instead of asserting it, this crate provides the
//! fault model both simulators (`hadoop-sim` and `mapred::sim`) inject from:
//!
//! * a [`FaultPlan`] is a schedule of [`FaultEvent`]s keyed to simulated
//!   time — node crashes, disk slowdowns, NIC degradations, link partitions
//!   with a heal time, and straggler-CPU windows;
//! * plans are plain data, built explicitly ([`FaultPlan::builder`]) or
//!   generated from a seed ([`FaultPlan::random`]) via `desim`'s
//!   deterministic [`SplitMix64`] — the same seed always yields the same
//!   plan, and the same plan drives bit-identical simulations;
//! * [`FaultPlan::arm`] schedules the events on a simulation embedding a
//!   `netsim::Net`, the one injector both simulators use: degradations and
//!   partitions act on the network there, and crashes go to the
//!   simulator's own handler (each stack recovers its own way). Straggler
//!   windows are queried where CPU is charged ([`FaultPlan::cpu_factor`]);
//!   restart drivers re-base plans with [`FaultPlan::after`] and
//!   [`FaultPlan::crashed_before`].
//!
//! ## Determinism contract
//!
//! A plan never reads wall clocks or ambient RNGs (enforced by
//! `cargo xtask lint`). Injection must not perturb the no-fault path: an
//! empty plan produces a simulation byte-identical to a run without the
//! fault machinery (regression-guarded in `tests/determinism.rs`).

#![warn(missing_docs)]

use desim::rng::SplitMix64;
use desim::{Scheduler, Sim, SimTime};
use netsim::{HasNet, HostId, Net};

/// What fails. The `host` it happens to lives on the enclosing
/// [`FaultEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The host dies: in-flight flows through any of its resources are
    /// dropped, new flows are rejected, and every task or rank placed there
    /// is lost. Host 0 (the master/head node) may not crash.
    NodeCrash,
    /// The host's disk degrades to `factor` × its nominal bandwidth
    /// (`0 < factor <= 1`), e.g. a failing spindle retrying sectors.
    DiskSlowdown {
        /// Remaining fraction of nominal disk bandwidth.
        factor: f64,
    },
    /// The host's NIC (both directions) degrades to `factor` × nominal
    /// (`0 < factor <= 1`), e.g. renegotiation down to 100 Mb/s.
    NicDegrade {
        /// Remaining fraction of nominal NIC bandwidth.
        factor: f64,
    },
    /// The network link between this host and `peer` is cut; in-flight
    /// flows between the pair stall (bytes already delivered are kept) and
    /// resume when the partition heals at `heal_at` (absolute sim time).
    LinkPartition {
        /// The other endpoint of the severed link.
        peer: usize,
        /// Absolute sim time at which the partition heals.
        heal_at: SimTime,
    },
    /// CPU on the host runs `factor` × slower (`factor >= 1`) for work
    /// started in the window `[at, until)` — a GC storm, a co-tenant, a
    /// thermal throttle. This is what speculative execution exists to mask.
    StragglerCpu {
        /// CPU-time multiplier while the window is active.
        factor: f64,
        /// Absolute sim time at which the host recovers.
        until: SimTime,
    },
}

impl FaultKind {
    /// Short label used for trace instants (`faults.inject` category).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::NodeCrash => obs::names::FAULT_NODE_CRASH,
            FaultKind::DiskSlowdown { .. } => obs::names::FAULT_DISK_SLOWDOWN,
            FaultKind::NicDegrade { .. } => obs::names::FAULT_NIC_DEGRADE,
            FaultKind::LinkPartition { .. } => obs::names::FAULT_LINK_PARTITION,
            FaultKind::StragglerCpu { .. } => obs::names::FAULT_STRAGGLER_CPU,
        }
    }
}

/// One scheduled fault: at simulated time `at`, `kind` happens to `host`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Simulated time of injection.
    pub at: SimTime,
    /// Host the fault strikes (cluster host id; 0 is the master).
    pub host: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault events, sorted by injection time
/// (ties keep insertion order, so replay is exact).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// Fluent constructor for explicit plans.
#[derive(Debug, Default)]
pub struct FaultPlanBuilder {
    events: Vec<FaultEvent>,
}

impl FaultPlanBuilder {
    /// Kill `host` at `at`.
    pub fn crash(mut self, at: SimTime, host: usize) -> Self {
        self.events.push(FaultEvent {
            at,
            host,
            kind: FaultKind::NodeCrash,
        });
        self
    }

    /// Degrade `host`'s disk to `factor` × nominal from `at` onward.
    pub fn disk_slowdown(mut self, at: SimTime, host: usize, factor: f64) -> Self {
        self.events.push(FaultEvent {
            at,
            host,
            kind: FaultKind::DiskSlowdown { factor },
        });
        self
    }

    /// Degrade `host`'s NIC to `factor` × nominal from `at` onward.
    pub fn nic_degrade(mut self, at: SimTime, host: usize, factor: f64) -> Self {
        self.events.push(FaultEvent {
            at,
            host,
            kind: FaultKind::NicDegrade { factor },
        });
        self
    }

    /// Cut the link between `a` and `b` at `at`; heal it at `heal_at`.
    pub fn partition(mut self, at: SimTime, a: usize, b: usize, heal_at: SimTime) -> Self {
        self.events.push(FaultEvent {
            at,
            host: a,
            kind: FaultKind::LinkPartition { peer: b, heal_at },
        });
        self
    }

    /// Cut `host` off from every host in `peers` at `at`, healing at
    /// `heal_at` — one [`FaultKind::LinkPartition`] per peer. This is how a
    /// rack uplink failure is expressed: cut the master (or gateway) host
    /// from the rack's members in one call instead of enumerating O(n²)
    /// pairs.
    pub fn partition_set(
        mut self,
        at: SimTime,
        host: usize,
        peers: &[usize],
        heal_at: SimTime,
    ) -> Self {
        for &peer in peers {
            self = self.partition(at, host, peer, heal_at);
        }
        self
    }

    /// Slow `host`'s CPU by `factor` for work started in `[at, until)`.
    pub fn straggler(mut self, at: SimTime, host: usize, factor: f64, until: SimTime) -> Self {
        self.events.push(FaultEvent {
            at,
            host,
            kind: FaultKind::StragglerCpu { factor, until },
        });
        self
    }

    /// Finish the plan (events sorted by time, stable).
    pub fn build(mut self) -> FaultPlan {
        self.events.sort_by_key(|e| e.at);
        FaultPlan {
            events: self.events,
        }
    }
}

impl FaultPlan {
    /// The empty plan: no faults, simulation byte-identical to a run
    /// without the fault machinery.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Start building an explicit plan.
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder::default()
    }

    /// Generate `n_events` faults over worker hosts `1..n_hosts` within
    /// `[horizon/8, horizon)`, deterministically from `seed`. At most one
    /// crash is generated (so a cluster of any size keeps a quorum of
    /// workers), and crash-host 0 never appears (the master survives).
    pub fn random(seed: u64, n_hosts: usize, horizon: SimTime, n_events: usize) -> Self {
        assert!(n_hosts >= 3, "need a master and at least two workers");
        let mut rng = SplitMix64::new(seed).derive("fault-plan");
        let mut b = FaultPlan::builder();
        let lo = horizon.as_nanos() / 8;
        let hi = horizon.as_nanos().max(lo + 1);
        let mut crashed = false;
        for _ in 0..n_events {
            let at = SimTime::from_nanos(rng.next_range(lo, hi));
            let host = 1 + rng.next_below((n_hosts - 1) as u64) as usize;
            match rng.next_below(5) {
                0 if !crashed => {
                    crashed = true;
                    b = b.crash(at, host);
                }
                1 => b = b.disk_slowdown(at, host, 0.1 + 0.8 * rng.next_f64()),
                2 => b = b.nic_degrade(at, host, 0.1 + 0.8 * rng.next_f64()),
                3 => {
                    let mut peer = 1 + rng.next_below((n_hosts - 1) as u64) as usize;
                    if peer == host {
                        peer = 1 + (host % (n_hosts - 1));
                    }
                    let heal = at + SimTime::from_nanos(rng.next_range(1, horizon.as_nanos() / 4));
                    b = b.partition(at, host, peer, heal);
                }
                _ => {
                    let until = at + SimTime::from_nanos(rng.next_range(1, horizon.as_nanos() / 2));
                    b = b.straggler(at, host, 2.0 + 6.0 * rng.next_f64(), until);
                }
            }
        }
        b.build()
    }

    /// The scheduled events, ascending by injection time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check the plan against a cluster of `n_hosts` hosts. Rejects
    /// out-of-range hosts, a crash of host 0 (the master), crashes leaving
    /// fewer than one worker alive, non-positive or >1 degrade factors,
    /// straggler factors below 1, self-partitions, and heal times that
    /// don't follow their cut.
    pub fn validate(&self, n_hosts: usize) -> Result<(), String> {
        let mut crashes = 0usize;
        for e in &self.events {
            if e.host >= n_hosts {
                return Err(format!("fault host {} out of range (<{n_hosts})", e.host));
            }
            match &e.kind {
                FaultKind::NodeCrash => {
                    if e.host == 0 {
                        return Err("host 0 (master) may not crash".into());
                    }
                    crashes += 1;
                }
                FaultKind::DiskSlowdown { factor } | FaultKind::NicDegrade { factor } => {
                    if !(*factor > 0.0 && *factor <= 1.0) {
                        return Err(format!("degrade factor {factor} outside (0, 1]"));
                    }
                }
                FaultKind::LinkPartition { peer, heal_at } => {
                    if *peer >= n_hosts {
                        return Err(format!("partition peer {peer} out of range (<{n_hosts})"));
                    }
                    if *peer == e.host {
                        return Err("partition endpoints must differ".into());
                    }
                    if *heal_at <= e.at {
                        return Err("partition must heal after it is cut".into());
                    }
                }
                FaultKind::StragglerCpu { factor, until } => {
                    if *factor < 1.0 {
                        return Err(format!("straggler factor {factor} below 1"));
                    }
                    if *until <= e.at {
                        return Err("straggler window must end after it starts".into());
                    }
                }
            }
        }
        if crashes + 2 > n_hosts {
            return Err(format!(
                "{crashes} crashes leave no worker alive on {n_hosts} hosts"
            ));
        }
        Ok(())
    }

    /// Effective CPU-time multiplier on `host` for work starting at `at`:
    /// the product of every straggler window covering that instant, 1.0
    /// when none does.
    pub fn cpu_factor(&self, host: usize, at: SimTime) -> f64 {
        let mut f = 1.0;
        for e in &self.events {
            if let FaultKind::StragglerCpu { factor, until } = e.kind {
                if e.host == host && e.at <= at && at < until {
                    f *= factor;
                }
            }
        }
        f
    }

    /// Time of the first scheduled crash, with its host.
    pub fn first_crash(&self) -> Option<(SimTime, usize)> {
        self.events
            .iter()
            .find(|e| e.kind == FaultKind::NodeCrash)
            .map(|e| (e.at, e.host))
    }

    /// Hosts crashed strictly before `cutoff` (for restart drivers that
    /// re-run a job on the surviving hosts).
    pub fn crashed_before(&self, cutoff: SimTime) -> Vec<usize> {
        self.events
            .iter()
            .filter(|e| e.kind == FaultKind::NodeCrash && e.at < cutoff)
            .map(|e| e.host)
            .collect()
    }

    /// The plan's tail after `offset`, re-based so a restart driver can run
    /// the remainder against a fresh simulation starting at local time 0:
    /// embedded absolute times (injection, heal, until) shift left by
    /// `offset`. Events still *in effect* at the cut survive with an
    /// injection time of zero — a disk/NIC degradation is permanent, and a
    /// partition or straggler window straddling the cut keeps its remaining
    /// extent. Expired windows and past crashes are dropped (a restart
    /// driver accounts for dead hosts via [`FaultPlan::crashed_before`]).
    pub fn after(&self, offset: SimTime) -> FaultPlan {
        let shift = |t: SimTime| {
            if t > offset {
                SimTime::from_nanos(t.as_nanos() - offset.as_nanos())
            } else {
                SimTime::ZERO
            }
        };
        let events = self
            .events
            .iter()
            .filter(|e| match &e.kind {
                FaultKind::NodeCrash => e.at > offset,
                FaultKind::DiskSlowdown { .. } | FaultKind::NicDegrade { .. } => true,
                FaultKind::LinkPartition { heal_at, .. } => *heal_at > offset,
                FaultKind::StragglerCpu { until, .. } => *until > offset,
            })
            .map(|e| FaultEvent {
                at: shift(e.at),
                host: e.host,
                kind: match &e.kind {
                    FaultKind::LinkPartition { peer, heal_at } => FaultKind::LinkPartition {
                        peer: *peer,
                        heal_at: shift(*heal_at),
                    },
                    FaultKind::StragglerCpu { factor, until } => FaultKind::StragglerCpu {
                        factor: *factor,
                        until: shift(*until),
                    },
                    other => other.clone(),
                },
            })
            .collect();
        FaultPlan { events }
    }

    /// The same plan with every [`FaultKind::NodeCrash`] removed — what a
    /// restart driver feeds a replayed attempt once the crash has been
    /// consumed (the crashed process comes back healthy).
    pub fn without_crashes(&self) -> FaultPlan {
        FaultPlan {
            events: self
                .events
                .iter()
                .filter(|e| e.kind != FaultKind::NodeCrash)
                .cloned()
                .collect(),
        }
    }

    /// Schedule the plan's events on `sim`, in plan order (a partition's
    /// heal right after its cut), since same-instant events run FIFO.
    ///
    /// Disk and NIC degradations and partition cuts fire only while
    /// `running` holds and their hosts are alive; heals fire only while
    /// `running` holds. Crashes go to `crash`, which guards itself; a
    /// simulator without one takes crash-free plans only. Straggler windows
    /// are not events: CPU charges query [`FaultPlan::cpu_factor`].
    pub fn arm<S: HasNet>(
        &self,
        sim: &mut Sim<S>,
        running: fn(&S) -> bool,
        crash: Option<fn(&mut S, &mut Scheduler<S>, HostId)>,
    ) {
        for ev in &self.events {
            let host = HostId(ev.host);
            match ev.kind {
                FaultKind::NodeCrash => {
                    let crash = crash.expect("a plan with crashes needs a crash handler");
                    sim.schedule(ev.at, move |s, sc| crash(s, sc, host));
                }
                FaultKind::DiskSlowdown { factor } => {
                    sim.schedule(ev.at, move |s: &mut S, sc| {
                        if running(s) && s.net().host_alive(host) {
                            Net::set_disk_factor(s, sc, host, factor);
                        }
                    });
                }
                FaultKind::NicDegrade { factor } => {
                    sim.schedule(ev.at, move |s: &mut S, sc| {
                        if running(s) && s.net().host_alive(host) {
                            Net::set_nic_factor(s, sc, host, factor);
                        }
                    });
                }
                FaultKind::LinkPartition { peer, heal_at } => {
                    let peer = HostId(peer);
                    sim.schedule(ev.at, move |s: &mut S, sc| {
                        if running(s) && s.net().host_alive(host) && s.net().host_alive(peer) {
                            Net::cut_link(s, sc, host, peer);
                        }
                    });
                    sim.schedule(heal_at, move |s: &mut S, sc| {
                        if running(s) {
                            Net::heal_link(s, sc, host, peer);
                        }
                    });
                }
                FaultKind::StragglerCpu { .. } => {}
            }
        }
    }

    /// Emit one `faults.inject` instant per event onto `tracer` (pid =
    /// struck host), with the event's label and parameters as span args.
    pub fn emit_schedule(&self, tracer: &obs::Tracer) {
        for e in &self.events {
            tracer.instant_args(
                e.host as u32,
                0,
                e.kind.label(),
                obs::names::CAT_FAULTS_INJECT,
                e.at.as_nanos(),
                vec![("host", obs::ArgValue::U64(e.host as u64))],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sorts_by_time() {
        let p = FaultPlan::builder()
            .crash(SimTime::from_secs(20), 2)
            .disk_slowdown(SimTime::from_secs(5), 1, 0.5)
            .build();
        assert_eq!(p.events()[0].at, SimTime::from_secs(5));
        assert_eq!(p.events()[1].kind, FaultKind::NodeCrash);
        assert!(p.validate(8).is_ok());
    }

    #[test]
    fn random_plans_replay_from_the_seed() {
        let a = FaultPlan::random(42, 8, SimTime::from_secs(100), 6);
        let b = FaultPlan::random(42, 8, SimTime::from_secs(100), 6);
        let c = FaultPlan::random(43, 8, SimTime::from_secs(100), 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.validate(8).is_ok());
        assert!(!a.is_empty());
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let master_crash = FaultPlan::builder().crash(SimTime::from_secs(1), 0).build();
        assert!(master_crash.validate(8).is_err());
        let out_of_range = FaultPlan::builder().crash(SimTime::from_secs(1), 9).build();
        assert!(out_of_range.validate(8).is_err());
        let bad_factor = FaultPlan::builder()
            .nic_degrade(SimTime::from_secs(1), 1, 0.0)
            .build();
        assert!(bad_factor.validate(8).is_err());
        let heal_before_cut = FaultPlan::builder()
            .partition(SimTime::from_secs(5), 1, 2, SimTime::from_secs(4))
            .build();
        assert!(heal_before_cut.validate(8).is_err());
        let all_dead = FaultPlan::builder()
            .crash(SimTime::from_secs(1), 1)
            .crash(SimTime::from_secs(2), 2)
            .build();
        assert!(all_dead.validate(3).is_err());
    }

    #[test]
    fn partition_set_expands_to_pairwise_cuts() {
        let rack: Vec<usize> = (4..8).collect();
        let p = FaultPlan::builder()
            .partition_set(SimTime::from_secs(10), 0, &rack, SimTime::from_secs(30))
            .build();
        assert_eq!(p.events().len(), 4);
        for (e, peer) in p.events().iter().zip(rack) {
            assert_eq!(e.host, 0);
            assert_eq!(e.at, SimTime::from_secs(10));
            assert_eq!(
                e.kind,
                FaultKind::LinkPartition {
                    peer,
                    heal_at: SimTime::from_secs(30)
                }
            );
        }
        assert!(p.validate(8).is_ok());
        // Equivalent to the same cuts made one pair at a time.
        let manual = FaultPlan::builder()
            .partition(SimTime::from_secs(10), 0, 4, SimTime::from_secs(30))
            .partition(SimTime::from_secs(10), 0, 5, SimTime::from_secs(30))
            .partition(SimTime::from_secs(10), 0, 6, SimTime::from_secs(30))
            .partition(SimTime::from_secs(10), 0, 7, SimTime::from_secs(30))
            .build();
        assert_eq!(p, manual);
    }

    #[test]
    fn cpu_factor_windows() {
        let p = FaultPlan::builder()
            .straggler(SimTime::from_secs(10), 3, 4.0, SimTime::from_secs(20))
            .build();
        assert_eq!(p.cpu_factor(3, SimTime::from_secs(5)), 1.0);
        assert_eq!(p.cpu_factor(3, SimTime::from_secs(15)), 4.0);
        assert_eq!(p.cpu_factor(3, SimTime::from_secs(20)), 1.0);
        assert_eq!(p.cpu_factor(2, SimTime::from_secs(15)), 1.0);
    }

    #[test]
    fn after_rebases_the_tail() {
        let p = FaultPlan::builder()
            .crash(SimTime::from_secs(10), 1)
            .partition(SimTime::from_secs(30), 2, 3, SimTime::from_secs(50))
            .build();
        let tail = p.after(SimTime::from_secs(20));
        assert_eq!(tail.events().len(), 1);
        assert_eq!(tail.events()[0].at, SimTime::from_secs(10));
        match tail.events()[0].kind {
            FaultKind::LinkPartition { heal_at, .. } => {
                assert_eq!(heal_at, SimTime::from_secs(30));
            }
            _ => panic!("expected partition"),
        }
        assert_eq!(p.crashed_before(SimTime::from_secs(20)), vec![1]);
        assert_eq!(p.first_crash(), Some((SimTime::from_secs(10), 1)));
    }
}
